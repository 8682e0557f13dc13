"""Measure and dimension criteria for Diophantine limsup sets.

The package computes series criteria (Khintchine-Groshev, Jarnik-type, and
their weighted/multiplicative refinements), closed-form Hausdorff and
Fourier dimensions, exact resonant-set measures, and desk-scale numerical
cross-checks of all of them against independent oracles.  The `limsup-lab`
command line exposes every capability over a JSON instance config.
"""

__version__ = "0.1.0"

from .content import RectCorpus, greedy_cover_oracle, mdp_check, rect_content_formula
from .criteria import (
    InapplicableError,
    SeriesDescriptor,
    critical_exponent,
    lattice_sum,
    series_sum,
)
from .estimators import (
    StageUnion,
    coverage_fraction,
    hausdorff_cost_exponent,
    tail_first_moment,
)
from .formulas import (
    ProblemInstance,
    Verdict,
    dim_rynne_dickinson,
    fdim_product,
    fourier_dim,
    hausdorff_verdict,
    lebesgue_verdict,
)
from .funcspace import (
    ApproximatingFunction,
    DimensionFunction,
    WeightSystem,
    bracket,
    compare,
)
from .resonant import (
    LatticePoint,
    dyadic_decompose,
    measure_exact,
    mult_star,
    sandwich_check,
    weighted_rect,
)

__all__ = [
    "__version__",
    "ApproximatingFunction",
    "DimensionFunction",
    "InapplicableError",
    "LatticePoint",
    "ProblemInstance",
    "RectCorpus",
    "SeriesDescriptor",
    "StageUnion",
    "Verdict",
    "WeightSystem",
    "bracket",
    "compare",
    "coverage_fraction",
    "critical_exponent",
    "dim_rynne_dickinson",
    "dyadic_decompose",
    "fdim_product",
    "fourier_dim",
    "greedy_cover_oracle",
    "hausdorff_cost_exponent",
    "hausdorff_verdict",
    "lattice_sum",
    "lebesgue_verdict",
    "mdp_check",
    "measure_exact",
    "mult_star",
    "rect_content_formula",
    "sandwich_check",
    "series_sum",
    "tail_first_moment",
    "weighted_rect",
]
