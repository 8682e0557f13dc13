"""Leading-order symbolic terms kappa * q^a * log^b(q) * loglog^c(q).

Every weight and summand the package cares about is, for large q, a positive
constant times a power of q, a power of log q, and a power of log log q.
Tracking that leading monomial exactly turns convergence of the block series
into a three-level Bertrand test:

  sum q^a log^b q loglog^c q   converges iff
    a < -1, or (a = -1 and b < -1), or (a = -1 and b = -1 and c < -1).

Products, powers, minima (asymptotic = lexicographic on (a, b, c)), and the
substitution r -> log(1/r) for log factors all stay inside the class, so the
classification is exact rather than a finite-block heuristic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Monomial:
    """kappa * q^a * (log q)^b * (log log q)^c with kappa > 0, held as log kappa.

    Products and powers add and scale log kappa, so a leading term stays in
    the float range where kappa itself would underflow to 0 or overflow: at
    psi = q^-tau with tau = 1e-261, log(1/psi) ~ tau log q squares to 0.0.
    """

    log_coeff: float
    a: float
    b: float = 0.0
    c: float = 0.0

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(
            self.log_coeff + other.log_coeff,
            self.a + other.a,
            self.b + other.b,
            self.c + other.c,
        )

    def __pow__(self, e: float) -> "Monomial":
        return Monomial(self.log_coeff * e, self.a * e, self.b * e, self.c * e)

    @property
    def exponents(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)


def asymptotic_min(terms: list[Monomial]) -> Monomial:
    """The term that is eventually smallest: lexicographic on (a, b, c).

    On exponent ties the smaller coefficient wins; the ratio of two tied
    monomials tends to the coefficient ratio, so the min is eventually a
    constant multiple of either and the smaller constant is the sharp one.
    """
    if not terms:
        raise ValueError("need at least one term")
    return min(terms, key=lambda t: (t.a, t.b, t.c, t.log_coeff))


def log_inverse_of(term: Monomial) -> Monomial:
    """Leading monomial of log(1/f(q)) when f has leading term `term`, f -> 0.

    For f ~ kappa q^a log^b q (a < 0, or a = 0 and b < 0):
      log(1/f) ~ -a log q       if a < 0
      log(1/f) ~ -b log log q   if a = 0, b < 0
    """
    if term.a < 0:
        return Monomial(math.log(-term.a), 0.0, 1.0, 0.0)
    if term.a == 0 and term.b < 0:
        return Monomial(math.log(-term.b), 0.0, 0.0, 1.0)
    raise ValueError("log(1/f) needs f -> 0, i.e. a < 0 or (a = 0, b < 0)")


def power_log_of(term: Monomial, s: float, p: float) -> Monomial:
    """Leading monomial of r^s log^p(1/r) at r = f(q) with leading term `term`."""
    base = term**s
    if p == 0:
        return base
    return base * (log_inverse_of(term) ** p)


def classify_series(term: Monomial) -> bool:
    """Whether sum_q term(q) converges, by the three-level Bertrand test."""
    for exponent in (term.a, term.b):
        if exponent < -1:
            return True
        if exponent > -1:
            return False
    return term.c < -1
