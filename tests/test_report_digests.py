"""CLI reports pinned byte for byte against `report_digests.json`.

Rows: every instance command on the README config, and `criteria` on
weighted n = 1 instances at m = 2, 3, 4 and 5.  Their exponents rise with
the block index, so the cost scan's radii arrive in descending order and
its sort must run every round at each of those sizes.  `criteria-mult`
takes `criteria` through a multiplicative Hausdorff verdict (n = 1, m = 2,
psi(q) = q^-1 log^-2 q, f = r^1.5), whose audit holds the multiplicative
order bracket alone.  The README's `quasi`
is weighted and intersects factor-wise; the `quasi-mult` rows take
multiplicative n = 1 families through the joint box-union recursion, which
measures each star's union of boxes and each pair's intersection of two
unions: at m = 2 with a star delta inside one dyadic band (2^-9, 2^-8], and
at m = 3, which recurses over three coordinates, over norms 1-3 and over
norms 8-12, where the stars hold dozens of boxes each.  The `cover-sweep`
rows take ambient dimension 1 through the exact stage-union sweep over
norms 1-3000, on a monotone power budget and on a non-monotone table whose
zeros drop their norms.  The `cover-sampled` rows take ambient dimension
2 and 3 through the Monte-Carlo stage union, in the nonweighted, weighted
and multiplicative modes; at 140000 samples the stream ends in a short
chunk of 8928 points after one full chunk.  The seed-0 `verify` row is checked by `test_acceptance.test_criterion_13_determinism`, which
writes that report anyway.

The digests hold under numpy 2.4.6 with its AVX-512 dispatch, at any worker
count and under either OpenBLAS kernel.  numpy picks its SIMD pow and log
kernels at run time, and their last bits differ without AVX-512: under
NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" the
criteria-weighted-m3 row's series residual prints 0.00158684802478 instead
of 0.00158684802477, and that row fails.  Every other row holds there.
"""

import json

import pytest

from limsup_lab import cli

README_CONFIG = {
    "schema_version": 1,
    "instance": {
        "n": 1,
        "m": 2,
        "mode": "weighted",
        "psi": [{"kind": "power", "tau": 1.0}, {"kind": "power", "tau": 3.0}],
        "f": {"kind": "power", "s": 1.1},
    },
    "run": {"Kmax": 14, "samples": 1000000, "seed": 0},
}


def _weighted(taus, s):
    return {
        "schema_version": 1,
        "instance": {
            "n": 1,
            "m": len(taus),
            "mode": "weighted",
            "psi": [{"kind": "power", "tau": t} for t in taus],
            "f": {"kind": "power", "s": s},
        },
        "run": {"Kmax": 12},
    }


def _mult(m, Qlo, Qhi, delta):
    return {
        "schema_version": 1,
        "instance": {
            "n": 1,
            "m": m,
            "mode": "multiplicative",
            "psi": [{"kind": "power", "tau": 1.0}],
        },
        "run": {"Qlo": Qlo, "Qhi": Qhi, "delta": delta},
    }


def _mult_hausdorff(psi, s):
    return {
        "schema_version": 1,
        "instance": {
            "n": 1,
            "m": 2,
            "mode": "multiplicative",
            "psi": [psi],
            "f": {"kind": "power", "s": s},
        },
        "run": {"Kmax": 12},
    }


def _sweep(psi):
    return {
        "schema_version": 1,
        "instance": {"n": 1, "m": 1, "mode": "nonweighted", "psi": [psi]},
        "run": {"Qlo": 1, "Qhi": 3000},
    }


def _sampled(n, m, mode, psi, Qlo, Qhi):
    budget = {"psi": [psi]} if mode != "weighted" else {"psi": [psi] * m}
    return {
        "schema_version": 1,
        "instance": {"n": n, "m": m, "mode": mode, **budget},
        "run": {"Qlo": Qlo, "Qhi": Qhi, "samples": 140000},
    }


# non-monotone in q, with a zero at every seventh norm
SWEEP_TABLE = [
    0.0 if q % 7 == 3 else round(0.4 * (q + 1) ** -1.05 * (0.5 + (q * 37 % 13) / 12), 8)
    for q in range(3000)
]

CASES = {
    **{f"{command}-readme": (command, README_CONFIG) for command in cli._COMMANDS},
    "criteria-weighted-m2": ("criteria", _weighted([0.5, 2.0], 0.7)),
    "criteria-weighted-m3": ("criteria", _weighted([0.4, 1.2, 2.5], 1.3)),
    "criteria-weighted-m4": ("criteria", _weighted([0.3, 0.9, 1.6, 2.4], 2.3)),
    "criteria-weighted-m5": ("criteria", _weighted([0.3, 0.7, 1.1, 1.9, 2.6], 3.4)),
    "criteria-mult": (
        "criteria", _mult_hausdorff({"kind": "power_log", "tau": 1.0, "p": -2.0}, 1.5)
    ),
    "quasi-mult-m2": ("quasi", _mult(2, 8, 13, 0.003)),
    "quasi-mult-m3": ("quasi", _mult(3, 1, 3, 0.0035)),
    "quasi-mult-m3-wide": ("quasi", _mult(3, 8, 12, 0.0035)),
    "cover-sweep-power": ("cover", _sweep({"kind": "power", "tau": 1.1, "coeff": 0.3})),
    "cover-sweep-table": ("cover", _sweep({"kind": "table", "values": SWEEP_TABLE})),
    "cover-sampled-nonweighted-n2": (
        "cover",
        _sampled(2, 1, "nonweighted", {"kind": "power", "tau": 2.0, "coeff": 0.25}, 1, 12),
    ),
    "cover-sampled-weighted-n3": (
        "cover",
        _sampled(3, 1, "weighted", {"kind": "power", "tau": 3.0, "coeff": 0.2}, 1, 3),
    ),
    "cover-sampled-mult-n2": (
        "cover",
        _sampled(2, 2, "multiplicative", {"kind": "power", "tau": 2.0, "coeff": 0.05}, 1, 4),
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_the_pinned_digest(name, tmp_path, pinned_digest):
    command, config = CASES[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
    pinned_digest(name, out.read_bytes())
