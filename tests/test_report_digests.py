"""CLI reports pinned byte for byte against `report_digests.json`.

Rows: every instance command on the README config, and `criteria` on
weighted n = 1 instances at m = 2, 3, 4 and 5.  Their exponents rise with
the block index, so the cost scan's radii arrive in descending order and
its sort must run every round at each of those sizes.  The README's `quasi`
is weighted and intersects factor-wise; the two `quasi-mult` rows take
multiplicative n = 1 families through the box-union path, at m = 2 with a
star delta inside one dyadic band (2^-9, 2^-8], and at m = 3, which runs
the three-coordinate recursion.  The seed-0 `verify`
row is checked by `test_acceptance.test_criterion_13_determinism`, which
writes that report anyway.
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


CASES = {
    **{f"{command}-readme": (command, README_CONFIG) for command in cli._COMMANDS},
    "criteria-weighted-m2": ("criteria", _weighted([0.5, 2.0], 0.7)),
    "criteria-weighted-m3": ("criteria", _weighted([0.4, 1.2, 2.5], 1.3)),
    "criteria-weighted-m4": ("criteria", _weighted([0.3, 0.9, 1.6, 2.4], 2.3)),
    "criteria-weighted-m5": ("criteria", _weighted([0.3, 0.7, 1.1, 1.9, 2.6], 3.4)),
    "quasi-mult-m2": ("quasi", _mult(2, 8, 13, 0.003)),
    "quasi-mult-m3": ("quasi", _mult(3, 1, 3, 0.0035)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_the_pinned_digest(name, tmp_path, pinned_digest):
    command, config = CASES[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
    pinned_digest(name, out.read_bytes())
