"""Seeded workload generators.

`generate(name, seed)` returns the operations of one pass of a workload as a
list of `Op`.  Each op is one `limsup-lab` command: `argv` is what follows the
program name, `config` is the instance config the command reads (None for
`verify`), and `kind` is the op class its wall time is summed into.  A
generator takes the seed as its argument and nothing else, so the same seed
gives byte-identical configs; the program only ever sees these configs.

The structure that sets the amount of work (command, n, m, Kmax, norm range,
sample count) is fixed per workload; the seed draws the exponents,
coefficients and tables inside ranges where that work stays the same.  So
run-to-run differences in time come from the program and the machine, not
from one seed drawing a heavier mix than another.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

WORKLOADS = ("verify", "instance-answers", "stage-exact", "stage-sampled")


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple[str, ...]
    config: dict | None = None

    def config_bytes(self) -> bytes:
        return (json.dumps(self.config, sort_keys=True, indent=1) + "\n").encode()


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _config(n: int, m: int, mode: str, psi: list, f: dict | None = None, **run) -> dict:
    inst = {"n": n, "m": m, "mode": mode, "psi": psi}
    if f is not None:
        inst["f"] = f
    return {"schema_version": 1, "instance": inst, "run": run}


def _power(rng, lo: float, hi: float, coeff: float) -> dict:
    return {"kind": "power", "tau": _u(rng, lo, hi), "coeff": coeff}


def _taus_above(rng, m: int, lo: float, hi: float, total: float) -> list[float]:
    """m exponents in [lo, hi] whose sum exceeds `total` (dimension formula regime)."""
    while True:
        taus = [_u(rng, lo, hi) for _ in range(m)]
        if sum(taus) > total:
            return taus


def _noninteger(rng, lo: float, hi: float) -> float:
    while True:
        s = _u(rng, lo, hi)
        if abs(s - round(s)) > 0.05:
            return s


def _answers(cfg: dict) -> list[Op]:
    """The four question commands on one instance."""
    return [
        Op("criteria", ("criteria",), cfg),
        Op("dims", ("dims",), cfg),
        Op("fourier", ("fourier",), cfg),
        Op("measure", ("measure",), cfg),
    ]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _verify(rng: random.Random, seed: int) -> list[Op]:
    return [Op("verify", ("verify", "--seed", str(seed)))]


def _instance_answers(rng: random.Random, seed: int) -> list[Op]:
    cfgs = []
    # weighted n=1 power budgets, power f: the repeated-s cost-exponent scan
    for m, Kmax in ((2, 17), (3, 18), (4, 19)):
        taus = _taus_above(rng, m, 0.3, 2.5, 1.05)
        f = {"kind": "power", "s": _noninteger(rng, 0.3, m - 0.3)}
        cfgs.append(_config(1, m, "weighted", [{"kind": "power", "tau": t} for t in taus], f,
                            Kmax=Kmax, Qmax=24))
    # weighted n=2 with a power_log f
    for m in (1, 2):
        taus = _taus_above(rng, m, 0.8, 2.5, 2.2)
        f = {"kind": "power_log", "s": _noninteger(rng, 2 * m - 0.9, 2 * m - 0.1),
             "p": _u(rng, -1.5, 1.5)}
        cfgs.append(_config(2, m, "weighted", [{"kind": "power", "tau": t} for t in taus], f,
                            Kmax=16, Qmax=24))
    # nonweighted power_log budgets
    for n, m in ((1, 1), (1, 2), (2, 1)):
        psi = {"kind": "power_log", "tau": _u(rng, 0.8, 2.5), "p": _u(rng, -2.0, 2.0),
               "coeff": _u(rng, 0.2, 1.0)}
        f = {"kind": "power", "s": _noninteger(rng, (n - 1) * m + 0.1, n * m - 0.1)}
        cfgs.append(_config(n, m, "nonweighted", [psi], f, Kmax=16, Qmax=24))
    # multiplicative
    for m in (2, 3):
        psi = {"kind": "power_log", "tau": _u(rng, 1.0, 2.5), "p": _u(rng, -2.0, 0.0),
               "coeff": _u(rng, 0.01, 2.0**-m)}
        f = {"kind": "power", "s": _noninteger(rng, m - 0.9, m - 0.1)}
        cfgs.append(_config(1, m, "multiplicative", [psi], f, Kmax=16, Qmax=64))
    # weighted with a non-monotone table budget and a table f
    for m in (2, 3):
        psi = []
        for j in range(m):
            tau = _u(rng, 0.5, 2.0)
            psi.append({"kind": "table", "values": [
                round((q + 1) ** -tau * rng.uniform(0.3, 1.0), 6) for q in range(48)
            ]})
        slope = _u(rng, 0.4, 0.9)
        rs = [1e-6, 1e-4, 1e-2, 0.3]
        f = {"kind": "table",
             "breakpoints": [[r, float(f"{r ** (m * slope) * (1 + 0.2 * i):.6g}")]
                             for i, r in enumerate(rs)]}
        cfgs.append(_config(1, m, "weighted", psi, f, Kmax=16, Qmax=48))
    return [op for cfg in cfgs for op in _answers(cfg)]


def _stage_exact(rng: random.Random, seed: int) -> list[Op]:
    ops = []
    # monotone budgets: the interval sweep over all norms up to Qhi
    for Qhi in (2500, 3500):
        psi = _power(rng, 0.9, 1.2, coeff=_u(rng, 0.2, 0.6))
        ops.append(Op("cover_sweep", ("cover",),
                      _config(1, 1, "nonweighted", [psi], Qlo=1, Qhi=Qhi)))
    # non-monotone table budgets, same norm ranges
    for Qhi in (2500, 3500):
        tau = _u(rng, 0.9, 1.2)
        coeff = _u(rng, 0.2, 0.6)
        values = [round(coeff * (q + 1) ** -tau * rng.uniform(0.2, 1.8), 8)
                  for q in range(Qhi // 2)]
        ops.append(Op("cover_sweep_nonmono", ("cover",),
                      _config(1, 1, "weighted", [{"kind": "table", "values": values}],
                              Qlo=1, Qhi=Qhi)))
    # quasi-independence on narrow n=1 ranges: factor-wise and box-union paths
    for m in (2, 3):
        psi = [_power(rng, 0.5, 1.5, coeff=_u(rng, 0.2, 0.45)) for _ in range(m)]
        ops.append(Op("quasi_exact", ("quasi",),
                      _config(1, m, "weighted", psi, Qlo=20, Qhi=31)))
    # the star's delta stays inside one dyadic band, so every pass unions the
    # same number of boxes (delta in (2^-9, 2^-8]: C(7, 1) = 7 per star)
    for Qlo in (8, 12):
        delta = _u(rng, 1.05 * 2.0**-9, 0.95 * 2.0**-8)
        ops.append(Op("quasi_exact", ("quasi",),
                      _config(1, 2, "multiplicative", [{"kind": "power", "tau": 1.0}],
                              Qlo=Qlo, Qhi=Qlo + 5, delta=delta)))
    return ops


def _stage_sampled(rng: random.Random, seed: int) -> list[Op]:
    ops = []
    samples = 2 * 131072
    # thin sets (tau >= 2.5): no early exit, every descriptor meets every chunk
    for _ in range(2):
        psi = _power(rng, 2.5, 3.0, coeff=_u(rng, 0.05, 0.2))
        ops.append(Op("cover_mc", ("cover",),
                      _config(2, 1, "nonweighted", [psi], Qlo=1, Qhi=4, samples=samples,
                              seed=rng.randrange(1 << 30))))
    psi = [_power(rng, 2.5, 3.0, coeff=_u(rng, 0.05, 0.2)) for _ in range(2)]
    ops.append(Op("cover_mc", ("cover",),
                  _config(1, 2, "weighted", psi, Qlo=1, Qhi=24, samples=samples,
                          seed=rng.randrange(1 << 30))))
    # large weighted budgets: the first descriptor covers every chunk at once
    for n in (1, 2):
        psi = [_power(rng, 0.0, 0.2, coeff=_u(rng, 2.0, 4.0)) for _ in range(2)]
        ops.append(Op("cover_mc", ("cover",),
                      _config(n, 2, "weighted", psi, Qlo=1, Qhi=8, samples=samples,
                              seed=rng.randrange(1 << 30))))
    # Monte-Carlo pair intersections
    for m in (1, 2):
        psi = {"kind": "power", "tau": _u(rng, 0.5, 1.0), "coeff": _u(rng, 0.2, 0.45)}
        ops.append(Op("quasi_mc", ("quasi",),
                      _config(2, m, "nonweighted", [psi], Qlo=2, Qhi=7, samples=131072,
                              seed=rng.randrange(1 << 30))))
    # the dyadic sandwich check, q drawn over all small integers
    for m, N in ((2, 9), (3, 8)):
        psi = {"kind": "power", "tau": 1.0}
        ops.append(Op("decompose", ("decompose",),
                      _config(1, m, "multiplicative", [psi], delta=2.0**-N,
                              q=[rng.randrange(2, 31)], samples=100_000,
                              seed=rng.randrange(1 << 30))))
    return ops


_GENERATORS = {
    "verify": _verify,
    "instance-answers": _instance_answers,
    "stage-exact": _stage_exact,
    "stage-sampled": _stage_sampled,
}


def generate(name: str, seed: int) -> list[Op]:
    """The operations of one pass of workload `name` for `seed`."""
    return _GENERATORS[name](random.Random(f"{name}/{seed}"), seed)
