"""Command-line interface: deterministic reports over instance configs.

Subcommands
    criteria    series block sums, convergence classifications, verdicts,
                and (for rectangle modes) the Hausdorff cost-exponent scan
    dims        closed-form dimensions: Rynne-Dickinson, scalar spectrum
                value, critical exponents, Fourier dimension
    fourier     Fourier dimension with its hypothesis audit
    measure     closed-form resonant-set measures per norm
    decompose   dyadic index decomposition and the star-sandwich check
    cover       per-dyadic-block tail moments and the stage-union coverage
    quasi       pairwise quasi-independence constant for a stage family
    verify      the full oracle/acceptance suite (exit 1 on any failure)

Every command but verify reads a JSON config (see limsup_lab.config); its
--seed, --samples and --Kmax flags are written into the config's run
section before validation, so a flag meets the schema's checks and the
report's echoed config and config_sha256 include it.  verify takes only
--seed, --suite, --out and --format.  Every command emits a report as JSON
(or CSV for the tabular part) through one path, and is byte-deterministic
for a fixed (config, seed, version) regardless of worker count.  Wall-clock
timings go to stderr only, never into the report.  Exit codes: 0 success,
1 verification failure, 2 config error (including an --out path that cannot
be written; a missing directory or a directory path is refused before the
command runs), 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from ._rng import worker_count
from .config import ConfigError, ParsedConfig, config_sha256, load_config, parse_run
from .criteria import InapplicableError, critical_exponent, norm_values
from .estimators import (
    NORM_LIMIT,
    StageUnion,
    coverage_fraction,
    hausdorff_cost_exponent,
    tail_first_moment,
)
from .formulas import (
    TauSpectrum,
    dim_rynne_dickinson,
    dim_wang_wu,
    fourier_dim,
    hausdorff_verdict,
    lebesgue_verdict,
    tau_exponent,
)
from .resonant import (
    LatticePoint,
    dyadic_decompose,
    mult_star,
    quasi_independence_report,
    sandwich_check,
    set_measures,
    weighted_rect,
)


def _canonical(obj):
    """Recursively convert a result payload to canonical JSON-ready form.

    Floats are rounded to 12 significant digits (masking the bit-level
    jitter reduction order could introduce), non-finite floats become
    strings, tuples become lists, and numpy scalars become Python scalars.
    """
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if hasattr(obj, "item"):  # numpy scalar
        return _canonical(obj.item())
    return str(obj)


def build_report(command: str, raw_config: dict, results: dict, seed: int) -> dict:
    return {
        "command": command,
        "config": raw_config,
        "config_sha256": config_sha256(raw_config),
        "results": _canonical(results),
        "seed": seed,
        "version": __version__,
    }


def check_out_path(out_path: str | None) -> None:
    """Refuse an --out path that cannot become a file, before any work runs.

    Its directory is missing, or it is a directory.  Nothing is created;
    what only the write can tell (permissions, a full disk) still surfaces
    in `emit_report`.
    """
    if not out_path:
        return
    if os.path.isdir(out_path):
        reason = "it is a directory"
    elif not os.path.isdir(os.path.dirname(out_path) or "."):
        reason = "its directory does not exist"
    else:
        return
    raise ConfigError(f"cannot write report {out_path!r}: {reason}")


def emit_report(report: dict, fmt: str, out_path: str | None) -> None:
    if fmt == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        table = report["results"].get("table")
        if not table:
            raise InapplicableError(
                f"command {report['command']!r} produced no table; use --format json"
            )
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(table["columns"])
        for row in table["rows"]:
            writer.writerow(row)
        text = buf.getvalue()
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write report {out_path!r}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _series_payload(estimate) -> dict:
    cls = estimate.classification
    return {
        "kind": estimate.kind,
        "block_sums": list(estimate.block_sums),
        "partial_sum": estimate.partial_sum,
        "growth_exponent": estimate.growth_exponent,
        "residual": estimate.residual,
        "classification": cls,
        "converges": estimate.converges,
        "symbolic": estimate.symbolic,
        "skipped": estimate.skipped,
        "overflow": estimate.overflow,
    }


def _verdict_payload(verdict) -> dict:
    return {
        "outcome": verdict.outcome,
        "reason": verdict.reason,
        "would_be": verdict.would_be,
        "hypothesis_audit": dict(verdict.hypothesis_audit),
    }


# the most floats the series sums and the cost scan may hold (128 MiB)
_SERIES_FLOATS = 1 << 24


def _check_Kmax(Kmax: int, rows: int) -> None:
    """Refuse a Kmax whose arrays, `rows` floats per norm below 2^Kmax, pass _SERIES_FLOATS.

    `criteria` holds one `norm_values` array, a row per budget it reads and
    a work row (at Kmax 16 or more when the cost scan runs), so the check
    runs before it allocates.
    """
    if rows * (2**Kmax - 1) > _SERIES_FLOATS:
        raise ConfigError(
            f"run.Kmax = {Kmax} needs {rows} x (2^{Kmax} - 1) floats, over 2^24; lower Kmax"
        )


# -- subcommand bodies -------------------------------------------------------


def cmd_criteria(parsed: ParsedConfig) -> dict:
    inst = parsed.instance
    Kmax = parsed.run.Kmax
    scan = inst.mode != "multiplicative"
    budgets = inst.weights.components if scan else (inst.psi,)
    _check_Kmax(Kmax, len(budgets) + 1)
    # every budget is evaluated once: both series read their spans from
    # this array, and the cost scan, last, turns it into its table in place
    scan_Kmax = max(Kmax, 16)
    values = norm_values(budgets, scan_Kmax if scan else Kmax)
    series = {}
    leb = lebesgue_verdict(inst, Kmax=Kmax, values=values)
    series[leb.series.kind] = _series_payload(leb.series)
    results: dict = {"verdicts": {"lebesgue": _verdict_payload(leb)}}
    if inst.f is not None:
        hd = hausdorff_verdict(inst, Kmax=Kmax, values=values)
        series[hd.series.kind] = _series_payload(hd.series)
        results["verdicts"]["hausdorff"] = _verdict_payload(hd)
    if scan:
        ce = hausdorff_cost_exponent(inst, Kmax=scan_Kmax, values=values)
        results["cost_exponent"] = {
            "value": ce.value,
            "window": list(ce.window) if ce.window else None,
            "status": ce.status,
        }
    results["series"] = series
    rows = []
    for kind, payload in sorted(series.items()):
        cumulative = 0.0
        for k, block in payload["block_sums"]:
            cumulative += block
            rows.append([kind, k, block, cumulative])
    results["table"] = {"columns": ["kind", "k", "block_sum", "cumulative"], "rows": rows}
    return results


def cmd_dims(parsed: ParsedConfig) -> dict:
    inst = parsed.instance
    taus = [tau_exponent(c) for c in inst.weights.components]
    results: dict = {"tau": taus}
    if inst.mode == "multiplicative":
        results["rynne_dickinson"] = {
            "value": None,
            "reason": "rectangle modes only",
        }
    else:
        try:
            results["rynne_dickinson"] = {
                "value": dim_rynne_dickinson(inst.n, inst.m, taus),
                "reason": "",
            }
        except ValueError as exc:
            results["rynne_dickinson"] = {"value": None, "reason": str(exc)}
    if inst.n == 1 and inst.mode != "multiplicative":
        try:
            ww = dim_wang_wu(inst.m, TauSpectrum((tuple(taus),)))
            results["wang_wu"] = {"value": ww.value, "all_infinite": ww.all_infinite}
        except ValueError as exc:
            results["wang_wu"] = {"value": None, "reason": str(exc)}
    kinds = ["s_Psi"]
    if inst.mode == "multiplicative":
        kinds.append("tau_psi")
    elif len(set(taus)) == 1:
        kinds.append("s_psi")
    crits, undefined = {}, {}
    for kind in kinds:
        try:
            crits[kind] = critical_exponent(kind, inst.n, inst.m, taus)
        except ValueError as exc:
            crits[kind], undefined[kind] = None, str(exc)
    results["critical_exponents"] = crits
    if undefined:
        results["critical_exponent_reasons"] = undefined
    fr = fourier_dim(inst)
    results["fourier_dim"] = {
        "value": fr.value,
        "applicable": fr.applicable,
        "reason": fr.reason,
        "audit": dict(fr.audit),
    }
    rows = [["rynne_dickinson", results["rynne_dickinson"]["value"]]]
    if "wang_wu" in results:
        rows.append(["wang_wu", results["wang_wu"]["value"]])
    for name, value in sorted(crits.items()):
        rows.append([name, value])
    rows.append(["fourier_dim", fr.value])
    results["table"] = {"columns": ["name", "value"], "rows": rows}
    return results


def cmd_fourier(parsed: ParsedConfig) -> dict:
    fr = fourier_dim(parsed.instance)
    results = {
        "value": fr.value,
        "applicable": fr.applicable,
        "reason": fr.reason,
        "audit": dict(fr.audit),
        "table": {
            "columns": ["name", "value"],
            "rows": [["fourier_dim", fr.value]],
        },
    }
    return results


def cmd_measure(parsed: ParsedConfig) -> dict:
    inst = parsed.instance
    run = parsed.run
    if run.Qmax > NORM_LIMIT:
        raise ConfigError(f"run.Qmax = {run.Qmax} asks for more than {NORM_LIMIT} rows")
    # the closed forms read the radii alone, so no lattice point is built
    norms = np.arange(1, run.Qmax + 1)
    if inst.mode == "multiplicative":
        deltas = inst.psi.eval_norm_array(norms) if run.delta is None else np.full(norms.size, run.delta)
        measures = set_measures("mult", inst.m, deltas)
    else:
        radii = np.minimum([c.eval_norm_array(norms) for c in inst.weights.components], 0.5)
        measures, deltas = set_measures("weighted", inst.m, radii), radii.min(axis=0)
    rows = [list(row) for row in zip(norms.tolist(), deltas.tolist(), measures.tolist())]
    return {"table": {"columns": ["q", "delta", "measure"], "rows": rows}, "mode": inst.mode}


def _star_delta(m: int, delta: float) -> float:
    """A star's delta, checked: the dyadic decomposition needs 2^-N with N >= m."""
    if not 0 < delta <= 2.0**-m:
        raise ConfigError(f"run.delta: a star needs delta in (0, 2^-{m}], got {delta}")
    return delta


def cmd_decompose(parsed: ParsedConfig) -> dict:
    inst = parsed.instance
    run = parsed.run
    m = inst.m
    delta = _star_delta(m, run.delta if run.delta is not None else 2.0 ** -(m + 3))
    dec = dyadic_decompose(m, delta)
    coords = run.q if run.q is not None else (5,) + (0,) * (inst.n - 1)
    q = LatticePoint(coords)
    samples = min(run.samples, 100_000)
    sandwich = sandwich_check(q, m, delta, n_points=samples, seed=run.seed)
    results = {
        "delta": delta,
        "scale_N": dec.N,
        "cardinality": dec.cardinality,
        "indices": [list(ix) for ix in dec.indices],
        "sandwich": {
            "ok": sandwich.ok,
            "points": sandwich.points,
            "inner_violations": sandwich.inner_violations,
            "outer_violations": sandwich.outer_violations,
        },
        "table": {
            "columns": [f"k{i + 1}" for i in range(m)],
            "rows": [list(ix) for ix in dec.indices],
        },
    }
    return results


def cmd_cover(parsed: ParsedConfig) -> dict:
    inst = parsed.instance
    run = parsed.run
    Qlo, Qhi = run.Qlo, run.Qhi
    # the coverage guards bound the range before the moments walk it
    cov = coverage_fraction(StageUnion(inst, Qlo, Qhi), samples=run.samples, seed=run.seed)
    rows = []
    cumulative = 0.0
    k = int(math.floor(math.log2(Qlo)))
    while 2**k <= Qhi:
        lo = max(Qlo, 2**k)
        hi = min(Qhi, 2 ** (k + 1) - 1)
        if lo <= hi:
            moment = tail_first_moment(inst, lo, hi)
            cumulative += moment
            rows.append([k, lo, hi, moment, cumulative])
        k += 1
    results = {
        "coverage": {
            "value": cov.value,
            "half_width": cov.half_width,
            "method": cov.method,
            "samples": cov.samples,
        },
        "first_moment": cumulative,
        "table": {
            "columns": ["k", "Qlo", "Qhi", "block_moment", "cumulative_moment"],
            "rows": rows,
        },
    }
    return results


def cmd_quasi(parsed: ParsedConfig) -> dict:
    inst = parsed.instance
    run = parsed.run
    width = 50 if inst.n == 1 else 12
    hi = min(run.Qhi, run.Qlo + width - 1)
    if inst.mode == "multiplicative" and run.delta is not None:
        _star_delta(inst.m, run.delta)
    descs = []
    for qn in range(run.Qlo, hi + 1):
        q = LatticePoint((qn,) + (0,) * (inst.n - 1))
        if inst.mode == "multiplicative":
            delta = run.delta if run.delta is not None else min(
                inst.psi.value_at_norm(qn), 2.0**-inst.m
            )
            descs.append(mult_star(q, inst.m, delta))
        else:
            deltas = [min(v, 0.4999) for v in inst.weights.values_at_norm(qn)]
            descs.append(weighted_rect(q, deltas))
    rep = quasi_independence_report(
        descs, mc_samples=min(run.samples, 200_000), seed=run.seed
    )
    results = {
        "C": rep.C,
        "lamperti_lower": rep.lamperti_lower,
        "pairs": rep.pairs,
        "skipped_null": rep.skipped_null,
        "method": rep.method,
        "worst_pair": list(rep.worst_pair) if rep.worst_pair else None,
        "norm_range": [run.Qlo, hi],
        "table": {
            "columns": ["name", "value"],
            "rows": [["C", rep.C], ["lamperti_lower", rep.lamperti_lower]],
        },
    }
    return results


def cmd_verify(suite: str | None, seed: int) -> dict:
    from .verify import run_suite

    criteria = run_suite(selector=suite, seed=seed)
    if not criteria:
        raise ConfigError(f"--suite {suite!r} matches no criterion")
    rows = []
    for c in criteria:
        rows.append([c.number, c.name, "pass" if c.passed else "FAIL", c.measured, c.expected, c.tolerance])
        print(
            f"criterion {c.number:2d} {c.name:<24s} "
            f"{'pass' if c.passed else 'FAIL'}  ({c.seconds:.2f}s)",
            file=sys.stderr,
        )
    return {
        "criteria": [
            {
                "number": c.number,
                "name": c.name,
                "passed": c.passed,
                "measured": c.measured,
                "expected": c.expected,
                "tolerance": c.tolerance,
            }
            for c in criteria
        ],
        "all_passed": all(c.passed for c in criteria),
        "table": {
            "columns": ["number", "name", "status", "measured", "expected", "tolerance"],
            "rows": rows,
        },
    }


_COMMANDS = {
    "criteria": cmd_criteria,
    "dims": cmd_dims,
    "fourier": cmd_fourier,
    "measure": cmd_measure,
    "decompose": cmd_decompose,
    "cover": cmd_cover,
    "quasi": cmd_quasi,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="limsup-lab",
        description="limsup-set criteria: series, dimensions, measures, coverage",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*_COMMANDS, "verify"):
        p = sub.add_parser(name)
        p.add_argument("--seed", type=int, default=None, help="set run.seed")
        if name == "verify":
            p.add_argument("--suite", default=None, help="run only criteria whose name contains this")
        else:
            p.add_argument("--config", help="path to a JSON instance config")
            p.add_argument("--samples", type=int, default=None, help="set run.samples")
            p.add_argument("--Kmax", type=int, default=None, help="set run.Kmax")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        try:
            worker_count()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        check_out_path(args.out)
        if args.command == "verify":
            seed = parse_run({} if args.seed is None else {"seed": args.seed}).seed
            raw_config = {"suite": args.suite, "seed": seed}
            results = cmd_verify(args.suite, seed)
            code = 0 if results["all_passed"] else 1
        else:
            if not args.config:
                raise ConfigError("--config is required")
            flags = {k: v for k in ("seed", "samples", "Kmax") if (v := getattr(args, k)) is not None}
            parsed = load_config(args.config, flags)
            raw_config, seed, code = parsed.raw, parsed.run.seed, 0
            results = _COMMANDS[args.command](parsed)
        emit_report(build_report(args.command, raw_config, results, seed), args.format, args.out)
        print(f"{args.command}: {time.perf_counter() - start:.2f}s", file=sys.stderr)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (InapplicableError, ValueError, ArithmeticError, AssertionError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
