"""One benchmark process: set up a workload, then run one pass of it.

    python3 perfbench/child.py --workload W --seed S --t0 T --workdir DIR
                               --result FILE [--setup-only] [--trace] [--spans FILE]

Set-up is everything from the parent's spawn time `--t0` (a CLOCK_MONOTONIC
reading) to the first operation: interpreter start, imports, generating the
workload and writing its configs.  A pass then calls `limsup_lab.cli.main`
in-process on each op with stdout captured and stderr discarded.  After the
timed pass the child checks each report, then writes timings, the report
digest and peak RSS to `--result` as JSON.  With `--trace` every layer function is wrapped (see tracing.py) and the
per-layer metrics of the pass are added; `--spans` also writes the raw spans.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402


def check_report(op: workloads.Op, rc, text: str) -> str:
    """'' if the op passed, else why it failed."""
    if rc != 0:
        return f"exit code {rc}"
    results = json.loads(text)["results"]
    if op.argv[0] == "verify" and not results["all_passed"]:
        failed = [c["name"] for c in results["criteria"] if not c["passed"]]
        return f"verify criteria failed: {failed}"
    if op.argv[0] == "decompose":
        sw, expected = results["sandwich"], sandwich_inner_violations(op.config)
        if (sw["inner_violations"], sw["outer_violations"]) != (expected, 0) \
                or sw["ok"] != (expected == 0):
            return (f"sandwich check at q={op.config['run']['q']} reports "
                    f"{sw['inner_violations']} inner and {sw['outer_violations']} outer "
                    f"violations (ok={sw['ok']}); expected {expected} and 0")
    if op.argv[0] == "quasi" and not results["C"] >= 1.0:
        return f"quasi-independence constant {results['C']} < 1"
    if op.argv[0] == "cover" and not 0.0 <= results["coverage"]["value"] <= 1.0:
        return f"coverage {results['coverage']['value']} outside [0, 1]"
    return ""


def _coprime_distance(y: np.ndarray, q: int) -> np.ndarray:
    """Distance from each y >= 0 to the nearest integer coprime with q.

    From two tables over the residues r of floor(y) mod q: how far down and
    how far up the nearest coprime integers lie.
    """
    down = [next(t for t in range(q + 1) if math.gcd(r - t, q) == 1) for r in range(q)]
    up = [next(t for t in range(1, q + 2) if math.gcd(r + t, q) == 1) for r in range(q)]
    base = np.floor(y)
    frac = y - base
    r = base.astype(np.int64) % q
    return np.minimum(frac + np.asarray(down, dtype=float)[r],
                      np.asarray(up, dtype=float)[r] - frac)


def sandwich_inner_violations(config: dict) -> int:
    """The number of points at which `decompose`'s star is not in the dyadic union.

    The decomposition of an n = 1 `decompose` config, recounted without the
    program's membership code.  A point x of [0,1]^m is in the coprime star
    M'(q, delta) when the product of its block distances d_j (from q x_j to
    the nearest integer coprime with q) is below delta.  It is in the union
    of the rectangles R'(q, 2^-k), sum k = N - m, exactly when moreover every
    d_j < 1.  So the inner violations are the star points with some
    d_j >= 1.  There are none when q is a prime power, whose coprime integers
    are at most 2 apart; q with two distinct prime factors leaves gaps of 4
    or more, so there can be some.  The union always lies in the inflated
    star, so there are never outer violations.  The points are the ones the
    program draws: its chunked sample for the config's seed, plus a witness
    on a resonant line, which has every d_j = 0 and is never a violation.
    """
    from limsup_lab._rng import chunk_plan, chunk_rng

    run, m = config["run"], config["instance"]["m"]
    (q,) = run["q"]
    q = abs(q)
    count = 0
    for c, size in chunk_plan(min(run["samples"], 100_000)):  # the CLI's cap
        d = _coprime_distance(q * chunk_rng(run["seed"], c).random((size, m)), q)
        count += int(np.count_nonzero((np.prod(d, axis=1) < run["delta"])
                                      & np.any(d >= 1.0, axis=1)))
    return count


def run_op(cli, argv: list[str]) -> tuple[object, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code
        except Exception as exc:  # any escape from main is a failed op, not a crash
            rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue()


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    from limsup_lab import cli

    tracer = tracing.Tracer()
    if args.trace:
        tracing.install(tracer)
    if args.workload == "verify":
        tracing.install_criteria(tracer)
    ops = workloads.generate(args.workload, args.seed)
    os.makedirs(args.workdir, exist_ok=True)
    argvs = []
    for i, op in enumerate(ops):
        argv = list(op.argv)
        if op.config is not None:
            path = os.path.join(args.workdir, f"op{i:03d}.json")
            with open(path, "wb") as fh:
                fh.write(op.config_bytes())
            argv += ["--config", path]
        argvs.append(argv)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s}

    if not args.setup_only:
        timings, reports = [], []
        start = time.perf_counter()
        for op, argv in zip(ops, argvs):
            t = time.perf_counter()
            reports.append(tracer.span(f"op.{op.kind}", run_op, cli, argv))
            timings.append([op.kind, time.perf_counter() - t])
        run_s, rss = time.perf_counter() - start, peak_rss_mb()
        # the reports are checked after the pass, so checking is neither
        # timed nor counted in peak RSS
        digest, failures = hashlib.sha256(), []
        for op, (rc, text) in zip(ops, reports):
            why = check_report(op, rc, text)
            if why:
                failures.append(f"{' '.join(op.argv)}: {why}")
            digest.update(text.encode())
        result.update(
            run_s=run_s,
            ops=timings,
            failures=failures,
            digest=digest.hexdigest(),
            peak_rss_mb=rss,
            criteria={name[len("verify."):]: agg["total_s"]
                      for name, agg in tracing.fold(tracer.spans).items()
                      if name.startswith("verify.c")},
        )
        if args.trace:
            result["layers"] = tracing.layer_metrics(tracer.spans)
            result["attribution"] = tracing.attribution(tracer.spans)
            if args.spans:
                tracer.dump(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
