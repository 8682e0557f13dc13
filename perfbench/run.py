"""limsup-lab benchmark: seeded workloads, end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  NAME is one of the workloads in
workloads.WORKLOADS, or `all` to run each in turn.  Every pass of a workload
is a fresh child process (child.py), so set-up, peak RSS and the package's
caches behave as they do for a CLI user; passes repeat until S seconds have
gone (at least one pass).  A first child only sets up, to warm the file
cache, and is not counted.  Before each pass, and at the end until there are
twenty samples, another child only sets up, so set-up time is a median of
twenty samples or more taken across the run.

--trace 0 measures with LIMSUP_LAB_WORKERS = nproc.  --trace 1 runs at one
worker and alternates plain passes with passes whose layer functions are
wrapped from outside the program; it reports the per-layer metrics and the
tracing overhead, and writes the spans and a summary under .perfbench/trace/.

The output is a table per workload (median, tail percentile and sample count
of every metric) and, as the last line, one JSON object with `correct`,
`attempted`, `failed` and the metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

MIN_SETUP_SAMPLES = 20
RUN_DEADLINE_S = 170.0  # one run must exit within 180 s


class RunFailed(RuntimeError):
    pass


def _child(args: list[str], env: dict, result: str, timeout: float) -> dict:
    t0 = time.monotonic()
    try:
        subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), "--t0", repr(t0),
             "--result", result, *args],
            env=env, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=timeout, check=True,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"child timed out after {timeout:.0f} s: {args}") from exc
    except subprocess.CalledProcessError as exc:
        raise RunFailed(f"child exited with {exc.returncode}: {args}") from exc
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def measure(workload: str, seed: int, seconds: float, trace: bool, t_end: float) -> dict:
    """Spawn set-up and pass children for one workload; return their results."""
    workers = 1 if trace else (os.cpu_count() or 1)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["LIMSUP_LAB_WORKERS"] = str(workers)
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    trace_dir = os.path.join(OUT, "trace")
    common = ["--workload", workload, "--seed", str(seed), "--workdir", work]
    res = os.path.join(work, "result.json")

    def child(*extra):
        return _child(common + list(extra), env, res, max(1.0, t_end - time.monotonic()))

    setups, plain, traced = [], [], []
    try:
        child("--setup-only")  # warm-up, not counted: fills the file cache
        deadline = time.monotonic() + seconds
        while True:
            setups.append(child("--setup-only")["setup_s"])
            plain.append(child())
            if trace:
                os.makedirs(trace_dir, exist_ok=True)
                spans = os.path.join(trace_dir, f"{workload}-seed{seed}.spans.jsonl")
                traced.append(child("--trace", "--spans", spans))
            if time.monotonic() >= deadline:
                break
        while len(setups) + len(plain) < MIN_SETUP_SAMPLES:
            setups.append(child("--setup-only")["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups += [p["setup_s"] for p in plain]
    return {"workload": workload, "seed": seed, "workers": workers, "setups": setups,
            "plain": plain, "traced": traced}


# ---------------------------------------------------------------------------
# summarising
# ---------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None


def end_to_end(m: dict) -> tuple[dict[str, list[float]], int, int, list[str]]:
    """Samples of every end-to-end metric, plus attempted, failed and problems."""
    plain = m["plain"]
    samples: dict[str, list[float]] = {
        "setup_s": m["setups"],
        "run_s": [p["run_s"] for p in plain],
        "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
    }
    # summed wall time per op class (verify: per criterion) in each pass
    for kind in dict.fromkeys(k for k, _ in plain[0]["ops"] if k != "verify"):
        samples[f"{kind}_s"] = [sum(t for k, t in p["ops"] if k == kind) for p in plain]
    for c in plain[0]["criteria"]:
        samples[f"verify.{c}_s"] = [p["criteria"][c] for p in plain]
    passes = plain + m["traced"]
    attempted = sum(len(p["ops"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    samples["failed_frac"] = [len(failures) / attempted]
    problems = list(dict.fromkeys(failures))
    digests = {p["digest"] for p in passes}
    if len(digests) != 1:
        problems.append(f"report digests differ between passes of one seed: {sorted(digests)}")
    return samples, attempted, len(failures), problems


def per_layer(m: dict) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics (times: medians over traced passes) and counter mismatches."""
    layers = [t["layers"] for t in m["traced"]]
    out, problems = {}, []
    for key, first in layers[0].items():
        if key.endswith("_s"):  # a time or a rate
            out[key] = statistics.median(d[key] for d in layers)
            continue
        out[key] = first  # a counter: every traced pass must give the same value
        if any(d[key] != first for d in layers):
            problems.append(f"counter {key} differs between traced passes")
    plain_s = statistics.median(p["run_s"] for p in m["plain"])
    traced_s = statistics.median(t["run_s"] for t in m["traced"])
    out["trace.plain_run_s"] = plain_s
    out["trace.traced_run_s"] = traced_s
    out["trace.overhead_frac"] = traced_s / plain_s - 1.0
    return out, problems


def print_table(title: str, rows: list[tuple[str, str, list[float]]]) -> None:
    print(title)
    print(f"  {'metric':<58} {'unit':<6} {'median':>14} {'tail':>20} {'n':>4}")
    for name, unit, values in rows:
        t = tail(values)
        tail_s = f"p{t[0]}={t[1]:.6g}" if t else "-"
        print(f"  {name:<58} {unit:<6} {statistics.median(values):>14.6g} {tail_s:>20} "
              f"{len(values):>4}")


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_frac", "_ratio")):
        return "frac"
    return "count"


def report(m: dict, spec: dict, trace: bool) -> dict:
    """Print one workload's tables; return its JSON-line fields."""
    samples, attempted, failed, problems = end_to_end(m)
    head = (f"workload {m['workload']}  seed {m['seed']}  LIMSUP_LAB_WORKERS={m['workers']}  "
            f"passes {len(m['plain'])}  digest {m['plain'][0]['digest'][:16]}")
    if not trace:
        print_table(head, [(k, _unit(k), v) for k, v in samples.items()])
        metrics = {e["name"]: {"value": statistics.median(samples[e["name"]]), "unit": e["unit"]}
                   for e in spec["end_to_end"]}
    else:
        layers, counter_problems = per_layer(m)
        problems += counter_problems
        print_table(head + f"  traced passes {len(m['traced'])}",
                    [(k, _unit(k), [v]) for k, v in sorted(layers.items())])
        for root, row in m["traced"][0]["attribution"].items():
            top = "; ".join(f"{label} {s:.3f}s" for label, s in row["top_self"])
            print(f"  {root:<6} {row['total_s']:8.3f}s  top self time: {top}")
        metrics = {e["name"]: {"value": layers[e["name"]], "unit": e["unit"]}
                   for e in spec["per_layer"]}
        os.makedirs(os.path.join(OUT, "trace"), exist_ok=True)
        with open(os.path.join(OUT, "trace", f"{m['workload']}-seed{m['seed']}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"layers": layers, "attribution": m["traced"][0]["attribution"]}, fh,
                      indent=1)
    for p in problems:
        print(f"  FAIL {p}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "limsup_lab", "cli.py")):
        print(f"error: no limsup_lab sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    compileall.compile_dir(SRC, quiet=2)  # set-up times then exclude byte-compiling

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = []
    try:
        for name in names:
            t_end = time.monotonic() + RUN_DEADLINE_S
            m = measure(name, args.seed, seconds, bool(args.trace), t_end)
            lines.append(report(m, spec, bool(args.trace)))
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(lines) == 1:
        out = lines[0]
    else:
        out = {"correct": all(x["correct"] for x in lines),
               "attempted": sum(x["attempted"] for x in lines),
               "failed": sum(x["failed"] for x in lines),
               "metrics": {f"{n}.{k}": v for n, x in zip(names, lines)
                           for k, v in x["metrics"].items()}}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
