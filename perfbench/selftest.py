"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, for every workload:
  - the same seed gives byte-identical configs and command lines;
  - every generated config passes `limsup_lab.config.load_config`;
  - two traced runs of the same code give identical work counters, and the
    report digest of plain and traced passes is the same (tracing does not
    perturb reports).
The traced check of `verify` takes about three minutes.  A benchmark check
that fails stops the self-test with exit code 1.  Ops whose reports fail
their check (child.check_report) are listed as they are found, and the
self-test exits 1 after all checks if there were any.
"""

from __future__ import annotations

import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, run.SRC)

SEEDS = 20


def check_configs() -> None:
    from limsup_lab.config import load_config

    tmp = os.path.join(run.OUT, f"selftest-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        for name in workloads.WORKLOADS:
            for seed in range(SEEDS):
                a, b = workloads.generate(name, seed), workloads.generate(name, seed)
                if [(o.argv, o.config_bytes()) for o in a] != [(o.argv, o.config_bytes()) for o in b]:
                    raise SystemExit(f"FAIL {name} seed {seed}: configs differ between calls")
                for i, op in enumerate(a):
                    if op.config is None:
                        continue
                    path = os.path.join(tmp, f"{name}-{seed}-{i}.json")
                    with open(path, "wb") as fh:
                        fh.write(op.config_bytes())
                    load_config(path)  # raises ConfigError on an invalid config
            print(f"ok   {name}: {SEEDS} seeds give repeatable ops whose configs load")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def check_counters(name: str) -> list[str]:
    """Check one workload's counters and digests; return its failed ops."""
    runs = [run.measure(name, 0, 0.0, True, time.monotonic() + run.RUN_DEADLINE_S)
            for _ in range(2)]
    layers = [run.per_layer(m)[0] for m in runs]
    counters = [{k: v for k, v in d.items() if not k.endswith(("_s", "_frac"))}
                for d in layers]
    if counters[0] != counters[1]:
        diff = sorted(k for k in counters[0] if counters[0][k] != counters[1][k])
        raise SystemExit(f"FAIL {name}: counters differ between runs: {diff}")
    digests = {p["digest"] for m in runs for p in m["plain"] + m["traced"]}
    if len(digests) != 1:
        raise SystemExit(f"FAIL {name}: plain and traced report digests differ")
    print(f"ok   {name}: {len(counters[0])} counters repeat; traced reports match plain")
    failures = list(dict.fromkeys(
        f for m in runs for p in m["plain"] + m["traced"] for f in p["failures"]))
    for f in failures:
        print(f"FAIL {name} op: {f}")
    return failures


def main() -> int:
    check_configs()
    failed = [f for name in workloads.WORKLOADS for f in check_counters(name)]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
