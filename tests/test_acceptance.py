"""Acceptance gate: every verification criterion passes within its time budget."""

import os
import time

from limsup_lab import cli, verify

BUDGETS = {
    1: 5.0,
    2: 30.0,
    3: 1.0,
    4: 60.0,
    5: 5.0,
    7: 60.0,
    8: 1.0,
    10: 30.0,
    11: 60.0,
    12: 1.0,
}


def run_criterion(number):
    entry = next(c for c in verify._CRITERIA if c[0] == number)
    _, name, fn = entry
    start = time.perf_counter()
    passed, measured, expected, tolerance = fn(0)
    seconds = time.perf_counter() - start
    line = (
        f"criterion {number:2d} {name}: {'pass' if passed else 'FAIL'} "
        f"({seconds:.2f}s; measured {measured}; expected {expected} within {tolerance})"
    )
    print(line)
    assert type(passed) is bool, line
    assert passed, line
    assert seconds < BUDGETS[number], line
    return measured


def test_criterion_01_content_argmin():
    run_criterion(1)


def test_criterion_02_content_sandwich():
    run_criterion(2)


def test_criterion_03_dyadic_decomposition():
    run_criterion(3)


def test_criterion_04_mult_measure():
    run_criterion(4)


def test_criterion_05_coprime_measure():
    run_criterion(5)


def test_criterion_07_dimension_crosscheck():
    run_criterion(7)


def test_criterion_08_fourier_formulas():
    run_criterion(8)


def test_criterion_10_lattice_sums():
    run_criterion(10)


def test_criterion_11_coverage_dichotomy():
    run_criterion(11)


def test_criterion_12_verdict_engine():
    run_criterion(12)


def test_criterion_13_determinism(tmp_path, pinned_digest):
    saved = os.environ.get("LIMSUP_LAB_WORKERS")
    payloads = []
    try:
        for workers, name in (("1", "w1.json"), ("8", "w8.json")):
            os.environ["LIMSUP_LAB_WORKERS"] = workers
            out = tmp_path / name
            start = time.perf_counter()
            code = cli.main(["verify", "--seed", "0", "--out", str(out)])
            seconds = time.perf_counter() - start
            print(f"criterion 13 run (workers={workers}): exit {code} in {seconds:.1f}s")
            assert code == 0
            assert seconds < 120.0
            payloads.append(out.read_bytes())
    finally:
        if saved is None:
            os.environ.pop("LIMSUP_LAB_WORKERS", None)
        else:
            os.environ["LIMSUP_LAB_WORKERS"] = saved
    assert payloads[0] == payloads[1], "reports differ across worker counts"
    pinned_digest("verify-seed0", payloads[0])
    print("criterion 13 determinism: pass (byte-identical reports)")
