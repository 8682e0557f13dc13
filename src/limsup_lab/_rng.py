"""Deterministic sampling streams and worker-count-independent parallelism.

Monte-Carlo work is split into fixed-size chunks; chunk c of a run draws
from Philox keyed by (seed, c), and results are reduced in chunk order.
The split never depends on the worker count, so a run with 1 worker and a
run with 8 produce bit-identical reductions.  The worker count comes from
LIMSUP_LAB_WORKERS (absent means all cores).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

import numpy as np

WORKERS_ENV = "LIMSUP_LAB_WORKERS"
CHUNK = 1 << 17

T = TypeVar("T")
R = TypeVar("R")


def worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV)
    if raw is None:
        return os.cpu_count() or 1
    try:
        count = int(raw)
    except ValueError:
        count = 0  # not an integer: rejected below with the same message
    if count < 1:
        raise ValueError(f"{WORKERS_ENV} must be a positive integer, got {raw!r}")
    return count


def chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """The generator for chunk `chunk_index` of the stream keyed by `seed`."""
    return np.random.Generator(np.random.Philox(key=[seed, chunk_index]))


def chunk_plan(n_samples: int, chunk: int = CHUNK) -> list[tuple[int, int]]:
    """Fixed chunking of a sample budget: [(chunk_index, size), ...]."""
    plan = []
    for c in range(math.ceil(n_samples / chunk)):
        size = min(chunk, n_samples - c * chunk)
        plan.append((c, size))
    return plan


def parallel_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """Map preserving order, process-parallel when workers > 1.

    `fn` must be picklable (module level) and item results must not depend
    on evaluation order.
    """
    workers = worker_count()
    if workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items, chunksize=max(1, len(items) // (4 * workers))))


def monte_carlo_fraction(
    indicator: Callable[[np.ndarray], np.ndarray],
    dim: int,
    n_samples: int,
    seed: int,
) -> tuple[float, int]:
    """Fraction of uniform [0,1]^dim samples accepted by `indicator`.

    Chunked and keyed as described in the module docstring; returns
    (fraction, hits).  Chunks run on a thread pool sized by the worker
    count, and the reduction is an exact integer sum, so the result cannot
    depend on the work split.
    """

    def run(item: tuple[int, int]) -> int:
        c, size = item
        pts = chunk_rng(seed, c).random((size, dim))
        return int(np.count_nonzero(indicator(pts)))

    plan = chunk_plan(n_samples)
    workers = worker_count()
    if workers == 1 or len(plan) <= 1:
        counts = [run(item) for item in plan]
    else:
        with ThreadPoolExecutor(max_workers=min(workers, len(plan))) as pool:
            counts = list(pool.map(run, plan))
    hits = sum(counts)
    return hits / n_samples, hits


def wilson_interval(hits: int, n: int, z: float = 2.576) -> tuple[float, float]:
    """Wilson score interval (default z for 99% coverage)."""
    if n == 0:
        return (0.0, 1.0)
    phat = hits / n
    denom = 1 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))
