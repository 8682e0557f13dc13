"""Deterministic sampling streams and worker-count-independent parallelism.

Monte-Carlo work is split into fixed-size chunks; chunk c of a run draws
from Philox keyed by (seed, c), and results are reduced in chunk order.
The split never depends on the worker count, so a run with 1 worker and a
run with 8 produce bit-identical reductions.  Each chunk is drawn and
tested in consecutive blocks of at most BLOCK points from its one
generator: consecutive draws give the numbers one draw of the whole chunk
would, in the same order, so the stream is unchanged and a thread holds
one block and its temporaries, not a whole chunk.  The worker count comes
from LIMSUP_LAB_WORKERS (absent means all cores).

There is one sampling path, `map_uniform_chunks`: it maps a function over
the chunks of one stream, and both `monte_carlo_fraction` and
`resonant.sandwich_check` sum its per-chunk counts.  There is one
thread-pool path, `thread_map`: it runs those chunks and the windows of
`intervals.swept_union_measure`.  Every caller hands it a work split fixed
in advance and reduces its results in item order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

import numpy as np

WORKERS_ENV = "LIMSUP_LAB_WORKERS"
CHUNK = 1 << 17
BLOCK = 1 << 16

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


def chunk_plan(n_samples: int) -> list[tuple[int, int]]:
    """Fixed chunking of a sample budget into CHUNK-sized pieces: [(chunk_index, size), ...]."""
    plan = []
    for c in range(math.ceil(n_samples / CHUNK)):
        size = min(CHUNK, n_samples - c * CHUNK)
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
    # imported here: multiprocessing and what it pulls in cost the package
    # import about a fifth of its time, and most commands never fork
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items, chunksize=max(1, len(items) // (4 * workers))))


def thread_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """Map preserving order, on a thread pool sized by the worker count.

    Runs inline at one worker or one item, else on min(workers, len(items))
    threads.  `fn` should spend its time in numpy calls that release the
    GIL; each item's result must not depend on evaluation order.
    """
    workers = worker_count()
    if workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))


def map_uniform_chunks(
    fn: Callable[[np.ndarray], R], dim: int, n_samples: int, seed: int
) -> list[R]:
    """`fn` of each uniform [0,1]^dim chunk of the stream of `seed`, block by block.

    Chunked and keyed as described in the module docstring; the chunks run
    through `thread_map` and the results come back in chunk order.  `fn`
    sees a chunk as its consecutive blocks of at most BLOCK rows, drawn
    from the chunk's one generator, and a chunk's result is its block
    results added in block order, so `fn` must return counts that add:
    ints or integer arrays.
    """

    def run(item: tuple[int, int]) -> R:
        c, size = item
        rng = chunk_rng(seed, c)
        total = fn(rng.random((min(size, BLOCK), dim)))
        for start in range(BLOCK, size, BLOCK):
            total = total + fn(rng.random((min(BLOCK, size - start), dim)))
        return total

    return thread_map(run, chunk_plan(n_samples))


def monte_carlo_fraction(
    indicator: Callable[[np.ndarray], np.ndarray],
    dim: int,
    n_samples: int,
    seed: int,
) -> tuple[float, int]:
    """Fraction of uniform [0,1]^dim samples accepted by `indicator`.

    Returns (fraction, hits).  The hits are an exact integer sum over
    `map_uniform_chunks`, so the result cannot depend on the work split.
    """
    hits = sum(
        map_uniform_chunks(
            lambda pts: int(np.count_nonzero(indicator(pts))), dim, n_samples, seed
        )
    )
    return hits / n_samples, hits


def wilson_interval(hits: int, n: int) -> tuple[float, float]:
    """Wilson score interval at 99% coverage (z = 2.576)."""
    z = 2.576
    if n == 0:
        return (0.0, 1.0)
    phat = hits / n
    denom = 1 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))
