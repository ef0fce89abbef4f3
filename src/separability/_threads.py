"""``walk``, the one driver behind every ``workers`` argument, its check of
``workers``, and each thread's scratch."""

from __future__ import annotations

import numbers
import threading
from collections.abc import Iterator

import numpy as np


class Scratch:
    """One thread's reusable buffers, so that a walk over blocks allocates
    its block-sized temporaries once, not once per block.

    ``take(name, size, dtype)`` returns the first ``size`` items of the
    buffer ``name``, regrown when too small, holding whatever its last user
    left there.  Each name is used with one dtype, and code that holds a
    buffer while it calls other code uses a name the callee does not.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, size: int, dtype=np.float64) -> np.ndarray:
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < size:
            buffer = self._buffers[name] = np.empty(size, dtype=dtype)
        return buffer[:size]


# Runs of items per worker that ``walk`` submits.  A run's results
# are held until its last item is done, so runs stay short: with 16 runs per
# worker, CLI `measure --threads 2` on 2x7500 moons (2,814 blocks a pass)
# held 88-item runs of 512 KiB bin counts and peaked at 111-134 MiB RSS
# against 85-91 MiB with one task per block; with 256, 6-item runs, at
# 78-79 MiB, in 1.5-1.8 s either way (2-vCPU x86-64 guest, three runs
# each).  That is about 940 pool tasks per op instead of 5,600.
_RUNS_PER_WORKER = 256


def check_workers(workers) -> None:
    """Raise ``ValueError`` unless ``workers`` is an integer >= 1."""
    if not isinstance(workers, numbers.Integral) or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")


def walk(fn, items: list, workers: int) -> Iterator:
    """``fn(item, scratch)`` for each item, on up to ``workers`` threads,
    yielded lazily in the order of ``items``.

    ``scratch`` is the running thread's ``Scratch``, made for this walk only.
    With a pool, runs of consecutive items go to it as one task each, about
    ``_RUNS_PER_WORKER`` runs per worker, so that a walk over thousands of
    small blocks does not pay a task's cost per block; every run is submitted
    at once, and its results are held only until they are yielded.  The pool
    is shut down, its threads joined, when the walk ends, raises or is closed.
    Raises ``ValueError``, before any call of ``fn``, unless ``workers`` is an
    integer >= 1.
    """
    check_workers(workers)
    if workers == 1 or len(items) < 2:
        scratch = Scratch()
        for item in items:
            yield fn(item, scratch)
        return
    # imported here: a one-thread walk never needs it
    from concurrent.futures import ThreadPoolExecutor

    scratches: dict[int, Scratch] = {}
    step = -(-len(items) // (workers * _RUNS_PER_WORKER))

    def run(start):
        own = scratches.setdefault(threading.get_ident(), Scratch())
        return [fn(item, own) for item in items[start : start + step]]

    with ThreadPoolExecutor(max_workers=workers) as pool:
        for results in pool.map(run, range(0, len(items), step)):
            yield from results
