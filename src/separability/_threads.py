"""The threads behind every ``workers`` argument, and each thread's scratch."""

from __future__ import annotations

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


class Threads:
    """Up to ``workers`` threads, started on first use and stopped on exit,
    each with its own ``Scratch`` for the call.

    One ``Threads`` serves every kernel pass of a call, so a call over
    many classes starts its threads once: on a small virtual machine,
    starting a pool's threads can take a millisecond or more each time.
    The scratch buffers are dropped on exit, so none outlives the call.
    """

    def __init__(self, workers: int):
        self.workers = workers
        self._pool = None
        self._scratch: dict[int, Scratch] = {}

    def _own_scratch(self) -> Scratch:
        ident = threading.get_ident()
        scratch = self._scratch.get(ident)
        if scratch is None:
            scratch = self._scratch[ident] = Scratch()
        return scratch

    def map(self, fn, items: list) -> Iterator:
        """``fn(item, scratch)`` for each item, yielded lazily in the order of
        ``items``; ``scratch`` belongs to the thread that runs the call.

        With a pool every item is submitted at once and each result is held
        only until it is yielded, so a caller that reduces the results as
        they come holds few of them.  ``fn`` must not call ``map`` on the
        same ``Threads``: a task that waits on the pool it runs in can stall it.
        """
        if self.workers < 2 or len(items) < 2:
            return (fn(item, self._own_scratch()) for item in items)
        if self._pool is None:
            # imported here: a one-thread call never needs it
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(max_workers=self.workers)
        return self._pool.map(lambda item: fn(item, self._own_scratch()), items)

    def free_scratch(self) -> None:
        """Drop every thread's buffers, as between two passes that hold
        other arrays; the next ``map`` takes fresh ones."""
        self._scratch.clear()

    def __enter__(self) -> Threads:
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        self.free_scratch()
