"""The threads behind every ``workers`` argument."""

from __future__ import annotations

from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor


class Threads:
    """Up to ``workers`` threads, started on first use and stopped on exit.

    One ``Threads`` serves every kernel pass of a call, so a call over
    many classes starts its threads once: on a small virtual machine,
    starting a pool's threads can take a millisecond or more each time.
    """

    def __init__(self, workers: int):
        self.workers = workers
        self._pool: ThreadPoolExecutor | None = None

    def map(self, fn, items: list) -> Iterator:
        """``fn(item)`` for each item, yielded lazily in the order of ``items``.

        With a pool every item is submitted at once and each result is held
        only until it is yielded, so a caller that reduces the results as
        they come holds few of them.  ``fn`` must not call ``map`` on the
        same ``Threads``: a task that waits on the pool it runs in can stall it.
        """
        if self.workers < 2 or len(items) < 2:
            return (fn(item) for item in items)
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.workers)
        return self._pool.map(fn, items)

    def __enter__(self) -> Threads:
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


SERIAL = Threads(1)  # runs everything in the calling thread; never starts a pool
