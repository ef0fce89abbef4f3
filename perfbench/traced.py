"""Run one ``separability`` CLI call in this process, with a span around each layer.

Usage::

    PYTHONPATH=src python3 perfbench/traced.py SPANS.json MEMORY -- CLI-ARGS...

The CLI's report goes to stdout as usual.  The spans and counts go to
SPANS.json.  With MEMORY=1, tracemalloc runs during the call and each span
also records its allocation peak above what was live when it started.
This pass is meant for memory only: tracemalloc slows Python-level loops,
so its times are not comparable with an untraced run.

Spans wrap the module-level names that callers look up at call time, so the
package itself is not changed.  A name that no longer exists is skipped and
its layer reports zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import tracemalloc
from collections import Counter

import numpy as np

# module -> {attribute: span name}
WRAPPED = {
    "separability.cli": {
        "load_csv": "dataset.load_csv",
        "dsi": "dsi.dsi",
        "compute_measures": "measures.compute_measures",
        "generate": "generators.generate",
    },
    "separability.dsi": {
        "class_distance_sets": "dsi.class_distance_sets",
        "pairwise_condensed": "distances.pairwise_condensed",
    },
    "separability.measures": {
        "pairwise_condensed": "distances.pairwise_condensed",
        "f1": "measures.F1",
        "n1": "measures.N1",
        "n2": "measures.N2",
        "n3": "measures.N3",
        "n4": "measures.N4",
        "t1": "measures.T1",
        "lsc": "measures.LSC",
        "density": "measures.Density",
    },
}


def _bytes_parsed(args, kwargs, result):
    source = args[0] if args else kwargs.get("source")
    if isinstance(source, os.PathLike):
        size = os.path.getsize(source)
    elif isinstance(source, str):  # load_csv takes a str as the text itself
        size = len(source.encode("utf-8"))
    else:
        size = len(source)
    return {"dataset.bytes_parsed": size}


def _pairs(args, kwargs, result):
    points = args[0] if args else kwargs["points"]
    n = len(points)
    pairs = n * (n - 1) // 2
    return {"distances.pairwise_calls": 1, "distances.pairs": pairs, "distances.condensed_bytes": 8 * pairs}


def _multiset_values(args, kwargs, result):
    """Sum over classes of |ICD| + |BCD| = m(m-1)/2 + m(n-m), from the labels."""
    ds = args[0] if args else kwargs["ds"]
    _, sizes = np.unique(ds.labels, return_counts=True)
    n = int(sizes.sum())
    return {"dsi.multiset_values": int(sum(m * (m - 1) // 2 + m * (n - m) for m in sizes.tolist()))}


COUNTERS = {
    "dataset.load_csv": _bytes_parsed,
    "distances.pairwise_condensed": _pairs,
    "dsi.class_distance_sets": _multiset_values,
}

# counts that take the largest value seen instead of the sum over calls
MAX_COUNTS = {"distances.condensed_bytes"}


class Tracer:
    """Spans kept in memory: name, parent index, start, end and allocation peak.

    Every wrapped function is called from the main thread (the package's
    thread pools run below them), so one stack describes the nesting.
    """

    def __init__(self, memory: bool):
        self.memory = memory
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[dict] = []

    def wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    if key in MAX_COUNTS:
                        self.counts[key] = max(self.counts[key], value)
                    else:
                        self.counts[key] += value
            return result

        return wrapper

    def _open(self, name: str) -> dict:
        parent = self._stack[-1] if self._stack else None
        span = {"name": name, "parent": parent["id"] if parent else None, "id": len(self.spans)}
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent["peak"] = max(parent["peak"], peak)
            tracemalloc.reset_peak()
            span["base"] = span["peak"] = current
        self.spans.append(span)
        self._stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        if self.memory:
            span["peak"] = max(span["peak"], tracemalloc.get_traced_memory()[1])
            if self._stack:
                self._stack[-1]["peak"] = max(self._stack[-1]["peak"], span["peak"])
            span["peak_bytes"] = span["peak"] - span["base"]


def install(tracer: Tracer) -> None:
    for module_name, names in WRAPPED.items():
        module = importlib.import_module(module_name)
        for attr, span_name in names.items():
            fn = getattr(module, attr, None)
            if callable(fn):
                setattr(module, attr, tracer.wrap(fn, span_name))


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, memory, cli_args = argv[0], argv[1] == "1", argv[3:]
    t0 = time.perf_counter()
    cli = importlib.import_module("separability.cli")
    import_s = time.perf_counter() - t0

    tracer = Tracer(memory)
    install(tracer)
    if memory:
        tracemalloc.start()
    run = tracer.wrap(cli.run, "cli.run")
    try:
        code = run(cli_args)
    finally:
        sys.stdout.flush()
        spans = [
            {k: s[k] for k in ("name", "parent", "start", "end", "peak_bytes") if k in s}
            for s in tracer.spans
        ]
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": spans, "counts": dict(tracer.counts)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
