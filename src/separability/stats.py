"""Two-sample statistics over empirical distributions.

Both statistics compare the empirical CDFs P and Q of two real samples:

* ``ks_statistic``      sup_x |P(x) - Q(x)|, the Kolmogorov-Smirnov distance
* ``wasserstein1``      integral of |P(x) - Q(x)| dx, the 1-Wasserstein
  (earth mover's) distance between the empirical measures

Both are read from binned counts, so no sample is ever stored whole,
sorted or merged: it only has to be produced, block by block, at most
twice.  The distance multisets of the DSI are produced that way by the
distance kernel; ``ks_statistic`` and friends copy each sample in, block by
block.

* Bins are intervals of one power-of-two width, so a value's bin is
  ``floor(v * scale)``: monotone, equal values share a bin, and every bin
  edge is an exact float.
* Pass 1 counts each block's values per bin and, for W1, sums each value's
  distance to its bin's upper edge and keeps the exact extremes.
  Cumulative counts give P - Q exactly at every bin end.
* A bin is refined when |P - Q| inside it could exceed the largest bin-end
  value (KS), or could change sign (W1).  Every other bin is settled by its
  counts: its KS candidates are bounded by the bin ends, and its share of
  W1 is the integral of a one-signed step function, which its counts and
  edge sums give exactly.
* Pass 2, run only when some bin is refined, produces the blocks again and
  keeps the plain values in its pair's refined bins; pass 1's counts say
  how many, so each multiset's kept values fill one array, sorted once.  For
  each pair, one stable merge of the two sorted runs ranks their values,
  and those ranks, offset by the counts below each bin, give |P - Q| at
  each kept value with the same float operations as a merge of the two
  sorted samples, so KS has the same bits as that merge.

Block partials are added in block order, so the number of threads that
produce the blocks never changes a value.

A walk over the blocks allocates no block-sized array: each thread of
the call fills every block into the "values" buffer of its own
``_threads.Scratch`` and reads the block's positions ``t`` and bin numbers
into two more, and the distance kernel takes its own temporaries from the
same scratch.  Blocks hold at most ``distances._BLOCK_VALUES`` values, so
the scratch stays near cache size; it is dropped between the passes and
when the call returns.

``_quantile`` reads an exact order statistic off the same bins, in the
same two passes, and counts the values of marked blocks up to it: the
complexity measure Density takes its cut and its edges from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from ._threads import Scratch, Threads
from .distances import _BLOCK_VALUES, _filled
from .errors import EmptySample

__all__ = [
    "ks_statistic",
    "wasserstein1",
    "wasserstein1_normalized",
]


def _finite_sample(sample) -> NDArray[np.float64]:
    values = np.asarray(sample, dtype=np.float64).ravel()
    if values.size == 0:
        raise EmptySample("cannot build a CDF from an empty sample")
    if not np.all(np.isfinite(values)):
        raise ValueError("sample contains non-finite values")
    return values


# About this many values of the largest multiset per bin, within the bounds
# below.  More bins leave fewer values to refine but cost time per block and
# per bin.  On a 2-vCPU x86-64 guest, for the DSI of 1000 points in two
# classes (multisets of 125k and 250k values, KS and W1), a target of 2**15
# bins ran 1.3x faster than 2**12 and 2**16, which refined 20x and 0.15x as
# many values; on 2x2500 points, 2**14 to 2**18 ran alike.
_VALUES_PER_BIN = 4
_MIN_BINS = 1 << 4
_MAX_BINS = 1 << 16

# Slack on float comparisons of |P - Q|: each height and bound is a few
# roundings of values in [-2, 2] off its exact value, far below 2**-48.
_PAD = 2.0**-48


def _bin_target(largest: int) -> int:
    """Bins for multisets of at most ``largest`` values: a power of two."""
    wanted = max(largest // _VALUES_PER_BIN, 1)
    return min(max(1 << (wanted.bit_length() - 1), _MIN_BINS), _MAX_BINS)


@dataclass(frozen=True)
class _Bins:
    """Bins of width ``1 / scale``, a power of two; bin i is the interval
    ``[(first + i) / scale, (first + i + 1) / scale)``.

    Values above the last bin are counted in it; W1 refines that bin when
    they occur.  Positions are handled as ``t = v * scale``, which is exact,
    so bin edges are the integers ``first + i``.
    """

    scale: float
    first: int
    size: int

    @classmethod
    def spanning(cls, lo: float, hi: float, target: int) -> _Bins:
        """About ``target / 2`` to ``target`` bins covering [lo, hi]."""
        # |t| = |v| * scale stays below 2**52, so every integer edge is exact
        e = 52 - math.frexp(max(abs(lo), abs(hi)))[1]
        half_span = hi * 0.5 - lo * 0.5  # cannot overflow
        if half_span > 0:  # span * scale in [target / 2, target)
            e = min(e, target.bit_length() - 3 - math.frexp(half_span)[1])
        scale = math.ldexp(1.0, min(e, 1023))
        first = math.floor(lo * scale)
        return cls(scale, first, math.floor(hi * scale) - first + 1)

    def index(
        self, values: NDArray[np.float64], scratch: Scratch
    ) -> tuple[NDArray[np.int64], NDArray[np.float64]]:
        """Each value's bin, and its position ``t = v * scale``, in the "idx"
        and "t" buffers of ``scratch``."""
        t = np.multiply(values, self.scale, out=scratch.take("t", values.size))
        idx = scratch.take("idx", values.size, np.int64)
        if self.first < 0:  # truncation rounds negative positions up
            np.floor(t, out=idx, casting="unsafe")
        else:
            np.copyto(idx, t, casting="unsafe")
        if self.first:
            idx -= self.first
        np.minimum(idx, self.size - 1, out=idx)
        return idx, t

    def of(self, values: NDArray[np.float64]) -> NDArray[np.int64]:
        """Each value's bin, in a new array, found ``_BLOCK_VALUES`` values at
        a time so that no other array of the size of ``values`` is made."""
        out = np.empty(values.size, dtype=np.int64)
        scratch = Scratch()
        for i in range(0, values.size, _BLOCK_VALUES):
            out[i : i + _BLOCK_VALUES] = self.index(values[i : i + _BLOCK_VALUES], scratch)[0]
        return out


class _Counts:
    """One multiset's pass-1 summary: its size ``n``, per-bin counts and, for
    W1, per-bin sums of ``upper edge - t`` and the exact extremes."""

    def __init__(self, size: int, edges: bool, n: int = 0):
        self.n = n
        self.counts = np.zeros(size, dtype=np.int64)
        self.edge_sums = np.zeros(size) if edges else None
        self.low, self.high = math.inf, -math.inf

    def add(self, part: tuple) -> None:
        """Add one block's summary, as ``_count_block`` returns it."""
        counts, edge_sums, low, high = part
        self.counts += counts
        if self.edge_sums is not None:
            self.edge_sums += edge_sums
            self.low, self.high = min(self.low, low), max(self.high, high)


def _count_block(values, bins: _Bins, edges: bool, scratch: Scratch) -> tuple:
    """One block's counts per bin and, for W1 (``edges``), its per-bin sums
    of ``upper edge - t`` and its extremes; the rest is None."""
    idx, t = bins.index(values, scratch)
    counts = np.bincount(idx, minlength=bins.size)
    if not edges:
        return counts, None, None, None
    # (first + idx + 1) - t: the distance to the upper edge, in bin widths
    np.subtract(bins.first + 1, t, out=t)
    t += idx
    edge_sums = np.bincount(idx, weights=t, minlength=bins.size)
    return counts, edge_sums, float(values.min()), float(values.max())


class _Gap:
    """P - Q for multisets ``a`` and ``b`` at bin resolution, and the bins
    that pass 2 must refine for the statistics in ``names``.

    Only the refine table is kept between the passes; the cumulative counts
    are recomputed from ``a`` and ``b`` when they are needed.
    """

    def __init__(self, a: _Counts, b: _Counts, bins: _Bins, names):
        self.a, self.b, self.bins = a, b, bins
        na, nb = self.na, self.nb = a.n, b.n
        ha, hb = a.counts, b.counts
        a_below, b_below, before, self.best = self._cumulative()
        filled = (ha > 0) | (hb > 0)
        # distinct heights differ by at least 1 / (na * nb); below 2**-50 that
        # dwarfs the rounding of any height, so exact comparisons hold
        exact = na * nb <= 2**50
        refine = np.zeros(bins.size, dtype=bool)
        rise, fall = ha / na, hb / nb
        if "ks" in names:
            # a bin holding only one sample's values is monotone: its heights
            # lie strictly between its two ends, which are already counted
            mixed = (ha > 0) & (hb > 0) if exact else filled
            bound = np.maximum(np.abs(before + rise), np.abs(before - fall))
            refine |= mixed & (bound + _PAD > self.best)
        if "w1" in names or "w1_normalized" in names:
            if exact:  # P - Q times na * nb, an integer below 2**50
                scaled = a_below * nb - b_below * na
                one_sign = (scaled - hb * na >= 0) | (scaled + ha * nb <= 0)
            else:
                one_sign = (before - fall > _PAD) | (before + rise < -_PAD)
            refine |= filled & ~one_sign
            # values past the last bin's nominal edge stretch it
            self.top = max(a.high, b.high) * bins.scale
            refine[-1] |= filled[-1] and self.top > bins.first + bins.size
        self.refine = refine

    def _cumulative(self) -> tuple:
        """The counts of ``a`` and ``b`` below each bin, P - Q at each bin's
        lower edge, and the largest |P - Q| at a bin end."""
        ca, cb = np.cumsum(self.a.counts), np.cumsum(self.b.counts)
        # the same float operations as on a merge's counts, so the same bits
        ends = ca / self.na - cb / self.nb
        best = float(np.abs(ends).max())
        return np.append(0, ca[:-1]), np.append(0, cb[:-1]), np.append(0.0, ends[:-1]), best

    def statistics(self, kept_a, kept_b, names) -> dict[str, float]:
        """The named statistics, given each multiset's values in this gap's
        refined bins, sorted."""
        bins, refine = self.bins, self.refine
        grid, count_a, count_b = _merge(kept_a, kept_b)
        w1 = "w1" in names or "w1_normalized" in names
        at = bins.of(grid)
        if not w1:
            del grid
        # each kept value's bin is refined, so the values in unrefined bins
        # up to it are the values below it that pass 2 did not keep
        below = np.take(np.cumsum(np.where(refine, 0, self.a.counts)), at)
        count_a += below
        # (out is copied first unless the mode is "clip"; every index is in range)
        count_b += np.take(np.cumsum(np.where(refine, 0, self.b.counts)), at, out=below, mode="clip")
        del below
        if not w1:
            del at
        # each array of the merged size is dropped once it is used up, so
        # that at most four of them are live at once
        heights = np.divide(count_a, self.na)
        del count_a
        fall = np.divide(count_b, self.nb)
        del count_b
        heights = np.abs(np.subtract(heights, fall, out=heights), out=heights)
        del fall
        out = {"ks": max(self.best, float(heights.max(initial=0.0)))}
        if w1:
            area = self._area(grid, at, heights, self._cumulative()[2])
            out["w1"] = area / bins.scale
            # the pooled range in bin widths: finite where high - low
            # overflows, and the same ratio to the bit elsewhere, since the
            # scale is a power of two
            low, high = min(self.a.low, self.b.low), max(self.a.high, self.b.high)
            width = high * bins.scale - low * bins.scale
            # rounding can put the ratio a hair above its bound of 1
            out["w1_normalized"] = min(area / width, 1.0) if width else 0.0
        return {name: out[name] for name in names}

    def _area(self, grid, at, heights, before) -> float:
        """The integral of |P - Q| in bin widths, summed bin by bin in bin
        order."""
        bins, a, b = self.bins, self.a, self.b
        # settled bins: |P - Q| keeps one sign, so the integral of P - Q over
        # the bin, one bin width, is taken whole; grouped so that swapping
        # the samples negates every rounding step and W1 stays symmetric
        shares = np.abs(before + (a.edge_sums / self.na - b.edge_sums / self.nb))
        if grid.size:
            t = grid * bins.scale
            upper = (at + (bins.first + 1)).astype(np.float64)
            upper[at == bins.size - 1] = max(bins.first + bins.size, self.top)
            last = np.append(at[1:] != at[:-1], True)
            first = np.append(True, last[:-1])
            step_to = np.append(t[1:], 0.0)
            step_to[last] = upper[last]
            pieces = (step_to - t) * heights
            lower = at[first] + bins.first
            pieces[first] += (t[first] - lower) * np.abs(before[at[first]])
            shares[self.refine] = np.bincount(at, weights=pieces, minlength=bins.size)[self.refine]
        return float(shares.sum())


def _merge(kept_a, kept_b) -> tuple:
    """The distinct values of the sorted runs ``kept_a`` and ``kept_b``,
    ascending, and how many values of each run are <= each of them.

    A stable sort of two sorted runs is one linear merge; the ends of its
    runs of equal values count the values of both runs, and a binary search
    of the first run counts its own.  Each array of the merged size is
    dropped as soon as it is used up.
    """
    values = np.concatenate((kept_a, kept_b))
    values.sort(kind="stable")
    ends = np.flatnonzero(np.append(values[1:] != values[:-1], True)[: values.size])
    distinct = values[ends]
    del values
    count_a = np.searchsorted(kept_a, distinct, side="right")
    count_b = np.add(ends, 1, out=ends)
    count_b -= count_a
    return distinct, count_a, count_b


def _binned_statistics(
    sources: list, pairs: list, span: tuple[float, float], names, workers: int = 1
) -> list[dict[str, float]]:
    """Statistics of |P - Q| for each pair of multisets, from binned counts.

    ``sources`` lists ``(blocks, feeds)``: each block is a ``(size, fill)``
    pair whose ``fill(out, scratch)`` writes ``size`` float64 values into
    ``out``, the same each time it is called, taking any temporaries from
    the ``_threads.Scratch`` given; those values belong to every multiset
    numbered in ``feeds``.  ``span`` is ``(lo, hi)``: no value lies below
    ``lo``, and the bins span [lo, hi], though a value above ``hi`` is
    still counted exactly.  ``pairs`` lists ``(a, b)`` multiset numbers,
    each multiset in one pair, so pass 2 keeps its values in that pair's
    refined bins only; the result has one dict of the ``names`` ("ks",
    "w1", "w1_normalized") per pair.  Blocks run on ``workers`` threads,
    once to count and, if any bin needs it, once more to refine.
    """
    edges = "w1" in names or "w1_normalized" in names
    sizes = [0] * (1 + max(max(f) for _, f in sources))
    tasks = []
    for blocks, feeds in sources:
        for size, fill in blocks:
            for f in feeds:
                sizes[f] += size
            if size:
                tasks.append((size, fill, feeds))
    bins = _Bins.spanning(*span, _bin_target(max(sizes)))
    sets = [_Counts(bins.size, edges, n) for n in sizes]

    def count(task, scratch):
        size, fill, _ = task
        return _count_block(_filled(size, fill, scratch), bins, edges, scratch)

    def keep(task, scratch):  # the block's values in each fed multiset's wanted bins
        size, fill, feeds = task
        values = _filled(size, fill, scratch)
        idx = bins.index(values, scratch)[0]
        inside = scratch.take("inside", size, bool)
        return [values[np.take(wanted[f], idx, out=inside)] for f in feeds]

    with Threads(workers) as threads:
        for (_, _, feeds), part in zip(tasks, threads.map(count, tasks)):  # in block order
            for f in feeds:
                sets[f].add(part)
        threads.free_scratch()  # the gaps' bin-sized arrays may reuse its memory

        gaps = [_Gap(sets[a], sets[b], bins, names) for a, b in pairs]
        wanted = [None] * len(sets)
        for (a, b), gap in zip(pairs, gaps):
            wanted[a] = wanted[b] = gap.refine
        # pass 1's counts size each multiset's kept values exactly
        kept = [np.empty(int(s.counts[table].sum())) for s, table in zip(sets, wanted)]
        if any(values.size for values in kept):
            filled = [0] * len(sets)
            for (_, _, feeds), parts in zip(tasks, threads.map(keep, tasks)):
                for f, part in zip(feeds, parts):
                    kept[f][filled[f] : filled[f] + part.size] = part
                    filled[f] += part.size
    for values in kept:
        values.sort()
    return [gap.statistics(kept[a], kept[b], names) for (a, b), gap in zip(pairs, gaps)]


def _quantile(sources: list, span: tuple[float, float], q: float) -> tuple[float, int]:
    """``np.quantile(values, q)``, with the bits of its default ``linear``
    method, of the values that the blocks of ``sources`` produce, and how
    many values of the marked sources are <= it.

    ``sources`` lists ``(blocks, marked)``: ``(size, fill)`` blocks as in
    ``_binned_statistics``, and whether their values are counted; ``span``
    is as there.  numpy reads the two order statistics either side of its
    virtual index ``(n - 1) * q``.  Pass 1 counts the values per bin, the
    marked ones apart; pass 2 keeps only the values of the one or two bins
    holding those ranks, as each block's distinct values with their counts,
    so a run of tied values costs one entry per block, and reads both ranks
    off their merged counts.  The cut lies in those bins, so the marked
    values <= it are the marked values of every bin below them and the
    marked kept values <= it.
    """
    tasks = [(size, fill, marked) for blocks, marked in sources for size, fill in blocks if size]
    n = sum(size for size, _, _ in tasks)
    bins = _Bins.spanning(*span, _bin_target(n))
    scratch = Scratch()
    tallies = np.zeros((2, bins.size), dtype=np.int64)  # unmarked, marked
    for size, fill, marked in tasks:
        idx = bins.index(_filled(size, fill, scratch), scratch)[0]
        tallies[int(marked)] += np.bincount(idx, minlength=bins.size)
    counts = tallies.sum(axis=0)
    virtual = (n - 1) * q
    below = math.floor(virtual)
    ranks = (below, below + 1) if virtual < n - 1 else (n - 1, n - 1)
    ends = np.cumsum(counts)
    first, last = np.searchsorted(ends, ranks, side="right")
    parts = []
    for size, fill, marked in tasks:
        values = _filled(size, fill, scratch)
        idx = bins.index(values, scratch)[0]
        inside = np.greater_equal(idx, first, out=scratch.take("inside", size, bool))
        inside &= np.less_equal(idx, last, out=scratch.take("below", size, bool))
        parts.append((*np.unique(values[inside], return_counts=True), marked))
    kept = np.concatenate([values for values, _, _ in parts])
    order = np.argsort(kept, kind="stable")
    # one past each kept value's last rank, counting the values below its bins
    past = np.cumsum(np.concatenate([c for _, c, _ in parts])[order]) + (ends[first] - counts[first])
    a, b = (kept[order[np.searchsorted(past, r, side="right")]] for r in ranks)
    # numpy's lerp, from numpy itself: the same weight between the same two
    # values (past the last rank, a == b and the weight is moot)
    cut = float(np.quantile(np.array([a, b]), virtual - ranks[0]))
    at_most = int(tallies[1, :first].sum())
    at_most += sum(int(c[values <= cut].sum()) for values, c, marked in parts if marked)
    return cut, at_most


def _sample_blocks(values: NDArray[np.float64]) -> list:
    """``values`` as ``(size, fill)`` blocks of at most ``_BLOCK_VALUES`` values."""

    def block(part):
        return part.size, lambda out, scratch: np.copyto(out, part)

    return [block(values[i : i + _BLOCK_VALUES]) for i in range(0, values.size, _BLOCK_VALUES)]


def _statistic(sample_a, sample_b, name: str) -> float:
    """Validate both samples, then reduce one named statistic."""
    a, b = _finite_sample(sample_a), _finite_sample(sample_b)
    span = (float(min(a.min(), b.min())), float(max(a.max(), b.max())))
    sources = [(_sample_blocks(a), (0,)), (_sample_blocks(b), (1,))]
    return _binned_statistics(sources, [(0, 1)], span, (name,))[0][name]


def ks_statistic(sample_a, sample_b) -> float:
    """Kolmogorov-Smirnov statistic sup_x |P(x) - Q(x)| between two samples.

    Exact for the empirical step functions: the supremum is attained at a
    pooled sample value.  Returns a value in [0, 1]; 0 iff the sorted
    samples induce identical CDFs, 1 iff the sample ranges are disjoint.
    """
    return _statistic(sample_a, sample_b, "ks")


def wasserstein1(sample_a, sample_b) -> float:
    """Exact 1-Wasserstein distance between two empirical distributions.

    Computed as the integral of |P(x) - Q(x)| over x: both CDFs are
    piecewise constant between consecutive pooled sample values, so the
    integral is a finite sum of rectangle areas.  Unbounded above in
    general (scales with the data units).
    """
    return _statistic(sample_a, sample_b, "w1")


def wasserstein1_normalized(sample_a, sample_b) -> float:
    """1-Wasserstein distance rescaled by the pooled sample range.

    Dividing by max - min of the pooled sample bounds the value to [0, 1],
    making it comparable with ``ks_statistic``.  When the pooled range is
    zero every sample value coincides, the distributions are identical, and
    the distance is 0 by convention.
    """
    return _statistic(sample_a, sample_b, "w1_normalized")
