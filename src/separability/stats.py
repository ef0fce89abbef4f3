"""Two-sample statistics over empirical distributions.

Both statistics compare the empirical CDFs P and Q of two real samples:

* ``ks_statistic``      sup_x |P(x) - Q(x)|, the Kolmogorov-Smirnov distance
* ``wasserstein1``      integral of |P(x) - Q(x)| dx, the 1-Wasserstein
  (earth mover's) distance between the empirical measures

Both are read from binned counts, so no sample is ever stored whole,
sorted or merged: it only has to be produced, block by block, at most
twice.  The distance multisets of the DSI are produced that way by the
distance kernel; ``ks_statistic`` and friends feed each sample as one block.

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
  keeps the values in refined bins, each block's as distinct values with
  counts.  The kept parts of two multisets are sorted once, together, and
  their ranks, offset by the counts below each bin, give |P - Q| at each
  kept value with the same float operations as a merge of the two sorted
  samples, so KS has the same bits as that merge.

Block partials are added in block order, so the number of threads that
produce the blocks never changes a value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from ._threads import SERIAL, Threads
from .errors import EmptySample

__all__ = [
    "EmpiricalCdf",
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


@dataclass(frozen=True)
class EmpiricalCdf:
    """Right-continuous empirical CDF of a finite sample.

    ``values`` is the sorted sample; ``evaluate(x)`` returns the fraction of
    sample points <= x, so it steps by multiples of 1/n at each distinct
    sample value and satisfies F(-inf) = 0, F(+inf) = 1.
    """

    values: NDArray[np.float64]

    def __post_init__(self):
        vals = np.sort(_finite_sample(self.values))
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return int(self.values.size)

    def evaluate(self, x) -> NDArray[np.float64]:
        """F(x): fraction of sample values <= x (scalar or array x)."""
        pos = np.searchsorted(self.values, x, side="right")
        return pos / self.n

    def __call__(self, x):
        return self.evaluate(x)


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

    def index(self, values: NDArray[np.float64]) -> tuple[NDArray[np.int64], NDArray[np.float64]]:
        """Each value's bin, and its position ``t = v * scale``."""
        t = values * self.scale
        if self.first < 0:  # truncation rounds negative positions up
            idx = np.floor(t).astype(np.int64)
        else:
            idx = t.astype(np.int64)
        if self.first:
            idx -= self.first
        np.minimum(idx, self.size - 1, out=idx)
        return idx, t


class _Counts:
    """One multiset's pass-1 summary: per-bin counts and, for W1, per-bin
    sums of ``upper edge - t`` and the exact extremes."""

    def __init__(self, size: int, edges: bool):
        self.counts = np.zeros(size, dtype=np.int64)
        self.edge_sums = np.zeros(size) if edges else None
        self.low, self.high = math.inf, -math.inf

    def add(self, part: _Counts) -> None:
        self.counts += part.counts
        if self.edge_sums is not None:
            self.edge_sums += part.edge_sums
            self.low, self.high = min(self.low, part.low), max(self.high, part.high)

    @property
    def n(self) -> int:
        return int(self.counts.sum())


def _count_block(values, bins: _Bins, edges: bool) -> _Counts:
    part = _Counts(bins.size, edges)
    idx, t = bins.index(values)
    part.counts += np.bincount(idx, minlength=bins.size)
    if edges:
        # (first + idx + 1) - t: the distance to the upper edge, in bin widths
        np.subtract(bins.first + 1, t, out=t)
        t += idx
        part.edge_sums += np.bincount(idx, weights=t, minlength=bins.size)
        part.low, part.high = float(values.min()), float(values.max())
    return part


def _keep_block(values, bins: _Bins, wanted: list) -> list[tuple]:
    """For each refine table in ``wanted``, the block's values in its bins,
    as one (distinct values, counts) pair."""
    idx = bins.index(values)[0]
    return [np.unique(values[table[idx]], return_counts=True) for table in wanted]


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
        """The named statistics, given each multiset's kept (values, counts)
        parts (a superset of its values in this gap's refined bins)."""
        bins, refine = self.bins, self.refine
        grid, count_a, count_b = _merge(kept_a, kept_b, bins, refine)
        at = bins.index(grid)[0]
        a_below, b_below, before, _ = self._cumulative()
        count_a += _skipped(a_below, self.a.counts, refine)[at]
        count_b += _skipped(b_below, self.b.counts, refine)[at]
        heights = np.abs(count_a / self.na - count_b / self.nb)
        out = {"ks": max(self.best, float(heights.max(initial=0.0)))}
        if "w1" in names or "w1_normalized" in names:
            out["w1"] = self._area(grid, at, heights, before)
            low, high = min(self.a.low, self.b.low), max(self.a.high, self.b.high)
            pooled_range = float(high - low)
            out["w1_normalized"] = out["w1"] / pooled_range if pooled_range else 0.0
        return {name: out[name] for name in names}

    def _area(self, grid, at, heights, before) -> float:
        """The integral of |P - Q|, summed bin by bin in bin order."""
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
        return float(shares.sum()) / bins.scale


def _skipped(below, counts, refine) -> NDArray[np.int64]:
    """How many values lie in unrefined bins below each bin."""
    held = np.where(refine, counts, 0)
    return below - (np.cumsum(held) - held)


def _merge(kept_a: list, kept_b: list, bins: _Bins, refine) -> tuple:
    """The distinct kept values in ``refine``'s bins, ascending, and how many
    kept values of each multiset are <= each of them.

    ``kept_a`` and ``kept_b`` hold one (distinct values, counts) part per
    block, so a value may occur in several parts, in no order: one sort of
    all of them groups equal values, and running sums of the counts, read at
    each group's end, give the ranks.
    """
    values = np.concatenate([v for v, _ in kept_a + kept_b])
    zeros = [np.zeros_like(c) for _, c in kept_a + kept_b]
    from_a = np.concatenate([c for _, c in kept_a] + zeros[len(kept_a) :])
    from_b = np.concatenate(zeros[: len(kept_a)] + [c for _, c in kept_b])
    inside = np.flatnonzero(refine[bins.index(values)[0]])
    order = inside[np.argsort(values[inside])]
    values, from_a, from_b = values[order], from_a[order], from_b[order]
    run_end = np.append(values[1:] != values[:-1], True)[: values.size]
    return values[run_end], np.cumsum(from_a)[run_end], np.cumsum(from_b)[run_end]


def _binned_statistics(
    sources: list, pairs: list, bins: _Bins, names, threads: Threads = SERIAL
) -> list[dict[str, float]]:
    """Statistics of |P - Q| for each pair of multisets, from binned counts.

    ``sources`` lists ``(blocks, feeds)``: each block is a ``(size, fill)``
    pair whose ``fill()`` returns a float64 array of ``size`` values, the same
    each time it is called; those values belong to every multiset numbered
    in ``feeds``.  ``pairs`` lists ``(a, b)`` multiset numbers; the result has
    one dict of the ``names`` ("ks", "w1", "w1_normalized") per pair.  Blocks
    run on ``threads``, once to count and, if any bin needs it, once more to
    refine.
    """
    edges = "w1" in names or "w1_normalized" in names
    tasks = [(fill, feeds) for blocks, feeds in sources for size, fill in blocks if size]
    sets = [_Counts(bins.size, edges) for _ in range(1 + max(max(f) for _, f in sources))]
    partials = threads.map(lambda task: _count_block(task[0](), bins, edges), tasks)
    for (_, feeds), part in zip(tasks, partials):  # in block order
        for f in feeds:
            sets[f].add(part)

    gaps = [_Gap(sets[a], sets[b], bins, names) for a, b in pairs]
    wanted = [np.zeros(bins.size, dtype=bool) for _ in sets]
    for (a, b), gap in zip(pairs, gaps):
        wanted[a] |= gap.refine
        wanted[b] |= gap.refine
    # an empty first part, so that a multiset that kept nothing still joins
    kept = [[(np.empty(0), np.empty(0, dtype=np.int64))] for _ in sets]
    if any(table.any() for table in wanted):

        def keep(task):
            fill, feeds = task
            return _keep_block(fill(), bins, [wanted[f] for f in feeds])

        for (_, feeds), parts in zip(tasks, threads.map(keep, tasks)):
            for f, found in zip(feeds, parts):
                kept[f].append(found)
    return [gap.statistics(kept[a], kept[b], names) for (a, b), gap in zip(pairs, gaps)]


def _statistic(sample_a, sample_b, name: str) -> float:
    """Validate both samples, then reduce one named statistic, each sample one block."""
    a, b = _finite_sample(sample_a), _finite_sample(sample_b)
    lo, hi = min(a.min(), b.min()), max(a.max(), b.max())
    bins = _Bins.spanning(float(lo), float(hi), _bin_target(max(a.size, b.size)))
    sources = [([(a.size, lambda: a)], (0,)), ([(b.size, lambda: b)], (1,))]
    return _binned_statistics(sources, [(0, 1)], bins, (name,))[0][name]


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
