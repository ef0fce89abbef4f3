"""Distance metrics and pairwise-distance computation.

Six metrics are supported: euclidean, cityblock, chebyshev, correlation,
cosine, and mahalanobis.  Correlation and cosine distances are clamped to
[0, 2] to absorb floating-point excursions past the analytic bounds;
mahalanobis requires a fitted inverse-covariance context (see
``fit_mahalanobis``).

Pairwise distances are computed in row blocks: among one point set, each
block is a triangle (pdist) plus a rectangle (cdist) against the later
rows; between two point sets, a block of the first set's rows against the
second (cdist).  A block's rows are capped so that rows times the width of
a row (the other set's size) stays within a budget of ``_BLOCK_VALUES``
float64 values, 512 KiB, so a block's values and temporaries stay near
cache size whatever n is.  Every block is a
``(size, fill)`` pair: ``fill(out, scratch)`` writes the block's ``size``
distances, triangle first, clamped, into the flat float64 slice ``out``
and takes its temporaries from ``scratch`` (a ``_threads.Scratch``, one per
thread of a walk), so a walk over the blocks allocates nothing per block.
Every pass that reads blocks is a visitor of ``_walk``, which fills each
block into the running thread's scratch and hands the values to the
visitor; ``_store``, behind ``_cross`` and ``dsi.class_distance_sets``,
instead fills each block straight into its slice of every multiset it
feeds.  Both run on ``_threads.walk``, which checks ``workers``.  The
blocks depend only on the row counts, never on the worker count, so every
entry is produced by the same library call regardless of parallelism and
results are bit-identical for any ``workers`` value.
pdist and cdist give the same bits for the same pair, whichever block
computes it and in either order.  Only ``pairwise_condensed`` and
``icd_set`` return the condensed form, the strict upper triangle row by
row (see ``condensed_index``).  Every public function that returns
distances raises ``DomainError`` when one overflows float64, as the DSI
does, and prints no floating-point warning on the way.

The two-pass engines of ``stats`` read sources: ``_Blocks``, plain blocks,
or ``_Pairs``, the pairs among one point set or between two.  Pass 1 reads
a source's blocks, in order.  Pass 2 wants only the distances in a few
bins, and reads the source's ``tasks`` on ``_walk_tasks``.  Under
euclidean, cityblock and chebyshev, each task of a ``_Pairs`` is a group
of nearby rows (``_kd_groups``, once per point set in ``_Rows``) led by a
pivot.  The pivot's distance D_j to each column, and delta, the group's
largest distance to its pivot, bound every other row's distance to that
column within [D_j - delta, D_j + delta], by the triangle inequality, up
to a rounding slack that ``_slack`` proves.  Only the columns whose bounds
can reach a wanted bin are computed.  Each pair is computed at most once;
a cross source also computes each group's rows against its pivot.

The module's ``pdist`` and ``cdist`` are the only kernel entry points.
Euclidean, cityblock and chebyshev distances between rows of at most
``_NUMPY_MAX_DIM`` features are computed in numpy; every other metric or
width goes to ``scipy.spatial.distance``, which is imported on first use
only, since importing it costs ~0.5 s.  The numpy kernel accumulates one
feature at a time in feature order, as scipy's loop does, so both paths
give scipy's bits for every pair.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np
from numpy.typing import NDArray

from ._threads import Scratch, walk
from .errors import DegenerateClass, DegenerateVector, DomainError, SingularCovariance

__all__ = [
    "METRIC_NAMES",
    "DistanceMetric",
    "DistanceSet",
    "distance",
    "icd_set",
    "bcd_set",
    "fit_mahalanobis",
    "pairwise_condensed",
    "pairwise_cross",
    "resolve_metric",
    "condensed_index",
]

METRIC_NAMES = (
    "euclidean",
    "cityblock",
    "chebyshev",
    "correlation",
    "cosine",
    "mahalanobis",
)

# Correlation/cosine distances live in [0, 2] analytically; rounding can
# push a hair past either end, so those metrics are clamped after computing.
_CLAMPED_METRICS = frozenset({"correlation", "cosine"})

# A row block holds at most _BLOCK_ROWS rows and, when a row is wide, at most
# as many as keep rows x width within _BLOCK_VALUES float64 values (one row
# if a row alone is wider).  Each temporary of a block is then at most
# 512 KiB.  On 2x2500 moons (x86-64 Linux, glibc malloc), 128-row blocks of
# 2.5 MiB, allocated afresh for each block, cost CLI `measure` ~90k minor
# page faults and 0.15-0.2 s of system time; these blocks, filled into
# per-thread buffers, ~8k faults, most of them from imports.  Fewer than
# _BLOCK_ROWS * _MIN_BLOCKS rows are still cut into _MIN_BLOCKS blocks, so
# threads can share a small class.  Blocks depend only on the row counts,
# never on the workers.
_BLOCK_ROWS = 128
_BLOCK_VALUES = 1 << 16
_MIN_BLOCKS = 8


@dataclass(frozen=True)
class DistanceMetric:
    """A metric name plus any fitted context it needs.

    For ``mahalanobis`` the context is the inverse of the regularized
    covariance matrix and must be symmetric positive definite; the other
    metrics carry no context.
    """

    name: str
    inverse_covariance: NDArray[np.float64] | None = None

    def __post_init__(self):
        if self.name not in METRIC_NAMES:
            raise ValueError(
                f"unknown metric {self.name!r}; expected one of {', '.join(METRIC_NAMES)}"
            )
        if self.name == "mahalanobis":
            vi = self.inverse_covariance
            if vi is None:
                raise SingularCovariance(
                    "mahalanobis requires a fitted context; call fit_mahalanobis first"
                )
            vi = np.asarray(vi, dtype=np.float64)
            if vi.ndim != 2 or vi.shape[0] != vi.shape[1]:
                raise ValueError("inverse covariance must be a square matrix")
            if not np.allclose(vi, vi.T, rtol=1e-10, atol=1e-12):
                raise SingularCovariance("inverse covariance is not symmetric")
            try:
                np.linalg.cholesky(vi + vi.T)  # symmetrized PD check
            except np.linalg.LinAlgError:
                raise SingularCovariance(
                    "inverse covariance is not positive definite"
                ) from None
            vi = vi.copy()
            vi.setflags(write=False)
            object.__setattr__(self, "inverse_covariance", vi)
        elif self.inverse_covariance is not None:
            raise ValueError(f"metric {self.name!r} takes no covariance context")


def resolve_metric(metric: DistanceMetric | str) -> DistanceMetric:
    """Accept a metric name or an already-built DistanceMetric."""
    if isinstance(metric, DistanceMetric):
        return metric
    return DistanceMetric(str(metric))


# Rows of at most this many features are measured in numpy for the metrics
# of _NUMPY_METRICS.  numpy makes a few passes over the block per feature,
# scipy one, so numpy is slower per pair except at d=1; it wins by skipping
# the import (~0.5 s wall, ~0.7 s CPU).  For cdist blocks of 2**16 values
# (26x2500 and 13x5000) on a 2-vCPU x86-64 guest (numpy 2.4.6, scipy
# 1.17.1), numpy took 0.3-0.95x scipy's time at d=1, 1.1-2.3x at d=2,
# 1.5-2.4x at d=3, 1.7-3.2x at d=4, 2.0-4.3x at d=5-6, 3.2-4.7x at d=8 and
# 3.2-5.7x at d=16 over the three metrics.  Scaled to one pass over all
# pairs of DEFAULT_MAX_POINTS (15,000) points, that adds up to 0.2 s at
# d=2, 0.1-0.4 s at d=3, 0.2-0.5 s at d=4 and 0.8-1.3 s at d=8: up to d=3
# the worst case stays below the import it saves.
_NUMPY_MAX_DIM = 3
_NUMPY_METRICS = frozenset({"euclidean", "cityblock", "chebyshev"})


def _minkowski(
    xa: NDArray[np.float64],
    xb: NDArray[np.float64],
    metric: str,
    out: NDArray[np.float64],
    scratch: Scratch,
):
    """Write the ``metric`` distance from each row of ``xa`` to each row of
    ``xb`` into the (len(xa), len(xb)) array ``out``.

    Adds (a_k - b_k)**2, |a_k - b_k| or takes the running maximum of the
    latter one feature k at a time, in feature order, as scipy's loop does,
    so each value has scipy's bits.  Each term past the first is built in
    ``scratch``'s "term" buffer, as b_k - a_k: a copy of ``xb``'s column
    into every row, then one subtraction in place.  On most block shapes
    that is faster than the outer subtraction, and squared or taken
    absolute it has the same bits.
    """
    terms = scratch.take("term", out.size).reshape(out.shape) if xa.shape[1] > 1 else None
    for k in range(xa.shape[1]):
        term = terms if k else out
        np.copyto(term, xb[:, k])
        np.subtract(term, xa[:, k, None], out=term)
        if metric == "euclidean":
            np.multiply(term, term, out=term)
        else:
            np.abs(term, out=term)
        if k:
            (np.maximum if metric == "chebyshev" else np.add)(out, term, out=out)
    if metric == "euclidean":
        np.sqrt(out, out=out)


def _numpy_serves(points: NDArray[np.float64], metric: str) -> bool:
    return metric in _NUMPY_METRICS and points.shape[1] <= _NUMPY_MAX_DIM


@lru_cache(maxsize=64)
def _upper(m: int) -> NDArray[np.intp]:
    """The flat positions of an m x m matrix's strict upper triangle, in
    row-major order; read-only, built once per m."""
    positions = np.flatnonzero(np.triu(np.ones((m, m), dtype=bool), k=1))
    positions.setflags(write=False)
    return positions


def pdist(
    points: NDArray[np.float64],
    metric: str,
    out: NDArray[np.float64] | None = None,
    scratch: Scratch | None = None,
    **kwargs,
) -> NDArray[np.float64]:
    """``scipy.spatial.distance.pdist`` for one row block.

    The numpy path computes the block's square matrix in ``scratch`` and
    keeps its strict upper triangle in row-major order, which is the
    condensed order.
    """
    if not _numpy_serves(points, metric):
        from scipy.spatial.distance import pdist as scipy_pdist

        return scipy_pdist(points, metric=metric, out=out, **kwargs)
    scratch = Scratch() if scratch is None else scratch
    m = points.shape[0]
    square = scratch.take("square", m * m)
    _minkowski(points, points, metric, square.reshape(m, m), scratch)
    # every position is in range, so "clip" changes nothing; it spares the
    # copy that numpy makes of ``out`` under the default "raise"
    return np.take(square, _upper(m), out=out, mode="clip")


def cdist(
    xa: NDArray[np.float64],
    xb: NDArray[np.float64],
    metric: str,
    out: NDArray[np.float64] | None = None,
    scratch: Scratch | None = None,
    **kwargs,
) -> NDArray[np.float64]:
    """``scipy.spatial.distance.cdist``, computed in numpy where it serves,
    with its temporaries in ``scratch``."""
    if not _numpy_serves(xa, metric):
        from scipy.spatial.distance import cdist as scipy_cdist

        return scipy_cdist(xa, xb, metric=metric, out=out, **kwargs)
    if out is None:
        out = np.empty((xa.shape[0], xb.shape[0]), dtype=np.float64)
    _minkowski(xa, xb, metric, out, Scratch() if scratch is None else scratch)
    return out


def _scipy_kwargs(metric: DistanceMetric) -> dict:
    if metric.name == "mahalanobis":
        return {"metric": "mahalanobis", "VI": metric.inverse_covariance}
    return {"metric": metric.name}


def _check_vectors(points: NDArray[np.float64], metric: DistanceMetric, offset: int = 0):
    """Reject rows on which the metric is undefined or overflows.

    Correlation needs per-vector variance > 0; cosine needs norm > 0.  Both
    divide by the vectors' norms (centred, for correlation), so a row whose
    squared norm overflows float64 is refused too, though only when no row
    is undefined.  ``offset`` shifts reported indices when ``points`` is a
    slice.  Rows are read in blocks of at most ``_BLOCK_VALUES`` values, so
    no temporary grows with ``points``.
    """
    if metric.name not in _CLAMPED_METRICS:
        return
    overflows = None  # the first row whose squared norm overflows
    step = max(1, _BLOCK_VALUES // points.shape[1])
    for r0 in range(0, points.shape[0], step):
        rows = points[r0 : r0 + step]
        # constancy is read before centring: the mean of a constant row can
        # round ([0.1] * 3), which leaves every centred entry nonzero
        degenerate = rows[:, :1] if metric.name == "correlation" else 0.0
        bad = np.flatnonzero(np.all(rows == degenerate, axis=1))
        if bad.size:
            idx = int(bad[0]) + r0 + offset
            what = "constant" if metric.name == "correlation" else "zero"
            raise DegenerateVector(
                f"{metric.name} distance undefined for {what} vector at index {idx}", index=idx
            )
        with np.errstate(over="ignore", invalid="ignore"):
            if metric.name == "correlation":
                rows = rows - rows.mean(axis=1, keepdims=True)
            squares = np.einsum("ij,ij->i", rows, rows)
        bad = np.flatnonzero(~np.isfinite(squares))
        if overflows is None and bad.size:
            overflows = int(bad[0]) + r0 + offset
    if overflows is not None:
        raise DomainError(
            f"{metric.name} distance overflows float64 for the vector at index "
            f"{overflows}; rescale the features"
        )


def _check_finite(largest: float) -> None:
    """Refuse distances whose ``largest`` value, or bound, overflowed float64."""
    if not math.isfinite(largest):
        raise DomainError("distances between these points overflow float64; rescale the features")


def _as_points(points, name: str = "points") -> NDArray[np.float64]:
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[1] < 1:
        raise ValueError(f"{name} must be a 2-D array with at least one feature")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def distance(a, b, metric: DistanceMetric | str = "euclidean") -> float:
    """Distance between two feature vectors under the chosen metric.

    Symmetric and non-negative for all supported metrics; correlation and
    cosine are clamped to [0, 2].
    """
    m = resolve_metric(metric)
    av = _as_points(a, "a")
    bv = _as_points(b, "b")
    if av.shape != bv.shape or av.shape[0] != 1:
        raise ValueError("a and b must be single vectors of equal dimension")
    _check_vectors(av, m)
    _check_vectors(bv, m)
    value = float(_cross(av, bv, m)[0])
    _check_finite(value)
    return value


def condensed_index(n: int, i, j):
    """Index of pair (i, j), i < j, in the condensed vector for n points."""
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    return n * i - i * (i + 1) // 2 + (j - i - 1)


def _row_blocks(n: int, width: int | None = None) -> list[tuple[int, int]]:
    """The fixed row blocks ``(r0, r1)`` of n rows of ``width`` values each
    (n by default, as for the pairs among n points)."""
    width = n if width is None else width
    step = max(1, min(_BLOCK_ROWS, -(-n // _MIN_BLOCKS), _BLOCK_VALUES // max(width, 1)))
    return [(r, min(r + step, n)) for r in range(0, n, step)]


def _clamp(values: NDArray[np.float64], metric: DistanceMetric):
    if metric.name in _CLAMPED_METRICS:
        np.clip(values, 0.0, 2.0, out=values)


def _block(rows, rest, triangle: bool, metric: DistanceMetric) -> tuple:
    """One ``(size, fill)`` pair (see the module docstring): the distances
    among ``rows`` if ``triangle``, then those from ``rows`` to ``rest``."""
    kwargs = _scipy_kwargs(metric)
    m = rows.shape[0]
    among = m * (m - 1) // 2 if triangle else 0
    size = among + m * rest.shape[0]

    def fill(out, scratch):
        if among:
            pdist(rows, out=out[:among], scratch=scratch, **kwargs)
        if rest.shape[0]:
            cdist(rows, rest, out=out[among:].reshape(m, -1), scratch=scratch, **kwargs)
        _clamp(out, metric)

    return size, fill


def _walk(blocks: list, visit, workers: int) -> Iterator:
    """``visit(i, values, scratch)`` for each ``(size, fill)`` block i of
    ``blocks``, on ``workers`` threads; the results are yielded in block order.

    ``values`` is the block's ``size`` values, written by ``fill`` into the
    "values" buffer of ``scratch``, and ``visit``'s to overwrite; otherwise
    as ``_walk_tasks``.
    """
    tasks = [partial(_emit_block, size, fill) for size, fill in blocks]
    return (result for (result,) in _walk_tasks(tasks, visit, workers))


def _emit_block(size: int, fill, emit, scratch: Scratch) -> None:
    values = scratch.take("values", size)
    fill(values, scratch)
    emit(values)


def _walk_tasks(tasks: list, visit, workers: int) -> Iterator[list]:
    """``visit(i, values, scratch)`` for each run of values that task i of
    ``tasks`` emits, on ``workers`` threads; yields each task's list of
    results, in task order.

    ``task(emit, scratch)`` calls ``emit(values)`` for each of its runs (see
    ``_Pairs.tasks``).  ``scratch`` is the running thread's
    ``_threads.Scratch``; ``visit`` takes its own temporaries from it under
    names the task does not use, writes only its own part of any shared
    result, and overwrites ``values`` only where the task is a block's.
    Unchecked: callers that may overflow check what they read, and numpy
    need not warn.
    """

    def run(item, scratch):
        i, task = item
        results = []
        with np.errstate(over="ignore", invalid="ignore"):
            task(lambda values: results.append(visit(i, values, scratch)), scratch)
        return results

    return walk(run, list(enumerate(tasks)), workers)


def _condensed_blocks(pts: NDArray[np.float64], metric: DistanceMetric) -> list:
    """The pairwise distances among ``pts``, unchecked, one block per row
    block of ``_row_blocks(len(pts))``."""
    return [_block(pts[r0:r1], pts[r1:], True, metric) for r0, r1 in _row_blocks(pts.shape[0])]


def _cross_blocks(pa: NDArray[np.float64], pb: NDArray[np.float64], metric: DistanceMetric) -> list:
    """The distances from the rows of ``pa`` to those of ``pb``, unchecked, one
    block per row block of ``_row_blocks(len(pa), len(pb))``."""
    blocks = _row_blocks(pa.shape[0], pb.shape[0])
    return [_block(pa[r0:r1], pb, False, metric) for r0, r1 in blocks]


# Metrics whose computed distances keep the triangle inequality within the
# rounding that ``_slack`` bounds, so that pass 2 can skip pairs, each with
# the order of the vector norm it is of.
_TRIANGLE_METRICS = {"euclidean": 2, "cityblock": 1, "chebyshev": np.inf}

# Rows in one pass-2 group, at most: halving gives 33-64.  Smaller groups
# have smaller radii and skip more pairs, but each costs its pivot, bounds
# and runs.  For the DSI of 2x2500 moons (KS, one thread, 2-vCPU x86-64
# guest), groups of at most 32, 64 and 128 rows computed 16%, 20% and 29%
# of a full pass again, in 0.13-0.15 s alike.  A group's rows share the
# gather of its columns, so few rows cost wide data most, and the cap does
# not shrink with width: forced through groups on 1000x3072 integer pixels,
# where no pair can be skipped, 12-row groups ran 7-9% slower than the
# plain blocks and 50-row groups within 4%.
_GROUP_ROWS = 64


def _slack(width: int) -> tuple[float, float]:
    """``(relative, absolute)`` rounding slack of the pivot bounds of
    ``_Pairs.tasks``, for rows of ``width`` features under the metrics of
    ``_TRIANGLE_METRICS``.

    Let u = 2**-53, d the exact distance of a pair and d' the one the kernel
    computes, numpy's or scipy's, which may add its terms in any order, with
    or without fused multiply-adds.  Each difference of two features is
    rounded once, with relative error at most u (a subnormal one is exact).
    chebyshev takes abs and max, which are exact: |d' - d| <= u d.
    cityblock adds ``width`` terms of one sign: |d' - d| <= 2 width u d.
    euclidean rounds each square once more, and an underflowing square is
    off by at most 2**-1075; with the sum and the rounded root,
    |d' - d| <= (width + 4) u d + (1 + u) sqrt(width 2**-1074).  So for all
    three |d' - d| <= r d + a, with r = (width + 3) 2**-52 <= 1/8 and
    a = width 2**-536, and so d <= (d' + a) / (1 - r) and
    d >= (d' - a) / (1 + r).

    Let q be a group's pivot, i another row of the group, j a column,
    D_j = d'(q, j) and delta >= d'(i, q).  The triangle inequality,
    d(q, j) - d(i, q) <= d(i, j) <= d(q, j) + d(i, q), then gives, with
    (1 + r) / (1 - r) <= 1 + 3r and (1 - r) / (1 + r) >= 1 - 2r:

        d'(i, j) <= (1 + r) / (1 - r) (D_j + delta + 2a) + a
                 <= D_j + delta + 3r (D_j + delta) + 4a
        d'(i, j) >= (1 - r) / (1 + r) (D_j - a) - delta - 2a
                 >= D_j - delta - 3r (D_j + delta) - 4a.

    The caller rounds, in float64, w = max_j D_j + delta, s = w * 4r + 5a,
    (D_j - delta) - s and (D_j + delta) + s: at most five roundings on the
    way to each bound, each off by at most u (w + s), or by far less than a
    where it underflows.  s exceeds 3r (D_j + delta) + 4a by nearly r w + a,
    and r >= 8u, so that spare covers them: each computed d'(i, j) lies in
    [(D_j - delta) - s, (D_j + delta) + s] as rounded.
    """
    return (width + 3) * 2.0**-50, 5 * width * 2.0**-536


def _gather(points: NDArray[np.float64], rows, scratch: Scratch, name: str) -> NDArray[np.float64]:
    """``points[rows]`` in the buffer ``name`` of ``scratch``."""
    out = scratch.take(name, rows.size * points.shape[1]).reshape(rows.size, points.shape[1])
    return np.take(points, rows, axis=0, out=out, mode="clip")  # rows are in range


def _kd_groups(points: NDArray[np.float64], size: int) -> tuple:
    """An order of the rows of ``points``, its cut into groups
    ``(start, end)`` of at most ``size`` rows that are compact in space, each
    led by a central row, and each group's range in every coordinate.

    Level by level, each part is sorted, stably, on its widest coordinate,
    and each part of more than ``size`` rows is halved; the last level sorts
    the groups so, and each group's middle row, a median of its widest
    coordinate, moves to its front.  Each part's widest coordinate is read
    off at most ``_BLOCK_VALUES`` values, through a fixed stride of its rows
    where they hold more.  The order depends on the rows alone.
    """
    n, width = points.shape
    order, edges = np.arange(n), np.array([0, n])
    while True:
        starts, sizes = edges[:-1], np.diff(edges)
        spread = np.empty((starts.size, width))
        for k, (s, e) in enumerate(zip(starts.tolist(), edges[1:].tolist())):
            rows = points[order[s : e : -(-(e - s) * width // _BLOCK_VALUES)]]
            spread[k] = rows.max(axis=0) - rows.min(axis=0)
        axes = spread.argmax(axis=1)
        within = np.repeat(np.arange(starts.size), sizes)
        order = order[np.lexsort((points[order, axes[within]], within))]
        split = sizes > size
        if not split.any():
            break
        edges = np.sort(np.concatenate([edges, starts[split] + sizes[split] // 2]))
    middles = starts + sizes // 2
    order[starts], order[middles] = order[middles], order[starts]
    return order, list(zip(starts.tolist(), edges[1:].tolist())), spread


class _Blocks:
    """A source of values for the two-pass engines of ``stats``, as
    ``(size, fill)`` blocks; pass 1 reads ``blocks``, pass 2 ``tasks``.
    ``radius``, None here, is a typical pass-2 group's radius."""

    radius = None

    def __init__(self, blocks: list):
        self.blocks = blocks

    def tasks(self, reach=None) -> list:
        """Pass 2's tasks, as ``_Pairs.tasks``: here every block again."""
        return [partial(_emit_block, size, fill) for size, fill in self.blocks]


class _Rows:
    """A point set, and its pass-2 groups (see ``_kd_groups``), found once
    for all the sources that pair its rows."""

    def __init__(self, points: NDArray[np.float64]):
        self.points = points

    @cached_property
    def groups(self) -> tuple:
        return _kd_groups(self.points, _GROUP_ROWS)


class _Pairs(_Blocks):
    """The pairs among ``rows.points`` (``other`` None), as
    ``_condensed_blocks`` lays them out, or from each of them to each row of
    ``other``, as ``_cross_blocks`` does."""

    def __init__(self, rows: _Rows, metric: DistanceMetric, other=None):
        points = rows.points
        if other is None:
            super().__init__(_condensed_blocks(points, metric))
        else:
            super().__init__(_cross_blocks(points, other, metric))
        self.rows, self.points, self.metric, self.other = rows, points, metric, other

    @property
    def radius(self) -> float | None:
        """Half a median over the groups of the norm of their ranges in
        each coordinate, about a group's delta; None where no pair can be
        skipped."""
        norm = _TRIANGLE_METRICS.get(self.metric.name)
        if norm is None:
            return None
        extents = np.sort(np.linalg.norm(self.rows.groups[2], ord=norm, axis=1))
        return float(extents[extents.size // 2]) / 2

    def tasks(self, reach=None) -> list:
        """Pass 2's tasks: each ``task(emit, scratch)`` calls ``emit(values)``
        with runs of the source's distances, each pair in at most one run.

        Without ``reach``, or under a metric outside ``_TRIANGLE_METRICS``,
        the tasks are the blocks again.  Otherwise ``reach(lo, hi)`` says
        which intervals [lo, hi] can hold a wanted distance, and each task is
        one group of ``self.rows``.  The group's first row is its pivot q,
        whose distances D_j to all its columns are emitted whole; delta is
        the largest distance from q to the group's other rows (for a cross
        source, those rows are computed against q for it, outside the
        source's pairs).  Each other row i of the group then has d(i, j)
        within [D_j - delta - s, D_j + delta + s] (see ``_slack``), so only
        the columns whose interval ``reach`` accepts are computed.  Among
        one point set, a group's rows pair with the rest of their group and
        with every later group.
        """
        if reach is None or self.metric.name not in _TRIANGLE_METRICS:
            return super().tasks()
        order, groups, _ = self.rows.groups
        return [partial(self._group, order, s, e, reach) for s, e in groups]

    def _group(self, order, s: int, e: int, reach, emit, scratch: Scratch) -> None:
        points, kwargs, m = self.points, _scipy_kwargs(self.metric), e - s - 1
        pivot, rows = points[order[s]][None], _gather(points, order[s + 1 : e], scratch, "rows")
        cols = order[s + 1 :] if self.other is None else None
        n = self.other.shape[0] if cols is None else cols.size
        among = 0 if cols is None else m * (m - 1) // 2
        # one run: the pivot's distances, then, among one point set, those
        # among the group's other rows
        first = scratch.take("pivot", n + among)
        for _ in self._against(pivot, cols, scratch, first[:n]):
            pass
        if among:
            pdist(rows, out=first[n:], scratch=scratch, **kwargs)
        emit(first)
        near = first[:n]
        if not m:
            return
        if cols is None:
            delta = cdist(rows, pivot, scratch=scratch, **kwargs).max()
        else:
            delta, near, cols = near[:m].max(), near[m:], order[e:]
        if not near.size:
            return
        relative, absolute = _slack(points.shape[1])
        pad = (near.max() + delta) * relative + absolute
        hit = reach((near - delta) - pad, (near + delta) + pad)
        cols = np.flatnonzero(hit) if cols is None else cols[hit]
        for values in self._against(rows, cols, scratch):
            emit(values)

    def _against(self, rows, cols, scratch: Scratch, out=None) -> Iterator:
        """Yields the distances from each of ``rows`` to the columns ``cols``
        (positions among the source's columns; all of them if None), in runs
        of whole columns of at most ``_BLOCK_VALUES`` values, each written
        into ``out`` after the runs before it if given, and else into the
        "values" buffer of ``scratch``.  Gathered columns go to the kernel at
        most that many values at a time."""
        table = self.points if self.other is None else self.other
        n = table.shape[0] if cols is None else cols.size
        m, width = rows.shape
        run = max(1, _BLOCK_VALUES // m)
        step = run if cols is None else min(run, max(1, _BLOCK_VALUES // width))
        kwargs = _scipy_kwargs(self.metric)
        for r0 in range(0, n, run):
            r1 = min(r0 + run, n)
            values = scratch.take("values", m * (r1 - r0)) if out is None else out[m * r0 : m * r1]
            for c0 in range(r0, r1, step):
                c1 = min(c0 + step, r1)
                if cols is None:
                    part = table[c0:c1]
                else:
                    part = _gather(table, cols[c0:c1], scratch, "columns")
                block = values[m * (c0 - r0) : m * (c1 - r0)].reshape(m, c1 - c0)
                cdist(rows, part, out=block, scratch=scratch, **kwargs)
            yield values


def _class_pairs(points: NDArray[np.float64], groups, metric: DistanceMetric) -> list:
    """The pairs of ``points`` laid out by class, each pair in one block of
    one source: ``groups`` lists each class's rows, ascending.

    Returns ``(source, tag)`` pairs: a ``_Pairs`` among the rows of each
    class c, tagged ``(c,)``, then one between the rows of each two classes
    c < d, tagged ``(c, d)``.  A class whose rows are contiguous is a view
    of ``points``, any other a copy; its ``_Rows``, and so its pass-2
    groups, is shared by every source that pairs its rows.
    """
    sets = [
        points[rows[0] : rows[-1] + 1] if rows[-1] - rows[0] + 1 == rows.size else points[rows]
        for rows in groups
    ]
    classes = [_Rows(mine) for mine in sets]
    sources = [(_Pairs(mine, metric), (c,)) for c, mine in enumerate(classes)]
    sources += [
        (_Pairs(classes[c], metric, sets[d]), (c, d))
        for c in range(len(sets))
        for d in range(c + 1, len(sets))
    ]
    return sources


def _store(sources: list, workers: int) -> list[NDArray[np.float64]]:
    """The multisets fed by ``sources``, stored on ``workers`` threads.

    ``sources`` lists ``(source, feeds)`` as ``stats._binned_statistics``
    reads them; each multiset holds its sources' blocks' values in block
    order, and there is one multiset for each number up to the largest fed.
    A block fills its slice of the first multiset it feeds in place and is
    copied into the rest.  Unchecked: callers that may overflow check the
    result, and numpy need not warn.
    """
    slices, filled = [], [0] * (1 + max(max(feeds) for _, feeds in sources))
    for source, feeds in sources:
        for size, fill in source.blocks:
            slices.append((fill, [(f, filled[f], filled[f] + size) for f in feeds]))
            for f in feeds:
                filled[f] += size
    sets = [np.empty(size, dtype=np.float64) for size in filled]
    tasks = [(fill, [sets[f][start:end] for f, start, end in at]) for fill, at in slices]

    def fill_slices(task, scratch):
        fill, (first, *copies) = task
        with np.errstate(over="ignore", invalid="ignore"):
            fill(first, scratch)
        for copy in copies:
            copy[:] = first

    for _ in walk(fill_slices, tasks, workers):
        pass
    return sets


def _cross(
    pa: NDArray[np.float64], pb: NDArray[np.float64], metric: DistanceMetric
) -> NDArray[np.float64]:
    """All distances from the rows of ``pa`` to those of ``pb``, flat and
    row-major.  Unchecked: both must be finite 2-D float64 arrays on which
    ``metric`` is defined (see ``_check_vectors``)."""
    source = _Blocks(_cross_blocks(pa, pb, metric))
    (out,) = _store([(source, (0,))], 1)
    return out


def _diameter_bound(points: NDArray[np.float64], metric: DistanceMetric) -> float:
    """An upper bound on the distance between any two rows of ``points``.

    Correlation and cosine distances are at most 2.  The other metrics are
    norms of x - y, so no distance exceeds twice the largest distance from
    any centre.  The centre is the per-feature midrange, ``lo/2 + hi/2``,
    which cannot overflow, so neither can any x - centre; the largest
    distance from it is computed in numpy, a few rows at a time, and padded
    for rounding.  The DSI passes it to ``stats._binned_statistics``
    as the top of the range its bins span; a distance above it is still
    counted exactly.  Raises ``DomainError`` when a distance may overflow
    float64: euclidean and mahalanobis distances are roots of sums of
    squares, so there the bound's square must be finite too.
    """
    if metric.name in _CLAMPED_METRICS:
        return 2.0
    center = points.min(axis=0) / 2 + points.max(axis=0) / 2
    radius = 0.0
    step = max(1, _BLOCK_VALUES // points.shape[1])
    for r0 in range(0, points.shape[0], step):
        u = points[r0 : r0 + step] - center
        if metric.name == "cityblock":
            lengths = np.abs(u, out=u).sum(axis=1)
        elif metric.name == "chebyshev":
            lengths = np.abs(u, out=u).max(axis=1)
        else:
            w = u if metric.name == "euclidean" else u @ metric.inverse_covariance
            lengths = np.sqrt(np.maximum(np.einsum("ij,ij->i", w, u), 0.0))
        radius = max(radius, float(lengths.max()))
    bound = 2.0 * radius * (1.0 + 2.0**-20)
    _check_finite(bound * bound if metric.name in ("euclidean", "mahalanobis") else bound)
    return bound


def pairwise_condensed(
    points,
    metric: DistanceMetric | str = "euclidean",
    workers: int = 1,
) -> NDArray[np.float64]:
    """All pairwise distances among ``points`` as a condensed vector.

    Returns a float64 vector of length n*(n-1)//2 holding the strict upper
    triangle of the distance matrix (see ``condensed_index``).  ``workers``
    only controls thread-level parallelism over fixed row blocks; the
    numeric result is identical for every worker count.
    """
    m = resolve_metric(metric)
    pts = _as_points(points)
    n = pts.shape[0]
    if n < 2:
        raise DegenerateClass("pairwise distances need at least 2 points")
    _check_vectors(pts, m)
    out = np.empty(n * (n - 1) // 2, dtype=np.float64)
    rows = _row_blocks(n)

    def unpack(b, values, scratch):
        (r0, r1), t0 = rows[b], 0
        rect = values[(r1 - r0) * (r1 - r0 - 1) // 2 :].reshape(r1 - r0, n - r1)
        for i in range(r0, r1):
            # row i's pairs: its row of the block's triangle, then of the rectangle
            start, within = n * i - i * (i + 1) // 2, r1 - i - 1
            out[start : start + within] = values[t0 : t0 + within]
            out[start + within : start + n - i - 1] = rect[i - r0]
            t0 += within

    for _ in _walk(_condensed_blocks(pts, m), unpack, workers):
        pass
    _check_finite(out.max())
    return out


def pairwise_cross(
    points_a,
    points_b,
    metric: DistanceMetric | str = "euclidean",
) -> NDArray[np.float64]:
    """Distance matrix between two point sets (rows of a x rows of b)."""
    m = resolve_metric(metric)
    pa = _as_points(points_a, "points_a")
    pb = _as_points(points_b, "points_b")
    if pa.shape[1] != pb.shape[1]:
        raise ValueError("point sets must share the feature dimension")
    _check_vectors(pa, m)
    _check_vectors(pb, m, offset=pa.shape[0])
    out = _cross(pa, pb, m)
    _check_finite(out.max(initial=0.0))
    return out.reshape(pa.shape[0], pb.shape[0])


@dataclass(frozen=True)
class DistanceSet:
    """A multiset of distances with its provenance.

    ``kind`` is "icd" (within one class) or "bcd" (one class against the
    pooled rest); ``label`` names the class when known.  The cardinality is
    fixed by construction: m*(m-1)/2 for ICD over m points, m*r for BCD.
    """

    values: NDArray[np.float64]
    kind: str
    label: int | None = None

    def __post_init__(self):
        if self.kind not in ("icd", "bcd"):
            raise ValueError("kind must be 'icd' or 'bcd'")
        vals = np.asarray(self.values, dtype=np.float64).ravel()
        if vals.size == 0:
            raise ValueError("distance set is empty")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0.0):
            raise ValueError("distances must be finite and non-negative")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def _adopt(cls, values: NDArray[np.float64], kind: str, label: int | None) -> "DistanceSet":
        """Wrap a fresh float64 vector from the distance kernels without a copy.

        The kernels already yield finite, non-negative values, so the checks
        and the copy of ``__post_init__`` are skipped; ``values`` is made
        read-only in place, and no caller may keep a writable view of it.
        """
        values.setflags(write=False)
        dset = object.__new__(cls)
        object.__setattr__(dset, "values", values)
        object.__setattr__(dset, "kind", kind)
        object.__setattr__(dset, "label", label)
        return dset

    @property
    def cardinality(self) -> int:
        return int(self.values.size)


def icd_set(
    points,
    metric: DistanceMetric | str = "euclidean",
    label: int | None = None,
    workers: int = 1,
) -> DistanceSet:
    """Intra-class distances: all m*(m-1)/2 pairwise distances in a class."""
    pts = _as_points(points)
    if pts.shape[0] < 2:
        raise DegenerateClass(
            "ICD needs at least 2 points in the class", label=label
        )
    return DistanceSet._adopt(pairwise_condensed(pts, metric, workers=workers), "icd", label)


def bcd_set(
    points_a,
    points_b,
    metric: DistanceMetric | str = "euclidean",
    label: int | None = None,
) -> DistanceSet:
    """Between-class distances: all m*r cross distances from a to b."""
    pa = _as_points(points_a, "points_a")
    pb = _as_points(points_b, "points_b")
    if pa.shape[0] < 1 or pb.shape[0] < 1:
        raise DegenerateClass("BCD needs at least 1 point on each side", label=label)
    return DistanceSet._adopt(pairwise_cross(pa, pb, metric).ravel(), "bcd", label)


def fit_mahalanobis(points, ridge: float | None = None) -> DistanceMetric:
    """Fit a mahalanobis metric on pooled data (labels ignored).

    Estimates the sample covariance over all points, adds a ridge
    ``lambda * I`` (default ``1e-6 * trace(cov)/dim``, floored at 1e-12 for
    an all-zero covariance), and inverts.  Raises ``SingularCovariance``
    when the regularized matrix still is not positive definite, which
    happens when dimension outruns sample size by too much for the ridge
    to matter numerically.
    """
    from .dataset import Dataset  # late import; dataset depends on errors only

    if isinstance(points, Dataset):
        points = points.points
    pts = _as_points(points)
    n, dim = pts.shape
    if n < 2:
        raise DegenerateClass("covariance needs at least 2 points")
    cov = np.atleast_2d(np.cov(pts, rowvar=False, ddof=1))
    if ridge is None:
        ridge = 1e-6 * float(np.trace(cov)) / dim
        if ridge <= 0.0:
            ridge = 1e-12
    elif ridge < 0.0:
        raise ValueError("ridge must be non-negative")
    reg = cov + ridge * np.eye(dim)
    eigvals = np.linalg.eigvalsh(reg)
    floor = max(eigvals.max(), 0.0) * dim * np.finfo(np.float64).eps
    if eigvals.min() <= floor:
        raise SingularCovariance(
            "covariance is singular after regularization; increase ridge "
            f"(smallest eigenvalue {eigvals.min():.3e})"
        )
    inv = np.linalg.inv(reg)
    inv = (inv + inv.T) / 2.0
    return DistanceMetric(name="mahalanobis", inverse_covariance=inv)
