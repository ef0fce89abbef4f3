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
thread of a call), so a walk over the blocks allocates nothing per block;
callers give each block its slice of their own result, or a scratch
buffer.  ``_store``, behind ``_cross`` and ``dsi.class_distance_sets``,
fills each block into its slice of every multiset it feeds.  The blocks
depend only on the row counts, never on the worker count, so every entry
is produced by the same library call regardless of parallelism and
results are bit-identical for any ``workers`` value.
pdist and cdist give the same bits for the same pair, whichever block
computes it and in either order.  Only ``pairwise_condensed`` and
``icd_set`` return the condensed form, the strict upper triangle row by
row (see ``condensed_index``).  Every public function that returns
distances raises ``DomainError`` when one overflows float64, as the DSI
does, and prints no floating-point warning on the way.

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
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from ._threads import Scratch, Threads
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
# per-thread buffers, ~8k faults, most of them from imports.  Fewer than _BLOCK_ROWS * _MIN_BLOCKS rows are still cut into
# _MIN_BLOCKS blocks, so threads can share a small class.  Blocks depend
# only on the row counts, never on the workers.
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
# the import (~0.5 s wall, ~0.7 s CPU).  For one 128x5000 cdist block on a
# 2-vCPU x86-64 guest (numpy 2.4.6, scipy 1.17.1), numpy took 0.4-0.6x
# scipy's time at d=1, 1.9-2.6x at d=2, 2.4-3.3x at d=3, 2.8-3.9x at d=4,
# 2.8-5.1x at d=5-8 and 4.3-5.3x at d=16 over the three metrics.  Scaled to
# one pass over all pairs of DEFAULT_MAX_POINTS (15,000) points, that adds
# 0.3-0.5 s at d=2, 0.5-0.8 s at d=3, 0.8-1.1 s at d=4 and 1.5-2.8 s at d=8:
# up to d=3 the worst case stays near the import it saves.
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
    ``scratch``'s "term" buffer.
    """
    terms = scratch.take("term", out.size).reshape(out.shape) if xa.shape[1] > 1 else None
    for k in range(xa.shape[1]):
        term = terms if k else out
        np.subtract(xa[:, k, None], xb[:, k], out=term)
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
    square = scratch.take("square", m * m).reshape(m, m)
    _minkowski(points, points, metric, square, scratch)
    return np.compress(np.triu(np.ones((m, m), dtype=bool), k=1).ravel(), square, out=out)


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
    squared norm overflows float64 is refused too.  ``offset`` shifts
    reported indices when ``points`` is a slice.
    """
    if metric.name not in _CLAMPED_METRICS:
        return
    with np.errstate(over="ignore", invalid="ignore"):
        if metric.name == "correlation":
            points = points - points.mean(axis=1, keepdims=True)
        squares = np.einsum("ij,ij->i", points, points)
    bad = np.flatnonzero(~np.any(points != 0.0, axis=1))
    if bad.size:
        idx = int(bad[0]) + offset
        what = "constant" if metric.name == "correlation" else "zero"
        raise DegenerateVector(
            f"{metric.name} distance undefined for {what} vector at index {idx}", index=idx
        )
    bad = np.flatnonzero(~np.isfinite(squares))
    if bad.size:
        raise DomainError(
            f"{metric.name} distance overflows float64 for the vector at index "
            f"{int(bad[0]) + offset}; rescale the features"
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


def _filled(size: int, fill, scratch: Scratch) -> NDArray[np.float64]:
    """A block's values, written by ``fill`` into the "values" buffer of ``scratch``."""
    values = scratch.take("values", size)
    fill(values, scratch)
    return values


def _condensed_blocks(pts: NDArray[np.float64], metric: DistanceMetric) -> list:
    """The pairwise distances among ``pts``, unchecked, one block per row
    block of ``_row_blocks(len(pts))``."""
    return [_block(pts[r0:r1], pts[r1:], True, metric) for r0, r1 in _row_blocks(pts.shape[0])]


def _cross_blocks(pa: NDArray[np.float64], pb: NDArray[np.float64], metric: DistanceMetric) -> list:
    """The distances from the rows of ``pa`` to those of ``pb``, unchecked, one
    block per row block of ``_row_blocks(len(pa), len(pb))``."""
    blocks = _row_blocks(pa.shape[0], pb.shape[0])
    return [_block(pa[r0:r1], pb, False, metric) for r0, r1 in blocks]


def _store(sources: list, sizes: list[int], workers: int) -> list[NDArray[np.float64]]:
    """The multisets fed by ``sources``, ``sizes[f]`` values in multiset f,
    stored on ``workers`` threads.

    ``sources`` lists ``(blocks, feeds)`` as ``stats._binned_statistics``
    reads them; each multiset holds its blocks' values in block order.  A
    block fills its slice of the first multiset it feeds in place and is
    copied into the rest.  Unchecked: callers that may overflow check the
    result, and numpy need not warn.
    """
    sets = [np.empty(size, dtype=np.float64) for size in sizes]
    tasks, filled = [], [0] * len(sets)
    for blocks, feeds in sources:
        for size, fill in blocks:
            tasks.append((fill, [sets[f][filled[f] : filled[f] + size] for f in feeds]))
            for f in feeds:
                filled[f] += size

    def fill_slices(task, scratch):
        fill, (first, *copies) = task
        with np.errstate(over="ignore", invalid="ignore"):
            fill(first, scratch)
        for copy in copies:
            copy[:] = first

    with Threads(workers) as threads:
        for _ in threads.map(fill_slices, tasks):
            pass
    return sets


def _cross(
    pa: NDArray[np.float64], pb: NDArray[np.float64], metric: DistanceMetric
) -> NDArray[np.float64]:
    """All distances from the rows of ``pa`` to those of ``pb``, flat and
    row-major.  Unchecked: both must be finite 2-D float64 arrays on which
    ``metric`` is defined (see ``_check_vectors``)."""
    (out,) = _store([(_cross_blocks(pa, pb, metric), (0,))], [pa.shape[0] * pb.shape[0]], 1)
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

    def unpack(task, scratch):
        (r0, r1), (size, fill) = task
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            values, t0 = _filled(size, fill, scratch), 0
        rect = values[(r1 - r0) * (r1 - r0 - 1) // 2 :].reshape(r1 - r0, n - r1)
        for i in range(r0, r1):
            # row i's pairs: its row of the block's triangle, then of the rectangle
            start, within = n * i - i * (i + 1) // 2, r1 - i - 1
            out[start : start + within] = values[t0 : t0 + within]
            out[start + within : start + n - i - 1] = rect[i - r0]
            t0 += within

    tasks = list(zip(_row_blocks(n), _condensed_blocks(pts, m)))
    with Threads(workers) as threads:
        for _ in threads.map(unpack, tasks):
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
