"""Classical data-complexity measures for labeled datasets.

All eight measures map a dataset to [0, 1], oriented so that larger means
harder (more class overlap):

F1        1 / (1 + max_f r_f) where r_f is feature f's ratio of
          between-class to within-class scatter
N1        fraction of points incident to a class-crossing edge of the
          euclidean minimum spanning tree
N2        r / (1 + r) where r is the sum of nearest same-class distances
          over the sum of nearest other-class distances
N3        leave-one-out 1-NN error rate
N4        1-NN error on synthetic points interpolated between same-class
          pairs, classified against the original data
T1        fraction of hyperspheres that survive absorption (a sphere grows
          until it would touch another class; spheres fully contained in a
          retained sphere are absorbed)
LSC       1 - (mean local-set size)/n, the local set of x being all
          same-class points strictly closer than x's nearest enemy
Density   1 - fraction of same-class pairs closer than the 0.15 quantile
          of all pairwise distances

Distances are euclidean throughout.  N1 builds the spanning tree with
Prim's algorithm over the (d, i, j) total order on edges (length, then
the endpoint index pair with i < j), under which the tree is unique, so
N1 is deterministic; N3 breaks nearest-neighbor ties by the lower row
index, and coincident points with different labels always count as
errors.

``compute_measures`` computes the euclidean distances once per dataset and
shares them, read-only, among N1, N2, N3, T1, LSC and Density; a measure
called on its own computes them itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import NDArray
from scipy.spatial.distance import cdist, squareform

from .dataset import Dataset, partition
from .distances import pairwise_condensed
from .errors import DegenerateClass, DomainError

__all__ = [
    "MEASURE_CODES",
    "MeasureResult",
    "compute_measures",
    "f1",
    "n1",
    "n2",
    "n3",
    "n4",
    "t1",
    "lsc",
    "density",
]

MEASURE_CODES = ("F1", "N1", "N2", "N3", "N4", "T1", "LSC", "Density")

DENSITY_QUANTILE = 0.15


@dataclass(frozen=True)
class MeasureResult:
    """A complexity measure's value with its parameters."""

    code: str
    value: float
    params: dict

    def __post_init__(self):
        if self.code not in MEASURE_CODES:
            raise ValueError(f"unknown measure code {self.code!r}")
        v = float(self.value)
        if not np.isfinite(v) or not 0.0 <= v <= 1.0:
            raise ValueError(f"{self.code} value {v!r} outside [0, 1]")
        object.__setattr__(self, "value", v)
        object.__setattr__(self, "params", dict(self.params))


def _validate(ds: Dataset, need_class_pairs: bool = False):
    part = partition(ds)  # raises on < 2 classes
    if need_class_pairs:
        for label, idx in part.groups.items():
            if idx.size < 2:
                raise DegenerateClass(
                    f"class {label} has {idx.size} point(s); need at least 2",
                    label=label,
                )
    return part


def _read_only(a: NDArray) -> NDArray:
    a.setflags(write=False)
    return a


def _nearest(masked: NDArray[np.float64]) -> tuple[NDArray[np.int64], NDArray[np.float64]]:
    """Per row: column of the smallest entry (lowest on ties) and its value."""
    idx = masked.argmin(axis=1)
    return _read_only(idx), _read_only(masked[np.arange(idx.size), idx])


@dataclass(frozen=True)
class _DistanceContext(Dataset):
    """A dataset carrying its euclidean distances, computed once on first use.

    Every array is read-only, since the measures share them.
    """

    workers: int = 1

    @cached_property
    def condensed(self) -> NDArray[np.float64]:
        return _read_only(pairwise_condensed(self.points, "euclidean", workers=self.workers))

    @cached_property
    def square(self) -> NDArray[np.float64]:
        return _read_only(squareform(self.condensed))

    @cached_property
    def same(self) -> NDArray[np.bool_]:
        """same[i, j]: points i and j share a class (the diagonal included)."""
        return _read_only(self.labels[:, None] == self.labels[None, :])

    @cached_property
    def enemy(self) -> tuple[NDArray[np.int64], NDArray[np.float64]]:
        """Each point's nearest other-class point and the distance to it."""
        return _nearest(np.where(self.same, np.inf, self.square))

    @cached_property
    def friend(self) -> tuple[NDArray[np.int64], NDArray[np.float64]]:
        """Each point's nearest other same-class point and the distance to
        it; the distance is inf for a singleton class."""
        masked = np.where(self.same, self.square, np.inf)
        np.fill_diagonal(masked, np.inf)
        return _nearest(masked)


def _context(ds: Dataset, workers: int) -> _DistanceContext:
    """The distances shared by ``compute_measures``, or fresh ones for a
    measure called on its own."""
    if isinstance(ds, _DistanceContext):
        return ds
    return _DistanceContext(points=ds.points, labels=ds.labels, workers=workers)


def f1(ds: Dataset) -> MeasureResult:
    """Maximum Fisher discriminant ratio, inverted onto [0, 1].

    r_f = sum_c n_c (mu_cf - mu_f)^2 / sum_c sum_{x in c} (x_f - mu_cf)^2;
    F1 = 1 / (1 + max_f r_f).  A feature that separates the classes
    perfectly has infinite ratio and F1 = 0; no feature discriminating at
    all gives F1 = 1.
    """
    part = _validate(ds)
    X = ds.points
    mu = X.mean(axis=0)
    between = np.zeros(ds.dim)
    within = np.zeros(ds.dim)
    for idx in part.groups.values():
        block = X[idx]
        mu_c = block.mean(axis=0)
        between += idx.size * (mu_c - mu) ** 2
        within += ((block - mu_c) ** 2).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(
            within > 0.0, between / within, np.where(between > 0.0, np.inf, 0.0)
        )
    value = float(1.0 / (1.0 + ratio.max()))
    return MeasureResult(code="F1", value=value, params={})


def _mst_edges(D: NDArray[np.float64]) -> NDArray[np.int64]:
    """Minimum spanning tree of the distance matrix ``D``, as (i, j) rows
    with i < j, by Prim's algorithm in O(n^2).

    Edges are ordered by (d, i, j): length first, then the endpoint index
    pair lexicographically.  That total order pins down a unique spanning
    tree for any input, so N1 does not depend on library internals or
    memory layout.
    """
    n = D.shape[0]
    outside = np.ones(n, dtype=bool)
    # each outside vertex's least edge into the tree: length and endpoints
    best = np.full(n, np.inf)
    lo = np.zeros(n, dtype=np.int64)
    hi = np.zeros(n, dtype=np.int64)
    edges = np.empty((n - 1, 2), dtype=np.int64)
    u = 0
    for k in range(n - 1):
        outside[u] = False
        best[u] = np.inf
        d = D[u]
        better = outside & (d < best)
        tied = np.flatnonzero(outside & (d == best))
        if tied.size:
            a, b = np.minimum(tied, u), np.maximum(tied, u)
            better[tied[(a < lo[tied]) | ((a == lo[tied]) & (b < hi[tied]))]] = True
        w = np.flatnonzero(better)
        best[w] = d[w]
        lo[w] = np.minimum(w, u)
        hi[w] = np.maximum(w, u)
        cand = np.flatnonzero(best == best.min())
        if cand.size > 1:
            cand = cand[np.lexsort((hi[cand], lo[cand]))]
        u = cand[0]
        edges[k] = lo[u], hi[u]
    return edges


def n1(ds: Dataset, workers: int = 1) -> MeasureResult:
    """Fraction of points touching a class-crossing MST edge."""
    _validate(ds)
    edges = _mst_edges(_context(ds, workers).square)
    labels = ds.labels
    crossing = edges[labels[edges[:, 0]] != labels[edges[:, 1]]]
    return MeasureResult(code="N1", value=np.unique(crossing).size / ds.n, params={})


def n2(ds: Dataset, workers: int = 1) -> MeasureResult:
    """Ratio of intra-class to inter-class nearest-neighbor distances.

    r = sum_i d(x_i, nearest same class) / sum_i d(x_i, nearest other
    class); N2 = r / (1 + r).  Compact, well-separated classes give small
    values.
    """
    _validate(ds, need_class_pairs=True)
    ctx = _context(ds, workers)
    intra = float(ctx.friend[1].sum())
    inter = float(ctx.enemy[1].sum())
    if inter == 0.0:
        # every point coincides with an enemy; maximal overlap unless the
        # intra distances all vanish too (r is 0/0, taken as 0)
        value = 1.0 if intra > 0.0 else 0.0
    else:
        r = intra / inter
        value = r / (1.0 + r)
    return MeasureResult(code="N2", value=value, params={})


def n3(ds: Dataset, workers: int = 1) -> MeasureResult:
    """Leave-one-out 1-NN error rate.

    Nearest-neighbor ties go to the lower row index; a point coinciding
    with a different-label point is always an error (the tie is
    irresolvable in feature space).
    """
    _validate(ds)
    ctx = _context(ds, workers)
    friend, d_friend = ctx.friend
    enemy, d_enemy = ctx.enemy
    # the nearest neighbor is the enemy when it is closer, or equally close
    # with the lower index
    errors = (d_enemy < d_friend) | ((d_enemy == d_friend) & (enemy < friend))
    value = float(np.mean(errors | (d_enemy == 0.0)))
    return MeasureResult(code="N3", value=value, params={})


def n4(
    ds: Dataset,
    n_synthetic: int | None = None,
    seed: int = 0,
    workers: int = 1,
) -> MeasureResult:
    """1-NN error on same-class interpolants.

    Draws ``n_synthetic`` points (default: n), each uniform on the segment
    between two distinct points of a random class, labels it with that
    class, and classifies it by 1-NN against the original data.  Separable
    classes with convex regions give errors near 0.
    """
    part = _validate(ds, need_class_pairs=True)
    n_syn = ds.n if n_synthetic is None else int(n_synthetic)
    if n_syn < 1:
        raise DomainError(f"n_synthetic must be >= 1, got {n_syn}")
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    class_labels = sorted(part.groups)
    X = ds.points
    synth = np.empty((n_syn, ds.dim))
    synth_labels = np.empty(n_syn, dtype=np.int64)
    for k in range(n_syn):
        c = class_labels[int(rng.integers(len(class_labels)))]
        members = part.groups[c]
        a, b = rng.choice(members, size=2, replace=False)
        t = rng.random()
        synth[k] = X[a] + t * (X[b] - X[a])
        synth_labels[k] = c
    nn = cdist(synth, X).argmin(axis=1)
    value = float(np.mean(ds.labels[nn] != synth_labels))
    return MeasureResult(
        code="N4", value=value, params={"n_synthetic": n_syn, "seed": seed}
    )


def _touching_radii(
    enemy: NDArray[np.int64], d_enemy: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Per-point sphere radii that stop at the opposing class.

    Mutual nearest enemies split their gap (r = d/2); otherwise a point's
    sphere extends to its nearest enemy minus that enemy's own radius, so
    spheres of opposing classes touch instead of overlapping.  Resolution
    follows the nearest-enemy chain, which has strictly decreasing enemy
    distances except on ties, where the gap is split as in the mutual
    case.
    """
    n = len(enemy)
    radii = np.full(n, -1.0)
    for start in range(n):
        if radii[start] >= 0.0:
            continue
        chain = [start]
        seen = {start}
        while True:
            i = chain[-1]
            j = int(enemy[i])
            if radii[j] >= 0.0:
                break
            if int(enemy[j]) == i or j in seen:  # mutual pair or tie cycle
                radii[j] = d_enemy[j] / 2.0
                break
            chain.append(j)
            seen.add(j)
        for i in reversed(chain):
            if radii[i] < 0.0:
                radii[i] = d_enemy[i] - radii[int(enemy[i])]
    return radii


def t1(ds: Dataset, workers: int = 1) -> MeasureResult:
    """Fraction of hyperspheres retained after absorbing redundant ones.

    Each point gets a sphere with the touching radius (see
    ``_touching_radii``); a sphere whose covered points (d <= r) are a
    subset of another sphere's coverage is absorbed, ties going to the
    lower index.  Compact single-region classes collapse to a few spheres;
    interleaved classes keep almost one sphere per point.
    """
    _validate(ds)
    ctx = _context(ds, workers)
    D = ctx.square
    r = _touching_radii(*ctx.enemy)
    n = ds.n
    cover = (D <= r[:, None]).astype(np.float32)
    # uncovered[i, j] = how many points sphere i covers that j does not
    uncovered = cover @ (1.0 - cover.T)
    subset = uncovered < 0.5
    np.fill_diagonal(subset, False)
    size = cover.sum(axis=1)
    proper = subset & (size[:, None] < size[None, :])
    equal_cover = subset & subset.T
    lower = np.arange(n)[None, :] < np.arange(n)[:, None]
    absorbed = (proper | (equal_cover & lower)).any(axis=1)
    value = float(np.mean(~absorbed))
    return MeasureResult(code="T1", value=value, params={})


def lsc(ds: Dataset, workers: int = 1) -> MeasureResult:
    """Local-set average cardinality, inverted onto [0, 1).

    The local set of x is every same-class point strictly closer to x than
    x's nearest enemy, x itself included; LSC = 1 - sum |LS| / n^2.  Large
    local sets (close to the whole class) mean simple structure.
    """
    _validate(ds)
    ctx = _context(ds, workers)
    # the diagonal counts x itself
    counts = (ctx.same & (ctx.square < ctx.enemy[1][:, None])).sum(axis=1)
    value = float(1.0 - counts.sum() / (ds.n**2))
    return MeasureResult(code="LSC", value=value, params={})


def density(
    ds: Dataset, quantile: float = DENSITY_QUANTILE, workers: int = 1
) -> MeasureResult:
    """Sparseness of the same-class epsilon-neighborhood graph.

    Connect every pair closer than or equal to the ``quantile`` cut of all
    pairwise distances, delete class-crossing edges, and report
    1 - 2|E| / (n (n-1)).  Dense within-class neighborhoods give low
    values.  Unlike the other measures this one is defined for a single
    class too (the graph simply keeps all its edges).
    """
    if ds.n < 2:
        raise DegenerateClass("density needs at least 2 points")
    if not 0.0 < quantile < 1.0:
        raise DomainError(f"quantile must be in (0, 1), got {quantile}")
    ctx = _context(ds, workers)
    cut = np.quantile(ctx.condensed, quantile)
    # the square matrix holds each pair twice and each point once with
    # itself, at distance 0 <= cut
    edges = (int(np.count_nonzero(ctx.same & (ctx.square <= cut))) - ds.n) // 2
    value = 1.0 - edges / ctx.condensed.size
    return MeasureResult(code="Density", value=value, params={"quantile": quantile})


def compute_measures(
    ds: Dataset,
    codes=None,
    n4_synthetic: int | None = None,
    seed: int = 0,
    density_quantile: float = DENSITY_QUANTILE,
    workers: int = 1,
) -> list[MeasureResult]:
    """Compute several measures in the order given (default: all eight).

    The euclidean distances are computed once and shared by the measures.
    """
    wanted = list(MEASURE_CODES) if codes is None else list(codes)
    unknown = [c for c in wanted if c not in MEASURE_CODES]
    if unknown:
        raise ValueError(
            f"unknown measure codes {unknown}; expected some of {', '.join(MEASURE_CODES)}"
        )
    ds = _context(ds, workers)
    fns = {
        "F1": lambda: f1(ds),
        "N1": lambda: n1(ds, workers=workers),
        "N2": lambda: n2(ds, workers=workers),
        "N3": lambda: n3(ds, workers=workers),
        "N4": lambda: n4(ds, n_synthetic=n4_synthetic, seed=seed, workers=workers),
        "T1": lambda: t1(ds, workers=workers),
        "LSC": lambda: lsc(ds, workers=workers),
        "Density": lambda: density(ds, quantile=density_quantile, workers=workers),
    }
    return [fns[c]() for c in wanted]
