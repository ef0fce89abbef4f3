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

No measure holds an n x n array of distances.  Every distance is written
by the kernel (``distances``) into a per-thread scratch buffer, one fixed
row block (``distances._row_blocks``, at most ``_BLOCK_VALUES`` values) at a
time, and read there.  Every pass over blocks is a ``distances._walk`` on
the context's ``workers`` threads; ``compute_measures`` gives its context
``workers``, and a measure called on its own walks on one thread:

* One walk over the blocks of every point against every point finds each
  point's nearest enemy and nearest friend and counts its local set (N2,
  N3, T1, LSC).  ``compute_measures`` runs it once and shares the result.
* T1 walks the blocks again for its covers, kept as one bit per point:
  n**2 / 8 bytes, the largest array of any measure.  Its absorption loop
  takes each sphere's candidates from its own cover bits.
* N1's Prim computes each vertex's distances when it joins the tree, to
  the vertices still outside it, so each pair is computed once.  It is the
  one reader outside ``_walk``: one row at a time, on one thread.
* Density reads its pairs through ``stats._quantile``'s binned two-pass
  order statistic, in the DSI's own layout (``distances._class_pairs``),
  the same-class pairs as one multiset and the rest as another: each pair
  once in the first pass, the DSI's, and in the second at most once, only
  where its distance can reach the bins of the cut; the same passes count
  the same-class pairs up to the cut.
* N4 classifies its synthetic points block by block.

The kernel computes each distance with the same operations in any block
and either order of the pair, so every value is the same for any
``workers`` and any walk.

Every measure first refuses points whose distances may overflow float64,
with the DSI's own check (``distances._diameter_bound``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from ._threads import Scratch, check_workers
from .dataset import Dataset, _pair_partition, partition
from .distances import (
    DistanceMetric,
    _block,
    _class_pairs,
    _cross_blocks,
    _diameter_bound,
    _row_blocks,
    _walk,
)
from .errors import DegenerateClass, DomainError
from .generators import _philox
from .stats import _quantile

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

_EUCLIDEAN = DistanceMetric("euclidean")


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


def _read_only(a: NDArray) -> NDArray:
    a.setflags(write=False)
    return a


def _scratch_rows(scratch: Scratch, name: str, rows: int, width: int, dtype) -> NDArray:
    """``scratch``'s buffer ``name`` as a (rows, width) array."""
    return scratch.take(name, rows * width, dtype).reshape(rows, width)


def _nearest(masked: NDArray[np.float64]) -> tuple[NDArray[np.int64], NDArray[np.float64]]:
    """Per row: column of the smallest entry (lowest on ties) and its value."""
    idx = masked.argmin(axis=1)
    return idx, masked[np.arange(idx.size), idx]


class _Neighbours(NamedTuple):
    """Per point: the nearest other-class point and the distance to it, the
    nearest other same-class point and the distance to it (inf for a
    singleton class), and the size of the local set (LSC)."""

    enemy: NDArray[np.int64]
    d_enemy: NDArray[np.float64]
    friend: NDArray[np.int64]
    d_friend: NDArray[np.float64]
    local: NDArray[np.int64]


@dataclass(frozen=True)
class _DistanceContext(Dataset):
    """A dataset with the distance walks its measures share.

    Every array it holds is read-only, since the measures share them.
    """

    workers: int = 1

    @cached_property
    def bound(self) -> float:
        """A bound on every distance; refuses points whose distances may
        overflow float64 (``DomainError``)."""
        return _diameter_bound(self.points, _EUCLIDEAN)

    def walk(self, visit) -> None:
        """Call ``visit(r0, r1, rows, scratch)`` for each fixed row block of the
        distances from every point to every point, through ``distances._walk``
        on ``workers`` threads.

        ``rows`` is the (r1 - r0, n) block of distances from points r0..r1,
        in the "values" buffer of ``scratch``, under ``_walk``'s terms.
        """
        n = self.n
        rows = _row_blocks(n)

        def run(block, values, scratch):
            r0, r1 = rows[block]
            visit(r0, r1, values.reshape(r1 - r0, n), scratch)

        for _ in _walk(_cross_blocks(self.points, self.points, _EUCLIDEAN), run, self.workers):
            pass

    @cached_property
    def neighbours(self) -> _Neighbours:
        """Nearest enemies, nearest friends and local sets, in one walk."""
        found = _Neighbours(
            *(np.empty(self.n, dtype=t) for t in (np.int64, float, np.int64, float, np.int64))
        )

        def visit(r0, r1, rows, scratch):
            same = _scratch_rows(scratch, "same", r1 - r0, self.n, bool)
            np.equal(self.labels[r0:r1, None], self.labels, out=same)
            friends = _scratch_rows(scratch, "friends", r1 - r0, self.n, float)
            np.copyto(friends, np.inf)
            np.copyto(friends, rows, where=same)
            np.copyto(rows, np.inf, where=same)
            enemy, d_enemy = _nearest(rows)
            found.enemy[r0:r1], found.d_enemy[r0:r1] = enemy, d_enemy
            # a point strictly closer than x's nearest enemy is of x's class;
            # the diagonal, at distance 0, counts x itself
            closer = _scratch_rows(scratch, "closer", r1 - r0, self.n, bool)
            found.local[r0:r1] = np.count_nonzero(
                np.less(friends, d_enemy[:, None], out=closer), axis=1
            )
            friends[np.arange(r1 - r0), np.arange(r0, r1)] = np.inf
            found.friend[r0:r1], found.d_friend[r0:r1] = _nearest(friends)

        self.walk(visit)
        for a in found:
            _read_only(a)
        return found


def _context(ds: Dataset, workers: int = 1) -> _DistanceContext:
    """The context shared by ``compute_measures``, or a fresh one, walking on
    one thread, for a measure called on its own.

    Refuses points whose distances may overflow float64 (``DomainError``).
    """
    if not isinstance(ds, _DistanceContext):
        ds = _DistanceContext._adopt(ds.points, ds.labels, workers=workers)
    ds.bound  # the DSI's own overflow check, before any measure reads a point
    return ds


def f1(ds: Dataset) -> MeasureResult:
    """Maximum Fisher discriminant ratio, inverted onto [0, 1].

    r_f = sum_c n_c (mu_cf - mu_f)^2 / sum_c sum_{x in c} (x_f - mu_cf)^2;
    F1 = 1 / (1 + max_f r_f).  A feature that separates the classes
    perfectly has infinite ratio and F1 = 0; no feature discriminating at
    all gives F1 = 1.  Points whose feature sums overflow float64 are
    refused (``DomainError``).
    """
    part = partition(ds)
    X = _context(ds).points  # the context refuses overflowing distances
    between = np.zeros(ds.dim)
    within = np.zeros(ds.dim)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        mu = X.mean(axis=0)
        for idx in part.groups.values():
            block = X[idx]
            mu_c = block.mean(axis=0)
            between += idx.size * (mu_c - mu) ** 2
            within += ((block - mu_c) ** 2).sum(axis=0)
    # distances may be finite while sums of coordinates near 1e308 are not
    if not (np.isfinite(between).all() and np.isfinite(within).all()):
        raise DomainError("F1's feature sums overflow float64; rescale the features")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(
            within > 0.0, between / within, np.where(between > 0.0, np.inf, 0.0)
        )
    value = float(1.0 / (1.0 + ratio.max()))
    return MeasureResult(code="F1", value=value, params={})


def _mst_edges(points: NDArray[np.float64]) -> NDArray[np.int64]:
    """Minimum spanning tree of the euclidean distances among ``points``, as
    (i, j) rows with i < j, by Prim's algorithm in O(n^2).

    Edges are ordered by (d, i, j): length first, then the endpoint index
    pair lexicographically.  That total order pins down a unique spanning
    tree for any input, so N1 does not depend on library internals or
    memory layout.

    Each vertex's distances are computed when it joins the tree, by the
    kernel, to the vertices still outside it, so each pair is computed once.
    The outside vertices are kept packed at the front of their arrays: a
    joining vertex's slot takes the last one's.  Positions never break a
    tie, so the tree does not depend on them.
    """
    n = points.shape[0]
    # the outside vertices, their points, and each one's least edge into the
    # tree: its length and its end in the tree
    rest = np.arange(n)
    outside = points.copy()
    best = np.full(n, np.inf)
    via = np.zeros(n, dtype=np.int64)
    edges = np.empty((n - 1, 2), dtype=np.int64)
    scratch = Scratch()
    u, p, m = 0, 0, n  # the joining vertex, its slot, the outside count
    for k in range(n - 1):
        m -= 1
        rest[p], best[p], via[p] = rest[m], best[m], via[m]
        outside[p] = outside[m]
        size, fill = _block(points[u : u + 1], outside[:m], False, _EUCLIDEAN)
        d = scratch.take("values", size)
        fill(d, scratch)
        vertex, least, end = rest[:m], best[:m], via[:m]
        w = np.flatnonzero(d <= least)
        tied = d[w] == least[w]
        if tied.any():  # an equal edge replaces the least one if it comes first
            t = w[tied]
            lo, hi = np.minimum(vertex[t], end[t]), np.maximum(vertex[t], end[t])
            first, second = np.minimum(vertex[t], u), np.maximum(vertex[t], u)
            tied[tied] = (first > lo) | ((first == lo) & (second >= hi))
            w = w[~tied]
        least[w] = d[w]
        end[w] = u
        cand = np.flatnonzero(least == least.min())
        if cand.size > 1:
            lo, hi = np.minimum(vertex[cand], end[cand]), np.maximum(vertex[cand], end[cand])
            cand = cand[np.lexsort((hi, lo))]
        p = cand[0]
        u = vertex[p]
        edges[k] = sorted((u, end[p]))
    return edges


def n1(ds: Dataset) -> MeasureResult:
    """Fraction of points touching a class-crossing MST edge."""
    partition(ds)  # refuses fewer than 2 classes
    edges = _mst_edges(_context(ds).points)
    labels = ds.labels
    touching = np.zeros(ds.n, dtype=bool)
    touching[edges[labels[edges[:, 0]] != labels[edges[:, 1]]]] = True
    return MeasureResult(code="N1", value=np.count_nonzero(touching) / ds.n, params={})


def n2(ds: Dataset) -> MeasureResult:
    """Ratio of intra-class to inter-class nearest-neighbor distances.

    r = sum_i d(x_i, nearest same class) / sum_i d(x_i, nearest other
    class); N2 = r / (1 + r).  Compact, well-separated classes give small
    values.
    """
    _pair_partition(ds)
    near = _context(ds).neighbours
    intra = float(near.d_friend.sum())
    inter = float(near.d_enemy.sum())
    if inter == 0.0:
        # every point coincides with an enemy; maximal overlap unless the
        # intra distances all vanish too (r is 0/0, taken as 0)
        value = 1.0 if intra > 0.0 else 0.0
    else:
        r = intra / inter
        value = r / (1.0 + r)
    return MeasureResult(code="N2", value=value, params={})


def n3(ds: Dataset) -> MeasureResult:
    """Leave-one-out 1-NN error rate.

    Nearest-neighbor ties go to the lower row index; a point coinciding
    with a different-label point is always an error (the tie is
    irresolvable in feature space).
    """
    partition(ds)  # refuses fewer than 2 classes
    enemy, d_enemy, friend, d_friend, _ = _context(ds).neighbours
    # the nearest neighbor is the enemy when it is closer, or equally close
    # with the lower index
    errors = (d_enemy < d_friend) | ((d_enemy == d_friend) & (enemy < friend))
    value = float(np.mean(errors | (d_enemy == 0.0)))
    return MeasureResult(code="N3", value=value, params={})


def n4(ds: Dataset, n_synthetic: int | None = None, seed: int = 0) -> MeasureResult:
    """1-NN error on same-class interpolants.

    Draws ``n_synthetic`` points (default: n), each uniform on the segment
    between two distinct points of a random class, labels it with that
    class, and classifies it by 1-NN against the original data.  Separable
    classes with convex regions give errors near 0.  Draws come from the
    Philox stream keyed by ``[seed, 0]``, ``seed`` in [0, 2**64).
    """
    part = _pair_partition(ds)
    n_syn = ds.n if n_synthetic is None else int(n_synthetic)
    if n_syn < 1:
        raise DomainError(f"n_synthetic must be >= 1, got {n_syn}")
    ctx = _context(ds)  # refuses overflowing distances
    X = ctx.points
    rng = _philox(seed, 0)
    class_labels = sorted(part.groups)
    synth = np.empty((n_syn, ds.dim))
    synth_labels = np.empty(n_syn, dtype=np.int64)
    for k in range(n_syn):
        c = class_labels[int(rng.integers(len(class_labels)))]
        members = part.groups[c]
        a, b = rng.choice(members, size=2, replace=False)
        t = rng.random()
        synth[k] = X[a] + t * (X[b] - X[a])
        synth_labels[k] = c

    def nearest(block, values, scratch):
        return values.reshape(-1, ds.n).argmin(axis=1)

    nn = np.concatenate(list(_walk(_cross_blocks(synth, X, _EUCLIDEAN), nearest, ctx.workers)))
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


def t1(ds: Dataset) -> MeasureResult:
    """Fraction of hyperspheres retained after absorbing redundant ones.

    Each point gets a sphere with the touching radius (see
    ``_touching_radii``); a sphere whose covered points (d <= r) are a
    subset of another sphere's coverage is absorbed, ties going to the
    lower index.  Compact single-region classes collapse to a few spheres;
    interleaved classes keep almost one sphere per point.

    Covers are kept as bits, one row of ``ceil(n / 64)`` words per sphere,
    and C_i <= C_j is tested exactly as ``C_i & ~C_j == 0``.  Sphere j can
    absorb sphere i only if j covers x_i, since x_i lies in C_i, and only if
    j comes first in the order of descending cover size, then ascending
    index; j's candidates are the set bits of its own cover.  Spheres are
    visited in that order; one already absorbed is skipped, as whatever it
    would absorb, its own absorber absorbs too.
    """
    partition(ds)  # refuses fewer than 2 classes
    ctx = _context(ds)
    near = ctx.neighbours
    r = _touching_radii(near.enemy, near.d_enemy)
    n = ds.n
    cover = np.zeros((n, -(-n // 64) * 8), dtype=np.uint8)
    size = np.empty(n, dtype=np.int64)

    def visit(r0, r1, rows, scratch):
        inside = _scratch_rows(scratch, "inside", r1 - r0, n, bool)
        np.less_equal(rows, r[r0:r1, None], out=inside)
        size[r0:r1] = np.count_nonzero(inside, axis=1)
        cover[r0:r1, : -(-n // 8)] = np.packbits(inside, axis=1, bitorder="little")

    ctx.walk(visit)
    bits = cover.view(np.uint64)
    order = np.argsort(-size, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    absorbed = np.zeros(n, dtype=bool)
    for j in order[size[order] > 1]:  # a sphere covering only its centre absorbs none
        if absorbed[j]:
            continue
        cand = np.flatnonzero(np.unpackbits(cover[j], count=n, bitorder="little"))
        cand = cand[(rank[cand] > rank[j]) & ~absorbed[cand]]
        absorbed[cand[~(bits[cand] & ~bits[j]).any(axis=1)]] = True
    value = float(np.mean(~absorbed))
    return MeasureResult(code="T1", value=value, params={})


def lsc(ds: Dataset) -> MeasureResult:
    """Local-set average cardinality, inverted onto [0, 1).

    The local set of x is every same-class point strictly closer to x than
    x's nearest enemy, x itself included; LSC = 1 - sum |LS| / n^2.  Large
    local sets (close to the whole class) mean simple structure.
    """
    partition(ds)  # refuses fewer than 2 classes
    counts = _context(ds).neighbours.local
    value = float(1.0 - counts.sum() / (ds.n**2))
    return MeasureResult(code="LSC", value=value, params={})


def density(ds: Dataset, quantile: float = DENSITY_QUANTILE) -> MeasureResult:
    """Sparseness of the same-class epsilon-neighborhood graph.

    Connect every pair closer than or equal to the ``quantile`` cut of all
    pairwise distances, delete class-crossing edges, and report
    1 - 2|E| / (n (n-1)).  Dense within-class neighborhoods give low
    values.  Unlike the other measures this one is defined for a single
    class too (the graph simply keeps all its edges).

    The cut is ``np.quantile``'s default linear method over the pairs'
    distances, to the bit, though numpy's is not called: ``stats._quantile``
    takes it from the DSI's layout of the pairs (``distances._class_pairs``),
    the same-class pairs as one multiset and the cross-class pairs as
    another.  Its first pass, the DSI's, counts each multiset's distances
    per bin, and its second keeps only those in the one or two bins that
    hold the ranks it needs.  The edges are the same-class pairs in lower
    bins and the kept same-class distances up to the cut.
    """
    if ds.n < 2:
        raise DegenerateClass("density needs at least 2 points")
    if not 0.0 < quantile < 1.0:
        raise DomainError(f"quantile must be in (0, 1), got {quantile}")
    ctx = _context(ds)
    groups = [np.flatnonzero(ds.labels == c) for c in ds.class_labels]
    # each pair once: same-class pairs, the possible edges, feed multiset 0
    layout = _class_pairs(ds.points, groups, _EUCLIDEAN)
    sources = [(pairs, (len(tag) - 1,)) for pairs, tag in layout]
    _, edges = _quantile(sources, (0.0, ctx.bound), quantile, ctx.workers)
    n = ds.n
    value = 1.0 - edges / (n * (n - 1) // 2)
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

    Every walk over the euclidean distances, N4's and Density's included,
    runs on ``workers`` threads; the nearest neighbours are found once and
    shared by the measures.  A bad ``workers`` raises ``ValueError`` before
    any measure runs, whether or not one walks.
    """
    wanted = list(MEASURE_CODES) if codes is None else list(codes)
    unknown = [c for c in wanted if c not in MEASURE_CODES]
    if unknown:
        raise DomainError(
            f"unknown measure codes {', '.join(map(str, unknown))}; "
            f"expected some of {', '.join(MEASURE_CODES)}"
        )
    check_workers(workers)
    ds = _context(ds, workers)
    fns = {
        "F1": lambda: f1(ds),
        "N1": lambda: n1(ds),
        "N2": lambda: n2(ds),
        "N3": lambda: n3(ds),
        "N4": lambda: n4(ds, n_synthetic=n4_synthetic, seed=seed),
        "T1": lambda: t1(ds),
        "LSC": lambda: lsc(ds),
        "Density": lambda: density(ds, quantile=density_quantile),
    }
    return [fns[c]() for c in wanted]
