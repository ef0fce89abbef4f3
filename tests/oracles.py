"""Independent brute-force reference implementations used only by tests.

Everything here is written for clarity over speed: plain Python loops,
no shared code with the library, so agreement is meaningful evidence.
"""

from __future__ import annotations

import math

import numpy as np


def naive_distance(a, b, metric: str, inverse_covariance=None) -> float:
    """Scalar distance via explicit formulas, one pair at a time."""
    a = [float(v) for v in np.asarray(a).ravel()]
    b = [float(v) for v in np.asarray(b).ravel()]
    d = len(a)
    if metric == "euclidean":
        return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
    if metric == "cityblock":
        return sum(abs(x - y) for x, y in zip(a, b))
    if metric == "chebyshev":
        return max(abs(x - y) for x, y in zip(a, b))
    if metric == "correlation":
        ma = sum(a) / d
        mb = sum(b) / d
        ca = [x - ma for x in a]
        cb = [y - mb for y in b]
        num = sum(x * y for x, y in zip(ca, cb))
        den = math.sqrt(sum(x * x for x in ca)) * math.sqrt(sum(y * y for y in cb))
        return min(max(1.0 - num / den, 0.0), 2.0)
    if metric == "cosine":
        num = sum(x * y for x, y in zip(a, b))
        den = math.sqrt(sum(x * x for x in a)) * math.sqrt(sum(y * y for y in b))
        return min(max(1.0 - num / den, 0.0), 2.0)
    if metric == "mahalanobis":
        vi = np.asarray(inverse_covariance, dtype=float)
        diff = [x - y for x, y in zip(a, b)]
        acc = 0.0
        for i in range(d):
            for j in range(d):
                acc += diff[i] * vi[i][j] * diff[j]
        return math.sqrt(acc)
    raise ValueError(metric)


def naive_pairwise(points, metric: str, inverse_covariance=None):
    """Condensed pairwise distances via a double loop."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            out.append(naive_distance(pts[i], pts[j], metric, inverse_covariance))
    return np.asarray(out)


def ecdf(sample, x) -> float:
    """Empirical CDF by counting."""
    vals = sorted(float(v) for v in np.asarray(sample).ravel())
    return sum(1 for v in vals if v <= x) / len(vals)


def grid_ks(sample_a, sample_b) -> float:
    """KS statistic evaluated on an exhaustive pooled grid."""
    a = [float(v) for v in np.asarray(sample_a).ravel()]
    b = [float(v) for v in np.asarray(sample_b).ravel()]
    best = 0.0
    for x in sorted(set(a) | set(b)):
        best = max(best, abs(ecdf(a, x) - ecdf(b, x)))
        # left limit: evaluate just below x by excluding points equal to x
        fa = sum(1 for v in a if v < x) / len(a)
        fb = sum(1 for v in b if v < x) / len(b)
        best = max(best, abs(fa - fb))
    return best


def grid_wasserstein1(sample_a, sample_b) -> float:
    """W1 as the Riemann sum of |P - Q| between consecutive pooled values."""
    a = [float(v) for v in np.asarray(sample_a).ravel()]
    b = [float(v) for v in np.asarray(sample_b).ravel()]
    grid = sorted(set(a) | set(b))
    total = 0.0
    for left, right in zip(grid[:-1], grid[1:]):
        total += (right - left) * abs(ecdf(a, left) - ecdf(b, left))
    return total


def brute_mst_edges(points):
    """Kruskal via sorted full edge list with (distance, i, j) ordering."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            d = math.sqrt(float(((pts[i] - pts[j]) ** 2).sum()))
            edges.append((d, i, j))
    edges.sort()
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen = []
    for d, i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            chosen.append((i, j))
    return chosen


def brute_n1(points, labels) -> float:
    labels = np.asarray(labels)
    touched = set()
    for i, j in brute_mst_edges(points):
        if labels[i] != labels[j]:
            touched.add(i)
            touched.add(j)
    return len(touched) / len(labels)


def brute_n3(points, labels) -> float:
    """Leave-one-out 1-NN error, lower index wins ties, coincident
    different-label points always count as errors."""
    pts = np.asarray(points, dtype=float)
    labels = np.asarray(labels)
    n = pts.shape[0]
    errors = 0
    for i in range(n):
        best_j = -1
        best_d = math.inf
        coincident_enemy = False
        for j in range(n):
            if j == i:
                continue
            d = math.sqrt(float(((pts[i] - pts[j]) ** 2).sum()))
            if d == 0.0 and labels[j] != labels[i]:
                coincident_enemy = True
            if d < best_d:
                best_d = d
                best_j = j
        if coincident_enemy or labels[best_j] != labels[i]:
            errors += 1
    return errors / n


def brute_dsi(points, labels, stat) -> float:
    """DSI from scratch: explicit ICD/BCD multisets per class."""
    pts = np.asarray(points, dtype=float)
    labels = np.asarray(labels)
    scores = []
    for c in sorted(set(labels.tolist())):
        mine = pts[labels == c]
        rest = pts[labels != c]
        icd = []
        for i in range(len(mine)):
            for j in range(i + 1, len(mine)):
                icd.append(math.sqrt(float(((mine[i] - mine[j]) ** 2).sum())))
        bcd = []
        for i in range(len(mine)):
            for j in range(len(rest)):
                bcd.append(math.sqrt(float(((mine[i] - rest[j]) ** 2).sum())))
        scores.append(stat(icd, bcd))
    return sum(scores) / len(scores)


def nearest_enemy(D, labels):
    """Each row's nearest other-class column (lowest index on ties) and its
    distance, from a square distance matrix."""
    labels = np.asarray(labels)
    masked = np.where(labels[:, None] == labels[None, :], np.inf, D)
    enemy = masked.argmin(axis=1)
    return enemy, masked[np.arange(enemy.size), enemy]


def dense_complement_t1(D, radii) -> float:
    """T1 with subsets found by the dense complement product: sphere i lies
    inside sphere j when no point i covers is left uncovered by j."""
    n = D.shape[0]
    cover = (D <= np.asarray(radii)[:, None]).astype(np.float32)
    subset = (cover @ (1.0 - cover.T)) < 0.5
    np.fill_diagonal(subset, False)
    size = cover.sum(axis=1)
    proper = subset & (size[:, None] < size[None, :])
    lower = np.arange(n)[None, :] < np.arange(n)[:, None]
    absorbed = (proper | (subset & subset.T & lower)).any(axis=1)
    return float(np.mean(~absorbed))


def class_masked_lsc(D, labels) -> float:
    """LSC counting only same-class points closer than the nearest enemy."""
    labels = np.asarray(labels)
    same = labels[:, None] == labels[None, :]
    counts = (same & (D < nearest_enemy(D, labels)[1][:, None])).sum(axis=1)
    return float(1.0 - counts.sum() / (D.shape[0] ** 2))


def condensed_density(condensed, labels, quantile) -> float:
    """Density with its cut taken over the condensed vector of all pairs."""
    labels = np.asarray(labels)
    n = labels.size
    D = np.zeros((n, n))
    D[np.triu_indices(n, 1)] = condensed
    D = D + D.T
    cut = np.quantile(condensed, quantile)
    same = labels[:, None] == labels[None, :]
    edges = (int(np.count_nonzero(same & (D <= cut))) - n) // 2
    return 1.0 - edges / condensed.size
