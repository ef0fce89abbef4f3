"""Distance-based separability of a labeled dataset.

For each class i, collect two distance multisets under a chosen metric:

* ICD(i): all pairwise distances within the class, m*(m-1)/2 values
* BCD(i): all distances from the class to the pooled remaining points,
  m*r values

and score the class as the two-sample statistic between them (KS by
default, normalized 1-Wasserstein as the alternative).  When the class is
distributed like the rest of the data the two multisets look alike and the
statistic is near 0; when the class sits apart it approaches 1.  The
dataset's separability index is the unweighted mean over classes, and
``complexity = 1 - separability``.

All pairwise distances are computed once in condensed form and the per
class multisets are then gathered by index, so every ICD/BCD pair reuses
the same numbers.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .dataset import ClassPartition, Dataset, partition
from .distances import (
    DistanceMetric,
    DistanceSet,
    condensed_index,
    pairwise_condensed,
    resolve_metric,
)
from .errors import DegenerateClass, DegenerateSubset, DistanceCapError, DomainError
from .stats import ks_statistic, wasserstein1_normalized

__all__ = [
    "DEFAULT_MAX_POINTS",
    "STAT_NAMES",
    "SubsampleStats",
    "SeparabilityReport",
    "class_distance_sets",
    "dsi",
    "dsi_subsampled",
    "distribution_identity_score",
]

# Exact computation stores n*(n-1)/2 float64 distances and gathers the class
# multisets from them: CLI `measure` peaks at 2003 MiB RSS for 10k points
# (2-vCPU Intel Xeon KVM guest, numpy 2.4.6), growing with n**2.  Beyond the
# cap callers must subsample or raise it knowingly.
DEFAULT_MAX_POINTS = 15_000

STAT_NAMES = ("ks", "wasserstein")

_STAT_FUNCS = {
    "ks": ks_statistic,
    "wasserstein": wasserstein1_normalized,
}


def _resolve_stat(stat):
    if callable(stat):
        return stat
    try:
        return _STAT_FUNCS[stat]
    except KeyError:
        raise ValueError(
            f"unknown statistic {stat!r}; expected one of {', '.join(STAT_NAMES)}"
        ) from None


@dataclass(frozen=True)
class SubsampleStats:
    """Aggregate of repeated random-subset runs."""

    subset_size: int
    trials: int
    seed: int
    mean: float
    sd: float
    values: tuple[float, ...]


@dataclass(frozen=True)
class SeparabilityReport:
    """Result of a separability computation.

    ``per_class_similarity`` maps each class label to its ICD/BCD
    statistic; ``dsi`` is their unweighted mean and ``complexity`` its
    complement, so ``dsi + complexity == 1`` exactly.  ``subsample`` is
    filled only by ``dsi_subsampled``.  ``wall_time_s`` is measurement
    metadata, not part of the result value.
    """

    per_class_similarity: dict[int, float]
    dsi: float
    complexity: float
    metric: str
    stat: str
    n_points: int
    dim: int
    subsample: SubsampleStats | None = None
    wall_time_s: float = 0.0

    def to_dict(self, include_timing: bool = False) -> dict:
        """JSON-ready mapping with deterministic key order."""
        out = {
            "n_points": self.n_points,
            "dim": self.dim,
            "metric": self.metric,
            "stat": self.stat,
            "per_class_similarity": {
                str(k): v for k, v in self.per_class_similarity.items()
            },
            "dsi": self.dsi,
            "complexity": self.complexity,
        }
        if self.subsample is not None:
            out["subsample"] = {
                "subset_size": self.subsample.subset_size,
                "trials": self.subsample.trials,
                "seed": self.subsample.seed,
                "mean": self.subsample.mean,
                "sd": self.subsample.sd,
                "values": list(self.subsample.values),
            }
        if include_timing:
            out["wall_time_s"] = self.wall_time_s
        return out


def _check_classes(part: ClassPartition):
    for label, idx in part.groups.items():
        if idx.size < 2:
            raise DegenerateClass(
                f"class {label} has {idx.size} point(s); ICD needs at least 2",
                label=label,
            )


def class_distance_sets(
    ds: Dataset,
    metric: DistanceMetric | str = "euclidean",
    workers: int = 1,
    max_points: int | None = DEFAULT_MAX_POINTS,
) -> dict[int, tuple[DistanceSet, DistanceSet]]:
    """ICD and BCD multisets for every class, from one pairwise pass.

    Returns ``{label: (icd, bcd)}`` with cardinalities m*(m-1)/2 and m*r.
    """
    m = resolve_metric(metric)
    part = partition(ds)
    _check_classes(part)
    n = ds.n
    if max_points is not None and n > max_points:
        raise DistanceCapError(
            f"{n} points exceed the exact-computation cap of {max_points}; "
            "use dsi_subsampled or pass a larger max_points"
        )
    condensed = pairwise_condensed(ds.points, m, workers=workers)

    out: dict[int, tuple[DistanceSet, DistanceSet]] = {}
    for label, idx in part.groups.items():
        mask = np.zeros(n, dtype=bool)
        mask[idx] = True
        rest = np.flatnonzero(~mask)
        within_i, within_j = np.triu_indices(idx.size, k=1)
        icd_vals = condensed[condensed_index(n, idx[within_i], idx[within_j])]
        cross_a = np.minimum.outer(idx, rest).ravel()
        cross_b = np.maximum.outer(idx, rest).ravel()
        bcd_vals = condensed[condensed_index(n, cross_a, cross_b)]
        out[label] = (
            DistanceSet(values=icd_vals, kind="icd", label=label),
            DistanceSet(values=bcd_vals, kind="bcd", label=label),
        )
    return out


def dsi(
    ds: Dataset,
    metric: DistanceMetric | str = "euclidean",
    stat: str = "ks",
    workers: int = 1,
    max_points: int | None = DEFAULT_MAX_POINTS,
) -> SeparabilityReport:
    """Separability index of a labeled dataset.

    ``metric`` names the distance (or passes a fitted ``DistanceMetric``);
    ``stat`` is "ks" or "wasserstein" (normalized).  ``workers`` threads
    never change the numeric result.
    """
    t0 = time.perf_counter()
    m = resolve_metric(metric)
    stat_fn = _resolve_stat(stat)
    sets = class_distance_sets(ds, m, workers=workers, max_points=max_points)

    def score(label: int) -> float:
        icd, bcd = sets[label]
        return float(stat_fn(icd.values, bcd.values))

    labels = sorted(sets)
    if workers > 1 and len(labels) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            scores = list(pool.map(score, labels))
    else:
        scores = [score(c) for c in labels]

    per_class = {c: s for c, s in zip(labels, scores)}
    index = float(np.mean(scores))
    return SeparabilityReport(
        per_class_similarity=per_class,
        dsi=index,
        complexity=1.0 - index,
        metric=m.name,
        stat=stat if isinstance(stat, str) else getattr(stat, "__name__", "custom"),
        n_points=ds.n,
        dim=ds.dim,
        wall_time_s=time.perf_counter() - t0,
    )


def _usable(sub: Dataset) -> bool:
    labels, counts = np.unique(sub.labels, return_counts=True)
    return labels.size >= 2 and bool(np.all(counts >= 2))


def dsi_subsampled(
    ds: Dataset,
    subset_size: int,
    trials: int = 8,
    seed: int = 0,
    metric: DistanceMetric | str = "euclidean",
    stat: str = "ks",
    workers: int = 1,
    max_retries: int = 100,
) -> SeparabilityReport:
    """Estimate separability from repeated random subsets.

    Each trial draws ``subset_size`` rows without replacement using a
    Philox stream keyed by ``[seed, trial]``, then computes the exact index
    on the subset.  Draws leaving fewer than 2 classes or a singleton class
    are rejected and redrawn (same stream) up to ``max_retries`` times.

    The report's ``dsi`` aggregates trials: ``per_class_similarity`` holds
    each class's statistic averaged over the trials where it appeared,
    ``subsample`` holds the per-trial index values with their mean and
    standard deviation (ddof=1, zero for a single trial), and ``dsi`` is
    that mean.
    """
    t0 = time.perf_counter()
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if not 1 <= subset_size <= ds.n:
        raise DomainError(
            f"subset_size must be in [1, {ds.n}], got {subset_size}"
        )
    m = resolve_metric(metric)

    trial_values: list[float] = []
    class_scores: dict[int, list[float]] = {}
    for t in range(trials):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, t], dtype=np.uint64)))
        for _ in range(max_retries):
            idx = np.sort(rng.choice(ds.n, size=subset_size, replace=False))
            sub = ds.subset(idx)
            if _usable(sub):
                break
        else:
            raise DegenerateSubset(
                f"trial {t}: no usable subset of size {subset_size} in "
                f"{max_retries} draws (every draw left a class below 2 points)"
            )
        report = dsi(sub, m, stat=stat, workers=workers, max_points=None)
        trial_values.append(report.dsi)
        for c, s in report.per_class_similarity.items():
            class_scores.setdefault(c, []).append(s)

    values = np.asarray(trial_values)
    mean = float(values.mean())
    sd = float(values.std(ddof=1)) if trials > 1 else 0.0
    per_class = {c: float(np.mean(v)) for c, v in sorted(class_scores.items())}
    return SeparabilityReport(
        per_class_similarity=per_class,
        dsi=mean,
        complexity=1.0 - mean,
        metric=m.name,
        stat=stat if isinstance(stat, str) else getattr(stat, "__name__", "custom"),
        n_points=ds.n,
        dim=ds.dim,
        subsample=SubsampleStats(
            subset_size=subset_size,
            trials=trials,
            seed=seed,
            mean=mean,
            sd=sd,
            values=tuple(trial_values),
        ),
        wall_time_s=time.perf_counter() - t0,
    )


def distribution_identity_score(
    sample_a,
    sample_b,
    metric: DistanceMetric | str = "euclidean",
    stat: str = "ks",
    workers: int = 1,
    max_points: int | None = DEFAULT_MAX_POINTS,
) -> float:
    """How distinguishable two unlabeled point sets are (0 = identical).

    Labels set A as class 0 and set B as class 1 and returns the resulting
    separability index: near 0 when both sets draw from the same
    distribution, near 1 when they occupy disjoint regions.
    """
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("samples must be 1-D or 2-D arrays")
    if a.shape[0] < 2 or b.shape[0] < 2:
        raise DegenerateClass("each sample needs at least 2 points")
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"samples must share the feature dimension, got {a.shape[1]} and {b.shape[1]}"
        )
    points = np.vstack([a, b])
    labels = np.concatenate(
        [np.zeros(a.shape[0], dtype=np.int64), np.ones(b.shape[0], dtype=np.int64)]
    )
    ds = Dataset(points=points, labels=labels)
    return dsi(ds, metric, stat=stat, workers=workers, max_points=max_points).dsi
