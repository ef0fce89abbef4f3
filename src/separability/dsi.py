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

All pairwise distances are computed once in condensed form.  Each pair's
two class codes select its value into the multisets by boolean mask, and
every multiset is sorted once as it is gathered; with two classes both
BCDs are the same multiset, sorted once and shared.  Each class then costs
one merge of its two sorted multisets, from which KS and the normalized
1-Wasserstein distance are both read.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dataset import ClassPartition, Dataset, partition
from .distances import DistanceMetric, DistanceSet, pairwise_condensed, resolve_metric
from .errors import DegenerateClass, DegenerateSubset, DistanceCapError, DomainError
from .stats import _ks, _sorted_cdf_gap, _w1_normalized

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
# multisets from them: CLI `measure` peaks at 1393 MiB RSS for 10k points
# (2-vCPU Intel Xeon KVM guest, numpy 2.4.6), growing with n**2.  Beyond the
# cap callers must subsample or raise it knowingly.
DEFAULT_MAX_POINTS = 15_000

STAT_NAMES = ("ks", "wasserstein")

# Each named statistic reduces the (grid, heights) of one presorted CDF merge.
_GAP_REDUCTIONS = {
    "ks": _ks,
    "wasserstein": _w1_normalized,
}


def _check_stat(stat):
    if not callable(stat) and stat not in _GAP_REDUCTIONS:
        raise ValueError(
            f"unknown statistic {stat!r}; expected one of {', '.join(STAT_NAMES)}"
        )


def _stat_name(stat) -> str:
    return stat if isinstance(stat, str) else getattr(stat, "__name__", "custom")


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
    Every multiset's values are sorted ascending and read-only; with exactly
    two classes both BCDs hold the same array.
    """
    m = resolve_metric(metric)
    _check_classes(partition(ds))
    n = ds.n
    if max_points is not None and n > max_points:
        raise DistanceCapError(
            f"{n} points exceed the exact-computation cap of {max_points}; "
            "use dsi_subsampled or pass a larger max_points"
        )
    condensed = pairwise_condensed(ds.points, m, workers=workers)

    # Class codes of each pair's two ends, in condensed order: row i's
    # segment pairs point i with every j > i.
    classes, codes = np.unique(ds.labels, return_inverse=True)
    codes = codes.astype(np.min_scalar_type(classes.size - 1))
    first = np.repeat(codes[:-1], np.arange(n - 1, 0, -1))
    second = np.concatenate([codes[i + 1 :] for i in range(n - 1)])

    def gather(mask):
        values = condensed[mask]
        values.sort()
        values.setflags(write=False)
        return values

    out: dict[int, tuple[DistanceSet, DistanceSet]] = {}
    bcd = None
    for code, label in enumerate(classes.tolist()):
        in_first, in_second = first == code, second == code
        icd = gather(in_first & in_second)
        if bcd is None or classes.size > 2:  # two classes share one BCD
            bcd = gather(np.logical_xor(in_first, in_second, out=in_first))
        del in_first, in_second
        out[label] = (
            DistanceSet._presorted(icd, "icd", label),
            DistanceSet._presorted(bcd, "bcd", label),
        )
    return out


def _dsi_reports(
    ds: Dataset,
    metric: DistanceMetric | str,
    stats: tuple,
    workers: int,
    max_points: int | None,
) -> list[SeparabilityReport]:
    """One report per entry of ``stats``, all from one gather.

    Named statistics reduce one merge per class; a callable receives the
    class's (icd, bcd) values.
    """
    t0 = time.perf_counter()
    m = resolve_metric(metric)
    for stat in stats:
        _check_stat(stat)
    sets = class_distance_sets(ds, m, workers=workers, max_points=max_points)

    def score(label: int) -> list[float]:
        icd, bcd = (dset.values for dset in sets[label])
        gap = None
        scores = []
        for stat in stats:
            if callable(stat):
                scores.append(float(stat(icd, bcd)))
                continue
            if gap is None:
                gap = _sorted_cdf_gap(icd, bcd)
            scores.append(_GAP_REDUCTIONS[stat](*gap))
        return scores

    labels = sorted(sets)
    if workers > 1 and len(labels) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_label = list(pool.map(score, labels))
    else:
        per_label = [score(c) for c in labels]

    wall_time_s = time.perf_counter() - t0
    reports = []
    for stat, scores in zip(stats, zip(*per_label)):
        index = float(np.mean(scores))
        reports.append(
            SeparabilityReport(
                per_class_similarity=dict(zip(labels, scores)),
                dsi=index,
                complexity=1.0 - index,
                metric=m.name,
                stat=_stat_name(stat),
                n_points=ds.n,
                dim=ds.dim,
                wall_time_s=wall_time_s,
            )
        )
    return reports


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
    (report,) = _dsi_reports(ds, metric, (stat,), workers, max_points)
    return report


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
    max_points: int | None = DEFAULT_MAX_POINTS,
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
    that mean.  ``max_points`` caps ``subset_size`` as ``dsi`` caps the
    dataset size.
    """
    t0 = time.perf_counter()
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if not 1 <= subset_size <= ds.n:
        raise DomainError(
            f"subset_size must be in [1, {ds.n}], got {subset_size}"
        )
    if max_points is not None and subset_size > max_points:
        raise DistanceCapError(
            f"subset_size {subset_size} exceeds the exact-computation cap of "
            f"{max_points}; pass a smaller subset_size or a larger max_points"
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
        stat=_stat_name(stat),
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
