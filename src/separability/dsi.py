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

One private function, ``_dsi_reports``, does this for ``dsi``,
``class_distance_sets`` and the CLI.  It checks the points once, for the
whole dataset, so an error names the dataset's row, then walks the
classes in ascending label order.  Each multiset is computed where it
lives, in row blocks: ICD(i) from the pairwise distances among
class i's rows, BCD(i) from class i's rows against the other classes'
rows.  Each is sorted once, in its own buffer, and made read-only.  With
two classes both BCDs are the same multiset, computed and sorted once and
shared.  With three or more classes each class's BCD is built, scored and
freed before the next class's; the distances to later classes are
computed on the earlier class's turn and kept until the later class's
turn.  Either way every pair of points is computed exactly once.  Each
class then costs one merge of its two sorted multisets, run in pieces
that ``workers`` threads can share, from which KS and the normalized
1-Wasserstein distance are both read.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ._threads import Threads
from .dataset import Dataset, partition
from .distances import (
    DistanceMetric,
    DistanceSet,
    _check_vectors,
    _condensed,
    _cross,
    resolve_metric,
)
from .errors import DegenerateClass, DegenerateSubset, DistanceCapError, DomainError
from .generators import _philox
from .stats import _gap_statistics

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

# Exact computation holds one class's ICD and BCD multisets at a time, as
# float64, plus, with three or more classes, the distances kept for later
# classes, and one block-by-n float64 scratch array per thread in the numpy
# distance kernel.  CLI `measure` (KS, one thread) peaks at 333 MiB RSS on
# 2x5000 moons points and at 697 MiB on 2x7500; three equal 2-D Gaussian
# classes take 425 MiB at 10k points and 906 MiB at 15k (2-vCPU Intel Xeon
# KVM guest, numpy 2.4.6).  Memory grows with n**2.  Beyond the cap callers
# must subsample or raise it knowingly.
DEFAULT_MAX_POINTS = 15_000

STAT_NAMES = ("ks", "wasserstein")

# Each named statistic is read from one merge of a class's sorted multisets.
_GAP_STATISTICS = {
    "ks": "ks",
    "wasserstein": "w1_normalized",
}


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


def _sorted_read_only(values: np.ndarray) -> np.ndarray:
    values.sort()
    values.setflags(write=False)
    return values


def _check_cap(
    n: int, max_points: int | None, remedy: str = "use dsi_subsampled or pass a larger max_points"
) -> None:
    """Refuse ``n`` points above ``max_points``, before any distance is computed."""
    if max_points is not None and n > max_points:
        raise DistanceCapError(
            f"{n} points exceed the exact-computation cap of {max_points}; {remedy}"
        )


def _dsi_reports(
    ds: Dataset,
    metric: DistanceMetric | str,
    stats: tuple[str, ...],
    workers: int,
    max_points: int | None,
    sets: dict | None = None,
) -> list[SeparabilityReport]:
    """One report per entry of ``stats``, all from one pass over the classes.

    Each class is scored by one merge of its sorted, read-only ICD and BCD
    multisets, which yields every statistic in ``stats``.  A class's own
    multisets are released once it is scored, unless ``sets`` is given:
    then it receives what ``class_distance_sets`` returns, from the same
    pass.
    """
    t0 = time.perf_counter()
    m = resolve_metric(metric)
    for stat in stats:
        if stat not in _GAP_STATISTICS:
            raise ValueError(
                f"unknown statistic {stat!r}; expected one of {', '.join(STAT_NAMES)}"
            )
    groups = partition(ds).groups
    for label, rows in groups.items():
        if rows.size < 2:
            raise DegenerateClass(
                f"class {label} has {rows.size} point(s); ICD needs at least 2",
                label=label,
            )
    _check_cap(ds.n, max_points)
    _check_vectors(ds.points, m)

    # One copy of the points, class after class, so every class's rows and
    # the rows of all later classes are contiguous slices.
    labels = list(groups)
    points = ds.points[np.concatenate(list(groups.values()))]
    starts = np.cumsum([0] + [groups[label].size for label in labels]).tolist()
    names = {_GAP_STATISTICS[stat] for stat in stats}
    scores: dict[int, list[float]] = {}

    with Threads(workers) as threads:

        def score(label, icd, bcd):  # icd and bcd are sorted and read-only
            named = _gap_statistics(icd, bcd, names, threads) if names else {}
            scores[label] = [named[_GAP_STATISTICS[stat]] for stat in stats]
            if sets is not None:
                sets[label] = (
                    DistanceSet._adopt(icd, "icd", label),
                    DistanceSet._adopt(bcd, "bcd", label),
                )

        if len(labels) == 2:  # both classes' BCD is the one cross block
            first, second = classes = [points[: starts[1]], points[starts[1] :]]
            bcd = _sorted_read_only(_cross(first, second, m, threads))
            for label, mine in zip(labels, classes):
                score(label, _sorted_read_only(_condensed(mine, m, threads)), bcd)
        else:
            # Class c's turn computes its distances to every later class, in
            # blocks of the later rows, and keeps a copy of each later class's
            # part until that class's turn: every pair of points is computed once.
            kept: dict[int, list[np.ndarray]] = {label: [] for label in labels}
            for turn, label in enumerate(labels):
                mine = points[starts[turn] : starts[turn + 1]]
                size = mine.shape[0]
                bcd = np.empty(size * (ds.n - size))
                earlier = kept.pop(label)
                at = sum(part.size for part in earlier)
                if earlier:
                    np.concatenate(earlier, out=bcd[:at])
                del earlier
                if turn + 1 < len(labels):
                    _cross(points[starts[turn + 1] :], mine, m, threads, out=bcd[at:])
                    for c in labels[turn + 1 :]:
                        end = at + groups[c].size * size
                        kept[c].append(bcd[at:end].copy())
                        at = end
                score(
                    label,
                    _sorted_read_only(_condensed(mine, m, threads)),
                    _sorted_read_only(bcd),
                )
                del bcd  # a class's own BCD is freed before the next one is built

    wall_time_s = time.perf_counter() - t0
    reports = []
    for stat, values in zip(stats, zip(*scores.values())):
        index = float(np.mean(values))
        reports.append(
            SeparabilityReport(
                per_class_similarity=dict(zip(labels, values)),
                dsi=index,
                complexity=1.0 - index,
                metric=m.name,
                stat=stat,
                n_points=ds.n,
                dim=ds.dim,
                wall_time_s=wall_time_s,
            )
        )
    return reports


def class_distance_sets(
    ds: Dataset,
    metric: DistanceMetric | str = "euclidean",
    workers: int = 1,
    max_points: int | None = DEFAULT_MAX_POINTS,
) -> dict[int, tuple[DistanceSet, DistanceSet]]:
    """ICD and BCD multisets for every class, computed class by class.

    Returns ``{label: (icd, bcd)}`` with cardinalities m*(m-1)/2 and m*r.
    Every multiset's values are sorted ascending and read-only; with exactly
    two classes both BCDs hold the same array.
    """
    sets: dict[int, tuple[DistanceSet, DistanceSet]] = {}
    _dsi_reports(ds, metric, (), workers, max_points, sets)
    return sets


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
    on the subset; ``seed`` must be in [0, 2**64).  Draws leaving fewer than 2 classes or a singleton class
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
        rng = _philox(seed, t)
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
        stat=stat,
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
