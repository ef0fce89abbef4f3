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

One setup step, ``_multisets``, checks the points once, for the whole
dataset, so an error names the dataset's row, and refuses a class below 2
points before any distance is computed.  It lays the multisets out as the
distance kernel's row blocks, in the layout of ``distances._class_pairs``,
which the complexity measure Density reads too: ICD(i) from the pairs
among class i's rows, BCD(i) from the pairs between class i and each other
class, so each class's statistic reads its own two multisets.
``_dsi_reports`` runs it for ``dsi``, for the CLI and for each draw of
``dsi_subsampled`` (which draws again when the step refuses), then streams
the blocks without storing them.  There are two passes at most: the first
(``stats._count``, shared with Density) computes every pair of points
once and counts each multiset's distances per bin; the
second, run only when some bin needs it, keeps the few distances in bins
where |P - Q| must be read exactly, and computes each pair at most once,
skipping those whose distance provably lies outside those bins (see
``stats`` and ``distances._Pairs``).  KS and the normalized 1-Wasserstein
distance both come from the same passes, and ``workers`` threads share
each pass's kernel work.  ``class_distance_sets``
runs the same step and fills the multisets from its blocks, for export and
inspection; the DSI never needs them.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import Dataset, _pair_partition, partition
from .distances import (
    DistanceMetric,
    DistanceSet,
    _check_vectors,
    _class_pairs,
    _diameter_bound,
    _store,
    resolve_metric,
)
from .errors import DegenerateClass, DegenerateDataset, DegenerateSubset
from .errors import DistanceCapError, DomainError
from .generators import _philox
from .stats import _binned_statistics

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

# Exact computation stores no multiset: it streams every distance through the
# kernel once, and those that can reach a refined bin once more, so memory
# grows with the kernel's row blocks (at most 2**16 float64 values, in a few
# buffers per thread) and with the distances kept in refined bins, not with
# n**2.  CLI `measure` (KS, one thread) peaks at 43 MiB RSS in 0.8 s on
# 2x5000 moons points and at 51 MiB in 1.3-1.4 s on 2x7500.  Three 2-D
# standard Gaussian classes sharing one mean, 10k points in all, keep 7.0M
# distances in refined bins and take 92 MiB in 1.4-1.5 s with KS; with
# Wasserstein they keep 16.3M and take 168 MiB in 2.4-2.6 s (2-vCPU Intel
# Xeon KVM guest, numpy 2.4.6, three runs each, through perfbench/spawn.py).
# Time grows with n**2, so the cap guards time: beyond it callers must
# subsample or raise it knowingly.
DEFAULT_MAX_POINTS = 15_000

STAT_NAMES = ("ks", "wasserstein")

# The names ``stats._binned_statistics`` reads each statistic under.
_GAP_STATISTICS = {"ks": "ks", "wasserstein": "w1_normalized"}


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
            out["subsample"] = {**asdict(self.subsample), "values": list(self.subsample.values)}
        if include_timing:
            out["wall_time_s"] = self.wall_time_s
        return out


def _check_cap(
    n: int, max_points: int | None, remedy: str = "use dsi_subsampled or pass a larger max_points"
) -> None:
    """Refuse ``n`` points above ``max_points``, before any distance is computed."""
    if max_points is not None and n > max_points:
        raise DistanceCapError(
            f"{n} points exceed the exact-computation cap of {max_points}; {remedy}"
        )


def _check_stats(stats: tuple[str, ...]) -> None:
    for stat in stats:
        if stat not in _GAP_STATISTICS:
            raise ValueError(
                f"unknown statistic {stat!r}; expected one of {', '.join(STAT_NAMES)}"
            )


def _multisets(ds: Dataset, m: DistanceMetric, max_points: int | None) -> tuple:
    """Check the dataset once, then lay out its classes' ICD and BCD multisets.

    Fewer than 2 classes, or a class below 2 points, raises before any other
    check.  Multisets are numbered ICD(c) = c and BCD(c) = k + c for the k
    classes, labels ascending, so each cross block feeds two BCDs.  Returns
    the labels, the sources as ``stats._binned_statistics`` and
    ``distances._store`` read them (see ``distances._class_pairs``), and a
    bound on any distance (see ``_diameter_bound``).
    """
    groups = _pair_partition(ds).groups
    _check_cap(ds.n, max_points)
    _check_vectors(ds.points, m)
    k, layout = len(groups), _class_pairs(ds.points, groups.values(), m)
    sources = [(pairs, tag if len(tag) == 1 else (k + tag[0], k + tag[1])) for pairs, tag in layout]
    return list(groups), sources, _diameter_bound(ds.points, m)


def _report(
    ds: Dataset, m: DistanceMetric, stat: str, per_class, index, wall_time_s, subsample=None
) -> SeparabilityReport:
    """The report of one statistic: ``per_class`` scores and the index ``index``."""
    return SeparabilityReport(
        per_class_similarity=per_class,
        dsi=index,
        complexity=1.0 - index,
        metric=m.name,
        stat=stat,
        n_points=ds.n,
        dim=ds.dim,
        subsample=subsample,
        wall_time_s=wall_time_s,
    )


def _dsi_reports(
    ds: Dataset,
    metric: DistanceMetric | str,
    stats: tuple[str, ...],
    workers: int,
    max_points: int | None,
) -> list[SeparabilityReport]:
    """One report per entry of ``stats``, all from the same two passes."""
    t0 = time.perf_counter()
    m = resolve_metric(metric)
    _check_stats(stats)
    labels, sources, bound = _multisets(ds, m, max_points)
    names = tuple(dict.fromkeys(_GAP_STATISTICS[stat] for stat in stats))
    pairs = [(c, len(labels) + c) for c in range(len(labels))]
    named = _binned_statistics(sources, pairs, (0.0, bound), names, workers)

    wall_time_s = time.perf_counter() - t0
    reports = []
    for stat in stats:
        values = [scores[_GAP_STATISTICS[stat]] for scores in named]
        reports.append(
            _report(ds, m, stat, dict(zip(labels, values)), float(np.mean(values)), wall_time_s)
        )
    return reports


def class_distance_sets(
    ds: Dataset,
    metric: DistanceMetric | str = "euclidean",
    workers: int = 1,
    max_points: int | None = DEFAULT_MAX_POINTS,
) -> dict[int, tuple[DistanceSet, DistanceSet]]:
    """ICD and BCD multisets for every class, stored whole.

    Returns ``{label: (icd, bcd)}`` with cardinalities m*(m-1)/2 and m*r.
    Every multiset's values are sorted ascending and read-only; with exactly
    two classes both BCDs hold the same array.  The DSI never needs them
    (see ``dsi``); this is for exporting and inspecting them.
    """
    m = resolve_metric(metric)
    labels, sources, _ = _multisets(ds, m, max_points)
    k = len(labels)
    bcd = [k + c for c in range(k)]
    if k == 2:  # one array for both BCDs: the cross blocks feed only BCD(0)
        sources[-1], bcd[1] = (sources[-1][0], (k,)), k
    sets = _store(sources, workers)
    for values in sets:
        values.sort()
    return {
        label: (
            DistanceSet._adopt(sets[c], "icd", label),
            DistanceSet._adopt(sets[bcd[c]], "bcd", label),
        )
        for c, label in enumerate(labels)
    }


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
    on the subset; ``seed`` must be in [0, 2**64).  Draws leaving fewer than
    2 classes or a singleton class are refused before any distance is
    computed and redrawn (same stream) up to ``max_retries`` times.  The
    whole dataset is checked once, before the first draw: fewer than 2
    classes, or a row on which ``metric`` is undefined or overflows, raises
    there, naming the dataset's row.

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
        raise DomainError(f"subset_size must be in [1, {ds.n}], got {subset_size}")
    if max_points is not None and subset_size > max_points:
        raise DistanceCapError(
            f"subset_size {subset_size} exceeds the exact-computation cap of "
            f"{max_points}; pass a smaller subset_size or a larger max_points"
        )
    m = resolve_metric(metric)
    _check_stats((stat,))
    # the whole dataset, once, before any draw, so an error names its row
    partition(ds)
    _check_vectors(ds.points, m)

    trial_values: list[float] = []
    class_scores: dict[int, list[float]] = {}
    for t in range(trials):
        rng = _philox(seed, t)
        for _ in range(max_retries):
            idx = np.sort(rng.choice(ds.n, size=subset_size, replace=False))
            try:
                (report,) = _dsi_reports(ds.subset(idx), m, (stat,), workers, None)
                break
            except (DegenerateDataset, DegenerateClass):
                pass  # refused before any distance is computed: draw again
        else:
            raise DegenerateSubset(
                f"trial {t}: no usable subset of size {subset_size} in "
                f"{max_retries} draws (every draw left a class below 2 points)"
            )
        trial_values.append(report.dsi)
        for c, s in report.per_class_similarity.items():
            class_scores.setdefault(c, []).append(s)

    values = np.asarray(trial_values)
    mean = float(values.mean())
    sd = float(values.std(ddof=1)) if trials > 1 else 0.0
    per_class = {c: float(np.mean(v)) for c, v in sorted(class_scores.items())}
    subsample = SubsampleStats(subset_size, trials, seed, mean, sd, tuple(trial_values))
    return _report(ds, m, stat, per_class, mean, time.perf_counter() - t0, subsample)


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
    # one copy of both samples, class 0 then class 1: contiguous classes,
    # so the DSI reads them as views
    points = np.concatenate([a, b])
    if not np.all(np.isfinite(points)):
        raise ValueError("points contain non-finite values")
    labels = np.repeat(np.arange(2, dtype=np.int64), [a.shape[0], b.shape[0]])
    ds = Dataset._adopt(points, labels)
    return dsi(ds, metric, stat=stat, workers=workers, max_points=max_points).dsi
