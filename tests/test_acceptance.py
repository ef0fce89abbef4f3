"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line on the real stdout so the verdicts
are visible in any pytest run.  The CIFAR-10 criterion needs the binary
archive locally (no network use here): point SEPARABILITY_CIFAR10 at
``cifar-10-binary.tar.gz`` (or an extracted batch file) to enable it;
without the variable that single test reports SKIP.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from separability import (
    GeneratorSpec,
    density,
    distribution_identity_score,
    dsi,
    dsi_subsampled,
    fit_mahalanobis,
    generate,
    icd_set,
    bcd_set,
    ks_statistic,
    load_cifar10_batch,
    load_cifar10_tar,
    n3,
    n4,
    pairwise_condensed,
    t1,
    wasserstein1,
)
from separability.cli import _uniform_identity_scores

from conftest import random_dataset, rng
from oracles import grid_ks, grid_wasserstein1, naive_pairwise

CIFAR_ENV = "SEPARABILITY_CIFAR10"

TABLE2_SHAPES = ("random", "spirals", "xor", "moons", "circles", "blobs")
TABLE2_COMPLEXITY = {
    "random": 0.994,
    "spirals": 0.953,
    "xor": 0.775,
    "moons": 0.643,
    "circles": 0.545,
    "blobs": 0.027,
}


# one verdict line per criterion; conftest echoes these after the run so
# they survive pytest's output capture
VERDICTS: list[str] = []


def _report(criterion: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {criterion} {name}: {status}"
    if detail:
        line += f" ({detail})"
    VERDICTS.append(line)
    print(line, flush=True)
    assert ok, line


def _skip(criterion: int, name: str, reason: str):
    line = f"ACCEPTANCE {criterion} {name}: SKIP ({reason})"
    VERDICTS.append(line)
    print(line, flush=True)
    pytest.skip(reason)


@pytest.fixture(scope="module")
def table2_datasets():
    return {
        shape: generate(GeneratorSpec(shape, 1000, seed=0)) for shape in TABLE2_SHAPES
    }


@pytest.fixture(scope="module")
def blobsd_sweep():
    """cluster_sd -> (ks complexity, wasserstein complexity) at 1000/class."""
    t0 = time.perf_counter()
    out = {}
    for sd in range(1, 10):
        ds = generate(GeneratorSpec("blobsd", 1000, seed=0, cluster_sd=float(sd)))
        out[sd] = (
            dsi(ds, stat="ks", workers=4).complexity,
            dsi(ds, stat="wasserstein", workers=4).complexity,
        )
    return out, time.perf_counter() - t0


def _load_local_cifar():
    path = os.environ.get(CIFAR_ENV)
    if not path or not Path(path).is_file():
        return None
    raw = Path(path).read_bytes()
    if path.endswith((".tar", ".tar.gz", ".tgz")):
        return load_cifar10_tar(raw, split="train")
    return load_cifar10_batch(raw)


def test_criterion_1_table2_reproduction(table2_datasets):
    complexity = {
        shape: dsi(ds, workers=4).complexity
        for shape, ds in table2_datasets.items()
    }
    ordered = all(
        complexity[a] > complexity[b]
        for a, b in zip(TABLE2_SHAPES, TABLE2_SHAPES[1:])
    )
    diffs = {s: abs(complexity[s] - TABLE2_COMPLEXITY[s]) for s in TABLE2_SHAPES}
    worst = max(diffs, key=diffs.get)
    ok = ordered and diffs[worst] <= 0.06
    _report(
        1,
        "table2-reproduction",
        ok,
        f"ordering {'ok' if ordered else 'VIOLATED'}; "
        f"worst |diff| {diffs[worst]:.4f} at {worst} (tolerance 0.06)",
    )


def test_criterion_2_baseline_spot_checks(table2_datasets):
    random_ds = table2_datasets["random"]
    blobs_ds = table2_datasets["blobs"]
    checks = {
        "N3(random)=0.500±0.03": abs(n3(random_ds).value - 0.500) <= 0.03,
        "N4(blobs)<=0.01": n4(blobs_ds, seed=0).value <= 0.01,
        "T1(blobs)<=0.01": t1(blobs_ds).value <= 0.01,
        "Density(blobs)=0.812±0.05": abs(density(blobs_ds).value - 0.812) <= 0.05,
    }
    failed = [name for name, ok in checks.items() if not ok]
    _report(
        2,
        "baseline-spot-checks",
        not failed,
        "all four spot checks in tolerance" if not failed else "failed: " + "; ".join(failed),
    )


def test_criterion_3_blobsd_monotonicity(blobsd_sweep):
    sweep, elapsed = blobsd_sweep
    values = [sweep[sd][0] for sd in range(1, 10)]
    diffs = [b - a for a, b in zip(values, values[1:])]
    # strictly increasing, allowing one adjacent tie within 0.005
    violations = [d for d in diffs if d <= 0.0]
    tie_ok = len(violations) <= 1 and all(abs(d) <= 0.005 for d in violations)
    endpoints_ok = values[0] < 0.1 and values[-1] > 0.8
    ok = tie_ok and endpoints_ok and elapsed < 120.0
    _report(
        3,
        "blobsd-monotonicity",
        ok,
        f"complexity {values[0]:.3f} -> {values[-1]:.3f}, "
        f"{len(violations)} non-increase(s), sweep took {elapsed:.1f}s",
    )


def test_criterion_4_uniform_convergence():
    scores_1k = _uniform_identity_scores(1000, seed=0, seeds=10, threads=4)
    scores_2k = _uniform_identity_scores(2000, seed=0, seeds=10, threads=4)
    mean_1k = float(np.mean(scores_1k))
    mean_2k = float(np.mean(scores_2k))
    in_band = abs(mean_1k - 0.0058) <= 0.004
    decreasing = mean_2k < mean_1k
    ok = in_band and decreasing
    _report(
        4,
        "uniform-convergence",
        ok,
        f"mean DSI {mean_1k:.4f} at 1000/class (target 0.0058±0.004), "
        f"{mean_2k:.4f} at 2000/class",
    )


def test_criterion_5_cifar10():
    ds = _load_local_cifar()
    if ds is None:
        _skip(
            5,
            "cifar10",
            f"no local CIFAR-10 archive; set {CIFAR_ENV} to cifar-10-binary.tar.gz",
        )
    report = dsi_subsampled(ds, subset_size=1000, trials=8, seed=0, workers=8)
    sub_ok = (
        abs(report.subsample.mean - 0.1043) <= 0.015
        and abs(report.subsample.sd - 0.0049) <= 0.004
    )

    airplanes = ds.points[ds.labels == 0]
    autos = ds.points[ds.labels == 1]
    air1, air2 = airplanes[:2500], airplanes[2500:5000]
    auto = autos[:2500]
    air_air = distribution_identity_score(air1, air2, workers=8)
    air_auto = distribution_identity_score(air1, auto, workers=8)
    split_ok = abs(air_air - 0.0045) <= 0.004 and abs(air_auto - 0.1083) <= 0.02

    sds = [
        dsi_subsampled(ds, subset_size=size, trials=8, seed=0, workers=8).subsample.sd
        for size in (100, 500, 1000, 5000)
    ]
    sweep_ok = all(a > b for a, b in zip(sds, sds[1:]))

    ok = sub_ok and split_ok and sweep_ok
    _report(
        5,
        "cifar10",
        ok,
        f"subset mean {report.subsample.mean:.4f} sd {report.subsample.sd:.4f}; "
        f"air/air {air_air:.4f}, air/auto {air_auto:.4f}; "
        f"sd sweep {'decreasing' if sweep_ok else 'NOT decreasing'}",
    )


def test_criterion_6_ks_wider_than_w(blobsd_sweep):
    sweep, _ = blobsd_sweep
    ks_vals = [sweep[sd][0] for sd in range(1, 10)]
    w_vals = [sweep[sd][1] for sd in range(1, 10)]
    ks_range = max(ks_vals) - min(ks_vals)
    w_range = max(w_vals) - min(w_vals)
    ok = ks_range > w_range
    _report(
        6,
        "ks-vs-w-sensitivity",
        ok,
        f"KS range {ks_range:.3f} vs W range {w_range:.3f}",
    )


def test_criterion_7_oracle_suites():
    failures = []
    g = rng(42)

    # ICD/BCD cardinalities for random set sizes
    for _ in range(20):
        m = int(g.integers(2, 60))
        r = int(g.integers(1, 60))
        own, rest = g.normal(size=(m, 3)), g.normal(size=(r, 3))
        if icd_set(own).cardinality != m * (m - 1) // 2:
            failures.append(f"ICD cardinality m={m}")
        if bcd_set(own, rest).cardinality != m * r:
            failures.append(f"BCD cardinality m={m} r={r}")

    # KS and W1 against dense-grid oracles
    for _ in range(50):
        a = g.normal(size=int(g.integers(1, 40)))
        b = g.normal(loc=g.normal(), size=int(g.integers(1, 40)))
        if abs(ks_statistic(a, b) - grid_ks(a, b)) > 1e-12:
            failures.append("KS grid oracle")
        span = max(np.ptp(np.concatenate([a, b])), 1.0)
        if abs(wasserstein1(a, b) - grid_wasserstein1(a, b)) > 1e-9 * span:
            failures.append("W1 grid oracle")

    # distance kernel against the naive double loop, all six metrics
    pts = g.normal(size=(200, 4)) + 2.0
    for metric in ("euclidean", "cityblock", "chebyshev", "correlation", "cosine"):
        if not np.allclose(
            pairwise_condensed(pts, metric), naive_pairwise(pts, metric), atol=1e-10
        ):
            failures.append(f"kernel vs naive {metric}")
    maha = fit_mahalanobis(pts)
    if not np.allclose(
        pairwise_condensed(pts, maha),
        naive_pairwise(pts, "mahalanobis", maha.inverse_covariance),
        rtol=1e-9,
    ):
        failures.append("kernel vs naive mahalanobis")

    # DSI invariances: label permutation, isometry, uniform scaling
    ds = random_dataset(n_per_class=40, dim=2, seed=3, spread=2.0)
    base = dsi(ds).dsi
    perm = ds.subset(g.permutation(ds.n))
    if abs(dsi(perm).dsi - base) > 1e-12:
        failures.append("label permutation invariance")
    theta = 1.1
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    from separability import Dataset

    moved = Dataset(ds.points @ rot.T + 11.0, ds.labels)
    if abs(dsi(moved).dsi - base) > 1e-9:
        failures.append("isometry invariance")
    scaled = Dataset(ds.points * 123.0, ds.labels)
    if abs(dsi(scaled).dsi - base) > 1e-12:
        failures.append("uniform scaling invariance")

    # worker-count determinism
    big = random_dataset(n_per_class=150, dim=3, seed=4, spread=1.0)
    r1 = dsi(big, workers=1).dsi
    if any(dsi(big, workers=w).dsi != r1 for w in (2, 8)):
        failures.append("worker determinism")

    _report(
        7,
        "oracle-suites",
        not failures,
        "cardinalities, KS/W1 grids, 6-metric kernel, invariances, workers"
        if not failures
        else "failed: " + "; ".join(sorted(set(failures))),
    )


def test_criterion_8_performance():
    ds = _load_local_cifar()
    if ds is not None:
        sample = ds.subset(np.arange(1000))
    else:
        # same shape and scale as 1000 CIFAR images
        g = rng(8)
        points = g.integers(0, 256, size=(1000, 3072)).astype(float)
        labels = np.repeat(np.arange(2, dtype=np.int64), 500)
        from separability import Dataset

        sample = Dataset(points, labels)

    t0 = time.perf_counter()
    single = dsi(sample, workers=1)
    t_single = time.perf_counter() - t0

    t0 = time.perf_counter()
    dsi(sample, workers=8)
    t_multi = time.perf_counter() - t0

    ok = t_single <= 30.0 and t_multi <= 5.0
    _report(
        8,
        "performance",
        ok,
        f"1000x3072 DSI {t_single:.2f}s single-threaded (limit 30), "
        f"{t_multi:.2f}s with 8 workers (limit 5); dsi={single.dsi:.4f}",
    )
