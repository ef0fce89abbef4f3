"""Workloads: seeded inputs, the CLI call each op makes, and its expected output.

Every workload has three parts:

* ``setup(seed, workdir)`` generates the inputs from the seed with the
  benchmark's own code (never the package's) and writes them to disk;
* ``argv(inputs, seed)`` is the ``separability`` command line of one op;
* ``expect(inputs)`` computes the reference outputs once per seed with
  scipy alone, and ``check(stdout, expected)`` compares an op's report
  with them, returning an error message or ``None``.

KS values and complexity measures must match the reference exactly and
Wasserstein values to ``W1_RTOL`` relative.  Every input is continuous
random data, so no distance ties occur and every reference is well defined.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial.distance import cdist, pdist, squareform
from scipy.stats import ks_2samp, wasserstein_distance

W1_RTOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int, Path], Any]
    argv: Callable[[Any, int], list[str]]
    expect: Callable[[Any], Any]
    check: Callable[[str, Any], "str | None"]


@dataclass(frozen=True)
class LabeledCsv:
    path: Path
    points: np.ndarray
    labels: np.ndarray


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def _write_float_csv(path: Path, points: np.ndarray, labels: np.ndarray) -> None:
    header = ",".join(f"x{i}" for i in range(points.shape[1])) + ",label\n"
    lines = [
        ",".join(repr(v) for v in row) + f",{c}\n"
        for row, c in zip(points.tolist(), labels.tolist())
    ]
    path.write_text(header + "".join(lines), encoding="utf-8")


# ---------------------------------------------------------------------------
# input generators (the benchmark's own; independent of the package)


def _moons(seed: int, n_per_class: int, noise: float) -> tuple[np.ndarray, np.ndarray]:
    parts = []
    for c in (0, 1):
        rng = _rng(seed, 100 + c)
        theta = rng.random(n_per_class) * np.pi
        if c == 0:
            pts = np.column_stack([np.cos(theta), np.sin(theta)])
        else:
            pts = np.column_stack([1.0 - np.cos(theta), 0.5 - np.sin(theta)])
        parts.append(pts + rng.normal(0.0, noise, size=(n_per_class, 2)))
    return np.vstack(parts), np.repeat(np.arange(2), n_per_class)


def _spirals(seed: int, n_per_class: int, noise: float) -> tuple[np.ndarray, np.ndarray]:
    parts = []
    for c in (0, 1):
        rng = _rng(seed, 200 + c)
        t = rng.random(n_per_class)
        angle = t * (5.0 * np.pi) + c * np.pi
        pts = np.column_stack([t * np.cos(angle), t * np.sin(angle)])
        parts.append(pts + rng.normal(0.0, noise, size=(n_per_class, 2)))
    return np.vstack(parts), np.repeat(np.arange(2), n_per_class)


def _blobsd(seed: int, n_per_class: int, sd: float) -> tuple[np.ndarray, np.ndarray]:
    """The points ``repro figure7`` draws for one cluster_sd.

    This restates the documented generator contract (Philox stream keyed by
    ``[seed, class]``, centres (0, 0) and (10, 0)) so the expected output can
    be computed without the package.
    """
    parts = [
        np.asarray(centre) + _rng(seed, c).normal(0.0, sd, size=(n_per_class, 2))
        for c, centre in enumerate(((0.0, 0.0), (10.0, 0.0)))
    ]
    return np.vstack(parts), np.repeat(np.arange(2), n_per_class)


# ---------------------------------------------------------------------------
# reference computations (scipy only)


def _class_sets(points: np.ndarray, labels: np.ndarray):
    """ICD and BCD multisets of every class, in ascending label order."""
    for c in np.unique(labels):
        inside = labels == c
        icd = pdist(points[inside])
        bcd = cdist(points[inside], points[~inside]).ravel()
        yield icd, bcd


def _ks(icd: np.ndarray, bcd: np.ndarray) -> float:
    return float(ks_2samp(icd, bcd, method="asymp").statistic)


def _w1_normalized(icd: np.ndarray, bcd: np.ndarray) -> float:
    span = max(icd.max(), bcd.max()) - min(icd.min(), bcd.min())
    return float(wasserstein_distance(icd, bcd) / span)


def reference_dsi(points: np.ndarray, labels: np.ndarray, stats=("ks",)) -> dict:
    """Per-class scores and their mean for each statistic in ``stats``."""
    funcs = {"ks": _ks, "wasserstein": _w1_normalized}
    per_class: dict[str, list[float]] = {s: [] for s in stats}
    for icd, bcd in _class_sets(points, labels):
        for s in stats:
            per_class[s].append(funcs[s](icd, bcd))
    return {s: (v, float(np.mean(v))) for s, v in per_class.items()}


def _touching_radii(D: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """T1 sphere radii: r(i) = d_e(i)/2 for mutual nearest enemies, else d_e(i) - r(e(i))."""
    Dx = np.where(labels[:, None] != labels[None, :], D, np.inf)
    enemy = Dx.argmin(axis=1)
    d_enemy = Dx.min(axis=1)
    radii = np.full(len(labels), np.nan)
    for start in range(len(labels)):
        chain = [start]
        while np.isnan(radii[chain[-1]]):
            i = chain[-1]
            if enemy[enemy[i]] == i:
                radii[i] = d_enemy[i] / 2.0
                break
            if len(chain) > len(labels):
                raise ValueError("nearest-enemy chain does not end: the input has distance ties")
            chain.append(int(enemy[i]))
        for i in reversed(chain[:-1]):
            radii[i] = d_enemy[i] - radii[enemy[i]]
    return radii


def reference_measures(points: np.ndarray, labels: np.ndarray, seed: int) -> dict[str, float]:
    """The eight complexity measures, from their definitions, as ``compare`` reports them."""
    n = len(labels)
    condensed = pdist(points)
    D = squareform(condensed)
    same = labels[:, None] == labels[None, :]
    classes = np.unique(labels)
    out: dict[str, float] = {}

    mu = points.mean(axis=0)
    between = np.zeros(points.shape[1])
    within = np.zeros(points.shape[1])
    for c in classes:
        block = points[labels == c]
        mu_c = block.mean(axis=0)
        between += len(block) * (mu_c - mu) ** 2
        within += ((block - mu_c) ** 2).sum(axis=0)
    out["F1"] = float(1.0 / (1.0 + (between / within).max()))

    tree = minimum_spanning_tree(D).tocoo()
    crossing = labels[tree.row] != labels[tree.col]
    out["N1"] = len(set(tree.row[crossing]) | set(tree.col[crossing])) / n

    off_diag = D + np.diag(np.full(n, np.inf))
    d_same = np.where(same, off_diag, np.inf).min(axis=1)
    d_enemy = np.where(same, np.inf, D).min(axis=1)
    r = float(d_same.sum()) / float(d_enemy.sum())
    out["N2"] = r / (1.0 + r)

    out["N3"] = float(np.mean(labels[off_diag.argmin(axis=1)] != labels))

    rng = _rng(seed, 0)
    synth = np.empty((n, points.shape[1]))
    synth_labels = np.empty(n, dtype=np.int64)
    for k in range(n):
        c = classes[int(rng.integers(len(classes)))]
        a, b = rng.choice(np.flatnonzero(labels == c), size=2, replace=False)
        t = rng.random()
        synth[k] = points[a] + t * (points[b] - points[a])
        synth_labels[k] = c
    out["N4"] = float(np.mean(labels[cdist(synth, points).argmin(axis=1)] != synth_labels))

    cover = (D <= _touching_radii(D, labels)[:, None]).astype(np.float32)
    size = cover.sum(axis=1)
    contained = (cover @ cover.T) == size[:, None]  # cover(i) is a subset of cover(j)
    np.fill_diagonal(contained, False)
    wins = (size[None, :] > size[:, None]) | (contained.T & (np.arange(n)[None, :] < np.arange(n)[:, None]))
    out["T1"] = float(np.mean(~(contained & wins).any(axis=1)))

    local = (same & (D < d_enemy[:, None])).sum(axis=1)
    out["LSC"] = float(1.0 - local.sum() / n**2)

    ii, jj = np.triu_indices(n, k=1)
    cut = np.quantile(condensed, 0.15)
    edges = int(np.count_nonzero((labels[ii] == labels[jj]) & (condensed <= cut)))
    out["Density"] = 1.0 - edges / condensed.size
    return out


# ---------------------------------------------------------------------------
# output checks


def _mismatch(what: str, got: float, want: float, rtol: float = 0.0) -> "str | None":
    if rtol == 0.0:
        return None if got == want else f"{what}: got {got!r}, expected {want!r}"
    return None if abs(got - want) <= rtol * abs(want) else f"{what}: got {got!r}, expected {want!r} (rtol {rtol})"


def _check_measure_report(stdout: str, expected: dict) -> "str | None":
    try:
        report = json.loads(stdout)
        got = {int(k): v for k, v in report["per_class_similarity"].items()}
        scores, mean = expected["ks"]
        errors = [_mismatch(f"class {c}", got.get(c, float("nan")), s) for c, s in enumerate(scores)]
        errors.append(_mismatch("dsi", report["dsi"], mean))
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}"
    if len(got) != len(scores):
        errors.append(f"{len(got)} classes reported, expected {len(scores)}")
    return next((e for e in errors if e), None)


def _check_compare_table(stdout: str, expected: dict) -> "str | None":
    try:
        rows = {row[0]: float(row[1]) for row in list(csv.reader(io.StringIO(stdout)))[1:]}
    except (ValueError, IndexError) as exc:
        return f"unreadable table: {exc!r}"
    if sorted(rows) != sorted(expected):
        return f"rows {sorted(rows)}, expected {sorted(expected)}"
    return next((e for e in (_mismatch(k, rows[k], v) for k, v in expected.items()) if e), None)


def _check_figure7_table(stdout: str, expected: dict) -> "str | None":
    try:
        rows = {int(r[0]): (float(r[1]), float(r[2])) for r in list(csv.reader(io.StringIO(stdout)))[1:]}
    except (ValueError, IndexError) as exc:
        return f"unreadable table: {exc!r}"
    if sorted(rows) != sorted(expected):
        return f"cluster_sd rows {sorted(rows)}, expected {sorted(expected)}"
    for sd, (ks, w1) in expected.items():
        error = _mismatch(f"sd {sd} ks", rows[sd][0], ks) or _mismatch(
            f"sd {sd} wasserstein", rows[sd][1], w1, W1_RTOL
        )
        if error:
            return error
    return None


# ---------------------------------------------------------------------------
# the four workloads


MOONS_PER_CLASS = 2500
SPIRALS_PER_CLASS = 1000
PIXEL_CLASSES, PIXELS_PER_CLASS, PIXEL_DIM = 10, 100, 3072
FIGURE7_PER_CLASS = 500
FIGURE7_SDS = range(1, 10)


def _setup_moons(seed: int, workdir: Path) -> LabeledCsv:
    points, labels = _moons(seed, MOONS_PER_CLASS, noise=0.1)
    path = workdir / "moons.csv"
    _write_float_csv(path, points, labels)
    return LabeledCsv(path, points, labels)


def _setup_spirals(seed: int, workdir: Path) -> LabeledCsv:
    points, labels = _spirals(seed, SPIRALS_PER_CLASS, noise=0.02)
    path = workdir / "spirals.csv"
    _write_float_csv(path, points, labels)
    return LabeledCsv(path, points, labels)


def _setup_pixels(seed: int, workdir: Path) -> LabeledCsv:
    """CIFAR-shaped rows: 3072 integer pixels, noisy copies of a per-class prototype.

    The prototypes are small perturbations of one shared image, so the
    classes overlap (DSI about 0.37) instead of separating perfectly.
    """
    rng = _rng(seed, 300)
    base = rng.integers(0, 256, size=PIXEL_DIM)
    prototypes = base + rng.normal(0.0, 8.0, size=(PIXEL_CLASSES, PIXEL_DIM))
    labels = np.repeat(np.arange(PIXEL_CLASSES), PIXELS_PER_CLASS)
    noise = rng.normal(0.0, 50.0, size=(labels.size, PIXEL_DIM))
    pixels = np.clip(np.rint(prototypes[labels] + noise), 0, 255).astype(np.int64)
    token = [str(v) for v in range(256)]
    header = ",".join(f"p{i}" for i in range(PIXEL_DIM)) + ",label\n"
    lines = [
        ",".join([token[v] for v in row]) + f",{c}\n"
        for row, c in zip(pixels.tolist(), labels.tolist())
    ]
    path = workdir / "pixels.csv"
    path.write_text(header + "".join(lines), encoding="utf-8")
    return LabeledCsv(path, pixels.astype(np.float64), labels)


def _setup_figure7(seed: int, workdir: Path) -> dict:
    """The nine blobsd datasets ``repro figure7`` draws, kept on disk for inspection."""
    datasets = {}
    for sd in FIGURE7_SDS:
        points, labels = _blobsd(seed, FIGURE7_PER_CLASS, float(sd))
        _write_float_csv(workdir / f"blobsd_sd{sd}.csv", points, labels)
        datasets[sd] = (points, labels)
    return datasets


def _expect_dsi(inputs: LabeledCsv) -> dict:
    return reference_dsi(inputs.points, inputs.labels)


def _expect_compare(inputs: LabeledCsv) -> dict:
    # N4 draws its interpolants with compare's default --seed, 0
    expected = reference_measures(inputs.points, inputs.labels, seed=0)
    expected["1-DSI"] = 1.0 - reference_dsi(inputs.points, inputs.labels)["ks"][1]
    return expected


def _expect_figure7(datasets: dict) -> dict:
    expected = {}
    for sd, (points, labels) in datasets.items():
        ref = reference_dsi(points, labels, stats=("ks", "wasserstein"))
        expected[sd] = (ref["ks"][1], ref["wasserstein"][1])
    return expected


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="moons-dsi",
            why="measure on 2x2500 2-D moons with KS on one thread: the DSI statistic and ICD/BCD gather dominate",
            setup=_setup_moons,
            argv=lambda inp, seed: ["measure", "--input", str(inp.path), "--threads", "1"],
            expect=_expect_dsi,
            check=_check_measure_report,
        ),
        Workload(
            name="spirals-compare",
            why="compare on 2x1000 spirals: eight complexity measures plus 1-DSI, seven pairwise passes",
            setup=_setup_spirals,
            argv=lambda inp, seed: ["compare", "--input", str(inp.path), "--format", "csv"],
            expect=_expect_compare,
            check=_check_compare_table,
        ),
        Workload(
            name="pixels-measure",
            why="measure on a 1000x3072 integer CSV in 10 classes with 2 threads: CSV parsing and the high-dim kernel",
            setup=_setup_pixels,
            argv=lambda inp, seed: ["measure", "--input", str(inp.path), "--threads", "2"],
            expect=_expect_dsi,
            check=_check_measure_report,
        ),
        Workload(
            name="blobsd-figure7",
            why="repro figure7 at 500 per class: 18 DSI calls on n=1000, the only KS+Wasserstein and generator path",
            setup=_setup_figure7,
            argv=lambda inp, seed: ["repro", "figure7", "--n-per-class", str(FIGURE7_PER_CLASS), "--seed", str(seed)],
            expect=_expect_figure7,
            check=_check_figure7_table,
        ),
    )
}
