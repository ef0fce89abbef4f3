"""Separability index: cardinalities, invariances, and the brute oracle."""

import sys
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist, pdist

from separability import (
    Dataset,
    GeneratorSpec,
    DegenerateClass,
    DegenerateDataset,
    DegenerateSubset,
    DegenerateVector,
    DistanceCapError,
    DistanceMetric,
    DomainError,
    class_distance_sets,
    distribution_identity_score,
    dsi,
    dsi_subsampled,
    fit_mahalanobis,
    generate,
    ks_statistic,
    wasserstein1_normalized,
)

from separability.dsi import _dsi_reports

from conftest import HUGE_NORM_ROWS, random_dataset, rng, traced_peak
from oracles import brute_dsi, grid_ks, grid_wasserstein1


def _grid_w1_normalized(a, b):
    span = max(a + b) - min(a + b)
    return grid_wasserstein1(a, b) / span if span else 0.0


class TestClassDistanceSets:
    def test_cardinalities(self):
        ds = random_dataset(n_per_class=8, classes=3, seed=1)
        sets = class_distance_sets(ds)
        assert sorted(sets) == [0, 1, 2]
        for label, (icd, bcd) in sets.items():
            assert icd.cardinality == 8 * 7 // 2
            assert bcd.cardinality == 8 * 16
            assert icd.label == label and bcd.label == label

    def test_matches_direct_computation(self):
        # the class-by-class sets equal computing each set alone
        ds = random_dataset(n_per_class=10, classes=2, seed=2)
        sets = class_distance_sets(ds)
        for label in (0, 1):
            mine = ds.points[ds.labels == label]
            rest = ds.points[ds.labels != label]
            icd_direct = sorted(
                float(np.linalg.norm(mine[i] - mine[j]))
                for i in range(10)
                for j in range(i + 1, 10)
            )
            bcd_direct = sorted(
                float(np.linalg.norm(p - q)) for p in mine for q in rest
            )
            np.testing.assert_allclose(np.sort(sets[label][0].values), icd_direct)
            np.testing.assert_allclose(np.sort(sets[label][1].values), bcd_direct)

    def test_singleton_class_rejected(self):
        ds = Dataset(points=np.ones((3, 2)), labels=[0, 0, 1])
        with pytest.raises(DegenerateClass) as exc:
            class_distance_sets(ds)
        assert exc.value.label == 1

    def test_one_class_rejected(self):
        ds = Dataset(points=np.ones((4, 2)), labels=[0, 0, 0, 0])
        with pytest.raises(DegenerateDataset):
            class_distance_sets(ds)

    def test_cap_enforced(self):
        ds = random_dataset(n_per_class=30, seed=3)
        with pytest.raises(DistanceCapError, match="exceed"):
            class_distance_sets(ds, max_points=59)
        class_distance_sets(ds, max_points=60)  # exactly at the cap is fine


    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_gather_tied_interleaved(self, data):
        # labels take turns (never class-contiguous) and carry gaps between
        # their values; integer coordinates 0..3 make distances tie heavily
        k = data.draw(st.integers(2, 5), label="classes")
        n = data.draw(st.integers(2 * k, 5 * k), label="n")
        dim = data.draw(st.integers(1, 3), label="dim")
        coords = data.draw(st.lists(st.integers(0, 3), min_size=n * dim, max_size=n * dim))
        points = np.asarray(coords, dtype=float).reshape(n, dim)
        labels = 3 * (np.arange(n) % k) + 1
        ds = Dataset(points, labels)

        workers = data.draw(st.sampled_from([1, 3]), label="workers")
        sets = class_distance_sets(ds, workers=workers)
        assert sorted(sets) == sorted(set(labels.tolist()))
        for label, (icd, bcd) in sets.items():
            mine, rest = points[labels == label], points[labels != label]
            assert np.array_equal(icd.values, np.sort(pdist(mine)))
            assert np.array_equal(bcd.values, np.sort(cdist(mine, rest).ravel()))
            for values in (icd.values, bcd.values):
                assert np.all(values[:-1] <= values[1:])
                assert not values.flags.writeable
        if k == 2:
            first, second = sets.values()
            assert first[1].values is second[1].values

        assert dsi(ds, stat="ks").dsi == brute_dsi(points, labels, ks_statistic)
        assert dsi(ds, stat="wasserstein").dsi == pytest.approx(
            brute_dsi(points, labels, wasserstein1_normalized), rel=1e-12
        )


    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_coarse_bins_tied_shuffled(self, data):
        # one to a few bins put most distances, runs of ties among them, in
        # refined bins; kernel blocks of two rows give the second worker
        # blocks of its own
        k = data.draw(st.integers(2, 5), label="classes")
        n = data.draw(st.integers(2 * k, 6 * k), label="n")
        dim = data.draw(st.integers(1, 3), label="dim")
        coords = data.draw(st.lists(st.integers(0, 3), min_size=n * dim, max_size=n * dim))
        points = np.asarray(coords, dtype=float).reshape(n, dim)
        labels = np.asarray(data.draw(st.permutations((np.arange(n) % k).tolist()), label="labels"))
        target = data.draw(st.sampled_from([1, 2, 4, 8]), label="bins")
        ds = Dataset(points, labels)

        results = []
        with (
            mock.patch.object(sys.modules["separability.stats"], "_bin_target", lambda largest: target),
            mock.patch.object(sys.modules["separability.distances"], "_BLOCK_ROWS", 2),
        ):
            for workers in (1, 2):
                reports = _dsi_reports(ds, "euclidean", ("ks", "wasserstein"), workers, None)
                results.append([(r.dsi, r.per_class_similarity) for r in reports])
        assert results[0] == results[1]
        (ks, _), (wasserstein, _) = results[0]
        assert ks == brute_dsi(points, labels, grid_ks)
        assert wasserstein == pytest.approx(
            brute_dsi(points, labels, _grid_w1_normalized), rel=1e-12
        )

    @pytest.mark.parametrize("classes", [2, 3, 5])
    def test_every_pair_computed_once(self, classes, computed_pairs):
        # pass 1 computes every pair once, and it is the only pass when every
        # bin is settled by its counts, as for classes far apart; pass 2, run
        # when some bin is refined, as for overlapping classes, computes each
        # pair at most once (see TestPrunedPassTwo) and, on these 2-D
        # classes, skips some; the stored multisets take one pass.  150 rows
        # per class span several kernel blocks; labels are interleaved.
        order = rng(26).permutation(150 * classes)
        pairs = 150 * classes * (150 * classes - 1) // 2
        for spread in (1000.0, 6.0):
            ds = random_dataset(n_per_class=150, dim=2, classes=classes, seed=25, spread=spread)
            computed_pairs.clear()
            _dsi_reports(ds.subset(order), "euclidean", ("ks", "wasserstein"), 1, None)
            if spread > 6.0:
                assert sum(computed_pairs) == pairs
            else:
                assert pairs < sum(computed_pairs) < 2 * pairs
        computed_pairs.clear()
        class_distance_sets(ds.subset(order), workers=3)
        assert sum(computed_pairs) == pairs

    def test_memory_below_a_quarter_of_one_class_multisets(self):
        # the multisets are streamed, never stored: 2x2500 moons hold 3.1M
        # ICD and 6.25M BCD distances per class, 75 MB as float64
        ds = generate(GeneratorSpec("moons", 2500, seed=1, noise=0.1))
        report, peak = traced_peak(lambda: dsi(ds))
        assert peak < 0.25 * 8 * (2500 * 2499 // 2 + 2500 * 2500)
        # the values that sorting and merging the stored multisets gave
        assert [v.hex() for v in report.per_class_similarity.values()] == [
            "0x1.613d3a831d1a2p-2",
            "0x1.5e07e5ec94c50p-2",
        ]

    def test_memory_with_many_values_kept(self):
        # three overlapping classes leave 2.2M distances, 17 MiB as float64,
        # in refined bins; kept as plain values, one array per multiset, and
        # ranked in runs of whole bins, they peak near 22 MiB
        ds = random_dataset(n_per_class=2000, dim=2, classes=3, seed=0)
        _, peak = traced_peak(lambda: dsi(ds))
        assert peak < 80 * 2**20

    def test_memory_with_many_values_kept_ks_and_w1(self):
        # both statistics from one call: W1's ranking adds only arrays of
        # one run's size to the kept values
        ds = random_dataset(n_per_class=2000, dim=2, classes=3, seed=0)
        _, peak = traced_peak(lambda: _dsi_reports(ds, "euclidean", ("ks", "wasserstein"), 1, None))
        assert peak < 40 * 2**20

    def test_stored_multisets_filled_in_place(self):
        # each kernel block is written straight into the multiset it feeds:
        # the peak stays below the stored values plus two 128-row blocks
        ds = generate(GeneratorSpec("moons", 2500, seed=1, noise=0.1))
        _, peak = traced_peak(lambda: class_distance_sets(ds))
        stored = 8 * (2 * (2500 * 2499 // 2) + 2500 * 2500)
        assert peak < stored + 2 * 8 * 128 * 2500

    @pytest.mark.parametrize(
        "metric, value",
        [("cosine", 0.0), ("correlation", 1.5), ("correlation", 0.1)],
        ids=["cosine", "correlation", "correlation-mean-rounds"],
    )
    def test_degenerate_vector_names_the_dataset_row(self, metric, value):
        # row 5 is the third row of class 1 and the third of the rest of
        # class 0: only a check over the whole dataset names row 5; the
        # mean of a constant 0.1 row rounds, so centring leaves it nonzero
        points = rng(24).normal(size=(10, 3))
        points[5] = value
        ds = Dataset(points, np.arange(10) % 2)
        with pytest.raises(DegenerateVector) as exc:
            dsi(ds, metric=metric)
        assert exc.value.index == 5
        assert "index 5" in str(exc.value)


def _scipy_dsi(ds: Dataset, metric: str) -> tuple[float, float]:
    """KS and normalized W1 DSI from scipy's multisets, class by class."""
    ks, w1 = [], []
    for label in np.unique(ds.labels):
        mine, rest = ds.points[ds.labels == label], ds.points[ds.labels != label]
        icd, bcd = pdist(mine, metric), cdist(mine, rest, metric).ravel()
        ks.append(ks_statistic(icd, bcd))
        w1.append(wasserstein1_normalized(icd, bcd))
    return float(np.mean(ks)), float(np.mean(w1))


class TestPrunedPassTwo:
    """Pass 2 computes only the pairs whose distance can reach a refined
    bin, grouped around pivots, and checks what it kept against pass 1."""

    @staticmethod
    def _pass_two_pairs(monkeypatch, ds: Dataset, run) -> list[tuple[int, int]]:
        """The pairs of rows of ``ds`` (distinct rows) that the kernel
        computes while ``run()`` walks pass 2, once per computation."""
        distances, stats = sys.modules["separability.distances"], sys.modules["separability.stats"]
        index = {row.tobytes(): i for i, row in enumerate(ds.points)}
        pdist_, cdist_, walk_tasks = distances.pdist, distances.cdist, stats._walk_tasks
        seen, in_pass_two = [], []

        def rows(points):
            return [index[row.tobytes()] for row in points]

        def counted_pdist(points, **kwargs):
            if in_pass_two:
                at = rows(points)
                seen.extend((a, b) for k, a in enumerate(at) for b in at[k + 1 :])
            return pdist_(points, **kwargs)

        def counted_cdist(points_a, points_b, **kwargs):
            if in_pass_two:
                seen.extend((a, b) for a in rows(points_a) for b in rows(points_b))
            return cdist_(points_a, points_b, **kwargs)

        def marked_walk(*args):
            in_pass_two.append(True)
            return walk_tasks(*args)

        monkeypatch.setattr(distances, "pdist", counted_pdist)
        monkeypatch.setattr(distances, "cdist", counted_cdist)
        monkeypatch.setattr(stats, "_walk_tasks", marked_walk)
        run()
        return [tuple(sorted(pair)) for pair in seen]

    @pytest.mark.parametrize("classes", [2, 3])
    def test_each_pair_at_most_once(self, monkeypatch, classes):
        # a pair of two classes is computed at most once; a pair within one
        # class more often only as a delta row: one of a cross group's rows
        # against the group's pivot, computed for each cross source whose
        # rows are that class (k - 1 - c of them for class c)
        ds = random_dataset(n_per_class=150, dim=2, classes=classes, seed=25, spread=6.0)
        seen = self._pass_two_pairs(
            monkeypatch, ds, lambda: _dsi_reports(ds, "euclidean", ("ks", "wasserstein"), 1, None)
        )
        n = ds.n
        assert 0 < len(seen) < n * (n - 1) // 2
        counts = Counter(seen)
        labels = ds.labels
        assert all(count == 1 for (a, b), count in counts.items() if labels[a] != labels[b])
        repeats = sum(count - 1 for count in counts.values())
        assert repeats <= sum(150 * (classes - 1 - c) for c in range(classes))

    @pytest.fixture(scope="class")
    def tied(self):
        """Integer points in 3-D, three classes of moons, with the brute
        force KS and normalized W1 DSI: runs of tied distances."""
        moons = generate(GeneratorSpec("moons", 300, seed=1, noise=0.1))
        third = generate(GeneratorSpec("moons", 150, seed=2, noise=0.1)).points + [0.5, 1.0]
        plane = np.rint(20 * np.vstack([moons.points, third]))
        points = np.column_stack([plane, rng(28).integers(0, 3, size=900)])
        labels = np.concatenate([moons.labels, np.full(300, 2)])
        brute = [brute_dsi(points, labels, stat) for stat in (ks_statistic, wasserstein1_normalized)]
        return Dataset(points, labels), *brute

    @pytest.mark.parametrize("workers", [1, 3])
    def test_tied_integer_points(self, tied, workers, computed_pairs):
        # refined bins among runs of ties, and pruning
        ds, want_ks, want_w1 = tied
        computed_pairs.clear()
        ks, w1 = _dsi_reports(ds, "euclidean", ("ks", "wasserstein"), workers, None)
        pairs = 900 * 899 // 2
        assert pairs < sum(computed_pairs) < 2 * pairs  # pass 2 ran, and skipped pairs
        assert ks.dsi.hex() == want_ks.hex()
        assert w1.dsi == pytest.approx(want_w1, rel=1e-12)

    @pytest.mark.parametrize("metric", ["euclidean", "cityblock", "chebyshev"])
    def test_wide_rows(self, metric, computed_pairs):
        # moons on a plane in 64 dimensions: scipy's kernel, and pivots that
        # prune
        moons = generate(GeneratorSpec("moons", 300, seed=1, noise=0.1))
        ds = Dataset(moons.points @ rng(29).normal(size=(2, 64)), moons.labels)
        want_ks, want_w1 = _scipy_dsi(ds, metric)
        for workers in (1, 3):
            computed_pairs.clear()
            ks, w1 = _dsi_reports(ds, metric, ("ks", "wasserstein"), workers, None)
            assert sum(computed_pairs) < 2 * (600 * 599 // 2)
            assert ks.dsi.hex() == want_ks.hex()
            assert w1.dsi == pytest.approx(want_w1, rel=1e-12)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_pruning_forced_on_any_points(self, data):
        # every source pruned, however little it saves: small groups over
        # tied integer points, coincident points and 1-3 features, with
        # coarse bins, give the brute-force values
        k = data.draw(st.integers(2, 4), label="classes")
        n = data.draw(st.integers(2 * k, 40), label="n")
        dim = data.draw(st.integers(1, 3), label="dim")
        coords = data.draw(st.lists(st.integers(0, 5), min_size=n * dim, max_size=n * dim))
        points = np.asarray(coords, dtype=float).reshape(n, dim)
        labels = np.asarray(data.draw(st.permutations((np.arange(n) % k).tolist()), label="labels"))
        target = data.draw(st.sampled_from([1, 4, 16, 1 << 16]), label="bins")
        ds = Dataset(points, labels)
        stats, distances = sys.modules["separability.stats"], sys.modules["separability.distances"]
        results = []
        with (
            mock.patch.object(stats, "_bin_target", lambda largest: target),
            mock.patch.object(stats._Wanted, "_sparse", lambda *args: True),
            mock.patch.object(distances, "_GROUP_ROWS", data.draw(st.integers(1, 6), label="rows")),
        ):
            for workers in (1, 2):
                reports = _dsi_reports(ds, "euclidean", ("ks", "wasserstein"), workers, None)
                results.append([(r.dsi, r.per_class_similarity) for r in reports])
        assert results[0] == results[1]
        (ks, _), (wasserstein, _) = results[0]
        assert ks == brute_dsi(points, labels, grid_ks)
        assert wasserstein == pytest.approx(
            brute_dsi(points, labels, _grid_w1_normalized), rel=1e-12
        )

    def test_a_broken_bound_raises(self, monkeypatch):
        # bounds narrower than the rounding proof allows skip pairs that
        # reach a refined bin: the count check refuses the result
        distances = sys.modules["separability.distances"]
        ds = random_dataset(n_per_class=150, dim=2, classes=2, seed=25, spread=6.0)
        _dsi_reports(ds, "euclidean", ("ks",), 1, None)
        monkeypatch.setattr(distances, "_slack", lambda width: (-0.5, 0.0))
        for workers in (1, 3):
            with pytest.raises(RuntimeError, match="pass 2 kept"):
                _dsi_reports(ds, "euclidean", ("ks",), workers, None)


def _tied_points(classes: int, seed: int, per_class: int | None = None) -> Dataset:
    """Integer points in 0..3 in three features, shuffled labels: distances
    tie heavily under every metric.  No row is constant or zero, so cosine
    and correlation are defined."""
    n = (per_class or {2: 150, 3: 90}[classes]) * classes
    g = rng(seed)
    points = g.integers(0, 4, size=(n, 3)).astype(float)
    constant = np.all(points == points[:, :1], axis=1)
    points[constant, 0] = (points[constant, 0] + 1) % 4
    return Dataset(points, g.permutation(np.arange(n) % classes))


# Per-class KS of _tied_points(classes, 40 + classes), as float.hex, from the
# sorted-merge implementation that stored each multiset whole
KS_PINS = {
    (2, "euclidean"): ["0x1.1342cf347f100p-8", "0x1.93d9af156c900p-8"],
    (2, "cityblock"): ["0x1.917c271cd85e0p-9", "0x1.30a4682ad3f80p-8"],
    (2, "chebyshev"): ["0x1.43a9ad8dd4a00p-8", "0x1.bb5b8e22fea40p-9"],
    (2, "correlation"): ["0x1.64107421d3c80p-7", "0x1.8a981affb0000p-7"],
    (2, "cosine"): ["0x1.2a63009315060p-6", "0x1.312cc6c9f3410p-6"],
    (2, "mahalanobis"): ["0x1.415126b4ed080p-7", "0x1.19522b8f800c0p-7"],
    (3, "euclidean"): ["0x1.f750bd5700f80p-7", "0x1.a80b08b62b600p-7", "0x1.30227a2202240p-8"],
    (3, "cityblock"): ["0x1.b3053343ed5c0p-7", "0x1.75683265bf210p-7", "0x1.3cdca40cdba00p-8"],
    (3, "chebyshev"): ["0x1.a4c5387277200p-8", "0x1.7dc546a0fd980p-8", "0x1.12e8563726780p-8"],
    (3, "correlation"): ["0x1.0b28590899ce0p-5", "0x1.91453f89ba5c0p-7", "0x1.d23f56749abe0p-7"],
    (3, "cosine"): ["0x1.1379ca5f59520p-5", "0x1.09257109a85a0p-6", "0x1.a68df1faedd40p-6"],
    (3, "mahalanobis"): ["0x1.0ad11356e1b20p-6", "0x1.046572c3d6440p-6", "0x1.3239bf30d1c00p-7"],
}


class TestPinnedValues:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("classes,metric", sorted(KS_PINS))
    def test_ks_bits(self, classes, metric, workers):
        ds = _tied_points(classes, 40 + classes)
        m = fit_mahalanobis(ds) if metric == "mahalanobis" else metric
        report = dsi(ds, m, stat="ks", workers=workers)
        assert [v.hex() for v in report.per_class_similarity.values()] == KS_PINS[classes, metric]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("metric", ["euclidean", "chebyshev", "cosine"])
    def test_wasserstein_tied(self, metric, workers):
        ds = _tied_points(3, 43, per_class=20)
        report = dsi(ds, metric, stat="wasserstein", workers=workers)
        for label, score in report.per_class_similarity.items():
            mine, rest = ds.points[ds.labels == label], ds.points[ds.labels != label]
            icd, bcd = pdist(mine, metric).tolist(), cdist(mine, rest, metric).ravel().tolist()
            assert score == pytest.approx(_grid_w1_normalized(icd, bcd), rel=1e-12)

    @pytest.mark.parametrize("shift", [1e-4, 1e-9])
    def test_wasserstein_near_identical(self, shift):
        # the second sample is the first moved a little: ICD and BCD nearly
        # coincide and |P - Q| changes sign throughout
        a = rng(44).normal(size=(60, 2))
        b = a + shift * rng(45).normal(size=(60, 2))
        points = np.concatenate([a, b])
        labels = np.repeat([0, 1], 60)
        score = distribution_identity_score(a, b, stat="wasserstein")
        assert score == pytest.approx(brute_dsi(points, labels, _grid_w1_normalized), rel=1e-12)


class TestDsi:
    @pytest.mark.parametrize("stat", ["ks", "wasserstein"])
    def test_matches_brute_oracle(self, stat):
        stat_fn = {"ks": ks_statistic, "wasserstein": wasserstein1_normalized}[stat]
        for seed in range(3):
            ds = random_dataset(n_per_class=15, classes=3, seed=seed, spread=2.0)
            report = dsi(ds, stat=stat)
            want = brute_dsi(ds.points, ds.labels, stat_fn)
            assert report.dsi == pytest.approx(want, abs=1e-12)

    def test_report_fields(self, small_two_class):
        report = dsi(small_two_class)
        assert report.n_points == 40 and report.dim == 2
        assert report.metric == "euclidean" and report.stat == "ks"
        assert sorted(report.per_class_similarity) == [0, 1]
        assert report.dsi == pytest.approx(
            np.mean(list(report.per_class_similarity.values()))
        )

    def test_complexity_is_exact_complement(self, small_two_class):
        report = dsi(small_two_class)
        assert report.dsi + report.complexity == 1.0

    def test_separated_beats_mixed(self):
        mixed = random_dataset(n_per_class=60, seed=4, spread=0.0)
        apart = random_dataset(n_per_class=60, seed=4, spread=12.0)
        assert dsi(apart).dsi > 0.8 > 0.35 > dsi(mixed).dsi

    def test_bounds(self):
        for seed in range(5):
            ds = random_dataset(n_per_class=10, seed=seed, spread=float(seed))
            r = dsi(ds)
            assert 0.0 <= r.dsi <= 1.0
            for s in r.per_class_similarity.values():
                assert 0.0 <= s <= 1.0

    def test_label_permutation_invariance(self):
        ds = random_dataset(n_per_class=25, seed=5, spread=1.5)
        perm = rng(6).permutation(ds.n)
        shuffled = ds.subset(perm)
        a, b = dsi(ds), dsi(shuffled)
        assert a.dsi == pytest.approx(b.dsi, abs=1e-12)
        for c in a.per_class_similarity:
            assert a.per_class_similarity[c] == pytest.approx(
                b.per_class_similarity[c], abs=1e-12
            )

    def test_isometry_invariance(self):
        # euclidean distances ignore rotation and translation
        ds = random_dataset(n_per_class=30, seed=7, spread=2.0)
        theta = 0.83
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        moved = Dataset(ds.points[:, :2] @ rot.T + 5.0, ds.labels)
        base = dsi(Dataset(ds.points[:, :2], ds.labels))
        assert dsi(moved).dsi == pytest.approx(base.dsi, abs=1e-9)

    def test_scale_invariance_of_ks(self):
        # KS compares ranks, so uniform scaling drops out exactly
        ds = random_dataset(n_per_class=30, seed=8, spread=2.0)
        scaled = Dataset(ds.points * 37.5, ds.labels)
        assert dsi(scaled).dsi == pytest.approx(dsi(ds).dsi, abs=1e-12)

    @pytest.mark.parametrize("workers", [2, 8])
    def test_workers_identical(self, workers):
        ds = random_dataset(n_per_class=100, classes=3, seed=9, spread=1.0)
        assert dsi(ds, workers=workers).dsi == dsi(ds, workers=1).dsi

    def test_workers_identical_bits_over_many_blocks(self):
        # 900 points a class: kernel blocks of 72 rows (the value budget),
        # 13 to each class's ICD and to each pair of classes
        ds = random_dataset(n_per_class=900, classes=3, seed=10, spread=1.0)
        assert len(sys.modules["separability.distances"]._row_blocks(900)) == 13
        bits = []
        for workers in (1, 3):
            reports = _dsi_reports(ds, "euclidean", ("ks", "wasserstein"), workers, None)
            bits.append([v.hex() for r in reports for v in (r.dsi, *r.per_class_similarity.values())])
        assert bits[0] == bits[1]

    def test_mahalanobis_metric(self, small_two_class):
        metric = fit_mahalanobis(small_two_class)
        report = dsi(small_two_class, metric=metric)
        assert report.metric == "mahalanobis"
        assert 0.0 <= report.dsi <= 1.0

    def test_overflowing_distances_rejected(self):
        ds = Dataset(rng(28).normal(size=(40, 2)) * 1e160, np.arange(40) % 2)
        with pytest.raises(DomainError, match="overflow"):
            dsi(ds)

    def test_huge_coordinates_with_small_distances(self):
        # coordinates near 1e308 of one sign: their mean overflows, their
        # midrange cannot, and every distance is 1 to 3
        labels = [0, 0, 1, 1]
        huge = Dataset([[1e308, 0], [1e308, 1], [1e308, 2], [1e308, 3]], labels)
        small = Dataset([[0, 0], [0, 1], [0, 2], [0, 3]], labels)
        assert dsi(huge).to_dict() == dsi(small).to_dict()

    def test_overflowing_distance_sets_rejected(self):
        # the stored multisets are refused as the DSI is, not filled with inf
        ds = Dataset([[1e308, 0], [-1e308, 0], [0, 1], [1, 1]], [0, 0, 1, 1])
        with pytest.raises(DomainError, match="overflow"):
            class_distance_sets(ds)

    @pytest.mark.parametrize("metric", ["euclidean", "mahalanobis"])
    def test_overflowing_squares_rejected(self, metric):
        # the distance bound, 2.4e154, is finite, but the kernel's sum of
        # squares for the first two points is not
        points = np.array([[1.2e154, 0], [-1.2e154, 0], [0, 1], [1, 1]])
        ds = Dataset(points, [0, 0, 1, 1])
        if metric == "mahalanobis":
            metric = DistanceMetric("mahalanobis", np.eye(2))
        for call in (dsi, class_distance_sets):
            with pytest.raises(DomainError, match="overflow"):
                call(ds, metric)

    @pytest.mark.parametrize("metric", ["cosine", "correlation"])
    def test_overflowing_norms_rejected(self, metric):
        # both metrics divide by each row's norm (centred, for correlation):
        # a row whose squared norm overflows is refused by its index, not
        # turned into NaN distances
        points, row = HUGE_NORM_ROWS[metric]
        ds = Dataset(points, [0, 0, 1, 1])
        for call in (dsi, class_distance_sets):
            with pytest.raises(DomainError, match=f"overflows float64 for the vector at index {row}"):
                call(ds, metric)

    def test_unknown_stat(self, small_two_class):
        with pytest.raises(ValueError, match="unknown statistic"):
            dsi(small_two_class, stat="cramer")

    def test_to_dict_shape(self, small_two_class):
        d = dsi(small_two_class).to_dict()
        assert list(d) == [
            "n_points",
            "dim",
            "metric",
            "stat",
            "per_class_similarity",
            "dsi",
            "complexity",
        ]
        assert "wall_time_s" not in d
        timed = dsi(small_two_class).to_dict(include_timing=True)
        assert "wall_time_s" in timed

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_mean_of_per_class(self, seed):
        ds = random_dataset(n_per_class=6, classes=3, seed=seed, spread=1.0)
        report = dsi(ds)
        assert report.dsi == pytest.approx(
            np.mean(list(report.per_class_similarity.values())), abs=1e-15
        )


# dsi_subsampled on 2x40 moons (seed 7), subsets of 8, 6 trials, seed 11
SUBSAMPLED_KS = [
    "0x1.7777777777778p-2", "0x1.7777777777778p-2", "0x1.2000000000000p-1",
    "0x1.6eeeeeeeeeeeep-1", "0x1.0000000000000p-1", "0x1.a000000000000p-2",
]
SUBSAMPLED_W1 = [
    0.20049106390263177, 0.14352570396298606, 0.34085128831117983,
    0.2845275357286601, 0.20322457347150547, 0.17030326259291023,
]


class TestDsiSubsampled:
    def test_deterministic(self):
        ds = random_dataset(n_per_class=80, seed=10, spread=2.0)
        a = dsi_subsampled(ds, subset_size=40, trials=4, seed=3)
        b = dsi_subsampled(ds, subset_size=40, trials=4, seed=3)
        assert a.subsample.values == b.subsample.values
        assert a.dsi == b.dsi

    def test_full_size_subset_equals_exact(self):
        ds = random_dataset(n_per_class=30, seed=11, spread=2.0)
        exact = dsi(ds)
        sub = dsi_subsampled(ds, subset_size=ds.n, trials=3, seed=0)
        assert sub.subsample.sd == 0.0
        assert sub.dsi == pytest.approx(exact.dsi, abs=1e-15)

    def test_report_aggregates(self):
        ds = random_dataset(n_per_class=60, seed=12, spread=1.0)
        report = dsi_subsampled(ds, subset_size=50, trials=5, seed=1)
        s = report.subsample
        assert s.trials == 5 and s.subset_size == 50 and s.seed == 1
        assert len(s.values) == 5
        assert s.mean == pytest.approx(np.mean(s.values))
        assert s.sd == pytest.approx(np.std(s.values, ddof=1))
        assert report.dsi == s.mean
        assert report.complexity == 1.0 - s.mean
        assert report.n_points == ds.n  # reports the full dataset size

    def test_estimates_track_exact_value(self):
        ds = random_dataset(n_per_class=150, seed=13, spread=3.0)
        exact = dsi(ds).dsi
        est = dsi_subsampled(ds, subset_size=120, trials=6, seed=2).dsi
        assert est == pytest.approx(exact, abs=0.1)

    def test_single_trial_sd_zero(self):
        ds = random_dataset(n_per_class=20, seed=14)
        assert dsi_subsampled(ds, subset_size=20, trials=1).subsample.sd == 0.0

    def test_impossible_subset_raises(self):
        # subsets of size 2 can never hold two points of each class
        ds = random_dataset(n_per_class=50, seed=15)
        with pytest.raises(DegenerateSubset, match="no usable subset"):
            dsi_subsampled(ds, subset_size=2, trials=1, max_retries=5)

    def test_subset_size_validated(self):
        ds = random_dataset(n_per_class=10, seed=16)
        with pytest.raises(ValueError, match="subset_size"):
            dsi_subsampled(ds, subset_size=0)
        with pytest.raises(ValueError, match="subset_size"):
            dsi_subsampled(ds, subset_size=21)

    def test_trials_validated(self):
        ds = random_dataset(n_per_class=10, seed=17)
        with pytest.raises(ValueError, match="trials"):
            dsi_subsampled(ds, subset_size=10, trials=0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_uint64_rejected(self, seed):
        ds = random_dataset(n_per_class=10, seed=17)
        with pytest.raises(DomainError, match=r"seed must be in \[0, 2\*\*64\)"):
            dsi_subsampled(ds, subset_size=10, seed=seed)

    def test_largest_seed_accepted(self):
        ds = random_dataset(n_per_class=10, seed=17)
        report = dsi_subsampled(ds, subset_size=10, trials=1, seed=2**64 - 1)
        assert report.subsample.seed == 2**64 - 1

    def test_no_cap_on_subsets(self):
        # the exact cap bounds subset_size, not the size of the whole dataset
        ds = random_dataset(n_per_class=40, seed=18)
        report = dsi_subsampled(ds, subset_size=30, trials=2, max_points=50)
        assert report.subsample is not None

    def test_unknown_stat_rejected_before_drawing(self):
        ds = random_dataset(n_per_class=10, seed=19)
        drew = mock.Mock(side_effect=AssertionError("drew a subset"))
        with mock.patch.object(sys.modules["separability.dsi"], "_philox", drew):
            with pytest.raises(ValueError, match="unknown statistic 'bogus'"):
                dsi_subsampled(ds, subset_size=10, stat="bogus")

    @pytest.mark.parametrize("stat", ["ks", "wasserstein"])
    def test_pinned_trials(self, stat):
        # two draws over the six trials leave a class below 2 points and are
        # drawn again, so these pin the redraws as well as the values
        ds = generate(GeneratorSpec("moons", 40, seed=7))
        report = dsi_subsampled(ds, subset_size=8, trials=6, seed=11, stat=stat)
        if stat == "ks":
            assert [v.hex() for v in report.subsample.values] == SUBSAMPLED_KS
        else:
            assert list(report.subsample.values) == pytest.approx(SUBSAMPLED_W1, rel=1e-12)

    def test_cap_applies_to_subset_size(self):
        ds = random_dataset(n_per_class=40, seed=18)
        with pytest.raises(DistanceCapError, match="subset_size 31 exceeds"):
            dsi_subsampled(ds, subset_size=31, trials=2, max_points=30)
        dsi_subsampled(ds, subset_size=30, trials=2, max_points=30)  # at the cap


    @pytest.mark.parametrize("seed", range(4))
    def test_dataset_checked_before_drawing(self, seed):
        # every seed names the dataset's row, whichever subset would hold it
        points = rng(42).normal(size=(400, 3))
        points[250] = 0.0
        ds = Dataset(points, np.arange(400) % 2)
        with pytest.raises(DegenerateVector, match="index 250") as exc:
            dsi(ds, metric="cosine")
        drew = mock.Mock(side_effect=AssertionError("drew a subset"))
        with mock.patch.object(sys.modules["separability.dsi"], "_philox", drew):
            with pytest.raises(DegenerateVector, match="index 250") as sub:
                dsi_subsampled(ds, 50, trials=3, seed=seed, metric="cosine")
        assert sub.value.index == exc.value.index == 250

    def test_one_class_refused_before_drawing(self):
        ds = Dataset(rng(43).normal(size=(60, 2)), np.zeros(60, dtype=int))
        drew = mock.Mock(side_effect=AssertionError("drew a subset"))
        with mock.patch.object(sys.modules["separability.dsi"], "_philox", drew):
            with pytest.raises(DegenerateDataset, match="at least 2 classes, found 1"):
                dsi_subsampled(ds, 20)


class TestDistributionIdentity:
    def test_identical_samples_near_zero(self):
        g = rng(20)
        a = g.normal(size=(400, 2))
        b = g.normal(size=(400, 2))
        assert distribution_identity_score(a, b) < 0.08

    def test_disjoint_samples_near_one(self):
        g = rng(21)
        a = g.normal(size=(200, 2))
        b = g.normal(size=(200, 2)) + 50.0
        assert distribution_identity_score(a, b) > 0.9

    def test_one_dimensional_samples(self):
        g = rng(22)
        score = distribution_identity_score(g.normal(size=300), g.normal(size=300))
        assert 0.0 <= score < 0.15

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="feature dimension"):
            distribution_identity_score(np.ones((3, 2)), np.ones((3, 3)))

    def test_tiny_samples_rejected(self):
        with pytest.raises(DegenerateClass):
            distribution_identity_score(np.ones((1, 2)), np.ones((5, 2)))

    def test_points_copied_once(self):
        # both samples go into one array, which the DSI reads in place;
        # CIFAR-wide rows, as in section 5.2's airplane halves
        g = rng(27)
        a, b = g.normal(size=(100, 3072)), g.normal(size=(100, 3072))
        _, peak = traced_peak(lambda: distribution_identity_score(a, b))
        assert peak < 1.5 * (a.nbytes + b.nbytes)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            distribution_identity_score(np.ones((3, 2)), np.full((3, 2), np.nan))

    def test_symmetry(self):
        g = rng(23)
        a = g.normal(size=(50, 2))
        b = g.normal(size=(60, 2)) + 1.0
        assert distribution_identity_score(a, b) == pytest.approx(
            distribution_identity_score(b, a), abs=1e-12
        )
