"""Complexity measures: hand-computed cases, brute oracles, and bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist, squareform

import separability.measures

from separability import (
    Dataset,
    DegenerateClass,
    DegenerateDataset,
    DomainError,
    MEASURE_CODES,
    MeasureResult,
    compute_measures,
    density,
    f1,
    lsc,
    n1,
    n2,
    n3,
    n4,
    t1,
)

from separability.generators import GeneratorSpec, generate

from conftest import random_dataset, rng, traced_peak
from oracles import (
    brute_mst_edges,
    brute_n1,
    brute_n3,
    class_masked_lsc,
    condensed_density,
    dense_complement_t1,
    dense_n2,
    dense_n3,
    dense_n4,
    nearest_enemy,
)


def _line(coords, labels):
    """1-D dataset from plain lists."""
    return Dataset(points=np.asarray(coords, dtype=float).reshape(-1, 1), labels=labels)


# two tight clusters, far apart: the easiest possible arrangement
EASY = _line([0.0, 1.0, 10.0, 11.0], [0, 0, 1, 1])


class TestF1:
    def test_identical_class_means_give_one(self):
        ds = _line([0.0, 2.0, 1.0, 1.0], [0, 0, 1, 1])  # both means are 1
        assert f1(ds).value == 1.0

    def test_perfectly_separating_feature_gives_zero(self):
        # zero within-class scatter and distinct means: infinite ratio
        ds = _line([0.0, 0.0, 5.0, 5.0], [0, 0, 1, 1])
        assert f1(ds).value == 0.0

    def test_hand_computed(self):
        # between = 2*(0.5-5.5)^2 + 2*(10.5-5.5)^2 = 100; within = 0.5+0.5
        assert f1(EASY).value == pytest.approx(1.0 / (1.0 + 100.0))

    def test_best_feature_wins(self):
        # feature 0 is noise, feature 1 separates; F1 uses the best one
        pts = np.array([[0.0, 0.0], [1.0, 0.1], [0.0, 5.0], [1.0, 5.1]])
        ds = Dataset(points=pts, labels=[0, 0, 1, 1])
        only_good = Dataset(points=pts[:, 1:], labels=[0, 0, 1, 1])
        assert f1(ds).value == pytest.approx(f1(only_good).value)


class TestN1:
    def test_single_crossing_edge(self):
        # the spanning tree crosses classes once; both endpoints count
        assert n1(EASY).value == 0.5

    def test_alternating_line_all_boundary(self):
        ds = _line([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [0, 1, 0, 1, 0, 1])
        assert n1(ds).value == 1.0

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_oracle(self, seed):
        ds = random_dataset(n_per_class=40, classes=3, seed=seed, spread=1.0)
        assert n1(ds).value == pytest.approx(
            brute_n1(ds.points, ds.labels), abs=1e-12
        )

    def test_tie_broken_dataset_is_deterministic(self):
        # a unit grid has many equal-length edges; repeated runs must agree
        xs, ys = np.meshgrid(np.arange(4.0), np.arange(4.0))
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        ds = Dataset(points=pts, labels=(pts[:, 0] < 2).astype(int))
        assert n1(ds).value == n1(ds).value == brute_n1(ds.points, ds.labels)

    @given(
        st.integers(min_value=1, max_value=3).flatmap(
            lambda dim: st.lists(
                st.lists(st.integers(0, 3), min_size=dim, max_size=dim),
                min_size=2,
                max_size=30,
            )
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_tied_edges_match_brute_oracle(self, coords):
        # small integer coordinates: many equal distances, coincident points
        pts = np.array(coords, dtype=float)
        edges = separability.measures._mst_edges(pts)
        assert {(i, j) for i, j in edges.tolist()} == set(brute_mst_edges(pts))


class TestN2:
    def test_hand_computed(self):
        # intra sum = 4*1; inter sum = 10+9+9+10 = 38; r = 2/19
        r = 2.0 / 19.0
        assert n2(EASY).value == pytest.approx(r / (1.0 + r))

    def test_all_coincident_enemies(self):
        ds = _line([0.0, 0.0, 1.0, 1.0], [0, 1, 0, 1])
        # inter = 0 while intra > 0: maximal overlap
        assert n2(ds).value == 1.0

    def test_everything_coincident(self):
        ds = _line([0.0, 0.0, 0.0, 0.0], [0, 1, 0, 1])
        assert n2(ds).value == 0.0

    def test_singleton_class_rejected(self):
        ds = _line([0.0, 1.0, 5.0], [0, 0, 1])
        with pytest.raises(DegenerateClass):
            n2(ds)


class TestN3:
    def test_separated_clusters_no_errors(self):
        assert n3(EASY).value == 0.0

    def test_coincident_enemies_all_errors(self):
        ds = _line([0.0, 0.0, 1.0, 1.0], [0, 1, 0, 1])
        assert n3(ds).value == 1.0

    def test_alternating_line(self):
        ds = _line([0.0, 1.0, 2.0, 3.0], [0, 1, 0, 1])
        # every nearest neighbor (ties to the lower index) is an enemy
        assert n3(ds).value == 1.0

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_oracle(self, seed):
        ds = random_dataset(n_per_class=50, classes=3, seed=seed, spread=1.0)
        assert n3(ds).value == pytest.approx(
            brute_n3(ds.points, ds.labels), abs=1e-12
        )


class TestN4:
    def test_separated_clusters_no_errors(self):
        ds = random_dataset(n_per_class=30, seed=1, spread=20.0)
        assert n4(ds).value == 0.0

    def test_deterministic(self):
        ds = random_dataset(n_per_class=40, seed=2, spread=0.5)
        assert n4(ds, seed=5).value == n4(ds, seed=5).value

    def test_seed_matters_on_hard_data(self):
        ds = random_dataset(n_per_class=60, seed=3, spread=0.0)
        values = {n4(ds, seed=s).value for s in range(6)}
        assert len(values) > 1

    def test_params_recorded(self):
        ds = random_dataset(n_per_class=10, seed=4, spread=1.0)
        res = n4(ds, n_synthetic=37, seed=9)
        assert res.params == {"n_synthetic": 37, "seed": 9}

    def test_synthetic_count_validated(self):
        with pytest.raises(DomainError, match="n_synthetic"):
            n4(EASY, n_synthetic=0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_uint64_rejected(self, seed):
        with pytest.raises(DomainError, match=r"seed must be in \[0, 2\*\*64\)"):
            n4(EASY, seed=seed)

    def test_singleton_class_rejected(self):
        ds = _line([0.0, 1.0, 5.0], [0, 0, 1])
        with pytest.raises(DegenerateClass):
            n4(ds)

    def test_workers_do_not_change_bits(self):
        # 1200 synthetic points: 23 blocks of 54 rows, shared among threads
        ds = random_dataset(n_per_class=400, dim=2, classes=3, seed=9, spread=1.0)
        alone = n4(ds, seed=4).value
        for workers in (1, 3):
            (shared,) = compute_measures(ds, ["N4"], seed=4, workers=workers)
            assert shared.value.hex() == alone.hex()


class TestT1:
    def test_hand_computed_two_clusters(self):
        # mutual enemies at 1 and 10 split their gap (r = 4.5); the outer
        # points reach 5.5.  Each cluster collapses onto one sphere.
        assert t1(EASY).value == 0.5

    def test_interleaved_keeps_every_sphere(self):
        ds = _line([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [0, 1, 0, 1, 0, 1])
        # every sphere has radius 0.5 and covers only its own point
        assert t1(ds).value == 1.0

    def test_compact_blobs_collapse(self):
        ds = random_dataset(n_per_class=100, seed=5, spread=30.0)
        assert t1(ds).value <= 0.05

    def test_mixed_classes_stay_high(self):
        ds = random_dataset(n_per_class=100, seed=6, spread=0.0)
        assert t1(ds).value >= 0.5

    def test_triangle_with_chain(self):
        # 1-D chain whose nearest-enemy graph is not all mutual pairs
        ds = _line([0.0, 4.0, 6.0], [0, 1, 1])
        # 1 and 0 are mutual (r = 2 each); 2's enemy is 0: r = 6 - 2 = 4
        # sphere 2 covers {1, 2}; sphere 1 covers {1}; sphere 0 covers {0}
        # sphere 1's coverage is a proper subset of sphere 2's: absorbed
        assert t1(ds).value == pytest.approx(2.0 / 3.0)


class TestLsc:
    def test_tetrahedron(self):
        # all pairwise distances equal: every local set is just the point
        pts = np.array(
            [[1.0, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
        )
        ds = Dataset(points=pts, labels=[0, 0, 1, 1])
        assert lsc(ds).value == 0.75

    def test_separated_clusters(self):
        # each local set is the whole class: 1 - (4*2)/16
        assert lsc(EASY).value == 0.5

    def test_large_spread_shrinks_value(self):
        near = random_dataset(n_per_class=50, seed=7, spread=1.0)
        far = random_dataset(n_per_class=50, seed=7, spread=20.0)
        assert lsc(far).value < lsc(near).value

    def test_lower_bound_half_for_balanced_two_class(self):
        # local sets cannot exceed the class size n/2
        for seed in range(3):
            ds = random_dataset(n_per_class=30, seed=seed, spread=50.0)
            assert lsc(ds).value >= 0.5 - 1e-12


class TestDensity:
    def test_single_class_complete_graph(self):
        # one class, all pairwise distances equal: every edge survives
        pts = np.array([[1.0, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
        ds = Dataset(points=pts, labels=[0, 0, 0, 0])
        assert density(ds).value == 0.0

    def test_no_close_same_class_pair(self):
        ds = _line([0.0, 0.1, 10.0, 10.1], [0, 1, 0, 1])
        assert density(ds).value == 1.0

    def test_quantile_widens_graph(self):
        ds = random_dataset(n_per_class=50, seed=8, spread=2.0)
        assert density(ds, quantile=0.6).value <= density(ds, quantile=0.05).value

    def test_quantile_validated(self):
        for q in (0.0, 1.0, -0.5):
            with pytest.raises(DomainError, match="quantile"):
                density(EASY, quantile=q)

    def test_needs_two_points(self):
        ds = Dataset(points=[[0.0]], labels=[0])
        with pytest.raises(DegenerateClass):
            density(ds)

    def test_params_record_quantile(self):
        assert density(EASY, quantile=0.3).params == {"quantile": 0.3}

    @pytest.mark.parametrize("workers", [1, 3])
    def test_pass_two_skips_pairs_far_from_the_cut(self, workers, computed_pairs):
        # the cut's one or two bins are a narrow window, so pass 2 computes
        # few pairs, and the value is the dense reference's
        ds = generate(GeneratorSpec("moons", 300, seed=2, noise=0.1))
        pairs = 600 * 599 // 2
        computed_pairs.clear()
        (got,) = compute_measures(ds, ["Density"], workers=workers)
        assert pairs < sum(computed_pairs) < 1.5 * pairs
        assert got.value == condensed_density(pdist(ds.points), ds.labels, 0.15)

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("layout", ["interleaved", "singleton"])
    def test_classes_of_scattered_rows(self, workers, layout, computed_pairs, monkeypatch):
        # classes whose rows are not contiguous are copied, and a singleton
        # class has no pairs among its rows; pass 1 still computes every
        # pair exactly once
        moons = generate(GeneratorSpec("moons", 150, seed=4, noise=0.1))
        labels = np.arange(300) % 3 if layout == "interleaved" else moons.labels.copy()
        if layout == "singleton":
            labels[137] = 2  # and class 0 falls in two runs
        ds = Dataset(moons.points, labels)
        walk_tasks, first_pass = separability.stats._walk_tasks, []

        def pass_two(*args):
            first_pass.append(sum(computed_pairs))
            return walk_tasks(*args)

        monkeypatch.setattr(separability.stats, "_walk_tasks", pass_two)
        computed_pairs.clear()
        (got,) = compute_measures(ds, ["Density"], workers=workers)
        assert first_pass == [300 * 299 // 2]
        assert got.value == condensed_density(pdist(ds.points), ds.labels, 0.15)

    def test_a_broken_bound_raises(self, monkeypatch):
        # bounds narrower than the rounding proof allows skip pairs that
        # reach the cut's bins: the count check refuses the result
        monkeypatch.setattr(separability.distances, "_slack", lambda width: (-0.5, 0.0))
        with pytest.raises(RuntimeError, match="pass 2 kept"):
            density(generate(GeneratorSpec("moons", 300, seed=2, noise=0.1)))


@st.composite
def _shuffled_classes(draw, max_size=8):
    """2-4 classes of 2 to ``max_size`` points in shuffled order: gaussian,
    small-integer (tie-heavy), drawn from a few distinct points (coincident),
    or far apart, so that a sphere can cover its whole class (separated)."""
    sizes = draw(st.lists(st.integers(2, max_size), min_size=2, max_size=4))
    dim = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["gaussian", "integer", "coincident", "separated"]))
    g = rng(draw(st.integers(0, 2**32 - 1)))
    n = sum(sizes)
    labels = g.permutation(np.repeat(np.arange(len(sizes)), sizes))
    if kind == "gaussian":
        points = g.normal(size=(n, dim))
    elif kind == "integer":
        points = g.integers(0, 3, size=(n, dim)).astype(float)
    elif kind == "coincident":
        points = g.normal(size=(3, dim))[g.integers(0, 3, size=n)]
    else:
        points = g.normal(size=(n, dim)) + 20.0 * labels[:, None]
    return Dataset(points=points, labels=labels)


class TestDenseReferences:
    """The measures read one shared square matrix in row blocks; the
    references work on the dense matrix: the complement product for T1, the
    class mask for LSC and N2, each row's argmin for N3, the condensed cut
    for Density and one dense cdist matrix for N4."""

    @staticmethod
    def _references(ds, quantile, n_synthetic):
        condensed = pdist(ds.points)
        D = squareform(condensed)
        radii = separability.measures._touching_radii(*nearest_enemy(D, ds.labels))
        return {
            "N2": dense_n2(D, ds.labels),
            "N3": dense_n3(D, ds.labels),
            "N4": dense_n4(ds.points, ds.labels, n_synthetic, seed=3),
            "T1": dense_complement_t1(D, radii),
            "LSC": class_masked_lsc(D, ds.labels),
            "Density": condensed_density(condensed, ds.labels, quantile),
        }

    @given(_shuffled_classes(), st.sampled_from([0.05, 0.15, 0.5]))
    @settings(max_examples=150, deadline=None)
    def test_match_references(self, ds, quantile):
        alone = {
            "N2": n2(ds).value,
            "N3": n3(ds).value,
            "N4": n4(ds, seed=3).value,
            "T1": t1(ds).value,
            "LSC": lsc(ds).value,
            "Density": density(ds, quantile).value,
        }
        assert alone == self._references(ds, quantile, ds.n)

    @given(
        _shuffled_classes(max_size=50),
        st.sampled_from([1, 3]),
        st.sampled_from([0.05, 0.15, 0.5]),
        st.integers(1, 300),
    )
    @settings(max_examples=60, deadline=None)
    def test_shared_match_references(self, ds, workers, quantile, n_synthetic):
        # up to 200 points: several row blocks, and covers of several words
        codes = ["N2", "N3", "N4", "T1", "LSC", "Density"]
        shared = compute_measures(
            ds, codes, n4_synthetic=n_synthetic, seed=3, density_quantile=quantile, workers=workers
        )
        assert {r.code: r.value for r in shared} == self._references(ds, quantile, n_synthetic)


class TestDistanceMatrix:
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("integer", [False, True])
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 16])
    def test_matches_scipy_bit_for_bit(self, width, integer, workers):
        # 300 rows span several kernel blocks; integer points tie heavily
        g = rng(width)
        if integer:
            points = g.integers(0, 4, size=(300, width)).astype(float)
        else:
            points = g.normal(size=(300, width))
        ds = Dataset(points, np.arange(300) % 2)
        square = np.full((300, 300), np.nan)
        visited = []

        def visit(r0, r1, rows, scratch):
            visited.append((r0, r1))
            square[r0:r1] = rows

        separability.measures._context(ds, workers).walk(visit)
        assert sorted(visited) == separability.distances._row_blocks(300)
        assert len(visited) > 1
        want = squareform(pdist(points))
        assert np.array_equal(square.view(np.uint64), want.view(np.uint64))


class TestBounds:
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=0.0, max_value=8.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_all_measures_in_unit_interval(self, seed, spread):
        ds = random_dataset(n_per_class=12, classes=2, seed=seed, spread=spread)
        for res in compute_measures(ds):
            assert 0.0 <= res.value <= 1.0, res.code


class TestComputeMeasures:
    def test_default_runs_all_in_order(self, small_two_class):
        results = compute_measures(small_two_class)
        assert [r.code for r in results] == list(MEASURE_CODES)

    def test_subset_and_order_respected(self, small_two_class):
        results = compute_measures(small_two_class, codes=["N3", "F1"])
        assert [r.code for r in results] == ["N3", "F1"]

    def test_unknown_code(self, small_two_class):
        with pytest.raises(ValueError, match="unknown measure codes"):
            compute_measures(small_two_class, codes=["F1", "Z9"])

    def test_options_forwarded(self, small_two_class):
        (res_n4,) = compute_measures(
            small_two_class, codes=["N4"], n4_synthetic=11, seed=3
        )
        assert res_n4.params == {"n_synthetic": 11, "seed": 3}
        (res_d,) = compute_measures(
            small_two_class, codes=["Density"], density_quantile=0.4
        )
        assert res_d.params == {"quantile": 0.4}

    @pytest.fixture(params=["gaussian", "grid"])
    def shared_input(self, request, small_two_class):
        if request.param == "gaussian":
            return small_two_class
        xs, ys = np.meshgrid(np.arange(6.0), np.arange(5.0))
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        return Dataset(points=pts, labels=(pts[:, 0] + pts[:, 1]) % 3 == 0)

    def test_kernel_pair_counts(self, shared_input, computed_pairs, monkeypatch):
        # each walk computes every ordered pair once, on the context's
        # workers; N1's Prim and the first pass of Density's cut every
        # unordered pair once, and its second pass each at most once more,
        # besides the delta rows of its one cross source (at most one per
        # point); N4 each synthetic point against every point
        workers = []
        walk_driver = separability.distances.walk

        def counted(fn, items, n):
            workers.append(n)
            return walk_driver(fn, items, n)

        monkeypatch.setattr(separability.distances, "walk", counted)
        n = shared_input.n
        walk, pairs = n * n, n * (n - 1) // 2
        expected = {
            "F1": 0, "N1": pairs, "N2": walk, "N3": walk, "N4": walk,
            "T1": 2 * walk, "LSC": walk, "Density": None,
        }
        walks = {"F1": 0, "N1": 0, "T1": 2, "Density": 2}  # one each for the rest
        for code, count in expected.items():
            computed_pairs.clear()
            workers.clear()
            compute_measures(shared_input, [code], workers=3)
            if count is None:
                expected[code] = sum(computed_pairs)
                assert pairs < sum(computed_pairs) <= 2 * pairs + n, code
            else:
                assert sum(computed_pairs) == count, code
            assert workers == [3] * walks.get(code, 1), code
        # shared by all eight, the first walk runs once: N2, N3, T1 and LSC
        # read it, T1 walks again for its covers
        computed_pairs.clear()
        compute_measures(shared_input, workers=3)
        assert sum(computed_pairs) == sum(expected.values()) - 3 * walk
        workers.clear()
        t1(shared_input)  # a measure alone runs its walks on one thread
        assert workers == [1, 1]

    def test_context_shares_the_points(self, small_two_class):
        ctx = separability.measures._context(small_two_class)
        assert np.shares_memory(ctx.points, small_two_class.points)
        assert np.shares_memory(ctx.labels, small_two_class.labels)

    def test_matches_each_measure_alone(self, shared_input):
        alone = [fn(shared_input) for fn in (f1, n1, n2, n3, n4, t1, lsc, density)]
        assert compute_measures(shared_input) == alone

    def test_order_does_not_change_values(self, shared_input):
        # a measure that wrote to the shared distances would change the
        # values of those computed after it
        forward = compute_measures(shared_input)
        backward = compute_measures(shared_input, codes=MEASURE_CODES[::-1])
        assert backward[::-1] == forward

    def test_workers_do_not_change_values(self, small_two_class):
        a = compute_measures(small_two_class, workers=1)
        b = compute_measures(small_two_class, workers=4)
        assert [r.value for r in a] == [r.value for r in b]

    def test_workers_do_not_change_bits_over_many_blocks(self):
        # 1200 points: row blocks of 54 rows (the value budget), 23 of them
        ds = random_dataset(n_per_class=400, dim=2, classes=3, seed=8, spread=1.0)
        assert len(separability.distances._row_blocks(ds.n)) > 20
        a = compute_measures(ds, workers=1)
        b = compute_measures(ds, workers=3)
        assert [r.value.hex() for r in a] == [r.value.hex() for r in b]

    def test_single_class_rejected(self):
        ds = Dataset(points=np.ones((4, 2)), labels=[0, 0, 0, 0])
        with pytest.raises(DegenerateDataset):
            compute_measures(ds, codes=["F1"])

    @pytest.mark.parametrize("workers", [0, 2.5])
    def test_workers_checked_before_any_measure(self, small_two_class, monkeypatch, workers):
        # F1 and N1 walk no blocks, so the walk's own check never sees them
        ran = []
        monkeypatch.setattr(separability.measures, "f1", lambda ds: ran.append("F1"))
        monkeypatch.setattr(separability.measures, "n1", lambda ds: ran.append("N1"))
        with pytest.raises(ValueError, match=f"workers must be an integer >= 1, got {workers!r}"):
            compute_measures(small_two_class, ["F1", "N1"], workers=workers)
        assert ran == []


class TestOverflow:
    """Points whose distances overflow float64 are refused up front, with the
    DSI's own check, not turned into NaN or out-of-range values."""

    DATA = Dataset(rng(40).normal(size=(40, 2)) * 1e200, np.arange(40) % 2)

    def test_compute_measures(self):
        for codes in (None, ["N2"], ["N1", "T1", "Density"], ["F1"]):
            with pytest.raises(DomainError, match="overflow float64"):
                compute_measures(self.DATA, codes)

    @pytest.mark.parametrize("fn", [f1, n1, n2, n3, n4, t1, lsc, density])
    def test_each_measure_alone(self, fn):
        with pytest.raises(DomainError, match="overflow float64"):
            fn(self.DATA)


    def test_f1_feature_sums(self):
        # every distance is 1 to 3, but the coordinates' sums overflow
        ds = Dataset([[1e308, 0], [1e308, 1], [1e308, 2], [1e308, 3]], [0, 0, 1, 1])
        with pytest.raises(DomainError, match="F1's feature sums overflow float64"):
            f1(ds)
        assert n3(ds).value == 0.25


class TestMemory:
    """No measure holds an n x n float array: the walks read the kernel's row
    blocks, and T1's cover bits, n**2 / 8 bytes, are the largest array."""

    DATA = {
        "spirals": generate(GeneratorSpec("spirals", 1500, seed=1)),
        # two distinct distances: Density's cut falls in a bin holding half the pairs
        "two-points": Dataset(np.repeat([[0.0, 0.0], [1.0, 0.0]], 1500, axis=0), np.arange(3000) % 2),
    }

    @pytest.mark.parametrize("data", DATA)
    @pytest.mark.parametrize("fn", [compute_measures, f1, n1, n2, n3, n4, t1, lsc, density])
    def test_peak_below_one_and_a_half_squares(self, fn, data):
        ds = self.DATA[data]
        square = ds.n**2 * 8
        _, peak = traced_peak(lambda: fn(ds))
        assert peak < 1.5 * square, f"{peak / square:.2f} squares"

    @pytest.mark.parametrize("data", DATA)
    @pytest.mark.parametrize("fn", [compute_measures, f1, n1, n2, n3, n4, t1, lsc, density])
    def test_peak_below_a_tenth_of_a_square(self, fn, data):
        ds = self.DATA[data]
        square = ds.n**2 * 8
        _, peak = traced_peak(lambda: fn(ds))
        assert peak < 0.1 * square, f"{peak / square:.3f} squares"


def _region_grid() -> Dataset:
    """A 12 x 12 x 8 integer grid in 4 classes by 3 x 3 regions, a tenth of
    the points relabelled at random: distances tie heavily."""
    points = np.indices((12, 12, 8)).reshape(3, -1).T.astype(float)
    labels = ((points[:, 0] // 3 + points[:, 1] // 3) % 4).astype(int)
    flip = rng(22).random(labels.size) < 0.1
    labels[flip] = rng(23).integers(0, 4, size=int(flip.sum()))
    return Dataset(points, labels)


class TestPinnedBits:
    """All eight values, by ``.hex()``, as the n x n distance matrix gave
    them: many walk blocks (spirals, n = 3000), Density's cut among two
    distinct distances (two-points), and T1's covers of 18 words among ties
    (the grid, n = 1152)."""

    DATA = {**TestMemory.DATA, "grid": _region_grid()}
    PINNED = {
        "spirals": [
            "0x1.f1cd27fb02b47p-1",
            "0x1.31d5acb6f4651p-7",
            "0x1.f37ab13bd9850p-6",
            "0x1.9f0fb38a94d24p-8",
            "0x1.921735ee402bbp-2",
            "0x1.0f04c756b2dbdp-2",
            "0x1.f158c35749da8p-1",
            "0x1.de180d8b0c83fp-1",
        ],
        "two-points": [
            "0x1.0000000000000p+0",
            "0x1.0057619f0fb39p-1",
            "0x0.0p+0",
            "0x1.0000000000000p+0",
            "0x1.00aec33e1f671p-1",
            "0x1.5d867c3ece2a5p-11",
            "0x1.0000000000000p+0",
            "0x1.8020c767b6ee2p-1",
        ],
        "grid": [
            "0x1.ff76378066c4fp-1",
            "0x1.3dc71c71c71c7p-1",
            "0x1.f0971784ab6edp-2",
            "0x1.6f1c71c71c71cp-2",
            "0x1.6d55555555555p-2",
            "0x1.4c00000000000p-1",
            "0x1.feb3c0ca4587ep-1",
            "0x1.e34d6034fbf8dp-1",
        ],
    }

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("data", DATA)
    def test_values(self, data, workers):
        values = compute_measures(self.DATA[data], workers=workers)
        assert [r.value.hex() for r in values] == self.PINNED[data]


class TestMeasureResult:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            MeasureResult(code="F1", value=1.5, params={})

    def test_rejects_unknown_code(self):
        with pytest.raises(ValueError, match="unknown measure code"):
            MeasureResult(code="X2", value=0.5, params={})

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            MeasureResult(code="F1", value=float("nan"), params={})
