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
    pairwise_condensed,
    t1,
)

from conftest import random_dataset, rng
from oracles import (
    brute_mst_edges,
    brute_n1,
    brute_n3,
    class_masked_lsc,
    condensed_density,
    dense_complement_t1,
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
        edges = separability.measures._mst_edges(squareform(pairwise_condensed(pts)))
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


@st.composite
def _shuffled_classes(draw):
    """2-4 classes of 2-8 points in shuffled order: gaussian, small-integer
    (tie-heavy) or drawn from a few distinct points (coincident)."""
    sizes = draw(st.lists(st.integers(2, 8), min_size=2, max_size=4))
    dim = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["gaussian", "integer", "coincident"]))
    g = rng(draw(st.integers(0, 2**32 - 1)))
    n = sum(sizes)
    if kind == "gaussian":
        points = g.normal(size=(n, dim))
    elif kind == "integer":
        points = g.integers(0, 3, size=(n, dim)).astype(float)
    else:
        points = g.normal(size=(3, dim))[g.integers(0, 3, size=n)]
    labels = g.permutation(np.repeat(np.arange(len(sizes)), sizes))
    return Dataset(points=points, labels=labels)


class TestDenseReferences:
    """T1, LSC and Density read one shared square matrix; the references
    hold the dense complement, the class mask and the condensed cut."""

    @given(_shuffled_classes(), st.sampled_from([0.05, 0.15, 0.5]))
    @settings(max_examples=150, deadline=None)
    def test_match_references(self, ds, quantile):
        condensed = pdist(ds.points)
        D = squareform(condensed)
        radii = separability.measures._touching_radii(*nearest_enemy(D, ds.labels))
        assert t1(ds).value == dense_complement_t1(D, radii)
        assert lsc(ds).value == class_masked_lsc(D, ds.labels)
        assert density(ds, quantile).value == condensed_density(
            condensed, ds.labels, quantile
        )


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
        square = separability.measures._context(ds, workers).square
        want = squareform(pdist(points))
        assert np.array_equal(square.view(np.uint64), want.view(np.uint64))
        assert not square.flags.writeable


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

    def test_one_pairwise_pass(self, shared_input, monkeypatch):
        workers = []
        cross = separability.measures._cross

        def counted(pa, pb, metric, threads):
            workers.append(threads.workers)
            return cross(pa, pb, metric, threads)

        monkeypatch.setattr(separability.measures, "_cross", counted)
        compute_measures(shared_input, workers=3)
        assert workers == [3]
        t1(shared_input)  # a measure alone runs its pass on one thread
        assert workers == [3, 1]

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

    def test_single_class_rejected(self):
        ds = Dataset(points=np.ones((4, 2)), labels=[0, 0, 0, 0])
        with pytest.raises(DegenerateDataset):
            compute_measures(ds, codes=["F1"])


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
