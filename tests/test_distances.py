"""Pairwise distance engine against a hand-rolled per-pair oracle."""

import sys
import threading
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist as scipy_cdist
from scipy.spatial.distance import pdist as scipy_pdist

from separability import distances
from separability import (
    DegenerateClass,
    DegenerateVector,
    DistanceMetric,
    DistanceSet,
    DomainError,
    METRIC_NAMES,
    SingularCovariance,
    bcd_set,
    compute_measures,
    condensed_index,
    distance,
    dsi,
    fit_mahalanobis,
    icd_set,
    pairwise_condensed,
    pairwise_cross,
    resolve_metric,
)

from conftest import HUGE_NORM_ROWS, rng, traced_peak
from oracles import naive_distance, naive_pairwise

PLAIN_METRICS = [m for m in METRIC_NAMES if m != "mahalanobis"]


def _fitted(points):
    return fit_mahalanobis(points)


class TestDistance:
    @pytest.mark.parametrize("metric", PLAIN_METRICS)
    def test_matches_naive_formula(self, metric):
        g = rng(3)
        for _ in range(50):
            a = g.normal(size=5) + 0.5
            b = g.normal(size=5) - 0.5
            got = distance(a, b, metric)
            want = naive_distance(a, b, metric)
            assert got == pytest.approx(want, abs=1e-12)

    def test_mahalanobis_matches_naive_formula(self):
        g = rng(4)
        pool = g.normal(size=(60, 4))
        metric = _fitted(pool)
        for _ in range(25):
            a, b = g.normal(size=4), g.normal(size=4)
            got = distance(a, b, metric)
            want = naive_distance(a, b, "mahalanobis", metric.inverse_covariance)
            assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("metric", PLAIN_METRICS)
    def test_symmetry_and_identity(self, metric):
        g = rng(5)
        a = g.normal(size=6) + 1.0
        b = g.normal(size=6) + 2.0
        assert distance(a, b, metric) == pytest.approx(distance(b, a, metric))
        assert distance(a, a, metric) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("metric", ["correlation", "cosine"])
    def test_clamped_range(self, metric):
        # anti-parallel vectors sit at the top of the clamped range
        a = np.array([1.0, 2.0, 3.0])
        assert distance(a, -a, metric) == pytest.approx(2.0)
        assert 0.0 <= distance(a, a + 1.0, metric) <= 2.0

    def test_cosine_zero_vector_rejected(self):
        with pytest.raises(DegenerateVector) as exc:
            distance([0.0, 0.0], [1.0, 1.0], "cosine")
        assert exc.value.index == 0

    def test_correlation_constant_vector_rejected(self):
        with pytest.raises(DegenerateVector):
            distance([1.0, 1.0, 1.0], [1.0, 2.0, 3.0], "correlation")

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            distance([np.nan, 0.0], [0.0, 0.0], "euclidean")

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            distance([1.0, 2.0], [1.0, 2.0, 3.0], "euclidean")


class TestResolveMetric:
    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown metric"):
            resolve_metric("manhattan")

    def test_passthrough(self):
        m = DistanceMetric("euclidean")
        assert resolve_metric(m) is m

    def test_mahalanobis_without_context(self):
        with pytest.raises(SingularCovariance):
            DistanceMetric("mahalanobis")

    def test_plain_metric_rejects_context(self):
        with pytest.raises(ValueError, match="no covariance context"):
            DistanceMetric("euclidean", inverse_covariance=np.eye(2))

    def test_asymmetric_context_rejected(self):
        bad = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(SingularCovariance, match="not symmetric"):
            DistanceMetric("mahalanobis", inverse_covariance=bad)

    def test_indefinite_context_rejected(self):
        bad = np.diag([1.0, -1.0])
        with pytest.raises(SingularCovariance, match="not positive definite"):
            DistanceMetric("mahalanobis", inverse_covariance=bad)


class TestCondensedIndex:
    def test_enumerates_upper_triangle(self):
        n = 9
        k = 0
        for i in range(n):
            for j in range(i + 1, n):
                assert condensed_index(n, i, j) == k
                k += 1
        assert k == n * (n - 1) // 2

    def test_vectorized(self):
        idx = condensed_index(5, np.array([0, 0, 3]), np.array([1, 4, 4]))
        assert idx.tolist() == [0, 3, 9]


class TestPairwiseCondensed:
    @pytest.mark.parametrize("metric", PLAIN_METRICS)
    def test_matches_naive_oracle(self, metric):
        g = rng(7)
        pts = g.normal(size=(173, 4)) + 3.0  # crosses a block boundary at 128
        got = pairwise_condensed(pts, metric)
        want = naive_pairwise(pts, metric)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_mahalanobis_matches_naive_oracle(self):
        g = rng(8)
        pts = g.normal(size=(140, 3))
        metric = _fitted(pts)
        got = pairwise_condensed(pts, metric)
        want = naive_pairwise(pts, "mahalanobis", metric.inverse_covariance)
        np.testing.assert_allclose(got, want, rtol=1e-9)

    @pytest.mark.parametrize("workers", [2, 8])
    @pytest.mark.parametrize("metric", ["euclidean", "correlation"])
    def test_workers_bit_identical(self, metric, workers):
        g = rng(9)
        pts = g.normal(size=(300, 5)) + 2.0
        base = pairwise_condensed(pts, metric, workers=1)
        other = pairwise_condensed(pts, metric, workers=workers)
        assert np.array_equal(base, other)

    def test_single_point_rejected(self):
        with pytest.raises(DegenerateClass):
            pairwise_condensed([[1.0, 2.0]], "euclidean")

    def test_degenerate_vector_index_reported(self):
        pts = np.ones((5, 3))
        pts[:4] += rng(10).normal(size=(4, 3))
        pts[4] = 0.0
        with pytest.raises(DegenerateVector) as exc:
            pairwise_condensed(pts, "cosine")
        assert exc.value.index == 4

    @pytest.mark.parametrize("metric", ["cosine", "correlation"])
    def test_overflowing_norm_rejected(self, metric):
        points, row = HUGE_NORM_ROWS[metric]
        with pytest.raises(DomainError, match=f"overflows float64 for the vector at index {row}"):
            pairwise_condensed(points, metric)

    def test_length(self):
        pts = rng(11).normal(size=(17, 2))
        assert pairwise_condensed(pts, "cityblock").size == 17 * 16 // 2


class TestPairwiseCross:
    @pytest.mark.parametrize("metric", PLAIN_METRICS)
    def test_matches_per_pair(self, metric):
        g = rng(12)
        a = g.normal(size=(9, 3)) + 1.0
        b = g.normal(size=(7, 3)) - 1.0
        d = pairwise_cross(a, b, metric)
        assert d.shape == (9, 7)
        for i in (0, 4, 8):
            for j in (0, 3, 6):
                assert d[i, j] == pytest.approx(
                    naive_distance(a[i], b[j], metric), abs=1e-12
                )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="feature dimension"):
            pairwise_cross(np.ones((2, 3)), np.ones((2, 4)))

    def test_degenerate_vector_offset_into_b(self):
        a = rng(13).normal(size=(3, 2)) + 5.0
        b = np.vstack([rng(14).normal(size=(2, 2)) + 5.0, [[0.0, 0.0]]])
        with pytest.raises(DegenerateVector) as exc:
            pairwise_cross(a, b, "cosine")
        assert exc.value.index == 3 + 2


def _same_bits(got, want):
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestNumpyKernel:
    """Narrow rows under euclidean, cityblock and chebyshev are measured in
    numpy, wider rows in scipy; both give scipy's bits."""

    @pytest.mark.parametrize("integer", [False, True], ids=["normal", "integer"])
    @pytest.mark.parametrize("dim", range(1, distances._NUMPY_MAX_DIM + 2))
    @pytest.mark.parametrize("metric", ["euclidean", "cityblock", "chebyshev"])
    def test_bits_match_scipy(self, metric, dim, integer):
        pts = rng(dim).normal(size=(300, dim)) * 4.0  # 300 rows cross block boundaries
        if integer:
            pts = np.round(pts)  # many tied distances
        assert distances._numpy_serves(pts, metric) == (dim <= distances._NUMPY_MAX_DIM)
        want = scipy_pdist(pts, metric)
        for workers in (1, 3):
            assert _same_bits(pairwise_condensed(pts, metric, workers=workers), want)
        a, b = pts[:70], pts[70:]
        assert _same_bits(pairwise_cross(a, b, metric), scipy_cdist(a, b, metric))
        assert _same_bits(distances.cdist(a[:1], b[:1], metric), scipy_cdist(a[:1], b[:1], metric))
        assert _same_bits(distances.pdist(a, metric), scipy_pdist(a, metric))


class TestBlocks:
    """Row blocks hold at most ``_BLOCK_VALUES`` values, and each thread of a
    walk fills them through its own scratch, dropped when the walk ends."""

    @pytest.mark.parametrize("n", [1, 7, 300, 1000, 2500, 65537])
    @pytest.mark.parametrize("width", [None, 1, 3000, 100_000])
    def test_rows_times_width_within_budget(self, n, width):
        blocks = distances._row_blocks(n, width)
        assert blocks[0][0] == 0 and blocks[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        rows = max(r1 - r0 for r0, r1 in blocks)
        assert rows <= distances._BLOCK_ROWS
        wide = n if width is None else width
        assert rows * wide <= distances._BLOCK_VALUES or rows == 1

    def test_budget_sets_the_rows(self):
        # 2500 rows of 2500 values: 26 rows a block, not 128
        assert distances._row_blocks(2500)[0] == (0, distances._BLOCK_VALUES // 2500)

    def test_patched_block_rows_still_cut_two_row_blocks(self):
        # as the tie-heavy DSI tests patch it, to give several workers blocks
        with mock.patch.object(distances, "_BLOCK_ROWS", 2):
            for n in (16, 31, 2500):
                assert {r1 - r0 for r0, r1 in distances._row_blocks(n)[:-1]} == {2}

    @pytest.mark.parametrize("workers", [1, 3])
    def test_each_thread_has_its_own_scratch_for_the_call(self, workers):
        threads_module = sys.modules["separability._threads"]
        seen, held = {}, []

        def task(item, scratch):
            seen.setdefault(threading.get_ident(), set()).add(id(scratch))
            held.append(weakref.ref(scratch))
            return scratch.take("x", item).size

        assert list(threads_module.walk(task, [5, 3, 8, 2], workers)) == [5, 3, 8, 2]
        assert all(len(ids) == 1 for ids in seen.values())
        assert len(set.union(*seen.values())) == len(seen)
        assert all(ref() is None for ref in held)  # nothing outlives the walk

    def test_pool_tasks_are_runs_of_items(self, monkeypatch):
        # a walk of thousands of small blocks makes fewer pool tasks than
        # blocks, and its results still come in the order of the items
        from concurrent.futures import ThreadPoolExecutor

        threads_module = sys.modules["separability._threads"]
        tasks, submit = [], ThreadPoolExecutor.submit

        def counted(pool, *args, **kwargs):
            tasks.append(threading.get_ident())
            return submit(pool, *args, **kwargs)

        monkeypatch.setattr(ThreadPoolExecutor, "submit", counted)
        items = list(range(5000))
        walk = threads_module.walk(lambda item, scratch: 2 * item, items, 3)
        assert list(walk) == [2 * i for i in items]
        assert 3 <= len(tasks) <= 3 * threads_module._RUNS_PER_WORKER < len(items)

    def test_no_pool_thread_outlives_a_walk(self, small_two_class):
        # a walk's pool is shut down when the walk ends, also when a visitor
        # raises partway through
        before = threading.active_count()
        dsi(small_two_class, workers=3)
        assert threading.active_count() == before
        compute_measures(small_two_class, workers=3)
        assert threading.active_count() == before

        def visit(i, values, scratch):
            if i == 5:
                raise RuntimeError("visitor failed")
            return values.size

        blocks = distances._condensed_blocks(rng(0).normal(size=(300, 2)), distances.resolve_metric("euclidean"))
        assert len(blocks) > 5
        with pytest.raises(RuntimeError, match="visitor failed"):
            list(distances._walk(blocks, visit, 3))
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [2.5, 0, -3, "2", None])
    def test_workers_must_be_a_positive_integer(self, small_two_class, workers):
        # refused by the one driver, before it calls anything
        calls = []
        walk = sys.modules["separability._threads"].walk(calls.append, [1, 2], workers)
        with pytest.raises(ValueError, match=f"workers must be an integer >= 1, got {workers!r}"):
            next(walk)
        assert calls == []
        for call in (dsi, compute_measures, lambda ds, workers: pairwise_condensed(ds.points, workers=workers)):
            with pytest.raises(ValueError, match="workers must be an integer >= 1"):
                call(small_two_class, workers=workers)

    def test_scratch_regrows_and_reuses(self):
        scratch = sys.modules["separability._threads"].Scratch()
        small = scratch.take("v", 4)
        assert np.shares_memory(scratch.take("v", 3), small)
        big = scratch.take("v", 10, np.float64)
        assert big.size == 10 and not np.shares_memory(big, small)
        assert scratch.take("i", 5, np.int64).dtype == np.int64


class TestDistanceSets:
    @given(
        st.integers(min_value=2, max_value=30),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_cardinalities(self, m, r, seed):
        g = rng(seed)
        own = g.normal(size=(m, 3))
        rest = g.normal(size=(r, 3))
        icd = icd_set(own, "euclidean", label=0)
        bcd = bcd_set(own, rest, "euclidean", label=0)
        assert icd.cardinality == m * (m - 1) // 2
        assert bcd.cardinality == m * r
        assert icd.kind == "icd" and bcd.kind == "bcd"

    def test_icd_needs_two_points(self):
        with pytest.raises(DegenerateClass) as exc:
            icd_set([[0.0, 0.0]], label=3)
        assert exc.value.label == 3

    def test_bcd_needs_points_on_each_side(self):
        with pytest.raises(DegenerateClass):
            bcd_set(np.empty((0, 2)), np.ones((3, 2)))

    def test_values_frozen(self):
        s = icd_set(rng(15).normal(size=(4, 2)))
        with pytest.raises(ValueError):
            s.values[0] = -1.0

    @pytest.mark.parametrize("kind", ["icd", "bcd"])
    def test_sets_keep_the_kernel_output(self, kind):
        # the values are the kernel's own array, frozen in place: no checked
        # copy doubles the peak
        own, rest = rng(16).normal(size=(3000, 2)), rng(17).normal(size=(2000, 2))
        dset, peak = traced_peak(lambda: icd_set(own) if kind == "icd" else bcd_set(own, rest))
        kernel = pairwise_condensed(own) if kind == "icd" else pairwise_cross(own, rest).ravel()
        assert peak < 1.5 * dset.values.nbytes
        assert not dset.values.flags.writeable
        assert _same_bits(dset.values, kernel)

    def test_invalid_kind(self):
        with pytest.raises(ValueError, match="kind"):
            DistanceSet(values=np.ones(3), kind="other")

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            DistanceSet(values=np.array([1.0, -0.5]), kind="icd")

    @pytest.mark.parametrize(
        "compute",
        [
            pytest.param(lambda p: icd_set(p), id="icd"),
            pytest.param(lambda p: bcd_set(p[:2], p[2:]), id="bcd"),
            pytest.param(lambda p: pairwise_condensed(p), id="condensed"),
            pytest.param(lambda p: pairwise_condensed(p, workers=3), id="condensed-threads"),
            pytest.param(lambda p: pairwise_cross(p[:2], p[2:]), id="cross"),
            pytest.param(lambda p: distance(p[0], p[1]), id="distance"),
        ],
    )
    def test_overflowing_distances_rejected(self, compute):
        # the DSI refuses these points; so does every function that returns
        # their distances, instead of returning inf, and numpy's overflow
        # on the way prints no warning
        points = np.array([[1e308, 0], [-1e308, 0], [0, 1]])
        with warnings.catch_warnings(), np.errstate(over="warn", invalid="warn"):
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflow"):
                compute(points)


class TestFitMahalanobis:
    def test_recovers_identity_on_whitened_data(self):
        g = rng(16)
        pts = g.normal(size=(5000, 3))
        metric = _fitted(pts)
        np.testing.assert_allclose(
            metric.inverse_covariance, np.eye(3), atol=0.15
        )

    def test_reduces_to_scaled_euclidean_for_isotropic_data(self):
        g = rng(17)
        pts = g.normal(size=(2000, 4)) * 2.0
        metric = _fitted(pts)
        a, b = pts[0], pts[1]
        ratio = distance(a, b, metric) / distance(a, b, "euclidean")
        assert ratio == pytest.approx(0.5, abs=0.05)

    def test_affine_invariance(self):
        # mahalanobis distances survive any invertible linear map of the
        # data; ridge=0 here because the regularizer is added per coordinate
        # system and would perturb the exact identity at its own magnitude
        g = rng(18)
        pts = g.normal(size=(300, 3))
        transform = np.array([[2.0, 0.3, 0.0], [0.0, 1.0, -0.5], [0.1, 0.0, 3.0]])
        mapped = pts @ transform.T
        d_orig = pairwise_condensed(pts, fit_mahalanobis(pts, ridge=0.0))
        d_mapped = pairwise_condensed(mapped, fit_mahalanobis(mapped, ridge=0.0))
        np.testing.assert_allclose(d_orig, d_mapped, rtol=1e-8)

    def test_singular_when_dimension_outruns_samples(self):
        g = rng(19)
        pts = g.normal(size=(3, 50))
        with pytest.raises(SingularCovariance):
            fit_mahalanobis(pts, ridge=0.0)

    def test_ridge_rescues_flat_direction(self):
        g = rng(20)
        base = g.normal(size=(40, 2))
        pts = np.column_stack([base, base[:, 0] + base[:, 1]])  # rank 2 in 3-D
        metric = fit_mahalanobis(pts)  # default ridge
        assert metric.inverse_covariance.shape == (3, 3)

    def test_constant_data_uses_floor_ridge(self):
        pts = np.full((10, 2), 3.0)
        metric = fit_mahalanobis(pts)
        # covariance is zero, so the metric degenerates to scaled euclidean
        assert distance(pts[0], pts[1], metric) == pytest.approx(0.0)

    def test_negative_ridge_rejected(self):
        with pytest.raises(ValueError, match="ridge"):
            fit_mahalanobis(rng(21).normal(size=(10, 2)), ridge=-1.0)

    def test_too_few_points(self):
        with pytest.raises(DegenerateClass):
            fit_mahalanobis([[1.0, 2.0]])
