import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from separability import Dataset, EmptySample, dsi, ks_statistic, wasserstein1, wasserstein1_normalized
from separability._threads import Scratch
from separability.distances import _Blocks
from separability.dsi import _dsi_reports

from conftest import random_dataset, rng
from oracles import grid_ks, grid_wasserstein1

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
samples = st.lists(finite_floats, min_size=1, max_size=60)
# small integer values, like cityblock distances between pixel vectors: ties
# within and across the two samples are the rule, not the exception
tied_samples = st.lists(
    st.integers(min_value=0, max_value=8).map(float), min_size=1, max_size=60
)
# one or two bins put most values in refined bins, among runs of ties; 2**16
# bins leave most bins empty and few values to refine
bin_targets = st.sampled_from([1, 2, 4, 16, 1 << 16])


def _bins_about(target: int):
    return mock.patch.object(sys.modules["separability.stats"], "_bin_target", lambda largest: target)


class TestKs:
    def test_identical_samples(self):
        assert ks_statistic([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == 0.0

    def test_disjoint_ranges(self):
        assert ks_statistic([0.0, 1.0], [5.0, 6.0]) == 1.0

    def test_known_half(self):
        # P jumps to 1 at 0; Q stays 0 until 1: gap 1/2 at x in [0, 1)
        assert ks_statistic([0.0, 0.0], [0.0, 1.0]) == 0.5

    def test_empty_raises(self):
        with pytest.raises(EmptySample):
            ks_statistic([], [1.0])
        with pytest.raises(EmptySample):
            ks_statistic([1.0], [])

    def test_non_finite_raises(self):
        with pytest.raises(ValueError):
            ks_statistic([np.inf], [1.0])

    @given(samples | tied_samples, samples | tied_samples, bin_targets)
    @settings(max_examples=150)
    def test_matches_grid_oracle(self, a, b, target):
        # the oracle takes the same float steps, so the values are equal
        with _bins_about(target):
            assert ks_statistic(a, b) == grid_ks(a, b)

    wide_floats = st.floats(allow_nan=False, allow_infinity=False)

    @given(st.lists(wide_floats, min_size=1, max_size=30), st.lists(wide_floats, min_size=1, max_size=30))
    def test_any_finite_floats(self, a, b):
        # huge magnitudes, subnormals and spans that overflow float64
        assert ks_statistic(a, b) == grid_ks(a, b)

    @given(samples, samples)
    def test_symmetric_and_bounded(self, a, b):
        v = ks_statistic(a, b)
        assert v == ks_statistic(b, a)
        assert 0.0 <= v <= 1.0

    # dyadic values keep scale*x + 1 exact, so the mathematically strictly
    # increasing map stays strictly increasing in float64
    dyadic = st.lists(
        st.integers(min_value=-1000, max_value=1000).map(lambda k: k / 16.0),
        min_size=1,
        max_size=40,
    )

    @given(dyadic, dyadic, st.sampled_from([0.5, 1.0, 2.0, 4.0]))
    def test_increasing_transform_invariance(self, a, b, scale):
        # x -> scale*x + 1 is strictly increasing: the statistic only sees ranks
        base = ks_statistic(a, b)
        mapped = ks_statistic(
            [scale * v + 1.0 for v in a], [scale * v + 1.0 for v in b]
        )
        assert mapped == pytest.approx(base, abs=1e-12)

    def test_against_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        g = np.random.Generator(np.random.Philox(key=np.array([5, 0], dtype=np.uint64)))
        for _ in range(20):
            a = g.normal(size=g.integers(1, 50))
            b = g.normal(loc=0.5, size=g.integers(1, 50))
            expected = scipy_stats.ks_2samp(a, b, method="exact").statistic
            assert ks_statistic(a, b) == pytest.approx(expected, abs=1e-12)


class TestWasserstein:
    def test_unit_shift(self):
        assert wasserstein1([0.0, 1.0], [1.0, 2.0]) == pytest.approx(1.0)

    def test_point_masses(self):
        assert wasserstein1([0.0], [3.0]) == pytest.approx(3.0)

    def test_identical(self):
        assert wasserstein1([2.0, 4.0], [4.0, 2.0]) == 0.0

    @given(samples | tied_samples, samples | tied_samples, bin_targets)
    @settings(max_examples=150)
    def test_matches_grid_oracle(self, a, b, target):
        expected = grid_wasserstein1(a, b)
        span = max(a + b) - min(a + b)
        with _bins_about(target):
            assert wasserstein1(a, b) == pytest.approx(expected, abs=max(1e-9 * span, 1e-12))

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1e-3, 1e-9, 1e-14]), bin_targets)
    @settings(max_examples=60)
    def test_near_identical_samples(self, seed, shift, target):
        # |P - Q| changes sign at nearly every value and W1 is tiny against
        # the range: bins settled from counts would lose it to cancellation
        g = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
        a = g.normal(size=200)
        b = a + shift * g.normal(size=200)
        with _bins_about(target):
            assert wasserstein1(a, b) == pytest.approx(grid_wasserstein1(a, b), rel=1e-12)

    @given(samples, samples, st.floats(min_value=0.1, max_value=100.0))
    def test_scales_linearly(self, a, b, c):
        base = wasserstein1(a, b)
        scaled = wasserstein1([c * v for v in a], [c * v for v in b])
        assert scaled == pytest.approx(c * base, rel=1e-9, abs=1e-9)

    @given(samples, samples)
    def test_symmetric_nonnegative(self, a, b):
        v = wasserstein1(a, b)
        assert v >= 0.0
        assert v == pytest.approx(wasserstein1(b, a), abs=1e-12)

    def test_against_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        g = np.random.Generator(np.random.Philox(key=np.array([6, 0], dtype=np.uint64)))
        for _ in range(20):
            a = g.normal(size=g.integers(1, 50))
            b = g.normal(loc=1.0, size=g.integers(1, 50))
            expected = scipy_stats.wasserstein_distance(a, b)
            assert wasserstein1(a, b) == pytest.approx(expected, rel=1e-9, abs=1e-12)


class TestWassersteinNormalized:
    def test_maximal_transport(self):
        assert wasserstein1_normalized([0.0], [1.0]) == pytest.approx(1.0)

    def test_identical_constant_samples(self):
        assert wasserstein1_normalized([2.0, 2.0], [2.0]) == 0.0

    @given(samples, samples)
    @example([524288.2632923487], [-524288.2697915457])  # W1 / range rounds to 1 + 2**-52
    def test_bounded(self, a, b):
        assert 0.0 <= wasserstein1_normalized(a, b) <= 1.0

    @given(samples, samples, st.floats(min_value=0.1, max_value=100.0))
    def test_scale_invariant(self, a, b, c):
        # a product below the smallest normal float loses precision or rounds
        # to 0 (0.5 * 5e-324 == 0.0), so it is not a scaled copy of its value
        tiny = np.finfo(np.float64).tiny
        assume(all(v == 0.0 or abs(c * v) >= tiny for v in a + b))
        base = wasserstein1_normalized(a, b)
        scaled = wasserstein1_normalized([c * v for v in a], [c * v for v in b])
        assert scaled == pytest.approx(base, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize(
        "a, b",
        [
            ([-1e308, 0.0], [1e308, 0.0]),  # the pooled range overflows; 0.5
            ([-1.7e308], [-1e308, 1.7e308]),  # W1 and the range overflow
        ],
    )
    def test_pooled_range_past_float64(self, a, b):
        # a quarter of each sample has a finite range and the same bins
        # relative to it, so the same bits
        quarter = wasserstein1_normalized([v / 4 for v in a], [v / 4 for v in b])
        assert 0.0 < quarter < 1.0
        assert wasserstein1_normalized(a, b) == quarter


class TestQuantile:
    """``stats._quantile`` reproduces ``np.quantile`` to the bit from blocks,
    and counts the values of multiset 0 up to it."""

    @staticmethod
    def _parts(values, cuts):
        return np.split(values, sorted(c % (values.size + 1) for c in cuts))

    @staticmethod
    def _sources(parts, marks):
        """One source per part, feeding multiset 0 where ``marks`` says, else
        multiset 1 (past the end of ``marks`` too)."""
        marks = list(marks) + [False] * len(parts)
        blocks = [[(part.size, lambda out, scratch, part=part: np.copyto(out, part))] for part in parts]
        return [(_Blocks(block), (0 if mark else 1,)) for block, mark in zip(blocks, marks)]

    @pytest.mark.parametrize("workers", [1, 3])
    @given(
        st.one_of(
            st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=300),
            st.lists(st.integers(0, 6).map(float), min_size=1, max_size=300),
        ),
        st.one_of(
            st.floats(1e-9, 1.0 - 1e-9),
            st.sampled_from([0.05, 0.15, 0.5, 1 / 3, 0.7, 0.95]),
        ),
        st.lists(st.integers(0, 400), max_size=4),
        bin_targets,
        st.lists(st.booleans(), max_size=5),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_numpy(self, workers, values, q, cuts, target, marks):
        values = np.array(values)
        span = (0.0, float(values.max()))
        parts = self._parts(values, cuts)
        with _bins_about(target):
            quantile = sys.modules["separability.stats"]._quantile
            cut, at_most = quantile(self._sources(parts, marks), span, q, workers)
        assert cut == np.quantile(values, q)
        # brute force: every marked value, compared with the cut
        assert at_most == sum(int(np.sum(part <= cut)) for part, mark in zip(parts, marks) if mark)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 21, 100, 101, 1000])
    def test_virtual_index_near_an_integer(self, n):
        # q = k / (n - 1) and its neighbours put numpy's virtual index on,
        # or one rounding either side of, an integer; weights near one half
        # take the other form of numpy's interpolation
        values = np.sqrt(rng(n).integers(0, 50, size=n).astype(float))
        quantile = sys.modules["separability.stats"]._quantile
        for k in range(min(n, 12)):
            base = k / max(n - 1, 1)
            for q in (base, np.nextafter(base, 0.0), np.nextafter(base, 1.0), base + 0.5 / max(n - 1, 1)):
                if 0.0 < q < 1.0:
                    sources = self._sources(self._parts(values, [n // 3]), [True, True])
                    cut, at_most = quantile(sources, (0.0, 8.0), q)
                    assert cut == np.quantile(values, q)
                    assert at_most == np.sum(values <= cut)


class TestBlockContract:
    """Every block walk hands each ``fill`` memory of its own: an ``out`` of
    the block's size, and the scratch of the thread that runs it."""

    @staticmethod
    def _recorded(blocks, calls):
        def wrap(size, fill):
            def recorded(*args):
                calls.append((size, args))
                fill(*args)

            return size, recorded

        return [wrap(*block) for block in blocks]

    @staticmethod
    def _check(calls):
        scratch_type = sys.modules["separability._threads"].Scratch
        assert calls
        for size, args in calls:
            out, scratch = args
            assert isinstance(out, np.ndarray) and out.dtype == np.float64
            assert out.shape == (size,)
            assert isinstance(scratch, scratch_type)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_binned_statistics_passes_out(self, workers):
        dsi_module, distances = sys.modules["separability.dsi"], sys.modules["separability.distances"]
        binned = sys.modules["separability.stats"]._binned_statistics
        ds = random_dataset(n_per_class=150, dim=2, classes=3, seed=4)
        _, sources, bound = dsi_module._multisets(ds, distances.resolve_metric("euclidean"), None)
        calls = []
        recorded = [(_Blocks(self._recorded(source.blocks, calls)), feeds) for source, feeds in sources]
        args = ([(c, 3 + c) for c in range(3)], (0.0, bound), ("ks", "w1"), workers)
        assert binned(recorded, *args) == binned(sources, *args)
        blocks = sum(len(source.blocks) for source, _ in sources)
        assert len(calls) == 2 * blocks  # overlapping classes: both passes ran
        self._check(calls)

    def test_quantile_passes_out(self):
        values = rng(5).normal(size=1000) ** 2
        blocks = [
            (part.size, lambda out, scratch, part=part: np.copyto(out, part))
            for part in np.split(values, [100, 400, 401])
        ]
        calls = []
        quantile = sys.modules["separability.stats"]._quantile
        got, _ = quantile([(_Blocks(self._recorded(blocks, calls)), (0,))], (0.0, float(values.max())), 0.15)
        assert got == np.quantile(values, 0.15)
        assert len(calls) == 2 * len(blocks)
        self._check(calls)

    def test_statistic_fills_out(self, monkeypatch):
        # a sample is cut into blocks of at most _BLOCK_VALUES values, each
        # written into the out it is given
        stats = sys.modules["separability.stats"]
        budget = sys.modules["separability.distances"]._BLOCK_VALUES
        scratch_type = sys.modules["separability._threads"].Scratch
        written, binned = [], stats._binned_statistics

        def spy(sources, *args):
            for source, _ in sources:
                for size, fill in source.blocks:
                    out = np.full(size, np.nan)
                    fill(out, scratch_type())
                    written.append(out)
            return binned(sources, *args)

        monkeypatch.setattr(stats, "_binned_statistics", spy)
        g = rng(6)
        a, b = g.normal(size=budget + 5), g.normal(size=300) + 0.5
        value = ks_statistic(a, b)
        assert [part.size for part in written] == [budget, 5, 300]
        assert np.array_equal(np.concatenate(written), np.concatenate([a, b]))
        monkeypatch.setattr(stats, "_binned_statistics", binned)
        assert ks_statistic(a, b) == value


class TestOnePairPerMultiset:
    """Each multiset of the DSI belongs to one pair, so pass 2 keeps, for
    each side of a gap, exactly its values in that gap's refined bins."""

    @pytest.mark.parametrize("classes", [2, 3])
    def test_kept_values_are_the_gaps_own(self, monkeypatch, classes):
        stats = sys.modules["separability.stats"]
        statistics, seen = stats._Gap.statistics, []

        def spy(gap, kept_a, kept_b, names):
            seen.append((gap, kept_a.copy(), kept_b.copy()))
            return statistics(gap, kept_a, kept_b, names)

        monkeypatch.setattr(stats._Gap, "statistics", spy)
        dsi(random_dataset(n_per_class=150, dim=2, classes=classes, seed=4), stat="ks")
        assert len(seen) == classes
        for gap, kept_a, kept_b in seen:
            assert gap.refine.any()  # overlapping classes: pass 2 ran
            for counts, kept in ((gap.a, kept_a), (gap.b, kept_b)):
                assert gap.refine[gap.bins.index(kept, Scratch())[0]].all()
                assert kept.size == counts.counts[gap.refine].sum()


class TestRuns:
    """A gap's refined bins are ranked in runs of whole bins, so the run
    budget never changes a value."""

    @pytest.mark.parametrize("workers", [1, 3])
    def test_run_boundaries_leave_values_unchanged(self, monkeypatch, workers):
        stats = sys.modules["separability.stats"]
        # integer points in 0..3: distances tie heavily, so some refined bins
        # hold more values than the budget below
        g = rng(27)
        ds = Dataset(g.integers(0, 4, size=(240, 3)).astype(float), g.permutation(np.arange(240) % 3))

        def values():
            reports = _dsi_reports(ds, "euclidean", ("ks", "wasserstein"), workers, None)
            return [v.hex() for report in reports for v in report.per_class_similarity.values()]

        unpatched = values()
        merge, statistics, runs, gaps = stats._merge, stats._Gap.statistics, [], []

        def merge_spy(kept_a, kept_b):
            runs.append(kept_a.size + kept_b.size)
            return merge(kept_a, kept_b)

        def statistics_spy(gap, *args):
            gaps.append(gap)
            return statistics(gap, *args)

        monkeypatch.setattr(stats, "_merge", merge_spy)
        monkeypatch.setattr(stats._Gap, "statistics", statistics_spy)
        monkeypatch.setattr(stats, "_BLOCK_VALUES", 5)
        assert values() == unpatched
        assert len(gaps) == 3 and len(runs) > 30
        # one refined bin alone is larger than the budget
        assert any(((gap.a.counts + gap.b.counts)[gap.refine] > 5).any() for gap in gaps)


class TestRefineRule:
    """``_Gap`` refines by one rule per statistic at every sample size; these
    gaps are synthetic pass-1 counts of multisets far too large to fill."""

    @staticmethod
    def _gap(ha, hb, names, top=None):
        stats = sys.modules["separability.stats"]
        bins = stats._Bins(1.0, 0, len(ha))
        sides = []
        for counts in (ha, hb):
            side = stats._Counts(bins.size, True, int(np.sum(counts)))
            side.counts[:] = counts
            side.low, side.high = 0.0, float(bins.size if top is None else top)
            sides.append(side)
        return stats._Gap(*sides, bins, names)

    @staticmethod
    def _counts(g, n, weights):
        """n values spread over the bins by ``weights``: a multinomial draw."""
        return g.multinomial(n, weights / weights.sum())

    @pytest.mark.parametrize("seed", range(4))
    def test_ks_single_sample_bins_stay_within_their_ends(self, seed):
        g, size = rng(seed), 96
        kind = g.integers(0, 3, size=size)  # 0: a only, 1: b only, 2: both
        # mixed bins lean to a below the middle and to b above it, so P - Q
        # peaks at the end of the middle bin, which holds a alone
        kind[size // 2 - 1 : size // 2 + 1] = 0, 1
        small = g.integers(1, 20_000, size=size)
        ha = np.where(kind == 0, small, 0)
        hb = np.where(kind == 1, small, 0)
        mixed, lean = kind == 2, np.arange(size) < size // 2
        wa, wb = (np.where(lean ^ flip, 2.0, 1.0) + g.random(size) for flip in (False, True))
        ha[mixed] += self._counts(g, (1 << 26) + 3 - ha.sum(), wa[mixed])
        hb[mixed] += self._counts(g, (1 << 25) + 5 - hb.sum(), wb[mixed])
        gap = self._gap(ha, hb, ("ks",))
        na, nb = gap.na, gap.nb
        assert na * nb > 2**50
        single = np.flatnonzero((ha > 0) != (hb > 0))
        assert not gap.refine[single].any()
        a_below, b_below = np.cumsum(ha) - ha, np.cumsum(hb) - hb
        reachable = 0
        for i in single:
            # the heights at each count of the bin's values, with the float
            # operations of the merge's heights
            steps = np.arange(ha[i] + hb[i] + 1)
            count_a = a_below[i] + (steps if ha[i] else 0)
            count_b = b_below[i] + (steps if hb[i] else 0)
            heights = np.abs(count_a / na - count_b / nb)
            assert heights.max() <= max(heights[0], heights[-1])
            assert heights[-1] <= gap.best
            reachable += heights[-1] + 2.0**-48 > gap.best
        assert reachable  # a padded float rule would have refined one

    @staticmethod
    def _w1_oracle(ha, hb, stretched):
        """The bins where P - Q can change sign, in Python ints, and the last
        bin if values past its nominal edge stretch it."""
        na, nb = int(sum(ha)), int(sum(hb))
        below_a = below_b = 0
        refine = []
        for x, y in zip(ha.tolist(), hb.tolist()):
            lowest = below_a * nb - (below_b + y) * na
            highest = (below_a + x) * nb - below_b * na
            refine.append(lowest < 0 < highest)
            below_a, below_b = below_a + x, below_b + y
        refine[-1] |= stretched
        return np.array(refine)

    @pytest.mark.parametrize(
        "na, nb",
        [
            ((1 << 26) + 3, (1 << 25) + 5),  # int64 holds (P - Q) * na * nb
            (3_037_000_500, 3_037_000_500),  # na * nb just past 2**63
            ((1 << 40) + 7, (1 << 33) + 1),
        ],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_w1_refines_where_the_sign_can_change(self, na, nb, seed):
        g, size = rng(seed), 128
        # heavy-tailed weights, some bins empty on either side: P - Q wanders
        # off zero, where small bins keep one sign, and back
        wa, wb = (g.pareto(0.8, size) * (g.random(size) < 0.7) for _ in range(2))
        ha, hb = self._counts(g, na, wa), self._counts(g, nb, wb)
        if na == nb:  # equal counts up to a bin of a alone: P - Q touches 0
            ha[:8] = hb[:8] = 1000
            ha[8], hb[8] = 5, 0
            ha[9:] = self._counts(g, na - ha[:9].sum(), wa[9:] + 1)
            hb[9:] = self._counts(g, nb - hb[:9].sum(), wb[9:] + 1)
        for top, stretched in ((size, False), (size + 0.5, True)):
            gap = self._gap(ha, hb, ("w1",), top)
            assert (gap.na, gap.nb) == (na, nb)
            oracle = self._w1_oracle(ha, hb, stretched)
            assert np.array_equal(gap.refine, oracle)
            assert 0 < oracle.sum() < size
        if na == nb:
            assert not oracle[8]
