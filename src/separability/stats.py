"""Two-sample statistics over empirical distributions.

Both statistics compare the empirical CDFs P and Q of two real samples:

* ``ks_statistic``      sup_x |P(x) - Q(x)|, the Kolmogorov-Smirnov distance
* ``wasserstein1``      integral of |P(x) - Q(x)| dx, the 1-Wasserstein
  (earth mover's) distance between the empirical measures

Empirical CDFs are right-continuous step functions that break only at pooled
sample values, so both statistics reduce |P - Q| there, found in one merge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import EmptySample

__all__ = [
    "EmpiricalCdf",
    "ks_statistic",
    "wasserstein1",
    "wasserstein1_normalized",
]


@dataclass(frozen=True)
class EmpiricalCdf:
    """Right-continuous empirical CDF of a finite sample.

    ``values`` is the sorted sample; ``evaluate(x)`` returns the fraction of
    sample points <= x, so it steps by multiples of 1/n at each distinct
    sample value and satisfies F(-inf) = 0, F(+inf) = 1.
    """

    values: NDArray[np.float64]

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64).ravel()
        if vals.size == 0:
            raise EmptySample("cannot build a CDF from an empty sample")
        if not np.all(np.isfinite(vals)):
            raise ValueError("sample contains non-finite values")
        vals = np.sort(vals)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return int(self.values.size)

    def evaluate(self, x) -> NDArray[np.float64]:
        """F(x): fraction of sample values <= x (scalar or array x)."""
        pos = np.searchsorted(self.values, x, side="right")
        return pos / self.n

    def __call__(self, x):
        return self.evaluate(x)


def _cdf_gap(sample_a, sample_b) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Validate and sort both samples, then ``_sorted_cdf_gap`` them."""
    return _sorted_cdf_gap(EmpiricalCdf(sample_a).values, EmpiricalCdf(sample_b).values)


def _sorted_cdf_gap(a, b) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Pooled sorted grid and |P - Q| at each grid value (right limits).

    ``a`` and ``b`` must be sorted, finite and non-empty float64 arrays;
    they are neither checked nor copied.  A stable argsort of the two runs
    merges them in linear time (timsort).  Counts are float64, exact below
    2**53, so the rest is in place; at most three arrays of the pooled size
    are live at once.
    """
    na, nb = a.size, b.size
    grid = np.concatenate([a, b])
    order = np.argsort(grid, kind="stable")
    grid = grid[order]
    count_a = (order < na).astype(np.float64)
    del order
    np.cumsum(count_a, out=count_a)
    count_b = np.arange(1.0, grid.size + 1.0)
    count_b -= count_a
    # Right limits: tied values take the counts at their run's last member,
    # which, as counts never decrease, is a reverse running minimum of run ends.
    inside_run = np.append(grid[:-1] == grid[1:], False)
    if inside_run.any():
        for count in (count_a, count_b):
            count[inside_run] = np.inf
            np.minimum.accumulate(count[::-1], out=count[::-1])
    del inside_run
    count_a /= na
    count_b /= nb
    count_a -= count_b
    return grid, np.abs(count_a, out=count_a)


# Reductions of one CDF gap, shared by the public statistics and ``dsi``.


def _ks(grid, heights) -> float:
    return float(heights.max())


def _w1(grid, heights) -> float:
    # an elementwise product and a sum, not np.dot: a BLAS dot can wake
    # worker threads that spin without shortening the wall time
    gaps = np.diff(grid)
    gaps *= heights[:-1]
    return float(gaps.sum())


def _w1_normalized(grid, heights) -> float:
    pooled_range = float(grid[-1] - grid[0])
    if pooled_range == 0.0:
        return 0.0
    return _w1(grid, heights) / pooled_range


def ks_statistic(sample_a, sample_b) -> float:
    """Kolmogorov-Smirnov statistic sup_x |P(x) - Q(x)| between two samples.

    Exact for the empirical step functions: the supremum is attained at a
    pooled sample value.  Returns a value in [0, 1]; 0 iff the sorted
    samples induce identical CDFs, 1 iff the sample ranges are disjoint.
    """
    return _ks(*_cdf_gap(sample_a, sample_b))


def wasserstein1(sample_a, sample_b) -> float:
    """Exact 1-Wasserstein distance between two empirical distributions.

    Computed as the integral of |P(x) - Q(x)| over x: both CDFs are
    piecewise constant between consecutive pooled sample values, so the
    integral is a finite sum of rectangle areas.  Unbounded above in
    general (scales with the data units).
    """
    return _w1(*_cdf_gap(sample_a, sample_b))


def wasserstein1_normalized(sample_a, sample_b) -> float:
    """1-Wasserstein distance rescaled by the pooled sample range.

    Dividing by max - min of the pooled sample bounds the value to [0, 1],
    making it comparable with ``ks_statistic``.  When the pooled range is
    zero every sample value coincides, the distributions are identical, and
    the distance is 0 by convention.
    """
    return _w1_normalized(*_cdf_gap(sample_a, sample_b))
