import sys
import tracemalloc

import numpy as np
import pytest

from separability import Dataset


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance verdict lines after capture has ended."""
    mod = sys.modules.get("test_acceptance")
    verdicts = getattr(mod, "VERDICTS", None) if mod else None
    if verdicts:
        terminalreporter.section("acceptance criteria")
        for line in verdicts:
            terminalreporter.write_line(line)


# per metric, points with one row whose squared norm (centred, for
# correlation) overflows float64, and that row's index
HUGE_NORM_ROWS = {
    "cosine": (np.array([[1e308, 1e308], [-1e308, 2e307], [1, 1], [1, 2]]), 0),
    "correlation": (np.array([[1, 2, 4], [1e308, -1e308, 0], [2, 1, 3], [1, 3, 2]]), 1),
}


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


def traced_peak(fn):
    """``fn()``'s result and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def random_dataset(
    n_per_class: int = 30, dim: int = 3, classes: int = 2, seed: int = 0, spread: float = 0.0
) -> Dataset:
    """Gaussian classes; ``spread`` moves the class means apart."""
    g = rng(seed)
    points = []
    labels = []
    for c in range(classes):
        center = np.zeros(dim)
        center[0] = c * spread
        points.append(center + g.normal(size=(n_per_class, dim)))
        labels.append(np.full(n_per_class, c))
    return Dataset(np.vstack(points), np.concatenate(labels))


@pytest.fixture
def small_two_class() -> Dataset:
    return random_dataset(n_per_class=20, dim=2, seed=7, spread=3.0)


@pytest.fixture
def computed_pairs(monkeypatch) -> list[int]:
    """Receives the number of point pairs of each pdist/cdist call the package makes."""
    distances = sys.modules["separability.distances"]
    pdist, cdist = distances.pdist, distances.cdist
    pairs: list[int] = []

    def counted_pdist(points, **kwargs):
        pairs.append(len(points) * (len(points) - 1) // 2)
        return pdist(points, **kwargs)

    def counted_cdist(points_a, points_b, **kwargs):
        pairs.append(len(points_a) * len(points_b))
        return cdist(points_a, points_b, **kwargs)

    monkeypatch.setattr(distances, "pdist", counted_pdist)
    monkeypatch.setattr(distances, "cdist", counted_cdist)
    return pairs
