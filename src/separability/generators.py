"""Seeded synthetic two-class datasets in the plane.

Every shape produces exactly ``n_per_class`` points per class.  Randomness
comes from numpy's Philox counter-based generator keyed by
``[seed, class_index]``: each class draws from its own stream, so the
points of class 0 do not change when anything about class 1 does, and the
same spec yields byte-identical output on every platform and process.

Shapes
------
random    both classes uniform on the unit square (pure label noise)
xor       uniform quadrant blocks in checkerboard arrangement
circles   two concentric rings, inner radius 0.5, Gaussian radial jitter
moons     two interleaving half-rings, isotropic Gaussian jitter
spirals   two Archimedean spiral arms half a turn apart, isotropic jitter
blobs     two unit-variance Gaussian clusters, centers 7 apart: linearly
          separable with a whisker of overlap
blobsd    two Gaussian clusters at centers pinned 10 apart with standard
          deviation ``cluster_sd``: the knob for sweeping class overlap

``noise`` applies to circles, moons, and spirals (defaults per shape);
``cluster_sd`` is required for blobsd and applies only there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import DomainError, SpecError

__all__ = [
    "SHAPES",
    "DEFAULT_NOISE",
    "BLOB_CENTERS",
    "BLOBSD_CENTERS",
    "GeneratorSpec",
    "generate",
    "normalize_accuracy",
]

SHAPES = ("random", "xor", "circles", "moons", "spirals", "blobs", "blobsd")

DEFAULT_NOISE = {
    "circles": 0.05,
    "moons": 0.08,
    "spirals": 0.005,
}

BLOB_CENTERS = ((0.0, 0.0), (7.0, 0.0))

# blobsd centers are pinned so `cluster_sd` alone controls class overlap.
BLOBSD_CENTERS = ((0.0, 0.0), (10.0, 0.0))

_SPIRAL_TURNS = 2.5  # each arm sweeps 2.5 turns, arms offset by half a turn


@dataclass(frozen=True)
class GeneratorSpec:
    """Validated description of a synthetic dataset.

    ``noise`` / ``cluster_sd`` left as None take the shape's default;
    setting one on a shape that does not use it is an error.
    """

    shape: str
    n_per_class: int
    seed: int = 0
    noise: float | None = None
    cluster_sd: float | None = None

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise SpecError(
                f"unknown shape {self.shape!r}; expected one of {', '.join(SHAPES)}"
            )
        if not isinstance(self.n_per_class, (int, np.integer)) or isinstance(
            self.n_per_class, bool
        ):
            raise SpecError("n_per_class must be an integer")
        if self.n_per_class < 2:
            raise SpecError(f"n_per_class must be >= 2, got {self.n_per_class}")
        if not isinstance(self.seed, (int, np.integer)) or isinstance(self.seed, bool):
            raise SpecError("seed must be an integer")
        if not 0 <= int(self.seed) < 2**64:
            raise SpecError("seed must fit in an unsigned 64-bit integer")
        if self.noise is not None:
            if self.shape not in DEFAULT_NOISE:
                raise SpecError(f"shape {self.shape!r} takes no noise parameter")
            if not (math.isfinite(self.noise) and self.noise >= 0.0):
                raise SpecError("noise must be finite and >= 0")
        if self.shape == "blobsd":
            if self.cluster_sd is None:
                raise SpecError("blobsd requires cluster_sd")
            if not (math.isfinite(self.cluster_sd) and self.cluster_sd > 0.0):
                raise SpecError("cluster_sd must be finite and > 0")
        elif self.cluster_sd is not None:
            raise SpecError("cluster_sd only applies to the blobsd shape")

    @property
    def effective_noise(self) -> float:
        if self.shape not in DEFAULT_NOISE:
            return 0.0
        return DEFAULT_NOISE[self.shape] if self.noise is None else float(self.noise)


def _philox(seed: int, stream: int) -> np.random.Generator:
    """The package's one source of randomness: Philox keyed by ``[seed, stream]``.

    Both key words are unsigned 64-bit, so a seed outside [0, 2**64) raises
    ``DomainError``.
    """
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed must be in [0, 2**64), got {seed}")
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def _gen_random(rng: np.random.Generator, n: int, c: int, noise: float) -> np.ndarray:
    return rng.random((n, 2))


def _gen_xor(rng: np.random.Generator, n: int, c: int, noise: float) -> np.ndarray:
    # Checkerboard: class 0 in quadrants I and III, class 1 in II and IV.
    base = rng.random((n, 2))
    flip = rng.integers(0, 2, size=n).astype(bool)
    pts = base.copy()
    if c == 0:
        pts[flip] -= 1.0
    else:
        pts[:, 0] -= 1.0
        pts[flip] += [1.0, -1.0]
    return pts

def _gen_circles(rng: np.random.Generator, n: int, c: int, noise: float) -> np.ndarray:
    radius = 1.0 if c == 0 else 0.5
    theta = rng.random(n) * (2.0 * np.pi)
    r = radius + rng.normal(0.0, noise, size=n) if noise > 0 else np.full(n, radius)
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


def _gen_moons(rng: np.random.Generator, n: int, c: int, noise: float) -> np.ndarray:
    theta = rng.random(n) * np.pi
    if c == 0:
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
    else:
        pts = np.column_stack([1.0 - np.cos(theta), 0.5 - np.sin(theta)])
    if noise > 0:
        pts += rng.normal(0.0, noise, size=(n, 2))
    return pts


def _gen_spirals(rng: np.random.Generator, n: int, c: int, noise: float) -> np.ndarray:
    t = rng.random(n)
    angle = t * (2.0 * np.pi * _SPIRAL_TURNS) + c * np.pi
    pts = np.column_stack([t * np.cos(angle), t * np.sin(angle)])
    if noise > 0:
        pts += rng.normal(0.0, noise, size=(n, 2))
    return pts


def _gen_blobs(rng: np.random.Generator, n: int, c: int, noise: float) -> np.ndarray:
    center = np.asarray(BLOB_CENTERS[c])
    return center + rng.normal(0.0, 1.0, size=(n, 2))


def _gen_blobsd(rng: np.random.Generator, n: int, c: int, sd: float) -> np.ndarray:
    center = np.asarray(BLOBSD_CENTERS[c])
    return center + rng.normal(0.0, sd, size=(n, 2))


_SHAPE_FUNCS = {
    "random": _gen_random,
    "xor": _gen_xor,
    "circles": _gen_circles,
    "moons": _gen_moons,
    "spirals": _gen_spirals,
    "blobs": _gen_blobs,
    "blobsd": _gen_blobsd,
}


def generate(spec: GeneratorSpec) -> Dataset:
    """Materialize a spec into a labeled dataset.

    Rows are class 0's points followed by class 1's; identical specs yield
    identical datasets.
    """
    fn = _SHAPE_FUNCS[spec.shape]
    param = (
        float(spec.cluster_sd) if spec.shape == "blobsd" else spec.effective_noise
    )
    parts = [
        fn(_philox(int(spec.seed), c), spec.n_per_class, c, param) for c in (0, 1)
    ]
    points = np.vstack(parts)
    labels = np.repeat(np.arange(2, dtype=np.int64), spec.n_per_class)
    return Dataset(points=points, labels=labels)


def normalize_accuracy(accuracy: float) -> float:
    """Rescale a two-class accuracy from [0.5, 1] onto [0, 1].

    r = (accuracy - 0.5) / 0.5, so chance level maps to 0 and perfect
    accuracy to 1.  Values outside [0.5, 1] are rejected: below chance has
    no meaning on this scale.
    """
    x = float(accuracy)
    if not math.isfinite(x) or not 0.5 <= x <= 1.0:
        raise DomainError(f"accuracy must lie in [0.5, 1], got {accuracy!r}")
    return (x - 0.5) / 0.5
