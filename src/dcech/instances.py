"""Seeded random instances for verification suites and tests.

Everything takes an explicit random.Random so runs are reproducible from a
single seed. Planar clouds are generic with probability one; finite metric
spaces are made exactly triangle-consistent by iterating the shortest-path
relaxation to a float fixpoint, so metric validation passes with no slack.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

import numpy as np

from .builders import DowkerDissimilarity
from .core import DiscreteMeasure, FiniteMetricSpace

__all__ = [
    "random_planar_space",
    "random_metric_space",
    "random_measure",
    "random_dowker",
    "perturbed_cloud",
    "random_coords",
]


def random_coords(rng: random.Random, n: int, scale: float = 1.0) -> list[tuple[float, float]]:
    return [(rng.uniform(0.0, scale), rng.uniform(0.0, scale)) for _ in range(n)]


def random_planar_space(rng: random.Random, n: int, scale: float = 1.0) -> FiniteMetricSpace:
    return FiniteMetricSpace.from_points(random_coords(rng, n, scale))


def _closure_to_fixpoint(d: np.ndarray) -> None:
    # repeat until no float changes; one pass is not enough because rounding
    # can reopen a triangle that an earlier update closed. Row and column k
    # hold still during pass k (the diagonal is 0), so one array step per k
    # makes the same updates as a loop over i and j
    changed = True
    while changed:
        changed = False
        for k in range(d.shape[0]):
            v = d[:, k, None] + d[k]
            better = v < d  # not np.minimum, which may pick -0.0 over 0.0
            if better.any():
                d[better] = v[better]
                changed = True


def random_metric_space(
    rng: random.Random, n: int, low: float = 0.2, high: float = 1.0
) -> FiniteMetricSpace:
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = rng.uniform(low, high)
    _closure_to_fixpoint(d)
    return FiniteMetricSpace.from_matrix(d)


def random_measure(
    rng: random.Random,
    n: int,
    zero_count: int = 0,
    low: float = 0.2,
    high: float = 1.0,
) -> DiscreteMeasure:
    if zero_count >= n:
        raise ValueError("a measure needs at least one support point")
    zeros = set(rng.sample(range(n), zero_count))
    return DiscreteMeasure(
        tuple(0.0 if i in zeros else rng.uniform(low, high) for i in range(n))
    )


def random_dowker(
    rng: random.Random, nx: int, ny: int, low: float = 0.1, high: float = 1.0
) -> DowkerDissimilarity:
    m = np.array([[rng.uniform(low, high) for _ in range(ny)] for _ in range(nx)])
    return DowkerDissimilarity(m)


def perturbed_cloud(
    rng: random.Random, coords: Sequence[tuple[float, float]], delta: float
) -> list[tuple[float, float]]:
    """Move every point by a Euclidean distance of at most delta."""
    out = []
    for x, y in coords:
        ang = rng.uniform(0.0, 2.0 * math.pi)
        rad = delta * rng.uniform(0.0, 1.0)
        out.append((x + rad * math.cos(ang), y + rad * math.sin(ang)))
    return out
