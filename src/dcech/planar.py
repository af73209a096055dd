"""Ambient degree Cech bifiltration for point sets in the plane.

Witnesses range over the whole plane, so presence of tau at (m, r) asks for a
disk of radius r containing tau whose support mass is at least m. The value
of tau at r is therefore

    max{ mass(C) : C a support subset containing tau, meb(C) <= r }

because any witness disk of radius r covering C can be shrunk onto the
minimum enclosing ball of C, and conversely the meb center of C is itself a
witness. Enumerating support subsets gives the exact upper envelope with no
arrangement sweeping; subset counts are 2^|support|, so keep supports small.

Minimum enclosing balls are computed by brute force over the finitely many
candidate centers (points, pair midpoints, triple circumcenters); the true
center is always among them, so the result is exact up to float rounding in
the circumcenter formula. Collinear triples contribute no candidate.
"""

from __future__ import annotations

import math
import warnings
from itertools import combinations
from typing import Sequence

from .core import (
    BifilteredComplex,
    DiscreteMeasure,
    FiniteMetricSpace,
    Simplex,
    Staircase,
)
from .errors import DimensionMismatch, EmptySupport, MissingCoordinates

__all__ = [
    "circumcenter",
    "minimum_enclosing_ball",
    "planar_breakpoints",
    "ambient_dc_planar",
]

Point = tuple[float, float]


def _dist(a: Point, b: Point) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def circumcenter(a: Point, b: Point, c: Point) -> Point | None:
    """Center equidistant from three points, or None when collinear.

    The arguments are sorted before evaluating, so permutations of the same
    triple round to the same floats and radii derived from them compare
    exactly across call sites.
    """
    a, b, c = sorted((a, b, c))
    ax, ay = a
    bx, by = b
    cx, cy = c
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if d == 0.0:
        return None
    ux = (
        (ax * ax + ay * ay) * (by - cy)
        + (bx * bx + by * by) * (cy - ay)
        + (cx * cx + cy * cy) * (ay - by)
    ) / d
    uy = (
        (ax * ax + ay * ay) * (cx - bx)
        + (bx * bx + by * by) * (ax - cx)
        + (cx * cx + cy * cy) * (bx - ax)
    ) / d
    return (ux, uy)


def minimum_enclosing_ball(points: Sequence[Point]) -> tuple[Point, float]:
    """Smallest closed disk containing the points, as (center, radius).

    Brute force over candidate centers; exact because the optimal center is
    a point, a pair midpoint, or a triple circumcenter.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if not pts:
        raise EmptySupport("minimum enclosing ball of no points")
    if len(pts) == 1:
        return pts[0], 0.0
    candidates: list[Point] = list(pts)
    for a, b in combinations(pts, 2):
        candidates.append(((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0))
    for a, b, c in combinations(pts, 3):
        cc = circumcenter(a, b, c)
        if cc is not None:
            candidates.append(cc)
    best_c = candidates[0]
    best_r = math.inf
    for c in candidates:
        r = max(_dist(c, p) for p in pts)
        if r < best_r:
            best_r = r
            best_c = c
    return best_c, best_r


def planar_breakpoints(points: Sequence[Point]) -> tuple[float, ...]:
    """Radii where planar disk coverage combinatorics can change.

    Half pairwise distances (pair mebs), circumradii of non-collinear
    triples, and full pairwise distances (so joint grids with intrinsic
    constructions need no extra points).
    """
    pts = [(float(x), float(y)) for x, y in points]
    out: set[float] = set()
    for a, b in combinations(pts, 2):
        d = _dist(a, b)
        out.add(d / 2.0)
        out.add(d)
    for a, b, c in combinations(pts, 3):
        cc = circumcenter(a, b, c)
        if cc is not None:
            out.add(_dist(cc, a))
    return tuple(sorted(out))


def ambient_dc_planar(
    space: FiniteMetricSpace,
    measure: DiscreteMeasure,
    dim_cap: int = 3,
) -> BifilteredComplex:
    """Degree Cech bifiltration of a weighted planar point set.

    ``space`` must carry coordinates; distances are ignored in favor of the
    plane. Vertices are the support of the measure.
    """
    if space.coords is None:
        raise MissingCoordinates("ambient planar construction needs coordinates")
    if len(measure) != space.n:
        raise DimensionMismatch("measure does not align with the space")
    sup = list(measure.support)
    if not sup:
        raise EmptySupport("measure has empty support")
    s = len(sup)
    if s > 15:
        warnings.warn(
            f"enumerating 2^{s} support subsets; this will be slow", stacklevel=2
        )
    pts = [(float(space.coords[i][0]), float(space.coords[i][1])) for i in sup]
    wts = [measure.weights[i] for i in sup]

    full = 1 << s
    rad = [0.0] * full
    mass = [0.0] * full
    for c_mask in range(1, full):
        members = [k for k in range(s) if c_mask >> k & 1]
        rad[c_mask] = minimum_enclosing_ball([pts[k] for k in members])[1]
        # the members' weights added left to right, as the degree tables do
        top = members[-1]
        mass[c_mask] = mass[c_mask ^ 1 << top] + wts[top]

    entries: dict[Simplex, Staircase] = {}
    for size in range(1, min(dim_cap + 2, s + 1)):
        for sigma in combinations(range(s), size):
            smask = 0
            for k in sigma:
                smask |= 1 << k
            items = []
            rest = (full - 1) ^ smask
            sub = rest
            while True:
                c_mask = smask | sub
                items.append((rad[c_mask], -mass[c_mask]))
                if sub == 0:
                    break
                sub = (sub - 1) & rest
            items.sort()
            steps: list[tuple[float, float]] = []
            cur = -math.inf
            for r, neg in items:
                v = -neg
                if v > cur:
                    # equal radii sort largest mass first, so no overwrite
                    if steps and steps[-1][0] == r:
                        steps[-1] = (r, v)
                    else:
                        steps.append((r, v))
                    cur = v
            entries[tuple(sup[k] for k in sigma)] = Staircase(tuple(steps))

    return BifilteredComplex(tuple(sup), entries, dim_cap)
