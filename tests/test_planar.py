"""Planar enclosing balls and the planar ambient bifiltration.

Exact expectations come from hand geometry on the unit square S4 and small
triangles; randomized checks compare against the recursive enclosing-ball
oracle in oracles.py, which shares the distance and circumcenter formulas so
agreement is bitwise.
"""

import math
import random
from functools import reduce
from operator import add

import pytest

from dcech import (
    DegreeBifiltration,
    DimensionMismatch,
    DiscreteMeasure,
    DowkerDissimilarity,
    EmptySupport,
    FiniteMetricSpace,
    MissingCoordinates,
    ambient_dc_finite,
    ambient_dc_planar,
    circumcenter,
    measure_bifiltration_points,
    minimum_enclosing_ball,
    planar_breakpoints,
)
from .oracles import cech_simplices_welzl, welzl_meb

RT_HALF = math.sqrt(0.5)

S4 = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


class TestCircumcenter:
    def test_right_triangle(self):
        c = circumcenter((0.0, 0.0), (4.0, 0.0), (0.0, 3.0))
        assert c == (2.0, 1.5)

    def test_collinear_is_none(self):
        assert circumcenter((0.0, 0.0), (1.0, 0.0), (3.0, 0.0)) is None


class TestMinimumEnclosingBall:
    def test_degenerate_sizes(self):
        assert minimum_enclosing_ball([(2.0, 3.0)]) == ((2.0, 3.0), 0.0)
        c, r = minimum_enclosing_ball([(0.0, 0.0), (2.0, 0.0)])
        assert c == (1.0, 0.0) and r == 1.0
        with pytest.raises(EmptySupport):
            minimum_enclosing_ball([])

    def test_obtuse_triangle_uses_longest_edge(self):
        c, r = minimum_enclosing_ball([(0.0, 0.0), (4.0, 0.0), (1.0, 1.0)])
        assert c == (2.0, 0.0) and r == 2.0

    def test_acute_triangle_uses_circumcircle(self):
        c, r = minimum_enclosing_ball([(0.0, 0.0), (4.0, 0.0), (2.0, 3.0)])
        assert c == pytest.approx((2.0, 5.0 / 6.0), abs=1e-12)
        assert r == pytest.approx(13.0 / 6.0, abs=1e-12)

    def test_cocircular_square(self):
        c, r = minimum_enclosing_ball(S4)
        assert c == (0.5, 0.5)
        assert r == RT_HALF

    def test_matches_recursive_oracle_bitwise(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(1, 8)
            pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(n)]
            c_lib, r_lib = minimum_enclosing_ball(pts)
            c_orc, r_orc = welzl_meb(pts)
            assert r_lib == r_orc, pts
            assert max(math.hypot(c_lib[0] - p[0], c_lib[1] - p[1]) for p in pts) <= r_lib


class TestPlanarBreakpoints:
    def test_collinear_l3(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (3.0, 0.0)]
        assert planar_breakpoints(pts) == (0.5, 1.0, 1.5, 2.0, 3.0)

    def test_right_triangle(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        assert planar_breakpoints(pts) == (0.5, RT_HALF, 1.0, math.sqrt(2.0))


class TestAmbientDcPlanar:
    def test_s4_exact_staircases(self):
        space = FiniteMetricSpace.from_points(S4)
        K = ambient_dc_planar(space, DiscreteMeasure.counting(4))
        K.validate()
        assert K.staircase((0,)).steps == ((0.0, 1.0), (0.5, 2.0), (RT_HALF, 4.0))
        assert K.staircase((0, 1)).steps == ((0.5, 2.0), (RT_HALF, 4.0))
        assert K.staircase((0, 2)).steps == ((RT_HALF, 4.0),)
        assert K.staircase((0, 1, 2)).steps == ((RT_HALF, 4.0),)
        assert K.staircase((0, 1, 2, 3)).steps == ((RT_HALF, 4.0),)

    def test_counting_m1_slice_is_cech(self):
        rng = random.Random(11)
        pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(6)]
        space = FiniteMetricSpace.from_points(pts)
        K = ambient_dc_planar(space, DiscreteMeasure.counting(6))
        grid = planar_breakpoints(pts)
        for r in (0.0, grid[0], grid[len(grid) // 2], grid[-1]):
            got = K.complex_at(1.0, r).simplices
            want = cech_simplices_welzl(pts, 4, r)
            assert got == frozenset(want), r

    def test_weighted_staircases_match_subset_envelope(self):
        rng = random.Random(23)
        pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(6)]
        wts = [float(rng.randint(1, 3)) for _ in range(6)]
        space = FiniteMetricSpace.from_points(pts)
        K = ambient_dc_planar(space, DiscreteMeasure(tuple(wts)))
        for sigma, stair in K.entries.items():
            cand = []
            for mask in range(1, 1 << 6):
                members = [k for k in range(6) if mask >> k & 1]
                if not set(sigma) <= set(members):
                    continue
                _, r = welzl_meb([pts[k] for k in members])
                cand.append((r, sum(wts[k] for k in members)))
            for r, m in cand:
                assert stair.value(r) >= m
            for step_r, step_v in stair.steps:
                assert any(r <= step_r and m >= step_v for r, m in cand)

    def test_zero_weights_leave_witnesses(self):
        # a massless middle point still lets a disk around it cover both ends
        pts = [(0.0, 0.0), (2.0, 0.0), (4.0, 0.0)]
        space = FiniteMetricSpace.from_points(pts)
        K = ambient_dc_planar(space, DiscreteMeasure((1.0, 0.0, 1.0)))
        assert K.universe == (0, 2)
        assert K.staircase((0, 2)).steps == ((2.0, 2.0),)

    def test_r_grid_resampling(self):
        space = FiniteMetricSpace.from_points(S4)
        K = ambient_dc_planar(space, DiscreteMeasure.counting(4)).restrict_r_grid([0.0, 1.0])
        assert K.staircase((0,)).steps == ((0.0, 1.0), (1.0, 4.0))
        assert K.staircase((0, 1)).steps == ((1.0, 4.0),)
        assert K.staircase((0, 2)).steps == ((1.0, 4.0),)

    def test_requires_coordinates_and_alignment(self):
        no_coords = FiniteMetricSpace.from_matrix([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(MissingCoordinates):
            ambient_dc_planar(no_coords, DiscreteMeasure.counting(2))
        space = FiniteMetricSpace.from_points(S4)
        with pytest.raises(DimensionMismatch):
            ambient_dc_planar(space, DiscreteMeasure.counting(3))


class TestOneRoundingPath:
    """Masses add left to right from 0.0 in every builder. Ten weights of 0.1
    sum to 1.0 with compensation (sum() from Python 3.12 on) but to
    0.9999999999999999 left to right, so a second rounding path shows here."""

    def test_ten_tenths_in_one_ball(self):
        pts = [(0.01 * k, 0.0) for k in range(10)]
        space = FiniteMetricSpace.from_points(pts)
        mu = DiscreteMeasure((0.1,) * 10)
        folded = reduce(add, mu.weights, 0.0)
        assert folded != 1.0
        planar = ambient_dc_planar(space, mu, 1)
        finite = ambient_dc_finite(space, mu, 1)
        f = DegreeBifiltration(DowkerDissimilarity.from_metric(space), mu)
        whole = [(0,), (0, 9)]
        values = {
            "planar": [planar.entries[s].steps[-1][1] for s in whole],
            "ambient-finite": [finite.entries[s].steps[-1][1] for s in whole],
            "table": f.table(whole, [1.0])[:, 0].tolist(),
            "measure": [mu.total, mu.mass(range(10))],
        }
        assert {k: [v.hex() for v in vs] for k, vs in values.items()} == {
            k: [folded.hex()] * 2 for k in values
        }
        assert measure_bifiltration_points(space, mu, folded, 1.0) == frozenset(range(10))
        assert measure_bifiltration_points(space, mu, 1.0, 1.0) == frozenset()
