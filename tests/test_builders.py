"""Bifiltration builders on small hand-checked instances.

The workhorse is L3: three collinear points at x = 0, 1, 3 with the counting
measure. All expected masses, staircases, and Betti numbers below were
computed by hand from the distance matrix [[0,1,3],[1,0,2],[3,2,0]].
Seeded random instances compare ``dowker_dual`` with the scan over witnesses
in oracles.py, degree tables and values with the int-bitmask reference
there, and the correspondence complex, Dowker pair checks and
distance-to-measure values with the former one-cell-at-a-time bodies.
"""

import math
import operator
import random
from itertools import accumulate, combinations

import numpy as np
import pytest

from dcech import (
    BifilteredComplex,
    DegreeBifiltration,
    DimensionMismatch,
    DiscreteMeasure,
    DistanceToMeasureBifiltration,
    DowkerBifiltrationPair,
    DowkerConditionViolation,
    DowkerDissimilarity,
    FiniteMetricSpace,
    IndexOutOfRange,
    MonotonicityError,
    NonPositiveP,
    SetBifiltration,
    SimplicialComplex,
    Staircase,
    TableBifiltration,
    ambient_dc_finite,
    ambient_dc_planar,
    betti,
    cover_nerve,
    dowker_dual,
    intrinsic_dc,
    measure_bifiltration_points,
    nerve_bifiltration,
    rectangle_complex,
    restrict_to_support,
)
from dcech.builders import _mask_of, _row_masks
from dcech.instances import (
    random_dowker,
    random_measure,
    random_metric_space,
    random_planar_space,
)

from .oracles import (
    DegreeReference,
    ball_reference,
    check_dowker_pair_reference,
    closure_of,
    dowker_dual_reference,
    dtm_value_reference,
    rectangle_complex_reference,
    restrict_to_support_reference,
)


@pytest.fixture
def l3():
    return FiniteMetricSpace.from_points([(0.0, 0.0), (1.0, 0.0), (3.0, 0.0)])


@pytest.fixture
def l3_counting(l3):
    dowker = DowkerDissimilarity.from_metric(l3)
    return dowker, DegreeBifiltration(dowker, DiscreteMeasure.counting(3))


class TestDowkerDissimilarity:
    def test_shape_and_levels(self):
        d = DowkerDissimilarity(np.array([[0.0, 1.0], [2.0, math.inf]]))
        assert (d.nx, d.ny) == (2, 2)
        assert d.r_values() == (0.0, 1.0, 2.0)

    def test_ball_masks(self):
        # with weights 1, 2, 4, ... each mass reads as the ball's bitmask
        d = DowkerDissimilarity(np.array([[0.0, 1.0], [2.0, math.inf]]))
        f = DegreeBifiltration(d, DiscreteMeasure((1.0, 2.0)))
        assert f.value((0,), 0.5) == 0b01
        assert f.value((0,), 1.0) == 0b11
        assert f.value((1,), 1.999) == 0b00
        assert f.value((1,), 2.0) == 0b01
        # only r = inf reaches entries at inf; huge finite radii do not
        assert f.value((1,), 1e300) == 0b01
        assert f.value((1,), math.inf) == 0b11
        # -inf is below every entry, and nan reads as the last level
        assert f.value((0,), -math.inf) == 0b00
        assert f.value((1,), math.nan) == 0b01

    def test_common_ball_mask(self):
        d = DowkerDissimilarity(np.array([[0.0, 1.0], [2.0, math.inf]]))
        f = DegreeBifiltration(d, DiscreteMeasure((1.0, 2.0)))
        assert f.value([0, 1], 2.0) == 0b01
        assert f.value([0, 1], 1.0) == 0b00
        assert f.value([0], 1.0) == 0b11
        assert f.value([0, 1], math.inf) == 0b11

    def test_index_errors(self):
        d = DowkerDissimilarity(np.array([[0.0, 1.0]]))
        f = DegreeBifiltration(d, DiscreteMeasure((1.0, 2.0)))
        with pytest.raises(IndexOutOfRange):
            f.value((1,), 0.0)
        with pytest.raises(IndexOutOfRange):
            f.value([0, 1], 0.0)

    def test_rejects_bad_matrices(self):
        with pytest.raises(DimensionMismatch):
            DowkerDissimilarity(np.array([0.0, 1.0]))
        with pytest.raises(DimensionMismatch):
            DowkerDissimilarity(np.array([[0.0, -1.0]]))
        with pytest.raises(DimensionMismatch):
            DowkerDissimilarity(np.array([[0.0, math.nan]]))

    def test_levels_keep_the_first_signed_zero(self):
        # the loop over entries in row order that the levels replaced
        for rows in ([[-0.0, 1.0], [0.0, math.inf]], [[0.0, 2.0], [-0.0, 1.0]]):
            for matrix in (np.array(rows), np.asfortranarray(rows), np.array(rows).T):
                want = sorted(set(float(v) for v in matrix.ravel() if math.isfinite(v)))
                got = DowkerDissimilarity(matrix).r_values()
                assert repr(got) == repr(tuple(want))
        assert repr(DowkerDissimilarity(np.array([[-0.0, 0.0]])).r_values()) == "(-0.0,)"

    def test_matrix_is_read_only(self):
        d = DowkerDissimilarity(np.array([[0.0, 1.0]]))
        with pytest.raises(ValueError):
            d.matrix[0, 0] = 5.0

    def test_from_metric_submatrix(self, l3):
        d = DowkerDissimilarity.from_metric(l3, rows=[0, 2], cols=[1])
        assert d.matrix.tolist() == [[1.0], [2.0]]
        with pytest.raises(IndexOutOfRange):
            DowkerDissimilarity.from_metric(l3, rows=[3])


class TestDegreeBifiltration:
    def test_masses_on_l3(self, l3_counting):
        _, f = l3_counting
        assert f.value((0, 2), 2.0) == 1.0  # only the middle point reaches both
        assert f.value((0, 2), 1.999) == 0.0
        assert f.value((1,), 2.0) == 3.0
        assert f.value((0,), 0.0) == 1.0
        assert f.value((0,), 1.0) == 2.0
        assert f.value((0,), 3.0) == 3.0
        assert f.value((0, 1, 2), 2.0) == 1.0

    def test_weighted(self, l3):
        dowker = DowkerDissimilarity.from_metric(l3)
        f = DegreeBifiltration(dowker, DiscreteMeasure((0.5, 2.0, 0.25)))
        assert f.value((0, 2), 2.0) == 2.0
        assert f.value((0,), 1.0) == 2.5

    def test_antitone_in_sigma(self, l3_counting):
        _, f = l3_counting
        for r in (0.0, 1.0, 2.0, 3.0):
            assert f.value((0, 1), r) <= min(f.value((0,), r), f.value((1,), r))

    def test_breakpoints(self, l3_counting):
        _, f = l3_counting
        assert f.r_breakpoints() == (0.0, 1.0, 2.0, 3.0)

    def test_weight_count_must_match(self, l3):
        dowker = DowkerDissimilarity.from_metric(l3)
        with pytest.raises(DimensionMismatch):
            DegreeBifiltration(dowker, DiscreteMeasure((1.0, 1.0)))


class TestDistanceToMeasure:
    def test_p1_values_on_l3(self, l3):
        dowker = DowkerDissimilarity.from_metric(l3)
        f = DistanceToMeasureBifiltration(dowker, DiscreteMeasure.counting(3), 1.0)
        # ball of point 0 at r=1 is {0, 1}; distances 0 and 1 contribute 1
        assert f.value((0,), 1.0) == 1.0
        # ball of point 1 at r=3 is everything; distances 1 + 0 + 2
        assert f.value((1,), 3.0) == 3.0
        assert f.value((0,), 0.0) == 0.0

    def test_p2(self, l3):
        dowker = DowkerDissimilarity.from_metric(l3)
        f = DistanceToMeasureBifiltration(dowker, DiscreteMeasure.counting(3), 2.0)
        assert f.value((1,), 3.0) == pytest.approx(math.sqrt(5.0))

    def test_rejects_nonpositive_p(self, l3):
        dowker = DowkerDissimilarity.from_metric(l3)
        for p in (0.0, -1.0):
            with pytest.raises(NonPositiveP):
                DistanceToMeasureBifiltration(dowker, DiscreteMeasure.counting(3), p)

    def test_inf_entries(self):
        dowker = DowkerDissimilarity(np.array([[0.0, math.inf]]))
        f = DistanceToMeasureBifiltration(dowker, DiscreteMeasure((1.0, 1.0)), 1.0)
        assert f.value((0,), 5.0) == 0.0
        assert f.value((0,), math.inf) == math.inf
        # a zero-weight point never contributes, even at distance inf
        g = DistanceToMeasureBifiltration(dowker, DiscreteMeasure((1.0, 0.0)), 1.0)
        assert g.value((0,), math.inf) == 0.0


class TestTableBifiltration:
    def test_lookup(self):
        f = TableBifiltration(
            2,
            (0.0, 1.0),
            {(0,): (1.0, 2.0), (1,): (0.0, 1.0), (0, 1): (0.0, 1.0)},
        )
        assert f.value((0,), 0.5) == 1.0
        assert f.value((0,), 1.0) == 2.0
        assert f.value((0,), math.inf) == 2.0
        assert f.value((1,), -0.5) == 0.0
        assert f.r_breakpoints() == (0.0, 1.0)

    def test_missing_simplex_is_zero(self):
        f = TableBifiltration(3, (0.0,), {(0,): (1.0,)})
        assert f.value((2,), 0.0) == 0.0

    def test_grid_validation(self):
        with pytest.raises(MonotonicityError):
            TableBifiltration(1, (1.0, 2.0), {})
        with pytest.raises(MonotonicityError):
            TableBifiltration(1, (0.0, 2.0, 1.0), {})
        with pytest.raises(MonotonicityError):
            TableBifiltration(1, (0.0, 0.0), {})

    def test_nan_grid_point(self):
        with pytest.raises(MonotonicityError):
            TableBifiltration(1, (0.0, math.nan), {(0,): (1.0, 1.0)})

    def test_nan_value(self):
        # it used to construct, and its Dowker dual under [[0, 1], [0.5, 0]]
        # kept the edge (0, 1) without the vertex (0,)
        with pytest.raises(MonotonicityError):
            TableBifiltration(
                2, (0.0, 1.0), {(0,): (math.nan, 2.0), (1,): (1.0, 1.0)}
            )

    def test_value_validation(self):
        with pytest.raises(DimensionMismatch):
            TableBifiltration(1, (0.0, 1.0), {(0,): (1.0,)})
        with pytest.raises(MonotonicityError):
            TableBifiltration(1, (0.0, 1.0), {(0,): (-1.0, 0.0)})
        with pytest.raises(MonotonicityError):
            TableBifiltration(1, (0.0, 1.0), {(0,): (2.0, 1.0)})

    def test_face_domination(self):
        with pytest.raises(MonotonicityError):
            TableBifiltration(2, (0.0,), {(0, 1): (1.0,)})
        with pytest.raises(MonotonicityError):
            TableBifiltration(
                2,
                (0.0, 1.0),
                {(0,): (2.0, 2.0), (1,): (2.0, 2.0), (0, 1): (1.0, 3.0)},
            )

    def test_universe_bound(self):
        with pytest.raises(IndexOutOfRange):
            TableBifiltration(1, (0.0,), {(1,): (1.0,)})


class TestDowkerBifiltrationPair:
    def test_accepts_degree(self, l3_counting):
        dowker, f = l3_counting
        DowkerBifiltrationPair(dowker, f)

    def test_rejects_value_on_empty_ball(self):
        dowker = DowkerDissimilarity(np.array([[1.0]]))
        f = TableBifiltration(1, (0.0, 1.0), {(0,): (1.0, 1.0)})
        with pytest.raises(DowkerConditionViolation):
            DowkerBifiltrationPair(dowker, f)

    def test_rejects_universe_mismatch(self, l3_counting):
        dowker, f = l3_counting
        other = DowkerDissimilarity(np.array([[0.0, 1.0]]))
        with pytest.raises(DimensionMismatch):
            DowkerBifiltrationPair(other, f)


class TestNerveBifiltration:
    def test_exact_staircases_on_l3(self, l3_counting):
        _, f = l3_counting
        nerve = nerve_bifiltration(f)
        expected = {
            (0,): ((0.0, 1.0), (1.0, 2.0), (3.0, 3.0)),
            (1,): ((0.0, 1.0), (1.0, 2.0), (2.0, 3.0)),
            (2,): ((0.0, 1.0), (2.0, 2.0), (3.0, 3.0)),
            (0, 1): ((0.0, 0.0), (1.0, 2.0), (3.0, 3.0)),
            (0, 2): ((0.0, 0.0), (2.0, 1.0), (3.0, 3.0)),
            (1, 2): ((0.0, 0.0), (2.0, 2.0), (3.0, 3.0)),
            (0, 1, 2): ((0.0, 0.0), (2.0, 1.0), (3.0, 3.0)),
        }
        assert {s: st.steps for s, st in nerve.entries.items()} == expected

    def test_slice_and_full_skeleton(self, l3_counting):
        _, f = l3_counting
        nerve = nerve_bifiltration(f)
        at = nerve.complex_at(1.0, 1.0)
        assert at.simplices == frozenset({(0,), (1,), (2,), (0, 1)})
        assert betti(at, 1) == (2, 0)
        # any m <= 0 turns the nerve into the full skeleton
        assert len(nerve.complex_at(0.0, 0.0).simplices) == 7
        assert len(nerve.complex_at(-1.0, 0.0).simplices) == 7

    def test_universe_relabel(self, l3_counting):
        _, f = l3_counting
        nerve = nerve_bifiltration(f, universe=(10, 11, 12))
        assert nerve.universe == (10, 11, 12)
        assert (10, 12) in nerve.entries
        with pytest.raises(DimensionMismatch):
            nerve_bifiltration(f, universe=(10, 11))

    def test_large_universe_warns(self):
        dowker = DowkerDissimilarity(np.zeros((21, 1)))
        f = DegreeBifiltration(dowker, DiscreteMeasure.counting(1))
        with pytest.warns(UserWarning):
            nerve_bifiltration(f, dim_cap=0)


class TestDowkerDual:
    def test_exact_staircases_on_l3(self, l3_counting):
        dowker, f = l3_counting
        dual = dowker_dual(dowker, f)
        expected = {
            (0,): ((0.0, 1.0), (1.0, 2.0), (2.0, 3.0)),
            (1,): ((0.0, 1.0), (1.0, 2.0), (2.0, 3.0)),
            (2,): ((0.0, 1.0), (2.0, 3.0)),
            (0, 1): ((1.0, 2.0), (2.0, 3.0)),
            (0, 2): ((2.0, 3.0),),
            (1, 2): ((2.0, 3.0),),
            (0, 1, 2): ((2.0, 3.0),),
        }
        assert {s: st.steps for s, st in dual.entries.items()} == expected

    def test_never_witnessed_simplex_is_absent(self):
        dowker = DowkerDissimilarity(np.array([[0.0, math.inf], [math.inf, 0.0]]))
        f = DegreeBifiltration(dowker, DiscreteMeasure.counting(2))
        dual = dowker_dual(dowker, f)
        assert set(dual.entries) == {(0,), (1,)}

    def test_y_ids(self, l3_counting):
        dowker, f = l3_counting
        dual = dowker_dual(dowker, f, y_ids=(5, 6, 7))
        assert dual.universe == (5, 6, 7)
        assert (5, 7) in dual.entries
        with pytest.raises(DimensionMismatch):
            dowker_dual(dowker, f, y_ids=(5,))

    @pytest.mark.parametrize("values", [(1.0, 3.0, 2.0, 2.0), (1.0, 3.0, 2.0, 2.5)])
    def test_decreasing_witness_values_are_rejected(self, values):
        # f breaks its contract; the dual must not build a staircase from it
        class Dropping(SetBifiltration):
            universe_size = 1

            def table(self, sigmas, rs):
                return np.array([[values[int(r)] for r in rs] for _ in sigmas])

            def r_breakpoints(self):
                return (0.0, 1.0, 2.0, 3.0)

        with pytest.raises(MonotonicityError):
            dowker_dual(DowkerDissimilarity(np.array([[0.0]])), Dropping(), 1)

    def test_universe_mismatch(self, l3_counting):
        dowker, _ = l3_counting
        other = DegreeBifiltration(
            DowkerDissimilarity(np.array([[0.0]])), DiscreteMeasure.counting(1)
        )
        with pytest.raises(DimensionMismatch):
            dowker_dual(dowker, other)


def _dual_instances(rng: random.Random):
    """Seeded (dowker, f) pairs with ties, inf entries and zero weights."""
    for trial in range(60):
        nx, ny = rng.randint(1, 6), rng.randint(1, 6)
        if trial % 4 == 0:
            nx = 1
        elif trial % 4 == 1:
            ny = 1
        m = random_dowker(rng, nx, ny).matrix.copy()
        if trial % 2:
            m = np.round(m * 4.0) / 4.0  # equal entries, so equal offers
        for _ in range(rng.randint(0, 2)):
            m[rng.randrange(nx), rng.randrange(ny)] = math.inf
        dowker = DowkerDissimilarity(m)
        mu = random_measure(rng, ny, zero_count=rng.randint(0, ny - 1))
        yield dowker, DegreeBifiltration(dowker, mu)
        p = rng.choice((0.5, 1.0, 2.0))
        yield dowker, DistanceToMeasureBifiltration(dowker, mu, p)
        # an inf grid point, and signed zeros that compare equal but print apart
        grid = (0.0, 0.3, 0.7, math.inf)
        yield dowker, TableBifiltration(nx, grid, {
            (x,): sorted(rng.choice((-0.0, 0.0, 0.5, 1.0, 2.0)) for _ in grid)
            for x in range(nx)
        })


class TestDowkerDualAgainstReference:
    @pytest.mark.parametrize("seed", range(3))
    def test_same_staircases(self, seed):
        rng = random.Random(seed)
        for dowker, f in _dual_instances(rng):
            dim_cap = rng.randint(1, 3)
            y_ids = None
            if rng.random() < 0.5:
                y_ids = tuple(sorted(rng.sample(range(50), dowker.ny)))
            got = dowker_dual(dowker, f, dim_cap, y_ids)
            want = dowker_dual_reference(dowker, f, dim_cap, y_ids)
            assert got.universe == want.universe
            assert list(got.entries) == list(want.entries)
            for sigma, stair in want.entries.items():
                assert repr(got.entries[sigma]) == repr(stair), sigma


    def test_staircases_pass_the_validating_constructor(self):
        # the dual assembles its staircases unchecked; rebuild each one
        rng = random.Random(7)
        for dowker, f in _dual_instances(rng):
            dual = dowker_dual(dowker, f, rng.randint(1, 3))
            for sigma, stair in dual.entries.items():
                assert all(type(v) is float for step in stair.steps for v in step)
                assert repr(Staircase(stair.steps)) == repr(stair), sigma


def _table_instances(rng):
    """Degree bifiltrations with float, counting and zero weights, some
    infinite entries, and enough ball points (up to 12) that adding the
    weights in another order changes the last bits of some masses."""
    for kind in ("float", "counting", "zeros", "float", "inf"):
        nx, ny = rng.randint(1, 5), rng.randint(1, 12)
        if kind in ("float", "inf"):
            measure = random_measure(rng, ny)
        elif kind == "counting":
            measure = DiscreteMeasure.counting(ny)
        else:
            measure = random_measure(rng, ny, zero_count=rng.randint(0, ny - 1))
        matrix = random_dowker(rng, nx, ny).matrix.copy()
        if kind == "inf":
            matrix[rng.randrange(nx), rng.randrange(ny)] = math.inf
            matrix[rng.randrange(nx)] = math.inf
        yield DowkerDissimilarity(matrix), measure


def _radii(levels, rng):
    """Every level and the gaps between, one float below a level, and the
    edge radii: signed zeros and infinities, nan, -1 and 1e300."""
    rs = [0.0, -0.0, -1.0, math.inf, -math.inf, math.nan, 1e300]
    rs += list(levels)
    rs += [(a + b) / 2.0 for a, b in zip(levels, levels[1:])]
    rs += [math.nextafter(v, -math.inf) for v in rng.sample(levels, min(3, len(levels)))]
    return rs


def _sigmas(nx):
    # the empty simplex, every simplex up to 3 witnesses, and two that are
    # not normalised: out of order and with a repeat
    sigmas = [()] + [s for k in (1, 2, 3) for s in combinations(range(nx), k)]
    return sigmas + [tuple(range(nx))[::-1], (0, 0)]


class TestDegreeTableAgainstReference:
    @pytest.mark.parametrize("seed", range(4))
    def test_shared_grid(self, seed):
        rng = random.Random(seed)
        for dowker, measure in _table_instances(rng):
            f = DegreeBifiltration(dowker, measure)
            ref = DegreeReference(dowker.matrix, measure.weights)
            sigmas = _sigmas(dowker.nx)
            rs = _radii(dowker.r_values(), rng)
            want = [[ref.value(s, r) for r in rs] for s in sigmas]
            assert repr(f.table(sigmas, rs).tolist()) == repr(want)
            for s, row in zip(sigmas, want):
                assert repr([f.value(s, r) for r in rs]) == repr(row), s

    @pytest.mark.parametrize("seed", range(4))
    def test_one_row_of_radii_per_simplex(self, seed):
        rng = random.Random(100 + seed)
        for dowker, measure in _table_instances(rng):
            f = DegreeBifiltration(dowker, measure)
            ref = DegreeReference(dowker.matrix, measure.weights)
            sigmas = _sigmas(dowker.nx)
            pool = _radii(dowker.r_values(), rng)
            rows = [[rng.choice(pool) for _ in range(6)] for _ in sigmas]
            want = [[ref.value(s, r) for r in row] for s, row in zip(sigmas, rows)]
            assert repr(f.table(sigmas, rows).tolist()) == repr(want)

    @pytest.mark.parametrize("seed", range(2))
    def test_ball_masks(self, seed):
        # with weights 1, 2, 4, ... each mass reads as the ball's bitmask
        rng = random.Random(200 + seed)
        for dowker, _ in _table_instances(rng):
            f = DegreeBifiltration(
                dowker, DiscreteMeasure(tuple(float(1 << y) for y in range(dowker.ny)))
            )
            ref = ball_reference(dowker)
            rs = _radii(dowker.r_values(), rng)
            sigmas = _sigmas(dowker.nx)
            want = [[float(ref.common_ball_mask(s, r)) for r in rs] for s in sigmas]
            assert f.table(sigmas, rs).tolist() == want

    @pytest.mark.parametrize("seed", range(3))
    def test_nondecreasing_from_minus_to_plus_inf(self, seed):
        # signed zeros and infinities, every level and beyond: a nonempty
        # simplex has nothing at -inf, and its value never drops as r grows
        rng = random.Random(250 + seed)
        for dowker, measure in _table_instances(rng):
            levels = dowker.r_values()
            rs = [-math.inf, -1.0, -0.0, 0.0, *levels, 1e300, math.inf]
            sigmas = _sigmas(dowker.nx)[1:]
            for f in (
                DegreeBifiltration(dowker, measure),
                DistanceToMeasureBifiltration(dowker, measure, rng.choice((0.5, 1.0, 2.0))),
            ):
                table = f.table(sigmas, rs)
                assert (table[:, 0] == 0.0).all()
                assert (table[:, 1:] >= table[:, :-1]).all(), type(f).__name__

    def test_blocks_match_one_row_at_a_time(self):
        # enough simplices x radii x points to need several blocks
        rng = random.Random(7)
        space = random_metric_space(rng, 14)
        dowker = DowkerDissimilarity.from_metric(space)
        f = DegreeBifiltration(dowker, random_measure(rng, 14))
        sigmas = list(combinations(range(14), 3))
        rs = sorted(set((0.0,) + f.r_breakpoints()))
        got = f.table(sigmas, rs)
        assert len(sigmas) * len(rs) * 14 > 4 * (1 << 15)
        for i in rng.sample(range(len(sigmas)), 20):
            assert got[i].tolist() == f.table([sigmas[i]], rs)[0].tolist()

    def test_bad_witness_index_raises(self, l3_counting):
        _, f = l3_counting
        for sigma in ((3,), (-1,), (0, 3), (2, -1)):
            for r in (0.0, 2.5, math.inf, -math.inf, math.nan):
                with pytest.raises(IndexOutOfRange):
                    f.value(sigma, r)
                with pytest.raises(IndexOutOfRange):
                    f.table([(0,), sigma], [r])

    def test_radius_rows_must_match_the_simplices(self, l3_counting):
        _, f = l3_counting
        with pytest.raises(DimensionMismatch):
            f.table([(0,), (1,)], [[0.0, 1.0]])
        assert f.table([], [0.0, 1.0]).shape == (0, 2)
        assert f.table([(0,)], []).shape == (1, 0)

    def test_other_bifiltrations_use_value(self, l3):
        dowker = DowkerDissimilarity.from_metric(l3)
        dtm = DistanceToMeasureBifiltration(dowker, DiscreteMeasure((0.5, 2.0, 0.25)), 2.0)
        table = TableBifiltration(
            3,
            (0.0, 1.0, 2.0),
            {(0,): (1.0, 2.0, 3.0), (1,): (0.5, 1.0, 3.0), (0, 1): (0.0, 1.0, 2.0)},
        )
        sigmas = [(0,), (1,), (2,), (0, 1), (0, 1, 2)]
        rs = [-1.0, -0.0, 0.0, 0.5, 1.0, 2.0, 3.0, math.inf]
        rows = [rs[::-1]] * len(sigmas)
        for f in (dtm, table):
            want = [[f.value(s, r) for r in rs] for s in sigmas]
            assert repr(f.table(sigmas, rs).tolist()) == repr(want)
            want = [[f.value(s, r) for r in row] for s, row in zip(sigmas, rows)]
            assert repr(f.table(sigmas, rows).tolist()) == repr(want)


class TestIntrinsicAndAmbient:
    def test_intrinsic_l3_counting(self, l3):
        K = intrinsic_dc(l3, DiscreteMeasure.counting(3))
        K.validate()
        assert K.universe == (0, 1, 2)
        assert len(K.entries) == 7
        assert K.staircase((0, 1, 2)).steps == ((2.0, 3.0),)
        assert K.staircase((0,)).steps == ((0.0, 1.0), (1.0, 2.0), (2.0, 3.0))

    def test_full_support_ambient_equals_intrinsic(self, l3):
        mu = DiscreteMeasure((0.5, 1.5, 1.0))
        K = intrinsic_dc(l3, mu)
        A = ambient_dc_finite(l3, mu)
        assert K.universe == A.universe
        assert {s: st.steps for s, st in K.entries.items()} == {
            s: st.steps for s, st in A.entries.items()
        }

    def test_zero_weight_witness_separates_them(self, l3):
        # the middle point carries no mass but still witnesses the pair {0, 2}
        mu = DiscreteMeasure((1.0, 0.0, 1.0))
        A = ambient_dc_finite(l3, mu)
        K = intrinsic_dc(l3, mu)
        assert A.universe == (0, 2) and K.universe == (0, 2)
        assert A.staircase((0, 2)).steps == ((2.0, 2.0),)
        assert K.staircase((0, 2)).steps == ((3.0, 2.0),)
        # sandwich: ambient presence implies intrinsic presence at 2r
        assert K.present((0, 2), 2.0, 4.0)

    def test_measure_alignment(self, l3):
        with pytest.raises(DimensionMismatch):
            intrinsic_dc(l3, DiscreteMeasure((1.0, 1.0)))
        with pytest.raises(DimensionMismatch):
            ambient_dc_finite(l3, DiscreteMeasure((1.0, 1.0)))


class TestRectangleComplex:
    def test_dense_corner_is_a_cone(self, l3_counting):
        dowker, f = l3_counting
        R = rectangle_complex(dowker, f, 3.0, 2.0)
        # only the middle witness reaches mass 3; its row spans a full simplex
        assert R.simplices == closure_of([(3, 4, 5)]).simplices
        assert betti(R, 2) == (1, 0, 0)

    def test_diagonal_at_r0(self, l3_counting):
        dowker, f = l3_counting
        R = rectangle_complex(dowker, f, 1.0, 0.0)
        assert R.simplices == frozenset({(0,), (4,), (8,)})
        assert betti(R, 1) == (3, 0)


def _antitone_table(rng, nx, grid, first=None):
    """A tabulated f on every simplex of range(nx): singletons nondecreasing
    along the grid (first[x] masks the radii where x may be positive), each
    larger simplex a scaled minimum of its faces, so some equal them."""
    values: dict = {}
    for size in range(1, nx + 1):
        for sigma in combinations(range(nx), size):
            if size == 1:
                vals = sorted(rng.choice((0.0, 0.5, 1.0, 2.0, 3.5)) for _ in grid)
                if first is not None:
                    vals = [v if ok else 0.0 for v, ok in zip(vals, first[sigma[0]])]
            else:
                faces = [values[face] for face in combinations(sigma, size - 1)]
                scale = rng.choice((0.0, 0.5, 1.0, 1.0))
                vals = [scale * min(col) for col in zip(*faces)]
            values[sigma] = vals
    return TableBifiltration(nx, grid, values)


def _rectangle_instances(rng):
    """(dowker, f) pairs of at most 4 x 3, so the reference can try every
    combination of pairs: tied levels, inf entries, one witness or one point,
    and degree, distance-to-measure and tabulated f."""
    for trial in range(8):
        nx, ny = rng.randint(1, 4), rng.randint(1, 3)
        if trial % 4 == 0:
            nx = 1
        elif trial % 4 == 1:
            ny = 1
        m = random_dowker(rng, nx, ny).matrix.copy()
        if trial % 2:
            m = np.round(m * 4.0) / 4.0
        for _ in range(rng.randint(0, 2)):
            m[rng.randrange(nx), rng.randrange(ny)] = math.inf
        dowker = DowkerDissimilarity(m)
        weights = [float(rng.randint(0, 2)) for _ in range(ny)]
        weights[rng.randrange(ny)] = float(rng.randint(1, 2))
        mu = DiscreteMeasure(tuple(weights))
        yield dowker, DegreeBifiltration(dowker, mu)
        yield dowker, DistanceToMeasureBifiltration(dowker, mu, rng.choice((0.5, 1.0, 2.0)))
        yield dowker, _antitone_table(rng, nx, (0.0, 0.25, 0.5, 0.75, math.inf))


class TestRectangleComplexAgainstReference:
    """The extension walk against every combination of related pairs."""

    MS = (-math.inf, 0.0, 0.5, 1.0, 2.0, 3.5, math.inf, math.nan)

    @pytest.mark.parametrize("seed", range(3))
    def test_same_simplices(self, seed):
        rng = random.Random(300 + seed)
        for dowker, f in _rectangle_instances(rng):
            levels = dowker.r_values()
            rs = [-1.0, math.inf, math.nan, *levels]
            rs += [(a + b) / 2.0 for a, b in zip(levels, levels[1:])]
            for r in rs:
                for m in self.MS:
                    dim_cap = rng.randint(1, 3)
                    got = rectangle_complex(dowker, f, m, r, dim_cap)
                    want = rectangle_complex_reference(dowker, f, m, r, dim_cap)
                    assert got.universe == want.universe
                    assert got.simplices == want.simplices, (m, r, dim_cap)


class TestDowkerPairAgainstReference:
    """The tabled compatibility check raises the loop's first violation."""

    def test_same_first_violation(self):
        rng = random.Random(41)
        raised = []
        for trial in range(40):
            nx, ny = rng.randint(1, 4), rng.randint(1, 3)
            m = random_dowker(rng, nx, ny).matrix.copy()
            if trial % 2:
                m = np.round(m * 4.0) / 4.0
            if trial % 3 == 0:
                m[rng.randrange(nx), rng.randrange(ny)] = math.inf
            dowker = DowkerDissimilarity(m)
            balls = ball_reference(dowker)
            grid = sorted(set((0.0, 0.5, *rng.sample(dowker.r_values(), 1))))
            if trial % 5 == 0:
                grid.append(math.inf)
            # mostly positive only where x's own ball is, so that violations
            # also come from larger simplices and later radii
            first = {
                x: list(accumulate(
                    (rng.random() < 0.1 or bool(balls.common_ball_mask((x,), r))
                     for r in grid),
                    operator.or_,
                ))
                for x in range(nx)
            }
            f = _antitone_table(rng, nx, tuple(grid), first)
            dim_cap = rng.randint(1, 3)
            outcomes = []
            for check in (DowkerBifiltrationPair, check_dowker_pair_reference):
                try:
                    check(dowker, f, dim_cap)
                    outcomes.append(None)
                except DowkerConditionViolation as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
            raised.append(outcomes[0])
        messages = [msg for msg in raised if msg is not None]
        assert len(messages) < len(raised)
        assert any("f(0,)" not in msg for msg in messages)
        assert any(", " in msg.split(")")[0] for msg in messages)


    def test_first_violation_in_a_later_block(self):
        # 385 simplices x 100 radii do not fit one block; only the last
        # simplex, (6, 7, 8, 9), has an empty ball: each of its points is at
        # distance 1 from one of its witnesses, and f is 1 everywhere
        matrix = np.zeros((10, 4))
        for j in range(4):
            matrix[6 + j, j] = 1.0
        grid = tuple(float(i) for i in range(100))
        table = {
            sigma: (1.0,) * len(grid)
            for k in range(1, 5)
            for sigma in combinations(range(10), k)
        }
        f = TableBifiltration(10, grid, table)
        with pytest.raises(DowkerConditionViolation) as exc:
            DowkerBifiltrationPair(DowkerDissimilarity(matrix), f)
        assert str(exc.value) == "f(6, 7, 8, 9) > 0 at r=0.0 but the ball is empty"


class TestDistanceToMeasureAgainstReference:
    @pytest.mark.parametrize("p", (0.5, 1.0, 2.0))
    def test_same_values(self, p):
        rng = random.Random(int(p * 10))
        for dowker, measure in _table_instances(rng):
            f = DistanceToMeasureBifiltration(dowker, measure, p)
            sigmas = _sigmas(dowker.nx)[1:]
            for r in _radii(dowker.r_values(), rng):
                got = [f.value(s, r) for s in sigmas]
                want = [dtm_value_reference(dowker, measure.weights, p, s, r) for s in sigmas]
                assert repr(got) == repr(want), r


class TestMeasurePointsAndCoverNerve:
    def test_measure_bifiltration_points(self, l3):
        mu = DiscreteMeasure.counting(3)
        assert measure_bifiltration_points(l3, mu, 2.0, 1.0) == frozenset({0, 1})
        assert measure_bifiltration_points(l3, mu, 3.0, 2.0) == frozenset({1})
        assert measure_bifiltration_points(l3, mu, 1.0, 0.0) == frozenset({0, 1, 2})
        with pytest.raises(DimensionMismatch):
            measure_bifiltration_points(l3, DiscreteMeasure((1.0,)), 1.0, 0.0)

    def test_cover_nerve_matches_ambient_slices(self, l3):
        mu = DiscreteMeasure.counting(3)
        A = ambient_dc_finite(l3, mu)
        for m, r in [(1.0, 0.0), (1.0, 1.0), (2.0, 1.0), (2.0, 2.0), (3.0, 2.0), (3.0, 3.0)]:
            nerve = cover_nerve(l3, mu, m, r)
            assert nerve.simplices == A.complex_at(m, r).simplices, (m, r)


class TestRowMasks:
    @pytest.mark.parametrize("shape", [(0, 0), (0, 5), (4, 0), (1, 1), (5, 8), (7, 63), (6, 64), (9, 130)])
    def test_each_row_is_the_mask_of_its_true_columns(self, shape):
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        matrix = rng.random(shape) < 0.4
        for rows in (matrix, matrix.T, matrix[::-1, ::2]):
            want = [_mask_of(np.flatnonzero(row).tolist()) for row in rows]
            assert _row_masks(rows) == want


class TestCoverNerveIsDownwardClosed:
    @pytest.mark.parametrize("seed", range(3))
    def test_public_constructor_accepts_it(self, seed):
        # cover_nerve skips the downward-closure check; rebuild each result
        # through the validating constructor
        rng = random.Random(seed)
        for _ in range(4):
            n = rng.randint(3, 8)
            space = random_metric_space(rng, n)
            mu = random_measure(rng, n, zero_count=rng.randint(0, 2))
            levels = sorted(set(space.dist.ravel().tolist()))
            for r in rng.sample(levels, min(4, len(levels))):
                m = rng.uniform(0.0, mu.total)
                nerve = cover_nerve(space, mu, m, r, rng.randint(1, 3))
                again = SimplicialComplex(nerve.universe, nerve.simplices)
                assert again.universe == nerve.universe == tuple(range(n))
                assert again.simplices == nerve.simplices


class TestRestrictAndReindex:
    def test_restrict_keeps_entry_staircases(self, l3):
        K = intrinsic_dc(l3, DiscreteMeasure.counting(3))
        R = restrict_to_support(K, [0, 1])
        assert R.universe == (0, 1)
        assert set(R.entries) == {(0,), (1,), (0, 1)}
        # downward closure makes the envelope collapse to the original entry
        for sigma in R.entries:
            assert R.entries[sigma].steps == K.entries[sigma].steps
        R.validate()

    @pytest.mark.parametrize("seed", range(3))
    def test_restrict_matches_envelope_on_builds(self, seed):
        rng = random.Random(500 + seed)
        for trial in range(6):
            n = rng.randint(3, 6)
            space = random_planar_space(rng, n)
            mu = random_measure(rng, n, zero_count=rng.randint(0, 2))
            build = (intrinsic_dc, ambient_dc_finite, ambient_dc_planar)[trial % 3]
            K = build(space, mu, rng.randint(1, 3))
            for size in range(1, len(K.universe) + 1):
                keep = rng.sample(K.universe, size) + [n + 1]
                got = restrict_to_support(K, keep)
                want = restrict_to_support_reference(K, keep)
                assert got.universe == want.universe
                assert list(got.entries) == list(want.entries)
                for sigma, stair in want.entries.items():
                    assert got.entries[sigma].steps == stair.steps

    def test_restrict_general_envelope(self):
        K = BifilteredComplex(
            (0, 1),
            {
                (0,): Staircase(((0.0, 1.0),)),
                (1,): Staircase(((0.0, 2.0),)),
                (0, 1): Staircase(((1.0, 1.0),)),
            },
        )
        R = restrict_to_support(K, [0])
        # (0,) inherits the max of its own entry and the edge's
        assert R.entries[(0,)].steps == ((0.0, 1.0),)
        R2 = restrict_to_support(
            BifilteredComplex(
                (0, 1),
                {
                    (0,): Staircase(((0.0, 1.0),)),
                    (1,): Staircase(((0.0, 1.0),)),
                    (0, 1): Staircase(((1.0, 1.0),)),
                },
            ),
            [1],
        )
        assert R2.entries[(1,)].steps == ((0.0, 1.0),)
