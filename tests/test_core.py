"""Metric spaces, measures, staircases, complexes, and shifts."""

import math
import random

import numpy as np
import pytest

from dcech import (
    AsymmetryError,
    BifilteredComplex,
    CoordMismatch,
    DiscreteMeasure,
    EmptySimplex,
    EmptySupport,
    FiniteMetricSpace,
    ForwardShift,
    InvalidComplex,
    InvalidStaircase,
    MetricError,
    NegativeDistanceError,
    NonMonotonePath,
    SimplicialComplex,
    Staircase,
    TriangleViolation,
    grid_with_midpoints,
    validate_metric,
)
from dcech.core import METRIC_TOL
from dcech.instances import _closure_to_fixpoint

from .oracles import closure_of, closure_to_fixpoint_reference, validate_metric_reference

L3 = FiniteMetricSpace.from_points([(0.0, 0.0), (1.0, 0.0), (3.0, 0.0)])
S4 = FiniteMetricSpace.from_points([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


class TestFiniteMetricSpace:
    def test_from_points_matches_hypot_exactly(self):
        rng = random.Random(5)
        pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(6)]
        space = FiniteMetricSpace.from_points(pts)
        for i in range(6):
            for j in range(6):
                assert space.d(i, j) == math.hypot(
                    pts[i][0] - pts[j][0], pts[i][1] - pts[j][1]
                )

    def test_from_points_higher_dimension(self):
        space = FiniteMetricSpace.from_points([(0, 0, 0), (1, 2, 2)])
        assert space.d(0, 1) == pytest.approx(3.0)

    def test_from_matrix_and_accessors(self):
        space = FiniteMetricSpace.from_matrix(
            [[0, 1, 3], [1, 0, 2], [3, 2, 0]], labels=("a", "b", "c")
        )
        assert space.n == 3
        assert space.d(0, 2) == 3.0
        assert space.diameter() == 3.0
        assert space.labels == ("a", "b", "c")

    def test_restrict_preserves_submatrix(self):
        sub = L3.restrict([0, 2])
        assert sub.n == 2
        assert sub.d(0, 1) == 3.0
        assert sub.coords is not None and tuple(sub.coords[1]) == (3.0, 0.0)

    def test_validate_metric_rejects_asymmetry(self):
        with pytest.raises(AsymmetryError):
            FiniteMetricSpace.from_matrix([[0, 1], [2, 0]])

    def test_validate_metric_rejects_triangle_violation(self):
        with pytest.raises(TriangleViolation):
            FiniteMetricSpace.from_matrix([[0, 1, 5], [1, 0, 1], [5, 1, 0]])

    def test_validate_metric_rejects_nonzero_diagonal(self):
        with pytest.raises(NegativeDistanceError):
            FiniteMetricSpace.from_matrix([[1.0]])

    def test_validate_metric_rejects_negative(self):
        with pytest.raises(NegativeDistanceError):
            FiniteMetricSpace.from_matrix([[0, -1], [-1, 0]])

    def test_infinite_distances_allowed(self):
        inf = math.inf
        space = FiniteMetricSpace.from_matrix([[0, inf], [inf, 0]])
        assert math.isinf(space.d(0, 1))
        assert space.diameter() == 0.0  # only finite entries count

    def test_coord_mismatch_detected(self):
        space = FiniteMetricSpace(
            np.array([[0.0, 5.0], [5.0, 0.0]]), coords=np.array([[0.0, 0.0], [1.0, 0.0]])
        )
        with pytest.raises(CoordMismatch):
            validate_metric(space)


    @pytest.mark.parametrize(
        "coords", [[(0, 0), (math.nan, 1)], [(0, 0), (1, math.inf)], [(0, 0, -math.inf)]]
    )
    def test_from_points_rejects_non_finite_coordinates(self, coords):
        bad = len(coords) - 1
        with pytest.raises(MetricError, match=f"^point {bad} has a non-finite coordinate"):
            FiniteMetricSpace.from_points(coords)


def _random_matrix(rng, n):
    """Symmetric, zero diagonal; half the time from four values, which makes
    many sums tie."""
    d = np.zeros((n, n))
    ties = rng.random() < 0.5
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.choice((0.25, 0.5, 0.75, 1.0)) if ties else rng.uniform(0.1, 1.0)
            d[i, j] = d[j, i] = v
    return d


class TestClosureAndTriangleCheck:
    def test_closure_matches_the_loop(self):
        rng = random.Random(3)
        for _ in range(60):
            d = _random_matrix(rng, rng.choice((2, 3, 4, 5, 8, 12, 16, 25)))
            want = d.copy()
            closure_to_fixpoint_reference(want)
            _closure_to_fixpoint(d)
            assert d.tobytes() == want.tobytes()  # bitwise, signed zeros included

    def test_validate_metric_raises_what_the_loop_raises(self):
        rng = random.Random(4)
        for trial in range(80):
            n = rng.randint(2, 12)
            d = _random_matrix(rng, n)
            if trial % 3:
                _closure_to_fixpoint(d)
            if trial % 4 == 0:  # a disconnected pair
                i, j = rng.sample(range(n), 2)
                d[i, j] = d[j, i] = math.inf
            # raise one pair by 0, half or twice METRIC_TOL: on a tight
            # triangle a half rise stays within the tolerance, a double breaks it
            i, j = rng.sample(range(n), 2)
            d[i, j] = d[j, i] = d[i, j] + rng.choice((0.0, 0.5e-9, 2e-9))
            space = FiniteMetricSpace(d)
            got = want = None
            try:
                validate_metric(space)
            except TriangleViolation as exc:
                got = (exc.witness, exc.lhs, exc.rhs, str(exc))
            try:
                validate_metric_reference(space, METRIC_TOL)
            except TriangleViolation as exc:
                want = (exc.witness, exc.lhs, exc.rhs, str(exc))
            assert repr(got) == repr(want)


class TestDiscreteMeasure:
    def test_counting_support_total(self):
        mu = DiscreteMeasure.counting(3)
        assert mu.weights == (1.0, 1.0, 1.0)
        assert mu.support == (0, 1, 2)
        assert mu.total == 3.0
        assert mu.mass([0, 2]) == 2.0

    def test_zero_weights_excluded_from_support(self):
        mu = DiscreteMeasure((1.0, 0.0, 2.5))
        assert mu.support == (0, 2)
        assert mu.total == 3.5

    def test_empty_support_rejected(self):
        with pytest.raises(EmptySupport):
            DiscreteMeasure((0.0, 0.0))

    def test_negative_weight_rejected(self):
        with pytest.raises(EmptySupport):
            DiscreteMeasure((1.0, -0.5))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(EmptySupport):
            DiscreteMeasure((1.0, bad))

    def test_restrict_reindexes(self):
        mu = DiscreteMeasure((1.0, 0.0, 2.5))
        assert mu.restrict([2, 0]).weights == (2.5, 1.0)


class TestStaircase:
    def test_value_and_presence_boundaries(self):
        st = Staircase(((1.0, 2.0), (3.0, 5.0)))
        assert st.value(0.5) is None
        assert st.value(1.0) == 2.0
        assert st.value(2.999) == 2.0
        assert st.value(3.0) == 5.0
        assert st.value(math.inf) == 5.0
        assert st.present(2.0, 1.0)
        assert not st.present(2.1, 1.0)
        assert st.present(5.0, 3.0)
        assert not st.present(0.0, 0.5)
        assert st.start_r == 1.0 and st.steps[-1][1] == 5.0

    def test_steps_must_strictly_increase(self):
        with pytest.raises(InvalidStaircase):
            Staircase(((1.0, 2.0), (1.0, 3.0)))
        with pytest.raises(InvalidStaircase):
            Staircase(((1.0, 2.0), (2.0, 2.0)))
        with pytest.raises(InvalidStaircase):
            Staircase(())

    def test_from_samples_compresses(self):
        st = Staircase.from_samples([0.0, 1.0, 2.0, 3.0], [None, 1.0, 1.0, 4.0])
        assert st is not None
        assert st.steps == ((1.0, 1.0), (3.0, 4.0))

    def test_from_samples_all_absent(self):
        assert Staircase.from_samples([0.0, 1.0], [None, None]) is None

    def test_from_samples_rejects_absence_after_presence(self):
        with pytest.raises(InvalidStaircase):
            Staircase.from_samples([0.0, 1.0], [1.0, None])

    def test_from_samples_rejects_drop(self):
        with pytest.raises(InvalidStaircase):
            Staircase.from_samples([0.0, 1.0], [2.0, 1.0])


class TestSimplicialComplex:
    def test_closure_of(self):
        K = closure_of([(0, 1, 2)])
        assert len(K) == 7
        assert K.dim == 2
        assert (0, 2) in K
        assert K.vertices() == (0, 1, 2)

    def test_downward_closure_enforced(self):
        with pytest.raises(InvalidComplex):
            SimplicialComplex((0, 1), frozenset({(0, 1)}))

    def test_empty_simplex_rejected(self):
        with pytest.raises(EmptySimplex):
            SimplicialComplex((0,), frozenset({()}))

    def test_unsorted_simplex_rejected(self):
        with pytest.raises(InvalidComplex):
            SimplicialComplex((0, 1), frozenset({(1, 0), (0,), (1,)}))

    def test_out_of_universe_rejected(self):
        with pytest.raises(InvalidComplex):
            SimplicialComplex((0,), frozenset({(1,)}))

    def test_ghost_vertices_allowed(self):
        K = SimplicialComplex((0, 1, 2), frozenset({(0,)}))
        assert K.vertices() == (0,)
        assert K.universe == (0, 1, 2)

    def test_sorted_simplices_deterministic(self):
        K = closure_of([(0, 2), (1,)])
        assert K.sorted_simplices() == [(0,), (1,), (2,), (0, 2)]

    def test_subcomplex_relation(self):
        big = closure_of([(0, 1, 2)])
        small = closure_of([(0, 1)])
        assert small.is_subcomplex_of(big)
        assert not big.is_subcomplex_of(small)


class TestBifilteredComplex:
    def fixture(self) -> BifilteredComplex:
        return BifilteredComplex(
            (0, 1),
            {
                (0,): Staircase(((0.0, 2.0),)),
                (1,): Staircase(((0.0, 1.0), (1.0, 2.0))),
                (0, 1): Staircase(((1.0, 1.0),)),
            },
            dim_cap=2,
        )

    def test_complex_at_thresholds(self):
        K = self.fixture()
        assert K.complex_at(1.0, 0.5).simplices == frozenset({(0,), (1,)})
        assert K.complex_at(1.0, 1.0).simplices == frozenset({(0,), (1,), (0, 1)})
        assert K.complex_at(2.0, 1.0).simplices == frozenset({(0,), (1,)})
        assert K.complex_at(-math.inf, 2.0).simplices == frozenset(
            {(0,), (1,), (0, 1)}
        )

    def test_value_and_present(self):
        K = self.fixture()
        assert K.value((1,), 0.5) == 1.0
        assert K.value((0, 1), 0.5) is None
        assert K.present((0, 1), 1.0, 1.0)
        assert K.staircase((2,)) is None

    def test_critical_grid(self):
        rs, ms = self.fixture().critical_grid()
        assert rs == (0.0, 1.0)
        assert ms == (1.0, 2.0)

    def test_validate_passes_on_fixture(self):
        self.fixture().validate()

    def test_validate_rejects_missing_face(self):
        K = BifilteredComplex(
            (0, 1), {(0, 1): Staircase(((0.0, 1.0),)), (0,): Staircase(((0.0, 1.0),))}
        )
        with pytest.raises(InvalidComplex):
            K.validate()

    def test_validate_rejects_dominating_coface(self):
        K = BifilteredComplex(
            (0, 1),
            {
                (0,): Staircase(((0.0, 1.0),)),
                (1,): Staircase(((0.0, 1.0),)),
                (0, 1): Staircase(((0.0, 2.0),)),
            },
        )
        with pytest.raises(InvalidComplex):
            K.validate()

    def test_validate_rejects_dim_cap_overflow(self):
        K = BifilteredComplex(
            (0, 1),
            {
                (0,): Staircase(((0.0, 1.0),)),
                (1,): Staircase(((0.0, 1.0),)),
                (0, 1): Staircase(((0.0, 1.0),)),
            },
            dim_cap=0,
        )
        with pytest.raises(InvalidComplex):
            K.validate()

    def test_restrict_r_grid_resamples(self):
        K = self.fixture().restrict_r_grid([0.0, 2.0])
        assert K.staircase((0, 1)).steps == ((2.0, 1.0),)
        assert K.staircase((1,)).steps == ((0.0, 1.0), (2.0, 2.0))

    def test_restrict_r_grid_drops_unreached(self):
        K = self.fixture().restrict_r_grid([0.0, 0.5])
        assert K.staircase((0, 1)) is None


def test_grid_with_midpoints():
    assert grid_with_midpoints([2.0, 0.0, 1.0]) == (0.0, 0.5, 1.0, 1.5, 2.0)
    assert grid_with_midpoints([1.0]) == (1.0,)
    assert grid_with_midpoints([]) == ()
    assert grid_with_midpoints([0.0, math.inf]) == (0.0, math.inf)


class TestForwardShift:
    def test_eps_shift(self):
        assert ForwardShift.eps_shift(0.5)(2.0, 1.0) == (1.5, 1.5)

    def test_doubling_shift(self):
        assert ForwardShift.doubling_shift(0.5)(2.0, 1.0) == (1.5, 3.0)

    def test_identity_and_composition(self):
        comp = ForwardShift.eps_shift(1.0).then(ForwardShift.doubling_shift(0.0))
        assert comp(3.0, 1.0) == (2.0, 4.0)
        assert ForwardShift.identity()(3.0, 1.0) == (3.0, 1.0)

    def test_negative_shift_rejected(self):
        with pytest.raises(NonMonotonePath):
            ForwardShift.eps_shift(-0.1)
        with pytest.raises(NonMonotonePath):
            ForwardShift.doubling_shift(-0.1)
