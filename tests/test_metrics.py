"""Prohorov distances, embeddings, projections, and interleaving checks.

Prohorov values are cross-checked against the definitional feasibility-scan
oracle, and distances and checks against the subset enumeration that the
max-flows replaced; interleaving reports are exercised on pairs where the
expected verdict is known by construction, and compared with the loop over
(simplex, radius) pairs that the degree tables replaced.
"""

import math
import random

import numpy as np
import pytest

from dcech import (
    BifilteredComplex,
    CommonEmbedding,
    DifferentSpaces,
    DimensionMismatch,
    DiscreteMeasure,
    DowkerDissimilarity,
    DegreeBifiltration,
    EmptyTarget,
    FiniteMetricSpace,
    ForwardShift,
    IndexOutOfRange,
    NonMonotonePath,
    NotDistancePreserving,
    Staircase,
    TableBifiltration,
    check_projection_inequality,
    gp_upper_bound,
    intrinsic_dc,
    nearest_neighbor_projection,
    prohorov_check,
    prohorov_distance,
    pushforward,
    verify_sandwich,
    verify_set_interleaving_shift,
)
from dcech import ambient_dc_planar
from dcech.instances import random_measure, random_metric_space
from dcech.metrics import _shifted
from .oracles import (
    DegreeReference,
    prohorov_brute,
    set_interleaving_shift_reference,
    shifted_reference,
    prohorov_check_enumerated,
    prohorov_distance_enumerated,
)


def line_space(xs):
    return FiniteMetricSpace.from_points([(float(x), 0.0) for x in xs])


@pytest.fixture
def dirac_pair():
    space = FiniteMetricSpace.from_matrix([[0.0, 0.3], [0.3, 0.0]])
    return space, DiscreteMeasure((1.0, 0.0)), DiscreteMeasure((0.0, 1.0))


class TestProhorovDistance:
    def test_dirac_pair_gives_the_distance(self, dirac_pair):
        space, d0, d1 = dirac_pair
        assert prohorov_distance(space, d0, d1) == 0.3

    def test_mass_difference_on_one_point(self):
        space = FiniteMetricSpace.from_matrix([[0.0]])
        got = prohorov_distance(space, DiscreteMeasure((1.0,)), DiscreteMeasure((1.5,)))
        assert got == 0.5

    def test_identity_and_symmetry(self):
        rng = random.Random(13)
        for _ in range(20):
            n = rng.randint(2, 6)
            space = random_metric_space(rng, n)
            mu0 = random_measure(rng, n)
            mu1 = random_measure(rng, n, zero_count=rng.randint(0, n - 1))
            assert prohorov_distance(space, mu0, mu0) == 0.0
            assert prohorov_distance(space, mu0, mu1) == prohorov_distance(
                space, mu1, mu0
            )

    def test_matches_definitional_oracle(self):
        rng = random.Random(3)
        for _ in range(60):
            n = rng.randint(2, 7)
            space = random_metric_space(rng, n)
            mu0 = random_measure(rng, n, zero_count=rng.randint(0, n - 1))
            mu1 = random_measure(rng, n, zero_count=rng.randint(0, n - 1))
            lib = prohorov_distance(space, mu0, mu1)
            assert lib == prohorov_brute(space.dist, mu0.weights, mu1.weights)

    def test_sixteen_point_counting_measure_against_itself(self):
        space = line_space(range(16))
        mu = DiscreteMeasure.counting(16)
        assert prohorov_distance(space, mu, mu) == 0.0

    def test_exact_tie_takes_the_least_maximizer(self):
        # At t = 0, B = {1} and B = {0, 1} have the same exact deficit
        # mu1(B) - mu0(B) = w = 2/7 as a float. The float sum of {0, 1} rounds
        # (v + w) - v one ulp above w; the enumeration takes that larger
        # float. The flow takes the least maximizer {1}, whose deficit w - 0.0
        # is exact.
        v, w = 0.1 + 5 / 7, 2 / 7
        space = line_space([1, 0])
        mu0, mu1 = DiscreteMeasure((v, 0.0)), DiscreteMeasure((v, w))
        assert repr(prohorov_distance(space, mu0, mu1)) == "0.2857142857142857"
        assert repr(prohorov_distance_enumerated(space, mu0, mu1)) == "0.2857142857142858"
        at = prohorov_check(space, mu0, mu1, w)
        assert (at.ok, at.worst_slack, at.witness_subset, at.direction) == (
            True, 0.0, frozenset({1}), 1
        )

    def test_requires_common_space(self, dirac_pair):
        space, d0, _ = dirac_pair
        with pytest.raises(DifferentSpaces):
            prohorov_distance(space, d0, DiscreteMeasure((1.0, 0.0, 0.0)))


def _check_fields(check):
    return (check.ok, repr(check.worst_slack), check.witness_subset, check.direction)


def lattice_space(rng, n, side=4):
    return FiniteMetricSpace.from_points(
        [(rng.randint(0, side), rng.randint(0, side)) for _ in range(n)]
    )


def measures(weights):
    return [DiscreteMeasure(tuple(w)) for w in weights]


class TestProhorovAgainstEnumeration:
    """Max-flows against the subset enumeration, compared by repr.

    Each case compares the distance, and the check's verdict, slack, witness
    and direction at eps below 0, at 0, at every finite distance, at the
    Prohorov distance and one float below it.
    """

    def assert_agree(self, space, mu0, mu1):
        dist = prohorov_distance(space, mu0, mu1)
        assert repr(dist) == repr(prohorov_distance_enumerated(space, mu0, mu1))
        finite = space.dist[np.isfinite(space.dist)]
        eps_values = [-0.5, 0.0, dist, math.nextafter(dist, -math.inf)]
        for eps in eps_values + sorted(set(finite.tolist())):
            assert _check_fields(prohorov_check(space, mu0, mu1, eps)) == _check_fields(
                prohorov_check_enumerated(space, mu0, mu1, eps)
            ), eps

    def test_sixty_fourths(self):
        # every mass sum is exact, so the enumeration's float argmax is the
        # least exact maximizer
        rng = random.Random(64)
        for n in (2, 5, 8, 10, 11, 12, 13, 13):
            space = FiniteMetricSpace.from_points(
                [(rng.random(), rng.random()) for _ in range(n)]
            )
            weights = [[rng.randint(0, 8) / 64 for _ in range(n)] for _ in range(2)]
            for w in weights:
                w[rng.randrange(n)] += 1 / 64
            self.assert_agree(space, *measures(weights))

    def test_random_measure_weights(self):
        rng = random.Random(21)
        for _ in range(40):
            n = rng.randint(2, 9)
            space = random_metric_space(rng, n)
            mu0 = random_measure(rng, n, zero_count=rng.randint(0, n - 1))
            mu1 = random_measure(rng, n, zero_count=rng.randint(0, n - 1))
            self.assert_agree(space, mu0, mu1)

    def test_integer_weights(self):
        rng = random.Random(22)
        for _ in range(40):
            n = rng.randint(2, 10)
            weights = [[float(rng.randint(0, 4)) for _ in range(n)] for _ in range(2)]
            for w in weights:
                w[rng.randrange(n)] += 1.0
            self.assert_agree(lattice_space(rng, n), *measures(weights))

    def test_zero_weight_points(self):
        # points with no mass in either measure lie outside the union support,
        # and points with mass in only one still sit on both sides of the flow
        rng = random.Random(23)
        for _ in range(30):
            n = rng.randint(3, 9)
            weights = [[rng.choice((0.0, 0.0, 0.25, 0.5, 1.0)) for _ in range(n)]
                       for _ in range(2)]
            for w in weights:
                w[0] = 0.0
                w[rng.randrange(1, n)] += 0.75
            self.assert_agree(lattice_space(rng, n), *measures(weights))

    def test_infinite_distances(self):
        inf = math.inf
        space = FiniteMetricSpace.from_matrix(
            [[0, 1, inf, inf], [1, 0, inf, inf], [inf, inf, 0, 2], [inf, inf, 2, 0]]
        )
        rng = random.Random(24)
        cases = [((1.0, 0.0, 0.5, 0.0), (0.0, 1.0, 0.0, 0.75))]
        for _ in range(20):
            cases.append(tuple(tuple(rng.randint(0, 3) / 4 + (i == 0)
                                     for i in range(4)) for _ in range(2)))
        for weights in cases:
            self.assert_agree(space, *measures(weights))


class TestProhorovCheck:
    def test_at_and_below_the_distance(self, dirac_pair):
        space, d0, d1 = dirac_pair
        at = prohorov_check(space, d0, d1, 0.3)
        assert at.ok and at.worst_slack >= 0.0
        below = prohorov_check(space, d0, d1, 0.3 - 1e-6)
        assert not below.ok
        assert below.worst_slack < 0.0
        assert below.witness_subset in (frozenset({0}), frozenset({1}))
        assert below.direction in (0, 1)

    def test_negative_eps_uses_empty_offset(self, dirac_pair):
        space, d0, d1 = dirac_pair
        assert not prohorov_check(space, d0, d1, -0.5).ok

    def test_decides_like_the_distance(self):
        # pinned: the distance 0.75 - 0.5 is a mass difference, and adding
        # eps back to 0.5 would round the missing ulp below 0.25 away
        space = FiniteMetricSpace.from_points([(0.0, 0.0), (5.0, 0.0)])
        cases = [(space, DiscreteMeasure((0.75, 0.25)), DiscreteMeasure((0.5, 0.5)))]
        rng = random.Random(11)
        for den, count, n_max in ((7.0, 200, 6), (10.0, 600, 10), (3.0, 200, 10)):
            for _ in range(count):
                n = rng.randint(2, n_max)
                space = lattice_space(rng, n)
                weights = [[rng.randint(0, 5) / den for _ in range(n)] for _ in range(2)]
                for w in weights:
                    w[0] += 0.1
                cases.append((space, *measures(weights)))
        for space, mu0, mu1 in cases:
            dist = prohorov_distance(space, mu0, mu1)
            at = prohorov_check(space, mu0, mu1, dist)
            assert at.ok and at.worst_slack >= 0.0
            below = prohorov_check(space, mu0, mu1, math.nextafter(dist, -math.inf))
            assert not below.ok and below.worst_slack < 0.0
        assert prohorov_check(*cases[0], 0.25).worst_slack == 0.0


class TestPushforward:
    def test_weights_add(self):
        mu = DiscreteMeasure((1.0, 2.0, 0.5))
        nu = pushforward(mu, (0, 0, 1), 2)
        assert nu.weights == (3.0, 0.5)

    def test_errors(self):
        mu = DiscreteMeasure((1.0, 2.0))
        with pytest.raises(DimensionMismatch):
            pushforward(mu, (0,), 2)
        with pytest.raises(IndexOutOfRange):
            pushforward(mu, (0, 5), 2)


class TestCommonEmbedding:
    def test_valid(self):
        amb = line_space([0, 1, 2, 3, 4])
        emb = CommonEmbedding(
            amb, amb.restrict([0, 1]), (0, 1), amb.restrict([2, 4]), (2, 4)
        )
        assert emb.iota0 == (0, 1) and emb.iota1 == (2, 4)

    def test_rejects_distance_distortion(self):
        amb = line_space([0, 1, 2])
        squished = FiniteMetricSpace.from_matrix([[0.0, 0.5], [0.5, 0.0]])
        with pytest.raises(NotDistancePreserving):
            CommonEmbedding(amb, squished, (0, 2), amb.restrict([1]), (1,))

    def test_rejects_bad_maps(self):
        amb = line_space([0, 1])
        sub = amb.restrict([0])
        with pytest.raises(DimensionMismatch):
            CommonEmbedding(amb, sub, (0, 1), sub, (0,))
        with pytest.raises(IndexOutOfRange):
            CommonEmbedding(amb, sub, (7,), sub, (0,))


class TestNearestNeighborProjection:
    def test_projects_and_breaks_ties_low(self):
        space = line_space([0, 1, 2, 3])
        assert nearest_neighbor_projection(space, [0, 3]) == (0, 0, 3, 3)
        # point 1 is equidistant from 0 and 2: the lower index wins
        tie = line_space([0, 1, 2])
        assert nearest_neighbor_projection(tie, [0, 2]) == (0, 0, 2)

    def test_empty_target(self):
        with pytest.raises(EmptyTarget):
            nearest_neighbor_projection(line_space([0]), [])


class TestProjectionInequality:
    def test_nearest_neighbor_satisfies_doubling(self):
        amb = line_space([0, 1, 2, 3, 4])
        emb = CommonEmbedding(
            amb, amb.restrict([0, 4]), (0, 4), amb.restrict([1]), (1,)
        )
        report = check_projection_inequality(emb)
        assert report.ok
        assert report.worst_ratio == pytest.approx(4.0 / 3.0)

    def test_constructed_violation(self):
        amb = line_space([0, 1, 2, 3, 4])
        emb = CommonEmbedding(
            amb, amb.restrict([0, 4]), (0, 4), amb.restrict([1]), (1,)
        )
        report = check_projection_inequality(emb, p0=(4, 4, 4, 4, 4))
        assert not report.ok
        assert report.worst_ratio == 4.0
        assert report.witness == (0, 0)

    def test_projection_must_cover_ambient(self):
        amb = line_space([0, 1])
        emb = CommonEmbedding(amb, amb.restrict([0]), (0,), amb.restrict([1]), (1,))
        with pytest.raises(DimensionMismatch):
            check_projection_inequality(emb, p0=(0,))


class TestGpUpperBound:
    def test_dirac_embedding(self):
        amb = FiniteMetricSpace.from_matrix([[0.0, 0.3], [0.3, 0.0]])
        point = FiniteMetricSpace.from_matrix([[0.0]])
        emb = CommonEmbedding(amb, point, (0,), point, (1,))
        one = DiscreteMeasure((1.0,))
        assert gp_upper_bound(emb, one, one) == 0.3


class TestSetInterleavingShift:
    @pytest.fixture
    def degree_pair(self):
        f0_space = line_space([0, 1, 3])
        f1_space = line_space([0, 2, 6])
        f0 = DegreeBifiltration(
            DowkerDissimilarity.from_metric(f0_space), DiscreteMeasure.counting(3)
        )
        f1 = DegreeBifiltration(
            DowkerDissimilarity.from_metric(f1_space), DiscreteMeasure.counting(3)
        )
        return f0, f1

    def test_identity_shifts_on_same_filtration(self):
        space = line_space([0, 1, 3])
        f = DegreeBifiltration(
            DowkerDissimilarity.from_metric(space), DiscreteMeasure.counting(3)
        )
        ident = ForwardShift.identity()
        report = verify_set_interleaving_shift(
            f, f, (0, 1, 2), (0, 1, 2), ident, ident, [0.0, 1.0, 2.0, 3.0]
        )
        assert report.ok
        assert report.worst().slack == 0.0

    def test_scale_gap_fails_then_passes(self, degree_pair):
        # an eps-interleaving is the shift check with eps_shift on both sides
        f0, f1 = degree_pair
        idm = (0, 1, 2)
        rs = [0.0, 1.0, 2.0, 3.0]
        tight = ForwardShift.eps_shift(0.0)
        report = verify_set_interleaving_shift(f0, f1, idm, idm, tight, tight, rs)
        assert not report.ok
        assert report.worst().slack < 0.0
        loose = ForwardShift.eps_shift(3.0)
        assert verify_set_interleaving_shift(f0, f1, idm, idm, loose, loose, rs).ok

    def test_map_validation(self, degree_pair):
        f0, f1 = degree_pair
        ident = ForwardShift.identity()
        with pytest.raises(DimensionMismatch):
            verify_set_interleaving_shift(f0, f1, (0, 1), (0, 1, 2), ident, ident, [0.0])
        with pytest.raises(IndexOutOfRange):
            verify_set_interleaving_shift(
                f0, f1, (0, 1, 9), (0, 1, 2), ident, ident, [0.0]
            )

    def test_unequal_universe_sizes(self):
        # regression: the cross conditions must evaluate the image simplex on
        # the *target* filtration; with 3 vs 2 witnesses a mix-up raises
        f0 = DegreeBifiltration(
            DowkerDissimilarity.from_metric(line_space([0, 1, 3])),
            DiscreteMeasure.counting(3),
        )
        f1 = DegreeBifiltration(
            DowkerDissimilarity.from_metric(line_space([0, 1])),
            DiscreteMeasure.counting(2),
        )
        ident = ForwardShift.identity()
        report = verify_set_interleaving_shift(
            f0, f1, (0, 1, 1), (0, 1), ident, ident, [0.0, 0.5, 1.0, 2.0, 3.0]
        )
        assert len(report.conditions) == 4
        for cond in report.conditions:
            assert math.isfinite(cond.slack)


def _interleaving_pairs(rng):
    """Pairs of degree bifiltrations, each with its int-bitmask reference,
    and random vertex maps: float, counting and zero weights."""
    for kind in ("counting", "float", "zeros", "counting", "float"):
        pair = []
        for _ in range(2):
            n = rng.randint(2, 5)
            space = random_metric_space(rng, n)
            if kind == "counting":
                mu = DiscreteMeasure.counting(n)
            else:
                zeros = rng.randint(0, n - 1) if kind == "zeros" else 0
                mu = random_measure(rng, n, zero_count=zeros)
            dowker = DowkerDissimilarity.from_metric(space)
            ref = DegreeReference(dowker.matrix, mu.weights)
            pair.append((DegreeBifiltration(dowker, mu), ref))
        (f0, ref0), (f1, ref1) = pair
        pi1 = tuple(rng.randrange(f1.universe_size) for _ in range(f0.universe_size))
        pi0 = tuple(rng.randrange(f0.universe_size) for _ in range(f1.universe_size))
        rs = sorted({0.0, *f0.r_breakpoints(), *f1.r_breakpoints()})
        rs += [-0.0, math.inf, rs[-1] / 3.0]
        yield f0, f1, ref0, ref1, pi1, pi0, rs


class TestInterleavingAgainstReference:
    @pytest.mark.parametrize("seed", range(4))
    def test_shift(self, seed):
        rng = random.Random(50 + seed)
        for f0, f1, ref0, ref1, pi1, pi0, rs in _interleaving_pairs(rng):
            eps = rng.uniform(0.0, 0.5)
            for alpha, beta in (
                (ForwardShift.doubling_shift(eps), ForwardShift.doubling_shift(eps)),
                (ForwardShift.eps_shift(eps), ForwardShift.doubling_shift(eps / 2.0)),
                (ForwardShift.identity(), ForwardShift.eps_shift(eps)),
                (ForwardShift.eps_shift(eps), ForwardShift.eps_shift(eps)),
            ):
                args = (pi1, pi0, alpha, beta, rs, rng.randint(1, 3))
                got = verify_set_interleaving_shift(f0, f1, *args)
                want = set_interleaving_shift_reference(ref0, ref1, *args)
                assert repr(got) == repr(want)

    def test_ties_keep_the_first_witness(self):
        # counting measures make many cells share the least slack
        f = DegreeBifiltration(
            DowkerDissimilarity.from_metric(line_space([0, 1, 3, 4])),
            DiscreteMeasure.counting(4),
        )
        ref = DegreeReference(f.dowker.matrix, f.measure.weights)
        rs = [0.0, 1.0, 2.0, 3.0, 4.0]
        pi = (1, 0, 3, 2)
        for eps in (0.0, 0.25):
            shift = ForwardShift.eps_shift(eps)
            got = verify_set_interleaving_shift(f, f, pi, pi, shift, shift, rs)
            want = set_interleaving_shift_reference(ref, ref, pi, pi, shift, shift, rs)
            assert repr(got) == repr(want)
        # the identity ties every cell at slack 0: the witness is the first
        ident = ForwardShift.identity()
        idm = (0, 1, 2, 3)
        same = verify_set_interleaving_shift(f, f, idm, idm, ident, ident, rs)
        assert [c.witness for c in same.conditions] == [((0,), 0.0)] * 4

    def test_table_bifiltration(self):
        f = TableBifiltration(
            3,
            (0.0, 1.0, 2.0),
            {(0,): (1.0, 2.0, 3.0), (1,): (0.5, 2.0, 3.0), (2,): (0.0, 0.0, 1.0),
             (0, 1): (0.5, 1.0, 2.0)},
        )
        rs = [0.0, 0.5, 1.0, 2.0, math.inf]
        shift = ForwardShift.eps_shift(0.5)
        args = ((1, 0, 2), (0, 0, 1), shift, shift, rs)
        got = verify_set_interleaving_shift(f, f, *args)
        assert repr(got) == repr(set_interleaving_shift_reference(f, f, *args))

    def test_infinite_slack_has_no_witness(self):
        f = DegreeBifiltration(
            DowkerDissimilarity.from_metric(line_space([0, 1])),
            DiscreteMeasure.counting(2),
        )
        # an infinite shift, and the empty grid
        for shift, rs in ((ForwardShift.eps_shift(math.inf), [0.0, 1.0]),
                          (ForwardShift.identity(), [])):
            args = ((0, 1), (0, 1), shift, shift, rs)
            report = verify_set_interleaving_shift(f, f, *args)
            assert [(c.slack, c.witness) for c in report.conditions] == [(math.inf, None)] * 4
            assert repr(report) == repr(set_interleaving_shift_reference(f, f, *args))

    def test_each_shift_is_called_once_per_condition(self):
        f0 = DegreeBifiltration(
            DowkerDissimilarity.from_metric(line_space([0, 1, 3])),
            DiscreteMeasure.counting(3),
        )
        f1 = DegreeBifiltration(
            DowkerDissimilarity.from_metric(line_space([0, 2])),
            DiscreteMeasure.counting(2),
        )
        calls = []

        def count(m, r):
            calls.append(np.shape(m))
            return m - 0.5, r + 0.5

        shift = ForwardShift("counted", count)
        rs = [0.0, 1.0, 2.0, 3.0]
        verify_set_interleaving_shift(f0, f1, (0, 1, 1), (0, 2), shift, shift, rs)
        # one call on each side's whole table; a composite shift calls count twice
        side0, side1 = (7, len(rs)), (3, len(rs))
        assert calls == [side1, side0, side1, side1, side0, side0]

    @pytest.mark.parametrize("seed", range(3))
    def test_whole_table_shift_is_the_shift_of_each_cell(self, seed):
        rng = random.Random(90 + seed)
        # signed zeros, infinities and ties in the source and target values
        grid = (0.0, 0.5, 1.0, 2.0)
        choices = (-0.0, 0.0, 0.5, 1.0, 2.0, math.inf)
        tables = [
            TableBifiltration(3, grid, {
                (x,): sorted(rng.choice(choices) for _ in grid) for x in range(3)
            })
            for _ in range(2)
        ]
        sigmas = [(0,), (1,), (2,)]
        rs = [-0.0, 0.0, 0.5, 1.0, 2.0, math.inf]
        eps = rng.uniform(0.0, 0.5)
        shifts = (
            ForwardShift.identity(),
            ForwardShift.eps_shift(0.0),
            ForwardShift.eps_shift(eps),
            ForwardShift.eps_shift(math.inf),
            ForwardShift.doubling_shift(eps),
            ForwardShift.eps_shift(eps).then(ForwardShift.doubling_shift(eps)),
        )
        for src, dst in (tables, tables[::-1], tables[:1] * 2):
            values = src.table(sigmas, rs)
            for shift in shifts:
                images = [(rng.randrange(3),) for _ in sigmas]
                got = _shifted("c", values, dst, shift, sigmas, images, rs)
                want = shifted_reference("c", values, dst, shift, sigmas, images, rs)
                assert repr(got) == repr(want)

    def test_signed_zero_slack_is_not_rounded(self):
        # -0.0 shifted by the identity against -0.0 leaves slack 0.0; a shifted
        # value rebuilt as -0.0 + 0.0 would read -0.0 - 0.0 = -0.0 instead
        f = TableBifiltration(1, (0.0, 1.0), {(0,): (-0.0, 1.0)})
        got = _shifted("c", f.table([(0,)], [0.0]), f, ForwardShift.identity(),
                       [(0,)], [(0,)], [0.0])
        assert repr(got.slack) == "0.0"

    def test_nan_shift_is_rejected(self):
        for make in (ForwardShift.eps_shift, ForwardShift.doubling_shift):
            with pytest.raises(NonMonotonePath):
                make(math.nan)
        # a nan shift made every slack nan, which reads as a pass
        f0 = DegreeBifiltration(
            DowkerDissimilarity.from_metric(line_space([0, 1, 5])),
            DiscreteMeasure.counting(3),
        )
        f1 = DegreeBifiltration(
            DowkerDissimilarity.from_metric(line_space([0, 9])),
            DiscreteMeasure.counting(2),
        )
        shift = ForwardShift.eps_shift(0.0)
        rs = sorted({0.0, *f0.r_breakpoints(), *f1.r_breakpoints()})
        report = verify_set_interleaving_shift(f0, f1, (0, 1, 1), (0, 2), shift, shift, rs)
        assert not report.ok


class TestVerifySandwich:
    @pytest.fixture
    def square_pair(self):
        space = FiniteMetricSpace.from_points(
            [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        )
        mu = DiscreteMeasure.counting(4)
        return intrinsic_dc(space, mu), ambient_dc_planar(space, mu)

    def test_exact_mode_square(self, square_pair):
        intr, amb = square_pair
        report = verify_sandwich(intr, amb)
        assert report.ok
        assert report.conditions[0].slack == 0.0
        assert report.conditions[1].slack == 0.0

    def test_subcomplexes_at_grid_points_square(self, square_pair):
        # the literal inclusions that the exact check decides at once
        intr, amb = square_pair
        for m in (1.0, 2.0, 4.0):
            for r in (0.0, 0.5, math.sqrt(0.5), 1.0):
                inner, mid = intr.complex_at(m, r), amb.complex_at(m, r)
                assert inner.simplices <= mid.simplices
                assert mid.simplices <= intr.complex_at(m, 2.0 * r).simplices

    def test_reindexed_violates(self, square_pair):
        intr, _ = square_pair
        halved = {s: Staircase(tuple((r * 0.5, m) for r, m in st.steps))
                  for s, st in intr.entries.items()}
        early = BifilteredComplex(intr.universe, halved, intr.dim_cap)
        report = verify_sandwich(early, intr)
        assert not report.ok
        assert report.conditions[0].slack < 0.0
        assert report.conditions[0].witness is not None

    def test_universe_mismatch(self, square_pair):
        intr, _ = square_pair
        space = line_space([0, 2, 4])
        other = intrinsic_dc(space, DiscreteMeasure((1.0, 0.0, 1.0)))
        with pytest.raises(DimensionMismatch):
            verify_sandwich(intr, other)
