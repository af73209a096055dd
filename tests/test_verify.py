"""Tests for the verification suites and their supporting helpers.

The duality and restriction suites are expected to FAIL on random input:
the constructions they compare genuinely disagree on small instances.  The
minimal counterexamples are pinned here as regression tests so the suite
verdicts stay explainable, together with the Dowker duality statements that
do hold on them (the dual against the degree Cech nerve of its relation).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from dcech import (
    DegreeBifiltration,
    DiscreteMeasure,
    DowkerDissimilarity,
    FiniteMetricSpace,
    SimplicialComplex,
    ambient_dc_finite,
    betti,
    dowker_dual,
    inclusion_induces_iso,
    nerve_bifiltration,
    rectangle_betti,
    rectangle_complex,
)
import dcech.verify as verify_module
from dcech.instances import random_metric_space
from dcech.verify import (
    DEFAULT_TRIALS,
    MAX_REPORTED_FAILURES,
    SUITES,
    SuiteResult,
    run_all,
    run_duality,
    run_lemma75,
    run_nerve,
    run_prop76,
    run_restriction,
    run_sandwich,
    run_stability,
    run_suite,
)

from .oracles import (
    betti_dense,
    correspondence_cover,
    degree_cech_nerve,
    inclusion_iso_dense,
    wide_cover_complex_reference,
)


def random_dowker(rng: random.Random, nx: int, ny: int) -> DowkerDissimilarity:
    matrix = np.array([[rng.random() for _ in range(ny)] for _ in range(nx)])
    return DowkerDissimilarity(matrix)


class TestMinimalDualityCounterexample:
    """Smallest instance where the mass nerve and the dual differ in homology.

    Two rows cover three columns with overlap only in the middle column.  At
    mass threshold 2 and radius 0 each row alone has degree 2 but the pair
    shares only one column, so the nerve is two isolated vertices while the
    dual glues both covered column pairs along the shared column.
    """

    LAM = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])

    def build(self):
        dowker = DowkerDissimilarity(self.LAM)
        f = DegreeBifiltration(dowker, DiscreteMeasure.counting(3))
        return dowker, f

    def test_nerve_slice_is_two_isolated_vertices(self):
        _, f = self.build()
        nerve = nerve_bifiltration(f, dim_cap=2).complex_at(2.0, 0.0)
        assert set(nerve.simplices) == {(0,), (1,)}

    def test_dual_slice_is_a_connected_path(self):
        dowker, f = self.build()
        dual = dowker_dual(dowker, f, dim_cap=2).complex_at(2.0, 0.0)
        assert set(dual.simplices) == {(0,), (1,), (2,), (0, 1), (1, 2)}

    def test_betti_numbers_disagree(self):
        dowker, f = self.build()
        nerve = nerve_bifiltration(f, dim_cap=2).complex_at(2.0, 0.0)
        dual = dowker_dual(dowker, f, dim_cap=2).complex_at(2.0, 0.0)
        assert betti(nerve, 2) == (2, 0, 0)
        assert betti(dual, 2) == (1, 0, 0)

    def test_degree_cech_nerve_matches_the_dual(self):
        """The dual's Dowker partner keeps the edge the mass nerve drops:
        both rows are heavy and their balls share the middle column."""
        dowker, f = self.build()
        nerve = degree_cech_nerve(self.LAM.tolist(), (1.0,) * 3, 2.0, 0.0)
        assert nerve == {(0,), (1,), (0, 1)}
        dual = dowker_dual(dowker, f, dim_cap=2).complex_at(2.0, 0.0)
        assert betti_dense(nerve, 2) == (1, 0, 0) == betti(dual, 2)


class TestRectangleComplexDivergence:
    """Random 3x4 instance where nerve, dual and rectangle complex split.

    At (m=1, r=0.6175) the nerve and the dual are both homotopy circles but
    the rectangle complex picks up three extra independent loops; at
    (m=2, r=0.5099) the rectangle complex sides with the nerve against the
    dual.  No one construction matches the other two across the grid.
    """

    LAM = np.array(
        [
            [0.789, 0.7357, 0.3184, 0.5009],
            [0.8568, 0.6065, 0.4096, 0.9539],
            [0.5099, 0.6175, 0.9307, 0.4035],
        ]
    )

    def build(self):
        dowker = DowkerDissimilarity(self.LAM)
        f = DegreeBifiltration(dowker, DiscreteMeasure.counting(4))
        return dowker, f

    def betti_triple(self, m: float, r: float):
        dowker, f = self.build()
        nerve = nerve_bifiltration(f, dim_cap=3).complex_at(m, r)
        dual = dowker_dual(dowker, f, dim_cap=3).complex_at(m, r)
        rect = rectangle_complex(dowker, f, m, r)
        return betti(nerve, 2), betti(dual, 2), betti(rect, 2)

    def test_rectangle_complex_departs_from_both(self):
        b_nerve, b_dual, b_rect = self.betti_triple(1.0, 0.6175)
        assert b_nerve == (1, 1, 0)
        assert b_dual == (1, 1, 0)
        assert b_rect == (1, 4, 0)

    def test_dual_departs_from_both(self):
        b_nerve, b_dual, b_rect = self.betti_triple(2.0, 0.5099)
        assert b_nerve == (2, 0, 0)
        assert b_dual == (1, 0, 0)
        assert b_rect == (2, 0, 0)


class TestRestrictionCounterexample:
    """Zero-weight points can glue dual components that the support splits.

    Five points on a line, unit mass only at the two endpoints.  At
    (m=1, r=1) the dual is connected through the massless middle point, but
    intersecting every simplex with the support leaves two components, so
    the inclusion is not an isomorphism in degree 0.
    """

    def build(self):
        space = FiniteMetricSpace.from_matrix(
            [[abs(i - j) for j in range(5)] for i in range(5)]
        )
        dowker = DowkerDissimilarity.from_metric(space)
        mu = DiscreteMeasure((1.0, 0.0, 0.0, 0.0, 1.0))
        f = DegreeBifiltration(dowker, mu)
        return dowker_dual(dowker, f, dim_cap=3), mu

    def restricted(self, full: SimplicialComplex, support: set[int]):
        kept = set()
        for sigma in full.simplices:
            inter = tuple(v for v in sigma if v in support)
            if inter:
                kept.add(inter)
        return SimplicialComplex(full.universe, frozenset(kept))

    def test_full_dual_is_connected(self):
        dual, _ = self.build()
        full = dual.complex_at(1.0, 1.0)
        assert betti(full, 2) == (1, 0, 0)

    def test_support_restriction_disconnects(self):
        dual, mu = self.build()
        full = dual.complex_at(1.0, 1.0)
        sub = self.restricted(full, set(mu.support))
        assert set(sub.simplices) == {(0,), (4,)}
        assert inclusion_induces_iso(sub, full, 2) == (False, True, True)

    def test_nerve_side_inclusion_gives_the_same_verdict(self):
        """On the degree Cech nerve the edge {1, 3} is witnessed only by the
        massless middle point, so requiring the common ball to meet the
        support splits the nerve the same way."""
        rows = [[float(abs(i - j)) for j in range(5)] for i in range(5)]
        weights = (1.0, 0.0, 0.0, 0.0, 1.0)
        nerve = degree_cech_nerve(rows, weights, 1.0, 1.0)
        nerve_sub = degree_cech_nerve(rows, weights, 1.0, 1.0, cols={0, 4})
        assert nerve - nerve_sub == {(1, 3)}
        assert inclusion_iso_dense(nerve_sub, nerve, 2) == (False, True, True)


class TestDualityPositiveCases:
    """Slices where the nerve and the dual provably agree."""

    def test_point_mass_measures_give_matching_betti(self):
        rng = random.Random(11)
        for _ in range(10):
            nx, ny = rng.randint(2, 6), rng.randint(2, 6)
            dowker = random_dowker(rng, nx, ny)
            weights = [0.0] * ny
            weights[rng.randrange(ny)] = 1.0
            f = DegreeBifiltration(dowker, DiscreteMeasure(tuple(weights)))
            nerve = nerve_bifiltration(f, dim_cap=3)
            dual = dowker_dual(dowker, f, dim_cap=3)
            for r in dowker.r_values():
                b_nerve = betti(nerve.complex_at(1.0, r), 2)
                b_dual = betti(dual.complex_at(1.0, r), 2)
                assert b_nerve == b_dual
                assert b_nerve in ((0, 0, 0), (1, 0, 0))

    def test_counting_measure_threshold_one_matches(self):
        rng = random.Random(13)
        for _ in range(10):
            nx, ny = rng.randint(2, 5), rng.randint(2, 6)
            dowker = random_dowker(rng, nx, ny)
            f = DegreeBifiltration(dowker, DiscreteMeasure.counting(ny))
            nerve = nerve_bifiltration(f, dim_cap=3)
            dual = dowker_dual(dowker, f, dim_cap=3)
            for r in dowker.r_values():
                assert betti(nerve.complex_at(1.0, r), 2) == betti(
                    dual.complex_at(1.0, r), 2
                )


class TestRectangleBetti:
    """The incremental evaluator matches a full rectangle complex build."""

    def test_matches_direct_construction_on_random_instances(self):
        rng = random.Random(17)
        for _ in range(12):
            nx, ny = rng.randint(2, 4), rng.randint(2, 5)
            dowker = random_dowker(rng, nx, ny)
            f = DegreeBifiltration(dowker, DiscreteMeasure.counting(ny))
            nerve = nerve_bifiltration(f, dim_cap=3)
            dual = dowker_dual(dowker, f, dim_cap=3)
            radii = dowker.r_values()
            for r in (radii[0], radii[len(radii) // 2], radii[-1]):
                for m in (1.0, 2.0):
                    nf_at = nerve.complex_at(m, r)
                    dual_at = dual.complex_at(m, r)
                    expected = betti(rectangle_complex(dowker, f, m, r), 2)
                    got = rectangle_betti(dowker, f, m, r, nf_at, dual_at, 2)
                    assert got == expected


def _duality_cells(seed: int, low: int, high: int):
    """Every positive-m grid cell of one instance drawn like the duality
    suite's, with the cover of its correspondence complex."""
    rng = random.Random(seed)
    nx, ny = rng.randint(low, high), rng.randint(low, high)
    dowker = random_dowker(rng, nx, ny)
    mu = DiscreteMeasure(tuple(float(rng.randint(1, 3)) for _ in range(ny)))
    f = DegreeBifiltration(dowker, mu)
    nerve = nerve_bifiltration(f, dim_cap=3)
    dual = dowker_dual(dowker, f, dim_cap=3)
    ms = sorted({v for st in nerve.entries.values() for _, v in st.steps if v > 0.0})
    rs = sorted(
        {0.0, *(r for K in (nerve, dual) for st in K.entries.values() for r, _ in st.steps)}
    )
    for r in rs:
        for m in ms:
            nf_at, dual_at = nerve.complex_at(m, r), dual.complex_at(m, r)
            kept = correspondence_cover(dowker, r, nf_at, dual_at)
            yield dowker, f, m, r, nf_at, dual_at, kept


class TestRectangleBettiAgainstReference:
    """The wide-cover route is rectangle_complex capped at max_degree + 1."""

    @pytest.mark.parametrize("seed", range(10))
    def test_enumeration_of_any_cover_is_the_capped_complex(self, seed):
        # the former enumeration, run whatever the cover's width
        for dowker, f, m, r, _, dual_at, kept in _duality_cells(seed, 2, 4):
            want = wide_cover_complex_reference(dowker, f, m, r, kept, dual_at, 2)
            assert rectangle_complex(dowker, f, m, r, 3).simplices == want.simplices

    @pytest.mark.parametrize("seed, cells", [(9, 2), (20, 3)])
    def test_wide_covers(self, seed, cells):
        wide = [cell for cell in _duality_cells(seed, 3, 5) if len(cell[-1]) > 16]
        assert len(wide) >= cells
        for dowker, f, m, r, nf_at, dual_at, kept in wide[:cells]:
            want = wide_cover_complex_reference(dowker, f, m, r, kept, dual_at, 2)
            assert rectangle_betti(dowker, f, m, r, nf_at, dual_at, 2) == betti(want, 2)


def _nerve_cells(seed: int, trials: int):
    """Every grid cell of ``run_nerve(seed, trials)``, drawn in the suite's
    rng order: (trial, space, measure, m, r, r index)."""
    rng = random.Random(seed)
    for trial in range(trials):
        n = rng.randint(4, 8)
        space = random_metric_space(rng, n)
        mu = DiscreteMeasure(tuple(float(rng.randint(1, 3)) for _ in range(n)))
        K = ambient_dc_finite(space, mu, 3)
        ms = sorted({v for st in K.entries.values() for _, v in st.steps if v > 0.0})
        rs = sorted({0.0, *(r for st in K.entries.values() for r, _ in st.steps)})
        for j, r in enumerate(rs):
            for m in ms:
                yield trial, space, mu, m, r, j


def _cover(space, mu, m, r) -> frozenset:
    """The pairs (center, point) with the point in the center's closed
    r-ball and in the dense region, by loops over the distances."""
    n = space.n
    mass = [sum(mu.weights[j] for j in range(n) if space.dist[c, j] <= r) for c in range(n)]
    return frozenset(
        (c, j) for c in range(n) for j in range(n) if space.dist[c, j] <= r and mass[j] >= m
    )


class TestNerveSuiteShortcut:
    """run_nerve builds one cover nerve per distinct cover of a trial."""

    def test_one_cover_nerve_per_distinct_cover(self, monkeypatch):
        calls = []
        real = verify_module.cover_nerve

        def counted(space, mu, m, r, dim_cap=3):
            calls.append(_cover(space, mu, m, r))
            return real(space, mu, m, r, dim_cap)

        monkeypatch.setattr(verify_module, "cover_nerve", counted)
        for seed in (3, 4):
            calls.clear()
            result = run_nerve(seed, 3)
            assert result.ok
            covers = [(t, _cover(sp, mu, m, r)) for t, sp, mu, m, r, _ in _nerve_cells(seed, 3)]
            assert result.note == f"{len(covers)} grid cells"
            distinct = list(dict.fromkeys(covers))
            assert calls == [cover for _, cover in distinct]
            assert len(calls) < len(covers)

    def test_count_on_fixed_seeds(self, monkeypatch):
        calls = []
        real = verify_module.cover_nerve

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(verify_module, "cover_nerve", counted)
        cells = sum(int(run_nerve(s, 10).note.split()[0]) for s in range(1000, 1010))
        assert (len(calls), cells) == (4386, 12287)

    def test_a_wrong_nerve_fails_every_cell_of_its_cover(self, monkeypatch):
        # drop the edge {0, 1} and its cofaces from every nerve built at one
        # radius; each changed nerve must show at every cell with its cover,
        # at that radius or another, and nowhere else
        seed, r_index = 12, 7
        cells = list(_nerve_cells(seed, 1))
        r_star = next(r for *_, r, j in cells if j == r_index)
        real = verify_module.cover_nerve
        changed = set()

        def mutant(space, mu, m, r, dim_cap=3):
            nerve = real(space, mu, m, r, dim_cap)
            if r != r_star:
                return nerve
            kept = frozenset(s for s in nerve.simplices if not {0, 1} <= set(s))
            wrong = SimplicialComplex(nerve.universe, kept)
            if betti(wrong, 2) != betti(nerve, 2):
                changed.add(_cover(space, mu, m, r))
            return wrong

        monkeypatch.setattr(verify_module, "cover_nerve", mutant)
        result = run_nerve(seed, 1)
        want = [
            f"(m={m}, r={r})" for _, sp, mu, m, r, _ in cells if _cover(sp, mu, m, r) in changed
        ]
        assert 1 < len(want) <= MAX_REPORTED_FAILURES
        assert any(f"r={r_star})" not in w for w in want)  # a cover seen at two radii
        assert [f.split(" at ")[-1] for f in result.failures] == want


class TestSuiteVerdicts:
    """Pin the pass/fail outcome of each suite on small seeded runs."""

    def test_sandwich_passes(self):
        result = run_sandwich(1, 6)
        assert result.ok
        assert result.summary() == "sandwich: PASS (6 trials) [worst slack 0]"

    def test_nerve_passes(self):
        result = run_nerve(2, 4)
        assert result.ok

    def test_stability_passes(self):
        result = run_stability(3, 3)
        assert result.ok
        assert "bottleneck minus prohorov" in result.note

    def test_lemma75_passes(self):
        result = run_lemma75(4, 5)
        assert result.ok
        assert "worst ratio" in result.note

    def test_prop76_passes(self):
        result = run_prop76(5, 2)
        assert result.ok

    def test_duality_fails_on_random_input(self):
        result = run_duality(42, 5)
        assert not result.ok
        assert len(result.failures) == 9
        assert result.summary().startswith("duality: FAIL (5 trials)")
        first = result.failures[0]
        assert "nerve" in first and "dual" in first
        assert "(m=" in first and "r=" in first

    def test_restriction_fails_on_random_input(self):
        result = run_restriction(42, 3)
        assert not result.ok
        assert len(result.failures) == 2
        assert "iso fails per degree (False, True, True)" in result.failures[0]

    def test_failure_reporting_is_capped(self):
        result = run_restriction(42, 50)
        assert not result.ok
        assert len(result.failures) == MAX_REPORTED_FAILURES + 1
        assert result.failures[-1] == "... further failures suppressed"


class TestSuiteWiring:
    def test_registry_names(self):
        assert set(SUITES) == {
            "sandwich",
            "duality",
            "restriction",
            "nerve",
            "stability",
            "lemma75",
            "prop76",
        }
        assert set(DEFAULT_TRIALS) == set(SUITES)

    def test_run_suite_dispatches(self):
        direct = run_sandwich(1, 2)
        routed = run_suite("sandwich", 1, 2)
        assert routed.summary() == direct.summary()

    def test_run_suite_unknown_name(self):
        with pytest.raises(KeyError):
            run_suite("nope", 0, 1)

    def test_run_suite_default_trials(self):
        result = run_suite("prop76", 5)
        assert result.trials == DEFAULT_TRIALS["prop76"]

    def test_run_all_covers_every_suite_in_order(self):
        results = run_all(7, 2)
        assert [r.name for r in results] == list(SUITES)
        assert all(isinstance(r, SuiteResult) for r in results)

    def test_summary_formats(self):
        passing = SuiteResult("demo", 3)
        assert passing.summary() == "demo: PASS (3 trials)"
        failing = SuiteResult("demo", 3, failures=["trial 0: boom"], note="n")
        assert failing.summary() == "demo: FAIL (3 trials) [n]"
