"""Acceptance gate: ten criteria, one printed verdict line each.

Each test prints ``ACCEPTANCE <n> (<name>): PASS/FAIL — <detail>`` before
asserting, so the verdict table survives in the pytest output either way.

Criteria 3 and 4 check Dowker's theorem and its functorial form on the
instances the ``duality`` and ``restriction`` suites draw at seed 42, at
every positive-m grid cell, against the brute-force degree Cech nerve in
tests/oracles.py. Criterion 3: the dual has the Betti vector of the degree
Cech nerve, and the nerve of f is a subcomplex of it. Criterion 4:
restricting the dual to the support and the nerve to simplices whose common
ball meets the support gives inclusions with equal per-degree isomorphism
verdicts and restricted complexes with equal Betti vectors. The suites
themselves compare the nerve of f (and the rectangle complex) with the dual,
which provably disagree; their minimal counterexamples are pinned in
tests/test_verify.py (TestMinimalDualityCounterexample,
TestRectangleComplexDivergence, TestRestrictionCounterexample).
"""

from __future__ import annotations

import random
import time

from dcech import (
    DegreeBifiltration,
    DiscreteMeasure,
    FiniteMetricSpace,
    SimplicialComplex,
    betti,
    dowker_dual,
    inclusion_induces_iso,
    nerve_bifiltration,
    prohorov_distance,
)
from dcech.instances import random_dowker
from dcech.planar import ambient_dc_planar
from dcech.verify import run_suite

from .oracles import (
    betti_dense,
    closure_of,
    degree_cech_nerve,
    inclusion_iso_dense,
    prohorov_brute,
    welzl_radii,
)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {verdict} — {detail}")


def _run(name: str, seed: int = 42):
    start = time.perf_counter()
    result = run_suite(name, seed)
    return result, time.perf_counter() - start


def _duality_instance(rng: random.Random):
    """One instance drawn exactly as ``verify.run_duality`` draws it."""
    nx = rng.randint(2, 6)
    ny = rng.randint(2, 6)
    lam = random_dowker(rng, nx, ny)
    mu = DiscreteMeasure(tuple(float(rng.randint(1, 3)) for _ in range(ny)))
    return lam, mu


def _restriction_instance(rng: random.Random):
    """One instance drawn exactly as ``verify.run_restriction`` draws it."""
    nx = rng.randint(2, 5)
    ny = rng.randint(4, 6)
    lam = random_dowker(rng, nx, ny)
    zero_count = rng.randint(1, min(3, ny - 1))
    weights = [float(rng.randint(1, 3)) for _ in range(ny)]
    for i in rng.sample(range(ny), zero_count):
        weights[i] = 0.0
    return lam, DiscreteMeasure(tuple(weights))


def _positive_grid(nerve, rows):
    """Every cell (m, r) with m a positive value of the mass nerve and r zero
    or an entry of the dissimilarity; all complexes compared are constant
    between these cells."""
    ms = sorted({v for st in nerve.entries.values() for _, v in st.steps if v > 0.0})
    rs = sorted({0.0, *(v for row in rows for v in row)})
    return [(m, r) for r in rs for m in ms]


class TestAcceptance:
    def test_01_counting_measure_reduction(self):
        """Unit-mass slice of the planar build is the enclosing-ball complex."""
        rng = random.Random(101)
        start = time.perf_counter()
        radius_mismatches = 0
        slice_mismatches = 0
        clouds = 0
        for _ in range(100):
            n = rng.randint(3, 8)
            pts = [(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(n)]
            space = FiniteMetricSpace.from_points(pts)
            K = ambient_dc_planar(space, DiscreteMeasure.counting(n), dim_cap=n - 1)
            clouds += 1
            radii = welzl_radii(pts, n)
            breakpoints = set()
            for sigma, stair in K.entries.items():
                breakpoints.add(stair.start_r)
                if stair.start_r != radii[sigma]:
                    radius_mismatches += 1
            for r in sorted(breakpoints):
                got = set(K.complex_at(1.0, r).simplices)
                want = {s for s, rad in radii.items() if rad <= r}
                if got != want:
                    slice_mismatches += 1
        elapsed = time.perf_counter() - start
        ok = radius_mismatches == 0 and slice_mismatches == 0 and elapsed < 10.0
        _report(
            1,
            "counting-measure reduction",
            ok,
            f"{clouds} clouds, {radius_mismatches} radius and "
            f"{slice_mismatches} slice mismatches ({elapsed:.1f}s)",
        )
        assert elapsed < 10.0
        assert radius_mismatches == 0
        assert slice_mismatches == 0

    def test_02_sandwich(self):
        result, elapsed = _run("sandwich")
        ok = result.ok and elapsed < 30.0
        _report(2, "intrinsic/ambient sandwich", ok,
                f"{result.summary()} ({elapsed:.1f}s)")
        assert elapsed < 30.0
        assert result.ok, "\n".join(result.failures)

    def test_03_nerve_dual_agreement(self):
        """Dowker duality on the duality suite's instances.

        At every positive-m cell the dual has the Betti vector of the
        degree Cech nerve (an independent oracle), and the mass nerve is a
        subcomplex of that nerve.
        """
        rng = random.Random(42)
        start = time.perf_counter()
        oracle_betti: dict[frozenset, tuple[int, ...]] = {}
        cells = betti_mismatches = escapes = 0
        for _ in range(100):
            lam, mu = _duality_instance(rng)
            f = DegreeBifiltration(lam, mu)
            nf = nerve_bifiltration(f, 3)
            dual = dowker_dual(lam, f, 3)
            rows = lam.matrix.tolist()
            for m, r in _positive_grid(nf, rows):
                cells += 1
                nerve = frozenset(degree_cech_nerve(rows, mu.weights, m, r))
                want = oracle_betti.get(nerve)
                if want is None:
                    want = oracle_betti[nerve] = betti_dense(nerve, 2)
                if betti(dual.complex_at(m, r), 2) != want:
                    betti_mismatches += 1
                if not nf.complex_at(m, r).simplices <= nerve:
                    escapes += 1
        elapsed = time.perf_counter() - start
        ok = betti_mismatches == 0 and escapes == 0 and elapsed < 60.0
        _report(
            3,
            "nerve-dual agreement",
            ok,
            f"100 instances, {cells} cells, {betti_mismatches} dual/nerve Betti "
            f"mismatches, {escapes} mass-nerve slices outside the nerve "
            f"({elapsed:.1f}s)",
        )
        assert elapsed < 60.0
        assert betti_mismatches == 0
        assert escapes == 0

    def test_04_support_restriction(self):
        """Functorial Dowker duality on the restriction suite's instances.

        At every positive-m cell, restricting the dual to the measure's
        support and restricting the degree Cech nerve to simplices whose
        common ball meets the support give inclusions with the same
        per-degree isomorphism verdicts, and restricted complexes with
        equal Betti vectors.
        """
        rng = random.Random(42)
        start = time.perf_counter()
        cells = verdict_mismatches = betti_mismatches = not_iso = 0
        for _ in range(50):
            lam, mu = _restriction_instance(rng)
            f = DegreeBifiltration(lam, mu)
            dual = dowker_dual(lam, f, 3)
            support = set(mu.support)
            rows = lam.matrix.tolist()
            for m, r in _positive_grid(nerve_bifiltration(f, 3), rows):
                cells += 1
                full = dual.complex_at(m, r)
                restricted = set()
                for sigma in full.simplices:
                    inter = tuple(v for v in sigma if v in support)
                    if inter:
                        restricted.add(inter)
                sub = SimplicialComplex(full.universe, frozenset(restricted))
                nerve = degree_cech_nerve(rows, mu.weights, m, r)
                nerve_sub = degree_cech_nerve(rows, mu.weights, m, r, cols=support)
                verdict = inclusion_induces_iso(sub, full, 2)
                if not all(verdict):
                    not_iso += 1
                if verdict != inclusion_iso_dense(nerve_sub, nerve, 2):
                    verdict_mismatches += 1
                if betti(sub, 2) != betti_dense(nerve_sub, 2):
                    betti_mismatches += 1
        elapsed = time.perf_counter() - start
        ok = verdict_mismatches == 0 and betti_mismatches == 0 and elapsed < 30.0
        _report(
            4,
            "support restriction",
            ok,
            f"50 instances, {cells} cells ({not_iso} not isomorphisms), "
            f"{verdict_mismatches} verdict and {betti_mismatches} Betti "
            f"mismatches ({elapsed:.1f}s)",
        )
        assert elapsed < 30.0
        assert verdict_mismatches == 0
        assert betti_mismatches == 0

    def test_05_cover_nerve_agreement(self):
        result, elapsed = _run("nerve")
        ok = result.ok and elapsed < 30.0
        _report(5, "cover nerve agreement", ok,
                f"{result.summary()} ({elapsed:.1f}s)")
        assert elapsed < 30.0
        assert result.ok, "\n".join(result.failures)

    def test_06_prohorov_stability(self):
        result, elapsed = _run("stability")
        ok = result.ok and elapsed < 120.0
        _report(6, "prohorov stability", ok,
                f"{result.summary()} ({elapsed:.1f}s)")
        assert elapsed < 120.0
        assert result.ok, "\n".join(result.failures)

    def test_07_projection_inequality(self):
        result, elapsed = _run("lemma75")
        ok = result.ok and elapsed < 10.0
        _report(7, "projection inequality", ok,
                f"{result.summary()} ({elapsed:.1f}s)")
        assert elapsed < 10.0
        assert result.ok, "\n".join(result.failures)

    def test_08_set_interleaving(self):
        result, elapsed = _run("prop76")
        ok = result.ok and elapsed < 60.0
        _report(8, "set interleaving", ok,
                f"{result.summary()} ({elapsed:.1f}s)")
        assert elapsed < 60.0
        assert result.ok, "\n".join(result.failures)

    def test_09_prohorov_breakpoint_oracle(self):
        """Breakpoint search equals brute-force feasibility scan, bitwise."""
        rng = random.Random(202)
        start = time.perf_counter()
        mismatches = 0
        pairs = 0
        for _ in range(200):
            n = rng.randint(2, 8)
            pts = [(rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)) for _ in range(n)]
            space = FiniteMetricSpace.from_points(pts)
            w0 = [float(rng.choice((0, 1, 1, 2))) for _ in range(n)]
            w1 = [float(rng.choice((0, 1, 1, 2))) for _ in range(n)]
            if sum(w0) == 0.0:
                w0[0] = 1.0
            if sum(w1) == 0.0:
                w1[-1] = 1.0
            mu0 = DiscreteMeasure(tuple(w0))
            mu1 = DiscreteMeasure(tuple(w1))
            pairs += 1
            fast = prohorov_distance(space, mu0, mu1)
            slow = prohorov_brute(space.dist, w0, w1)
            if fast != slow:
                mismatches += 1
        elapsed = time.perf_counter() - start
        ok = mismatches == 0 and elapsed < 10.0
        _report(
            9,
            "prohorov breakpoint oracle",
            ok,
            f"{pairs} measure pairs, {mismatches} mismatches ({elapsed:.1f}s)",
        )
        assert elapsed < 10.0
        assert mismatches == 0

    def test_10_homology_rank_oracle(self):
        """Packed-word reduction equals a dense full-rank computation."""
        rng = random.Random(303)
        start = time.perf_counter()
        mismatches = 0
        complexes = 0
        for _ in range(500):
            n = rng.randint(1, 7)
            gens = []
            for _ in range(rng.randint(1, 8)):
                sigma = tuple(v for v in range(n) if rng.random() < 0.5)
                if sigma:
                    gens.append(sigma)
            if not gens:
                gens.append((0,))
            K = closure_of(gens)
            complexes += 1
            if betti(K, 3) != betti_dense(K.simplices, 3):
                mismatches += 1
        elapsed = time.perf_counter() - start
        ok = mismatches == 0 and elapsed < 10.0
        _report(
            10,
            "homology rank oracle",
            ok,
            f"{complexes} complexes, {mismatches} mismatches ({elapsed:.1f}s)",
        )
        assert elapsed < 10.0
        assert mismatches == 0
