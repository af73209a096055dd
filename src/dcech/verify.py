"""Randomized verification suites for the package's structural claims.

Each suite draws seeded random instances and checks one theorem-shaped
property end to end: sandwich inclusions, duality of Betti vectors across
the nerve / rectangle / dual triple, restriction to support inducing
homology isomorphisms, the cover nerve matching the ambient construction,
Prohorov stability of diagonal-slice barcodes, the doubled projection
inequality, and the doubling-shift interleaving of embedded pairs. Suites
never assume the property: every check recomputes both sides.

The rectangle complex is too large to materialize at every grid point, so
its Betti vectors are computed through a nerve shortcut: the complex is a
union of full simplices on computable vertex sets, and the nerve of that
cover has the same homology. Wide covers, whose nerves would be too large,
build the complex itself with ``rectangle_complex``; dedicated tests compare
the two routes.

Duality, restriction, and nerve grids use m > 0 only: at m <= 0 the dual
and rectangle complexes genuinely differ from the nerve (empty versus full),
so those cells would fail for a trivial reason. Restricting to m > 0 does
not make the duality and restriction claims hold: the nerve of f is not the
dual's Dowker partner (that is the degree Cech nerve, whose homology the
dual does share), and a zero-mass point can carry the only overlap of two
balls, so both suites fail on small random instances. They compare the
constructions as stated and report where they disagree.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

from .builders import (
    DegreeBifiltration,
    DowkerDissimilarity,
    SetBifiltration,
    _balls,
    _mask_nerve,
    _mask_of,
    _row_masks,
    ambient_dc_finite,
    cover_nerve,
    dowker_dual,
    intrinsic_dc,
    nerve_bifiltration,
    rectangle_complex,
)
from .core import (
    BifilteredComplex,
    DiscreteMeasure,
    FiniteMetricSpace,
    ForwardShift,
    Simplex,
    SimplicialComplex,
)
from .homology import (
    BettiVector,
    betti,
    betti_table,
    bottleneck_distance,
    diagonal_barcode,
    inclusion_induces_iso,
)
from .instances import (
    perturbed_cloud,
    random_coords,
    random_dowker,
    random_measure,
    random_metric_space,
    random_planar_space,
)
from .metrics import (
    CommonEmbedding,
    check_projection_inequality,
    gp_upper_bound,
    nearest_neighbor_projection,
    prohorov_distance,
    verify_sandwich,
    verify_set_interleaving_shift,
)
from .planar import ambient_dc_planar

__all__ = [
    "SuiteResult",
    "DEFAULT_TRIALS",
    "SUITES",
    "run_suite",
    "run_all",
    "rectangle_betti",
]

MAX_REPORTED_FAILURES = 10


@dataclass
class SuiteResult:
    name: str
    trials: int
    failures: list[str] = field(default_factory=list)
    note: str = ""

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        head = f"{self.name}: {'PASS' if self.ok else 'FAIL'} ({self.trials} trials)"
        if self.note:
            head += f" [{self.note}]"
        return head


def _record(result: SuiteResult, trial: int, message: str) -> None:
    if len(result.failures) < MAX_REPORTED_FAILURES:
        result.failures.append(f"trial {trial}: {message}")
    elif len(result.failures) == MAX_REPORTED_FAILURES:
        result.failures.append("... further failures suppressed")


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _positive_m_grid(K: BifilteredComplex) -> list[float]:
    vals = {v for st in K.entries.values() for _, v in st.steps if v > 0.0}
    return sorted(vals)


def _r_grid(*complexes: BifilteredComplex) -> list[float]:
    rs = {0.0}
    for K in complexes:
        for st in K.entries.values():
            rs.update(r for r, _ in st.steps)
    return sorted(rs)


def _maximal(complex_: SimplicialComplex) -> list[Simplex]:
    sims = sorted(complex_.simplices, key=len, reverse=True)
    kept: list[frozenset] = []
    out: list[Simplex] = []
    for s in sims:
        fs = frozenset(s)
        if not any(fs <= k for k in kept):
            kept.append(fs)
            out.append(s)
    return out


def rectangle_betti(
    dowker: DowkerDissimilarity,
    f: SetBifiltration,
    m: float,
    r: float,
    nf_at: SimplicialComplex,
    dual_at: SimplicialComplex,
    max_degree: int,
) -> BettiVector:
    """Betti vector of the correspondence complex at (m, r).

    The complex is the union of full simplices on the sets
    (A x B) intersected with the related pairs, over maximal A in the nerve
    and maximal B in the dual; the nerve of that cover carries the same
    homology. A cover of more than 16 sets has too wide a nerve, so then
    the complex itself is built, up to dimension max_degree + 1.
    """
    ny = dowker.ny
    # rows[x]: the points in the ball of x, as a bitmask over Y
    rows = _row_masks(dowker._related(r))
    b_masks = [_mask_of(b) for b in _maximal(dual_at)]
    masks: set[int] = set()
    for a in _maximal(nf_at):
        for b_mask in b_masks:
            mask = 0
            for x in a:
                mask |= (rows[x] & b_mask) << (x * ny)
            if mask:
                masks.add(mask)
    ordered = sorted(masks, key=lambda mk: -bin(mk).count("1"))
    kept: list[int] = []
    for mk in ordered:
        if not any(mk & ~other == 0 for other in kept):
            kept.append(mk)
    if not kept:
        return (0,) * (max_degree + 1)
    if len(kept) <= 16:
        nerve = _mask_nerve(kept, max_degree + 2)
        return betti(SimplicialComplex._trusted(tuple(range(len(kept))), nerve), max_degree)
    return betti(rectangle_complex(dowker, f, m, r, max_degree + 1), max_degree)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def run_sandwich(seed: int, trials: int = 100) -> SuiteResult:
    """Intrinsic at (m, r) inside ambient at (m, r) inside intrinsic at (m, 2r)."""
    rng = random.Random(seed)
    result = SuiteResult("sandwich", trials)
    worst = math.inf
    for trial in range(trials):
        if trial % 2 == 0:
            n = rng.randint(4, 7)
            space = random_metric_space(rng, n)
            mu = random_measure(rng, n, zero_count=rng.randint(1, 2))
            ambient = ambient_dc_finite(space, mu)
        else:
            n = rng.randint(4, 7)
            space = random_planar_space(rng, n)
            mu = DiscreteMeasure.counting(n)
            ambient = ambient_dc_planar(space, mu)
        intrinsic = intrinsic_dc(space, mu)
        report = verify_sandwich(intrinsic, ambient)
        worst = min(worst, report.worst().slack)
        if not report.ok:
            c = report.worst()
            _record(result, trial, f"{c.label} violated at {c.witness}")
    result.note = f"worst slack {worst:.3g}"
    return result


def run_duality(seed: int, trials: int = 100) -> SuiteResult:
    """Betti of nerve, rectangle complex, and dual agree at m > 0 grid points."""
    rng = random.Random(seed)
    result = SuiteResult("duality", trials)
    checked = 0
    for trial in range(trials):
        nx = rng.randint(2, 6)
        ny = rng.randint(2, 6)
        lam = random_dowker(rng, nx, ny)
        mu = DiscreteMeasure(tuple(float(rng.randint(1, 3)) for _ in range(ny)))
        f = DegreeBifiltration(lam, mu)
        nf = nerve_bifiltration(f, 3)
        dual = dowker_dual(lam, f, 3)
        ms = _positive_m_grid(nf)
        rs = _r_grid(nf, dual)
        seen: set[tuple] = set()
        for r in rs:
            for m in ms:
                nf_at = nf.complex_at(m, r)
                dual_at = dual.complex_at(m, r)
                sig = (nf_at.simplices, dual_at.simplices, r)
                if sig in seen:
                    continue
                seen.add(sig)
                checked += 1
                b_nf = betti(nf_at, 2)
                b_dual = betti(dual_at, 2)
                if b_nf != b_dual:
                    _record(
                        result,
                        trial,
                        f"nerve {b_nf} != dual {b_dual} at (m={m}, r={r})",
                    )
                    continue
                b_rect = rectangle_betti(lam, f, m, r, nf_at, dual_at, 2)
                if b_rect != b_nf:
                    _record(
                        result,
                        trial,
                        f"rectangle {b_rect} != nerve {b_nf} at (m={m}, r={r})",
                    )
    result.note = f"{checked} grid cells"
    return result


def run_restriction(seed: int, trials: int = 50) -> SuiteResult:
    """Restricting a dual to the measure's support preserves homology."""
    rng = random.Random(seed)
    result = SuiteResult("restriction", trials)
    checked = 0
    for trial in range(trials):
        nx = rng.randint(2, 5)
        ny = rng.randint(4, 6)
        lam = random_dowker(rng, nx, ny)
        zero_count = rng.randint(1, min(3, ny - 1))
        weights = [float(rng.randint(1, 3)) for _ in range(ny)]
        for i in rng.sample(range(ny), zero_count):
            weights[i] = 0.0
        mu = DiscreteMeasure(tuple(weights))
        f = DegreeBifiltration(lam, mu)
        dual = dowker_dual(lam, f, 3)
        support = set(mu.support)
        ms = _positive_m_grid(dual)
        rs = _r_grid(dual)
        seen: set[frozenset] = set()
        for r in rs:
            for m in ms:
                full = dual.complex_at(m, r)
                if full.simplices in seen:
                    continue
                seen.add(full.simplices)
                restricted = set()
                for sigma in full.simplices:
                    inter = tuple(v for v in sigma if v in support)
                    if inter:
                        restricted.add(inter)
                sub = SimplicialComplex(full.universe, frozenset(restricted))
                checked += 1
                verdict = inclusion_induces_iso(sub, full, 2)
                if not all(verdict):
                    _record(
                        result,
                        trial,
                        f"iso fails per degree {verdict} at (m={m}, r={r})",
                    )
    result.note = f"{checked} grid cells"
    return result


def run_nerve(seed: int, trials: int = 50) -> SuiteResult:
    """Cover nerve and ambient construction have equal Betti vectors."""
    rng = random.Random(seed)
    result = SuiteResult("nerve", trials)
    # cover nerves repeat across cells and trials: reduce each one once
    seen: dict[frozenset[Simplex], BettiVector] = {}
    checked = 0
    for trial in range(trials):
        n = rng.randint(4, 8)
        space = random_metric_space(rng, n)
        # Full-support measures: the two constructions are then literally the
        # same complex, so this checks the two code paths against each other.
        mu = DiscreteMeasure(tuple(float(rng.randint(1, 3)) for _ in range(n)))
        K = ambient_dc_finite(space, mu, 3)
        ms = _positive_m_grid(K)
        rs = _r_grid(K)
        table = betti_table(K, ms, rs, 2)
        # the cover nerve is a function of its cover, each ball's part of the
        # dense region, so it is built once per distinct cover in the trial
        by_cover: dict[bytes, BettiVector] = {}
        for j, r in enumerate(rs):
            inside, mass = _balls(space, mu, r)
            for i, m in enumerate(ms):
                checked += 1
                b_dc = table.at(i, j)
                cover = (inside & (mass >= m)).tobytes()
                b_nerve = by_cover.get(cover)
                if b_nerve is None:
                    nerve = cover_nerve(space, mu, m, r, 3)
                    b_nerve = seen.get(nerve.simplices)
                    if b_nerve is None:
                        b_nerve = seen[nerve.simplices] = betti(nerve, 2)
                    by_cover[cover] = b_nerve
                if b_dc != b_nerve:
                    _record(
                        result,
                        trial,
                        f"ambient {b_dc} != cover nerve {b_nerve} at (m={m}, r={r})",
                    )
    result.note = f"{checked} grid cells"
    return result


def run_stability(seed: int, trials: int = 50) -> SuiteResult:
    """Perturbing a cloud moves diagonal-slice barcodes at most the Prohorov
    distance, which is itself at most the perturbation radius."""
    rng = random.Random(seed)
    result = SuiteResult("stability", trials)
    worst_gap = -math.inf
    for trial in range(trials):
        n = rng.randint(5, 7)
        coords = random_coords(rng, n)
        base = FiniteMetricSpace.from_points(coords)
        delta = rng.uniform(0.3, 1.0) * 0.1 * base.diameter()
        moved = perturbed_cloud(rng, coords, delta)
        union = FiniteMetricSpace.from_points(list(coords) + moved)
        mu0 = DiscreteMeasure((1.0,) * n + (0.0,) * n)
        mu1 = DiscreteMeasure((0.0,) * n + (1.0,) * n)
        dist = prohorov_distance(union, mu0, mu1)
        if dist > delta + 1e-9:
            _record(result, trial, f"prohorov {dist} exceeds delta {delta}")
            continue
        K0 = ambient_dc_finite(union, mu0, 2)
        K1 = ambient_dc_finite(union, mu1, 2)
        for _ in range(5):
            m0 = rng.uniform(1.0, n)
            r0 = rng.uniform(0.0, 0.25 * union.diameter())
            bc0 = diagonal_barcode(K0, m0, r0, 1)
            bc1 = diagonal_barcode(K1, m0, r0, 1)
            for deg in (0, 1):
                bd = bottleneck_distance(bc0.degree(deg), bc1.degree(deg))
                worst_gap = max(worst_gap, bd - dist)
                if bd > dist + 1e-9:
                    _record(
                        result,
                        trial,
                        f"H{deg} bottleneck {bd} exceeds prohorov {dist} "
                        f"on slice (m0={m0}, r0={r0})",
                    )
    result.note = f"worst bottleneck minus prohorov {worst_gap:.3g}"
    return result


def run_lemma75(seed: int, trials: int = 100) -> SuiteResult:
    """Projected points at most double distances: d(p0 i1 x, i0 y) <= 2 d(i1 x, i0 y)."""
    rng = random.Random(seed)
    result = SuiteResult("lemma75", trials)
    worst = 0.0
    for trial in range(trials):
        big = rng.randint(12, 25)
        if trial % 2 == 0:
            ambient = random_planar_space(rng, big)
        else:
            ambient = random_metric_space(rng, big)
        n0 = rng.randint(2, 10)
        n1 = rng.randint(2, 10)
        i0 = sorted(rng.sample(range(big), n0))
        i1 = sorted(rng.sample(range(big), n1))
        emb = CommonEmbedding(
            ambient, ambient.restrict(i0), i0, ambient.restrict(i1), i1
        )
        report = check_projection_inequality(emb)
        worst = max(worst, report.worst_ratio)
        if not report.ok:
            _record(result, trial, f"violated at pair {report.witness}")
    result.note = f"worst ratio {worst:.4f}"
    return result


def run_prop76(seed: int, trials: int = 50) -> SuiteResult:
    """Embedded pairs are interleaved under the doubling shift at any eps
    above the Prohorov distance of the pushforwards."""
    rng = random.Random(seed)
    result = SuiteResult("prop76", trials)
    worst = math.inf
    for trial in range(trials):
        big = rng.randint(10, 16)
        ambient = random_planar_space(rng, big)
        n0 = rng.randint(3, 6)
        n1 = rng.randint(3, 6)
        i0 = sorted(rng.sample(range(big), n0))
        i1 = sorted(rng.sample(range(big), n1))
        space0 = ambient.restrict(i0)
        space1 = ambient.restrict(i1)
        emb = CommonEmbedding(ambient, space0, i0, space1, i1)
        mu0 = DiscreteMeasure.counting(n0)
        mu1 = DiscreteMeasure.counting(n1)
        eps = gp_upper_bound(emb, mu0, mu1) + 0.01
        proj0 = nearest_neighbor_projection(ambient, i0)
        proj1 = nearest_neighbor_projection(ambient, i1)
        back0 = {amb: k for k, amb in enumerate(i0)}
        back1 = {amb: k for k, amb in enumerate(i1)}
        pi0 = tuple(back0[proj0[i1[x]]] for x in range(n1))
        pi1 = tuple(back1[proj1[i0[x]]] for x in range(n0))
        f0 = DegreeBifiltration(
            DowkerDissimilarity.from_metric(space0), mu0
        )
        f1 = DegreeBifiltration(
            DowkerDissimilarity.from_metric(space1), mu1
        )
        shift = ForwardShift.doubling_shift(eps)
        rs = sorted({0.0, *f0.r_breakpoints(), *f1.r_breakpoints()})
        report = verify_set_interleaving_shift(
            f0, f1, pi1, pi0, shift, shift, rs, dim_cap=3
        )
        worst = min(worst, report.worst().slack)
        if not report.ok:
            c = report.worst()
            _record(
                result,
                trial,
                f"{c.label} slack {c.slack:.3g} at {c.witness} (eps={eps:.3g})",
            )
    result.note = f"worst slack {worst:.3g}"
    return result


DEFAULT_TRIALS: dict[str, int] = {
    "sandwich": 100,
    "duality": 100,
    "restriction": 50,
    "nerve": 50,
    "stability": 50,
    "lemma75": 100,
    "prop76": 50,
}

SUITES: dict[str, Callable[[int, int], SuiteResult]] = {
    "sandwich": run_sandwich,
    "duality": run_duality,
    "restriction": run_restriction,
    "nerve": run_nerve,
    "stability": run_stability,
    "lemma75": run_lemma75,
    "prop76": run_prop76,
}


def run_suite(name: str, seed: int, trials: int | None = None) -> SuiteResult:
    fn = SUITES[name]
    return fn(seed, trials if trials is not None else DEFAULT_TRIALS[name])


def run_all(seed: int, trials: int | None = None) -> list[SuiteResult]:
    return [run_suite(name, seed, trials) for name in SUITES]
