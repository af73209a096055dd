"""Independent reference implementations used only by the tests.

These deliberately avoid the library's algorithms: enclosing balls come from
a Welzl recursion instead of candidate enumeration, Betti numbers,
persistent Betti numbers and inclusion verdicts from dense numpy elimination
instead of int-packed columns, degree Cech nerves from subset enumeration over the raw
dissimilarity matrix instead of cached ball masks, the Prohorov distance from a
definition-level feasibility scan and, with its check, from enumerating every
support subset instead of max-flows, and the bottleneck distance from exhaustive matchings, and the Dowker dual from a scan
over radii and witnesses with int ball masks instead of one numpy envelope
over witnesses. Degree values come from per-level int ball masks and a sum
over their bits instead of one numpy table per batch, interleaving reports
from a loop over (simplex, radius) pairs, and the metric closure and
triangle check from loops over (k, i, j), and the restriction to a vertex
subset from an envelope over every entry instead of the kept entries. The
correspondence complex comes from every combination of related pairs
instead of an extension walk, and
Dowker pair checks and distance-to-measure values from one int ball mask per
cell instead of tables, and constant-m slices from a walk along a sampled
monotone path, with a bisect per corner and step, instead of each simplex's
first admitting corner; the walk shares the library's column reduction. Geometric primitives (midpoint,
circumcenter, point distance) are shared formula-for-formula with the library
on purpose: exact set-equality checks at breakpoints need the two sides to
round identically, and the value of the oracle is the independent search, not
independent rounding.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, permutations
from operator import add
from typing import Iterator, Sequence

import numpy as np

from dcech import (
    AsymmetryError,
    Barcode,
    BifilteredComplex,
    ConditionSlack,
    CoordMismatch,
    DifferentSpaces,
    DimensionMismatch,
    DowkerConditionViolation,
    IndexOutOfRange,
    InterleavingReport,
    InvalidStaircase,
    NegativeDistanceError,
    NonMonotonePath,
    ProhorovCheck,
    SetBifiltration,
    SimplicialComplex,
    Staircase,
    TriangleViolation,
)
from dcech.core import Simplex
from dcech.homology import _entry_order, _persistence_pairs

Point = tuple[float, float]


# ---------------------------------------------------------------------------
# Minimum enclosing balls (Welzl)
# ---------------------------------------------------------------------------


def _dist(a: Point, b: Point) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def _circumcenter(a: Point, b: Point, c: Point) -> Point | None:
    # sorted like the library's circumcenter, so recursion order cannot
    # perturb the rounding
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


def _ball_of_boundary(boundary: list[Point]) -> tuple[Point, float]:
    if not boundary:
        return (0.0, 0.0), -1.0
    if len(boundary) == 1:
        return boundary[0], 0.0
    if len(boundary) == 2:
        a, b = boundary
        center = ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
        return center, max(_dist(center, a), _dist(center, b))
    cc = _circumcenter(*boundary[:3])
    if cc is None:  # collinear support: fall back to the widest pair
        best = max(combinations(boundary, 2), key=lambda p: _dist(*p))
        a, b = best
        center = ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
    else:
        center = cc
    return center, max(_dist(center, p) for p in boundary)


def _welzl(points: list[Point], boundary: list[Point]) -> tuple[Point, float]:
    if not points or len(boundary) == 3:
        return _ball_of_boundary(boundary)
    p = points[-1]
    center, radius = _welzl(points[:-1], boundary)
    if radius >= 0.0 and _dist(center, p) <= radius * (1.0 + 1e-12):
        return center, radius
    return _welzl(points[:-1], boundary + [p])


def welzl_meb(points) -> tuple[Point, float]:
    """Exact minimum enclosing ball via the Welzl recursion.

    The returned radius is recomputed as the max distance from the final
    center to every input point, mirroring how the library reports radii, so
    generic inputs agree bitwise with the library's enumeration search.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if not pts:
        raise ValueError("no points")
    center, _ = _welzl(pts, [])
    return center, max(_dist(center, p) for p in pts)


def welzl_radii(points, max_size: int) -> dict[tuple[int, ...], float]:
    """Welzl radius of every index set of at most max_size points."""
    idx = range(len(points))
    return {
        sigma: welzl_meb([points[i] for i in sigma])[1]
        for size in range(1, min(max_size, len(points)) + 1)
        for sigma in combinations(idx, size)
    }


def cech_simplices_welzl(points, max_size: int, r: float) -> set[tuple[int, ...]]:
    """All index sets up to max_size whose enclosing ball has radius <= r."""
    return {s for s, rad in welzl_radii(points, max_size).items() if rad <= r}


# ---------------------------------------------------------------------------
# Complexes from generating simplices
# ---------------------------------------------------------------------------


def closure_of(generators) -> SimplicialComplex:
    """The downward closure of the given simplices, over the vertices they use."""
    simplices: set[Simplex] = set()
    for g in generators:
        g = sorted(set(g))
        for k in range(1, len(g) + 1):
            simplices.update(combinations(g, k))
    return SimplicialComplex(tuple({v for s in simplices for v in s}), frozenset(simplices))


# ---------------------------------------------------------------------------
# Dense GF(2) homology
# ---------------------------------------------------------------------------


def _rank_mod2(mat: np.ndarray) -> int:
    """Row reduction of a dense 0/1 matrix over GF(2)."""
    m = mat.copy() % 2
    rows, cols = m.shape
    rank = 0
    for c in range(cols):
        pivot = None
        for rw in range(rank, rows):
            if m[rw, c]:
                pivot = rw
                break
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        for rw in range(rows):
            if rw != rank and m[rw, c]:
                m[rw] ^= m[rank]
        rank += 1
        if rank == rows:
            break
    return rank


def _by_dim(simplices) -> dict[int, list[tuple[int, ...]]]:
    by_dim: dict[int, list[tuple[int, ...]]] = {}
    for s in simplices:
        by_dim.setdefault(len(s) - 1, []).append(tuple(s))
    for k in by_dim:
        by_dim[k].sort()
    return by_dim


def _boundary(bot: list[tuple[int, ...]], top: list[tuple[int, ...]]) -> np.ndarray:
    """Dense GF(2) boundary matrix: rows are the faces in bot, columns top."""
    pos = {s: i for i, s in enumerate(bot)}
    mat = np.zeros((len(bot), len(top)), dtype=np.uint8)
    for j, s in enumerate(top):
        for face in combinations(s, len(s) - 1):
            mat[pos[face], j] ^= 1
    return mat


def _boundary_ranks(by_dim, max_k: int) -> dict[int, int]:
    ranks: dict[int, int] = {}
    for k in range(1, max_k + 1):
        top = by_dim.get(k, [])
        bot = by_dim.get(k - 1, [])
        ranks[k] = _rank_mod2(_boundary(bot, top)) if top and bot else 0
    return ranks


def betti_dense(simplices, max_degree: int) -> tuple[int, ...]:
    """Betti numbers from dense boundary matrices, independent of the library."""
    by_dim = _by_dim(simplices)
    ranks = _boundary_ranks(by_dim, max_degree + 1)
    out = []
    for k in range(max_degree + 1):
        out.append(len(by_dim.get(k, [])) - ranks.get(k, 0) - ranks[k + 1])
    return tuple(out)


def persistent_betti_dense(
    filtration, max_degree: int
) -> dict[tuple[int, int], tuple[int, ...]]:
    """Persistent Betti numbers of nested complexes K_0 <= K_1 <= ..., each
    a collection of simplices: for every pair of steps s <= t, per degree k,
    dim Z_k(K_s) - dim(Z_k(K_s) & B_k(K_t)), the rank of the map that the
    inclusion induces on GF(2) homology.

    A boundary of K_t lies in Z_k(K_s) exactly when it lies in C_k(K_s),
    that is when its rows outside K_s vanish, so the intersection has
    dimension rank d_{k+1}(K_t) minus the rank of those rows.
    """
    sets = [set(map(tuple, K)) for K in filtration]
    dims = [_by_dim(S) for S in sets]
    ranks = [_boundary_ranks(by, max_degree + 1) for by in dims]
    out: dict[tuple[int, int], list[int]] = {}
    for t, by in enumerate(dims):
        for k in range(max_degree + 1):
            bot = by.get(k, [])
            top = by.get(k + 1, [])
            bound = _boundary(bot, top) if top else None
            for s in range(t + 1):
                cycles = len(dims[s].get(k, [])) - ranks[s].get(k, 0)
                outside = [i for i, x in enumerate(bot) if x not in sets[s]]
                escaped = _rank_mod2(bound[outside]) if top and outside else 0
                out.setdefault((s, t), []).append(cycles - (ranks[t][k + 1] - escaped))
    return {key: tuple(v) for key, v in out.items()}


def inclusion_iso_dense(sub, full, max_degree: int) -> tuple[bool, ...]:
    """Per degree, whether the inclusion sub -> full is an isomorphism on
    GF(2) homology (both are collections of simplices): the rank of the
    induced map equals both Betti numbers."""
    ranks = persistent_betti_dense([sub, full], max_degree)
    return tuple(i == a == b for i, a, b in zip(ranks[0, 1], ranks[0, 0], ranks[1, 1]))


# ---------------------------------------------------------------------------
# Degree Cech nerve by subset enumeration
# ---------------------------------------------------------------------------


def degree_cech_nerve(
    matrix, weights, m: float, r: float, cols=None, dim_cap: int = 3
) -> set[tuple[int, ...]]:
    """Simplices of the degree Cech nerve on the witnesses at (m, r).

    A witness x is heavy when its ball {y : matrix[x][y] <= r} carries mass
    sum(weights over the ball) >= m, summed in column order like the
    library's degree bifiltration. A set sigma of at most dim_cap + 1
    witnesses is a simplex when every witness in it is heavy and their balls
    share a point of cols (default: every column). This is the Dowker
    partner of the dual complex on the columns: by Dowker's theorem the two
    are homotopy equivalent, and passing to a column subset on both sides
    commutes with that equivalence.
    """
    nx = len(matrix)
    ny = len(weights)
    points = range(ny) if cols is None else sorted(cols)
    heavy = [
        x
        for x in range(nx)
        if sum(weights[y] for y in range(ny) if matrix[x][y] <= r) >= m
    ]
    out: set[tuple[int, ...]] = set()
    for size in range(1, min(dim_cap + 1, len(heavy)) + 1):
        for sigma in combinations(heavy, size):
            if any(all(matrix[x][y] <= r for x in sigma) for y in points):
                out.add(sigma)
    return out


# ---------------------------------------------------------------------------
# Dowker dual by a scan over radii and witnesses
# ---------------------------------------------------------------------------


def _mask_of(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def dowker_dual_reference(dowker, f, dim_cap: int = 3, y_ids=None) -> BifilteredComplex:
    """The dual complex on Y, one simplex, radius and witness at a time.

    At every radius of the grid, tau's sample is the largest f({x}, r) over
    the witnesses x whose ball mask contains tau's mask, taken in witness
    order with a strict >; the samples are then compressed to a staircase.
    """
    if f.universe_size != dowker.nx:
        raise DimensionMismatch("f universe does not match the witness set")
    ny = dowker.ny
    ids = tuple(y_ids) if y_ids is not None else tuple(range(ny))
    if len(ids) != ny:
        raise DimensionMismatch("y_ids do not match the dual universe size")
    if ny > 20:
        warnings.warn(f"materializing a dual over {ny} vertices", stacklevel=2)
    rs = sorted(set((0.0,) + dowker.r_values() + tuple(f.r_breakpoints())))
    balls = ball_reference(dowker)
    per_r: list[tuple[list[int], list[float]]] = []
    for r in rs:
        masks = [balls.common_ball_mask((x,), r) for x in range(dowker.nx)]
        vals = [f.value((x,), r) for x in range(dowker.nx)]
        per_r.append((masks, vals))
    entries = {}
    for size in range(1, min(dim_cap + 2, ny + 1)):
        for tau in combinations(range(ny), size):
            tmask = _mask_of(tau)
            samples: list[float | None] = []
            for masks, vals in per_r:
                best: float | None = None
                for x in range(dowker.nx):
                    if tmask & ~masks[x]:
                        continue
                    v = vals[x]
                    if best is None or v > best:
                        best = v
                samples.append(best)
            stair = Staircase.from_samples(rs, samples)
            if stair is not None:
                entries[tuple(ids[i] for i in tau)] = stair
    return BifilteredComplex(ids, entries, dim_cap)


# ---------------------------------------------------------------------------
# Degree values from per-level int ball masks
# ---------------------------------------------------------------------------


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


class DegreeReference(SetBifiltration):
    """The degree bifiltration as the library computed it from int bitmasks.

    A radius is rounded down to the largest level (finite matrix entry) at
    or below it; the ball of x at that level is the bitmask of the y with
    matrix[x, y] <= level. r = inf takes every point. The mass of
    a common ball adds its weights over the mask's bits, lowest first, from
    0.0 (sum() is not used: it compensates from Python 3.12 on).
    """

    def __init__(self, matrix, weights) -> None:
        self.matrix = np.asarray(matrix, dtype=float)
        self.weights = tuple(float(w) for w in weights)
        self.universe_size = self.matrix.shape[0]
        self.levels = tuple(
            sorted(set(float(v) for v in self.matrix.ravel() if math.isfinite(v)))
        )

    def common_ball_mask(self, sigma, r: float) -> int:
        nx, ny = self.matrix.shape
        mask = (1 << ny) - 1
        for x in sigma:
            if not 0 <= x < nx:
                raise IndexOutOfRange(f"witness index {x} not in [0, {nx})")
        if r == math.inf:
            return mask
        level = bisect_right(self.levels, r)
        thr = -math.inf if level == 0 else self.levels[level - 1]
        for x in sigma:
            row = self.matrix[x]
            mask &= _mask_of(y for y in range(ny) if row[y] <= thr)
        return mask

    def value(self, sigma, r: float) -> float:
        mask = self.common_ball_mask(sigma, r)
        return reduce(add, (self.weights[y] for y in _bits(mask)), 0.0)

    def r_breakpoints(self) -> tuple[float, ...]:
        return self.levels


def ball_reference(dowker) -> DegreeReference:
    """The balls of a dissimilarity as the reference reads them (weights 0)."""
    return DegreeReference(dowker.matrix, (0.0,) * dowker.ny)


# ---------------------------------------------------------------------------
# The correspondence complex by enumerating pair combinations
# ---------------------------------------------------------------------------
# The library's former bodies: rectangle_complex tried every combination of
# related pairs, and rectangle_betti enumerated the pairs of a wide cover.


def rectangle_complex_reference(dowker, f, m: float, r: float, dim_cap: int = 3):
    """Every combination of at most dim_cap + 1 related pairs, kept when its
    X projection has f >= m and its Y projection lies in the ball of a
    witness x with f({x}, r) >= m."""
    nx, ny = dowker.nx, dowker.ny
    eligible_x = [x for x in range(nx) if f.value((x,), r) >= m]
    balls = ball_reference(dowker)
    ball_of = {x: balls.common_ball_mask((x,), r) for x in eligible_x}
    pair_r = balls.levels[-1] if math.isnan(r) and balls.levels else r
    pairs = [
        (x, y)
        for x in range(nx)
        for y in range(ny)
        if dowker.matrix[x, y] <= pair_r
    ]
    fcache: dict[tuple[int, ...], bool] = {}

    def x_ok(xs: tuple[int, ...]) -> bool:
        got = fcache.get(xs)
        if got is None:
            got = f.value(xs, r) >= m
            fcache[xs] = got
        return got

    def y_ok(ymask: int) -> bool:
        return any((ymask & ~ball_of[x]) == 0 for x in eligible_x)

    simplices = set()
    for size in range(1, min(dim_cap + 2, len(pairs) + 1)):
        for combo in combinations(pairs, size):
            xs = tuple(sorted(set(p[0] for p in combo)))
            if not x_ok(xs):
                continue
            ymask = _mask_of(p[1] for p in combo)
            if not y_ok(ymask):
                continue
            simplices.add(tuple(sorted(x * ny + y for x, y in combo)))
    universe = tuple(range(nx * ny))
    return SimplicialComplex(universe, frozenset(simplices))


def _maximal(complex_):
    sims = sorted(complex_.simplices, key=len, reverse=True)
    kept: list[frozenset] = []
    out = []
    for s in sims:
        fs = frozenset(s)
        if not any(fs <= k for k in kept):
            kept.append(fs)
            out.append(s)
    return out


def correspondence_cover(dowker, r: float, nf_at, dual_at) -> list[int]:
    """The maximal sets (A x B) & {dissimilarity <= r} as pair bitmasks, over
    maximal A in the nerve and maximal B in the dual, largest first."""
    ny = dowker.ny
    masks: set[int] = set()
    for a in _maximal(nf_at):
        for b in _maximal(dual_at):
            mask = 0
            for x in a:
                row = dowker.matrix[x]
                for y in b:
                    if row[y] <= r:
                        mask |= 1 << (x * ny + y)
            if mask:
                masks.add(mask)
    ordered = sorted(masks, key=lambda mk: -bin(mk).count("1"))
    kept: list[int] = []
    for mk in ordered:
        if not any(mk & ~other == 0 for other in kept):
            kept.append(mk)
    return kept


def wide_cover_complex_reference(dowker, f, m: float, r: float, kept, dual_at, max_degree: int):
    """The correspondence complex up to dimension max_degree + 1, enumerated
    over combinations of the pairs a cover's sets hold, whatever its width."""
    ny = dowker.ny
    union = 0
    for mk in kept:
        union |= mk
    verts = [i for i in range(dowker.nx * ny) if union >> i & 1]
    dual_set = dual_at.simplices
    f_ok: dict = {}

    def x_ok(xs) -> bool:
        got = f_ok.get(xs)
        if got is None:
            got = f.value(xs, r) >= m
            f_ok[xs] = got
        return got

    sims = set()
    for size in range(1, min(max_degree + 3, len(verts) + 1)):
        for combo in combinations(verts, size):
            xs = tuple(sorted(set(v // ny for v in combo)))
            if not x_ok(xs):
                continue
            ys = tuple(sorted(set(v % ny for v in combo)))
            if ys not in dual_set:
                continue
            sims.add(combo)
    return SimplicialComplex(tuple(range(dowker.nx * ny)), frozenset(sims))


# ---------------------------------------------------------------------------
# Restriction to a vertex subset as an upper envelope of staircases
# ---------------------------------------------------------------------------
# The library's former body, which did not assume a downward closed complex.


def pointwise_max(stairs) -> Staircase:
    """Upper envelope of staircases (absent treated as -inf)."""
    if not stairs:
        raise InvalidStaircase("need at least one staircase")
    rs = sorted({r for st in stairs for r, _ in st.steps})
    vals: list[float | None] = []
    for r in rs:
        best: float | None = None
        for st in stairs:
            v = st.value(r)
            if v is not None and (best is None or v > best):
                best = v
        vals.append(best)
    return Staircase.from_samples(rs, vals)


def restrict_to_support_reference(K, keep) -> BifilteredComplex:
    """sigma's staircase is the envelope of every entry whose intersection
    with the kept set is sigma."""
    kept = frozenset(keep)
    grouped: dict[tuple[int, ...], list[Staircase]] = {}
    for sigma, stair in K.entries.items():
        inter = tuple(v for v in sigma if v in kept)
        if inter:
            grouped.setdefault(inter, []).append(stair)
    entries = {s: pointwise_max(sts) for s, sts in grouped.items()}
    universe = tuple(v for v in K.universe if v in kept)
    return BifilteredComplex(universe, entries, K.dim_cap)


# ---------------------------------------------------------------------------
# Dowker pair compatibility and distance-to-measure values, one cell at a time
# ---------------------------------------------------------------------------


def check_dowker_pair_reference(dowker, f, dim_cap: int = 3) -> None:
    """Raise at the first (size, sigma, r) where f > 0 on an empty ball."""
    grid = sorted(set((0.0,) + dowker.r_values() + f.r_breakpoints()))
    nx = dowker.nx
    balls = ball_reference(dowker)
    for size in range(1, min(dim_cap + 2, nx + 1)):
        for sigma in combinations(range(nx), size):
            for r in grid:
                if f.value(sigma, r) > 0.0 and not (
                    balls.common_ball_mask(sigma, r)
                ):
                    raise DowkerConditionViolation(
                        f"f{sigma} > 0 at r={r} but the ball is empty"
                    )


def dtm_value_reference(dowker, weights, p: float, sigma, r: float) -> float:
    """f_p(sigma, r) over the bits of the common ball mask, lowest first."""
    sig = tuple(sorted(set(sigma)))
    total = 0.0
    for y in _bits(ball_reference(dowker).common_ball_mask(sig, r)):
        best = min(float(dowker.matrix[x, y]) for x in sig)
        w = weights[y]
        if w == 0.0:
            continue
        if math.isinf(best):
            return math.inf
        if best > 0.0:
            total += (best ** p) * w
    return total ** (1.0 / p)


# ---------------------------------------------------------------------------
# Interleaving reports by a loop over (simplex, radius) pairs
# ---------------------------------------------------------------------------
# The library's former bodies: each condition calls two functions of
# (sigma, r) per pair and keeps the first strictly smaller slack.


def _diff(rhs: float, lhs: float) -> float:
    s = rhs - lhs
    return 0.0 if math.isnan(s) else s


def _image(pi, sigma):
    return tuple(sorted(set(pi[v] for v in sigma)))


def _union(pi_a, pi_b, sigma):
    return tuple(sorted(set(sigma) | set(_image(pi_b, _image(pi_a, sigma)))))


def _simplices(n: int, dim_cap: int):
    for size in range(1, min(dim_cap + 2, n + 1)):
        yield from combinations(range(n), size)


def _condition(label, sigmas, rs, lhs, rhs) -> ConditionSlack:
    slack = math.inf
    witness = None
    for sigma in sigmas:
        for r in rs:
            s = _diff(rhs(sigma, r), lhs(sigma, r))
            if s < slack:
                slack = s
                witness = (sigma, r)
    return ConditionSlack(label, slack, witness)


def shifted_reference(label, values, f_dst, shift, sigmas, images, rs) -> ConditionSlack:
    """One shifted condition cell by cell: a scalar shift call and one
    f_dst.value per (sigma, r), keeping the first least slack."""
    cells = {}
    for i, row in enumerate(values.tolist()):
        for v, r in zip(row, rs):
            m2, r2 = shift(v, r)
            cells[sigmas[i], r] = (m2, f_dst.value(images[i], r2))
    return _condition(label, sigmas, rs, lambda s, r: cells[s, r][0], lambda s, r: cells[s, r][1])


def set_interleaving_shift_reference(f0, f1, pi1, pi0, alpha, beta, r_grid, dim_cap=3):
    rs = sorted(set(float(r) for r in r_grid))
    sig0 = list(_simplices(f0.universe_size, dim_cap))
    sig1 = list(_simplices(f1.universe_size, dim_cap))
    comp1 = alpha.then(beta)
    comp0 = beta.then(alpha)

    def lhs(f, shift):
        return lambda s, r: shift(f.value(s, r), r)[0]

    def rhs(f_src, f_dst, shift, img):
        return lambda s, r: f_dst.value(img(s), shift(f_src.value(s, r), r)[1])

    return InterleavingReport(
        (
            _condition(
                "shifted value under pi0", sig1, rs,
                lhs(f1, alpha), rhs(f1, f0, alpha, lambda s: _image(pi0, s)),
            ),
            _condition(
                "shifted value under pi1", sig0, rs,
                lhs(f0, beta), rhs(f0, f1, beta, lambda s: _image(pi1, s)),
            ),
            _condition(
                "shifted union with pi1 pi0", sig1, rs,
                lhs(f1, comp1), rhs(f1, f1, comp1, lambda s: _union(pi0, pi1, s)),
            ),
            _condition(
                "shifted union with pi0 pi1", sig0, rs,
                lhs(f0, comp0), rhs(f0, f0, comp0, lambda s: _union(pi1, pi0, s)),
            ),
        )
    )


# ---------------------------------------------------------------------------
# Metric closure and validation by loops over (k, i, j)
# ---------------------------------------------------------------------------


def closure_to_fixpoint_reference(d: np.ndarray) -> None:
    """Shortest-path relaxation in place, repeated until no float changes."""
    n = d.shape[0]
    changed = True
    while changed:
        changed = False
        for k in range(n):
            for i in range(n):
                dik = d[i, k]
                for j in range(n):
                    v = dik + d[k, j]
                    if v < d[i, j]:
                        d[i, j] = v
                        changed = True


def validate_metric_reference(space, tol: float = 1e-9) -> None:
    """Symmetry, nonnegativity, zero diagonal, triangle inequality and
    coordinates, checked one entry at a time; raises the first violation."""
    d = space.dist
    n = space.n
    for i in range(n):
        if d[i, i] != 0.0:
            raise NegativeDistanceError(f"d({i},{i}) = {d[i, i]} is not zero")
        for j in range(i + 1, n):
            if d[i, j] < 0 or d[j, i] < 0:
                raise NegativeDistanceError(f"d({i},{j}) is negative")
            if not math.isclose(d[i, j], d[j, i], rel_tol=0.0, abs_tol=tol):
                if not (math.isinf(d[i, j]) and math.isinf(d[j, i])):
                    raise AsymmetryError(
                        f"d({i},{j}) = {d[i, j]} but d({j},{i}) = {d[j, i]}"
                    )
    for k in range(n):
        row = d[k]
        for i in range(n):
            dik = d[i, k]
            if math.isinf(dik):
                continue
            for j in range(n):
                rhs = dik + row[j]
                if math.isinf(rhs):
                    continue
                if d[i, j] > rhs + tol:
                    raise TriangleViolation(i, k, j, float(d[i, j]), float(rhs))
    if space.coords is not None:
        c = space.coords
        for i in range(n):
            for j in range(n):
                dd = math.hypot(*(c[i] - c[j])) if c.shape[1] == 2 else float(
                    np.linalg.norm(c[i] - c[j])
                )
                if abs(dd - d[i, j]) > tol:
                    raise CoordMismatch(
                        f"coords give d({i},{j}) = {dd}, matrix says {d[i, j]}"
                    )


# ---------------------------------------------------------------------------
# Prohorov distance by definition
# ---------------------------------------------------------------------------


def prohorov_feasible(dist, w0, w1, eps: float) -> bool:
    """mu_i(B) <= mu_j(B^eps) + eps for every union-support subset B."""
    union = [i for i in range(len(w0)) if w0[i] > 0 or w1[i] > 0]
    for size in range(1, len(union) + 1):
        for b in combinations(union, size):
            off = [
                j
                for j in range(len(w0))
                if any(dist[i][j] <= eps for i in b)
            ]
            m0b = sum(w0[i] for i in b)
            m1b = sum(w1[i] for i in b)
            m0off = sum(w0[j] for j in off)
            m1off = sum(w1[j] for j in off)
            # subtraction form: candidate epsilons are built as these exact
            # differences, so comparing the same expression avoids the ulp
            # loss of re-adding eps to the offset mass
            if m0b - m1off > eps or m1b - m0off > eps:
                return False
    return True


def prohorov_brute(dist, w0, w1) -> float:
    """Smallest feasible eps, scanned over every value the infimum can take."""
    n = len(w0)
    union = [i for i in range(n) if w0[i] > 0 or w1[i] > 0]
    cands = {0.0}
    levels = sorted(
        {0.0}
        | {float(dist[i][j]) for i in union for j in union if math.isfinite(dist[i][j])}
    )
    for t in levels:
        cands.add(t)
        for size in range(1, len(union) + 1):
            for b in combinations(union, size):
                off = [j for j in range(n) if any(dist[i][j] <= t for i in b)]
                cands.add(sum(w0[i] for i in b) - sum(w1[j] for j in off))
                cands.add(sum(w1[i] for i in b) - sum(w0[j] for j in off))
    feasible = sorted(c for c in cands if c >= 0.0)
    lo, hi = 0, len(feasible) - 1
    if not prohorov_feasible(dist, w0, w1, feasible[hi]):
        raise AssertionError("no feasible candidate; candidate set is wrong")
    if prohorov_feasible(dist, w0, w1, feasible[0]):
        return feasible[0]
    while hi - lo > 1:  # feasibility is monotone in eps
        mid = (lo + hi) // 2
        if prohorov_feasible(dist, w0, w1, feasible[mid]):
            hi = mid
        else:
            lo = mid
    return feasible[hi]


# ---------------------------------------------------------------------------
# Prohorov distance and check by subset enumeration
# ---------------------------------------------------------------------------
# The library's former bodies, which enumerate all 2^k subsets of the union
# support, kept with their two helpers as the reference for the max-flow
# version. Only the support cap is gone.


def _union_support(space, mu0, mu1) -> list[int]:
    if len(mu0) != space.n or len(mu1) != space.n:
        raise DifferentSpaces("measures are not indexed by the same space")
    return sorted(set(mu0.support) | set(mu1.support))


def _subset_sums(weights, k: int) -> np.ndarray:
    out = np.zeros(1 << k)
    for j in range(k):
        out[1 << j : 1 << (j + 1)] = out[: 1 << j] + weights[j]
    return out


def _offset_masks(d: np.ndarray, t: float, k: int) -> np.ndarray:
    """off[B] = bitmask of points within distance t of the subset B."""
    off = np.zeros(1 << k, dtype=np.int64)
    for j in range(k):
        ball = 0
        row = d[j]
        for v in range(k):
            if row[v] <= t:
                ball |= 1 << v
        off[1 << j : 1 << (j + 1)] = off[: 1 << j] | ball
    return off


def prohorov_distance_enumerated(space, mu0, mu1) -> float:
    """Exact Prohorov distance between two measures on a common space.

    Smallest eps such that mu_i(B) <= mu_j(B^eps) + eps for every subset B
    of the union of supports and both orderings of (i, j); B^eps is the
    closed eps-offset.
    """
    union = _union_support(space, mu0, mu1)
    k = len(union)
    if k == 0:
        return 0.0
    d = space.dist[np.ix_(union, union)]
    m0 = _subset_sums([mu0.weights[u] for u in union], k)
    m1 = _subset_sums([mu1.weights[u] for u in union], k)
    ts = sorted(set(float(x) for x in d.ravel() if math.isfinite(x)))
    best = np.full(1 << k, math.inf)
    for t in ts:
        off = _offset_masks(d, t, k)
        deficit = np.maximum(m0 - m1[off], m1 - m0[off])
        np.minimum(best, np.maximum(t, deficit), out=best)
    return float(best.max())


def prohorov_check_enumerated(space, mu0, mu1, eps: float) -> ProhorovCheck:
    """Check mu_i(B) <= mu_j(B^eps) + eps for all support subsets B."""
    union = _union_support(space, mu0, mu1)
    k = len(union)
    if k == 0:
        return ProhorovCheck(True, math.inf, None, None)
    d = space.dist[np.ix_(union, union)]
    m0 = _subset_sums([mu0.weights[u] for u in union], k)
    m1 = _subset_sums([mu1.weights[u] for u in union], k)
    if eps < 0:
        off = np.zeros(1 << k, dtype=np.int64)
    else:
        ts = sorted(set(float(x) for x in d.ravel() if math.isfinite(x)))
        idx = bisect_right(ts, eps) - 1
        off = _offset_masks(d, ts[idx], k) if idx >= 0 else np.zeros(
            1 << k, dtype=np.int64
        )
    # the deficits of prohorov_distance, rounded the same way, so the check
    # passes exactly when that distance is at most eps
    deficit0 = m0 - m1[off]
    deficit1 = m1 - m0[off]
    deficit = np.maximum(deficit0, deficit1)
    b = int(deficit.argmax())
    direction = 0 if deficit0[b] >= deficit1[b] else 1
    witness = frozenset(union[j] for j in range(k) if b >> j & 1)
    worst = float(deficit[b])
    return ProhorovCheck(worst <= eps, eps - worst, witness, direction)


# ---------------------------------------------------------------------------
# Bottleneck distance by exhaustive matching
# ---------------------------------------------------------------------------


def _pair_cost(a, b) -> float:
    if math.isinf(a[1]) != math.isinf(b[1]):
        return math.inf
    if math.isinf(a[1]):
        return abs(a[0] - b[0])
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def _drop_cost(a) -> float:
    return math.inf if math.isinf(a[1]) else (a[1] - a[0]) / 2.0


def bottleneck_brute(bars0, bars1) -> float:
    """Min over all partial matchings of the max cost; unmatched bars pay
    half their length (infinite bars can only match infinite bars)."""
    b0 = list(bars0)
    b1 = list(bars1)
    best = math.inf
    for k in range(min(len(b0), len(b1)) + 1):
        for left in combinations(range(len(b0)), k):
            for right in permutations(range(len(b1)), k):
                cost = 0.0
                for i, j in zip(left, right):
                    cost = max(cost, _pair_cost(b0[i], b1[j]))
                for i in range(len(b0)):
                    if i not in left:
                        cost = max(cost, _drop_cost(b0[i]))
                for j in range(len(b1)):
                    if j not in right:
                        cost = max(cost, _drop_cost(b1[j]))
                best = min(best, cost)
    return best


# ---------------------------------------------------------------------------
# Slices walked along a sampled monotone path
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonotonePath:
    """A finite path through parameter space with nonincreasing m and
    nondecreasing r, plus a strictly increasing time stamp per step.

    Bars produced by slice persistence are reported in these time stamps.
    """

    points: tuple[tuple[float, float], ...]
    times: tuple[float, ...]

    def __post_init__(self) -> None:
        pts = tuple((float(m), float(r)) for m, r in self.points)
        ts = tuple(float(t) for t in self.times)
        if not pts:
            raise NonMonotonePath("a path needs at least one point")
        if len(pts) != len(ts):
            raise NonMonotonePath("points and times must align")
        for (m0, r0), (m1, r1) in zip(pts, pts[1:]):
            if m1 > m0 or r1 < r0:
                raise NonMonotonePath(
                    f"path moved backwards: ({m0},{r0}) then ({m1},{r1})"
                )
        for t0, t1 in zip(ts, ts[1:]):
            if not t0 < t1:
                raise NonMonotonePath("times must be strictly increasing")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "times", ts)

    def __len__(self) -> int:
        return len(self.points)

    @classmethod
    def at_constant_m(cls, m: float, r_values: Sequence[float]) -> "MonotonePath":
        # order is kept as given so a decreasing grid is rejected, not hidden
        rs: list[float] = []
        for r in r_values:
            r = float(r)
            if not rs or r != rs[-1]:
                rs.append(r)
        return cls(tuple((m, r) for r in rs), tuple(rs))

    @classmethod
    def diagonal(
        cls, m0: float, r0: float, t_values: Sequence[float]
    ) -> "MonotonePath":
        ts = sorted(set(float(t) for t in t_values))
        if any(t < 0 for t in ts):
            raise NonMonotonePath("diagonal parameters must be >= 0")
        return cls(tuple((m0 - t, r0 + t) for t in ts), tuple(ts))


def _entry_steps(
    K: BifilteredComplex, ms: Sequence[float], rs: Sequence[float]
) -> Iterator[tuple[int, Simplex]]:
    """(first step, simplex) for each simplex entering a path with
    nonincreasing ms and nondecreasing rs. A corner (r_k, v_k) admits the
    steps where ``not rs[i] < r_k`` and ``v_k >= ms[i]``, as in
    Staircase.present: the later of two suffixes of the path."""
    n = len(rs)
    for sigma, stair in K.entries.items():
        first = n
        for r, v in stair.steps:
            r_start = bisect_left(rs, r)
            if r_start >= first:
                break  # later corners start later in r
            first = min(first, max(r_start, bisect_left(ms, True, key=v.__ge__)))
        if first < n:
            yield first, sigma


def slice_persistence_sampled(
    K: BifilteredComplex, path: MonotonePath, max_degree: int | None = None
) -> Barcode:
    """Persistence barcode of K restricted to a monotone parameter path.

    A simplex enters at the first path step where its staircase admits it;
    bars are reported in the path's time stamps.
    """
    if max_degree is None:
        max_degree = max(K.dim_cap - 1, 0)
    ms, rs = zip(*path.points)
    entered = [(path.times[i], len(s), s) for i, s in _entry_steps(K, ms, rs)]
    return _persistence_pairs(*_entry_order(entered), max_degree)


def constant_m_sampled(
    K: BifilteredComplex, m: float, r_grid=None, max_degree: int | None = None
) -> Barcode:
    """A constant-m slice walked over r_grid, or without one over 0 and every
    corner radius, as the command line sampled it."""
    if r_grid is None:
        rs = {0.0}
        for stair in K.entries.values():
            rs.update(r for r, _ in stair.steps)
        r_grid = tuple(sorted(rs))
    return slice_persistence_sampled(K, MonotonePath.at_constant_m(m, r_grid), max_degree)


def bars_alive(bars, t: float) -> int:
    """Number of intervals [b, d) containing time t."""
    return sum(1 for b, d in bars if b <= t < d)
