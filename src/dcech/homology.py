"""Mod-2 simplicial homology, slice persistence and bottleneck distance.

Boundary matrices are reduced over GF(2) with columns packed into Python ints,
which keeps the column XOR in C. There is one reduction, of a filtration into
persistence pairs; Betti numbers are its one-step case, the essential bars of
a complex entered all at once. Everything is exact: no floating tolerance
enters the algebra, only the input staircases.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from .core import BifilteredComplex, Simplex, SimplicialComplex, grid_with_midpoints
from .errors import NonMonotonePath, NotAnInclusion, UnsupportedDimension

__all__ = [
    "BettiVector",
    "BettiTable",
    "Barcode",
    "betti",
    "betti_table",
    "slice_persistence",
    "diagonal_barcode",
    "bottleneck_distance",
    "inclusion_induces_iso",
]

BettiVector = tuple[int, ...]
Interval = tuple[float, float]


def betti(complex_: SimplicialComplex, max_degree: int) -> BettiVector:
    """Betti numbers over GF(2) in degrees 0..max_degree: the essential bars
    of the one-step filtration that enters every simplex at 0.0.

    Simplices of dimension max_degree + 1 are used to kill cycles; higher
    simplices are ignored. The caller is responsible for having materialized
    the complex at least that far.
    """
    if max_degree < 0:
        raise UnsupportedDimension(f"max_degree must be >= 0, got {max_degree}")
    ordered = [s for s in complex_.sorted_simplices() if len(s) <= max_degree + 2]
    bars = _persistence_pairs(ordered, [0.0] * len(ordered), max_degree)
    return tuple(len(bars.degree(k)) for k in range(max_degree + 1))


@dataclass(frozen=True)
class BettiTable:
    """Betti vectors over a rectangular (m, r) grid.

    values[i][j] is the Betti vector at (m_grid[i], r_grid[j]).
    """

    m_grid: tuple[float, ...]
    r_grid: tuple[float, ...]
    max_degree: int
    values: tuple[tuple[BettiVector, ...], ...]

    def at(self, i: int, j: int) -> BettiVector:
        return self.values[i][j]


@dataclass(frozen=True)
class _Corners:
    """Every staircase corner of a complex as flat arrays, simplex by simplex
    in K.entries order: corners starts[i] up to ends[i] belong to simplices[i]."""

    simplices: list[Simplex]
    r: np.ndarray
    v: np.ndarray
    starts: np.ndarray
    ends: np.ndarray

    @classmethod
    def of(cls, K: BifilteredComplex) -> "_Corners":
        counts = np.array([len(stair.steps) for stair in K.entries.values()], dtype=np.intp)
        ends = np.cumsum(counts)
        flat = [corner for stair in K.entries.values() for corner in stair.steps]
        r, v = np.array(flat, dtype=float).reshape(len(flat), 2).T
        return cls(list(K.entries), r, v, ends - counts, ends)

    def entering(self, m: float) -> tuple[np.ndarray, np.ndarray]:
        """(simplex index, corner index) of every simplex that admits m.

        Values rise strictly along a staircase, so the corners that do not
        admit m (``not v >= m``, as in Staircase.present, so a nan admits
        nothing) form a prefix, and its length points at the first corner
        that does.
        """
        if not self.simplices:  # reduceat needs at least one index
            return self.starts, self.starts
        first = self.starts + np.add.reduceat(~(self.v >= m), self.starts, dtype=np.intp)
        sims = np.flatnonzero(first < self.ends)
        return sims, first[sims]


def betti_table(
    K: BifilteredComplex,
    m_grid: Sequence[float] | None = None,
    r_grid: Sequence[float] | None = None,
    max_degree: int | None = None,
) -> BettiTable:
    """Betti vectors over a grid (default: criticals + midpoints): one
    reduction per m-row, each cell counting the bars alive at its radius.

    Only simplices up to K.dim_cap exist, so degrees at or above dim_cap
    describe that skeleton, not the full complex: the (dim_cap + 1)-simplices
    that would kill its cycles are missing.
    """
    crit_r, crit_m = K.critical_grid()
    if m_grid is None:
        m_grid = grid_with_midpoints(crit_m)
    if r_grid is None:
        r_grid = grid_with_midpoints(crit_r)
    if max_degree is None:
        max_degree = max(K.dim_cap - 1, 0)
    ms = tuple(float(m) for m in m_grid)
    rs = tuple(float(r) for r in r_grid)
    if ms and rs and max_degree < 0:
        raise UnsupportedDimension(f"max_degree must be >= 0, got {max_degree}")
    # nan goes last: Staircase.present treats it as an infinite radius
    steps = sorted(set(rs), key=lambda r: (r != r, r))
    corners = _Corners.of(K)
    simplices = corners.simplices
    # the first step at or above each corner; len(steps) when there is none
    step_of = np.array([bisect_left(steps, r) for r in corners.r.tolist()], dtype=np.intp)
    rows: list[tuple[BettiVector, ...]] = []
    for m in ms:
        sims, first = corners.entering(m)
        at_step = step_of[first]
        keep = at_step < len(steps)
        entered = [
            (j, len(simplices[i]), simplices[i])
            for i, j in zip(sims[keep].tolist(), at_step[keep].tolist())
        ]
        bars = _persistence_pairs(*_entry_order(entered), max_degree)
        ends = [
            ([b for b, _ in bars.degree(k)], sorted(d for _, d in bars.degree(k)))
            for k in range(max_degree + 1)
        ]
        at = {
            r: tuple(bisect_right(born, j) - bisect_right(dead, j) for born, dead in ends)
            for j, r in enumerate(steps)
        }
        rows.append(tuple(at[r] for r in rs))
    return BettiTable(ms, rs, max_degree, tuple(rows))


@dataclass(frozen=True)
class Barcode:
    """Persistence intervals per homology degree, [birth, death) with
    death = inf for essential classes."""

    intervals: Mapping[int, tuple[Interval, ...]]

    def __post_init__(self) -> None:
        fixed = {
            int(k): tuple(sorted((float(b), float(d)) for b, d in v))
            for k, v in self.intervals.items()
        }
        object.__setattr__(self, "intervals", fixed)

    def degree(self, k: int) -> tuple[Interval, ...]:
        return self.intervals.get(k, ())

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted(self.intervals))


def _entry_order(
    entered: list[tuple[float, int, Simplex]]
) -> tuple[list[Simplex], list[float]]:
    """The simplices and births of (birth, size, simplex) triples in
    filtration order: sorted, the triples put each face before its cofaces,
    and simplices of equal birth and size in lexicographic order."""
    entered.sort()
    return [s for _, _, s in entered], [b for b, _, _ in entered]


def _persistence_pairs(
    ordered: Sequence[Simplex], births: Sequence[float], max_degree: int
) -> Barcode:
    """Standard column reduction of simplices in filtration order (see
    _entry_order), simplex ordered[i] entering at births[i].

    A column holds faces of one size only, so each face is indexed by its
    rank among the simplices of its own size, and the columns of each size
    reduce against each other alone. Sizes go from the top down, so a
    simplex that a larger column's pivot already pairs is a creator whose
    column is skipped (clearing: Chen & Kerber, "Persistent homology
    computation with a twist", EuroCG 2011). Simplices above size
    max_degree + 2 kill no class of a reported degree and are left out.
    Bars of length zero are dropped; unpaired creators get death = inf,
    except one born at inf, whose bar [inf, inf) is empty too.
    """
    top = max(max_degree + 2, 1)
    layers = [([], []) for _ in range(top + 1)]  # (births, simplices) per size
    index: dict[Simplex, int] = {}
    for s, b in zip(ordered, births):
        n = len(s)
        if n <= top:
            born, simps = layers[n]
            if n < top:
                index[s] = len(simps)
            born.append(b)
            simps.append(s)
    face_rank = index.__getitem__
    bars: dict[int, list[Interval]] = {}
    killer_birth: dict[int, float] = {}  # by rank among the simplices of size n
    for n in range(top, 0, -1):
        born, simps = layers[n]
        out: list[Interval] = []
        low_to_col: dict[int, int] = {}
        face_killer_birth: dict[int, float] = {}
        for j, s in enumerate(simps):
            d = killer_birth.get(j)
            if d is not None:
                if born[j] < d:
                    out.append((born[j], d))
                continue
            col = 0
            if n > 1:
                for i in map(face_rank, combinations(s, n - 1)):
                    col |= 1 << i
            while col:
                lw = col.bit_length() - 1
                existing = low_to_col.get(lw)
                if existing is None:
                    low_to_col[lw] = col
                    face_killer_birth[lw] = born[j]
                    break
                col ^= existing
            else:
                if n < top and born[j] != math.inf:
                    out.append((born[j], math.inf))
        if out:
            bars[n - 1] = out
        killer_birth = face_killer_birth
    return Barcode({k: tuple(v) for k, v in bars.items()})


def slice_persistence(
    K: BifilteredComplex,
    m: float,
    r_grid: Sequence[float] | None = None,
    max_degree: int | None = None,
) -> Barcode:
    """Persistence barcode of K along r at the constant mass m.

    A simplex enters at the radius of its first corner that admits m. With
    r_grid, a nondecreasing sequence of radii, it enters at the first grid
    radius at or above that, and not at all when the grid ends below it.
    A grid radius of +inf raises NonMonotonePath: a bar dying there would
    read as [b, inf), the same as an essential class.
    """
    if max_degree is None:
        max_degree = max(K.dim_cap - 1, 0)
    corners = _Corners.of(K)
    sims, first = corners.entering(float(m))
    # + 0.0: a -0.0 corner enters at 0.0
    pairs = zip(sims.tolist(), (corners.r[first] + 0.0).tolist())
    if r_grid is not None:
        grid = [float(r) for r in r_grid]
        if not grid:
            raise NonMonotonePath("an r grid needs at least one radius")
        for a, b in zip(grid, grid[1:]):
            if b < a:
                raise NonMonotonePath(f"r grid moved backwards: {a} then {b}")
        if math.inf in grid:
            raise NonMonotonePath(
                "an r grid radius of inf would print a bar dying there as essential"
            )
        snapped = [(i, bisect_left(grid, t)) for i, t in pairs]
        pairs = [(i, grid[j]) for i, j in snapped if j < len(grid)]
    simplices = corners.simplices
    entered = [(t, len(simplices[i]), simplices[i]) for i, t in pairs]
    return _persistence_pairs(*_entry_order(entered), max_degree)


def diagonal_barcode(
    K: BifilteredComplex, m0: float, r0: float, max_degree: int
) -> Barcode:
    """Exact barcode along the slice t -> (m0 - t, r0 + t), t >= 0.

    Entry thresholds are computed per staircase corner in closed form, so
    bar endpoints are exact rather than snapped to a sample grid.
    """
    items: list[tuple[float, int, Simplex]] = []
    for sigma, stair in K.entries.items():
        t = math.inf
        for r_step, v_step in stair.steps:
            t = min(t, max(r_step - r0, m0 - v_step))
        items.append((max(t, 0.0), len(sigma), sigma))
    return _persistence_pairs(*_entry_order(items), max_degree)


def inclusion_induces_iso(
    sub: SimplicialComplex, full: SimplicialComplex, max_degree: int
) -> tuple[bool, ...]:
    """Whether the inclusion sub -> full is a homology isomorphism per degree.

    Runs two-step persistence: the inclusion is an isomorphism in degree k
    exactly when no k-bar dies crossing the step and no k-bar is born at the
    second step and survives.
    """
    if not sub.is_subcomplex_of(full):
        extra = sorted(sub.simplices - full.simplices)[:3]
        raise NotAnInclusion(f"not a subcomplex; extra simplices {extra}")
    tagged = [
        (0.0 if s in sub.simplices else 1.0, len(s), s)
        for s in full.sorted_simplices()
    ]
    bars = _persistence_pairs(*_entry_order(tagged), max_degree)
    out = []
    for k in range(max_degree + 1):
        ok = True
        for b, d in bars.degree(k):
            if b == 0.0 and d == 1.0:
                ok = False
            if b == 1.0 and math.isinf(d):
                ok = False
        out.append(ok)
    return tuple(out)


# ---------------------------------------------------------------------------
# Bottleneck distance
# ---------------------------------------------------------------------------


def _match_cost(a: Interval, b: Interval) -> float:
    db = abs(a[0] - b[0])
    if math.isinf(a[1]) and math.isinf(b[1]):
        dd = 0.0
    elif math.isinf(a[1]) or math.isinf(b[1]):
        dd = math.inf
    else:
        dd = abs(a[1] - b[1])
    return max(db, dd)


def _removal_cost(a: Interval) -> float:
    if math.isinf(a[1]):
        return math.inf
    return (a[1] - a[0]) / 2.0


def _feasible(
    n0: int,
    n1: int,
    costs: list[list[float]],
    del0: list[float],
    del1: list[float],
    c: float,
) -> bool:
    """Perfect matching test in the doubled bipartite graph at threshold c."""
    left = n0 + n1  # bars0 then dummies for bars1
    right = n1 + n0  # bars1 then dummies for bars0

    def neighbors(u: int) -> list[int]:
        out = []
        if u < n0:
            out.extend(j for j in range(n1) if costs[u][j] <= c)
            if del0[u] <= c:
                out.append(n1 + u)
        else:
            j = u - n0  # dummy for bars1[j]
            if del1[j] <= c:
                out.append(j)
            out.extend(range(n1, n1 + n0))
        return out

    match_right: list[int] = [-1] * right

    def try_augment(u: int, seen: list[bool]) -> bool:
        for v in neighbors(u):
            if seen[v]:
                continue
            seen[v] = True
            if match_right[v] == -1 or try_augment(match_right[v], seen):
                match_right[v] = u
                return True
        return False

    size = 0
    for u in range(left):
        if try_augment(u, [False] * right):
            size += 1
    return size == left


def bottleneck_distance(
    bars0: Sequence[Interval], bars1: Sequence[Interval]
) -> float:
    """Exact bottleneck distance between two single-degree barcodes.

    Intervals may be matched (cost: sup distance of endpoints) or deleted to
    the diagonal (cost: half length); infinite bars must match each other.
    Computed by binary search over the finite candidate costs with a bipartite
    matching feasibility test at each candidate.
    """
    a = [(float(b), float(d)) for b, d in bars0 if float(b) != float(d)]
    b = [(float(x), float(y)) for x, y in bars1 if float(x) != float(y)]
    n0, n1 = len(a), len(b)
    if n0 == 0 and n1 == 0:
        return 0.0
    inf0 = sum(1 for x in a if math.isinf(x[1]))
    inf1 = sum(1 for x in b if math.isinf(x[1]))
    if inf0 != inf1:
        return math.inf
    costs = [[_match_cost(x, y) for y in b] for x in a]
    del0 = [_removal_cost(x) for x in a]
    del1 = [_removal_cost(y) for y in b]
    cands: set[float] = {0.0}
    for row in costs:
        cands.update(v for v in row if math.isfinite(v))
    cands.update(v for v in del0 if math.isfinite(v))
    cands.update(v for v in del1 if math.isfinite(v))
    ordered = sorted(cands)
    lo, hi = 0, len(ordered) - 1
    if not _feasible(n0, n1, costs, del0, del1, ordered[hi]):
        return math.inf
    while lo < hi:
        mid = (lo + hi) // 2
        if _feasible(n0, n1, costs, del0, del1, ordered[mid]):
            hi = mid
        else:
            lo = mid + 1
    return ordered[lo]
