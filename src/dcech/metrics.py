"""Prohorov distance, common embeddings, and interleaving verification.

The Prohorov distance between finite discrete measures on a common space is
computed exactly. At a threshold t, the worst deficit mu_i(B) - mu_j(N_t(B))
over support subsets B is one bipartite max-flow on the weights as exact ints
(Gale's supply-demand theorem); its least maximizer B gives the float deficit
D(t), and of the two directions the larger deficit wins, then the smaller
bitmask of B, then direction 0. The distance bisects the sorted finite
distances for the first t with D(t) <= t, and prohorov_check decides with the
same D, so it passes exactly when the distance is at most eps.

Interleaving checks follow the displayed inequalities directly: every
condition is evaluated for all simplices up to dim_cap and all grid radii,
and the report carries the worst slack per condition together with a witness
when a condition fails. A negative slack on one of the union conditions
means the sufficient contiguity-style criterion failed; it does not refute
the existence of an interleaving.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import add
from typing import Sequence

import numpy as np

from .core import (
    METRIC_TOL,
    BifilteredComplex,
    DiscreteMeasure,
    FiniteMetricSpace,
    ForwardShift,
    Simplex,
)
from .builders import SetBifiltration
from .errors import (
    DifferentSpaces,
    DimensionMismatch,
    EmptyTarget,
    IndexOutOfRange,
    NotDistancePreserving,
)

__all__ = [
    "CommonEmbedding",
    "ConditionSlack",
    "InterleavingReport",
    "ProhorovCheck",
    "prohorov_distance",
    "prohorov_check",
    "pushforward",
    "nearest_neighbor_projection",
    "check_projection_inequality",
    "ProjectionReport",
    "gp_upper_bound",
    "verify_set_interleaving_shift",
    "verify_sandwich",
]


# ---------------------------------------------------------------------------
# Prohorov distance
# ---------------------------------------------------------------------------


def _least_maximizer(
    supply: list[int], demand: list[int], adj: list[list[int]]
) -> tuple[list[int], list[int]]:
    """The least B maximizing supply(B) - demand(N(B)), and N(B).

    Edmonds-Karp on source -> x (capacity supply[x]), x -> y for y in adj[x]
    (uncapped), y -> sink (capacity demand[y]). Once no augmenting path is
    left, the nodes the source reaches form the least minimum cut: its left
    nodes lie in every maximizer, and its right nodes are their neighbours.
    """
    k = len(supply)
    supply, demand = list(supply), list(demand)
    flow: list[dict[int, int]] = [{} for _ in range(k)]  # flow[y][x]: x sends to y
    while True:
        # BFS; a left node keeps the right node it came back from (-1: the
        # source), a right node the left node that reached it
        back: list[int | None] = [-1 if s else None for s in supply]
        reach: list[int | None] = [None] * k
        queue = [x for x in range(k) if supply[x]]
        end = None
        for x in queue:  # grows while it is read
            for y in adj[x]:
                if reach[y] is None:
                    reach[y] = x
                    if demand[y]:
                        end = y
                        break
                    for x2, f in flow[y].items():
                        if f and back[x2] is None:
                            back[x2] = y
                            queue.append(x2)
            if end is not None:
                break
        if end is None:
            left = [x for x in range(k) if back[x] is not None]
            return left, [y for y in range(k) if reach[y] is not None]
        path = [(reach[end], end)]  # forward edges, from the sink back
        while back[path[-1][0]] != -1:
            y = back[path[-1][0]]
            path.append((reach[y], y))
        x0 = path[-1][0]
        amount = min([supply[x0], demand[end]] + [flow[back[x]][x] for x, _ in path[:-1]])
        supply[x0] -= amount
        demand[end] -= amount
        for x, y in path:
            flow[y][x] = flow[y].get(x, 0) + amount
            if back[x] != -1:
                flow[back[x]][x] -= amount


def _deficits(space: FiniteMetricSpace, mu0: DiscreteMeasure, mu1: DiscreteMeasure):
    """The union support, its sorted finite distances ts, and D.

    D(t) is (deficit, bitmask of B over the union, direction) at threshold t
    (no edges for t = None). Sums run left to right from 0.0, the enumeration's
    rounding; sum() compensates from Python 3.12 on, so it is not used.
    """
    if len(mu0) != space.n or len(mu1) != space.n:
        raise DifferentSpaces("measures are not indexed by the same space")
    union = sorted(set(mu0.support) | set(mu1.support))
    d = space.dist[np.ix_(union, union)]
    ts = sorted(set(float(x) for x in d.ravel() if math.isfinite(x)))
    w = [[mu.weights[u] for u in union] for mu in (mu0, mu1)]
    # exact ints over one power-of-two denominator
    den = max(x.as_integer_ratio()[1] for x in w[0] + w[1])
    a = [[p * den // q for p, q in map(float.as_integer_ratio, ws)] for ws in w]

    def deficit(t: float | None) -> tuple[float, int, int]:
        adj = [np.flatnonzero(row <= t).tolist() if t is not None else [] for row in d]
        best = (-math.inf, 0, 0)
        for i, j in ((0, 1), (1, 0)):
            left, right = _least_maximizer(a[i], a[j], adj)
            value = reduce(add, (w[i][x] for x in left), 0.0)
            value -= reduce(add, (w[j][y] for y in right), 0.0)
            mask = sum(1 << x for x in left)
            if (value, -mask) > (best[0], -best[1]):
                best = (value, mask, i)
        return best

    return union, ts, deficit


def prohorov_distance(
    space: FiniteMetricSpace,
    mu0: DiscreteMeasure,
    mu1: DiscreteMeasure,
) -> float:
    """Exact Prohorov distance between two measures on a common space.

    Smallest eps such that mu_i(B) <= mu_j(B^eps) + eps for every subset B
    of the union of supports and both orderings of (i, j); B^eps is the
    closed eps-offset.
    """
    _, ts, deficit = _deficits(space, mu0, mu1)
    # bisect for the first i with D(t_i) <= t_i; D(t_lo) > t_lo was seen
    lo, hi, d_lo = -1, len(ts), math.inf
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (value := deficit(ts[mid])[0]) <= ts[mid]:
            hi = mid
        else:
            lo, d_lo = mid, value
    return d_lo if hi == len(ts) else min(ts[hi], d_lo)


@dataclass(frozen=True)
class ProhorovCheck:
    """Outcome of checking the two Prohorov inequalities at a fixed eps."""

    ok: bool
    worst_slack: float
    witness_subset: frozenset[int]
    direction: int  # 0: mu0(B) vs mu1(B^eps), 1: the reverse


def prohorov_check(
    space: FiniteMetricSpace,
    mu0: DiscreteMeasure,
    mu1: DiscreteMeasure,
    eps: float,
) -> ProhorovCheck:
    """Check mu_i(B) <= mu_j(B^eps) + eps for all support subsets B."""
    union, ts, deficit = _deficits(space, mu0, mu1)
    idx = -1 if eps < 0 else bisect_right(ts, eps) - 1
    worst, mask, direction = deficit(ts[idx] if idx >= 0 else None)
    witness = frozenset(u for j, u in enumerate(union) if mask >> j & 1)
    return ProhorovCheck(worst <= eps, eps - worst, witness, direction)


# ---------------------------------------------------------------------------
# Embeddings and projections
# ---------------------------------------------------------------------------


def pushforward(
    mu: DiscreteMeasure, index_map: Sequence[int], target_size: int
) -> DiscreteMeasure:
    """Transport a measure along an index map; weights of preimages add."""
    if len(index_map) != len(mu):
        raise DimensionMismatch("index map does not cover the measure's space")
    weights = [0.0] * target_size
    for i, w in enumerate(mu.weights):
        j = index_map[i]
        if not 0 <= j < target_size:
            raise IndexOutOfRange(f"index map sends {i} to {j}")
        weights[j] += w
    return DiscreteMeasure(tuple(weights))


@dataclass(frozen=True, eq=False)
class CommonEmbedding:
    """Two finite metric spaces embedded in a common ambient space.

    iota0 and iota1 are index maps into the ambient space; both must be
    distance preserving within METRIC_TOL.
    """

    ambient: FiniteMetricSpace
    space0: FiniteMetricSpace
    iota0: tuple[int, ...]
    space1: FiniteMetricSpace
    iota1: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "iota0", tuple(self.iota0))
        object.__setattr__(self, "iota1", tuple(self.iota1))
        for name, spc, iota in (
            ("iota0", self.space0, self.iota0),
            ("iota1", self.space1, self.iota1),
        ):
            if len(iota) != spc.n:
                raise DimensionMismatch(f"{name} does not cover its space")
            for i in iota:
                self.ambient._check_index(i)
            for a in range(spc.n):
                for b in range(a + 1, spc.n):
                    da = self.ambient.dist[iota[a], iota[b]]
                    db = spc.dist[a, b]
                    if abs(da - db) > METRIC_TOL and da != db:
                        raise NotDistancePreserving(
                            f"{name}: d({a},{b}) = {db} maps to {da}"
                        )


def nearest_neighbor_projection(
    space: FiniteMetricSpace, target: Sequence[int]
) -> tuple[int, ...]:
    """Map every point to its closest target point, ties to the lowest index."""
    tgt = sorted(set(target))
    if not tgt:
        raise EmptyTarget("projection target is empty")
    for t in tgt:
        space._check_index(t)
    out = []
    for x in range(space.n):
        out.append(min(tgt, key=lambda t: (space.dist[x, t], t)))
    return tuple(out)


@dataclass(frozen=True)
class ProjectionReport:
    ok: bool
    worst_ratio: float
    witness: tuple[int, int] | None  # (x in X1, y in X0)


def check_projection_inequality(
    embedding: CommonEmbedding, p0: Sequence[int] | None = None
) -> ProjectionReport:
    """Verify d(p0(i1 x), i0 y) <= 2 d(i1 x, i0 y) for all x, y.

    p0 defaults to the nearest-neighbor projection onto the image of iota0.
    The worst ratio of left to right side is reported; pairs with right side
    zero cannot violate the bound and are excluded from the ratio.
    """
    amb = embedding.ambient
    if p0 is None:
        p0 = nearest_neighbor_projection(amb, embedding.iota0)
    if len(p0) != amb.n:
        raise DimensionMismatch("projection does not cover the ambient space")
    ok = True
    worst = 0.0
    witness: tuple[int, int] | None = None
    for x in range(embedding.space1.n):
        px = p0[embedding.iota1[x]]
        for y in range(embedding.space0.n):
            lhs = float(amb.dist[px, embedding.iota0[y]])
            rhs = float(amb.dist[embedding.iota1[x], embedding.iota0[y]])
            if lhs > 2.0 * rhs:
                ok = False
                witness = (x, y)
            if rhs > 0.0 and lhs / rhs > worst:
                worst = lhs / rhs
                if ok:
                    witness = (x, y)
    return ProjectionReport(ok, worst, witness)


def gp_upper_bound(
    embedding: CommonEmbedding,
    mu0: DiscreteMeasure,
    mu1: DiscreteMeasure,
) -> float:
    """Prohorov distance of the pushforwards along one common embedding.

    An upper bound for the infimum over all embeddings.
    """
    nu0 = pushforward(mu0, embedding.iota0, embedding.ambient.n)
    nu1 = pushforward(mu1, embedding.iota1, embedding.ambient.n)
    return prohorov_distance(embedding.ambient, nu0, nu1)


# ---------------------------------------------------------------------------
# Interleaving verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionSlack:
    label: str
    slack: float
    witness: tuple | None  # (simplex, r) or (simplex, m, r) at the worst slack


@dataclass(frozen=True)
class InterleavingReport:
    conditions: tuple[ConditionSlack, ...]

    @property
    def ok(self) -> bool:
        return all(c.slack >= 0.0 for c in self.conditions)

    def worst(self) -> ConditionSlack:
        return min(self.conditions, key=lambda c: c.slack)


def _diff(rhs: float, lhs: float) -> float:
    s = rhs - lhs
    if math.isnan(s):  # inf on both sides: holds with no margin
        return 0.0
    return s


def _image(pi: Sequence[int], sigma: Simplex) -> Simplex:
    return tuple(sorted(set(pi[v] for v in sigma)))


def _check_map(pi: Sequence[int], size: int, target: int, name: str) -> None:
    if len(pi) != size:
        raise DimensionMismatch(f"{name} is not total on its universe")
    for v in pi:
        if not 0 <= v < target:
            raise IndexOutOfRange(f"{name} maps outside the target universe")


def _simplices(n: int, dim_cap: int):
    for size in range(1, min(dim_cap + 2, n + 1)):
        yield from combinations(range(n), size)


def _union(pi_a: Sequence[int], pi_b: Sequence[int], sigma: Simplex) -> Simplex:
    """sigma joined with its round trip: pi_a first, then pi_b."""
    return tuple(sorted(set(sigma) | set(_image(pi_b, _image(pi_a, sigma)))))


def _worst(
    label: str, sigmas: list[Simplex], rs: list[float], lhs: np.ndarray, rhs: np.ndarray
) -> ConditionSlack:
    """The least slack rhs - lhs over the (sigma, r) cells, at its first cell."""
    with np.errstate(invalid="ignore"):
        slack = rhs - lhs
    slack[np.isnan(slack)] = 0.0  # inf on both sides: holds with no margin
    if slack.size == 0:
        return ConditionSlack(label, math.inf, None)
    i, j = divmod(int(np.argmin(slack)), len(rs))  # argmin keeps the first minimum
    worst = float(slack[i, j])
    if worst == math.inf:
        return ConditionSlack(label, worst, None)
    return ConditionSlack(label, worst, (sigmas[i], rs[j]))


def _shifted(
    label: str,
    values: np.ndarray,
    f_dst: SetBifiltration,
    shift: ForwardShift,
    sigmas: list[Simplex],
    images: list[Simplex],
    rs: list[float],
) -> ConditionSlack:
    """The shift moves the source value at each (sigma, r) to a point
    (m2, r2); the condition asks f_dst(image of sigma, r2) >= m2.

    The shift is applied once to the whole table, elementwise; its results
    are broadcast, never recomputed, so a -0.0 stays -0.0.
    """
    with np.errstate(all="ignore"):  # inf - inf is nan, as in float arithmetic
        m2, r2 = shift(values, np.array(rs, dtype=float))
    lhs = np.broadcast_to(np.asarray(m2, dtype=float), values.shape)
    r2 = np.broadcast_to(np.asarray(r2, dtype=float), values.shape)
    return _worst(label, sigmas, rs, lhs, f_dst.table(images, r2))


def verify_set_interleaving_shift(
    f0: SetBifiltration,
    f1: SetBifiltration,
    pi1: Sequence[int],
    pi0: Sequence[int],
    alpha: ForwardShift,
    beta: ForwardShift,
    r_grid: Sequence[float],
    dim_cap: int = 3,
) -> InterleavingReport:
    """Check the four shift-interleaving conditions on a radius grid.

    alpha transports presence from f1 to f0 along pi0, beta from f0 to f1
    along pi1: with (m', r') = alpha(f1(sigma, r), r) the first condition is
    f0(pi0 sigma, r') >= m'. The union conditions apply the composites
    alpha-then-beta on the f1 side and beta-then-alpha on the f0 side (the
    composite order is a documented interpretation choice).
    """
    n0, n1 = f0.universe_size, f1.universe_size
    _check_map(pi1, n0, n1, "pi1")
    _check_map(pi0, n1, n0, "pi0")
    rs = sorted(set(float(r) for r in r_grid))
    sig0 = list(_simplices(n0, dim_cap))
    sig1 = list(_simplices(n1, dim_cap))
    ab = alpha.then(beta)  # alpha first, for the f1-side union condition
    ba = beta.then(alpha)
    v0 = f0.table(sig0, rs)
    v1 = f1.table(sig1, rs)
    conds = (
        _shifted(
            "shifted value under pi0",
            v1, f0, alpha, sig1, [_image(pi0, s) for s in sig1], rs,
        ),
        _shifted(
            "shifted value under pi1",
            v0, f1, beta, sig0, [_image(pi1, s) for s in sig0], rs,
        ),
        _shifted(
            "shifted union with pi1 pi0",
            v1, f1, ab, sig1, [_union(pi0, pi1, s) for s in sig1], rs,
        ),
        _shifted(
            "shifted union with pi0 pi1",
            v0, f0, ba, sig0, [_union(pi1, pi0, s) for s in sig0], rs,
        ),
    )
    return InterleavingReport(conds)


def _dominated(
    label: str, lower: BifilteredComplex, upper: BifilteredComplex, scale: float
) -> ConditionSlack:
    """Slack of lower_{m,r} <= upper_{m,scale r} at every (m, r), tested at
    every breakpoint of lower and every breakpoint of upper divided by scale."""
    slack = math.inf
    witness = None
    for sigma, stair in lower.entries.items():
        other = upper.staircase(sigma)
        rs = [s[0] for s in stair.steps]
        if other is not None:
            rs += [s[0] / scale for s in other.steps if s[0] / scale >= stair.start_r]
        for r in sorted(set(rs)):
            v = stair.value(r)
            if v is None:
                continue
            w = other.value(scale * r) if other is not None else None
            s = -math.inf if w is None else _diff(w, v)
            if s < slack:
                slack, witness = s, (sigma, v, r)
    return ConditionSlack(label, slack, witness)


def verify_sandwich(
    intrinsic: BifilteredComplex, ambient: BifilteredComplex
) -> InterleavingReport:
    """Check intrinsic_{m,r} <= ambient_{m,r} <= intrinsic_{m,2r} at every (m, r).

    Staircase domination is tested at every breakpoint of either side
    (halved breakpoints included for the doubled radius), which covers all
    (m, r) at once. Dividing and multiplying by 1.0 is exact, so both
    conditions share one loop.
    """
    if set(intrinsic.universe) != set(ambient.universe):
        raise DimensionMismatch("the two complexes have different universes")
    return InterleavingReport(
        (
            _dominated("intrinsic inside ambient", intrinsic, ambient, 1.0),
            _dominated("ambient inside doubled intrinsic", ambient, intrinsic, 2.0),
        )
    )
