"""Degree and distance-to-measure bifiltrations, Dowker duals, nerves.

The central pattern: a set bifiltration f assigns every simplex over a witness
universe X a nondecreasing step function of r, antitone under inclusion of
simplices. Its nerve keeps sigma at (m, r) when f(sigma, r) >= m, and a Dowker
dissimilarity Lambda: X x Y -> [0, inf] turns f into a dual complex on Y:
tau is present when some witness x has f({x}, r) >= m and tau inside the
Lambda-ball of x at r. Degree bifiltrations (f = mass of the common ball)
yield the degree Cech complexes; with the counting measure the m = 1 slice is
the usual Cech nerve.

The dual at (m, r) is the Dowker complex on Y of the relation Lambda <= r
restricted to the heavy witnesses, those with f({x}, r) >= m. By Dowker's
theorem its partner is the degree Cech nerve on X: sigma is present when
every witness in it is heavy and their balls share a point. The nerve of f
is only a subcomplex of that nerve (it asks the common ball itself to carry
mass m), so the nerve of f and the dual can differ in homology.

Every ball is read by one rule: y is in the ball of x at radius r when
Lambda(x, y) <= r, so every ball is empty at r = -inf and holds all of Y at
r = inf; a nan radius reads as the largest finite entry. Degree values come
in tables, one row per simplex and one column per radius: a point is in
sigma's common ball when the max over sigma of its Lambda entries passes
that rule, and the ball's weights are added in point order. f.value is one
cell of such a table. The dual reads Lambda directly, as an upper envelope
over witnesses.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain, combinations, islice
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import (
    BifilteredComplex,
    DiscreteMeasure,
    FiniteMetricSpace,
    Simplex,
    SimplicialComplex,
    Staircase,
    as_simplex,
)
from .errors import (
    DimensionMismatch,
    DowkerConditionViolation,
    EmptySupport,
    IndexOutOfRange,
    MonotonicityError,
    NonPositiveP,
)

__all__ = [
    "DowkerDissimilarity",
    "SetBifiltration",
    "DegreeBifiltration",
    "DistanceToMeasureBifiltration",
    "TableBifiltration",
    "DowkerBifiltrationPair",
    "nerve_bifiltration",
    "dowker_dual",
    "intrinsic_dc",
    "ambient_dc_finite",
    "rectangle_complex",
    "measure_bifiltration_points",
    "cover_nerve",
    "restrict_to_support",
]

_DUAL_BLOCK_ELEMENTS = 1 << 15  # simplices x radii x witnesses per dual block


def _mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def _row_masks(matrix: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as a bitmask: bit j is set when row[j] is."""
    packed = np.packbits(matrix, axis=1, bitorder="little")
    width = packed.shape[1]
    data = packed.tobytes()
    return [
        int.from_bytes(data[i * width : (i + 1) * width], "little")
        for i in range(len(packed))
    ]


def _mask_nerve(masks: Sequence[int], max_size: int) -> frozenset[Simplex]:
    """The index tuples of at most max_size masks whose AND is nonzero.

    Every face of such a tuple has a superset of its AND, so the set is
    downward closed.
    """
    live = [i for i, mk in enumerate(masks) if mk]
    out = []
    for size in range(1, min(max_size, len(live)) + 1):
        for combo in combinations(live, size):
            common = -1
            for i in combo:
                common &= masks[i]
                if not common:
                    break
            if common:
                out.append(combo)
    return frozenset(out)


def _radius_rows(count: int, rs: Sequence | np.ndarray) -> np.ndarray:
    """rs as one row of radii per simplex: a single grid is shared by all."""
    radii = np.asarray(rs, dtype=float)
    if radii.ndim == 1:
        return np.broadcast_to(radii, (count, radii.size))
    if radii.ndim != 2 or radii.shape[0] != count:
        raise DimensionMismatch("radii must be one grid or one row per simplex")
    return radii


@dataclass(frozen=True, eq=False)
class DowkerDissimilarity:
    """A nonnegative |X| x |Y| dissimilarity matrix, entries may be inf.

    X indexes witnesses, Y indexes the vertex universe of dual complexes.
    The Lambda-ball of x at radius r holds the points y with Lambda(x, y) <= r;
    a nan radius reads as the last level (the largest finite entry), as
    Staircase.value reads nan past every corner.
    """

    matrix: np.ndarray
    _levels: tuple[float, ...] = field(init=False, repr=False)
    _padded: np.ndarray = field(init=False, repr=False)  # matrix, then a -inf row

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise DimensionMismatch("dissimilarity matrix must be 2d")
        if np.any(m < 0) or np.any(np.isnan(m)):
            raise DimensionMismatch("dissimilarity entries must be in [0, inf]")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        # a set keeps the first of equal entries: of -0.0 and 0.0, the first in row order
        finite = sorted(set(m[np.isfinite(m)].tolist()))
        object.__setattr__(self, "_levels", tuple(finite))
        padded = np.vstack((m, np.full((1, m.shape[1]), -math.inf)))
        object.__setattr__(self, "_padded", padded)

    @property
    def nx(self) -> int:
        return self.matrix.shape[0]

    @property
    def ny(self) -> int:
        return self.matrix.shape[1]

    @classmethod
    def from_metric(
        cls,
        space: FiniteMetricSpace,
        rows: Sequence[int] | None = None,
        cols: Sequence[int] | None = None,
    ) -> "DowkerDissimilarity":
        """Restrict a metric to X = rows, Y = cols (defaults: all points)."""
        r = list(rows) if rows is not None else list(range(space.n))
        c = list(cols) if cols is not None else list(range(space.n))
        for i in r + c:
            space._check_index(i)
        return cls(space.dist[np.ix_(r, c)])

    def r_values(self) -> tuple[float, ...]:
        """Sorted distinct finite entries; the radii where balls can change."""
        return self._levels

    def _thresholds(self, rs: np.ndarray) -> np.ndarray:
        """The ball threshold of every radius in an array: the radius itself,
        and the last level (-inf when there is none) for a nan radius."""
        last = self._levels[-1] if self._levels else -math.inf
        return np.where(np.isnan(rs), last, rs)

    def _related(self, r: float) -> np.ndarray:
        """related[x, y] when y is in the ball of x at radius r."""
        return self.matrix <= self._thresholds(np.array(float(r)))

    def _enter(self, sigmas: Sequence[Sequence[int]]) -> np.ndarray:
        """enter[i, y] is the max of Lambda(x, y) over x in sigmas[i].

        y is in the common ball of sigmas[i] at r when enter[i, y] is at most
        the threshold of r (see _thresholds); the empty simplex has enter
        -inf, so its ball is all of Y.
        """
        for sigma in sigmas:
            for x in sigma:
                if not 0 <= x < self.nx:
                    raise IndexOutOfRange(f"witness index {x} not in [0, {self.nx})")
        width = max(map(len, sigmas), default=0)
        # short simplices are padded with the -inf row, which never wins the max
        idx = [list(s) + [self.nx] * (width - len(s)) for s in sigmas]
        rows = np.array(idx, dtype=np.intp).reshape(len(sigmas), width)
        return self._padded[rows].max(axis=1, initial=-math.inf)


class SetBifiltration:
    """Interface for evaluable set bifiltrations f(sigma, r).

    Implementations must be antitone in sigma, nondecreasing and
    right-continuous in r, and constant between consecutive r_breakpoints().
    """

    universe_size: int

    def value(self, sigma: Iterable[int], r: float) -> float:
        raise NotImplementedError

    def table(
        self, sigmas: Iterable[Iterable[int]], rs: Sequence | np.ndarray
    ) -> np.ndarray:
        """f(sigma, r) as a float array with one row per simplex of sigmas.

        rs is one radius grid shared by every row, or one row of radii per
        simplex. This default asks value() for every cell.
        """
        sigmas = [tuple(s) for s in sigmas]
        radii = _radius_rows(len(sigmas), rs)
        out = np.empty(radii.shape)
        for i, row in enumerate(radii.tolist()):
            out[i] = [self.value(sigmas[i], r) for r in row]
        return out

    def r_breakpoints(self) -> tuple[float, ...]:
        raise NotImplementedError


class DegreeBifiltration(SetBifiltration):
    """f(sigma, r) = mass of the common Lambda-ball of sigma at radius r."""

    def __init__(self, dowker: DowkerDissimilarity, measure: DiscreteMeasure) -> None:
        if len(measure) != dowker.ny:
            raise DimensionMismatch(
                f"{len(measure)} weights for {dowker.ny} ball points"
            )
        self.dowker = dowker
        self.measure = measure
        self.universe_size = dowker.nx
        # + 0.0 turns a -0.0 weight into 0.0, which a sum from 0.0 cannot tell apart
        self._weights = np.array(measure.weights) + 0.0

    def table(
        self, sigmas: Iterable[Iterable[int]], rs: Sequence | np.ndarray
    ) -> np.ndarray:
        """Masses of the common balls, one row per simplex; see SetBifiltration.

        Each mass adds the weights inside the ball in point order, from 0.0,
        so it rounds like a plain left-to-right sum.
        """
        sigmas = [tuple(s) for s in sigmas]
        radii = _radius_rows(len(sigmas), rs)
        lam = self.dowker
        thresholds = lam._thresholds(radii)
        out = np.empty(radii.shape)
        width = max(map(len, sigmas), default=0)
        block = max(1, _DUAL_BLOCK_ELEMENTS // (lam.ny * max(width, radii.shape[1], 1)))
        for lo in range(0, len(sigmas), block):
            enter = lam._enter(sigmas[lo : lo + block])
            inside = enter[:, None, :] <= thresholds[lo : lo + block, :, None]
            # accumulate adds one point at a time, where a sum would pair them
            masses = np.add.accumulate(np.where(inside, self._weights, 0.0), axis=2)
            out[lo : lo + block] = masses[..., -1]
        return out

    def value(self, sigma: Iterable[int], r: float) -> float:
        return float(self.table([sigma], [r])[0, 0])

    def r_breakpoints(self) -> tuple[float, ...]:
        return self.dowker.r_values()


class DistanceToMeasureBifiltration(SetBifiltration):
    """f_p(sigma, r) = (sum over the ball of min_x Lambda(x, y)^p * w_y)^(1/p).

    The convention 0^p = 0 applies; entries at Lambda = inf only contribute at
    r = inf, where the value itself is inf.
    """

    def __init__(
        self, dowker: DowkerDissimilarity, measure: DiscreteMeasure, p: float
    ) -> None:
        if len(measure) != dowker.ny:
            raise DimensionMismatch(
                f"{len(measure)} weights for {dowker.ny} ball points"
            )
        if not p > 0:
            raise NonPositiveP(f"exponent p must be > 0, got {p}")
        self.dowker = dowker
        self.measure = measure
        self.p = float(p)
        self.universe_size = dowker.nx

    def value(self, sigma: Iterable[int], r: float) -> float:
        sig = as_simplex(sigma)
        lam = self.dowker
        inside = lam._enter([sig])[0] <= lam._thresholds(np.array(float(r)))
        total = 0.0
        for y in np.flatnonzero(inside).tolist():
            best = min(float(lam.matrix[x, y]) for x in sig)
            w = self.measure.weights[y]
            if w == 0.0:
                continue
            if math.isinf(best):
                return math.inf
            if best > 0.0:
                total += (best ** self.p) * w
        return total ** (1.0 / self.p)

    def r_breakpoints(self) -> tuple[float, ...]:
        return self.dowker.r_values()


class TableBifiltration(SetBifiltration):
    """A user-supplied bifiltration tabulated on an explicit r grid.

    ``table`` maps simplices (over range(universe_size)) to value tuples
    aligned with ``r_grid``; the grid must start at 0 so every radius is
    covered. Missing simplices evaluate to 0. Monotonicity in both arguments
    is validated on construction.
    """

    def __init__(
        self,
        universe_size: int,
        r_grid: Sequence[float],
        table: Mapping[Iterable[int], Sequence[float]],
    ) -> None:
        grid = tuple(float(r) for r in r_grid)
        # strict comparisons also turn away a nan grid point
        if not grid or grid[0] != 0.0 or not all(a < b for a, b in zip(grid, grid[1:])):
            raise MonotonicityError("r_grid must be sorted, distinct, starting at 0")
        fixed: dict[Simplex, tuple[float, ...]] = {}
        for sig, vals in table.items():
            s = as_simplex(sig)
            v = tuple(float(x) for x in vals)
            if len(v) != len(grid):
                raise DimensionMismatch(f"values for {s} do not match the r grid")
            if not all(x >= 0 for x in v):
                raise MonotonicityError(f"negative or nan value for {s}")
            if any(b < a for a, b in zip(v, v[1:])):
                raise MonotonicityError(f"values for {s} decrease along r")
            fixed[s] = v
        self.universe_size = int(universe_size)
        self._grid = grid
        self._table = fixed
        for s, v in fixed.items():
            if max(s) >= self.universe_size:
                raise IndexOutOfRange(f"simplex {s} outside the universe")
            if len(s) > 1:
                for face in combinations(s, len(s) - 1):
                    fv = fixed.get(face, (0.0,) * len(grid))
                    if any(a > b for a, b in zip(v, fv)):
                        raise MonotonicityError(
                            f"face {face} of {s} has smaller values"
                        )

    def value(self, sigma: Iterable[int], r: float) -> float:
        s = as_simplex(sigma)
        vals = self._table.get(s)
        if vals is None:
            return 0.0
        if r < 0:
            return 0.0
        return vals[bisect_right(self._grid, r) - 1]

    def r_breakpoints(self) -> tuple[float, ...]:
        return self._grid


@dataclass(frozen=True, eq=False)
class DowkerBifiltrationPair:
    """A dissimilarity together with a compatible set bifiltration.

    Compatibility (checked up to dim_cap on the critical grid): whenever
    f(sigma, r) > 0 the common Lambda-ball of sigma at r is nonempty. Degree
    and distance-to-measure bifiltrations satisfy this structurally; user
    tables are rejected when they violate it.
    """

    dowker: DowkerDissimilarity
    f: SetBifiltration
    dim_cap: int = 3

    def __post_init__(self) -> None:
        if self.f.universe_size != self.dowker.nx:
            raise DimensionMismatch("f universe does not match the witness set")
        lam = self.dowker
        grid = sorted(set((0.0,) + lam.r_values() + self.f.r_breakpoints()))
        thresholds = lam._thresholds(np.array(grid))
        sizes = range(1, min(self.dim_cap + 2, lam.nx + 1))
        simplices = chain.from_iterable(combinations(range(lam.nx), k) for k in sizes)
        block = max(1, _DUAL_BLOCK_ELEMENTS // (len(grid) * max(lam.ny, 1)))
        while sigmas := list(islice(simplices, block)):
            inside = lam._enter(sigmas)[:, :, None] <= thresholds
            empty = ~inside.any(axis=1)
            bad = np.argwhere((self.f.table(sigmas, grid) > 0.0) & empty)
            if bad.size:
                i, j = bad[0]
                raise DowkerConditionViolation(
                    f"f{sigmas[i]} > 0 at r={grid[j]} but the ball is empty"
                )


# ---------------------------------------------------------------------------
# Complex builders
# ---------------------------------------------------------------------------


def nerve_bifiltration(
    f: SetBifiltration, dim_cap: int = 3, universe: Sequence[int] | None = None
) -> BifilteredComplex:
    """Bifiltered nerve of f: sigma present at (m, r) iff f(sigma, r) >= m.

    Every simplex is present from r = 0 at every m <= f(sigma, 0); in
    particular at m <= 0 the nerve is the full dim_cap skeleton.
    """
    n = f.universe_size
    ids = tuple(universe) if universe is not None else tuple(range(n))
    if len(ids) != n:
        raise DimensionMismatch("universe labels do not match f's universe size")
    if n > 20:
        warnings.warn(f"materializing a nerve over {n} vertices", stacklevel=2)
    rs = sorted(set((0.0,) + tuple(f.r_breakpoints())))
    entries: dict[Simplex, Staircase] = {}
    for size in range(1, min(dim_cap + 2, n + 1)):
        sigmas = list(combinations(range(n), size))
        for sigma, vals in zip(sigmas, f.table(sigmas, rs).tolist()):
            stair = Staircase.from_samples(rs, vals)
            assert stair is not None  # values are >= 0, never absent
            entries[tuple(ids[i] for i in sigma)] = stair
    return BifilteredComplex(ids, entries, dim_cap)


def dowker_dual(
    dowker: DowkerDissimilarity,
    f: SetBifiltration,
    dim_cap: int = 3,
    y_ids: Sequence[int] | None = None,
) -> BifilteredComplex:
    """Dual complex on Y: tau enters at (m, r) when some witness x satisfies
    f({x}, r) >= m and tau lies in the Lambda-ball of x at radius r.

    tau's staircase is the upper envelope of the offers f({x}, r), each made
    from r = max over y in tau of Lambda(x, y) on; its corners are the first
    offer and each strict rise, witness values bitwise. Each slice is the
    Dowker complex of the relation Lambda <= r on the heavy witnesses, so it
    is homotopy equivalent to the degree Cech nerve (heavy witnesses whose
    balls share a point), not to the slice of ``nerve_bifiltration(f)``.
    Restricting Y to a subset on both sides commutes with that equivalence
    (functorial Dowker theorem).
    """
    if f.universe_size != dowker.nx:
        raise DimensionMismatch("f universe does not match the witness set")
    ny = dowker.ny
    ids = tuple(y_ids) if y_ids is not None else tuple(range(ny))
    if len(ids) != ny:
        raise DimensionMismatch("y_ids do not match the dual universe size")
    if ny > 20:
        warnings.warn(f"materializing a dual over {ny} vertices", stacklevel=2)
    nx = dowker.nx
    if nx == 0:  # no witness, so no simplex ever enters
        return BifilteredComplex(ids, {}, dim_cap)
    rs = np.array(sorted(set((0.0,) + dowker.r_values() + tuple(f.r_breakpoints()))))
    values = f.table([(x,) for x in range(nx)], rs).T
    entries: dict[Simplex, Staircase] = {}
    for size in range(1, min(dim_cap + 2, ny + 1)):
        taus = np.array(list(combinations(range(ny), size)))
        blocks = math.ceil(len(taus) * values.size / _DUAL_BLOCK_ELEMENTS)
        for tau_block in np.array_split(taus, blocks):
            enter = dowker.matrix[:, tau_block].max(axis=2).T
            offer = np.where(enter[:, None, :] <= rs[:, None], values, -np.inf)
            # argmax takes the first witness among equal offers (-0.0 and 0.0)
            best = np.take_along_axis(offer, offer.argmax(2)[..., None], 2)[..., 0]
            if (best[:, 1:] < best[:, :-1]).any():  # so the corners rise strictly
                raise MonotonicityError("witness values decrease along r")
            rises = best[:, 1:] > best[:, :-1]
            corner = np.concatenate((best[:, :1] > -np.inf, rises), axis=1)
            # the corners of all simplices in one row-major list, cut per simplex
            at_tau, at_r = np.nonzero(corner)
            steps = list(zip(rs[at_r].tolist(), best[at_tau, at_r].tolist()))
            counts = np.bincount(at_tau, minlength=len(tau_block)).tolist()
            lo = 0
            for tau, count in zip(tau_block.tolist(), counts):
                if count:
                    stair = Staircase._trusted(tuple(steps[lo : lo + count]))
                    entries[tuple(ids[i] for i in tau)] = stair
                    lo += count
    return BifilteredComplex(ids, entries, dim_cap)


def intrinsic_dc(
    space: FiniteMetricSpace, measure: DiscreteMeasure, dim_cap: int = 3
) -> BifilteredComplex:
    """Degree Cech bifiltration with witnesses restricted to the support."""
    if len(measure) != space.n:
        raise DimensionMismatch("measure does not align with the space")
    sup = list(measure.support)
    if not sup:
        raise EmptySupport("measure has empty support")
    lam = DowkerDissimilarity.from_metric(space, rows=sup, cols=sup)
    f = DegreeBifiltration(lam, measure.restrict(sup))
    return dowker_dual(lam, f, dim_cap, y_ids=sup)


def ambient_dc_finite(
    space: FiniteMetricSpace, measure: DiscreteMeasure, dim_cap: int = 3
) -> BifilteredComplex:
    """Degree Cech bifiltration with witnesses ranging over the whole space.

    Vertices live on the support only; any point of the space may witness.
    """
    if len(measure) != space.n:
        raise DimensionMismatch("measure does not align with the space")
    sup = list(measure.support)
    if not sup:
        raise EmptySupport("measure has empty support")
    lam_ms = DowkerDissimilarity.from_metric(space, cols=sup)
    lam_mm = DowkerDissimilarity.from_metric(space)
    f = DegreeBifiltration(lam_mm, measure)
    return dowker_dual(lam_ms, f, dim_cap, y_ids=sup)


def rectangle_complex(
    dowker: DowkerDissimilarity,
    f: SetBifiltration,
    m: float,
    r: float,
    dim_cap: int = 3,
) -> SimplicialComplex:
    """The correspondence complex at (m, r) on the vertex set X x Y.

    A set U of pairs is a simplex when its X projection satisfies
    f(proj_X U, r) >= m, its Y projection lies in the dual complex at (m, r),
    and every pair (x, y) in U is related: y lies in the ball of x at r.
    Vertices are flattened as x * |Y| + y.

    This is not Dowker's rectangle complex: only the pairs in U must be
    related, not every pair of proj_X U x proj_Y U, so its homology can
    differ from both the nerve of f and the dual.

    The complex is downward closed, so every simplex grows from its first
    pair by adding pairs of larger index: the X side only shrinks f's
    argument (f is antitone), the Y side stays in the same witness's ball.
    An X projection must consist of heavy witnesses (f({x}, r) >= m), and a
    Y projection lies in the dual when some heavy witness's ball holds it.
    """
    nx, ny = dowker.nx, dowker.ny
    rs = [r]
    heavy = np.flatnonzero(f.table([(x,) for x in range(nx)], rs)[:, 0] >= m).tolist()
    subsets = [
        sigma
        for size in range(2, min(dim_cap + 1, len(heavy)) + 1)
        for sigma in combinations(heavy, size)
    ]
    passed = f.table(subsets, rs)[:, 0] >= m
    x_ok = {1 << x for x in heavy} | {_mask_of(s) for s, ok in zip(subsets, passed) if ok}
    related = dowker._related(r)
    # witnesses[y]: a bitmask over heavy of the witnesses whose ball holds y
    witnesses = _row_masks(related[heavy].T)
    # the pairs that are vertices, as (vertex id, X mask, witness mask)
    cells = [
        (x * ny + y, 1 << x, witnesses[y])
        for x, y in np.argwhere(related).tolist()
        if (1 << x) in x_ok and witnesses[y]
    ]
    # each simplex with the index of its last pair and its two masks
    grown = [((v,), i, xm, wm) for i, (v, xm, wm) in enumerate(cells)]
    simplices: list[Simplex] = []
    for size in range(1, dim_cap + 2):
        simplices.extend(sigma for sigma, _, _, _ in grown)
        if size == dim_cap + 1:
            break
        longer = []
        for sigma, i, xm, wm in grown:
            for j in range(i + 1, len(cells)):
                v, xj, wj = cells[j]
                if wm & wj and (xm | xj) in x_ok:
                    longer.append((sigma + (v,), j, xm | xj, wm & wj))
        grown = longer
    return SimplicialComplex._trusted(tuple(range(nx * ny)), frozenset(simplices))


def _balls(
    space: FiniteMetricSpace, measure: DiscreteMeasure, r: float
) -> tuple[np.ndarray, np.ndarray]:
    """inside[c, j] when dist(c, j) <= r, and the mass of each closed r-ball,
    its weights added in point order from 0.0 as the degree tables do."""
    if len(measure) != space.n:
        raise DimensionMismatch("measure does not align with the space")
    inside = space.dist <= r
    weighted = np.where(inside, np.array(measure.weights), 0.0)
    return inside, np.add.accumulate(weighted, axis=1)[:, -1]


def measure_bifiltration_points(
    space: FiniteMetricSpace, measure: DiscreteMeasure, m: float, r: float
) -> frozenset[int]:
    """Points whose closed r-ball carries mass at least m."""
    _, mass = _balls(space, measure, r)
    return frozenset(np.flatnonzero(mass >= m).tolist())


def cover_nerve(
    space: FiniteMetricSpace,
    measure: DiscreteMeasure,
    m: float,
    r: float,
    dim_cap: int = 3,
) -> SimplicialComplex:
    """Nerve of the cover of the dense region by balls centered in its offset.

    Vertices are the points of offset(dense region, r); tau spans a simplex
    when the common ball of tau still meets the dense region.
    """
    inside, mass = _balls(space, measure, r)
    # each ball's part of the dense region, as a bitmask over the points
    masks = _row_masks(inside & (mass >= m))
    simplices = _mask_nerve(masks, dim_cap + 1)
    return SimplicialComplex._trusted(tuple(range(space.n)), simplices)


def restrict_to_support(
    K: BifilteredComplex, keep: Iterable[int]
) -> BifilteredComplex:
    """Restriction of a bifiltered complex to a vertex subset: the entries
    whose vertices are all kept.

    In a downward closed complex every face dominates its cofaces, so this
    is also the pointwise best over the entries that meet the kept set in
    sigma.
    """
    kept = frozenset(keep)
    entries = {s: st for s, st in K.entries.items() if kept.issuperset(s)}
    universe = tuple(v for v in K.universe if v in kept)
    return BifilteredComplex(universe, entries, K.dim_cap)
