"""Core model: finite metric measure data and bifiltered complexes.

A bifiltered complex is indexed by a density threshold m (a simplex is present
when its staircase value is at least m) and a radius r (staircase values are
nondecreasing, right-continuous step functions of r). Presence regions are
therefore upward closed when m decreases and r increases, which matches the
poset R^op x [0, inf] used throughout.

Simplices are plain sorted tuples of vertex ids. "Absent" is distinct from
"present with value 0": a simplex that is never witnessed simply has no entry,
and below its first breakpoint an entry's value() is None.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import combinations
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    AsymmetryError,
    CoordMismatch,
    DimensionMismatch,
    EmptySimplex,
    EmptySupport,
    IndexOutOfRange,
    InvalidComplex,
    InvalidStaircase,
    MetricError,
    NegativeDistanceError,
    NonMonotonePath,
    TriangleViolation,
)

__all__ = [
    "FiniteMetricSpace",
    "DiscreteMeasure",
    "SimplicialComplex",
    "Staircase",
    "BifilteredComplex",
    "ForwardShift",
    "as_simplex",
    "validate_metric",
    "grid_with_midpoints",
]

METRIC_TOL = 1e-9

Simplex = tuple[int, ...]


def as_simplex(vertices: Iterable[int]) -> Simplex:
    """Normalize an iterable of vertex ids to a sorted, duplicate-free tuple."""
    out = tuple(sorted(set(int(v) for v in vertices)))
    if not out:
        raise EmptySimplex("a simplex needs at least one vertex")
    return out


# ---------------------------------------------------------------------------
# Metric spaces and measures
# ---------------------------------------------------------------------------


def _left_sum(values: Iterable[float]) -> float:
    """The values added left to right from 0.0, as the degree tables add
    masses; sum() compensates from Python 3.12 on, so it is not used."""
    total = 0.0
    for x in values:
        total += x
    return total


@dataclass(frozen=True, eq=False)
class FiniteMetricSpace:
    """A finite metric space given by an explicit distance matrix.

    ``coords`` is optional planar (or higher-dimensional) coordinate data; it
    is required only by the planar constructions. ``labels`` are display names
    carried through to CLI output. Instances are immutable; the arrays are
    marked read-only on construction.
    """

    dist: np.ndarray
    coords: np.ndarray | None = None
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        d = np.asarray(self.dist, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise DimensionMismatch(f"distance matrix must be square, got {d.shape}")
        d.setflags(write=False)
        object.__setattr__(self, "dist", d)
        if self.coords is not None:
            c = np.asarray(self.coords, dtype=float)
            if c.ndim != 2 or c.shape[0] != d.shape[0]:
                raise DimensionMismatch(
                    f"coords shape {c.shape} does not match {d.shape[0]} points"
                )
            c.setflags(write=False)
            object.__setattr__(self, "coords", c)
        if self.labels is not None and len(self.labels) != d.shape[0]:
            raise DimensionMismatch("labels do not match the number of points")

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    @classmethod
    def from_points(
        cls, coords: Sequence[Sequence[float]], labels: Sequence[str] | None = None
    ) -> "FiniteMetricSpace":
        """Build a Euclidean space from coordinates."""
        c = np.asarray(coords, dtype=float)
        if c.ndim != 2:
            raise DimensionMismatch("coords must be a 2d array of points")
        bad = np.flatnonzero(~np.isfinite(c).all(axis=1))
        if bad.size:
            i = int(bad[0])
            raise MetricError(f"point {i} has a non-finite coordinate: {c[i].tolist()}")
        if c.shape[1] == 2:
            # math.hypot everywhere: planar witness radii are derived from the
            # same call, so matrix and geometry agree to the last bit
            n = c.shape[0]
            d = np.zeros((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    d[i, j] = d[j, i] = math.hypot(
                        c[i, 0] - c[j, 0], c[i, 1] - c[j, 1]
                    )
        else:
            diff = c[:, None, :] - c[None, :, :]
            d = np.sqrt((diff * diff).sum(axis=-1))
        return cls(d, coords=c, labels=tuple(labels) if labels is not None else None)

    @classmethod
    def from_matrix(
        cls,
        dist: Sequence[Sequence[float]],
        labels: Sequence[str] | None = None,
    ) -> "FiniteMetricSpace":
        """A validated metric from a distance matrix (see validate_metric)."""
        space = cls(np.asarray(dist, dtype=float),
                    labels=tuple(labels) if labels is not None else None)
        validate_metric(space)
        return space

    def restrict(self, ids: Sequence[int]) -> "FiniteMetricSpace":
        """Submetric on the given point ids (order preserved)."""
        idx = list(ids)
        for i in idx:
            self._check_index(i)
        sub = self.dist[np.ix_(idx, idx)]
        coords = self.coords[idx] if self.coords is not None else None
        labels = (
            tuple(self.labels[i] for i in idx) if self.labels is not None else None
        )
        return FiniteMetricSpace(sub, coords=coords, labels=labels)

    def d(self, i: int, j: int) -> float:
        return float(self.dist[i, j])

    def diameter(self) -> float:
        finite = self.dist[np.isfinite(self.dist)]
        return float(finite.max()) if finite.size else 0.0

    def _check_index(self, x: int) -> None:
        if not 0 <= x < self.n:
            raise IndexOutOfRange(f"point index {x} not in [0, {self.n})")


def validate_metric(space: FiniteMetricSpace) -> None:
    """Check symmetry, nonnegativity, zero diagonal and triangle inequality.

    Symmetry, the triangle inequality and the coordinates are held to
    METRIC_TOL. Raises the first violation found, with a witness. Distances
    may be inf (disconnected spaces); a triangle check with an infinite
    right-hand side is vacuous.
    """
    d = space.dist
    n = space.n
    for i in range(n):
        if d[i, i] != 0.0:
            raise NegativeDistanceError(f"d({i},{i}) = {d[i, i]} is not zero")
        for j in range(i + 1, n):
            if d[i, j] < 0 or d[j, i] < 0:
                raise NegativeDistanceError(f"d({i},{j}) is negative")
            if not math.isclose(d[i, j], d[j, i], rel_tol=0.0, abs_tol=METRIC_TOL):
                if not (math.isinf(d[i, j]) and math.isinf(d[j, i])):
                    raise AsymmetryError(
                        f"d({i},{j}) = {d[i, j]} but d({j},{i}) = {d[j, i]}"
                    )
    for k in range(n):
        # an infinite right-hand side is never exceeded, so it needs no skip
        rhs = d[:, k, None] + d[k]
        bad = np.flatnonzero(d > rhs + METRIC_TOL)
        if bad.size:  # the first (i, j) in row order, as a loop over i, j meets it
            i, j = divmod(int(bad[0]), n)
            raise TriangleViolation(i, k, j, float(d[i, j]), float(rhs[i, j]))
    if space.coords is not None:
        c = space.coords
        for i in range(n):
            for j in range(n):
                dd = math.hypot(*(c[i] - c[j])) if c.shape[1] == 2 else float(
                    np.linalg.norm(c[i] - c[j])
                )
                if abs(dd - d[i, j]) > METRIC_TOL:
                    raise CoordMismatch(
                        f"coords give d({i},{j}) = {dd}, matrix says {d[i, j]}"
                    )


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite nonnegative weights aligned with a FiniteMetricSpace.

    The support is the set of indices with strictly positive weight and must
    be nonempty. Total mass is not normalized; arbitrary finite measures are
    allowed.
    """

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        w = tuple(float(x) for x in self.weights)
        for i, x in enumerate(w):
            if not 0 <= x < math.inf:
                raise EmptySupport(f"weight {i} is {x}; weights must be finite and >= 0")
        if not any(x > 0 for x in w):
            raise EmptySupport("measure has empty support")
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return len(self.weights)

    @classmethod
    def counting(cls, n: int) -> "DiscreteMeasure":
        return cls((1.0,) * n)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, x in enumerate(self.weights) if x > 0)

    @property
    def total(self) -> float:
        return _left_sum(self.weights)

    def mass(self, indices: Iterable[int]) -> float:
        return _left_sum(self.weights[i] for i in indices)

    def restrict(self, ids: Sequence[int]) -> "DiscreteMeasure":
        """Reindexed weights on the given ids (support must stay nonempty)."""
        return DiscreteMeasure(tuple(self.weights[i] for i in ids))


# ---------------------------------------------------------------------------
# Simplicial complexes
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SimplicialComplex:
    """A finite simplicial complex over an integer vertex universe.

    Universe members that appear in no simplex are ghost vertices; they are
    legal and carry no homology. The simplex set must be downward closed.
    """

    universe: tuple[int, ...]
    simplices: frozenset[Simplex]

    def __post_init__(self) -> None:
        object.__setattr__(self, "universe", tuple(sorted(set(self.universe))))
        object.__setattr__(self, "simplices", frozenset(self.simplices))
        uni = set(self.universe)
        for s in self.simplices:
            if not s:
                raise EmptySimplex("the empty simplex is not stored explicitly")
            if list(s) != sorted(set(s)):
                raise InvalidComplex(f"simplex {s} is not strictly sorted")
            if not uni.issuperset(s):
                raise InvalidComplex(f"simplex {s} leaves the universe")
            if len(s) > 1:
                for face in combinations(s, len(s) - 1):
                    if face not in self.simplices:
                        raise InvalidComplex(
                            f"missing face {face} of {s}: not downward closed"
                        )

    @classmethod
    def _trusted(
        cls, universe: tuple[int, ...], simplices: frozenset[Simplex]
    ) -> "SimplicialComplex":
        """A complex from a sorted universe and sorted simplices that a builder
        made downward closed by construction; nothing is checked again."""
        out = object.__new__(cls)
        object.__setattr__(out, "universe", universe)
        object.__setattr__(out, "simplices", simplices)
        return out

    def __len__(self) -> int:
        return len(self.simplices)

    def __contains__(self, sigma: object) -> bool:
        return sigma in self.simplices

    def __iter__(self) -> Iterator[Simplex]:
        return iter(self.sorted_simplices())

    @property
    def dim(self) -> int:
        return max((len(s) - 1 for s in self.simplices), default=-1)

    def vertices(self) -> tuple[int, ...]:
        """Vertices that are actually present (not ghosts)."""
        return tuple(sorted(s[0] for s in self.simplices if len(s) == 1))

    def sorted_simplices(self) -> list[Simplex]:
        """Deterministic order: by dimension, then lexicographic."""
        out = sorted(self.simplices)
        out.sort(key=len)  # stable, so lexicographic within each dimension
        return out

    def is_subcomplex_of(self, other: "SimplicialComplex") -> bool:
        return self.simplices.issubset(other.simplices)


# ---------------------------------------------------------------------------
# Staircases and bifiltered complexes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Staircase:
    """Right-continuous nondecreasing step function of the radius.

    ``steps`` is a nonempty tuple of (r_k, m_k) pairs, strictly increasing in
    both coordinates. Below steps[0][0] the simplex is absent and value()
    returns None; from r_k (inclusive) the value is m_k. Strict increase in m
    means steps record changes only.
    """

    steps: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        st = tuple((float(r), float(m)) for r, m in self.steps)
        if not st:
            raise InvalidStaircase("a staircase needs at least one step")
        for (r0, m0), (r1, m1) in zip(st, st[1:]):
            if not (r0 < r1 and m0 < m1):
                raise InvalidStaircase(
                    f"steps must increase strictly in r and m: {(r0, m0)} then {(r1, m1)}"
                )
        object.__setattr__(self, "steps", st)

    @classmethod
    def _trusted(cls, steps: tuple[tuple[float, float], ...]) -> "Staircase":
        """A staircase from float steps that a builder made rise strictly in
        both coordinates by construction; nothing is checked again."""
        out = object.__new__(cls)
        object.__setattr__(out, "steps", steps)
        return out

    @classmethod
    def from_samples(
        cls, rs: Sequence[float], values: Sequence[float | None]
    ) -> "Staircase | None":
        """Compress sampled values on a sorted grid to a staircase.

        Values must be None (absent) on a prefix and nondecreasing afterwards;
        returns None when every sample is absent.
        """
        steps: list[tuple[float, float]] = []
        last: float | None = None
        for r, v in zip(rs, values):
            if v is None:
                if last is not None:
                    raise InvalidStaircase("absence after presence is not allowed")
                continue
            if last is None:
                steps.append((float(r), float(v)))
                last = float(v)
            elif v > last:
                steps.append((float(r), float(v)))
                last = float(v)
            elif v < last:
                raise InvalidStaircase(f"value dropped from {last} to {v} at r={r}")
        if not steps:
            return None
        return cls(tuple(steps))

    @property
    def start_r(self) -> float:
        return self.steps[0][0]

    def value(self, r: float) -> float | None:
        """Value at radius r, or None if the simplex is absent there."""
        if r < self.steps[0][0]:
            return None
        idx = bisect_right(self.steps, r, key=itemgetter(0)) - 1
        return self.steps[idx][1]

    def present(self, m: float, r: float) -> bool:
        v = self.value(r)
        return v is not None and v >= m


@dataclass(frozen=True, eq=False)
class BifilteredComplex:
    """A bifiltered simplicial complex stored as staircases per simplex.

    ``entries`` maps each simplex that is ever present to its staircase;
    simplices that never appear have no entry. ``universe`` is the vertex id
    pool (ghost vertices allowed). Downward closure here means every face of
    an entry is an entry whose staircase dominates it.
    """

    universe: tuple[int, ...]
    entries: Mapping[Simplex, Staircase]
    dim_cap: int = 3

    def __post_init__(self) -> None:
        object.__setattr__(self, "universe", tuple(sorted(set(self.universe))))
        object.__setattr__(self, "entries", dict(self.entries))

    def staircase(self, sigma: Iterable[int]) -> Staircase | None:
        return self.entries.get(as_simplex(sigma))

    def value(self, sigma: Iterable[int], r: float) -> float | None:
        st = self.staircase(sigma)
        return None if st is None else st.value(r)

    def present(self, sigma: Iterable[int], m: float, r: float) -> bool:
        st = self.staircase(sigma)
        return st is not None and st.present(m, r)

    def complex_at(self, m: float, r: float) -> SimplicialComplex:
        """Slice at one parameter pair; m = -inf keeps everything witnessed."""
        simp = frozenset(
            s for s, st in self.entries.items() if st.present(m, r)
        )
        return SimplicialComplex(self.universe, simp)

    def critical_grid(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Sorted radii and values at which any staircase changes."""
        rs: set[float] = set()
        ms: set[float] = set()
        for st in self.entries.values():
            for r, m in st.steps:
                rs.add(r)
                ms.add(m)
        return tuple(sorted(rs)), tuple(sorted(ms))

    def validate(self) -> None:
        """Check downward closure and staircase domination; raises on failure."""
        uni = set(self.universe)
        for sigma, st in self.entries.items():
            if not uni.issuperset(sigma):
                raise InvalidComplex(f"simplex {sigma} leaves the universe", sigma)
            if len(sigma) - 1 > self.dim_cap:
                raise InvalidComplex(
                    f"simplex {sigma} exceeds dim_cap {self.dim_cap}", sigma
                )
            if len(sigma) == 1:
                continue
            for face in combinations(sigma, len(sigma) - 1):
                fst = self.entries.get(face)
                if fst is None:
                    raise InvalidComplex(f"face {face} of {sigma} has no entry", sigma)
                for r, m in st.steps:
                    fv = fst.value(r)
                    if fv is None or fv < m:
                        raise InvalidComplex(
                            f"face {face} value {fv} below {m} of {sigma} at r={r}",
                            sigma,
                        )

    def restrict_r_grid(self, r_grid: Sequence[float]) -> "BifilteredComplex":
        """Resample every staircase on an explicit radius grid."""
        rs = sorted(float(r) for r in r_grid)
        out: dict[Simplex, Staircase] = {}
        for sigma, st in self.entries.items():
            resampled = Staircase.from_samples(rs, [st.value(r) for r in rs])
            if resampled is not None:
                out[sigma] = resampled
        return BifilteredComplex(self.universe, out, self.dim_cap)


def grid_with_midpoints(values: Sequence[float]) -> tuple[float, ...]:
    """Sorted values interleaved with midpoints of consecutive pairs."""
    vs = sorted(set(float(v) for v in values))
    out: list[float] = []
    for a, b in zip(vs, vs[1:]):
        out.append(a)
        if math.isfinite(a) and math.isfinite(b):
            out.append((a + b) / 2.0)
    if vs:
        out.append(vs[-1])
    return tuple(out)


# ---------------------------------------------------------------------------
# Parameter shifts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ForwardShift:
    """Order-preserving map (m, r) -> (m', r') with m' <= m and r' >= r.

    The two stock shifts are the plain epsilon shift (m - eps, r + eps) and
    the doubling shift (m - eps, 2 (r + eps)) used by the nearest-neighbor
    interleavings; :meth:`then` composes two shifts. ``apply`` acts
    elementwise: given arrays of m and r that broadcast together, it returns
    the two arrays (or scalars) of float results it would give cell by cell.
    """

    name: str
    apply: Callable[[float, float], tuple[float, float]] = field(repr=False)

    @classmethod
    def eps_shift(cls, eps: float) -> "ForwardShift":
        if not eps >= 0:  # a nan shift would pass every condition
            raise NonMonotonePath(f"shift amount must be >= 0, got {eps}")
        return cls(f"eps_shift({eps!r})", lambda m, r: (m - eps, r + eps))

    @classmethod
    def doubling_shift(cls, eps: float) -> "ForwardShift":
        if not eps >= 0:  # a nan shift would pass every condition
            raise NonMonotonePath(f"shift amount must be >= 0, got {eps}")
        return cls(f"doubling_shift({eps!r})", lambda m, r: (m - eps, 2.0 * (r + eps)))

    @classmethod
    def identity(cls) -> "ForwardShift":
        return cls("identity", lambda m, r: (m, r))

    def __call__(self, m: float, r: float) -> tuple[float, float]:
        return self.apply(m, r)

    def then(self, other: "ForwardShift") -> "ForwardShift":
        """Compose: apply self first, then other."""
        def chained(m: float, r: float) -> tuple[float, float]:
            m1, r1 = self.apply(m, r)
            return other.apply(m1, r1)

        return ForwardShift(f"{other.name} o {self.name}", chained)
