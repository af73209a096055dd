"""Exception types shared across the package.

Every error raised on purpose derives from :class:`DcechError`, so callers can
catch one base class at the CLI boundary. Errors that are really input
validation problems also derive from the matching builtin (ValueError,
IndexError) to stay friendly to generic handling.
"""

from __future__ import annotations

__all__ = [
    "DcechError",
    "MetricError",
    "AsymmetryError",
    "NegativeDistanceError",
    "TriangleViolation",
    "CoordMismatch",
    "IndexOutOfRange",
    "EmptySimplex",
    "EmptySupport",
    "DimensionMismatch",
    "NonPositiveP",
    "MonotonicityError",
    "DowkerConditionViolation",
    "InvalidComplex",
    "InvalidStaircase",
    "MissingCoordinates",
    "NonMonotonePath",
    "NotAnInclusion",
    "UnsupportedDimension",
    "DifferentSpaces",
    "EmptyTarget",
    "NotDistancePreserving",
    "ParseError",
]


class DcechError(Exception):
    """Base class for all package errors."""


class MetricError(DcechError, ValueError):
    """A distance matrix failed validation."""


class AsymmetryError(MetricError):
    """dist[i][j] != dist[j][i] beyond tolerance."""


class NegativeDistanceError(MetricError):
    """A distance is negative, or the diagonal is nonzero."""


class TriangleViolation(MetricError):
    """Triangle inequality fails; carries the witness triple."""

    def __init__(self, i: int, k: int, j: int, lhs: float, rhs: float) -> None:
        self.witness = (i, k, j)
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(
            f"d({i},{j}) = {lhs} exceeds d({i},{k}) + d({k},{j}) = {rhs}"
        )


class CoordMismatch(MetricError):
    """Stated distances disagree with coordinate-derived distances."""


class IndexOutOfRange(DcechError, IndexError):
    """A vertex or point index is outside the space."""


class EmptySimplex(DcechError, ValueError):
    """A simplex needs at least one vertex."""


class EmptySupport(DcechError, ValueError):
    """A measure needs at least one positive weight."""


class DimensionMismatch(DcechError, ValueError):
    """Two aligned objects (matrix, weights, coords) have unequal sizes."""


class NonPositiveP(DcechError, ValueError):
    """The distance-to-measure exponent must be positive."""


class MonotonicityError(DcechError, ValueError):
    """A tabulated bifiltration violates the required monotonicity."""


class DowkerConditionViolation(DcechError, ValueError):
    """f(sigma, r) > 0 but the Dowker ball of sigma at r is empty."""


class InvalidComplex(DcechError, ValueError):
    """A simplex set is not downward closed or not over the universe.

    ``simplex`` names the offending simplex when one is known.
    """

    def __init__(self, reason: str, simplex: tuple[int, ...] | None = None) -> None:
        self.simplex = simplex
        super().__init__(reason)


class InvalidStaircase(DcechError, ValueError):
    """Staircase steps must increase strictly in both coordinates."""


class MissingCoordinates(DcechError, ValueError):
    """A planar construction was asked of a space without coordinates."""


class NonMonotonePath(DcechError, ValueError):
    """A slice's radius grid must not decrease, and a shift must not move a
    parameter pair backwards."""


class NotAnInclusion(DcechError, ValueError):
    """The claimed subcomplex has simplices outside the target complex."""


class UnsupportedDimension(DcechError, ValueError):
    """A homology degree outside the materialized range was requested."""


class DifferentSpaces(DcechError, ValueError):
    """Two measures that must share a space do not."""


class EmptyTarget(DcechError, ValueError):
    """A projection target set is empty."""


class NotDistancePreserving(DcechError, ValueError):
    """A claimed embedding distorts distances beyond tolerance."""


class ParseError(DcechError, ValueError):
    """An input file could not be parsed; carries file and line."""

    def __init__(self, path: str, line: int, reason: str) -> None:
        self.path = path
        self.line = line
        super().__init__(f"{path}:{line}: {reason}")
