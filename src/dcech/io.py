"""File formats: CSV ingestion, staircase tables, Betti CSV/SVG, firep-style.

All writers are deterministic (sorted iteration, repr floats) and atomic
(write to a unique sibling temp file, then rename), so identical inputs give
byte-identical outputs. Staircase tables are validated when read.

Staircase table format (one bifiltration per file):

    # staircase-table v1
    # universe: <space separated vertex ids>
    # dim_cap: <int>
    <v1 v2 ...>\t<r>:<m> <r>:<m> ...

One line per simplex, sorted by (dimension, vertex tuple); steps are the
staircase corners in increasing r. Floats use repr, so parsing recovers the
exact values.

Firep-style format (chain map in consecutive dimensions d, d-1):

    firep-style v1
    grades (r, -m)
    <n_d> <n_{d-1}>
    <r> <-m> : <face generator indices>   x n_d
    <r> <-m>                              x n_{d-1}

One generator per staircase corner; the m axis is negated so both grades
are nondecreasing along the parameter order. Boundary entries point at the
face generator whose corner realizes the face's value at the generator's
radius.
"""

from __future__ import annotations

import csv
import math
import os
from bisect import bisect_right
from typing import Sequence

from .core import (
    BifilteredComplex,
    DiscreteMeasure,
    FiniteMetricSpace,
    Simplex,
    Staircase,
)
from .errors import InvalidComplex, ParseError, UnsupportedDimension
from .homology import BettiTable

__all__ = [
    "load_planar_csv",
    "load_matrix_csv",
    "write_staircase_table",
    "read_staircase_table",
    "write_betti_csv",
    "write_betti_svg",
    "write_firep",
    "format_barcode",
]


def _atomic_write(path: str, text: str) -> None:
    """Write a temporary file of this call's own beside ``path``, then rename
    it over ``path``; concurrent writers of one path never share one. Unlike
    tempfile.mkstemp's private files, it gets the mode open() gives."""
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def load_planar_csv(
    path: str, weight_col: str | None = None
) -> tuple[FiniteMetricSpace, DiscreteMeasure]:
    """Read points from a CSV with header x[,y][,w...]; weights default to 1.

    A missing y column means points on a line (y = 0). ``weight_col`` names
    the weight column; without it the counting measure is used.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ParseError(path, 1, "empty file")
    header = [h.strip() for h in rows[0]]
    if "x" not in header:
        raise ParseError(path, 1, "planar input needs an 'x' column")
    xi = header.index("x")
    yi = header.index("y") if "y" in header else None
    wi = None
    if weight_col is not None:
        if weight_col not in header:
            raise ParseError(path, 1, f"no column named {weight_col!r}")
        wi = header.index(weight_col)
    coords: list[tuple[float, float]] = []
    weights: list[float] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        try:
            x = float(row[xi])
            y = float(row[yi]) if yi is not None else 0.0
            w = float(row[wi]) if wi is not None else 1.0
        except (ValueError, IndexError) as exc:
            raise ParseError(path, lineno, str(exc)) from exc
        if not all(map(math.isfinite, (x, y, w))):
            raise ParseError(path, lineno, "coordinates and weights must be finite")
        coords.append((x, y))
        weights.append(w)
    if not coords:
        raise ParseError(path, len(rows), "no data rows")
    return FiniteMetricSpace.from_points(coords), DiscreteMeasure(tuple(weights))


def load_matrix_csv(path: str) -> tuple[FiniteMetricSpace, tuple[str, ...] | None]:
    """Read a square distance matrix; an optional leading label column."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if any(c.strip() for c in row)]
    if len(rows) < 2:
        raise ParseError(path, 1, "expected a header row and a matrix block")
    data = rows[1:]
    labeled = False
    try:
        float(data[0][0])
    except ValueError:
        labeled = True
    labels: list[str] = []
    matrix: list[list[float]] = []
    for lineno, row in enumerate(data, start=2):
        fields = row[1:] if labeled else row
        if labeled:
            labels.append(row[0].strip())
        try:
            matrix.append([float(c) for c in fields])
        except ValueError as exc:
            raise ParseError(path, lineno, str(exc)) from exc
    n = len(matrix)
    for lineno, row in enumerate(matrix, start=2):
        if len(row) != n:
            raise ParseError(path, lineno, f"row has {len(row)} entries, expected {n}")
    space = FiniteMetricSpace.from_matrix(
        matrix, labels=tuple(labels) if labeled else None
    )
    return space, tuple(labels) if labeled else None


# ---------------------------------------------------------------------------
# Staircase tables
# ---------------------------------------------------------------------------


def write_staircase_table(K: BifilteredComplex, path: str) -> None:
    lines = [
        "# staircase-table v1",
        "# universe: " + " ".join(str(v) for v in K.universe),
        f"# dim_cap: {K.dim_cap}",
    ]
    for sigma in sorted(K.entries, key=lambda s: (len(s), s)):
        steps = " ".join(f"{r!r}:{m!r}" for r, m in K.entries[sigma].steps)
        lines.append(" ".join(str(v) for v in sigma) + "\t" + steps)
    _atomic_write(path, "\n".join(lines) + "\n")


def _table_row(line: str) -> tuple[Simplex, Staircase]:
    if "\t" not in line:
        raise ValueError("expected '<vertices>\\t<steps>'")
    head, tail = line.split("\t", 1)
    sigma = tuple(int(v) for v in head.split())
    if not sigma or any(a >= b for a, b in zip(sigma, sigma[1:])):
        raise ValueError(f"expected strictly increasing vertex ids, got {head!r}")
    steps = []
    for token in tail.split():
        r_text, m_text = token.split(":")
        corner = (float(r_text), float(m_text))
        if math.isnan(corner[0]) or math.isnan(corner[1]):
            raise ValueError(f"corner {token!r} is nan")
        steps.append(corner)
    return sigma, Staircase(tuple(steps))


def read_staircase_table(path: str) -> BifilteredComplex:
    """Read a staircase table and validate it as a bifiltration.

    Every defect (bad syntax, a nan corner, a repeated or unsorted simplex,
    a face that is missing or below its coface, a simplex outside the
    universe or above dim_cap) is a ParseError naming the offending line.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "# staircase-table v1":
        raise ParseError(path, 1, "not a staircase table")
    universe: tuple[int, ...] | None = None
    dim_cap: int | None = None
    entries: dict[Simplex, Staircase] = {}
    line_of: dict[Simplex, int] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        key, _, rest = line.partition(":")
        try:
            if key == "# universe":
                universe = tuple(int(v) for v in rest.split())
            elif key == "# dim_cap":
                dim_cap = int(rest)
            elif line.strip() and not line.startswith("#"):
                sigma, stair = _table_row(line)
                if sigma in line_of:
                    raise ValueError(
                        f"duplicate row for {sigma}, first at line {line_of[sigma]}"
                    )
                entries[sigma] = stair
                line_of[sigma] = lineno
        except ValueError as exc:
            raise ParseError(path, lineno, str(exc)) from exc
    if universe is None or dim_cap is None:
        raise ParseError(path, 1, "missing universe or dim_cap header")
    K = BifilteredComplex(universe, entries, dim_cap)
    try:
        K.validate()
    except InvalidComplex as exc:
        raise ParseError(path, line_of[exc.simplex], str(exc)) from exc
    return K


# ---------------------------------------------------------------------------
# Betti outputs
# ---------------------------------------------------------------------------


def write_betti_csv(table: BettiTable, path: str) -> None:
    degrees = range(table.max_degree + 1)
    lines = ["m,r," + ",".join(f"beta{k}" for k in degrees)]
    for i, m in enumerate(table.m_grid):
        for j, r in enumerate(table.r_grid):
            vec = table.at(i, j)
            lines.append(f"{m!r},{r!r}," + ",".join(str(v) for v in vec))
    _atomic_write(path, "\n".join(lines) + "\n")


def _heat_color(value: int, vmax: int) -> str:
    if value <= 0:
        return "#ffffff"
    t = value / vmax
    r = round(255 + (8 - 255) * t)
    g = round(255 + (48 - 255) * t)
    b = round(255 + (107 - 255) * t)
    return f"#{r:02x}{g:02x}{b:02x}"


def write_betti_svg(table: BettiTable, degree: int, path: str) -> None:
    """Static heatmap of one Betti degree over the (r, m) grid.

    Larger values are darker (a linear white-to-blue ramp); the legend lists
    every value that occurs. Rows are ordered top-down by decreasing m.
    """
    cell = 28
    left, top = 70, 30
    nr = len(table.r_grid)
    nm = len(table.m_grid)
    vmax = max(
        (table.at(i, j)[degree] for i in range(nm) for j in range(nr)), default=0
    )
    vmax = max(vmax, 1)
    values_used = sorted(
        {table.at(i, j)[degree] for i in range(nm) for j in range(nr)}
    )
    width = left + nr * cell + 140
    height = top + nm * cell + 60
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="10">',
        f'<text x="{left}" y="16">beta{degree} heatmap (rows: m descending, '
        "columns: r ascending)</text>",
    ]
    for i, m in enumerate(reversed(table.m_grid)):
        mi = nm - 1 - i
        y = top + i * cell
        parts.append(
            f'<text x="4" y="{y + cell - 10}">m={m:.6g}</text>'
        )
        for j in range(nr):
            v = table.at(mi, j)[degree]
            color = _heat_color(v, vmax)
            x = left + j * cell
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="{color}" stroke="#999"/>'
            )
            if v:
                parts.append(
                    f'<text x="{x + 10}" y="{y + cell - 10}">{v}</text>'
                )
    for j, r in enumerate(table.r_grid):
        x = left + j * cell
        parts.append(
            f'<text x="{x + 2}" y="{top + nm * cell + 14}">r={r:.4g}</text>'
        )
    lx = left + nr * cell + 12
    parts.append(f'<text x="{lx}" y="{top}">legend</text>')
    for idx, v in enumerate(values_used):
        y = top + 8 + idx * 18
        parts.append(
            f'<rect x="{lx}" y="{y}" width="14" height="14" '
            f'fill="{_heat_color(v, vmax)}" stroke="#999"/>'
        )
        parts.append(f'<text x="{lx + 20}" y="{y + 11}">{v}</text>')
    parts.append("</svg>")
    _atomic_write(path, "\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# Firep-style export
# ---------------------------------------------------------------------------


def write_firep(K: BifilteredComplex, dim: int, path: str) -> tuple[int, int]:
    """Chain map of dimensions (dim, dim-1) with one generator per corner.

    Returns the generator counts (n_dim, n_dim_minus_1).
    """
    if dim < 1 or dim > K.dim_cap:
        raise UnsupportedDimension(
            f"export needs 1 <= dim <= dim_cap, got {dim}"
        )
    faces: list[tuple[Simplex, int]] = []
    gen_index: dict[tuple[Simplex, int], int] = {}
    face_simplices = sorted(
        (s for s in K.entries if len(s) == dim), key=lambda s: s
    )
    top_simplices = sorted(
        (s for s in K.entries if len(s) == dim + 1), key=lambda s: s
    )
    for sigma in face_simplices:
        for ci in range(len(K.entries[sigma].steps)):
            gen_index[(sigma, ci)] = len(faces)
            faces.append((sigma, ci))
    top_lines: list[str] = []
    for sigma in top_simplices:
        stair = K.entries[sigma]
        for r, m in stair.steps:
            cols: list[int] = []
            for drop in range(len(sigma)):
                face = sigma[:drop] + sigma[drop + 1 :]
                fst = K.entries[face]
                idx = bisect_right([s[0] for s in fst.steps], r) - 1
                # the face's value-realizing corner at r dominates (r, m)
                cols.append(gen_index[(face, idx)])
            cols.sort()
            top_lines.append(
                f"{r!r} {(-m)!r} : " + " ".join(str(c) for c in cols)
            )
    face_lines = [
        f"{K.entries[s].steps[ci][0]!r} {(-K.entries[s].steps[ci][1])!r}"
        for s, ci in faces
    ]
    lines = [
        "firep-style v1",
        "grades (r, -m)",
        f"{len(top_lines)} {len(face_lines)}",
        *top_lines,
        *face_lines,
    ]
    _atomic_write(path, "\n".join(lines) + "\n")
    return len(top_lines), len(face_lines)


# ---------------------------------------------------------------------------
# Barcode text
# ---------------------------------------------------------------------------


def format_barcode(intervals_by_degree, max_degree: int) -> str:
    """Human-readable bars per degree, sorted by birth, inf for essentials."""
    lines = []
    for k in range(max_degree + 1):
        bars = sorted(intervals_by_degree.get(k, ()))
        if bars:
            text = " ".join(
                f"[{b:.12g},{'inf' if math.isinf(d) else format(d, '.12g')})"
                for b, d in bars
            )
        else:
            text = "(none)"
        lines.append(f"H{k}: {text}")
    return "\n".join(lines) + "\n"
