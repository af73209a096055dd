"""Output checks made apart from the program.

Nothing here imports dcech. Every check recomputes what it compares against
from the generated input files, or tests a property the method must have:

- staircases of intrinsic and ambient-finite tables against the degree-Cech
  value recomputed from the CSV (distances from ``math.hypot``, masses exact
  because weights are small integers);
- Betti numbers of slices by dense GF(2) elimination over the table as this
  module parses it, compared with every cell of ``betti.csv``, every cell of
  the SVG heatmaps, and every bar of a printed barcode;
- planar first corners against a Welzl minimum enclosing ball, and the
  sandwich intrinsic(m, r) <= planar(m, r) <= intrinsic(m, 2r);
- downward closure and face domination of every table read back;
- verification-suite verdicts and Prohorov distances (own subset
  enumeration, symmetry, zero self-distance, ``--check`` at and just below).

Each check returns a list of messages; an empty list means it passed.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from itertools import combinations

import numpy as np

Simplex = tuple[int, ...]

# ---------------------------------------------------------------------------
# Input and table parsing
# ---------------------------------------------------------------------------


def read_cloud(path: str) -> tuple[list[tuple[float, float]], list[float]]:
    """Points and weights of an ``x,y,w`` CSV."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = lines[0].split(",")
    xi, yi, wi = header.index("x"), header.index("y"), header.index("w")
    pts, ws = [], []
    for ln in lines[1:]:
        cells = ln.split(",")
        pts.append((float(cells[xi]), float(cells[yi])))
        ws.append(float(cells[wi]))
    return pts, ws


def distances(pts: list[tuple[float, float]]) -> np.ndarray:
    n = len(pts)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1])
    return d


class Table:
    """A staircase table as this module reads it."""

    def __init__(self, universe: tuple[int, ...], dim_cap: int,
                 entries: dict[Simplex, tuple[tuple[float, float], ...]]) -> None:
        self.universe = universe
        self.dim_cap = dim_cap
        self.entries = entries
        self.simplices = sorted(entries, key=lambda s: (len(s), s))
        self.radii = sorted({r for st in entries.values() for r, _ in st})
        # vals[i, j]: value of simplex i from radii[j] on (-inf when absent)
        vals = np.full((len(self.simplices), len(self.radii)), -math.inf)
        col = {r: j for j, r in enumerate(self.radii)}
        for i, s in enumerate(self.simplices):
            for r, m in entries[s]:
                vals[i, col[r]:] = m
        self.vals = vals
        self._betti: dict[bytes, tuple[int, ...]] = {}

    def present(self, m: float, r: float) -> np.ndarray:
        j = bisect_right(self.radii, r) - 1
        if j < 0:
            return np.zeros(len(self.simplices), dtype=bool)
        return self.vals[:, j] >= m

    def betti_at(self, mask: np.ndarray, max_degree: int) -> tuple[int, ...]:
        key = mask.tobytes() + bytes([max_degree])
        got = self._betti.get(key)
        if got is None:
            sims = [s for s, keep in zip(self.simplices, mask) if keep]
            got = betti_dense(sims, max_degree)
            self._betti[key] = got
        return got


def parse_table(path: str) -> Table:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "# staircase-table v1":
        raise ValueError(f"{path}: not a staircase table")
    universe: tuple[int, ...] = ()
    dim_cap = -1
    entries: dict[Simplex, tuple[tuple[float, float], ...]] = {}
    for line in lines[1:]:
        if line.startswith("# universe:"):
            universe = tuple(int(v) for v in line.split(":", 1)[1].split())
        elif line.startswith("# dim_cap:"):
            dim_cap = int(line.split(":", 1)[1])
        elif line and not line.startswith("#"):
            head, tail = line.split("\t")
            sigma = tuple(int(v) for v in head.split())
            entries[sigma] = tuple(
                (float(a), float(b)) for a, b in (tok.split(":") for tok in tail.split())
            )
    return Table(universe, dim_cap, entries)


# ---------------------------------------------------------------------------
# Dense GF(2) homology
# ---------------------------------------------------------------------------


def gf2_rank(mat: np.ndarray) -> int:
    """Rank over GF(2) of a dense boolean matrix.

    Rows are packed into integers and reduced by Gaussian elimination on
    their leading bits.
    """
    if mat.shape[1] > mat.shape[0]:
        mat = mat.T
    pivots: dict[int, int] = {}
    for packed in np.packbits(mat, axis=1):
        row = int.from_bytes(packed.tobytes(), "big")
        while row:
            lead = row.bit_length()
            other = pivots.get(lead)
            if other is None:
                pivots[lead] = row
                break
            row ^= other
    return len(pivots)


def betti_dense(simplices: list[Simplex], max_degree: int) -> tuple[int, ...]:
    """Betti numbers in degrees 0..max_degree of a downward-closed complex."""
    lists: dict[int, list[Simplex]] = {}
    for s in simplices:
        lists.setdefault(len(s) - 1, []).append(s)
    by_dim = {k: np.array(v) for k, v in lists.items()}
    ranks = {0: 0}
    for k in range(1, max_degree + 2):
        top, bot = by_dim.get(k), by_dim.get(k - 1)
        if top is None or bot is None:
            ranks[k] = 0
            continue
        # simplices as integers in base (largest vertex + 1), so faces are
        # found by a sorted search
        base = int(max(top.max(), bot.max())) + 1
        weights = base ** np.arange(k - 1, -1, -1)
        codes = bot @ weights
        order = np.argsort(codes)
        mat = np.zeros((len(bot), len(top)), dtype=bool)
        for drop in range(k + 1):
            faces = np.delete(top, drop, axis=1) @ weights
            mat[order[np.searchsorted(codes, faces, sorter=order)], np.arange(len(top))] = True
        ranks[k] = gf2_rank(mat)
    return tuple(
        len(by_dim.get(k, ())) - ranks[k] - ranks[k + 1] for k in range(max_degree + 1)
    )


# ---------------------------------------------------------------------------
# Degree-Cech staircases recomputed from the input
# ---------------------------------------------------------------------------


def degree_cech(d: np.ndarray, weights: list[float], witnesses: list[int],
                vertices: list[int], dim_cap: int) -> dict[Simplex, tuple]:
    """Staircase of every simplex on ``vertices`` up to ``dim_cap``.

    The value of tau at r is the largest mass of a witness ball of radius r
    that holds tau, and tau is absent until some witness ball holds it.
    Balls are taken over the witnesses: the support for intrinsic tables,
    every point for ambient-finite ones.
    """
    radii = np.array(sorted({0.0} | set(d[np.ix_(witnesses, witnesses + vertices)].ravel())))
    # mass[x, l]: mass of witness x's ball (over the witnesses) at radii[l]
    inside = d[np.ix_(witnesses, witnesses)][:, :, None] <= radii[None, None, :]
    mass = (inside * np.asarray(weights)[witnesses][None, :, None]).sum(axis=1)
    out: dict[Simplex, tuple] = {}
    for size in range(1, min(dim_cap + 1, len(vertices)) + 1):
        taus = np.array(list(combinations(vertices, size)))
        # enter[x, t]: radius at which tau t enters witness x's ball
        enter = d[np.ix_(witnesses, taus.ravel())].reshape(len(witnesses), *taus.shape).max(axis=2)
        best = np.full((len(taus), len(radii)), -math.inf)
        for xi in range(len(witnesses)):
            inside = enter[xi][:, None] <= radii[None, :]
            np.maximum(best, np.where(inside, mass[xi][None, :], -math.inf), out=best)
        with np.errstate(invalid="ignore"):  # -inf - -inf: still absent
            rises = np.diff(best, axis=1, prepend=-math.inf) > 0
        for t, tau in enumerate(taus):
            cols = np.flatnonzero(rises[t])
            out[tuple(int(v) for v in tau)] = tuple(
                (float(radii[c]), float(best[t, c])) for c in cols
            )
    return out


def check_staircases(table: Table, expected: dict[Simplex, tuple]) -> list[str]:
    errs = []
    if set(table.entries) != set(expected):
        errs.append(
            f"simplex sets differ: {len(set(table.entries) ^ set(expected))} simplices"
        )
    for s, steps in expected.items():
        got = table.entries.get(s)
        if got is not None and got != steps:
            errs.append(f"staircase of {s} is {got}, recomputed {steps}")
            if len(errs) > 5:
                break
    return errs


# ---------------------------------------------------------------------------
# Tables read back: closure and domination
# ---------------------------------------------------------------------------


def _value(steps: tuple, r: float) -> float:
    idx = bisect_right([s[0] for s in steps], r) - 1
    return -math.inf if idx < 0 else steps[idx][1]


def check_closure(table: Table) -> list[str]:
    """Every simplex lies in the universe within dim_cap, and every face is
    present with a value at least the simplex's at every radius."""
    uni = set(table.universe)
    row = {s: i for i, s in enumerate(table.simplices)}
    errs = [f"{s} outside the universe or above dim_cap" for s in table.simplices
            if not uni.issuperset(s) or len(s) - 1 > table.dim_cap]
    pairs = []
    for s in table.simplices:
        for face in combinations(s, len(s) - 1) if len(s) > 1 else ():
            if face in row:
                pairs.append((row[face], row[s]))
            else:
                errs.append(f"face {face} of {s} missing")
    if pairs:
        faces, cofaces = np.array(pairs).T
        below = np.flatnonzero(np.any(table.vals[faces] < table.vals[cofaces], axis=1))
        errs += [f"face {table.simplices[faces[i]]} does not dominate "
                 f"{table.simplices[cofaces[i]]}" for i in below[:5]]
    return errs[:6]


# ---------------------------------------------------------------------------
# Planar tables
# ---------------------------------------------------------------------------


def _circumcenter(a, b, c):
    # the same formula, on the same sorted triple, as the program: radii are
    # compared exactly, so both sides must round alike; the search differs
    a, b, c = sorted((a, b, c))
    d = 2.0 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1]))
    if d == 0.0:
        return None
    sa, sb, sc = a[0] * a[0] + a[1] * a[1], b[0] * b[0] + b[1] * b[1], c[0] * c[0] + c[1] * c[1]
    return ((sa * (b[1] - c[1]) + sb * (c[1] - a[1]) + sc * (a[1] - b[1])) / d,
            (sa * (c[0] - b[0]) + sb * (a[0] - c[0]) + sc * (b[0] - a[0])) / d)


def _dist(a, b) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def _welzl(points: list, boundary: list):
    if not points or len(boundary) == 3:
        if not boundary:
            return None
        if len(boundary) == 1:
            return boundary[0]
        if len(boundary) == 3:
            center = _circumcenter(*boundary)
            if center is not None:
                return center
            boundary = max(combinations(boundary, 2), key=lambda ab: _dist(*ab))
        a, b = boundary
        return ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
    center = _welzl(points[:-1], boundary)
    p = points[-1]
    if center is not None and _dist(center, p) <= max(
        (_dist(center, q) for q in points[:-1] + boundary), default=0.0
    ) * (1.0 + 1e-12):
        return center
    return _welzl(points[:-1], boundary + [p])


def meb_radius(points: list) -> float:
    """Minimum enclosing ball radius by Welzl's recursion."""
    center = _welzl(list(points), [])
    return max(_dist(center, p) for p in points)


def check_planar(table: Table, pts: list, intrinsic: dict[Simplex, tuple]) -> list[str]:
    """First corners are enclosing-ball radii; the sandwich holds at every corner."""
    errs = []
    for s, steps in table.entries.items():
        rad = meb_radius([pts[v] for v in s])
        if steps[0][0] != rad:
            errs.append(f"first corner of {s} at r={steps[0][0]!r}, enclosing ball {rad!r}")
        inner = intrinsic.get(s)
        if inner is None:
            errs.append(f"{s} has no intrinsic staircase")
            continue
        rs = {r for r, _ in steps} | {r for r, _ in inner} | {r / 2.0 for r, _ in inner}
        for r in rs:
            mid = _value(steps, r)
            if not _value(inner, r) <= mid <= _value(inner, 2.0 * r):
                errs.append(f"sandwich fails for {s} at r={r!r}")
                break
        if len(errs) > 5:
            break
    return errs


# ---------------------------------------------------------------------------
# Betti CSV, heatmaps and barcodes
# ---------------------------------------------------------------------------


def with_midpoints(values) -> list[float]:
    vs = sorted(set(values))
    out = []
    for a, b in zip(vs, vs[1:]):
        out += [a, (a + b) / 2.0]
    return out + vs[-1:]


def check_betti_csv(table: Table, path: str, max_degree: int) -> tuple[list[str], dict]:
    """Every cell against own Betti numbers, on the critical-plus-midpoint grid.

    Returns the messages and the expected Betti vector per (m, r) cell.
    """
    errs = []
    with open(path, encoding="utf-8") as fh:
        rows = [ln.strip().split(",") for ln in fh if ln.strip()]
    if rows[0] != ["m", "r"] + [f"beta{k}" for k in range(max_degree + 1)]:
        return [f"bad header {rows[0]}"], {}
    m_grid = with_midpoints(m for st in table.entries.values() for _, m in st)
    r_grid = with_midpoints(table.radii)
    cells = [(float(row[0]), float(row[1])) for row in rows[1:]]
    if cells != [(m, r) for m in m_grid for r in r_grid]:
        errs.append(f"grid is not critical-plus-midpoint ({len(cells)} cells, "
                    f"expected {len(m_grid)} x {len(r_grid)})")
    expected = {}
    for (m, r), row in zip(cells, rows[1:]):
        want = table.betti_at(table.present(m, r), max_degree)
        expected[(m, r)] = want
        got = tuple(int(v) for v in row[2:])
        if got != want:
            errs.append(f"betti at (m={m!r}, r={r!r}) is {got}, expected {want}")
            if len(errs) > 5:
                break
    return errs, expected


_RECT = re.compile(r'<rect x="(\d+)" y="(\d+)" width="28" height="28" fill="(#[0-9a-f]{6})"')
_TEXT = re.compile(r'<text x="(\d+)" y="(\d+)">(\d+)</text>')


def check_heatmap(path: str, expected: dict, degree: int) -> list[str]:
    """Each cell shows its Betti number, blank and white exactly when it is 0.

    Rows run top-down by decreasing m and columns by increasing r, 28 px
    each, from (70, 30).
    """
    with open(path, encoding="utf-8") as fh:
        svg = fh.read()
    ms = sorted({m for m, _ in expected}, reverse=True)
    rs = sorted({r for _, r in expected})
    rects = {(int(x), int(y)): fill for x, y, fill in _RECT.findall(svg)}
    texts = {(int(x) - 10, int(y) + 10 - 28): int(v) for x, y, v in _TEXT.findall(svg)}
    errs = []
    if len(rects) != len(ms) * len(rs):
        errs.append(f"{len(rects)} cells drawn, grid has {len(ms) * len(rs)}")
    for i, m in enumerate(ms):
        for j, r in enumerate(rs):
            pos = (70 + 28 * j, 30 + 28 * i)
            want = expected[(m, r)][degree]
            shown = texts.get(pos, 0)
            white = rects.get(pos) == "#ffffff"
            if shown != want or white != (want == 0):
                errs.append(f"beta{degree} cell (m={m!r}, r={r!r}) shows {shown}, expected {want}")
                if len(errs) > 5:
                    return errs
    return errs


def parse_barcode(text: str) -> dict[int, list[tuple[float, float]]]:
    bars: dict[int, list[tuple[float, float]]] = {}
    for line in text.strip().splitlines():
        head, rest = line.split(":", 1)
        k = int(head[1:])
        bars[k] = []
        if rest.strip() != "(none)":
            for tok in rest.split():
                b, d = tok[1:-1].split(",")
                bars[k].append((float(b), math.inf if d == "inf" else float(d)))
    return bars


def check_barcode(table: Table, text: str, path_kind: str, m0: float, r0: float) -> list[str]:
    """Every bar ends at a time the slice changes, and the bars alive between
    consecutive such times match own Betti numbers.

    ``path_kind`` is ``"m"`` (constant m0, time r) or ``"diag"`` (t -> (m0 - t,
    r0 + t)). The slice can change at 0 and at the positive times where a
    corner enters the path: every table radius for an m slice, and r - r0 and
    m0 - m for every corner (r, m) on the diagonal. The program prints
    endpoints to 12 significant digits, so each is mapped back to the change
    time it rounds from; an endpoint that is no such rounding is wrong. The
    test times are the midpoints between consecutive change times and one time
    past the last, so every stretch where the slice is constant is tested and
    a dropped bar shows.
    """
    max_degree = max(table.dim_cap - 1, 0)
    bars = parse_barcode(text)
    if sorted(bars) != list(range(max_degree + 1)):
        return [f"barcode lists degrees {sorted(bars)}"]
    if path_kind == "m":
        changes = set(table.radii)

        def at(t: float) -> np.ndarray:
            return table.present(m0, t)
    else:
        changes = {t for st in table.entries.values() for r, m in st for t in (r - r0, m0 - m)}

        def at(t: float) -> np.ndarray:
            return table.present(m0 - t, r0 + t)
    times = sorted({0.0} | {t for t in changes if t > 0.0})
    exact = {float(format(t, ".12g")): t for t in reversed(times)}
    exact[math.inf] = math.inf
    errs = [f"H{k} bar [{b!r}, {d!r}) ends where the slice does not change"
            for k, bs in bars.items() for b, d in bs if b not in exact or d not in exact]
    if errs:
        return errs[:6]
    bars = {k: [(exact[b], exact[d]) for b, d in bs] for k, bs in bars.items()}
    tests = [(a + b) / 2.0 for a, b in zip(times, times[1:])] + [times[-1] + 1.0]
    for t in tests:
        want = table.betti_at(at(t), max_degree)
        got = tuple(sum(1 for b, d in bars[k] if b <= t < d) for k in range(max_degree + 1))
        if got != want:
            errs.append(f"at t={t!r} bars alive {got}, expected betti {want}")
            if len(errs) > 5:
                break
    return errs


# ---------------------------------------------------------------------------
# Verification suites and Prohorov distances
# ---------------------------------------------------------------------------

_SUMMARY = re.compile(r"^(\w+): PASS \((\d+) trials\)(?: \[(\d+) grid cells\])?")


def check_suite(name: str, trials: int, code: int, text: str) -> list[str]:
    lines = text.strip().splitlines()
    hit = _SUMMARY.match(lines[0]) if lines else None
    if code != 0 or hit is None or hit.group(1) != name or lines[-1] != "all checks passed":
        return [f"verify {name} exited {code}: {text.strip()[:200]!r}"]
    if int(hit.group(2)) != trials or hit.group(3) == "0":
        return [f"verify {name} reports {hit.group(0)!r} for {trials} trials"]
    return []


def prohorov_enumerated(d: np.ndarray, w0: list[float], w1: list[float], unit: float) -> float:
    """Prohorov distance by subset enumeration over the union of supports.

    The distance is the smallest eps with mu_i(B) <= mu_j(B^eps) + eps for
    every subset B and both orders. It is attained at a distance or at a
    difference of masses; with weights that are multiples of ``unit`` the
    latter are the multiples of ``unit``, so those candidates suffice.
    Feasibility grows with eps, so a binary search finds the smallest.
    """
    union = [i for i in range(len(w0)) if w0[i] > 0 or w1[i] > 0]
    k = len(union)
    sub = d[np.ix_(union, union)]
    a0, a1 = np.asarray(w0)[union], np.asarray(w1)[union]
    members = (np.arange(1 << k)[:, None] >> np.arange(k)[None, :]) & 1
    m0, m1 = members @ a0, members @ a1
    total = max(a0.sum(), a1.sum())
    cands = sorted({0.0} | set(sub.ravel()) | {unit * j for j in range(int(total / unit) + 1)})

    def feasible(eps: float) -> bool:
        reach = (members @ (sub <= eps)) > 0
        return bool(np.all(m1 - reach @ a0 <= eps) and np.all(m0 - reach @ a1 <= eps))

    lo, hi = 0, len(cands) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(cands[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(cands[lo])
