"""Mod-2 homology, slice persistence, and bottleneck distance.

Betti fixtures are classical complexes with known mod-2 homology; random
complexes are cross-checked against the dense row-reduction oracle, and the
bottleneck search against exhaustive partial matchings.
"""

import math
import random
from itertools import combinations

import pytest

from dcech import (
    Barcode,
    BifilteredComplex,
    DiscreteMeasure,
    FiniteMetricSpace,
    NonMonotonePath,
    NotAnInclusion,
    SimplicialComplex,
    Staircase,
    UnsupportedDimension,
    ambient_dc_finite,
    ambient_dc_planar,
    betti,
    betti_table,
    bottleneck_distance,
    diagonal_barcode,
    grid_with_midpoints,
    inclusion_induces_iso,
    intrinsic_dc,
    format_barcode,
    slice_persistence,
)
from .oracles import (
    MonotonePath,
    bars_alive,
    betti_dense,
    bottleneck_brute,
    closure_of,
    constant_m_sampled,
    inclusion_iso_dense,
    persistent_betti_dense,
    slice_persistence_sampled,
)

RT2 = math.sqrt(2.0)

# minimal 7-vertex torus triangulation: faces {i, i+1, i+3} and {i, i+2, i+3}
TORUS_FACES = [
    tuple(sorted(((i + a) % 7, (i + b) % 7, (i + c) % 7)))
    for i in range(7)
    for a, b, c in ((0, 1, 3), (0, 2, 3))
]

# minimal 6-vertex projective plane triangulation
RP2_FACES = [
    (0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 5), (0, 4, 5),
    (1, 2, 4), (1, 2, 5), (1, 3, 5), (2, 3, 4), (3, 4, 5),
]


class TestBetti:
    def test_circle(self):
        hollow = closure_of([(0, 1), (1, 2), (0, 2)])
        assert betti(hollow, 2) == (1, 1, 0)

    def test_sphere(self):
        boundary = closure_of(list(combinations(range(4), 3)))
        assert betti(boundary, 2) == (1, 0, 1)

    def test_torus(self):
        assert betti(closure_of(TORUS_FACES), 2) == (1, 2, 1)

    def test_projective_plane_mod2(self):
        assert betti(closure_of(RP2_FACES), 2) == (1, 1, 1)

    def test_two_components(self):
        assert betti(closure_of([(0, 1), (2, 3)]), 1) == (2, 0)

    def test_empty(self):
        assert betti(SimplicialComplex((0, 1), frozenset()), 1) == (0, 0)

    def test_solid_tetrahedron_truncated_degree(self):
        solid = closure_of([(0, 1, 2, 3)])
        assert betti(solid, 1) == (1, 0)
        assert betti(solid, 2) == (1, 0, 0)

    def test_rejects_negative_degree(self):
        with pytest.raises(UnsupportedDimension):
            betti(closure_of([(0,)]), -1)

    def test_matches_dense_oracle(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(3, 7)
            tops = [
                tuple(sorted(rng.sample(range(n), rng.randint(1, min(4, n)))))
                for _ in range(rng.randint(1, 6))
            ]
            K = closure_of(tops)
            assert betti(K, 2) == betti_dense(K.simplices, 2)


class TestBettiTable:
    @pytest.fixture
    def l3_intrinsic(self):
        space = FiniteMetricSpace.from_points([(0.0, 0.0), (1.0, 0.0), (3.0, 0.0)])
        return intrinsic_dc(space, DiscreteMeasure.counting(3))

    def test_default_grids(self, l3_intrinsic):
        table = betti_table(l3_intrinsic)
        assert table.m_grid == (1.0, 1.5, 2.0, 2.5, 3.0)
        assert table.r_grid == (0.0, 0.5, 1.0, 1.5, 2.0)
        assert table.max_degree == 2
        assert [v[0] for v in table.values[0]] == [3, 3, 2, 2, 1]

    def test_explicit_grids(self, l3_intrinsic):
        table = betti_table(l3_intrinsic, m_grid=[1.0], r_grid=[0.0, 1.0, 2.0], max_degree=0)
        assert table.values == (((3,), (2,), (1,)),)
        assert table.at(0, 2) == (1,)


def seeded_complexes():
    """Intrinsic, ambient-finite and planar bifiltrations of a hexagon and
    of small weighted clouds, some with zero-weight points."""
    hexagon = FiniteMetricSpace.from_points(
        [(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)]
    )
    out = [
        build(hexagon, DiscreteMeasure.counting(6), 3)
        for build in (intrinsic_dc, ambient_dc_finite, ambient_dc_planar)
    ]
    for seed in range(4):
        rng = random.Random(seed)
        n = rng.randint(7, 9)
        pts = [(rng.uniform(0, 3), rng.uniform(0, 3)) for _ in range(n)]
        space = FiniteMetricSpace.from_points(pts)
        mu = DiscreteMeasure(
            tuple(float(rng.randint(0 if i else 1, 3)) for i in range(n))
        )
        out.append(intrinsic_dc(space, mu, 2 + seed % 2))
        out.append(ambient_dc_finite(space, mu, 2 + seed % 2))
        out.append(ambient_dc_planar(space, DiscreteMeasure.counting(n), 2))
    return out


SEEDED = seeded_complexes()


class TestBettiTableCells:
    """betti_table reduces once per m-row; each cell must still equal the
    Betti vector of the slice at that cell, by the library and by dense
    elimination."""

    @pytest.mark.parametrize("K", SEEDED)
    def test_matches_each_slice(self, K):
        rs, ms = K.critical_grid()
        rng = random.Random(len(K.entries))
        # unsorted, repeated, -inf, above every value, between corners
        explicit_m = [ms[-1], -math.inf, ms[0], ms[0], rng.uniform(ms[0], ms[-1]),
                      ms[-1] + 1.0]
        explicit_r = [rs[-1], 0.0, rs[len(rs) // 2], rs[len(rs) // 2],
                      rng.uniform(0.0, rs[-1]), math.inf]
        for m_grid, r_grid, d in (
            (None, None, 2),
            (explicit_m, explicit_r, 1),
            (explicit_m, sorted(explicit_r) + [rs[1]], 2),
        ):
            table = betti_table(K, m_grid, r_grid, d)
            dense = {}
            want_m = grid_with_midpoints(ms) if m_grid is None else m_grid
            want_r = grid_with_midpoints(rs) if r_grid is None else r_grid
            assert table.m_grid == tuple(want_m)
            assert table.r_grid == tuple(want_r)
            for i, m in enumerate(want_m):
                for j, r in enumerate(want_r):
                    cell = K.complex_at(m, r)
                    if cell.simplices not in dense:
                        dense[cell.simplices] = betti_dense(cell.simplices, d)
                    assert table.at(i, j) == betti(cell, d) == dense[cell.simplices], (m, r)

    def test_negative_degree_only_with_cells(self):
        K = SEEDED[0]
        with pytest.raises(UnsupportedDimension):
            betti_table(K, [1.0], [0.0], -1)
        assert betti_table(K, [], [0.0, 1.0], -1).values == ()


class TestSlicePersistence:
    def test_l3_constant_mass_slice(self):
        space = FiniteMetricSpace.from_points([(0.0, 0.0), (1.0, 0.0), (3.0, 0.0)])
        K = intrinsic_dc(space, DiscreteMeasure.counting(3))
        for grid in (None, [0.0, 1.0, 2.0]):
            bars = slice_persistence(K, 1.0, grid)
            assert bars.degree(0) == ((0.0, 1.0), (0.0, 2.0), (0.0, math.inf))
            assert bars.degree(1) == ()

    def test_square_hollow_shell(self):
        space = FiniteMetricSpace.from_points(
            [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        )
        K = intrinsic_dc(space, DiscreteMeasure.counting(4))
        # at r=1 every pair and triple has a corner witness but the full
        # simplex does not: the slice passes through a hollow 3-simplex shell
        assert betti(K.complex_at(1.0, 1.0), 2) == (1, 0, 1)
        bars = slice_persistence(K, 1.0, [0.0, 0.5, 1.0, RT2, 2.0])
        assert bars.degree(0) == (
            (0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (0.0, math.inf)
        )
        assert bars.degree(1) == ()
        assert bars.degree(2) == ((1.0, RT2),)

    def test_alive_counts_match_betti(self):
        space = FiniteMetricSpace.from_points(
            [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        )
        K = intrinsic_dc(space, DiscreteMeasure.counting(4))
        rs = [0.0, 0.5, 1.0, RT2, 2.0]
        bars = slice_persistence(K, 1.0, rs)
        for r in rs:
            bv = betti(K.complex_at(1.0, r), 2)
            for k in range(3):
                assert bars_alive(bars.degree(k), r) == bv[k], (k, r)

    def test_grid_snaps_up_and_drops_late_entries(self):
        space = FiniteMetricSpace.from_points([(0.0, 0.0), (1.0, 0.0), (3.0, 0.0)])
        K = intrinsic_dc(space, DiscreteMeasure.counting(3))
        # vertices enter at 0 and show at 0.5, edge 01 at 1 shows at 1.5, and
        # edge 12 at 2 is past the grid
        bars = slice_persistence(K, 1.0, [0.5, 1.5], 0)
        assert bars.degree(0) == ((0.5, 1.5), (0.5, math.inf), (0.5, math.inf))

    def test_rejects_backwards_and_empty_grids(self):
        K = SEEDED[0]
        with pytest.raises(NonMonotonePath, match="backwards"):
            slice_persistence(K, 1.0, [2.0, 1.0])
        with pytest.raises(NonMonotonePath):
            slice_persistence(K, 1.0, [])
        # a bar dying at an inf grid radius would read as essential
        for K in (SEEDED[0], HAND_BUILT[0]):
            rs, _ = K.critical_grid()
            for grid in ([math.inf], list(rs) + [math.inf]):
                with pytest.raises(NonMonotonePath, match="inf"):
                    slice_persistence(K, 1.0, grid)


def midpoints(values):
    return [(a + b) / 2.0 for a, b in zip(values, values[1:])]


class TestSliceBetweenCorners:
    """Slices sampled strictly between staircase corners: at every sample
    the bars alive equal the Betti vector of the slice there."""

    @pytest.mark.parametrize("K", SEEDED)
    def test_constant_m(self, K):
        rs, ms = K.critical_grid()
        grid = midpoints(rs)
        for m in midpoints(ms) + [ms[0], -math.inf]:
            bars = slice_persistence(K, m, grid, 2)
            for r in grid:
                want = betti(K.complex_at(m, r), 2)
                assert tuple(bars_alive(bars.degree(k), r) for k in range(3)) == want, (m, r)
            ends = {e for k in bars.degrees() for bar in bars.degree(k) for e in bar}
            assert ends <= set(grid) | {math.inf}

    @pytest.mark.parametrize("K", SEEDED)
    def test_diagonal(self, K):
        corners = [c for stair in K.entries.values() for c in stair.steps]
        _, ms = K.critical_grid()
        for m0 in (ms[-1], midpoints(ms)[0] + 1.0):
            bars = diagonal_barcode(K, m0, 0.0, 2)
            # the slice changes only where a corner enters the path
            changes = sorted({0.0} | {max(r, m0 - v) for r, v in corners} - {math.inf})
            for t in midpoints(changes) + [changes[-1] + 1.0]:
                want = betti(K.complex_at(m0 - t, t), 2)
                assert tuple(bars_alive(bars.degree(k), t) for k in range(3)) == want, t


class TestNoPerCellSlicing:
    def test_kernel_builds_no_complex(self, monkeypatch):
        K = SEEDED[4]
        rs, ms = K.critical_grid()

        def forbidden(*args, **kwargs):
            raise AssertionError("sliced a complex")

        monkeypatch.setattr(BifilteredComplex, "complex_at", forbidden)
        monkeypatch.setattr(SimplicialComplex, "__init__", forbidden)
        assert len(betti_table(K).values) == len(grid_with_midpoints(ms))
        slice_persistence(K, ms[0])
        slice_persistence(K, ms[0], rs)
        diagonal_barcode(K, ms[-1], 0.0, 2)


def hand_built_complexes():
    """Tables no builder makes: negative, -0.0 and infinite corner radii, and
    the empty complex."""
    inf = math.inf
    steps = {
        (0,): ((-1.0, 1.0), (0.5, 3.0)),
        (1,): ((-0.0, 2.0), (inf, 4.0)),
        (2,): ((0.0, 1.0), (2.5, 2.0)),
        (3,): ((inf, 5.0),),
        (0, 1): ((0.5, 1.0), (2.0, 2.0)),
        (0, 2): ((1.5, 1.0),),
        (1, 2): ((-0.0, 0.5), (1.0, 1.0), (inf, 2.0)),
        (1, 3): ((inf, 4.0),),
        (0, 1, 2): ((3.0, 0.5), (inf, 1.0)),
    }
    K = BifilteredComplex((0, 1, 2, 3), {s: Staircase(st) for s, st in steps.items()}, 2)
    K.validate()
    return [K, BifilteredComplex((0, 1), {}, 2)]


HAND_BUILT = hand_built_complexes()


class TestSliceKernelMatchesSampledWalk:
    """The closed-form constant-m slice gives the barcode of the former walk
    along a sampled path, printed alike, for masses at, between and beyond
    the values and for grids on, between and short of the corners."""

    @pytest.mark.parametrize("K", SEEDED + HAND_BUILT)
    def test_constant_m(self, K):
        rs, ms = K.critical_grid()
        masses = list(ms) + midpoints(ms) + [-math.inf, math.inf, math.nan]
        grids = [None, [0.0], [-math.inf]]
        if rs:
            finite = [r for r in rs if math.isfinite(r)]
            grids += [
                [r for r in midpoints(rs) if r != math.inf],
                list(rs[: len(rs) // 2]),
                [rs[len(rs) // 2]],
                midpoints(finite)[len(finite) // 2 :],
            ]
        for m in masses:
            for grid in grids:
                got = slice_persistence(K, m, grid, 2)
                want = constant_m_sampled(K, m, grid, 2)
                assert got.intervals == want.intervals, (m, grid)
                assert format_barcode(got.intervals, 2) == format_barcode(
                    want.intervals, 2
                ), (m, grid)

    def test_empty_complex_table(self):
        table = betti_table(HAND_BUILT[1], [1.0, math.nan], [0.0, math.inf], 1)
        assert table.values == (((0, 0), (0, 0)), ((0, 0), (0, 0)))

    def test_hand_built_betti_table_cells(self):
        K = HAND_BUILT[0]
        rs, ms = K.critical_grid()
        m_grid = list(ms) + midpoints(ms) + [-math.inf, math.inf, math.nan]
        r_grid = list(rs) + midpoints(rs) + [-2.0, -math.inf, math.nan]
        table = betti_table(K, m_grid, r_grid, 1)
        for i, m in enumerate(m_grid):
            for j, r in enumerate(r_grid):
                assert table.at(i, j) == betti(K.complex_at(m, r), 1), (m, r)


class TestDiagonalBarcode:
    def test_matches_slice_on_shared_grid(self):
        space = FiniteMetricSpace.from_points(
            [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        )
        K = intrinsic_dc(space, DiscreteMeasure.counting(4))
        got = diagonal_barcode(K, 2.0, 0.0, 2)
        path = MonotonePath.diagonal(2.0, 0.0, [0.0, 1.0, RT2, 2.0])
        want = slice_persistence_sampled(K, path, 2)
        assert got.intervals == want.intervals
        assert got.degree(0) == ((1.0, math.inf),)
        assert got.degree(2) == ((1.0, RT2),)

    def test_no_bar_is_born_at_infinity(self):
        # along (inf - t, t) and (2 - t, -inf + t) every simplex enters at
        # t = inf: no bar at all, as at the constant mass m = inf
        space = FiniteMetricSpace.from_points([(0.0, 0.0), (1.0, 0.0), (3.0, 0.0)])
        K = intrinsic_dc(space, DiscreteMeasure.counting(3))
        for m0, r0 in ((math.inf, 0.0), (2.0, -math.inf)):
            assert diagonal_barcode(K, m0, r0, 2).intervals == {}
        assert slice_persistence(K, math.inf).intervals == {}


class TestInclusionInducesIso:
    def test_identity_like(self):
        circle = closure_of([(0, 1), (1, 2), (0, 2)])
        pendant = closure_of([(0, 1), (1, 2), (0, 2), (0, 3)])
        assert inclusion_induces_iso(circle, pendant, 1) == (True, True)

    def test_merged_components(self):
        sub = closure_of([(0,), (1,)])
        full = closure_of([(0, 1)])
        assert inclusion_induces_iso(sub, full, 1) == (False, True)

    def test_filled_cycle(self):
        circle = closure_of([(0, 1), (1, 2), (0, 2)])
        disk = closure_of([(0, 1, 2)])
        assert inclusion_induces_iso(circle, disk, 1) == (True, False)

    def test_new_component_born(self):
        sub = closure_of([(0,)])
        full = closure_of([(0,), (1, 2)])
        assert inclusion_induces_iso(sub, full, 1) == (False, True)

    def test_rejects_non_inclusion(self):
        with pytest.raises(NotAnInclusion):
            inclusion_induces_iso(closure_of([(0, 1)]), closure_of([(0,), (1,)]), 1)


def bars_across(bars, k: int, s: float, t: float) -> int:
    """Number of k-bars [b, d) born by step s and alive past step t."""
    return sum(1 for b, d in bars.degree(k) if b <= s and d > t)


class TestPersistentBettiOracle:
    """Bars against dense persistent Betti numbers, which share nothing with
    the column reduction: at every pair of steps s <= t, the k-bars born by s
    and alive past t number dim Z_k(K_s) - dim(Z_k(K_s) & B_k(K_t))."""

    @pytest.mark.parametrize("K", SEEDED + HAND_BUILT)
    def test_constant_m_slices(self, K):
        rs, ms = K.critical_grid()
        d = max(K.dim_cap - 1, 0)
        for m in [-math.inf, *ms]:
            bars = slice_persistence(K, m, None, d)
            # the finite radii where the slice changes: no bar ends elsewhere
            steps, at = [], []
            for r in filter(math.isfinite, rs):
                cell = K.complex_at(m, r).simplices
                if not at or cell != at[-1]:
                    steps.append(r)
                    at.append(cell)
            want = persistent_betti_dense(at, d)
            for i, s in enumerate(steps):
                for j in range(i, len(steps)):
                    got = tuple(bars_across(bars, k, s, steps[j]) for k in range(d + 1))
                    assert got == want[i, j], (m, s, steps[j])

    @pytest.mark.parametrize("seed", range(12))
    def test_two_step_inclusions(self, seed):
        # inclusion_induces_iso's filtration: sub at step 0, the rest at 1
        rng = random.Random(seed)
        verts = range(rng.randint(4, 7))
        tops = [rng.sample(verts, rng.randint(1, 3)) for _ in range(rng.randint(2, 9))]
        full = closure_of(tops)
        sub = closure_of(rng.sample(tops, rng.randint(1, len(tops))))
        K = BifilteredComplex(
            full.universe,
            {s: Staircase(((0.0 if s in sub.simplices else 1.0, 1.0),)) for s in full.simplices},
            2,
        )
        K.validate()
        bars = slice_persistence(K, 1.0, None, 1)
        want = persistent_betti_dense([sub.simplices, full.simplices], 1)
        for s, t in want:
            got = tuple(bars_across(bars, k, float(s), float(t)) for k in range(2))
            assert got == want[s, t], (tops, s, t)
        assert inclusion_induces_iso(sub, full, 1) == inclusion_iso_dense(
            sub.simplices, full.simplices, 1
        )


class TestBottleneck:
    def test_known_values(self):
        assert bottleneck_distance([(0.0, 2.0)], []) == 1.0
        assert bottleneck_distance([(0.0, 2.0)], [(0.5, 2.5)]) == 0.5
        assert bottleneck_distance([(0.0, math.inf)], [(1.0, math.inf)]) == 1.0
        assert bottleneck_distance([(0.0, math.inf)], []) == math.inf
        assert bottleneck_distance([(0.0, 4.0), (0.0, 1.0)], [(0.2, 3.8)]) == 0.5
        assert bottleneck_distance([(1.0, 1.0)], []) == 0.0
        assert bottleneck_distance([], []) == 0.0

    def test_matches_brute_force(self):
        rng = random.Random(19)
        for _ in range(60):
            def bars():
                out = []
                for _ in range(rng.randint(0, 4)):
                    b = round(rng.uniform(0, 2), 2)
                    if rng.random() < 0.15:
                        out.append((b, math.inf))
                    else:
                        out.append((b, b + round(rng.uniform(0.1, 2), 2)))
                return out

            b0, b1 = bars(), bars()
            assert bottleneck_distance(b0, b1) == pytest.approx(
                bottleneck_brute(b0, b1)
            ), (b0, b1)

    def test_metric_properties(self):
        rng = random.Random(31)
        for _ in range(20):
            def bars():
                out = []
                for _ in range(rng.randint(1, 3)):
                    b = round(rng.uniform(0, 2), 1)
                    out.append((b, b + round(rng.uniform(0.1, 1.5), 1)))
                return out

            x, y, z = bars(), bars(), bars()
            dxy = bottleneck_distance(x, y)
            assert dxy == bottleneck_distance(y, x)
            assert bottleneck_distance(x, x) == 0.0
            assert dxy <= bottleneck_distance(x, z) + bottleneck_distance(z, y) + 1e-12


class TestBarcode:
    def test_normalization(self):
        bc = Barcode({1: [(2.0, 3.0), (0.0, 1.0)]})
        assert bc.degree(1) == ((0.0, 1.0), (2.0, 3.0))
        assert bc.degree(0) == ()
        assert bc.degrees() == (1,)
