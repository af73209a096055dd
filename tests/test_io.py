"""File formats: CSV ingestion, staircase tables, Betti CSV/SVG, firep-style.

Round trips must be byte-identical (writers use repr floats and sorted
iteration); parse failures must carry the offending line number.
"""

import math
import xml.etree.ElementTree as ET

import pytest

from dcech import (
    DiscreteMeasure,
    FiniteMetricSpace,
    ParseError,
    UnsupportedDimension,
    betti_table,
    format_barcode,
    intrinsic_dc,
    load_matrix_csv,
    load_planar_csv,
    read_staircase_table,
    write_betti_csv,
    write_betti_svg,
    write_firep,
    write_staircase_table,
)


@pytest.fixture
def l3_complex():
    space = FiniteMetricSpace.from_points([(0.0, 0.0), (1.0, 0.0), (3.0, 0.0)])
    return intrinsic_dc(space, DiscreteMeasure.counting(3))


class TestLoadPlanarCsv:
    def test_full_header(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("x,y,w\n0,0,1\n1,0,2.5\n\n3,0,1\n")
        space, mu = load_planar_csv(str(p), weight_col="w")
        assert space.n == 3
        assert space.d(0, 2) == 3.0
        assert mu.weights == (1.0, 2.5, 1.0)

    def test_x_only_means_a_line(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("x\n0\n2\n")
        space, mu = load_planar_csv(str(p))
        assert space.d(0, 1) == 2.0
        assert mu.weights == (1.0, 1.0)

    def test_missing_weight_column(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("x,y\n0,0\n")
        with pytest.raises(ParseError) as exc:
            load_planar_csv(str(p), weight_col="mass")
        assert exc.value.line == 1

    def test_bad_float_carries_line_number(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("x,y\n0,0\nzap,1\n")
        with pytest.raises(ParseError) as exc:
            load_planar_csv(str(p))
        assert exc.value.line == 3

    @pytest.mark.parametrize("row", ["nan,1,1", "0,inf,1", "0,1,-inf", "0,1,nan"])
    def test_non_finite_field_carries_line_number(self, tmp_path, row):
        p = tmp_path / "pts.csv"
        p.write_text(f"x,y,w\n0,0,1\n{row}\n")
        with pytest.raises(ParseError) as exc:
            load_planar_csv(str(p), weight_col="w")
        assert exc.value.line == 3

    def test_empty_and_headless(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ParseError):
            load_planar_csv(str(empty))
        no_x = tmp_path / "nox.csv"
        no_x.write_text("a,b\n1,2\n")
        with pytest.raises(ParseError) as exc:
            load_planar_csv(str(no_x))
        assert exc.value.line == 1
        header_only = tmp_path / "h.csv"
        header_only.write_text("x,y\n")
        with pytest.raises(ParseError):
            load_planar_csv(str(header_only))


class TestLoadMatrixCsv:
    def test_unlabeled(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("d,d,d\n0,1,3\n1,0,2\n3,2,0\n")
        space, labels = load_matrix_csv(str(p))
        assert labels is None
        assert space.n == 3 and space.d(0, 2) == 3.0

    def test_labeled(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("name,a,b\na,0,1\nb,1,0\n")
        space, labels = load_matrix_csv(str(p))
        assert labels == ("a", "b")
        assert space.labels == ("a", "b")

    def test_non_square(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("h\n0,1\n1,0\n2,1\n")
        with pytest.raises(ParseError):
            load_matrix_csv(str(p))

    def test_header_only(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("h\n")
        with pytest.raises(ParseError):
            load_matrix_csv(str(p))

    def test_bad_entry_line_number(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("h\n0,1\nx,0\n")
        with pytest.raises(ParseError) as exc:
            load_matrix_csv(str(p))
        assert exc.value.line == 3


class TestStaircaseTable:
    EXPECTED = (
        "# staircase-table v1\n"
        "# universe: 0 1 2\n"
        "# dim_cap: 3\n"
        "0\t0.0:1.0 1.0:2.0 2.0:3.0\n"
        "1\t0.0:1.0 1.0:2.0 2.0:3.0\n"
        "2\t0.0:1.0 2.0:3.0\n"
        "0 1\t1.0:2.0 2.0:3.0\n"
        "0 2\t2.0:3.0\n"
        "1 2\t2.0:3.0\n"
        "0 1 2\t2.0:3.0\n"
    )

    def test_exact_bytes(self, l3_complex, tmp_path):
        p = tmp_path / "K.tsv"
        write_staircase_table(l3_complex, str(p))
        assert p.read_text() == self.EXPECTED

    def test_round_trip(self, l3_complex, tmp_path):
        p = tmp_path / "K.tsv"
        q = tmp_path / "K2.tsv"
        write_staircase_table(l3_complex, str(p))
        K2 = read_staircase_table(str(p))
        assert K2.universe == l3_complex.universe
        assert K2.dim_cap == l3_complex.dim_cap
        assert {s: st.steps for s, st in K2.entries.items()} == {
            s: st.steps for s, st in l3_complex.entries.items()
        }
        write_staircase_table(K2, str(q))
        assert q.read_bytes() == p.read_bytes()

    def test_parse_errors(self, tmp_path):
        bad_magic = tmp_path / "a.tsv"
        bad_magic.write_text("# staircase v9\n")
        with pytest.raises(ParseError):
            read_staircase_table(str(bad_magic))

        no_tab = tmp_path / "b.tsv"
        no_tab.write_text("# staircase-table v1\n# universe: 0\n# dim_cap: 1\n0 0.0:1.0\n")
        with pytest.raises(ParseError) as exc:
            read_staircase_table(str(no_tab))
        assert exc.value.line == 4

        bad_step = tmp_path / "c.tsv"
        bad_step.write_text("# staircase-table v1\n# universe: 0\n# dim_cap: 1\n0\tx:y\n")
        with pytest.raises(ParseError):
            read_staircase_table(str(bad_step))

        no_steps = tmp_path / "d.tsv"
        no_steps.write_text("# staircase-table v1\n# universe: 0\n# dim_cap: 1\n0\t\n")
        with pytest.raises(ParseError):
            read_staircase_table(str(no_steps))

        missing_headers = tmp_path / "e.tsv"
        missing_headers.write_text("# staircase-table v1\n0\t0.0:1.0\n")
        with pytest.raises(ParseError):
            read_staircase_table(str(missing_headers))

    @pytest.mark.parametrize(
        "body, line, reason",
        [
            ("# universe: 0 x\n# dim_cap: 1\n", 2, "invalid literal"),
            ("# universe: 0 1\n# dim_cap: one\n", 3, "invalid literal"),
            ("# universe: 0 1\n# dim_cap: 1\n1 0\t0.0:1.0\n", 4,
             "expected strictly increasing vertex ids, got '1 0'"),
            ("# universe: 0 1\n# dim_cap: 1\n0 0\t0.0:1.0\n", 4,
             "expected strictly increasing vertex ids"),
            ("# universe: 0 1\n# dim_cap: 1\n0\t1.0:1.0 0.5:2.0\n", 4,
             "steps must increase strictly"),
            ("# universe: 0\n# dim_cap: 1\n0\t0.0:1.0\n1\t0.0:1.0\n", 5,
             "simplex (1,) leaves the universe"),
        ],
    )
    def test_invalid_tables_name_the_line(self, tmp_path, body, line, reason):
        path = tmp_path / "bad.tsv"
        path.write_text("# staircase-table v1\n" + body)
        with pytest.raises(ParseError) as exc:
            read_staircase_table(str(path))
        assert exc.value.line == line
        assert reason in str(exc.value)

    def test_write_ignores_a_stale_temporary(self, l3_complex, tmp_path):
        # a writer that died, or one running beside this one, may hold
        # <path>.tmp; every write uses a temporary of its own
        p = tmp_path / "K.tsv"
        (tmp_path / "K.tsv.tmp").mkdir()
        write_staircase_table(l3_complex, str(p))
        assert p.read_text() == self.EXPECTED
        assert sorted(f.name for f in tmp_path.iterdir()) == ["K.tsv", "K.tsv.tmp"]


class TestBettiOutputs:
    def test_csv_exact(self, l3_complex, tmp_path):
        table = betti_table(
            l3_complex, m_grid=[1.0], r_grid=[0.0, 1.0, 2.0], max_degree=1
        )
        p = tmp_path / "b.csv"
        write_betti_csv(table, str(p))
        assert p.read_text() == (
            "m,r,beta0,beta1\n"
            "1.0,0.0,3,0\n"
            "1.0,1.0,2,0\n"
            "1.0,2.0,1,0\n"
        )

    def test_svg_is_valid_xml(self, l3_complex, tmp_path):
        table = betti_table(l3_complex)
        p = tmp_path / "b.svg"
        write_betti_svg(table, 0, str(p))
        root = ET.fromstring(p.read_text())
        assert root.tag.endswith("svg")
        rects = [e for e in root.iter() if e.tag.endswith("rect")]
        # one cell per grid point plus one legend swatch per distinct value
        assert len(rects) >= len(table.m_grid) * len(table.r_grid)


class TestFirep:
    def test_l3_dim1_exact(self, l3_complex, tmp_path):
        p = tmp_path / "f.txt"
        counts = write_firep(l3_complex, 1, str(p))
        assert counts == (4, 8)
        assert p.read_text() == (
            "firep-style v1\n"
            "grades (r, -m)\n"
            "4 8\n"
            "1.0 -2.0 : 1 4\n"
            "2.0 -3.0 : 2 5\n"
            "2.0 -3.0 : 2 7\n"
            "2.0 -3.0 : 5 7\n"
            "0.0 -1.0\n"
            "1.0 -2.0\n"
            "2.0 -3.0\n"
            "0.0 -1.0\n"
            "1.0 -2.0\n"
            "2.0 -3.0\n"
            "0.0 -1.0\n"
            "2.0 -3.0\n"
        )

    def test_l3_dim2(self, l3_complex, tmp_path):
        p = tmp_path / "f.txt"
        counts = write_firep(l3_complex, 2, str(p))
        assert counts == (1, 4)
        lines = p.read_text().splitlines()
        assert lines[3] == "2.0 -3.0 : 1 2 3"

    def test_dimension_bounds(self, l3_complex, tmp_path):
        p = tmp_path / "f.txt"
        with pytest.raises(UnsupportedDimension):
            write_firep(l3_complex, 0, str(p))
        with pytest.raises(UnsupportedDimension):
            write_firep(l3_complex, 4, str(p))


class TestFormatBarcode:
    def test_exact_text(self):
        got = format_barcode({0: [(0.0, 1.0), (0.0, 2.0), (0.0, math.inf)]}, 1)
        assert got == "H0: [0,1) [0,2) [0,inf)\nH1: (none)\n"

    def test_sorting_and_precision(self):
        got = format_barcode({0: [(0.5, 0.75), (0.0, 0.25)]}, 0)
        assert got == "H0: [0,0.25) [0.5,0.75)\n"
