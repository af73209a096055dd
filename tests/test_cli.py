"""End-to-end tests of the command-line interface.

Every test drives ``dcech.cli.main`` directly with an argv list, captures
stdout/stderr, and checks the exit code contract: 0 on success, 1 when a
verification suite or epsilon check fails, 2 on usage or data errors.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcech import (
    DiscreteMeasure,
    FiniteMetricSpace,
    intrinsic_dc,
    write_staircase_table,
)
import dcech
from dcech.cli import build_parser, main

L3_POINTS = "x,y\n0,0\n1,0\n3,0\n"
L3_MATRIX = "d1,d2,d3\n0,1,3\n1,0,2\n3,2,0\n"

L3_SLICE_M1 = "H0: [0,1) [0,2) [0,inf)\nH1: (none)\nH2: (none)\n"

L3_BETTI_CSV = (
    "m,r,beta0,beta1,beta2\n"
    "1.0,0.0,3,0,0\n"
    "1.0,1.0,2,0,0\n"
    "1.0,2.0,1,0,0\n"
)


@pytest.fixture
def points_csv(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text(L3_POINTS)
    return str(path)


@pytest.fixture
def matrix_csv(tmp_path):
    path = tmp_path / "matrix.csv"
    path.write_text(L3_MATRIX)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuild:
    def test_writes_staircase_table(self, tmp_path, capsys, points_csv):
        out = tmp_path / "out"
        code, stdout, _ = run(
            capsys, ["build", "--input", points_csv, "--out", str(out)]
        )
        assert code == 0
        target = out / "staircases.txt"
        assert stdout == f"wrote {target}: 7 simplices, dim_cap 3\n"
        space = FiniteMetricSpace.from_points([(0, 0), (1, 0), (3, 0)])
        expected = tmp_path / "expected.txt"
        write_staircase_table(
            intrinsic_dc(space, DiscreteMeasure.counting(3), 3), str(expected)
        )
        assert target.read_bytes() == expected.read_bytes()

    def test_matrix_input_uses_counting_measure(self, tmp_path, capsys, matrix_csv):
        code, stdout, _ = run(
            capsys,
            ["build", "--kind", "matrix", "--input", matrix_csv,
             "--out", str(tmp_path)],
        )
        assert code == 0
        assert "7 simplices" in stdout

    def test_matrix_with_weights_is_an_error(self, tmp_path, capsys, matrix_csv):
        code, _, stderr = run(
            capsys,
            ["build", "--kind", "matrix", "--input", matrix_csv,
             "--weights", "w", "--out", str(tmp_path)],
        )
        assert code == 2
        assert "error: --weights needs planar input" in stderr

    def test_missing_input_is_an_error(self, tmp_path, capsys):
        code, _, stderr = run(capsys, ["build", "--out", str(tmp_path)])
        assert code == 2
        assert "no input file given" in stderr

    def test_bad_dim_cap_is_an_error(self, tmp_path, capsys, points_csv):
        code, _, stderr = run(
            capsys,
            ["build", "--input", points_csv, "--dim-cap", "0",
             "--out", str(tmp_path)],
        )
        assert code == 2
        assert stderr == "error: dim_cap must be >= 1, got 0\n"

    def test_malformed_csv_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n0,zero\n")
        code, _, stderr = run(
            capsys, ["build", "--input", str(bad), "--out", str(tmp_path)]
        )
        assert code == 2
        assert "error:" in stderr and "bad.csv:2:" in stderr


class TestHilbert:
    def test_csv_and_svg_outputs(self, tmp_path, capsys, points_csv):
        out = tmp_path / "h"
        code, stdout, _ = run(
            capsys,
            ["hilbert", "--input", points_csv, "--m-grid", "1",
             "--r-grid", "0,1,2", "--out", str(out)],
        )
        assert code == 0
        csv_path = out / "betti.csv"
        assert csv_path.read_text() == L3_BETTI_CSV
        listed = stdout.split()
        assert listed[0] == "wrote"
        assert str(csv_path) in listed
        for k in range(3):
            svg = out / f"betti_deg{k}.svg"
            assert str(svg) in listed
            root = ET.fromstring(svg.read_bytes())
            assert root.tag.endswith("svg")

    def test_artifact_route_matches_direct(self, tmp_path, capsys, points_csv):
        code, _, _ = run(
            capsys, ["build", "--input", points_csv, "--out", str(tmp_path)]
        )
        assert code == 0
        artifact = str(tmp_path / "staircases.txt")
        direct, via_artifact = tmp_path / "d", tmp_path / "a"
        for argv, out in (
            (["hilbert", "--input", points_csv], direct),
            (["hilbert", "--artifact", artifact], via_artifact),
        ):
            code, _, _ = run(
                capsys,
                argv + ["--m-grid", "1", "--r-grid", "0,1,2", "--out", str(out)],
            )
            assert code == 0
        assert (direct / "betti.csv").read_bytes() == (
            via_artifact / "betti.csv"
        ).read_bytes()


    @pytest.mark.parametrize("route", ["input", "artifact"])
    def test_max_degree_needs_a_higher_dim_cap(self, tmp_path, capsys, route):
        # at r = 1 the triangle's 2-simplex fills its loop; at dim_cap 1 it
        # is missing, and a 1-skeleton's beta1 = 1 would be written
        cloud = tmp_path / "triangle.csv"
        cloud.write_text("x,y,w\n0,0,1\n1,0,1\n0,1,1\n")
        for cap, want in (("1", 2), ("2", 0)):
            out = tmp_path / cap
            source = ["--input", str(cloud), "--weights", "w", "--dim-cap", cap]
            if route == "artifact":
                code, _, _ = run(capsys, ["build", *source, "--out", str(out)])
                assert code == 0
                source = ["--artifact", str(out / "staircases.txt")]
            code, stdout, stderr = run(
                capsys,
                ["hilbert", *source, "--max-degree", "1", "--m-grid", "1",
                 "--r-grid", "1", "--out", str(out)],
            )
            assert code == want
            if want == 2:
                assert stdout == ""
                assert stderr == "error: --max-degree 1 needs dim_cap >= 2, got 1\n"
                assert not (out / "betti.csv").exists()
            else:
                assert (out / "betti.csv").read_text() == "m,r,beta0,beta1\n1.0,1.0,1,0\n"


class TestSlice:
    def test_constant_m_barcode(self, capsys, points_csv):
        code, stdout, _ = run(capsys, ["slice", "--input", points_csv, "m=1"])
        assert code == 0
        assert stdout == L3_SLICE_M1

    def test_artifact_route(self, tmp_path, capsys, points_csv):
        run(capsys, ["build", "--input", points_csv, "--out", str(tmp_path)])
        code, stdout, _ = run(
            capsys, ["slice", "--artifact", str(tmp_path / "staircases.txt"), "m=1"]
        )
        assert code == 0
        assert stdout == L3_SLICE_M1

    def test_diagonal_barcode(self, capsys, points_csv):
        code, stdout, _ = run(capsys, ["slice", "--input", points_csv, "diag 2,0"])
        assert code == 0
        assert stdout == "H0: [1,2) [1,inf)\nH1: (none)\nH2: (none)\n"

    def test_r_grid_with_a_diagonal_is_an_error(self, capsys, points_csv):
        code, stdout, stderr = run(
            capsys, ["slice", "--input", points_csv, "diag 2,0", "--r-grid=5,6"]
        )
        assert code == 2 and stdout == ""
        assert stderr == "error: --r-grid applies to m=<v> slices only\n"

    def test_backwards_r_grid_is_an_error(self, capsys, points_csv):
        code, _, stderr = run(
            capsys,
            ["slice", "--input", points_csv, "m=1", "--r-grid", "2,1"],
        )
        assert code == 2
        assert "backwards" in stderr

    def test_bad_spec_is_an_error(self, capsys, points_csv):
        code, _, stderr = run(capsys, ["slice", "--input", points_csv, "x=3"])
        assert code == 2
        assert "bad slice spec" in stderr

    def test_bad_diag_spec_is_an_error(self, capsys, points_csv):
        code, _, stderr = run(capsys, ["slice", "--input", points_csv, "diag 1"])
        assert code == 2
        assert "expected 'diag m0,r0'" in stderr


TABLE_HEAD = "# staircase-table v1\n# universe: 0 1 2\n# dim_cap: 1\n"

# each defective table with the line and message its read must report
BAD_TABLES = {
    "missing face": (
        TABLE_HEAD + "0\t0.0:1.0\n0 1\t1.0:1.0\n",
        5, "face (1,) of (0, 1) has no entry",
    ),
    "face below coface": (
        TABLE_HEAD + "0\t0.0:1.0\n1\t0.0:1.0\n0 1\t1.0:2.0\n",
        6, "face (0,) value 1.0 below 2.0 of (0, 1) at r=1.0",
    ),
    "duplicate row": (
        TABLE_HEAD + "0\t0.0:1.0\n1\t0.0:1.0\n0\t0.0:2.0\n",
        6, "duplicate row for (0,), first at line 4",
    ),
    "above dim_cap": (
        TABLE_HEAD + "".join(
            f"{s}\t0.0:1.0\n" for s in ("0", "1", "2", "0 1", "0 2", "1 2", "0 1 2")
        ),
        10, "simplex (0, 1, 2) exceeds dim_cap 1",
    ),
    "nan radius": (TABLE_HEAD + "0\t0.0:1.0\n1\tnan:1.0\n", 5, "corner 'nan:1.0' is nan"),
    "nan value": (TABLE_HEAD + "0\t0.0:nan\n", 4, "corner '0.0:nan' is nan"),
}


class TestBadArtifact:
    @pytest.mark.parametrize("defect", sorted(BAD_TABLES))
    @pytest.mark.parametrize(
        "argv", [["hilbert"], ["slice", "m=1"], ["slice", "diag 2,0"]],
        ids=["hilbert", "slice-m", "slice-diag"],
    )
    def test_exits_two_with_one_line(self, tmp_path, monkeypatch, capsys, defect, argv):
        monkeypatch.chdir(tmp_path)
        text, line, reason = BAD_TABLES[defect]
        table = tmp_path / "bad.txt"
        table.write_text(text)
        code, stdout, stderr = run(capsys, argv + ["--artifact", str(table)])
        assert code == 2
        assert stdout == ""
        assert stderr == f"error: {table}:{line}: {reason}\n"


class TestBadInput:
    """Each case exits 2 with one stderr line naming the problem."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["build", "--input", "nope.csv"],
            ["slice", "--artifact", "nope.txt", "m=1"],
            ["prohorov", "nope.csv", "x.csv"],
        ],
        ids=["build", "slice", "prohorov"],
    )
    def test_missing_file(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        code, stdout, stderr = run(capsys, argv)
        assert code == 2
        assert stdout == ""
        missing = next(a for a in argv if a.startswith("nope"))
        assert stderr.startswith(f"error: {missing}: ")
        assert stderr.count("\n") == 1 and "Traceback" not in stderr

    @pytest.mark.parametrize(
        "argv, bad",
        [
            (["slice", "m=nan"], "bad slice spec"),
            (["slice", "diag nan,0"], "bad slice spec"),
            (["slice", "m=1", "--r-grid", "0,NaN"], "bad grid"),
            (["hilbert", "--m-grid", "nan"], "bad grid"),
            (["hilbert", "--r-grid", "0,nan"], "bad grid"),
        ],
        ids=["slice-m", "slice-diag", "slice-r-grid", "hilbert-m", "hilbert-r"],
    )
    def test_nan_parameter(self, tmp_path, monkeypatch, capsys, points_csv, argv, bad):
        monkeypatch.chdir(tmp_path)
        code, stdout, stderr = run(capsys, argv + ["--input", points_csv])
        assert code == 2
        assert stdout == ""
        assert stderr.startswith(f"error: {bad}") and "nan is not" in stderr
        assert stderr.count("\n") == 1
        assert os.listdir(tmp_path) == ["points.csv"]

    @pytest.mark.parametrize(
        "argv, text, where",
        [
            (["prohorov", "{f}", "{f}"], "x,y,w\n0,0,1\n1,0,inf\n", ":3: "),
            (["build", "--input", "{f}", "--weights", "w"], "x,y,w\n0,0,1\n1,0,inf\n",
             ":3: "),
            (["build", "--input", "{f}"], "x,y\n0,0\nnan,1\n", ":3: "),
            (["prohorov", "{f}", "{f}"], "x,y,w\n0,nan,1\n1,0,1\n", ":2: "),
            (["prohorov", "{f}", "{f}", "--check", "nan"], "x,y,w\n0,0,1\n1,0,1\n",
             "--check"),
        ],
        ids=["prohorov-inf-weight", "build-inf-weight", "build-nan-coordinate",
             "prohorov-nan-coordinate", "prohorov-nan-check"],
    )
    def test_non_finite_input(self, tmp_path, monkeypatch, capsys, argv, text, where):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "w.csv"
        path.write_text(text)
        code, stdout, stderr = run(capsys, [a.format(f=path) for a in argv])
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error: ") and where in stderr
        assert stderr.count("\n") == 1 and "Traceback" not in stderr
        assert os.listdir(tmp_path) == ["w.csv"]

    def test_infinite_check_stays_accepted(self, tmp_path, capsys):
        path = tmp_path / "w.csv"
        path.write_text("x,y,w\n0,0,1\n1,0,1\n")
        code, stdout, stderr = run(capsys, ["prohorov", str(path), str(path),
                                            "--check", "inf"])
        assert (code, stdout, stderr) == (0, "pass: eps inf slack inf witness []\n", "")

    def test_infinite_parameters_stay_accepted(self, capsys, points_csv):
        for argv in (["m=-inf"], ["m=inf"], ["m=1", "--r-grid=-inf,1"], ["diag inf,0"]):
            code, stdout, stderr = run(capsys, ["slice", "--input", points_csv] + argv)
            assert (code, stderr) == (0, "")
            assert stdout.startswith("H0:")

    def test_infinite_slice_grid_radius_is_rejected(self, capsys, points_csv):
        # a bar dying at r = inf would print as [b,inf), like an essential one
        for grid in ("0,1,inf", "0.5,inf"):
            argv = ["slice", "--input", points_csv, "m=1", f"--r-grid={grid}"]
            code, stdout, stderr = run(capsys, argv)
            assert (code, stdout) == (2, "")
            assert stderr.startswith("error: ") and stderr.count("\n") == 1
            assert "inf" in stderr

    def test_hilbert_keeps_infinite_columns(self, tmp_path, capsys, points_csv):
        out = tmp_path / "h"
        argv = ["hilbert", "--input", points_csv, "--m-grid", "1",
                "--r-grid=0.5,inf", "--out", str(out)]
        assert run(capsys, argv)[0] == 0
        assert (out / "betti.csv").read_text().splitlines()[1:] == [
            "1.0,0.5,3,0,0", "1.0,inf,1,0,0"
        ]


class TestVerify:
    def test_passing_suite_exits_zero(self, capsys):
        code, stdout, _ = run(capsys, ["verify", "sandwich", "--trials", "2"])
        assert code == 0
        assert "sandwich: PASS (2 trials)" in stdout
        assert stdout.rstrip().endswith("all checks passed")

    def test_failing_suite_exits_one(self, capsys):
        code, stdout, _ = run(
            capsys, ["verify", "duality", "--seed", "42", "--trials", "5"]
        )
        assert code == 1
        assert "duality: FAIL (5 trials)" in stdout
        assert "  trial 2: nerve" in stdout
        assert stdout.rstrip().endswith("verification FAILED")

    def test_all_runs_every_suite(self, capsys):
        code, stdout, _ = run(
            capsys, ["verify", "all", "--seed", "7", "--trials", "2"]
        )
        assert code == 1
        lines = stdout.splitlines()
        heads = [ln.split(":")[0] for ln in lines if ln and not ln.startswith(" ")]
        for name in ("sandwich", "duality", "restriction", "nerve",
                     "stability", "lemma75", "prop76"):
            assert name in heads

    def test_unknown_suite_is_a_usage_error(self, capsys):
        code, _, _ = run(capsys, ["verify", "bogus"])
        assert code == 2

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_is_an_error(self, capsys, trials):
        code, stdout, stderr = run(capsys, ["verify", "sandwich", "--trials", trials])
        assert code == 2
        assert stdout == ""
        assert stderr == f"error: --trials must be >= 1, got {trials}\n"


class TestProhorov:
    def write_pair(self, tmp_path):
        f0 = tmp_path / "mu0.csv"
        f1 = tmp_path / "mu1.csv"
        f0.write_text("x,y,w\n0.0,0.0,1.0\n0.3,0.0,0.0\n")
        f1.write_text("x,y,w\n0.0,0.0,0.0\n0.3,0.0,1.0\n")
        return str(f0), str(f1)

    def test_distance_between_shifted_point_masses(self, tmp_path, capsys):
        f0, f1 = self.write_pair(tmp_path)
        code, stdout, _ = run(capsys, ["prohorov", f0, f1])
        assert code == 0
        assert stdout == "0.3\n"

    def test_check_passes_at_the_distance(self, tmp_path, capsys):
        f0, f1 = self.write_pair(tmp_path)
        code, stdout, _ = run(capsys, ["prohorov", f0, f1, "--check", "0.3"])
        assert code == 0
        assert stdout.startswith("pass: eps 0.3 slack ")

    def test_check_fails_below_the_distance(self, tmp_path, capsys):
        f0, f1 = self.write_pair(tmp_path)
        code, stdout, _ = run(capsys, ["prohorov", f0, f1, "--check", "0.1"])
        assert code == 1
        assert stdout.startswith("fail: eps 0.1 slack ")
        assert "witness [" in stdout

    def test_check_decides_like_the_distance(self, tmp_path, capsys):
        # the distance is a mass difference, 0.75 - 0.5; one float below it
        # the check must fail even though adding eps back rounds to 0.75
        f0 = tmp_path / "mu0.csv"
        f1 = tmp_path / "mu1.csv"
        f0.write_text("x,y,w\n0,0,0.75\n5,0,0.25\n")
        f1.write_text("x,y,w\n0,0,0.5\n5,0,0.5\n")
        code, stdout, _ = run(capsys, ["prohorov", str(f0), str(f1)])
        assert (code, stdout) == (0, "0.25\n")
        code, stdout, _ = run(capsys, ["prohorov", str(f0), str(f1), "--check", "0.25"])
        assert code == 0
        assert stdout == "pass: eps 0.25 slack 0.0 witness [0]\n"
        below = repr(math.nextafter(0.25, 0.0))
        code, stdout, _ = run(capsys, ["prohorov", str(f0), str(f1), "--check", below])
        assert code == 1
        assert stdout.startswith(f"fail: eps {below} slack -")

    def test_different_points_is_an_error(self, tmp_path, capsys):
        f0, _ = self.write_pair(tmp_path)
        f2 = tmp_path / "mu2.csv"
        f2.write_text("x,y,w\n0.0,0.0,1.0\n0.4,0.0,0.0\n")
        code, _, stderr = run(capsys, ["prohorov", f0, str(f2)])
        assert code == 2
        assert "different points" in stderr

    def write_large_pair(self, tmp_path):
        rows0 = ["x,y,w"]
        rows1 = ["x,y,w"]
        for i in range(20):
            rows0.append(f"{i}.0,0.0,1.0")
            rows1.append(f"{i}.0,0.0,{2.0 if i == 0 else 1.0}")
        f0 = tmp_path / "big0.csv"
        f1 = tmp_path / "big1.csv"
        f0.write_text("\n".join(rows0) + "\n")
        f1.write_text("\n".join(rows1) + "\n")
        return str(f0), str(f1)

    def test_large_support_prints_the_distance(self, tmp_path, capsys):
        # the total masses 20 and 21 differ by 1 at every threshold, and the
        # points are 1 apart
        f0, f1 = self.write_large_pair(tmp_path)
        code, stdout, stderr = run(capsys, ["prohorov", f0, f1])
        assert (code, stdout, stderr) == (0, "1.0\n", "")

    def test_large_support_check_still_works(self, tmp_path, capsys):
        f0, f1 = self.write_large_pair(tmp_path)
        code, stdout, _ = run(capsys, ["prohorov", f0, f1, "--check", "25"])
        assert code == 0
        assert stdout.startswith("pass:")

    def test_forty_points_agree_with_the_check(self, tmp_path, capsys):
        rng = random.Random(40)
        points = [(rng.random(), rng.random()) for _ in range(40)]
        files = []
        for name in ("a.csv", "b.csv"):
            rows = ["x,y,w"] + [f"{x!r},{y!r},{rng.randint(0, 8) / 64!r}"
                                for x, y in points]
            rows[1] = rows[1][: rows[1].rindex(",")] + ",0.125"
            path = tmp_path / name
            path.write_text("\n".join(rows) + "\n")
            files.append(str(path))
        code, stdout, stderr = run(capsys, ["prohorov", *files])
        assert (code, stderr) == (0, "")
        dist = float(stdout)
        assert repr(dist) + "\n" == stdout and dist > 0.0
        code, stdout, _ = run(capsys, ["prohorov", *files, "--check", repr(dist)])
        assert code == 0 and stdout.startswith("pass:")
        below = repr(math.nextafter(dist, -math.inf))
        code, stdout, _ = run(capsys, ["prohorov", *files, "--check", below])
        assert code == 1 and stdout.startswith(f"fail: eps {below} slack -")


class TestExportFirep:
    def test_dim_one_counts(self, tmp_path, capsys, points_csv):
        out = tmp_path / "f"
        code, stdout, _ = run(
            capsys,
            ["export-firep", "--input", points_csv, "--dim", "1",
             "--out", str(out)],
        )
        assert code == 0
        target = out / "firep_d1.txt"
        assert stdout == f"wrote {target}: 4 generators in dim 1, 8 in dim 0\n"
        lines = target.read_text().splitlines()
        assert lines[0] == "firep-style v1"
        assert lines[2] == "4 8"

    def test_artifact_route(self, tmp_path, capsys, points_csv):
        run(capsys, ["build", "--input", points_csv, "--out", str(tmp_path)])
        code, stdout, _ = run(
            capsys,
            ["export-firep", "--artifact", str(tmp_path / "staircases.txt"),
             "--dim", "2", "--out", str(tmp_path)],
        )
        assert code == 0
        assert "1 generators in dim 2, 4 in dim 1" in stdout

    def test_unsupported_dimension_is_an_error(self, tmp_path, capsys, points_csv):
        code, _, stderr = run(
            capsys,
            ["export-firep", "--input", points_csv, "--dim", "0",
             "--out", str(tmp_path)],
        )
        assert code == 2
        assert "error:" in stderr


class TestUsage:
    def test_no_arguments(self, capsys):
        assert run(capsys, [])[0] == 2

    def test_unknown_command(self, capsys):
        assert run(capsys, ["frobnicate"])[0] == 2

    def test_unknown_mode_rejected_by_parser(self, capsys, points_csv):
        code, _, _ = run(
            capsys, ["build", "--input", points_csv, "--mode", "sideways"]
        )
        assert code == 2

    def test_bad_grid_value(self, capsys, points_csv):
        code, _, stderr = run(
            capsys,
            ["hilbert", "--input", points_csv, "--r-grid", "0,apple"],
        )
        assert code == 2
        assert "bad grid" in stderr

    def test_outputs_land_in_requested_directory(self, tmp_path, capsys, points_csv):
        nested = tmp_path / "a" / "b"
        code, _, _ = run(
            capsys, ["build", "--input", points_csv, "--out", str(nested)]
        )
        assert code == 0
        assert os.path.exists(nested / "staircases.txt")


class TestOneParser:
    """main reuses one parser; each call prints what a fresh process prints."""

    CALLS = (
        ["slice", "--input", "points.csv", "--r-grid", "-1,2", "m=1"],
        ["verify", "lemma75", "--seed", "1", "--trials", "2"],
        ["verify", "nosuch"],
        ["verify", "--help"],
    )

    def test_calls_in_one_process_match_fresh_processes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("COLUMNS", "80")  # the --help text wraps at this width
        in_process = [run_quiet(argv) for argv in self.CALLS]
        assert build_parser() is build_parser()
        src = os.path.dirname(os.path.dirname(os.path.abspath(dcech.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        script = "import sys; from dcech.cli import main; sys.exit(main(sys.argv[1:]))"
        for argv, got in zip(self.CALLS, in_process):
            fresh = subprocess.run(
                [sys.executable, "-c", script, *argv],
                capture_output=True, text=True, env=env, cwd=tmp_path, check=False,
            )
            assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes = [code for code, _, _ in in_process]
        assert codes == [2, 0, 2, 0]


NUMBER_TEXTS = st.one_of(
    st.sampled_from(
        ["0", "1", "2.5", "-1", "-0", "1e-300", "1e309", "inf", "-inf", "nan", "NaN",
         "x", "", " ", "1_0", "0x1", "+3", "--1"]
    ),
    st.floats().map(repr),
)
GRID_TEXTS = st.one_of(
    st.lists(NUMBER_TEXTS, max_size=6).map(",".join), st.text(max_size=8)
)
SLICE_SPECS = st.one_of(
    NUMBER_TEXTS.map(lambda t: "m=" + t),
    st.tuples(NUMBER_TEXTS, NUMBER_TEXTS).map(lambda p: f"diag {p[0]},{p[1]}"),
    st.lists(NUMBER_TEXTS, max_size=3).map(lambda ts: "diag " + " ".join(ts)),
    st.text(max_size=10),
)


@pytest.fixture(scope="module")
def weighted_artifact(tmp_path_factory):
    root = tmp_path_factory.mktemp("texts")
    space = FiniteMetricSpace.from_points([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (3.0, 0.5)])
    K = intrinsic_dc(space, DiscreteMeasure((1.0, 2.0, 1.0, 3.0)), 2)
    path = root / "staircases.txt"
    write_staircase_table(K, str(path))
    return str(path), str(root / "out")


def run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(code, stdout, stderr):
    assert code in (0, 2)
    if code == 0:
        assert stderr == ""
    else:
        assert stdout == ""
        assert stderr.startswith("error: ") and stderr.count("\n") == 1


class TestParameterTexts:
    """Any slice spec or grid text ends in exit 0, or in exit 2 with one
    stderr line: no traceback, whatever the parser or the kernel meets."""

    @settings(derandomize=True, max_examples=80, deadline=None, database=None)
    @given(spec=SLICE_SPECS, r_grid=st.one_of(st.none(), GRID_TEXTS))
    def test_slice(self, weighted_artifact, spec, r_grid):
        table, _ = weighted_artifact
        grid = [] if r_grid is None else [f"--r-grid={r_grid}"]
        assert_clean_exit(*run_quiet(["slice", "--artifact", table] + grid + ["--", spec]))

    @settings(derandomize=True, max_examples=30, deadline=None, database=None)
    @given(r_grid=GRID_TEXTS, m_grid=GRID_TEXTS)
    def test_hilbert(self, weighted_artifact, r_grid, m_grid):
        table, out = weighted_artifact
        argv = ["hilbert", "--artifact", table, f"--r-grid={r_grid}",
                f"--m-grid={m_grid}", "--max-degree", "1", "--out", out]
        assert_clean_exit(*run_quiet(argv))

    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(spec=SLICE_SPECS, r_grid=GRID_TEXTS)
    def test_slice_without_escapes(self, weighted_artifact, spec, r_grid):
        # no "=" and no "--": a text starting with "-" reaches argparse's errors
        table, _ = weighted_artifact
        argv = ["slice", "--artifact", table, "--r-grid", r_grid, spec]
        assert_clean_exit(*run_quiet(argv))

    def test_parser_errors_are_one_line(self, weighted_artifact):
        table, _ = weighted_artifact
        code, stdout, stderr = run_quiet(
            ["slice", "--artifact", table, "--r-grid", "-1,2", "m=1"]
        )
        assert_clean_exit(code, stdout, stderr)
        assert code == 2 and "--r-grid=-1,2" in stderr
        for argv in (
            [],
            ["frobnicate"],
            ["slice", "--artifact", table, "diag", "2,0"],
            ["slice", "--artifact", table, "m=1", "--r-grid"],
            ["verify", "--trials", "many", "nerve"],
            ["build", "--mode", "sideways"],
        ):
            code, stdout, stderr = run_quiet(argv)
            assert code == 2, argv
            assert_clean_exit(code, stdout, stderr)

    def test_help_still_exits_zero(self):
        for argv in (["--help"], ["slice", "--help"]):
            code, stdout, stderr = run_quiet(argv)
            assert code == 0 and stdout.startswith("usage: dcech") and stderr == ""
