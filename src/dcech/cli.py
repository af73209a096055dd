"""Command-line interface.

Subcommands:

  build         ingest points or a distance matrix, write the staircase table
  hilbert       Betti numbers per grid cell (CSV) plus one SVG heatmap per degree
  slice         barcode of a one-parameter slice ("m=<v>" or "diag m0,r0")
  verify        seeded randomized verification suites
  prohorov      Prohorov distance between two weighted point files
  export-firep  chain-map export for two-parameter persistence tools

Exit codes: 0 success, 1 verification failure, 2 usage or data error.
All outputs are deterministic for a fixed seed and config.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from .builders import ambient_dc_finite, intrinsic_dc
from .core import BifilteredComplex, DiscreteMeasure, FiniteMetricSpace
from .errors import DcechError, DifferentSpaces, UnsupportedDimension
from .homology import betti_table, diagonal_barcode, slice_persistence
from .io import (
    format_barcode,
    load_matrix_csv,
    load_planar_csv,
    read_staircase_table,
    write_betti_csv,
    write_betti_svg,
    write_firep,
    write_staircase_table,
)
from .metrics import prohorov_check, prohorov_distance
from .planar import ambient_dc_planar
from .verify import SUITES, run_all, run_suite

__all__ = [
    "cmd_build",
    "cmd_hilbert",
    "cmd_slice",
    "cmd_verify",
    "cmd_prohorov",
    "cmd_export_firep",
    "main",
]

def _parse_grid(text: str | None) -> tuple[float, ...] | None:
    if text is None:
        return None
    try:
        grid = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise DcechError(f"bad grid {text!r}: {exc}") from exc
    if any(math.isnan(v) for v in grid):
        raise DcechError(f"bad grid {text!r}: nan is not a grid value")
    return grid


def _load_input(args: argparse.Namespace) -> tuple[FiniteMetricSpace, DiscreteMeasure]:
    if args.input is None:
        raise DcechError("no input file given (use --input or --artifact)")
    if args.kind == "matrix":
        if args.weights is not None:
            raise DcechError("--weights needs planar input; matrices have none")
        space, _ = load_matrix_csv(args.input)
        return space, DiscreteMeasure.counting(space.n)
    return load_planar_csv(args.input, weight_col=args.weights)


def _build_complex(
    args: argparse.Namespace, r_grid: tuple[float, ...] | None = None
) -> BifilteredComplex:
    space, measure = _load_input(args)
    if args.mode == "intrinsic":
        K = intrinsic_dc(space, measure, args.dim_cap)
    elif args.mode == "ambient-finite":
        K = ambient_dc_finite(space, measure, args.dim_cap)
    elif args.mode == "ambient-planar":
        K = ambient_dc_planar(space, measure, args.dim_cap)
    else:
        raise DcechError(f"unknown mode {args.mode!r}")
    if r_grid:
        K = K.restrict_r_grid(sorted(set(r_grid)))
    return K


def _resolve_complex(
    args: argparse.Namespace, r_grid: tuple[float, ...] | None = None
) -> BifilteredComplex:
    if args.artifact is not None:
        K = read_staircase_table(args.artifact)
        if r_grid:
            K = K.restrict_r_grid(sorted(set(r_grid)))
        return K
    return _build_complex(args, r_grid)


def _outdir(args: argparse.Namespace) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def cmd_build(args: argparse.Namespace) -> int:
    K = _build_complex(args, _parse_grid(args.r_grid))
    path = os.path.join(_outdir(args), "staircases.txt")
    write_staircase_table(K, path)
    print(f"wrote {path}: {len(K.entries)} simplices, dim_cap {K.dim_cap}")
    return 0


def cmd_hilbert(args: argparse.Namespace) -> int:
    r_grid = _parse_grid(args.r_grid)
    m_grid = _parse_grid(args.m_grid)
    K = _resolve_complex(args, r_grid)
    if args.max_degree > K.dim_cap - 1:
        # higher degrees would count cycles that missing simplices should kill
        raise UnsupportedDimension(
            f"--max-degree {args.max_degree} needs dim_cap >= {args.max_degree + 1}, "
            f"got {K.dim_cap}"
        )
    table = betti_table(
        K,
        m_grid=sorted(set(m_grid)) if m_grid else None,
        r_grid=sorted(set(r_grid)) if r_grid else None,
        max_degree=args.max_degree,
    )
    out = _outdir(args)
    csv_path = os.path.join(out, "betti.csv")
    write_betti_csv(table, csv_path)
    written = [csv_path]
    for k in range(args.max_degree + 1):
        svg_path = os.path.join(out, f"betti_deg{k}.svg")
        write_betti_svg(table, k, svg_path)
        written.append(svg_path)
    print("wrote " + " ".join(written))
    return 0


def _parse_path_spec(spec: str) -> tuple[str, tuple[float, ...]]:
    spec = spec.strip()
    if spec.startswith("m="):
        kind, tokens = "constant", [spec[2:]]
    elif spec.startswith("diag"):
        kind, tokens = "diag", spec[4:].replace(",", " ").split()
        if len(tokens) != 2:
            raise DcechError(f"bad slice spec {spec!r}: expected 'diag m0,r0'")
    else:
        raise DcechError(f"bad slice spec {spec!r}: expected 'm=<v>' or 'diag m0,r0'")
    try:
        params = tuple(float(tok) for tok in tokens)
    except ValueError as exc:
        raise DcechError(f"bad slice spec {spec!r}: {exc}") from exc
    if any(math.isnan(v) for v in params):
        raise DcechError(f"bad slice spec {spec!r}: nan is not a parameter")
    return kind, params


def cmd_slice(args: argparse.Namespace) -> int:
    r_grid = _parse_grid(args.r_grid)
    K = _resolve_complex(args)
    max_degree = max(K.dim_cap - 1, 0)
    kind, params = _parse_path_spec(args.spec)
    if kind == "constant":
        (m0,) = params
        bars = slice_persistence(K, m0, r_grid, max_degree)
    else:
        if r_grid is not None:
            raise DcechError("--r-grid applies to m=<v> slices only")
        m0, r0 = params
        bars = diagonal_barcode(K, m0, r0, max_degree)
    sys.stdout.write(format_barcode(bars.intervals, max_degree))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.trials is not None and args.trials < 1:
        raise DcechError(f"--trials must be >= 1, got {args.trials}")
    if args.suite == "all":
        results = run_all(args.seed, args.trials)
    else:
        results = [run_suite(args.suite, args.seed, args.trials)]
    failed = False
    for res in results:
        print(res.summary())
        for line in res.failures:
            print(f"  {line}")
        failed = failed or not res.ok
    if failed:
        print("verification FAILED")
        return 1
    print("all checks passed")
    return 0


def _load_measure_file(path: str) -> tuple[FiniteMetricSpace, DiscreteMeasure]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
    cols = [c.strip() for c in header.split(",")]
    weight_col = "w" if "w" in cols else None
    return load_planar_csv(path, weight_col=weight_col)


def cmd_prohorov(args: argparse.Namespace) -> int:
    file0, file1 = args.files
    space0, mu0 = _load_measure_file(file0)
    space1, mu1 = _load_measure_file(file1)
    if space0.n != space1.n or (
        space0.coords is not None
        and space1.coords is not None
        and space0.coords.tolist() != space1.coords.tolist()
    ):
        raise DifferentSpaces(f"{file0} and {file1} list different points")
    if args.check is not None:
        if math.isnan(args.check):
            raise DcechError("--check needs a number, got nan")
        report = prohorov_check(space0, mu0, mu1, args.check)
        verdict = "pass" if report.ok else "fail"
        witness = sorted(report.witness_subset)
        print(f"{verdict}: eps {args.check} slack {report.worst_slack} witness {witness}")
        return 0 if report.ok else 1
    print(prohorov_distance(space0, mu0, mu1))
    return 0


def cmd_export_firep(args: argparse.Namespace) -> int:
    K = _resolve_complex(args)
    path = os.path.join(_outdir(args), f"firep_d{args.dim}.txt")
    n_top, n_face = write_firep(K, args.dim, path)
    print(f"wrote {path}: {n_top} generators in dim {args.dim}, "
          f"{n_face} in dim {args.dim - 1}")
    return 0


def _add_input_opts(p: argparse.ArgumentParser, with_artifact: bool) -> None:
    p.add_argument("--input", help="input CSV (points or distance matrix)")
    p.add_argument(
        "--kind", choices=("planar", "matrix"), default="planar",
        help="input format (default planar points)",
    )
    p.add_argument("--weights", help="weight column name (default: all ones)")
    p.add_argument(
        "--mode",
        choices=("intrinsic", "ambient-finite", "ambient-planar"),
        default="intrinsic",
        help="bifiltration construction (default intrinsic)",
    )
    p.add_argument("--dim-cap", type=int, default=3, help="max simplex dimension")
    if with_artifact:
        p.add_argument("--artifact", help="staircase table from a previous build")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise DcechError, so that they end in
    one ``error:`` line and exit 2; subcommand parsers are of this class too."""

    _argv: tuple[str, ...] = ()  # the arguments this parser was last given

    def parse_known_args(self, args=None, namespace=None):
        self._argv = tuple(sys.argv[1:] if args is None else args)
        return super().parse_known_args(args, namespace)

    def error(self, message: str):
        option = message.removeprefix("argument ").split(":")[0]
        if message.endswith("expected one argument") and option in self._argv:
            i = self._argv.index(option) + 1
            if i < len(self._argv):
                # argparse reads a value such as -1,2 as an option of its own
                message += f" (write {option}={self._argv[i]} for a value starting with -)"
        raise DcechError(message)


@functools.cache  # built once per process: parse_args keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dcech",
        description="dual degree Cech bifiltrations: build, measure, verify",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a bifiltration, write staircases")
    _add_input_opts(p, with_artifact=False)
    p.add_argument("--r-grid", help="comma-separated radii to restrict to")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(run=cmd_build)

    p = sub.add_parser("hilbert", help="Betti CSV and per-degree SVG heatmaps")
    _add_input_opts(p, with_artifact=True)
    p.add_argument("--r-grid", help="comma-separated radius grid")
    p.add_argument("--m-grid", help="comma-separated mass grid")
    p.add_argument("--max-degree", type=int, default=2)
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(run=cmd_hilbert)

    p = sub.add_parser("slice", help="barcode along a monotone parameter path")
    _add_input_opts(p, with_artifact=True)
    p.add_argument("spec", help="path spec: 'm=<v>' or 'diag m0,r0'")
    p.add_argument("--r-grid", help="radius samples for constant-m slices")
    p.set_defaults(run=cmd_slice)

    p = sub.add_parser("verify", help="run a randomized verification suite")
    p.add_argument("suite", choices=tuple(SUITES) + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, help="override the per-suite trial count")
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("prohorov", help="Prohorov distance of two weighted files")
    p.add_argument("files", nargs=2, metavar="FILE")
    p.add_argument(
        "--check", type=float,
        help="test a candidate epsilon instead of computing the distance",
    )
    p.set_defaults(run=cmd_prohorov)

    p = sub.add_parser("export-firep", help="chain-map export at one dimension")
    _add_input_opts(p, with_artifact=True)
    p.add_argument("--dim", type=int, default=1, help="top dimension (default 1)")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(run=cmd_export_firep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help
        code = exc.code
        return code if isinstance(code, int) else 2
    except DcechError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if getattr(args, "dim_cap", 1) < 1:
            raise DcechError(f"dim_cap must be >= 1, got {args.dim_cap}")
        return args.run(args)
    except OSError as exc:
        reason = exc.strerror or str(exc)
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"error: {where}{reason}", file=sys.stderr)
        return 2
    except DcechError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
