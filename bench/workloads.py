"""The three workloads: seeded inputs, the subcommands of one job, its checks.

A job is a fixed list of ``dcech`` argument vectors on one seeded input. An
operation is one subcommand call; it fails on an exit code other than the
one expected or on a failed check. Inputs depend only on the workload seed
and the job's index in the input pool, and the program sees only the files.

- ``hilbert``: build a 13-point cloud both ways, then the Hilbert table,
  a constant-m slice and a diagonal slice of the ambient-finite table.
  Slicing and reduction dominate; the build is under a tenth.
- ``build``: intrinsic and ambient-finite builds of a 22-point cloud at
  dim_cap 2, an ambient-planar build of a 12-point cloud, and one diagonal
  slice of each table read back. Builders, planar and io dominate.
- ``verify``: five suites whose statements hold, at reduced trial counts,
  and six Prohorov calls on one pair of weighted files. Many tiny
  complexes, the only workload that uses the metrics module.
"""

from __future__ import annotations

import math
import os
import random

import checks

WORKLOADS = ("hilbert", "build", "verify")

# inputs generated per run; a job past the pool reuses input (index % POOL)
POOL = 64

# hilbert: 11 support points on 11 of the 12 sites of a 4 x 3 lattice over
# the unit square, each moved by up to 0.3 of a cell per axis, with weights
# 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3 shuffled, plus 2 zero-weight points anywhere
# in the square; the lattice keeps the grid size, and so the job time, from
# varying as much between inputs as uniform points do
LATTICE = (4, 3)
JITTER = 0.3
HILBERT_WEIGHTS = (1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3)
HILBERT_ZEROS = 2

# build: 20 support points (weights 1-3) and 2 zero-weight points at dim_cap
# 2 for the dual builds; 12 points (weights 1-3) at dim_cap 3 for planar
DUAL_SUPPORT, DUAL_ZEROS, DUAL_DIM_CAP = 20, 2, 2
PLANAR_POINTS = 12

# verify: suites and trial counts per job; Prohorov files of 13 points whose
# weights are multiples of 1/64 summing to 1, each on 10 of the 13 points
SUITES = (("sandwich", 20), ("nerve", 10), ("stability", 10), ("lemma75", 20), ("prop76", 10))
PROHOROV_POINTS, PROHOROV_SUPPORT, UNIT = 13, 10, 1.0 / 64.0
BELOW = 2.0 ** -30


def _write_cloud(path: str, pts, weights) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y,w\n")
        for (x, y), w in zip(pts, weights):
            fh.write(f"{x!r},{y!r},{w!r}\n")


def _uniform(rng: random.Random, n: int) -> list[tuple[float, float]]:
    return [(rng.random(), rng.random()) for _ in range(n)]


def make_input(workload: str, seed: int, index: int, root: str) -> dict:
    """Write input ``index`` of a run's pool under ``root``; return its parameters."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    os.makedirs(root, exist_ok=True)
    inp: dict = {"dir": root}
    if workload == "hilbert":
        cols, rows = LATTICE
        sites = rng.sample([(i, j) for i in range(cols) for j in range(rows)], len(HILBERT_WEIGHTS))
        pts = [((i + 0.5 + JITTER * (2 * rng.random() - 1)) / cols,
                (j + 0.5 + JITTER * (2 * rng.random() - 1)) / rows) for i, j in sites]
        weights = list(HILBERT_WEIGHTS)
        rng.shuffle(weights)
        _write_cloud(os.path.join(root, "cloud.csv"), pts + _uniform(rng, HILBERT_ZEROS),
                     [float(w) for w in weights] + [0.0] * HILBERT_ZEROS)
        inp["m"] = float(rng.randint(2, 4))
        inp["diag"] = (float(rng.randint(6, 10)), rng.choice((0.0, 0.0625, 0.125)))
    elif workload == "build":
        n = DUAL_SUPPORT + DUAL_ZEROS
        _write_cloud(os.path.join(root, "cloud.csv"), _uniform(rng, n),
                     [float(rng.randint(1, 3)) for _ in range(DUAL_SUPPORT)] + [0.0] * DUAL_ZEROS)
        _write_cloud(os.path.join(root, "planar.csv"), _uniform(rng, PLANAR_POINTS),
                     [float(rng.randint(1, 3)) for _ in range(PLANAR_POINTS)])
        inp["diag"] = (float(rng.randint(6, 12)), rng.choice((0.0, 0.0625, 0.125)))
    else:
        pts = _uniform(rng, PROHOROV_POINTS)
        for name in ("mu0", "mu1"):
            chosen = rng.sample(range(PROHOROV_POINTS), PROHOROV_SUPPORT)
            units = [0] * PROHOROV_POINTS
            for _ in range(int(1 / UNIT)):
                units[rng.choice(chosen)] += 1
            _write_cloud(os.path.join(root, f"{name}.csv"), pts, [u * UNIT for u in units])
        inp["suite_seed"] = rng.randrange(1 << 30)
    return inp


def _spec_diag(m0: float, r0: float) -> str:
    return f"diag {m0!r},{r0!r}"


def job_ops(workload: str, inp: dict, out: str) -> list:
    """The job's subcommands, each with the exit code it must give.

    An argument vector may be a function of the results so far (exit code and
    stdout per operation), for a call that uses an earlier output.
    """
    src = inp["dir"]
    if workload == "hilbert":
        cloud = os.path.join(src, "cloud.csv")
        table = os.path.join(out, "ambient-finite", "staircases.txt")
        return [
            (["build", "--input", cloud, "--weights", "w", "--mode", "intrinsic",
              "--out", os.path.join(out, "intrinsic")], 0),
            (["build", "--input", cloud, "--weights", "w", "--mode", "ambient-finite",
              "--out", os.path.join(out, "ambient-finite")], 0),
            (["hilbert", "--artifact", table, "--out", os.path.join(out, "ambient-finite")], 0),
            (["slice", "--artifact", table, f"m={inp['m']!r}"], 0),
            (["slice", "--artifact", table, _spec_diag(*inp["diag"])], 0),
        ]
    if workload == "build":
        cloud = os.path.join(src, "cloud.csv")
        ops = []
        for mode in ("intrinsic", "ambient-finite"):
            ops.append((["build", "--input", cloud, "--weights", "w", "--mode", mode,
                         "--dim-cap", str(DUAL_DIM_CAP), "--out", os.path.join(out, mode)], 0))
        ops.append((["build", "--input", os.path.join(src, "planar.csv"), "--weights", "w",
                     "--mode", "ambient-planar", "--out", os.path.join(out, "ambient-planar")], 0))
        for mode in ("intrinsic", "ambient-finite", "ambient-planar"):
            ops.append((["slice", "--artifact", os.path.join(out, mode, "staircases.txt"),
                         _spec_diag(*inp["diag"])], 0))
        return ops
    seed = str(inp["suite_seed"])
    ops = [(["verify", name, "--seed", seed, "--trials", str(trials)], 0)
           for name, trials in SUITES]
    mu0, mu1 = os.path.join(src, "mu0.csv"), os.path.join(src, "mu1.csv")
    ops += [(["prohorov", mu0, mu1], 0), (["prohorov", mu1, mu0], 0), (["prohorov", mu0, mu0], 0)]
    # --check at the distance just printed must pass, and 2**-30 below it
    # must fail (exit 1). At the next float below it must fail too, but the
    # program's rounding can pass it when the distance is a mass difference:
    # that call accepts either verdict (expected exit None), and a pass is
    # tallied by known_defect, not failed
    first = len(SUITES)
    ops += [(lambda res: ["prohorov", mu0, mu1, "--check", repr(_printed_distance(res[first]))], 0),
            (lambda res: ["prohorov", mu0, mu1, "--check",
                          repr(_printed_distance(res[first]) - BELOW)], 1),
            (lambda res: ["prohorov", mu0, mu1, "--check",
                          repr(math.nextafter(_printed_distance(res[first]), -math.inf))], None)]
    return ops


def known_defect(workload: str, results: list[tuple[int, str]]) -> int:
    """1 if the job's ``--check`` at the next float below the distance
    passed, a wrong verdict of the known rounding defect; else 0."""
    if workload != "verify":
        return 0
    return int(results[len(SUITES) + 5][1].startswith("pass: "))


def _printed_distance(result: tuple[int, str]) -> float:
    try:
        return float(result[1])
    except ValueError:
        return math.nan


# ---------------------------------------------------------------------------
# Checks per job
# ---------------------------------------------------------------------------


def _table_checks(path: str, expected: dict | None) -> tuple[checks.Table | None, list[str]]:
    try:
        table = checks.parse_table(path)
    except Exception as exc:  # a missing or malformed table fails its operation
        return None, [f"cannot read {path}: {exc!r}"]
    errs = checks.check_closure(table)
    if expected is not None:
        errs += checks.check_staircases(table, expected)
    return table, errs


def _hilbert_outputs(table: checks.Table, base: str) -> list[str]:
    msgs, cells = checks.check_betti_csv(table, os.path.join(base, "betti.csv"), 2)
    if not msgs:
        for k in range(3):
            msgs += checks.check_heatmap(os.path.join(base, f"betti_deg{k}.svg"), cells, k)
    return msgs


def _prohorov_outputs(src: str, texts: list[str]) -> dict[int, list[str]]:
    """Messages per Prohorov operation (0 to 5 of the six) of a verify job."""
    ppts, w0 = checks.read_cloud(os.path.join(src, "mu0.csv"))
    _, w1 = checks.read_cloud(os.path.join(src, "mu1.csv"))
    want = checks.prohorov_enumerated(checks.distances(ppts), w0, w1, UNIT)
    out = {}
    if texts[0].strip() != repr(want):
        out[0] = [f"prohorov printed {texts[0].strip()!r}, enumeration gives {want!r}"]
    if texts[1] != texts[0]:
        out[1] = [f"prohorov is not symmetric: {texts[1].strip()!r} vs {texts[0].strip()!r}"]
    if texts[2].strip() != "0.0":
        out[2] = [f"prohorov of a file with itself is {texts[2].strip()!r}"]
    for j, verdict in ((3, "pass: "), (4, "fail: ")):
        if not texts[j].startswith(verdict):
            out[j] = [f"--check printed {texts[j].strip()!r}, expected {verdict.strip()}"]
    if not texts[5].startswith(("pass: ", "fail: ")):
        out[5] = [f"--check printed {texts[5].strip()!r}, expected a verdict"]
    return out


def check_job(workload: str, inp: dict, out: str, results: list[tuple[int, str]]) -> dict[int, list[str]]:
    """Messages per failed operation index; ``results`` holds (exit code, stdout)."""
    errs: dict[int, list[str]] = {}

    def add(i: int, msgs: list[str]) -> None:
        if msgs:
            errs.setdefault(i, []).extend(msgs)

    def check(i: int, fn, *args) -> None:
        try:
            add(i, fn(*args))
        except Exception as exc:  # output the check cannot parse fails the operation
            add(i, [f"{fn.__name__} raised {exc!r}"])

    src = inp["dir"]
    if workload == "hilbert":
        pts, ws = checks.read_cloud(os.path.join(src, "cloud.csv"))
        d = checks.distances(pts)
        sup = [i for i, w in enumerate(ws) if w > 0]
        table = None
        for i, (mode, wit) in enumerate((("intrinsic", sup), ("ambient-finite", list(range(len(ws)))))):
            expected = checks.degree_cech(d, ws, wit, sup, 3)
            table, msgs = _table_checks(os.path.join(out, mode, "staircases.txt"), expected)
            add(i, msgs)
        if table is None:
            for i in (2, 3, 4):
                add(i, ["no table to check against"])
            return errs
        check(2, _hilbert_outputs, table, os.path.join(out, "ambient-finite"))
        check(3, checks.check_barcode, table, results[3][1], "m", inp["m"], 0.0)
        check(4, checks.check_barcode, table, results[4][1], "diag", *inp["diag"])
        return errs
    if workload == "build":
        pts, ws = checks.read_cloud(os.path.join(src, "cloud.csv"))
        d = checks.distances(pts)
        sup = [i for i, w in enumerate(ws) if w > 0]
        ppts, pws = checks.read_cloud(os.path.join(src, "planar.csv"))
        every = list(range(len(pws)))
        inner = checks.degree_cech(checks.distances(ppts), pws, every, every, 3)
        for i, mode in enumerate(("intrinsic", "ambient-finite", "ambient-planar")):
            path = os.path.join(out, mode, "staircases.txt")
            if mode == "ambient-planar":
                table, msgs = _table_checks(path, None)
                if table is not None:
                    msgs += checks.check_planar(table, ppts, inner)
            else:
                wit = sup if mode == "intrinsic" else list(range(len(ws)))
                table, msgs = _table_checks(path, checks.degree_cech(d, ws, wit, sup, DUAL_DIM_CAP))
            add(i, msgs)
            if table is None:
                add(3 + i, ["no table to check against"])
            else:
                check(3 + i, checks.check_barcode, table, results[3 + i][1], "diag", *inp["diag"])
        return errs
    for i, (name, trials) in enumerate(SUITES):
        check(i, checks.check_suite, name, trials, *results[i])
    p = len(SUITES)
    try:
        found = _prohorov_outputs(src, [text for _, text in results[p:p + 6]])
    except Exception as exc:  # output the check cannot parse fails the operations
        found = {j: [f"prohorov check raised {exc!r}"] for j in range(6)}
    for j, msgs in found.items():
        add(p + j, msgs)
    return errs
