"""Benchmark of the dcech command line: one workload, one client, closed loop.

    python3 bench/run.py --workload {hilbert,build,verify} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. The process imports ``dcech`` from ``src/``,
writes the seeded inputs of the workload under ``bench/out/``, then runs jobs
back to back for S seconds. A job is a fixed list of subcommands, each called
in-process through ``dcech.cli.main`` with stdout captured. Between jobs, an
untraced run times fresh processes that only set up; ``setup_s`` is their
median. After the timed phase every operation's output is checked (see
``checks.py``) and the last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
end to end; with ``--trace 1`` the calls into each layer are wrapped (see
``tracing.py``), the metrics are per-layer means per job, and the spans go to
``bench/traces/``.
"""

import os

# one single-threaded client: no library thread pools
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH = os.path.join(ROOT, "bench")
SETUP_REPEATS = 15


def require_src() -> None:
    if not os.path.isfile(os.path.join(SRC, "dcech", "cli.py")):
        sys.exit(f"bench: {SRC}/dcech not found; run from a dcech checkout")


def setup(workload: str, seed: int, work: str):
    """Import the program from src/ and write the input pool; return both."""
    require_src()
    sys.path.insert(0, SRC)
    import dcech.cli

    if not os.path.abspath(dcech.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported dcech from {dcech.cli.__file__}, not from {SRC}")
    inputs = [
        workloads.make_input(workload, seed, i, os.path.join(work, "inputs", str(i)))
        for i in range(workloads.POOL)
    ]
    return dcech, inputs


def time_setup(workload: str, seed: int, probe: str) -> tuple[float, float]:
    """Wall time of a fresh process that only sets up, from spawn to exit,
    and the time spent on it including the removal of its files."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), "--setup-only", probe]
    start = perf_counter()
    subprocess.run(argv, check=True)
    took = perf_counter() - start
    shutil.rmtree(probe)
    return took, perf_counter() - start


def run_job(cli, ops: list) -> list[tuple[int, str, str, list[str]]]:
    """Call each subcommand in turn; (exit code, stdout, stderr, argv) per call."""
    results: list[tuple[int, str, str, list[str]]] = []
    for argv, _ in ops:
        if callable(argv):
            argv = argv(results)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception:  # a crash fails the operation, not the run
                traceback.print_exc()
                code = -1
        results.append((code, out.getvalue(), err.getvalue(), argv))
    return results


def directory_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(path) for f in fs)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR",
                        help="set up into DIR and exit (used to time set-up)")
    args = parser.parse_args()

    if args.setup_only:
        setup(args.workload, args.seed, args.setup_only)
        return 0
    require_src()
    work = os.path.join(BENCH, "out", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: str) -> int:
    dcech, inputs = setup(args.workload, args.seed, work)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(dcech)

    # set-up probes, in an untraced run only, are spread over the timed phase:
    # probe k runs after the first job that ends past k / SETUP_REPEATS of it,
    # so their median sees the machine over the same stretch as the jobs; the
    # time they take counts in no job and not in the timed phase
    probes: list[float] = []
    paused = 0.0
    jobs = []
    bytes_written = 0
    start = perf_counter()
    while True:
        inp = inputs[len(jobs) % workloads.POOL]
        out = os.path.join(work, "jobs", str(len(jobs)))
        ops = workloads.job_ops(args.workload, inp, out)
        t0 = perf_counter()
        results = run_job(dcech.cli, ops)
        t1 = perf_counter()
        jobs.append((inp, out, ops, results, t1 - t0))
        if tracer is not None:
            bytes_written += directory_bytes(out)
        elapsed = t1 - start - paused
        while (tracer is None and len(probes) < SETUP_REPEATS
               and elapsed >= len(probes) * args.seconds / SETUP_REPEATS):
            took, pause = time_setup(args.workload, args.seed,
                                     os.path.join(work, f"setup{len(probes)}"))
            probes.append(took)
            paused += pause
        if elapsed >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = failed = defects = 0
    for inp, out, ops, results, _ in jobs:
        errs = workloads.check_job(args.workload, inp, out, [r[:2] for r in results])
        defects += workloads.known_defect(args.workload, [r[:2] for r in results])
        for i, ((_, expect), (code, _, stderr, _)) in enumerate(zip(ops, results)):
            if expect is not None and code != expect:
                errs.setdefault(i, []).insert(0, f"exit {code}, expected {expect}: {stderr.strip()[-300:]}")
        attempted += len(ops)
        failed += len(errs)
        for i, msgs in sorted(errs.items()):
            print(f"FAILED dcech {' '.join(results[i][3])}: " + "; ".join(msgs[:3]), file=sys.stderr)

    times = [j[4] for j in jobs]
    job_p50 = statistics.median(times)
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs of {len(ops)} "
          f"operations in {elapsed:.3f} s, job p50 {job_p50:.4f} s")
    if args.workload == "verify":
        print(f"known defect: prohorov --check passed at the next float below the "
              f"distance in {defects} of {len(jobs)} jobs")
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(probes), "s"),
            "job_p50_s": (job_p50, "s"),
            "jobs_per_s": (len(jobs) / elapsed, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        layer = tracer.per_layer(len(jobs))
        layer["io.bytes_written"] = bytes_written / len(jobs)
        layer["metrics.wrong_check_verdicts"] = defects / len(jobs)
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            per_layer = json.load(fh)["per_layer"]
        metrics = {m["name"]: (layer.get(m["name"], 0.0), m["unit"]) for m in per_layer}
        self_total = sum(v for v, unit in metrics.values() if unit == "s")
        print(f"traced: sum of self times per job {self_total:.4f} s, "
              f"mean job {statistics.fmean(times):.4f} s, job p50 {job_p50:.4f} s")
        os.makedirs(os.path.join(BENCH, "traces"), exist_ok=True)
        tracer.write(os.path.join(BENCH, "traces", f"{args.workload}-seed{args.seed}.tsv"))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
