"""Run the benchmark once per seed and summarise each metric's spread.

    python3 bench/sweep.py [--workloads hilbert,build,verify] [--seeds 1-10]
        [--trace 0] [--label NAME]

Runs are made one after another from the repository root, each
``run_seconds`` long as BENCHMARK.json sets it. For every workload and metric
it prints the median, the quartiles (as ``statistics.quantiles(values, n=4)``
gives them) and the spread, the distance between the quartiles as a share of
the median, next to the bound in BENCHMARK.json. The runs and the summary go to
``bench/results/<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="hilbert,build,verify")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="sweep")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for workload in args.workloads.split(","):
        for seed in seed_list(args.seeds):
            argv = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            start = perf_counter()
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            wall = perf_counter() - start
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            *log, last = proc.stdout.strip().splitlines()
            result = json.loads(last)
            runs.append({"workload": workload, "seed": seed, "wall_s": wall, "log": log, **result})
            print(f"{workload} seed {seed}: {wall:.1f} s, attempted {result['attempted']}, "
                  f"failed {result['failed']}, correct {result['correct']}", flush=True)

    summary = {}
    for workload in args.workloads.split(","):
        mine = [r for r in runs if r["workload"] == workload]
        rows = {}
        for name in mine[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in mine]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med if med else 0.0,
                          "unit": mine[0]["metrics"][name]["unit"]}
        shares = sorted({r["failed"] / r["attempted"] for r in mine})
        summary[workload] = {"metrics": rows, "failed_shares": shares,
                             "wall_s": sum(r["wall_s"] for r in mine)}
        print(f"\n{workload}: {len(mine)} runs, {summary[workload]['wall_s']:.0f} s, "
              f"failed shares {shares}")
        for name, row in rows.items():
            bound = bounds.get(name)
            print(f"  {name:24s} median {row['median']:.6g} {row['unit']}  "
                  f"q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  spread {row['spread']:.3f}"
                  + (f"  bound {bound}" if bound is not None else ""))
    os.makedirs(os.path.join(BENCH, "results"), exist_ok=True)
    with open(os.path.join(BENCH, "results", f"{args.label}.json"), "w", encoding="utf-8") as fh:
        json.dump({"seconds": seconds, "trace": args.trace, "runs": runs, "summary": summary},
                  fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
