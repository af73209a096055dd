"""Show that every output check fails on a deliberately perturbed output.

    python3 bench/selftest.py

Runs one job of each workload (seed 0, input 0), checks that its outputs
pass, then perturbs one output at a time and checks that the operation that
produced it is reported as failed. Exits 1 if the clean job fails a check or
a perturbation goes unnoticed.
"""

from __future__ import annotations

import math
import os
import re
import shutil
import sys

import checks
import run
import workloads


def _edit(path: str, fn) -> None:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    new = fn(text)
    assert new != text, f"perturbation left {path} unchanged"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(new)


def bump_cell(text: str) -> str:
    """One Betti cell changed: beta0 of the first grid row plus one."""
    lines = text.splitlines()
    cells = lines[1].split(",")
    cells[2] = str(int(cells[2]) + 1)
    lines[1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def bump_heat_cell(text: str) -> str:
    """One heatmap cell changed: the first number drawn in a cell plus one."""
    hit = re.search(r'(<text x="\d+" y="\d+">)(\d+)(</text>)', text)
    return text[:hit.start()] + f"{hit.group(1)}{int(hit.group(2)) + 1}{hit.group(3)}" + text[hit.end():]


def move_corner(text: str, first: bool = False) -> str:
    """One corner moved: the radius of the last corner of the last simplex
    with two or more corners (or its first corner) goes up one float."""
    lines = text.splitlines()
    for i in range(len(lines) - 1, -1, -1):
        if lines[i].startswith("#"):
            continue
        head, tail = lines[i].split("\t")
        steps = tail.split()
        if len(steps) < 2 and not first:
            continue
        k = 0 if first else len(steps) - 1
        r, m = steps[k].split(":")
        steps[k] = f"{math.nextafter(float(r), math.inf)!r}:{m}"
        lines[i] = head + "\t" + " ".join(steps)
        return "\n".join(lines) + "\n"
    raise ValueError("no simplex to perturb")


def drop_face(text: str) -> str:
    """Downward closure broken: the first edge row removed."""
    lines = text.splitlines()
    edge = next(i for i, ln in enumerate(lines) if not ln.startswith("#") and len(ln.split("\t")[0].split()) == 2)
    return "\n".join(lines[:edge] + lines[edge + 1:]) + "\n"


def shift_bar(text: str) -> str:
    """One bar shifted: a finite bar [b, d) becomes [d, 2d - b); with none,
    an essential bar is born one unit after the last endpoint."""
    bars = checks.parse_barcode(text)
    finite = [(k, i) for k in sorted(bars) for i, (b, d) in enumerate(bars[k]) if d != math.inf]
    if finite:
        k, i = finite[0]
        b, d = bars[k][i]
        bars[k][i] = (d, 2 * d - b)
    else:
        k = min(k for k in bars if bars[k])
        last = max(x for bs in bars.values() for bar in bs for x in bar if x != math.inf)
        bars[k][0] = (last + 1.0, math.inf)
    return _format_barcode(bars)


def drop_bar(text: str) -> str:
    """One bar dropped: the finite bar [b, d) with the fewest other printed
    endpoints in [b, d], the longest among those, so that the endpoints left
    need not put a test time inside it (with no finite bar, the first bar)."""
    bars = checks.parse_barcode(text)
    ends = [x for bs in bars.values() for bar in bs for x in bar]
    finite = [(sum(b <= x <= d for x in ends) - 2, b - d, k, i)
              for k in sorted(bars) for i, (b, d) in enumerate(bars[k]) if d != math.inf]
    if finite:
        *_, k, i = min(finite)
    else:
        k, i = min(k for k in bars if bars[k]), 0
    del bars[k][i]
    return _format_barcode(bars)


def _format_barcode(bars: dict) -> str:
    return "".join(
        f"H{k}: " + (" ".join(f"[{b!r},{'inf' if d == math.inf else repr(d)})" for b, d in bars[k])
                     or "(none)") + "\n"
        for k in sorted(bars)
    )


def flip_verdict(text: str) -> str:
    return text.replace("PASS", "FAIL", 1) if "PASS" in text else text.replace("pass:", "fail:", 1)


def nudge_distance(text: str) -> str:
    return repr(math.nextafter(float(text), math.inf)) + "\n"


# (workload, description, operation index, file under the job dir or None
# for the operation's stdout, perturbation)
CASES = (
    ("hilbert", "one Betti cell changed", 2, "ambient-finite/betti.csv", bump_cell),
    ("hilbert", "one heatmap cell changed", 2, "ambient-finite/betti_deg0.svg", bump_heat_cell),
    ("hilbert", "one corner moved (intrinsic)", 0, "intrinsic/staircases.txt", move_corner),
    ("hilbert", "one corner moved (ambient-finite)", 1, "ambient-finite/staircases.txt", move_corner),
    ("hilbert", "one bar shifted (m slice)", 3, None, shift_bar),
    ("hilbert", "one bar shifted (diagonal slice)", 4, None, shift_bar),
    ("hilbert", "one bar dropped (m slice)", 3, None, drop_bar),
    ("hilbert", "one bar dropped (diagonal slice)", 4, None, drop_bar),
    ("build", "one corner moved (intrinsic)", 0, "intrinsic/staircases.txt", move_corner),
    ("build", "a face removed (ambient-finite)", 1, "ambient-finite/staircases.txt", drop_face),
    ("build", "one first corner moved (planar)", 2, "ambient-planar/staircases.txt",
     lambda text: move_corner(text, first=True)),
    ("build", "one bar shifted (planar slice)", 5, None, shift_bar),
    ("build", "one bar dropped (intrinsic slice)", 3, None, drop_bar),
    ("verify", "a suite verdict flipped", 0, None, flip_verdict),
    ("verify", "a --check verdict flipped", 8, None, flip_verdict),
    ("verify", "a distance nudged", 5, None, nudge_distance),
)


def main() -> int:
    work = os.path.join(run.BENCH, "out", f"selftest-{os.getpid()}")
    try:
        dcech = None
        jobs = {}
        ok = True
        for workload in workloads.WORKLOADS:
            dcech, inputs = run.setup(workload, 0, os.path.join(work, workload))
            inp = inputs[0]
            out = os.path.join(work, workload, "job")
            ops = workloads.job_ops(workload, inp, out)
            results = [r[:2] for r in run.run_job(dcech.cli, ops)]
            errs = workloads.check_job(workload, inp, out, results)
            print(f"{workload}: clean job {'passes' if not errs else 'FAILS ' + repr(errs)}")
            ok = ok and not errs
            jobs[workload] = (inp, out, results)
        for n, (workload, what, op, rel, perturb) in enumerate(CASES):
            inp, out, results = jobs[workload]
            results = list(results)
            if rel is None:
                code, text = results[op]
                results[op] = (code, perturb(text))
                target = out
            else:
                target = f"{out}-{n}"
                shutil.copytree(out, target)
                _edit(os.path.join(target, rel), perturb)
            errs = workloads.check_job(workload, inp, target, results)
            caught = op in errs
            ok = ok and caught
            print(f"{workload}: {what}: {'caught' if caught else 'MISSED'} at operation {op}"
                  + (f": {errs[op][0][:100]}" if caught else ""))
        return 0 if ok else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
