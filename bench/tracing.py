"""Spans and counters around the calls into each layer of dcech.

The traced run replaces each function below at the place where the package
looks it up (a module global, a class attribute, the suite table), so a call
records a span (name, start, end, parent) and the counters of its metric.
Spans stay in memory and are written out when the run ends. A metric's time
is the self time of its spans: their duration minus that of their children.
Nothing here runs in an untraced run.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

# (owner in dcech, attribute, per-layer metric its self time adds to)
SITES = (
    ("cli", "main", "cli.self_s"),
    ("cli", "load_planar_csv", "io.load_s"),
    ("cli", "write_staircase_table", "io.table_write_s"),
    ("cli", "read_staircase_table", "io.table_read_s"),
    ("cli", "write_betti_csv", "io.betti_write_s"),
    ("cli", "write_betti_svg", "io.betti_write_s"),
    ("cli", "intrinsic_dc", "builders.dual_s"),
    ("cli", "ambient_dc_finite", "builders.dual_s"),
    ("verify", "intrinsic_dc", "builders.dual_s"),
    ("verify", "ambient_dc_finite", "builders.dual_s"),
    ("verify", "cover_nerve", "builders.cover_nerve_s"),
    ("cli", "ambient_dc_planar", "planar.build_s"),
    ("verify", "ambient_dc_planar", "planar.build_s"),
    ("core.BifilteredComplex", "complex_at", "core.slice_s"),
    ("core.SimplicialComplex", "__init__", "core.complex_init_s"),
    ("cli", "betti_table", "homology.table_s"),
    ("homology", "betti", "homology.betti_s"),
    ("verify", "betti", "homology.betti_s"),
    ("cli", "slice_persistence", "homology.slice_s"),
    ("verify", "bottleneck_distance", "homology.bottleneck_s"),
    ("cli", "diagonal_barcode", "verify.diagonal_s"),
    ("verify", "diagonal_barcode", "verify.diagonal_s"),
    ("cli", "prohorov_distance", "metrics.prohorov_s"),
    ("cli", "prohorov_check", "metrics.prohorov_s"),
    ("verify", "prohorov_distance", "metrics.prohorov_s"),
    ("metrics", "prohorov_distance", "metrics.prohorov_s"),
    ("verify", "verify_sandwich", "metrics.interleaving_s"),
    ("verify", "verify_set_interleaving_shift", "metrics.interleaving_s"),
    ("verify", "check_projection_inequality", "metrics.interleaving_s"),
    ("verify", "gp_upper_bound", "metrics.interleaving_s"),
)

def _built(counts: Counter, complex_) -> None:
    counts["builders.simplices"] += len(complex_.entries)
    counts["builders.corners"] += sum(len(st.steps) for st in complex_.entries.values())


def _dual(counts: Counter, complex_) -> None:
    counts["builders.duals"] += 1
    _built(counts, complex_)


def _cells(counts: Counter, table) -> None:
    counts["homology.cells"] += len(table.m_grid) * len(table.r_grid)


def _tally(name: str):
    def tally(counts: Counter, _) -> None:
        counts[name] += 1

    return tally


# counters updated from a call's result, by the metric of its span
_COUNTERS = {
    "builders.dual_s": _dual,
    "planar.build_s": _built,
    "core.slice_s": _tally("core.slices"),
    "core.complex_init_s": _tally("core.complexes"),
    "homology.table_s": _cells,
    "homology.betti_s": _tally("homology.reductions"),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [label, metric, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _wrap(self, fn, label: str, metric: str):
        count = _COUNTERS.get(metric)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [label, metric, perf_counter(), 0.0, parent]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts, result)
            return result

        return traced

    def install(self, dcech) -> None:
        """Wrap every site of ``SITES`` and every suite runner."""
        for owner_path, attr, metric in SITES:
            owner = dcech
            for part in owner_path.split("."):
                owner = getattr(owner, part)
            setattr(owner, attr, self._wrap(getattr(owner, attr), f"{owner_path}.{attr}", metric))
        suites = dcech.verify.SUITES
        for name, fn in suites.items():
            suites[name] = self._wrap(fn, f"verify.run_{name}", "verify.suite_self_s")

    def per_layer(self, jobs: int) -> dict[str, float]:
        """Per-job means by metric: self times, and the counters."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = Counter(self.counts)
        for (_, metric, start, end, _), below in zip(self.spans, child):
            total[metric] += end - start - below
        return {name: value / jobs for name, value in total.items()}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("label\tmetric\tstart\tend\tparent\n")
            for label, metric, start, end, parent in self.spans:
                fh.write(f"{label}\t{metric}\t{start!r}\t{end!r}\t{parent}\n")
