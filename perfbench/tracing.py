"""Outside-in tracing of sincstab's layers for the benchmark's traced runs.

Wrappers replace each traced public function under every name that binds it
in a loaded ``sincstab`` module (``sinc_array`` is imported by name into
``framekit``, ``bounds`` and ``reconstruct``, for instance), so calls made
from inside the package are traced too.  Each wrapped call records a span
(name, start, end, parent span, request id); spans stay in memory until the
run writes them out.  ``zeta_minus_one`` runs tens of thousands of times per
table request, so it gets a call counter instead of a span.

Counters labelled *computed* are derived from array shapes, not measured:
elements per sinc call, bytes of S, E and G, and the bytes and floating-point
operations of the power iteration's two matrix-vector products per step.
No roofline ratio is reported: it needs a measured memory bandwidth, and the
reference machine (2 cores, 8 GB) reports a 300 MB last-level cache, larger
than every workload array, so a valid bandwidth probe (four times that size)
does not fit in its memory.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

GRID_BUILDERS = ("power_law_grid", "uniform_offset_grid", "ingham_grid", "grid_from_file")


class Tracer:
    """Spans and counters of one traced run; install() before a traced
    request, uninstall() after it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.counts: Counter = Counter()
        self.request = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def span(self, name: str, fn, after=None):
        """fn wrapped to record a span; after(args, result) adds counters."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else None, self.request]
            spans.append(record)
            stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def counter(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Swap the wrappers in for the originals in every sincstab module."""
        from sincstab import bounds, framekit, grids, reconstruct, specfun

        c = self.counts

        def elements(key):
            def after(args, result):
                c[key] += int(np.size(args[0]))
            return after

        def synthesis(args, result):
            c["framekit.matrix_bytes"] += result.entries.nbytes

        def power(args, result):
            grid = args[0]
            rows = result.window.row_range[1] - result.window.row_range[0] + 1
            entries = rows * len(grid)
            itemsize, flops = (16, 8) if grid.is_complex else (8, 2)
            c["framekit.matrix_bytes"] += entries * itemsize  # the copy E = S - I
            c["framekit.power_iterations"] += result.iterations_used
            c["framekit.power_bytes_streamed"] += 2 * entries * itemsize * result.iterations_used
            c["framekit.power_flops"] += 2 * entries * flops * result.iterations_used
            c["framekit.converged"] += bool(result.converged)

        def gram(args, result):
            c["framekit.matrix_bytes"] += result.nbytes

        def dump(args, result):
            c["framekit.dump_matrix.bytes"] += os.path.getsize(args[1])

        def cg(args, result):
            c["reconstruct.cg_iterations"] += result.solver_iterations

        targets = [
            (specfun, "sinc_array", self.span("specfun.sinc_array", specfun.sinc_array,
                                              elements("specfun.sinc_array.elements"))),
            (specfun, "sinc_complex_array", self.span(
                "specfun.sinc_complex_array", specfun.sinc_complex_array,
                elements("specfun.sinc_complex_array.elements"))),
            (specfun, "zeta_minus_one", self.counter("specfun.zeta_minus_one.calls",
                                                     specfun.zeta_minus_one)),
            (bounds, "table_lambda", self.span("bounds.table_lambda", bounds.table_lambda)),
            (bounds, "critical_A", self.span("bounds.critical_A", bounds.critical_A)),
            (framekit, "synthesis_matrix", self.span(
                "framekit.synthesis_matrix", framekit.synthesis_matrix, synthesis)),
            (framekit, "perturbation_norm", self.span(
                "framekit.perturbation_norm", framekit.perturbation_norm, power)),
            (framekit, "gram_matrix", self.span("framekit.gram_matrix",
                                                framekit.gram_matrix, gram)),
            (framekit, "riesz_bounds_estimate", self.span(
                "framekit.riesz_bounds_estimate", framekit.riesz_bounds_estimate)),
            (framekit, "dump_matrix", self.span("framekit.dump_matrix",
                                                framekit.dump_matrix, dump)),
            (reconstruct, "solve_coefficients", self.span(
                "reconstruct.solve_coefficients", reconstruct.solve_coefficients, cg)),
            (reconstruct, "evaluate_reconstruction", self.span(
                "reconstruct.evaluate_reconstruction", reconstruct.evaluate_reconstruction)),
            (reconstruct, "reconstruction_error", self.span(
                "reconstruct.reconstruction_error", reconstruct.reconstruction_error)),
            (reconstruct, "write_csv", self.span("reconstruct.write_csv", reconstruct.write_csv)),
        ]
        targets += [(grids, name, self.span("grids.build", getattr(grids, name)))
                    for name in GRID_BUILDERS]
        modules = [m for key, m in sys.modules.items()
                   if key == "sincstab" or key.startswith("sincstab.")]
        for owner, name, wrapper in targets:
            original = getattr(owner, name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def layer_metrics(self, requests: int, request_seconds: float) -> dict:
        """Per-request layer metrics over the traced requests, as
        {name: (value, unit)}.

        ``.self_s`` is a span's duration minus its child spans; ``.s`` is the
        whole span.  ``request_seconds`` is the traced requests' total
        latency, the base of every ``.share``.  Units ending in ``-computed``
        mark counters derived from array shapes rather than measured.
        """
        child = [0.0] * len(self.spans)
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        total_s: defaultdict = defaultdict(float)
        nested_evals = 0
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
                nested_evals += (name == "bounds.table_lambda"
                                 and self.spans[parent][0] == "bounds.critical_A")
        dump_call_s = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            total_s[name] += end - start
            if name == "framekit.dump_matrix":
                dump_call_s += _root_call(self.spans, i)
        c = self.counts

        def per(x, unit):
            return (x / requests, unit)

        def ratio(a, b, unit="ratio"):
            return (a / b if b else 0.0, unit)

        m = {}
        for name in ("specfun.sinc_array", "specfun.sinc_complex_array",
                     "bounds.table_lambda", "bounds.critical_A",
                     "framekit.perturbation_norm", "framekit.synthesis_matrix",
                     "framekit.gram_matrix", "framekit.riesz_bounds_estimate",
                     "reconstruct.solve_coefficients", "reconstruct.evaluate_reconstruction",
                     "reconstruct.reconstruction_error", "cli.main"):
            m[f"{name}.self_s"] = per(self_s[name], "s")
        for name in ("specfun.sinc_array", "framekit.perturbation_norm",
                     "bounds.table_lambda"):
            m[f"{name}.share"] = ratio(self_s[name], request_seconds)
        m["specfun.sinc_array.elements"] = per(c["specfun.sinc_array.elements"],
                                               "elem-computed")
        m["specfun.sinc_complex_array.elements"] = per(
            c["specfun.sinc_complex_array.elements"], "elem-computed")
        m["specfun.zeta_minus_one.calls"] = per(c["specfun.zeta_minus_one.calls"], "count")
        m["bounds.table_lambda.calls"] = per(calls["bounds.table_lambda"], "count")
        m["bounds.evals_per_root"] = ratio(nested_evals, calls["bounds.critical_A"], "count")
        m["framekit.power_iterations"] = per(c["framekit.power_iterations"], "count")
        m["framekit.power_bytes_streamed"] = per(c["framekit.power_bytes_streamed"],
                                                 "B-computed")
        m["framekit.power_flops_per_byte"] = ratio(c["framekit.power_flops"],
                                                   c["framekit.power_bytes_streamed"],
                                                   "flop/B-computed")
        m["framekit.converged_ratio"] = ratio(c["framekit.converged"],
                                              calls["framekit.perturbation_norm"])
        m["framekit.gram_matrix.calls"] = per(calls["framekit.gram_matrix"], "count")
        m["framekit.matrix_bytes"] = per(c["framekit.matrix_bytes"], "B-computed")
        m["framekit.dump_matrix.s"] = per(total_s["framekit.dump_matrix"], "s")
        m["framekit.dump_matrix.bytes"] = per(c["framekit.dump_matrix.bytes"], "B")
        m["framekit.dump_matrix.share_of_call"] = ratio(total_s["framekit.dump_matrix"],
                                                        dump_call_s)
        m["reconstruct.cg_iterations"] = per(c["reconstruct.cg_iterations"], "count")
        m["reconstruct.write_csv.s"] = per(total_s["reconstruct.write_csv"], "s")
        m["grids.build_s"] = per(total_s["grids.build"], "s")
        return m

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, request."""
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def _root_call(spans: list, index: int) -> float:
    """Duration of the cli.main span that encloses span ``index``."""
    while index is not None and spans[index][0] != "cli.main":
        index = spans[index][3]
    return 0.0 if index is None else spans[index][2] - spans[index][1]
