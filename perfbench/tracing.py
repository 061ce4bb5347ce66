"""Span tracing of purepole's public functions, applied from outside the package.

`Tracer.install()` replaces each traced function in every purepole module
namespace that binds it (``analysis``, ``cli`` and ``design`` import
``build_jsa``, ``measure_delta_omega``, ``schmidt_decompose`` and
``optimize_pump_bandwidth`` by name, so patching the defining module alone
would miss their calls) and ``uninstall()`` puts the originals back.  Spans
are kept in memory as ``[name, start, end, parent, op, work, child_time]``
and written out once, when the run ends.  ``work`` carries the size of the
call computed from its arguments (domain points, grid points, matrix
elements) or, for ``measure_delta_omega``, its build limit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

NAME, START, END, PARENT, OP, WORK, CHILD = range(7)


def _arg(fn, name):
    """Extractor for one argument of `fn`, by name, from a call's args."""
    signature = inspect.signature(fn)

    def get(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]

    return get


def _segments(structure) -> int:
    signs = getattr(structure, "signs", None)
    return int(signs.size) if signs is not None else int(structure.segments()[0].size)


def _work_functions(modules) -> dict:
    spectrum, analysis = modules["spectrum"], modules["analysis"]
    pmf_dk = _arg(spectrum.pmf_piecewise, "delta_k")
    pmf_structure = _arg(spectrum.pmf_piecewise, "structure")
    dk_grid = _arg(spectrum.delta_k_grid, "grid")
    dw_max_iter = _arg(spectrum.measure_delta_omega, "max_iter")
    svd_jsa = _arg(analysis.schmidt_decompose, "jsa")

    def grid_points(a, k):
        grid = dk_grid(a, k)
        return grid.n_signal * grid.n_idler

    return {
        "spectrum.pmf_piecewise": lambda a, k: (
            _segments(pmf_structure(a, k)) * int(np.size(pmf_dk(a, k)))
        ),
        "spectrum.delta_k_grid": grid_points,
        "spectrum.measure_delta_omega": lambda a, k: int(dw_max_iter(a, k)),
        "analysis.schmidt_decompose": lambda a, k: int(np.size(getattr(svd_jsa(a, k), "amplitude",
                                                                       svd_jsa(a, k)))),
    }


# (module, attribute) of every traced public function; a dotted attribute
# names a method, patched on its class.
TRACED = (
    ("spectrum", "pmf_piecewise"),
    ("spectrum", "build_jsa"),
    ("spectrum", "measure_delta_omega"),
    ("spectrum", "delta_k_grid"),
    ("spectrum", "write_jsa_csv"),
    ("analysis", "schmidt_decompose"),
    ("analysis", "optimize_pump_bandwidth"),
    ("analysis", "pso_optimize_dc"),
    ("analysis", "purity_vs_range"),
    ("design", "design_cl_scl"),
    ("poling", "greedy_track"),
    ("gvm", "gvm_map"),
    ("gvm", "write_gvm_map_csv"),
    ("dispersion", "DispersionModel.wavenumber"),
    ("cli", "run"),
)


class Tracer:
    """Records nested spans of the traced functions while installed.

    Single-threaded: the span stack is shared, so a traced call must not run
    on a worker thread (purepole's default thread count is 1).
    """

    def __init__(self):
        self.modules = {m: importlib.import_module(f"purepole.{m}") for m, _ in TRACED}
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self._patches: list[tuple[object, str, object]] = []
        self._work = _work_functions(self.modules)

    # -- patching ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, work = self.spans, self.stack, self._work.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, tracer.op,
                    work(args, kwargs) if work else 0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = end = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += end - span[START]

        return traced

    def install(self) -> int:
        """Patch every binding of every traced function; returns the count."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [mod for key, mod in sys.modules.items()
                      if key == "purepole" or key.startswith("purepole.")]
        for module_name, attr in TRACED:
            name = f"{module_name}.{attr.split('.')[-1]}"
            owner = self.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, key, original))
                        setattr(ns, key, wrapped)
        return len(self._patches)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def write_csv(self, path: Path) -> None:
        """One line per span: id, name, start/end (s, perf_counter), parent, op, work."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent,op,work\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]},{s[OP]},{s[WORK]}\n")

    def op_metrics(self, op: int, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced operation."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[OP] == op]
        calls = Counter(s[NAME] for _, s in spans)
        self_s = defaultdict(float)
        work = defaultdict(int)
        for _, s in spans:
            self_s[s[NAME]] += (s[END] - s[START]) - s[CHILD]
            work[s[NAME]] += s[WORK]

        def ancestors(i):
            parent = self.spans[i][PARENT]
            while parent >= 0:
                yield parent
                parent = self.spans[parent][PARENT]

        builds_under = Counter()  # ancestor span id -> descendant build_jsa spans
        direct_builds = Counter()  # parent span id -> child build_jsa spans
        rungs = 0
        for i, s in spans:
            if s[NAME] == "spectrum.build_jsa":
                direct_builds[s[PARENT]] += 1
                for a in ancestors(i):
                    builds_under[a] += 1
            elif (s[NAME] == "analysis.optimize_pump_bandwidth" and s[PARENT] >= 0
                  and self.spans[s[PARENT]][NAME] == "design.design_cl_scl"):
                rungs += 1

        def ids(name):
            return [i for i, s in spans if s[NAME] == name]

        dw_ids = ids("spectrum.measure_delta_omega")
        opt_ids = ids("analysis.optimize_pump_bandwidth")
        # the PSO's own builds are its coarse-grid scores plus one final
        # re-score of the best profile on the standard grid
        scores = sum(max(0, direct_builds[i] - 1) for i in ids("analysis.pso_optimize_dc"))

        def per_call(counter, span_ids):
            return sum(counter[i] for i in span_ids) / len(span_ids) if span_ids else 0.0

        return {
            "spectrum.pmf_piecewise.calls": calls["spectrum.pmf_piecewise"],
            "spectrum.pmf_piecewise.self_s": self_s["spectrum.pmf_piecewise"],
            "spectrum.pmf_piecewise.domain_points": work["spectrum.pmf_piecewise"],
            "spectrum.build_jsa.calls": calls["spectrum.build_jsa"],
            "spectrum.build_jsa.self_s": self_s["spectrum.build_jsa"],
            "spectrum.measure_delta_omega.calls": len(dw_ids),
            "spectrum.measure_delta_omega.builds_per_call": per_call(direct_builds, dw_ids),
            "spectrum.measure_delta_omega.maxed": sum(
                1 for i in dw_ids if direct_builds[i] >= self.spans[i][WORK]),
            "spectrum.delta_k_grid.self_s": self_s["spectrum.delta_k_grid"],
            "spectrum.delta_k_grid.points": work["spectrum.delta_k_grid"],
            "spectrum.write_jsa_csv.self_s": self_s["spectrum.write_jsa_csv"],
            "spectrum.spans": sum(n for name, n in calls.items() if name.startswith("spectrum.")),
            "analysis.schmidt_decompose.calls": calls["analysis.schmidt_decompose"],
            "analysis.schmidt_decompose.self_s": self_s["analysis.schmidt_decompose"],
            "analysis.schmidt_decompose.elems": work["analysis.schmidt_decompose"],
            "analysis.optimize_pump_bandwidth.calls": len(opt_ids),
            "analysis.optimize_pump_bandwidth.self_s": self_s["analysis.optimize_pump_bandwidth"],
            "analysis.optimize_pump_bandwidth.builds_per_call": per_call(builds_under, opt_ids),
            "analysis.pso_optimize_dc.self_s": self_s["analysis.pso_optimize_dc"],
            "analysis.pso_optimize_dc.scores": scores,
            "analysis.purity_vs_range.self_s": self_s["analysis.purity_vs_range"],
            "design.design_cl_scl.self_s": self_s["design.design_cl_scl"],
            "design.design_cl_scl.rungs": rungs,
            "poling.greedy_track.calls": calls["poling.greedy_track"],
            "poling.greedy_track.self_s": self_s["poling.greedy_track"],
            "gvm.gvm_map.self_s": self_s["gvm.gvm_map"],
            "gvm.write_gvm_map_csv.self_s": self_s["gvm.write_gvm_map_csv"],
            "dispersion.wavenumber.calls": calls["dispersion.wavenumber"],
            "dispersion.wavenumber.self_s": self_s["dispersion.wavenumber"],
            "cli.run.self_s": self_s["cli.run"],
            "trace.spans": len(spans),
            "trace.wall_s": wall_s,
        }


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Median over operations of each per-layer metric."""
    return {key: statistics.median(m[key] for m in per_op) for key in per_op[0]}
