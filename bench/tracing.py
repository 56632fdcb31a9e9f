"""Spans around calls into each ``moyeval`` module, and per-layer metrics.

The tracer wraps public names from outside: it rebinds every module
attribute that refers to a wrapped function (so ``moyeval.cli.eval_table``
and ``moyeval.statesum.eval_table`` are both wrapped), and replaces wrapped
methods on their class.  No file of the package changes.  ``install`` and
``uninstall`` swap the wrappers in and out between passes, so untraced
passes run the original code.

A span is ``[name, start, end, parent, counts]``; spans stay in memory
and are written out by the caller at the end.  A span's self time is its
duration minus the durations of its child spans (calls nest, so children
never overlap).
"""

from __future__ import annotations

import sys
from time import perf_counter

import _paths  # noqa: F401
import moyeval.cli  # noqa: F401  (loads every module of the package)

__all__ = ["Tracer", "layer_metrics", "unit"]


# Each hook maps (tracer, args, kwargs, result) to the span's counts.  Hooks
# run after the span ends and stay O(1) or O(output), because their time
# still lands in the parent span.
def _cycleset_counts(tracer, args, kwargs, result):
    n = tracer.last_cycles = len(args[0].cycles)
    return {"cycles": n, "pairings": n * n}


def _statesum_counts(tracer, args, kwargs, result):
    # eval_table(d, n) and moy_eval(d, coloring, n): the level comes last.
    n = kwargs["n"] if "n" in kwargs else args[-1]
    # Without a cycle_set argument the call builds its own, in a child span.
    cycle_set = kwargs.get("cycle_set")
    cycles = len(cycle_set) if cycle_set is not None else tracer.last_cycles
    counts = {"states": cycles**n}
    if isinstance(result, dict):
        counts["colorings_out"] = len(result)
    else:
        counts["hits"] = result.evaluate_one()
    return counts


def _torus_counts(tracer, args, kwargs, result):
    x, y = args
    return {"pairs": len(x.terms) * len(y.terms), "terms_out": len(result.terms)}


def _rseries_counts(tracer, args, kwargs, result):
    left, right = args
    if type(right) is not type(left):  # scaling by an integer
        return None
    return {"pairs": len(left.terms) * len(right.terms), "terms_out": len(result.terms)}


def _series_mul_counts(tracer, args, kwargs, result):
    return {"kept": len(result.element.terms)}


def _homfly_counts(tracer, args, kwargs, result):
    return {"target": result.q_order}


def _invert_counts(tracer, args, kwargs, result):
    return {"q_order": args[0].q_order}


# (span name, module, name in the module, hook).  A dotted name is a method,
# replaced on its class; a plain name is rebound in every module holding it.
_TARGETS = (
    ("cli.main", "moyeval.cli", "main", None),
    ("diagram.parse", "moyeval.diagram", "parse_diagram", None),
    ("cycles.cycleset", "moyeval.cycles", "CycleSet.__init__", _cycleset_counts),
    ("statesum.eval_table", "moyeval.statesum", "eval_table", _statesum_counts),
    ("statesum.moy_eval", "moyeval.statesum", "moy_eval", _statesum_counts),
    ("genseries.series_N", "moyeval.genseries", "generating_series_N", None),
    ("genseries.classical", "moyeval.genseries", "classical_series", None),
    ("qtorus.torus_mul", "moyeval.qtorus", "torus_mul", _torus_counts),
    ("qtorus.mu", "moyeval.qtorus", "CycleAlgebra.mu", None),
    ("qexact.rseries_mul", "moyeval.qexact", "TruncatedRSeries.__mul__", _rseries_counts),
    ("qexact.qlaurent_mul", "moyeval.qexact", "QLaurent.__mul__", None),
    ("homfly.homfly_series", "moyeval.homfly", "homfly_series", _homfly_counts),
    ("homfly.series_mul", "moyeval.homfly", "TruncatedTorusSeries.__mul__", _series_mul_counts),
    ("homfly.series_invert", "moyeval.homfly", "series_invert", _invert_counts),
    ("homfly.check_fphi", "moyeval.homfly", "check_fphi", None),
    ("homfly.check_shift", "moyeval.homfly", "check_shift", None),
    ("homfly.specialization_check", "moyeval.homfly", "specialization_check", None),
)


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` may repeat."""

    def __init__(self):
        self.spans: list[list] = []
        self.current = -1
        self.last_cycles = 0
        self._bindings = self._find_bindings()

    @staticmethod
    def _find_bindings() -> list[tuple[object, str, object, str, object]]:
        """Every (namespace, attribute, original, span name, hook) to swap.

        A target the package no longer has raises ``LookupError``: its
        metrics would read 0, which looks like a gain, so the traced run
        fails instead.
        """
        modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "moyeval"]
        found = []
        for span, module_name, path, hook in _TARGETS:
            class_name, _, attr = path.rpartition(".")
            module = sys.modules.get(module_name)
            owner = getattr(module, class_name, None) if class_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                raise LookupError(f"tracing: {module_name}.{path} not found, so {span} cannot be traced")
            if class_name:
                found.append((owner, attr, original, span, hook))
            else:
                for holder in modules:
                    found += [
                        (holder, name, original, span, hook)
                        for name, value in vars(holder).items()
                        if value is original
                    ]
        return found

    def _wrap(self, fn, name: str, hook):
        tracer = self
        spans = self.spans

        def wrapper(*args, **kwargs):
            parent = tracer.current
            index = len(spans)
            record = [name, 0.0, 0.0, parent, None]
            spans.append(record)
            tracer.current = index
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                tracer.current = parent
            if hook is not None:
                record[4] = hook(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        wrappers = {}
        for owner, attr, original, span, hook in self._bindings:
            if id(original) not in wrappers:
                wrappers[id(original)] = self._wrap(original, span, hook)
            setattr(owner, attr, wrappers[id(original)])

    def uninstall(self) -> None:
        for owner, attr, original, _, _ in self._bindings:
            setattr(owner, attr, original)

    def bound_names(self) -> list[str]:
        """``module.attribute`` for every rebound name, for the trace file."""
        return sorted({f"{getattr(o, '__name__', o)}.{a}" for o, a, _, _, _ in self._bindings})


# --------------------------------------------------------------------------
# per-layer metrics of one pass

def unit(metric: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("_ratio") else "count"


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Self times, call counts, sizes and ratios of one pass's spans."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    sums: dict[str, int] = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    xdeg_produced = 0
    invert_bounds: list[tuple[int, int]] = []
    for index, (name, start, end, parent, counts) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start - child_time[index])
        calls[name] = calls.get(name, 0) + 1
        for key, value in (counts or {}).items():
            sums[f"{name}.{key}"] = sums.get(f"{name}.{key}", 0) + value
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "qtorus.torus_mul" and parent_name == "homfly.series_mul":
            xdeg_produced += counts["terms_out"]
        if name == "homfly.series_invert" and parent_name == "homfly.homfly_series":
            invert_bounds.append((counts["q_order"], spans[parent][4]["target"]))

    def s(name):
        return self_s.get(name, 0.0)

    def c(key):
        return sums.get(key, 0)

    return {
        "diagram.parse_s": s("diagram.parse"),
        "diagram.parse_calls": calls.get("diagram.parse", 0),
        "cycles.cycleset_s": s("cycles.cycleset"),
        "cycles.cycles": c("cycles.cycleset.cycles"),
        "cycles.pairings": c("cycles.cycleset.pairings"),
        "statesum.eval_table_s": s("statesum.eval_table"),
        "statesum.moy_eval_s": s("statesum.moy_eval"),
        "statesum.calls": calls.get("statesum.eval_table", 0) + calls.get("statesum.moy_eval", 0),
        "statesum.states": c("statesum.eval_table.states") + c("statesum.moy_eval.states"),
        "statesum.colorings_out": c("statesum.eval_table.colorings_out"),
        "statesum.query_hit_ratio": _ratio(c("statesum.moy_eval.hits"), c("statesum.moy_eval.states")),
        "genseries.series_N_s": s("genseries.series_N"),
        "genseries.classical_s": s("genseries.classical"),
        "qtorus.torus_mul_s": s("qtorus.torus_mul"),
        "qtorus.torus_mul_calls": calls.get("qtorus.torus_mul", 0),
        "qtorus.torus_pairs": c("qtorus.torus_mul.pairs"),
        "qtorus.torus_terms_out": c("qtorus.torus_mul.terms_out"),
        "qtorus.mu_s": s("qtorus.mu"),
        "qtorus.mu_calls": calls.get("qtorus.mu", 0),
        "qexact.rseries_mul_s": s("qexact.rseries_mul"),
        "qexact.rseries_mul_calls": calls.get("qexact.rseries_mul", 0),
        "qexact.rseries_pairs": c("qexact.rseries_mul.pairs"),
        "qexact.rseries_terms_out": c("qexact.rseries_mul.terms_out"),
        "qexact.rseries_kept_ratio": _ratio(c("qexact.rseries_mul.terms_out"), c("qexact.rseries_mul.pairs")),
        "qexact.qlaurent_mul_s": s("qexact.qlaurent_mul"),
        "qexact.qlaurent_mul_calls": calls.get("qexact.qlaurent_mul", 0),
        "homfly.homfly_series_s": s("homfly.homfly_series"),
        "homfly.series_mul_calls": calls.get("homfly.series_mul", 0),
        "homfly.xdeg_kept_ratio": _ratio(c("homfly.series_mul.kept"), xdeg_produced),
        "homfly.series_invert_s": s("homfly.series_invert"),
        "homfly.work_q_order": max((work for work, _ in invert_bounds), default=0),
        "homfly.headroom_ratio": _ratio(
            sum(work for work, _ in invert_bounds), sum(target for _, target in invert_bounds)
        ),
        "homfly.check_fphi_s": s("homfly.check_fphi"),
        "homfly.check_shift_s": s("homfly.check_shift"),
        "homfly.specialization_check_s": s("homfly.specialization_check"),
        "cli.self_s": s("cli.main"),
    }

