"""Spans around the calls into each whyd layer, recorded from outside.

``Tracer.install`` replaces every public function of the layer modules
(and the public methods of ``CauseAnalysis``) with a wrapper that records
a span: name, start, end, parent span and request id.  A function is
patched under every name that any ``whyd`` module bound it to, so calls
such as ``causality.solve_diagnoses`` or ``abduction.evaluate_fixpoint``
cannot escape their span.  Cached functions are wrapped outside the
cache, so their ``cache_info()`` stays readable and a span records
whether the call missed the cache.

Spans stay in memory until ``write`` dumps them; ``layer_metrics``
reduces them to the per-layer numbers the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types

# the modules of src/whyd that form layers (model and errors are data)
LAYERS = (
    "parsing",
    "evaluator",
    "abduction",
    "hitting",
    "causality",
    "constraints",
    "vc",
    "viewupdate",
    "phca",
    "reports",
    "cli",
)

# output-size measures recorded for the counters that need them
_SIZES = {
    "evaluator.evaluate_fixpoint": lambda model: sum(len(r) for r in model.relations.values()),
    "abduction.solve_diagnoses": len,
    "hitting.minimal_hitting_sets": len,
    "causality.CauseAnalysis.contingency_family": len,
    "vc.vc_causes": len,
    "viewupdate.minimal_source_solutions": len,
    "viewupdate.minimum_source_solutions": len,
    "viewupdate.vsef_solutions": len,
    "reports.emit_report": lambda text: len(text.encode("utf-8")),
}


class Tracer:
    """Spans of one process; ``request`` tags the spans of the request in
    flight."""

    def __init__(self):
        # span: [name, start_ns, end_ns, parent index, request id, size, missed]
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []
        self._cached: dict[str, object] = {}

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        size = _SIZES.get(name)
        cache_info = getattr(fn, "cache_info", None)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.request, None, None]
            spans.append(span)
            stack.append(index)
            misses = cache_info().misses if cache_info else 0
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if cache_info:
                span[6] = cache_info().misses > misses
            if size:
                span[5] = size(result)
            return result

        return traced

    def install(self) -> None:
        """Patch every layer's public functions in all whyd modules."""
        replacements: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"whyd.{layer}")
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if isinstance(value, types.FunctionType) or hasattr(value, "cache_info"):
                    replacements[id(value)] = self._wrap(f"{layer}.{attr}", value)
        causality = importlib.import_module("whyd.causality")
        analysis = causality.CauseAnalysis
        for attr, value in list(vars(analysis).items()):
            if attr.startswith("_"):
                continue
            name = f"causality.CauseAnalysis.{attr}"
            if isinstance(value, staticmethod):
                setattr(analysis, attr, staticmethod(self._wrap(name, value.__func__)))
            elif isinstance(value, types.FunctionType):
                setattr(analysis, attr, self._wrap(name, value))
        self._cached = {
            "abduction": importlib.import_module("whyd.abduction").solve_diagnoses,
            "causality": analysis.__dict__["for_query"].__func__.__wrapped__,
        }
        for module in [m for n, m in sys.modules.items() if n == "whyd" or n.startswith("whyd.")]:
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    setattr(module, attr, replacements[id(value)])

    def cache_counts(self) -> dict[str, tuple[int, int]]:
        """(hits, misses) so far of the two diagnosis-level caches."""
        out = {}
        for layer, fn in self._cached.items():
            info = fn.cache_info()
            out[layer] = (info.hits, info.misses)
        return out

    def write(self, path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "request")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span[:5]))) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], cache_delta: dict[str, tuple[int, int]]) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced pass.

    Self time of a span is its duration minus the durations of its child
    spans (calls are nested, so children never overlap).  A layer's
    ``calls`` and result sizes count only its outermost spans, so a layer
    function calling another one of its own layer is counted once.
    """
    children = [0] * len(spans)
    for _, start, end, parent, *_rest in spans:
        if parent >= 0:
            children[parent] += end - start
    self_ns = {layer: 0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    count: dict[str, int] = {}
    total_ns: dict[str, int] = {}
    size: dict[str, int] = {}
    solve_of = [-1] * len(spans)  # nearest enclosing computed solve_diagnoses
    for i, (name, start, end, parent, _, out, missed) in enumerate(spans):
        layer = name.split(".", 1)[0]
        self_ns[layer] += end - start - children[i]
        count[name] = count.get(name, 0) + 1
        total_ns[name] = total_ns.get(name, 0) + end - start
        outer = parent
        while outer >= 0 and not spans[outer][0].startswith(layer + "."):
            outer = spans[outer][3]
        if outer < 0:
            calls[layer] += 1
            if out is not None:
                size[name] = size.get(name, 0) + out
        if name == "abduction.solve_diagnoses" and missed:
            solve_of[i] = i
        elif parent >= 0:
            solve_of[i] = solve_of[parent]

    fixpoints = "evaluator.evaluate_fixpoint"
    solves = [i for i, s in enumerate(spans) if s[0] == "abduction.solve_diagnoses" and s[6]]
    solve_fixpoints = sum(1 for i, s in enumerate(spans) if s[0] == fixpoints and solve_of[i] >= 0)
    diagnoses = sum(spans[i][5] for i in solves)
    checks = count.get("constraints.satisfies", 0)
    ms = 1e-6
    metrics = {f"{layer}.self_ms": self_ns[layer] * ms for layer in LAYERS}
    metrics.update(
        {
            "evaluator.fixpoints": count.get(fixpoints, 0),
            "evaluator.ms_per_fixpoint": _ratio(total_ns.get(fixpoints, 0) * ms, count.get(fixpoints, 0)),
            "evaluator.model_atoms": sum(s[5] for s in spans if s[0] == fixpoints),
            "abduction.solves": len(solves),
            "abduction.fixpoints_per_solve": _ratio(solve_fixpoints, len(solves)),
            "abduction.diagnoses": diagnoses,
            "abduction.useful_ratio": _ratio(diagnoses, solve_fixpoints),
            "hitting.calls": calls["hitting"],
            "hitting.sets_out": size.get("hitting.minimal_hitting_sets", 0),
            "causality.contingency_sets": sum(
                s[5] for s in spans if s[0] == "causality.CauseAnalysis.contingency_family"
            ),
            "constraints.sat_checks": checks,
            "constraints.ms_per_check": _ratio(total_ns.get("constraints.satisfies", 0) * ms, checks),
            "vc.causes": size.get("vc.vc_causes", 0),
            "viewupdate.solutions": sum(v for k, v in size.items() if k.startswith("viewupdate.")),
            "parsing.calls": calls["parsing"],
            "reports.bytes": size.get("reports.emit_report", 0),
        }
    )
    for layer, (hits, misses) in cache_delta.items():
        metrics[f"{layer}.cache_hit_ratio"] = _ratio(hits, hits + misses)
    return metrics
