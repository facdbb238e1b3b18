"""Per-layer tracing from outside the package.

Each traced function is replaced, in every loaded ``c4lab`` module that
holds it by name, with a wrapper that records a span: name, start, end,
parent span and request id.  Spans stay in memory and are written out
when the run ends.  Nothing under ``src/`` changes; a wrapper outside an
open request calls straight through, so output checks made between
requests leave no spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, function) pairs whose calls become spans.  The layers are the
# modules; `contains_biclique` is reported per s, as `_s2`, `_s3`, ...
TRACED = (
    ("cli", "main"),
    ("graphio", "read_graph6"),
    ("graphs", "induced"),
    ("graphs", "degeneracy"),
    ("graphs", "greedy_coloring"),
    ("graphs", "min_degree_core"),
    ("oracles", "find_c3"),
    ("oracles", "find_c4"),
    ("oracles", "contains_biclique"),
    ("oracles", "best_c4free_induced"),
    ("reductions", "almost_biregular_reduce"),
    ("reductions", "sparsify_short_cycles"),
    ("reductions", "extreme_split"),
    ("reductions", "bipartite_regularize"),
    ("hypergraphs", "furedi_kernel"),
    ("hypergraphs", "verify_kernel"),
    ("hypergraphs", "find_induced_pair"),
    ("hypergraphs", "f_search"),
    ("hypergraphs", "alpha_exact"),
    ("pipeline", "graph_digest"),
    ("pipeline", "verify_certificate"),
    ("pipeline", "model_lopsided"),
    ("pipeline", "extract_induced_c4free"),
    ("subdivisions", "induced_subdivision"),
    ("subdivisions", "find_subdivision"),
    ("subdivisions", "verify_subdivision"),
    ("lowerbounds", "lb_experiment"),
)

# Las Vegas stages: a raise is a wasted attempt, reported as fail_share.
LAS_VEGAS = (
    "reductions.almost_biregular_reduce",
    "reductions.sparsify_short_cycles",
    "reductions.extreme_split",
    "reductions.bipartite_regularize",
    "hypergraphs.furedi_kernel",
)


def span_names() -> list[str]:
    names = []
    for module, func in TRACED:
        if func == "contains_biclique":
            names += [f"{module}.{func}_s2", f"{module}.{func}_s3"]
        else:
            names.append(f"{module}.{func}")
    return names


def layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    out = []
    for name in span_names():
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(f"{name}.fail_share", "ratio") for name in LAS_VEGAS]
    out += [(f"{module}.self_share", "ratio")
            for module in dict.fromkeys(m for m, _ in TRACED)]
    out.append(("trace.overhead_ratio", "ratio"))
    return out


class Tracer:
    """Span recorder; `request` is the id of the open request, or None."""

    def __init__(self) -> None:
        # (span id, parent id, request id, name, start, end, error class)
        self.spans: list[tuple] = []
        self.request: int | None = None
        self._stack: list[int] = []
        self._next_id = 0

    def open(self, name: str) -> tuple[int, int | None, float]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def close(self, handle, name: str, error: str | None) -> None:
        end = time.perf_counter()
        self._stack.pop()
        sid, parent, start = handle
        self.spans.append((sid, parent, self.request, name, start, end, error))

    def begin_request(self, rid: int, name: str):
        self.request = rid
        return self.open(name)

    def end_request(self, handle, name: str) -> None:
        self.close(handle, name, None)
        self.request = None

    def _wrap(self, module: str, func: str, fn):
        tracer = self
        if func == "contains_biclique":
            def name_of(args, kwargs):
                s = kwargs["s"] if "s" in kwargs else args[1]
                return f"{module}.{func}_s{s}"
        else:
            fixed = f"{module}.{func}"

            def name_of(args, kwargs):
                return fixed

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.request is None:
                return fn(*args, **kwargs)
            name = name_of(args, kwargs)
            handle = tracer.open(name)
            error = None
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                tracer.close(handle, name, error)

        return wrapper

    def install(self) -> None:
        """Rebind every traced function in each c4lab module that holds it.

        Modules that import by name (pipeline, reductions, ...) hold their
        own reference; lazy imports read the defining module's attribute at
        call time, so rebinding there covers them too.
        """
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "c4lab" or name.startswith("c4lab."))]
        for module, func in TRACED:
            original = getattr(sys.modules[f"c4lab.{module}"], func)
            wrapped = self._wrap(module, func, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)

    def layer_metrics(self) -> dict[str, float]:
        """Per-function calls, self time and fail share; per-module share.

        Self time is a span's duration minus its direct children's.  The
        module share divides by the summed duration of the request spans.
        """
        child_time: dict[int, float] = {}
        for sid, parent, _, _, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        calls: dict[str, int] = {}
        fails: dict[str, int] = {}
        self_s: dict[str, float] = {}
        request_time = 0.0
        for sid, parent, _, name, start, end, error in self.spans:
            if parent is None:
                request_time += end - start
                continue
            calls[name] = calls.get(name, 0) + 1
            if error is not None:
                fails[name] = fails.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time.get(sid, 0.0)
        metrics: dict[str, float] = {}
        for name in span_names():
            metrics[f"{name}.calls"] = calls.get(name, 0)
            metrics[f"{name}.self_s"] = self_s.get(name, 0.0)
        for name in LAS_VEGAS:
            metrics[f"{name}.fail_share"] = (
                fails.get(name, 0) / calls[name] if calls.get(name) else 0.0)
        module_self: dict[str, float] = {}
        for name, value in self_s.items():
            module = name.split(".", 1)[0]
            module_self[module] = module_self.get(module, 0.0) + value
        for module in dict.fromkeys(m for m, _ in TRACED):
            metrics[f"{module}.self_share"] = (
                module_self.get(module, 0.0) / request_time if request_time else 0.0)
        return metrics

    def write(self, path, origin: float) -> None:
        """One JSON object per span, times in seconds from `origin`."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, rid, name, start, end, error in sorted(self.spans):
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "request": rid, "name": name,
                    "start": round(start - origin, 9), "end": round(end - origin, 9),
                    "error": error}, separators=(",", ":")) + "\n")
