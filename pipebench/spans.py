"""Spans around polycount's layer functions, installed from outside the
package by replacing each function at the name its caller looks it up.

A span records its name, start and end (`perf_counter_ns`), the span that
was open when it started, the trace id of the pipeline call it belongs to,
and the work counts of its layer.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

# (module of the caller, attribute the caller looks up, span name, work counts)
HOOKS = (
    ("pm_reduction", "stretch", "graphs.stretch", lambda args, out: {"edges": out.m}),
    ("pm_reduction", "grid_interpolate", "polynomials.grid_interpolate", None),
    ("forest", "forest_poly_sp", "forest.sp", None),
    ("forest", "forest_value_bruteforce", "forest.core", lambda args, out: {"edges": args[0].total_mult}),
    ("kernels", "forest_label_profile", "kernels.forest_label_profile",
     lambda args, out: {"forests": sum(out.values())}),
    ("bis_reduction", "substitute_gadget", "graphs.substitute_gadget", lambda args, out: {"vertices": out.n}),
    ("bis_reduction", "vc_bruteforce", "oracles.vc_bruteforce", lambda args, out: {"subsets": 1 << args[0].n}),
    ("bis_reduction", "conditioned_vc", "bis_reduction.conditioned_vc", None),
    ("bis_reduction", "kronecker_solve", "polynomials.kronecker_solve", None),
    ("bis_reduction", "kronecker_apply", "polynomials.kronecker_apply", None),
    ("polynomials.VandermondeFactor", "inverse", "polynomials.factor_inverse", None),
)

# Per-layer metric: (span name, what to take from that span's records).
# Times are self times: a span's duration minus that of its direct children.
LAYER_METRICS = {
    "forest.sp_self_s": ("forest.sp", "self_s"),
    "forest.sp_calls": ("forest.sp", "calls"),
    "forest.core_s": ("forest.core", "self_s"),
    "forest.core_calls": ("forest.core", "calls"),
    "forest.core_edges_max": ("forest.core", "max:edges"),
    "kernels.forest_label_profile_s": ("kernels.forest_label_profile", "self_s"),
    "kernels.forests_enumerated": ("kernels.forest_label_profile", "sum:forests"),
    "graphs.stretch_s": ("graphs.stretch", "self_s"),
    "graphs.stretch_calls": ("graphs.stretch", "calls"),
    "graphs.stretch_edges": ("graphs.stretch", "sum:edges"),
    "polynomials.grid_interpolate_s": ("polynomials.grid_interpolate", "self_s"),
    "oracles.vc_bruteforce_s": ("oracles.vc_bruteforce", "self_s"),
    "oracles.vc_bruteforce_calls": ("oracles.vc_bruteforce", "calls"),
    "oracles.vc_subsets": ("oracles.vc_bruteforce", "sum:subsets"),
    "bis_reduction.conditioned_vc_s": ("bis_reduction.conditioned_vc", "self_s"),
    "bis_reduction.conditioned_vc_calls": ("bis_reduction.conditioned_vc", "calls"),
    "graphs.substitute_gadget_s": ("graphs.substitute_gadget", "self_s"),
    "graphs.gadget_vertices": ("graphs.substitute_gadget", "sum:vertices"),
    "polynomials.factor_inverse_s": ("polynomials.factor_inverse", "self_s"),
    "polynomials.kronecker_solve_self_s": ("polynomials.kronecker_solve", "self_s"),
    "polynomials.kronecker_apply_s": ("polynomials.kronecker_apply", "self_s"),
    "pm_reduction.queries": ("pipeline.pm_reduction.count_pm", "sum:queries"),
    "bis_reduction.queries": ("pipeline.bis_reduction.count_is", "sum:queries"),
    # Pipeline time that no layer span covers: the self time of the root spans.
    "trace.untraced_s": ("pipeline", "self_s"),
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self._trace_id = 0
        self._span_ids = itertools.count(1)

    def begin(self, name: str) -> dict:
        parent = self._open[-1] if self._open else None
        if parent is None:
            self._trace_id += 1
        span = {
            "trace": self._trace_id,
            "span": next(self._span_ids),
            "parent": parent["span"] if parent else None,
            "name": name,
            "start_ns": time.perf_counter_ns(),
        }
        self._open.append(span)
        return span

    def end(self, span: dict, counts: dict | None = None) -> None:
        span["end_ns"] = time.perf_counter_ns()
        if self._open.pop() is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")
        if counts:
            span.update(counts)
        self.spans.append(span)

    @contextmanager
    def installed(self, pc_modules: dict):
        """Replace every hooked function with a span-recording wrapper."""
        saved = []
        try:
            for owner_name, attr, span_name, counts in HOOKS:
                owner = _resolve(pc_modules, owner_name)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, span_name, counts))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrap(self, fn, name, counts):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.end(span, {"error": True})
                raise
            self.end(span, counts(args, out) if counts else None)
            return out

        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def _resolve(pc_modules: dict, dotted: str):
    module, _, attr = dotted.partition(".")
    owner = pc_modules[module]
    return getattr(owner, attr) if attr else owner


def layer_metrics(spans: list[dict]) -> dict[str, float | int]:
    """Per-layer metrics of one traced pass."""
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    by_name: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        s_self = s["end_ns"] - s["start_ns"] - child_ns[s["span"]]
        record = dict(s, self_ns=s_self)
        by_name[s["name"]].append(record)
        if s["parent"] is None:
            by_name["pipeline"].append(record)
    out: dict[str, float | int] = {}
    for metric, (name, what) in LAYER_METRICS.items():
        records = by_name.get(name, [])
        if what == "self_s":
            out[metric] = sum(r["self_ns"] for r in records) / 1e9
        elif what == "calls":
            out[metric] = len(records)
        else:
            op, key = what.split(":")
            values = [r.get(key, 0) for r in records]
            out[metric] = max(values, default=0) if op == "max" else sum(values)
    return out
