"""The benchmark's span hooks (pipebench/spans.py) name polycount functions
by module and attribute; a renamed function would otherwise break only the
traced benchmark run."""

import importlib
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

from polycount import named_graph

SPANS = Path(__file__).resolve().parent.parent / "pipebench" / "spans.py"


def _load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave pipebench/ untouched
    spec = importlib.util.spec_from_file_location("pipebench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    modules = {owner.partition(".")[0] for owner, *_ in spans.HOOKS}
    return spans, {name: importlib.import_module(f"polycount.{name}") for name in modules}


def test_every_hook_resolves_to_a_callable(monkeypatch):
    spans, modules = _load_spans(monkeypatch)
    for owner_name, attr, span_name, _ in spans.HOOKS:
        owner = spans._resolve(modules, owner_name)
        assert callable(getattr(owner, attr, None)), f"{span_name}: polycount.{owner_name}.{attr}"


def test_hooks_see_the_forest_core(monkeypatch):
    spans, modules = _load_spans(monkeypatch)
    forest = modules["forest"]
    k4 = named_graph("k4")
    tracer = spans.Tracer()
    with tracer.installed(modules):
        # the enumeration oracle makes one core call over all of K4
        forest.bruteforce_simple_oracle(Fraction(1))(k4)
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["forest.sp_calls"] == 0
    assert metrics["forest.core_calls"] == 1
    assert metrics["forest.core_edges_max"] == 6
    assert metrics["kernels.forests_enumerated"] == 38

    tracer = spans.Tracer()
    with tracer.installed(modules):
        # the series-parallel evaluator splits the sparse K4 core on one edge
        # and reduces both halves itself, unseen by the hooks
        assert forest.forest_poly_sp(k4, [Fraction(1)] * 6) == 38
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["forest.sp_calls"] == 1
    assert metrics["forest.core_calls"] == metrics["kernels.forests_enumerated"] == 0


def test_hooks_count_one_sp_call_per_evaluation(monkeypatch):
    # Petersen's core splits into many branches; they recurse below the
    # hooked name, so the trace counts one evaluation
    spans, modules = _load_spans(monkeypatch)
    forest = modules["forest"]
    tracer = spans.Tracer()
    with tracer.installed(modules):
        assert forest.tutte_y1(named_graph("petersen"), Fraction(2)) == 22292
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["forest.sp_calls"] == 1
    assert metrics["forest.core_calls"] == 0
