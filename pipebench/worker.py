"""One benchmark process: set up a workload, then run its passes.

Started by run.py with polycount's sources on PYTHONPATH.  Prints one JSON
line.  Modes:
  setup     stop after set-up (imports and input generation) and report it;
  untraced  a cold first pass, then passes with tracing off;
  traced    a cold first pass, then pairs of one untraced and one traced
            pass.
After the cold pass, rounds (passes or pairs) repeat while another round of
the last one's length still fits in --seconds; there is always one.
"""

from __future__ import annotations

import argparse
import importlib
import json
import platform
import resource
import sys
import time

import reference
import spans
import workloads

PC_MODULES = ("bis_reduction", "forest", "kernels", "pm_reduction", "polynomials")


def run_pass(ops, tracer=None):
    """Run every operation once; return (seconds inside pipeline calls,
    failures, wrong answers)."""
    total_ns = 0
    failures, wrong = [], []
    for op in ops:
        root = tracer.begin(f"pipeline.{op.pipeline}") if tracer else None
        start = time.perf_counter_ns()
        try:
            result = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            if root is not None:
                tracer.end(root, {"error": True})
            failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
            continue
        total_ns += time.perf_counter_ns() - start
        if root is not None:
            queries = getattr(result, "query_count", None)
            tracer.end(root, {"queries": queries} if queries is not None else None)
        problem = op.check(result)
        if problem:
            wrong.append(f"{op.label}: {problem}")
    return total_ns / 1e9, failures, wrong


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "untraced", "traced"))
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--started-ns", type=int, required=True, help="time.monotonic_ns() when the parent started this process")
    parser.add_argument("--spans", help="where a traced run writes its spans")
    args = parser.parse_args()

    import polycount as pc

    modules = {name: importlib.import_module(f"polycount.{name}") for name in PC_MODULES}
    instances = workloads.inputs(args.workload, args.seed)
    make_operations = workloads.build(pc, args.workload, instances)
    setup_s = (time.monotonic_ns() - args.started_ns) / 1e9
    out = {"setup_s": setup_s, "backend": modules["kernels"].BACKEND, "python": platform.python_version()}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    reference.self_test()
    ops = make_operations()
    cold_s, failures, wrong = run_pass(ops)
    untraced, traced, per_pass_layers = [], [], []
    tracer = spans.Tracer()
    began = time.perf_counter()
    while True:
        lap = time.perf_counter()
        results = [run_pass(ops)]
        untraced.append(results[0][0])
        if args.mode == "traced":
            first = len(tracer.spans)
            with tracer.installed(modules):
                results.append(run_pass(ops, tracer))
            traced.append(results[1][0])
            per_pass_layers.append(spans.layer_metrics(tracer.spans[first:]))
        for _, f, w in results:
            failures += f
            wrong += w
        now = time.perf_counter()
        if now - began + (now - lap) > args.seconds:  # the next round would overrun
            break
    if args.spans:
        tracer.write(args.spans)
    out.update(
        cold_s=cold_s,
        pass_s=untraced,
        traced_pass_s=traced,
        layers=per_pass_layers,
        operations_per_pass=len(ops),
        passes=1 + len(untraced) + len(traced),
        failures=failures,
        wrong=wrong,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
