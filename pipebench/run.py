"""Layered benchmark of polycount's pipelines on the pure-Python lane.

    python3 pipebench/run.py --workload pm-k33 --seed 1 --seconds 16 --trace 0

Runs from the root of a polycount checkout and drives the package in
`src/` directly (no build step).  Each run starts fresh worker processes one
after another: SETUP_ONLY workers that only set up, then MEASURING workers
that share --seconds between them (one traced worker with --trace 1).  The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`.  Full
results, and the spans of traced runs, go to pipebench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, median_low

from workloads import NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_ONLY = 4
MEASURING = 2  # each pays one cold pass, so cold_s is a median of two
DEADLINE_S = 170  # the whole run, every worker included


def run_worker(mode: str, args, env: dict, deadline: float, seconds: float = 0, spans: Path | None = None) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
        "--seconds", str(seconds),
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    cmd += ["--started-ns", str(time.monotonic_ns())]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the measuring workers run passes, together")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    src = ROOT / "src"
    if not (src / "polycount" / "__init__.py").is_file():
        print(f"polycount sources not found under {src}; run from a polycount checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(src), POLYCOUNT_PURE="1")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = out_dir / f"spans-{stem}.jsonl" if args.trace else None

    try:
        setups = [run_worker("setup", args, env, deadline)["setup_s"] for _ in range(SETUP_ONLY)]
        if args.trace:
            runs = [run_worker("traced", args, env, deadline, args.seconds, spans_path)]
        else:
            runs = [run_worker("untraced", args, env, deadline, args.seconds / MEASURING) for _ in range(MEASURING)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    setups += [r["setup_s"] for r in runs]
    pass_s = [t for r in runs for t in r["pass_s"]]
    failures = [line for r in runs for line in r["failures"]]
    wrong = [line for r in runs for line in r["wrong"]]

    if args.trace:
        (traced,) = runs
        # Counts are the same in every pass; times are medians over the traced passes.
        layers = {name: median_low(p[name] for p in traced["layers"]) for name in traced["layers"][0]}
        layers["trace.overhead_s"] = median(traced["traced_pass_s"]) - median(pass_s)
        metrics = {
            name: {"value": value, "unit": "s" if name.endswith("_s") else "count"}
            for name, value in layers.items()
        }
    else:
        metrics = {
            "wall_s": {"value": median(pass_s), "unit": "s"},
            "cold_s": {"value": median(r["cold_s"] for r in runs), "unit": "s"},
            "setup_s": {"value": median(setups), "unit": "s"},
            "peak_rss_mib": {"value": max(r["peak_rss_mib"] for r in runs), "unit": "MiB"},
        }
    summary = {
        "correct": not wrong,
        "attempted": sum(r["passes"] * r["operations_per_pass"] for r in runs),
        "failed": len(failures),
        "metrics": metrics,
    }
    details = dict(
        summary,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        backend=runs[0]["backend"],
        python=runs[0]["python"],
        setup_samples_s=setups,
        cold_samples_s=[r["cold_s"] for r in runs],
        pass_s=pass_s,
        traced_pass_s=[t for r in runs for t in r["traced_pass_s"]],
        failures=failures,
        wrong=wrong,
        spans=str(spans_path.relative_to(ROOT)) if spans_path else None,
    )
    (out_dir / f"result-{stem}.json").write_text(json.dumps(details, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  backend {details['backend']}  python {details['python']}")
    for line in failures + wrong:
        print(f"  {line}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
