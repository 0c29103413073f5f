"""Compare two checkouts on pipebench and write a BENCH_<n>.json record.

    python3 tools/bench_pairs.py --parent ../base --change . --out BENCH_10.json

For every workload that the change's BENCHMARK.json lists and each of the
benchmark's seeds 1-10, it runs the unmodified `pipebench/run.py --trace 0`
for the BENCHMARK.json run length once in each checkout, one right after the
other, and alternates which checkout goes first from one seed to the next so
that slow drift of the machine falls on both sides alike.  One `--trace 1`
run per checkout and workload, on seed 1, gives the per-layer counts.

The record holds, per workload and end-to-end metric, both sides' values,
medians and quartiles, the number of pairs the change won (all four
metrics are better when lower), whether the change's median stays within
the metric's BENCHMARK.json bound of the parent's (at most parent median *
(1 + bound)), and whether the comparison is unresolved: the parent's own
quartile spread is wider than the bound (parent IQR > bound * parent
median) and not every change run beats every parent run, so the runs
cannot tell a change within the bound from one outside it.  Also recorded:
both commits, the Python version and `kernels.BACKEND` as the runs reported
them.  Numbers are integers or decimal strings, never floats.  Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

END_TO_END = ("wall_s", "cold_s", "setup_s", "peak_rss_mib")
SIDES = ("parent", "change")
SEEDS = range(1, 11)


def decimal(x: float) -> str:
    return f"{x:.6f}"


def exact(value):
    """A metric value as the record stores it: counts stay integers."""
    return value if isinstance(value, int) else decimal(value)


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=checkout, stdout=subprocess.PIPE, text=True, check=True).stdout.strip()


def describe(checkout: Path) -> dict:
    """The checkout's commit, and whether its tracked files differ from it."""
    modified = git(checkout, "status", "--porcelain", "--untracked-files=no")
    return {"commit": git(checkout, "rev-parse", "HEAD"), "modified": bool(modified)}


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One pipebench run; its summary plus the backend and Python it names."""
    proc = subprocess.run(
        [sys.executable, "pipebench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    words = lines[-2].split()  # workload W  seed N  backend B  python P
    summary = json.loads(lines[-1])
    summary["backend"] = words[words.index("backend") + 1]
    summary["python"] = words[words.index("python") + 1]
    return summary


def spread(values: list[float]) -> dict:
    q1, _, q3 = quantiles(values, n=4)
    return {"median": decimal(median(values)), "q1": decimal(q1), "q3": decimal(q3)}


def compare(pairs: list[dict], bounds: dict[str, float]) -> dict:
    """Per metric: both sides' values and spreads, the pairs the change won,
    whether the change's median is within the metric's bound, and whether
    the parent's spread is too wide for that bound to be told."""
    out = {}
    for metric in END_TO_END:
        values = {side: [p[side]["metrics"][metric]["value"] for p in pairs] for side in SIDES}
        parent_q1, _, parent_q3 = quantiles(values["parent"], n=4)
        parent_median, change_median = median(values["parent"]), median(values["change"])
        every_change_run_better = max(values["change"]) < min(values["parent"])
        out[metric] = {
            **{side: dict(spread(values[side]), values=[decimal(v) for v in values[side]]) for side in SIDES},
            "pairs_won": sum(c < p for p, c in zip(values["parent"], values["change"])),
            "pairs": len(pairs),
            "median_gain_exceeds_parent_iqr": parent_median - change_median > parent_q3 - parent_q1,
            "bound": decimal(bounds[metric]),
            "within_bound": change_median <= parent_median * (1 + bounds[metric]),
            "unresolved": parent_q3 - parent_q1 > bounds[metric] * parent_median and not every_change_run_better,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    record = {side: describe(path) for side, path in checkouts.items()}
    record.update(seconds=decimal(seconds), seeds=list(SEEDS), workloads={})
    seen = set()
    for workload in (w["name"] for w in benchmark["workloads"]):
        pairs = []
        for seed in SEEDS:
            order = SIDES if seed % 2 else SIDES[::-1]
            pair = {side: run(checkouts[side], workload, seed, seconds, 0) for side in order}
            pairs.append(pair)
            seen.update((s["backend"], s["python"]) for s in pair.values())
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{side} {decimal(pair[side]['metrics']['wall_s']['value'])} s" for side in SIDES), flush=True)
        traced = {side: run(checkouts[side], workload, SEEDS[0], seconds, 1) for side in SIDES}
        record["workloads"][workload] = {
            "failed": {side: sum(p[side]["failed"] for p in pairs) for side in SIDES},
            "attempted": {side: sum(p[side]["attempted"] for p in pairs) for side in SIDES},
            "all_correct": all(p[side]["correct"] for p in pairs for side in SIDES),
            "metrics": compare(pairs, bounds),
            "traced": {
                "seed": SEEDS[0],
                **{side: {name: exact(m["value"]) for name, m in traced[side]["metrics"].items()} for side in SIDES},
            },
        }
    (backend, python), *rest = sorted(seen)
    if rest:
        raise SystemExit(f"runs disagree on backend or Python: {sorted(seen)}")
    record.update(backend=backend, python=python)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
