"""Command-line interface.

Exit codes: 0 ok, 1 usage error (including any input the library rejects
with ValueError), 2 verification failure, 3 budget exceeded.
All reported answers are exact decimal/rational strings; wall times are
integer milliseconds, so reports never contain floating-point values.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import csp, oracles
from .bis_reduction import count_is
from .csp import classify, count_affine, count_bruteforce, instance_from_json, relations_from_json
from .errors import BudgetError, GraphParseError
from .forest import forest_poly_bruteforce, forest_poly_sp, tutte_y1
from .graphs import Multigraph, NAMED_GRAPHS, named_graph, parse_graph
from .oracles import forests_bruteforce, is_bruteforce, pm_bruteforce, vc_bruteforce
from .pm_reduction import PmReductionParams, count_pm
from .verify import run_suites

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
EXIT_BUDGET = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


class Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        raise CliError(message, EXIT_USAGE)


@dataclass
class RunReport:
    """What every command prints: exact strings only, never floats."""

    command: str
    parameters: dict[str, str]
    answers: dict[str, str] = field(default_factory=dict)
    query_count: Optional[int] = None
    wall_ms: int = 0
    transcript: Optional[str] = None
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        lines = [f"command: {self.command}"]
        if self.parameters:
            lines.append("parameters: " + " ".join(f"{k}={v}" for k, v in self.parameters.items()))
        for key, val in self.answers.items():
            lines.append(f"{key}: {val}")
        if self.query_count is not None:
            lines.append(f"queries: {self.query_count}")
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.append(f"wall-ms: {self.wall_ms}")
        if self.transcript:
            lines.append(f"transcript: {self.transcript}")
        return "\n".join(lines)


def load_graph(name_or_path: str) -> Multigraph:
    """A built-in name (k2, k3, k4, c4, p3, p4, petersen, ...) or a file path."""
    if name_or_path.lower() in NAMED_GRAPHS:
        return named_graph(name_or_path)
    path = Path(name_or_path)
    if not path.exists():
        raise CliError(f"graph {name_or_path!r} is neither a named graph nor an existing file")
    try:
        return parse_graph(path.read_text(encoding="utf-8"))
    except GraphParseError as exc:
        raise CliError(f"cannot parse {name_or_path}: {exc}") from exc


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"not a rational number: {text!r}") from exc


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    start = time.monotonic()
    results = run_suites(args.suite, args.seed)
    wall = int((time.monotonic() - start) * 1000)
    exit_code = EXIT_OK
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: {res.checks} checks, {len(res.failures)} failures")
        for dump in res.failures[:10]:
            print(f"  counterexample: {dump}")
        if not res.passed:
            exit_code = EXIT_VERIFICATION
    print(f"wall-ms: {wall}")
    return exit_code


def cmd_reduce_pm(args) -> int:
    g = load_graph(args.graph)
    start = time.monotonic()
    params = PmReductionParams(C=args.C, x=parse_rational(args.x), k=args.k)
    if g.n > oracles.PM_VERTEX_GUARD:
        # the cross-check would refuse after the whole pipeline had run
        raise BudgetError(f"{g.n} vertices exceeds the matching budget of {oracles.PM_VERTEX_GUARD}")
    result = count_pm(g, params)
    truth = pm_bruteforce(g)
    wall = int((time.monotonic() - start) * 1000)
    report = RunReport(
        command="reduce pm",
        parameters={"graph": args.graph, "C": str(args.C), "x": args.x, "k": str(args.k)},
        answers={"answer": str(result.count), "oracle answer": str(truth)},
        query_count=result.query_count,
        wall_ms=wall,
    )
    if result.odd_warning:
        report.notes.append("odd vertex count: no perfect matching exists")
    report.answers["verdict"] = "AGREE" if result.count == truth else "DISAGREE"
    if args.transcript:
        result.transcript.write_jsonl(args.transcript)
        report.transcript = args.transcript
    print(report.render())
    return EXIT_OK if result.count == truth else EXIT_VERIFICATION


def cmd_reduce_bis(args) -> int:
    g = load_graph(args.graph)
    start = time.monotonic()
    result = count_is(g, args.d, oracle=args.oracle)
    truth = is_bruteforce(g)
    wall = int((time.monotonic() - start) * 1000)
    report = RunReport(
        command="reduce bis",
        parameters={"graph": args.graph, "d": str(args.d), "oracle": args.oracle},
        answers={"answer": str(result.count), "oracle answer": str(truth)},
        query_count=result.query_count,
        wall_ms=wall,
    )
    report.answers["verdict"] = "AGREE" if result.count == truth else "DISAGREE"
    if args.transcript:
        result.transcript.write_jsonl(args.transcript)
        report.transcript = args.transcript
    print(report.render())
    return EXIT_OK if result.count == truth else EXIT_VERIFICATION


def cmd_forest_poly(args) -> int:
    g = load_graph(args.graph)
    start = time.monotonic()
    if args.at is not None:
        w = parse_rational(args.at)
        value = forest_poly_sp(g, [w] * g.m)
        wall = int((time.monotonic() - start) * 1000)
        report = RunReport(
            command="forest-poly",
            parameters={"graph": args.graph, "at": args.at},
            answers={"answer": str(value)},
            wall_ms=wall,
        )
    else:
        result = forest_poly_bruteforce(g, ["x"] * g.m)
        coeffs = [
            str(result.poly.coefficient((k,)))
            for k in range(result.max_forest_size + 1)
        ]
        wall = int((time.monotonic() - start) * 1000)
        report = RunReport(
            command="forest-poly",
            parameters={"graph": args.graph},
            answers={
                "answer": str(result.poly),
                "coefficients": " ".join(coeffs),
                "forest count": str(result.forest_count),
            },
            wall_ms=wall,
        )
    print(report.render())
    return EXIT_OK


def cmd_tutte(args) -> int:
    g = load_graph(args.graph)
    x = parse_rational(args.x)
    start = time.monotonic()
    value = tutte_y1(g, x)
    wall = int((time.monotonic() - start) * 1000)
    report = RunReport(
        command="tutte",
        parameters={"graph": args.graph, "x": args.x, "y": "1"},
        answers={"answer": str(value)},
        wall_ms=wall,
    )
    print(report.render())
    return EXIT_OK


def cmd_oracle(args) -> int:
    g = load_graph(args.graph)
    fn = {
        "pm": pm_bruteforce,
        "is": is_bruteforce,
        "vc": vc_bruteforce,
        "forests": forests_bruteforce,
    }[args.kind]
    start = time.monotonic()
    value = fn(g)
    wall = int((time.monotonic() - start) * 1000)
    report = RunReport(
        command=f"oracle {args.kind}",
        parameters={"graph": args.graph},
        answers={"answer": str(value)},
        wall_ms=wall,
    )
    print(report.render())
    return EXIT_OK


def cmd_csp(args) -> int:
    try:
        data = json.loads(Path(args.input).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read {args.input}: {exc}") from exc
    start = time.monotonic()
    if args.kind == "classify":
        try:
            gamma = relations_from_json(data)
        except (KeyError, ValueError) as exc:
            raise CliError(f"bad relations file: {exc}") from exc
        result = classify(gamma)
        wall = int((time.monotonic() - start) * 1000)
        answers = {"answer": "AllAffine" if result.all_affine else "ContainsNonAffine"}
        if not result.all_affine:
            answers["witness"] = ",".join(result.witness.bitstrings())
            answers["size constant"] = str(result.size_constant)
        report = RunReport(
            command="csp classify", parameters={"input": args.input}, answers=answers, wall_ms=wall
        )
        print(report.render())
        return EXIT_OK
    try:
        inst = instance_from_json(data)
    except (KeyError, ValueError) as exc:
        raise CliError(f"bad instance file: {exc}") from exc
    all_affine = classify(inst.relations).all_affine
    if all_affine:
        value = count_affine(inst)
        method = "gf2-elimination"
    else:
        value = count_bruteforce(inst)
        method = "enumeration"
    answers = {"answer": str(value), "method": method}
    exit_code = EXIT_OK
    notes = []
    if all_affine and inst.n <= csp.CSP_VAR_GUARD:
        check = count_bruteforce(inst)
        answers["oracle answer"] = str(check)
        answers["verdict"] = "AGREE" if check == value else "DISAGREE"
        if check != value:
            exit_code = EXIT_VERIFICATION
    elif all_affine:
        notes.append("oracle answer skipped (budget)")
    wall = int((time.monotonic() - start) * 1000)
    report = RunReport(
        command="csp count", parameters={"input": args.input}, answers=answers, wall_ms=wall, notes=notes
    )
    print(report.render())
    return exit_code


# ---------------------------------------------------------------------------
# Wiring
# ---------------------------------------------------------------------------


def build_parser() -> Parser:
    parser = Parser(prog="polycount", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a property suite; nonzero exit on any violation")
    p.add_argument("suite", choices=["apex", "stretch", "gadget", "eq6", "kron", "csp", "all"])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("reduce", help="run a counting reduction pipeline")
    kinds = p.add_subparsers(dest="kind", required=True)
    pm = kinds.add_parser("pm", help="perfect matchings via a forest-sum oracle")
    pm.add_argument("--graph", required=True, help="named graph or file path")
    pm.add_argument("--C", type=int, required=True, help="interpolation class size")
    pm.add_argument("--x", default="2", help="oracle evaluation point (rational, != 1)")
    pm.add_argument("--k", type=int, default=3, help="stretch factor (odd, at least 3)")
    pm.add_argument("--transcript", help="write oracle queries as JSON lines")
    pm.set_defaults(fn=cmd_reduce_pm)
    bis = kinds.add_parser("bis", help="independent sets via a bipartite cover oracle")
    bis.add_argument("--graph", required=True)
    bis.add_argument("--d", type=int, required=True, help="edge block size")
    bis.add_argument("--oracle", choices=["auto", "conditioned"], default="auto")
    bis.add_argument("--transcript", help="write oracle queries as JSON lines")
    bis.set_defaults(fn=cmd_reduce_bis)

    p = sub.add_parser("forest-poly", help="forest generating polynomial or one evaluation")
    p.add_argument("--graph", required=True)
    p.add_argument("--at", help="evaluate at this rational instead of printing coefficients")
    p.set_defaults(fn=cmd_forest_poly)

    p = sub.add_parser("tutte", help="Tutte value on the y=1 line")
    p.add_argument("--graph", required=True)
    p.add_argument("--x", required=True, help="evaluation point (rational, != 1)")
    p.set_defaults(fn=cmd_tutte)

    p = sub.add_parser("oracle", help="brute-force ground-truth counters")
    p.add_argument("kind", choices=["pm", "is", "vc", "forests"])
    p.add_argument("--graph", required=True)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("csp", help="Boolean constraint-language tools")
    p.add_argument("kind", choices=["classify", "count"])
    p.add_argument("--input", required=True, help="JSON relations/instance file")
    p.set_defaults(fn=cmd_csp)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:  # an input the library rejects
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
