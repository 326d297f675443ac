"""Command-line frontend.

Exit codes: 0 = verified Valid or localization completed, 1 = verify detected
an error (or could not prove correctness), 2 = usage, parse, or type errors,
or an input nested too deeply for Python's recursion limit.
JSON reports are deterministic by default (timing fields zeroed); pass
``--timings`` for measured times.
"""

from __future__ import annotations

import argparse
import json
import sys

from floc.faultmodel import enumerate_candidates
from floc.frontend.lexer import MclSyntaxError
from floc.frontend.parser import parse
from floc.frontend.typecheck import typecheck
from floc.localize import (
    Pipeline,
    localize_norm,
    report_json,
    report_text,
    verify_json,
    verify_norm,
)
from floc.logic import format_formula
from floc.normalizer import dump_normalized
from floc.smtlib import MalformedProverOutput, ProverLaunchFailure
from floc.solvers import SolverConfig
from floc.vcgen import gen_obligations

COMMANDS = ("verify", "localize", "list-candidates", "dump-vc", "dump-normalized")
SOLVING = ("verify", "localize")  # the commands that decide queries and take the solver flags


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="floc", description="contract-based error localization for MCL programs")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("input", help="MCL source file")
        p.add_argument("--function", help="restrict to one function")
        if name in SOLVING:
            p.add_argument("--solver", choices=("internal", "external"), default="internal")
            p.add_argument("--prover", help="external prover command (or FLOC_PROVER)")
            p.add_argument("--bound", type=int, default=8, help="int domain is [-B, B] (internal solver)")
            p.add_argument("--timeout", type=float, default=10.0, help="seconds per query")
            p.add_argument("--format", choices=("text", "json"), default="text", dest="fmt")
            p.add_argument("--timings", action="store_true", help="include measured times in JSON output")
        if name == "localize":
            p.add_argument("--placeholder-bound", type=int, default=None, help="placeholder domain bound, default B")
            p.add_argument("--mode", choices=("per-obligation", "conjunction"), default="per-obligation")
        p.add_argument("--list-candidates", action="store_true", dest="with_candidates")
        p.add_argument("--dump-vc", action="store_true", dest="with_vc")
        p.add_argument("--dump-normalized", action="store_true", dest="with_normalized")
    return ap


def _fail(message: str) -> int:
    print(f"floc: error: {message}", file=sys.stderr)
    return 2


def _candidate_table(pipe: Pipeline, fnames: list[str]) -> str:
    lines = []
    for fname in fnames:
        nf = pipe.norm.function(fname)
        cands = enumerate_candidates(pipe.norm, nf)
        lines.append(f"function {fname}: {len(cands)} candidates")
        for c in cands:
            flag = "  [loop-scoped]" if c.loop_scoped else ""
            lines.append(
                f"  C{c.id}  {c.kind.value:<11}  line {c.location.line:>3}  "
                f"{c.location.normalized_text}{flag}"
            )
    return "\n".join(lines)


def _vc_dump(pipe: Pipeline, fnames: list[str]) -> str:
    lines = []
    for fname in fnames:
        nf = pipe.norm.function(fname)
        for ob in gen_obligations(pipe.norm, nf):
            span = ob.span
            lines.append(f"{ob.id}  (line {span.line})")
            lines.append(f"  {format_formula(ob.body)}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)

    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        return _fail(str(exc))
    except UnicodeDecodeError as exc:
        return _fail(f"{args.input}: {exc}")

    try:
        return _analyse(args, source)
    except RecursionError:  # the parser, WP and the solver recurse over the input's nesting
        return _fail(f"{args.input}: input nested too deeply to analyse")


def _analyse(args, source: str) -> int:
    try:
        program = parse(source, args.input)
    except MclSyntaxError as exc:
        return _fail(f"{args.input}:{exc}")

    diags = typecheck(program)
    if diags:
        for d in diags:
            print(f"floc: {d}", file=sys.stderr)
        return 2

    if args.function is not None and not any(f.name == args.function for f in program.functions):
        return _fail(f"no function named {args.function!r} in {args.input}")

    cfg = None
    if args.command in SOLVING:
        try:
            cfg = SolverConfig(
                backend=args.solver,
                prover_command=args.prover,
                bound=args.bound,
                placeholder_bound=getattr(args, "placeholder_bound", None),  # localize only
                timeout=args.timeout,
            )
        except ValueError as exc:
            return _fail(str(exc))

    pipe = Pipeline.build(program)
    fnames = [args.function] if args.function else [f.name for f in program.functions]

    chunks: list[str] = []
    if args.with_normalized or args.command == "dump-normalized":
        for fname in fnames:
            chunks.append(dump_normalized(pipe.norm, fname))
    if args.with_candidates or args.command == "list-candidates":
        chunks.append(_candidate_table(pipe, fnames))
    if args.with_vc or args.command == "dump-vc":
        chunks.append(_vc_dump(pipe, fnames))

    try:
        status = _run_checks(args, cfg, pipe, fnames, chunks)
    except (ProverLaunchFailure, MalformedProverOutput) as exc:
        return _fail(str(exc))

    print("\n".join(c for c in chunks if c))
    return status


def _run_checks(args, cfg: SolverConfig | None, pipe: Pipeline, fnames: list[str], chunks: list[str]) -> int:
    status = 0
    if args.command == "verify":
        payloads = []
        for fname in fnames:
            det = verify_norm(pipe.norm, pipe.norm.function(fname), cfg)
            if args.fmt == "json":
                payloads.append(verify_json(fname, det, cfg, include_timings=args.timings))
            else:
                chunks.append(f"function {fname}: {det.verdict}")
                for oc in det.obligations:
                    chunks.append(f"  {oc.id}: {oc.verdict}")
            if det.proceed:
                status = 1
        if args.fmt == "json":
            chunks.append(json.dumps(payloads, indent=2))
        else:
            chunks.append(f"semantics: {cfg.semantics}")
    elif args.command == "localize":
        payloads = []
        for fname in fnames:
            report = localize_norm(pipe, pipe.norm.function(fname), cfg, args.mode)
            if args.fmt == "json":
                payloads.append(report_json(report, include_timings=args.timings))
            else:
                chunks.append(report_text(report))
        if args.fmt == "json":
            chunks.append(json.dumps(payloads, indent=2))
    return status


if __name__ == "__main__":
    sys.exit(main())
