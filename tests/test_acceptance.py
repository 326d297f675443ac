"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import time
from contextlib import redirect_stdout
from io import StringIO
from itertools import product

from floc.cli import main as cli_main
from floc.faultmodel import CandidateKind, enumerate_candidates
from floc.frontend import PreconditionViolated, eval_post, interpret, parse
from floc.frontend.syntax import (
    BINARY_OPS,
    Binary,
    BoolLit,
    IntLit,
    Neg,
    Not,
    Sort,
    Var,
    ast_equal,
    expr_text,
)
from floc.frontend.typecheck import check_program
from floc.localize import localize_norm
from floc.normalizer import normalize
from floc.solvers import SolverConfig, decide
from floc.vcgen import gen_obligations

from conftest import CORPUS_NAMES, build, corpus_path, load
from mclgen import ProgramGen
from oracles import QueryGen, brute_force_decide, replace_site, tree_eval


def _report(n: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" — {detail}" if detail else ""
    print(f"[{status}] criterion {n}: {name}{suffix}")
    assert ok, f"criterion {n} failed: {name}{suffix}"


def test_criterion_1_example_1_end_to_end():
    started = time.monotonic()
    pipe = build("max")
    nf = pipe.norm.function("max")
    cfg = SolverConfig(bound=8)

    report = localize_norm(pipe, nf, cfg)
    elapsed = time.monotonic() - started

    detection_invalid = report.detection.verdict.is_invalid

    cands = enumerate_candidates(pipe.norm, nf)
    expected_sites = [
        (1, CandidateKind.DECL_INIT, "a", 3),
        (2, CandidateKind.IF_COND, "b > a", 4),
        (3, CandidateKind.ASSIGN_RHS, "a", 5),
        (4, CandidateKind.RETURN_EXPR, "r", 6),
    ]
    candidates_match = [
        (c.id, c.kind, c.location.normalized_text, c.location.line) for c in cands
    ] == expected_sites

    reported = {(c.candidate.id, c.candidate.location.line) for c in report.reported}
    reported_exact = reported == {(3, 5), (4, 6)}
    rejected = {c.candidate.id: c.overall for c in report.candidates}
    c1_c2_rejected = rejected[1] == "NotRepairable" and rejected[2] == "NotRepairable"

    ok = detection_invalid and candidates_match and reported_exact and c1_c2_rejected and elapsed < 1.0
    _report(
        1,
        "worked maximum example end to end",
        ok,
        f"reported={sorted(reported)}, {elapsed:.2f}s",
    )


def test_criterion_2_instrumented_formula_fidelity():
    pipe = build("max")
    nf = pipe.norm.function("max")
    cands = enumerate_candidates(pipe.norm, nf)

    def body_of(cand):
        obls = gen_obligations(pipe.norm, nf, site=cand)
        assert len(obls) == 1
        return obls[0].body, obls[0].placeholder[0]

    body1, c1 = body_of(cands[0])
    body3, c3 = body_of(cands[2])
    box = range(-8, 9)
    c1_ok = all(
        tree_eval(body1, {"a": a, "b": b, c1: c}) == ((b <= a) and (c >= b))
        for a, b, c in product(box, box, box)
    )
    c3_ok = all(
        tree_eval(body3, {"a": a, "b": b, c3: c}) == ((b <= a) or (c >= b))
        for a, b, c in product(box, box, box)
    )
    _report(2, "instrumented correctness formulas match the worked example", c1_ok and c3_ok)


def test_criterion_3_wrong_constant_initializer():
    pipe = build("tcas_v7")
    nf = pipe.norm.function("initialize")
    report = localize_norm(pipe, nf, SolverConfig(bound=8, placeholder_bound=800))
    texts = [c.candidate.location.original_text for c in report.reported]
    ok = "550" in texts and len(texts) <= 2
    _report(3, "wrong threshold constant localized", ok, f"reported={texts}")


def test_criterion_4_offbyone_comparison():
    pipe = build("tcas_v9")
    nf = pipe.norm.function("NonCrossBiasedDescend")
    report = localize_norm(pipe, nf, SolverConfig(bound=3))
    sites = [
        (c.candidate.location.normalized_text, c.candidate.location.line)
        for c in report.reported
    ]
    ok = ("tmp_0 >= DwnSep", 121) in sites and len(sites) <= 3
    _report(4, "biased-descend comparison fault localized", ok, f"reported={sites}")


# -- criterion 5: mutation completeness ----------------------------------------


def _int_mutations(e, params):
    out = [IntLit(0, span=e.span), IntLit(1, span=e.span)]
    match e:
        case IntLit(value=v):
            out += [IntLit(v + 1, span=e.span), IntLit(v - 1, span=e.span), IntLit(-v, span=e.span)]
        case Var(name=n):
            out += [Var(p, span=e.span) for p in params if p != n]
            out += [
                Neg(Var(n, span=e.span), span=e.span),
                Binary("+", Var(n, span=e.span), IntLit(1, span=e.span), span=e.span),
                Binary("-", Var(n, span=e.span), IntLit(1, span=e.span), span=e.span),
            ]
        case Neg(arg=a):
            out += [Var(a.name, span=e.span)] if isinstance(a, Var) else []
        case Binary(op="+", left=l, right=r):
            out += [Binary("-", l, r, span=e.span), Binary("-", r, l, span=e.span), Binary("*", l, r, span=e.span)]
        case Binary(op="-", left=l, right=r):
            out += [Binary("+", l, r, span=e.span), Binary("-", r, l, span=e.span)]
        case Binary(op="*", left=l, right=r):
            out += [Binary("+", l, r, span=e.span)]
    return out


# each comparison gets a near-miss and a polarity flip
_CMP_FLIP = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "=="}
_CMP_TURN = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "<=", "!=": "=="}


def _bool_mutations(e, params):
    out = [BoolLit(True, span=e.span), BoolLit(False, span=e.span)]
    match e:
        case Binary(op=op, left=l, right=r) if op in _CMP_FLIP:
            out += [
                Binary(_CMP_FLIP[op], l, r, span=e.span),
                Binary(_CMP_TURN[op], l, r, span=e.span),
                Binary(op, r, l, span=e.span),
            ]
        case Var(name=n):
            out += [Not(Var(n, span=e.span), span=e.span)]
    return out


def _set_sorts(e, sort):
    e.sort = sort
    match e:
        case Neg(arg=a) | Not(arg=a):
            _set_sorts(a, Sort.INT if isinstance(e, Neg) else Sort.BOOL)
        case Binary(op=op, left=l, right=r):
            _set_sorts(l, BINARY_OPS[op].operand)
            _set_sorts(r, BINARY_OPS[op].operand)
    return e


def test_criterion_5_mutation_completeness():
    started = time.monotonic()
    targets = [("straightline", fn) for fn in ("max2", "abs_val", "dist", "sign", "odd_succ")]
    targets.append(("max_fixed", "max"))

    verify_cfg = SolverConfig(bound=8)
    # a placeholder must be able to mimic the original site value; flat
    # expressions without multiplication over [-8,8] stay within +-17
    loc_cfg = SolverConfig(bound=8, placeholder_bound=24)

    total = invalid = localized = 0
    misses = []
    for name, fname in targets:
        pipe = build(name)
        nf = pipe.norm.function(fname)
        base = localize_norm(pipe, nf, verify_cfg)
        assert base.detection.verdict.is_valid, (name, fname)
        params = [p.name for p in nf.params]
        for cand in enumerate_candidates(pipe.norm, nf):
            site = cand.location.normalized_text
            original = _site_expr_of(nf, cand.id)
            exprs = (
                _int_mutations if cand.sort is Sort.INT else _bool_mutations
            )(original, params)
            tried: set[str] = set()
            for new_expr in exprs:
                _set_sorts(new_expr, cand.sort)
                if ast_equal(new_expr, original):
                    continue
                key = expr_text(new_expr)
                if key in tried:
                    continue
                tried.add(key)
                mutant = replace_site(nf, cand.id, new_expr)
                total += 1
                report = localize_norm(pipe, mutant, loc_cfg)
                if not report.detection.verdict.is_invalid:
                    continue
                invalid += 1
                if any(c.candidate.id == cand.id for c in report.reported):
                    localized += 1
                else:
                    misses.append((name, fname, cand.id, site))
    elapsed = time.monotonic() - started
    ok = total >= 100 and invalid > 0 and not misses and elapsed < 60.0
    _report(
        5,
        "single-site mutants always localized",
        ok,
        f"{total} mutants, {invalid} detectable, {localized} localized, "
        f"misses={misses[:3]}, {elapsed:.1f}s",
    )


def _site_expr_of(nf, cand_id):
    from floc.faultmodel import _site_expr, _walk_sites

    hits = 0
    for kind, stmt, _ in _walk_sites(nf.body, False):
        hits += 1
        if hits == cand_id:
            return _site_expr(kind, stmt)
    raise AssertionError(cand_id)


# -- criterion 6: solver oracle equivalence --------------------------------------


def test_criterion_6_solver_oracle_equivalence():
    rng = random.Random(42)
    gen = QueryGen(rng)
    cfg = SolverConfig(bound=4, placeholder_bound=4, timeout=120)
    queries = [gen.query() for _ in range(200)]

    agree = 0
    for q in queries:
        got = decide(q, cfg)
        want = brute_force_decide(q, 4, 4)
        if str(got) == want or str(got).startswith(want):
            agree += 1
    internal_ok = agree == len(queries)

    prover = os.environ.get("FLOC_PROVER") or (shutil.which("z3") and "z3 -smt2")
    external_note = "external prover not configured, external half skipped"
    external_ok = True
    if prover:
        ext_cfg = SolverConfig(
            backend="external", prover_command=prover, bound=4, timeout=10
        )
        checked = 0
        for q in queries:
            internal = decide(q, cfg)
            if not internal.is_invalid:
                continue  # bounded Valid does not imply unbounded Valid
            external = decide(q, ext_cfg)
            if external.is_unknown:
                continue
            checked += 1
            if not external.is_invalid:
                external_ok = False
        external_note = f"external agreed on {checked} conclusive Invalid queries"

    _report(
        6,
        "internal enumerator equals the brute-force oracle",
        internal_ok and external_ok,
        f"{agree}/200 agree; {external_note}",
    )


def test_criterion_7_wp_matches_interpreter():
    rng = random.Random(77)
    gen = ProgramGen(rng)
    pairs = agree = 0
    while pairs < 500:
        program = check_program(parse(gen.program_source()))
        np = normalize(program)
        fn = program.functions[0]
        obls = gen_obligations(np, np.function(fn.name))
        assert len(obls) == 1
        body = obls[0].body
        for _ in range(5):
            env = gen.inputs([p.name for p in fn.params], bound=8)
            outcome = interpret(program, fn.name, env)
            if isinstance(outcome, PreconditionViolated):
                holds = True
            else:
                holds = eval_post(program, fn, env, outcome.value, outcome.globals)
            pairs += 1
            if bool(tree_eval(body, env)) == bool(holds):
                agree += 1
    _report(7, "closed formula truth equals interpreter verdict", agree == pairs, f"{agree}/{pairs}")


def test_criterion_8_monotonicity_and_determinism():
    cfg = SolverConfig(bound=2)
    monotone = True
    for name in CORPUS_NAMES:
        pipe = build(name)
        for nf in pipe.norm.functions:
            per = localize_norm(pipe, nf, cfg, "per-obligation")
            conj = localize_norm(pipe, nf, cfg, "conjunction")
            per_ids = {c.candidate.id for c in per.reported}
            conj_ids = {c.candidate.id for c in conj.reported}
            if not conj_ids <= per_ids:
                monotone = False

    identical = True
    for name in ("max", "tcas_v9", "countdown"):
        args = ["localize", str(corpus_path(name)), "--format", "json", "--bound", "2"]
        outs = []
        for _ in range(2):
            buf = StringIO()
            with redirect_stdout(buf):
                code = cli_main(list(args))
            assert code == 0
            outs.append(buf.getvalue())
        if outs[0] != outs[1]:
            identical = False
        json.loads(outs[0])  # machine-readable indeed

    _report(
        8,
        "conjunction mode narrows reports; reports are byte-deterministic",
        monotone and identical,
    )
