from __future__ import annotations

import random
from dataclasses import replace
from itertools import product

import pytest

from floc.faultmodel import enumerate_candidates
from floc.frontend import PreconditionViolated, Returned, eval_post, interpret, parse
from floc.frontend.syntax import GlobalDecl
from floc.frontend.typecheck import check_program
from floc.localize import verify
import floc.vcgen as vcgen
from floc.logic import format_formula, format_query, free_vars, substitute
from floc.normalizer import NormProgram, normalize
from floc.solvers import SolverConfig, decide
from floc.vcgen import ObligationKind, gen_obligations

from conftest import CORPUS_NAMES, build, load, pipeline_from
from mclgen import ProgramGen, straight_line_source
from oracles import copy_and_mutate, tree_eval


def test_buggy_max_wp_formula():
    # hand-applied rules give (b > a => a >= b) && (b <= a => a >= b)
    pipe = build("max")
    obls = gen_obligations(pipe.norm, pipe.norm.function("max"))
    assert len(obls) == 1
    assert obls[0].kind is ObligationKind.POST
    assert (
        format_formula(obls[0].body)
        == "(((b > a) ==> (a >= b)) && ((b <= a) ==> (a >= b)))"
    )
    # falsifiable exactly when b > a
    for a, b in product(range(-4, 5), repeat=2):
        assert tree_eval(obls[0].body, {"a": a, "b": b}) == (b <= a)


def test_wp_agrees_with_interpreter_on_1000_random_inputs():
    program = load("max")
    np = normalize(program)
    body = gen_obligations(np, np.function("max"))[0].body
    rng = random.Random(5)
    fn = program.functions[0]
    for _ in range(1000):
        env = {"a": rng.randint(-50, 50), "b": rng.randint(-50, 50)}
        result = interpret(program, "max", env)
        assert isinstance(result, Returned)
        ok = eval_post(program, fn, env, result.value, result.globals)
        assert tree_eval(body, env) == ok


def test_empty_body_wp_is_postcondition():
    pipe = pipeline_from("int G;\n/*@ ensures G >= 0; @*/\nvoid f() { }\n")
    obls = gen_obligations(pipe.norm, pipe.norm.function("f"))
    assert len(obls) == 1
    assert format_formula(obls[0].body) == "(G >= 0)"


def test_obligation_counts_and_kinds():
    pipe = build("sum_upto")
    obls = gen_obligations(pipe.norm, pipe.norm.function("sum_upto"))
    assert [ob.kind for ob in obls] == [
        ObligationKind.POST,
        ObligationKind.LOOP_INIT,
        ObligationKind.LOOP_PRESERVED,
        ObligationKind.CALLEE_PRE,
    ]
    assert [ob.id for ob in obls] == [
        "sum_upto:PostHolds:0",
        "sum_upto:LoopInvInit:0",
        "sum_upto:LoopInvPreserved:0",
        "sum_upto:CalleePreHolds:0",
    ]


def test_requires_false_is_vacuous():
    pipe = pipeline_from(
        "/*@ requires 1 > 2; ensures \\result == 0; @*/ int f(int a) { return a; }"
    )
    obls = gen_obligations(pipe.norm, pipe.norm.function("f"))
    cfg = SolverConfig(bound=4)
    assert all(decide(ob, cfg).is_valid for ob in obls)


def test_variable_classification_v9():
    pipe = build("tcas_v9")
    obls = gen_obligations(pipe.norm, pipe.norm.function("NonCrossBiasedDescend"))
    post = obls[0]
    input_names = [n for n, _ in post.inputs]
    # params first (none), then read globals in declaration order
    assert input_names == [
        "DwnSep", "UpSep", "VerSep", "AlimVal",
        "ClimbInhibited", "OwnBelowThreat", "OwnAboveThreat",
    ]
    aux_names = [n for n, _ in post.auxiliaries]
    assert aux_names == ["InhibitBiasedClimb_ret"]
    # MSEP is a named constant and must be folded away, never classified
    assert "MSEP" not in free_vars(post.body)


def test_old_snapshot_becomes_auxiliary():
    pipe = build("counter")
    obls = gen_obligations(pipe.norm, pipe.norm.function("bump"))
    assert len(obls) == 1
    body = obls[0].body
    assert set(free_vars(body)) == {"Counter", "Counter_old"}
    assert dict(obls[0].auxiliaries) != {}
    assert format_formula(body) == (
        "((Counter_old == Counter) ==> ((Counter + 2) == (Counter_old + 1)))"
    )


def test_callee_pre_is_path_sensitive():
    guarded = pipeline_from(
        "/*@ requires k >= 0; ensures \\result == k; @*/ pure int g(int k) { return k; }\n"
        "/*@ ensures \\result >= -100; @*/\n"
        "int f(int a) { int r = 0; if (a >= 0) { r = g(a); } return r; }"
    )
    unguarded = pipeline_from(
        "/*@ requires k >= 0; ensures \\result == k; @*/ pure int g(int k) { return k; }\n"
        "/*@ ensures \\result >= -100; @*/\n"
        "int f(int a) { int r = g(a); return r; }"
    )
    cfg = SolverConfig(bound=4)

    def callee_pre_verdict(pipe):
        obls = gen_obligations(pipe.norm, pipe.norm.function("f"))
        pre = next(ob for ob in obls if ob.kind is ObligationKind.CALLEE_PRE)
        return decide(pre, cfg)

    assert callee_pre_verdict(guarded).is_valid
    v = callee_pre_verdict(unguarded)
    assert v.is_invalid and v.witness["a"] < 0


@pytest.mark.parametrize("cond", ["a < 0 || id0(a) >= 0", "a >= 0 && id0(a) >= 0"])
def test_interpreter_evaluates_both_operands_of_and_or(cond):
    # At a = -3 the left operand decides the value, and id0's precondition
    # fails.  The normalizer hoists the call, so it always runs, and vcgen
    # checks its precondition; the interpreter, which is the oracle of both,
    # must evaluate the right operand too.
    src = (
        "/*@ requires k >= 0; @*/ pure int id0(int k) { return k; }\n"
        f"int f(int a) {{ bool b = {cond}; return 0; }}"
    )
    program = check_program(parse(src))
    np = normalize(program)
    assert interpret(program, "f", {"a": -3}) == PreconditionViolated("id0")
    assert interpret(np, "f", {"a": -3}) == PreconditionViolated("id0")
    pres = [ob for ob in gen_obligations(np, np.function("f")) if ob.kind is ObligationKind.CALLEE_PRE]
    assert len(pres) == 1
    assert decide(pres[0], SolverConfig()).is_invalid


def test_early_return_shields_later_obligations():
    # the callee-pre of a call after the if is vacuous on the returning path
    guarded = pipeline_from(
        "/*@ requires k >= 0; ensures \\result == k; @*/ pure int idp(int k) { return k; }\n"
        "/*@ ensures \\result >= 0; @*/\n"
        "int f(int a) { if (a < 0) { return 0; } int r = idp(a); return r; }"
    )
    cfg = SolverConfig(bound=6)
    obls = gen_obligations(guarded.norm, guarded.norm.function("f"))
    assert all(decide(ob, cfg).is_valid for ob in obls)

    unshielded = pipeline_from(
        "/*@ requires k >= 0; ensures \\result == k; @*/ pure int idp(int k) { return k; }\n"
        "/*@ ensures \\result >= 0 || \\result < 0; @*/\n"
        "int f(int a) { int r = idp(a); return r; }"
    )
    obls = gen_obligations(unshielded.norm, unshielded.norm.function("f"))
    pre = next(ob for ob in obls if ob.kind is ObligationKind.CALLEE_PRE)
    assert decide(pre, cfg).is_invalid


def test_call_in_loop_condition():
    # the condition call is evaluated at loop entry and once per iteration;
    # both evaluations owe the callee its precondition
    template = (
        "/*@ requires k >= {low}; ensures \\result == k - 1; @*/\n"
        "pure int dec(int k) {{ return k - 1; }}\n"
        "/*@ requires n >= 0; ensures \\result == 0; @*/\n"
        "int drain(int n) {{\n"
        "  int i = n;\n"
        "  /*@ loop invariant i >= 0; @*/\n"
        "  while (dec(i) >= 0) {{\n"
        "    i = i - 1;\n"
        "  }}\n"
        "  return i;\n"
        "}}\n"
    )
    cfg = SolverConfig(bound=6)

    pipe = pipeline_from(template.format(low=0))
    obls = gen_obligations(pipe.norm, pipe.norm.function("drain"))
    kinds = [ob.kind for ob in obls]
    assert kinds.count(ObligationKind.CALLEE_PRE) == 2  # entry + iteration
    assert all(decide(ob, cfg).is_valid for ob in obls), [
        (ob.id, str(decide(ob, cfg))) for ob in obls
    ]

    # a callee demanding k >= 5 is violated by the very first evaluation
    pipe_bad = pipeline_from(template.format(low=5))
    obls_bad = gen_obligations(pipe_bad.norm, pipe_bad.norm.function("drain"))
    pre_verdicts = [
        decide(ob, cfg)
        for ob in obls_bad
        if ob.kind is ObligationKind.CALLEE_PRE
    ]
    assert any(v.is_invalid for v in pre_verdicts)


def test_placeholder_survives_into_obligations():
    # every live candidate site of these functions keeps its placeholder
    for name, fname in (
        ("max", "max"),
        ("straightline", "max2"),
        ("straightline", "abs_val"),
        ("straightline", "dist"),
        ("straightline", "sign"),
        ("straightline", "odd_succ"),
        ("tcas_v7", "initialize"),
    ):
        pipe = build(name)
        nf = pipe.norm.function(fname)
        for cand in enumerate_candidates(pipe.norm, nf):
            obls = gen_obligations(pipe.norm, nf, site=cand)
            with_ph = [ob for ob in obls if ob.placeholder is not None]
            assert with_ph, (name, fname, cand.id)
            for ob in with_ph:
                assert ob.placeholder == (f"c{cand.id}", cand.sort)
                assert ob.placeholder[0] in free_vars(ob.body)


def test_site_override_matches_copy_and_mutate_on_the_corpus():
    # reading the site as the placeholder must give exactly the obligations
    # of the function copied with the placeholder written into the site.  The
    # copy declares the placeholder as an uninitialized global, which vcgen
    # classifies as an input; each expected obligation moves it from the
    # inputs to the placeholder.
    clashes = pipeline_from(
        # c1 is a parameter of another function, c2 a global, c3 a local of f
        "int c2;\n"
        "int g(int c1) { return c1; }\n"
        "/*@ ensures \\result >= c2; @*/\n"
        "int f(int a) { int c3 = a; int r = c3; return r; }\n"
    )
    checked = 0
    for pipe in [build(name) for name in CORPUS_NAMES] + [clashes]:
        for nf in pipe.norm.functions:
            for cand in enumerate_candidates(pipe.norm, nf):
                mutant, placeholder = copy_and_mutate(pipe.norm, nf, cand)
                declared = GlobalDecl(*placeholder, None, span=cand.span)
                np = NormProgram([*pipe.norm.globals, declared], pipe.norm.functions)
                want = [
                    replace(
                        ob,
                        inputs=tuple(v for v in ob.inputs if v != placeholder),
                        placeholder=placeholder if placeholder in ob.inputs else None,
                    )
                    for ob in gen_obligations(np, mutant)
                ]
                got = gen_obligations(pipe.norm, nf, site=cand)
                assert got == want, (nf.name, cand.id)
                checked += 1
    assert checked == 99 + 4
    f = clashes.norm.function("f")
    names = [
        gen_obligations(clashes.norm, f, site=cand)[0].placeholder[0]
        for cand in enumerate_candidates(clashes.norm, f)
    ]
    assert names == ["cc1", "cc2", "cc3"]


# A non-void function whose ensures reads \old: each return statement
# converts it, so the snapshot is made inside a statement's WP, which a
# candidate's pass replays for the returns below its site.
OLD_AT_RETURNS = """
int Level;

/*@ ensures \\result >= \\old(Level); @*/
int raise(int x) {
  Level = Level + 1;
  if (x > 0) {
    return Level + x;
  }
  return Level;
}
"""


def test_sharing_detection_wp_leaves_every_obligation_unchanged():
    # Each function's passes run as localize_norm runs them, detection first
    # and then every candidate, sharing one state; each must give exactly
    # what the pass gives on its own.
    gen = ProgramGen(random.Random(1414))
    pipes = [build(name) for name in CORPUS_NAMES]
    pipes += [pipeline_from(gen.program_source()) for _ in range(50)]
    pipes.append(pipeline_from(straight_line_source(30, 3)))
    pipes.append(pipeline_from(OLD_AT_RETURNS))
    passes = 0
    auxiliaries = set()
    for pipe in pipes:
        for nf in pipe.norm.functions:
            shared: dict = {}
            for site in [None, *enumerate_candidates(pipe.norm, nf)]:
                got = gen_obligations(pipe.norm, nf, site=site, shared=shared)
                want = gen_obligations(pipe.norm, nf, site=site)
                assert got == want, (nf.name, site)
                assert list(map(format_query, got)) == list(map(format_query, want))
                names = [name for ob in got for name, _ in ob.auxiliaries]
                auxiliaries |= {name.rstrip("0123456789").rsplit("_")[-1] for name in names}
                passes += 1
    assert auxiliaries == {"h", "ret", "old"}  # loops, calls and \old snapshots
    assert passes == 116 + 930 + 63 + 5


def test_candidates_reuse_the_wp_of_detection(monkeypatch):
    # NonCrossBiasedDescend's 12 passes: detection and its 11 candidates.
    pipe = build("tcas_v9")
    nf = pipe.norm.function("NonCrossBiasedDescend")
    calls = []
    monkeypatch.setattr(vcgen, "substitute", lambda f, binding: calls.append(f) or substitute(f, binding))
    counts = []
    for shared in (None, {}):
        calls.clear()
        for site in [None, *enumerate_candidates(pipe.norm, nf)]:
            gen_obligations(pipe.norm, nf, site=site, shared=shared)
        counts.append(len(calls))
    assert counts == [12 * 11, 11 + 60]


def test_obligation_determinism():
    pipe = build("tcas_v9")
    nf = pipe.norm.function("NonCrossBiasedDescend")
    a = gen_obligations(pipe.norm, nf)
    b = gen_obligations(pipe.norm, nf)
    assert [ob.id for ob in a] == [ob.id for ob in b]
    assert [format_formula(ob.body) for ob in a] == [format_formula(ob.body) for ob in b]
    assert [ob.inputs for ob in a] == [ob.inputs for ob in b]


def test_wp_vs_interpreter_exhaustive_small_arity():
    # functions with <= 2 inputs are checked on every point of the box
    for name, fname in (("max", "max"), ("straightline", "sign"), ("straightline", "dist")):
        program = load(name)
        np = normalize(program)
        fn = program.function(fname)
        body = gen_obligations(np, np.function(fname))[0].body
        params = [p.name for p in fn.params]
        for values in product(range(-8, 9), repeat=len(params)):
            env = dict(zip(params, values))
            outcome = interpret(program, fname, env)
            if isinstance(outcome, PreconditionViolated):
                holds = True
            else:
                holds = eval_post(program, fn, env, outcome.value, outcome.globals)
            assert bool(tree_eval(body, env)) == bool(holds), (fname, env)


def test_verify_200_statement_function_witness_fails_in_the_interpreter():
    # Its WP nests about 400 terms deep, which used to exhaust the recursion
    # limit while substitution compared rebuilt terms structurally.
    program = check_program(parse(straight_line_source(200, fails_at=3)))
    det = verify(program, "f")
    assert det.verdict.is_invalid
    assert det.verdict.witness == {"x": 3}
    result = interpret(program, "f", det.verdict.witness)
    assert not eval_post(program, program.function("f"), det.verdict.witness, result.value, result.globals)


def test_wp_vs_interpreter_random_sample():
    # bounded soundness spot check; the acceptance suite runs the full 500
    rng = random.Random(99)
    gen = ProgramGen(rng)
    for _ in range(60):
        program = check_program(parse(gen.program_source()))
        np = normalize(program)
        fn = program.functions[0]
        obls = gen_obligations(np, np.function(fn.name))
        assert len(obls) == 1
        for _ in range(4):
            env = gen.inputs([p.name for p in fn.params])
            result = interpret(program, fn.name, env)
            if isinstance(result, PreconditionViolated):
                holds = True
            else:
                holds = eval_post(program, fn, env, result.value, result.globals)
            assert tree_eval(obls[0].body, env) == holds, program.source


def test_obligation_order_with_nested_loops_and_condition_calls():
    # Ties share a statement: a loop's Init comes before its Preserved, and a
    # condition call's in-loop check before its check at loop entry.
    pipe = pipeline_from(
        "/*@ requires k >= 0; ensures \\result == k; @*/\n"
        "pure int id(int k) { return k; }\n"
        "/*@ requires k >= 0; ensures \\result == k + 1; @*/\n"
        "pure int inc(int k) { return k + 1; }\n"
        "/*@ requires n >= 0; ensures \\result >= 0; @*/\n"
        "int f(int n) {\n"
        "  int i = 0;\n"
        "  int s = 0;\n"
        "  /*@ loop invariant i >= 0 && s >= 0; @*/\n"
        "  while (id(i) < n && inc(i) <= n + 1) {\n"
        "    int j = 0;\n"
        "    /*@ loop invariant j >= 0; @*/\n"
        "    while (id(j) < i) {\n"
        "      j = j + 1;\n"
        "    }\n"
        "    if (s > 0) {\n"
        "      s = id(s);\n"
        "    } else {\n"
        "      s = inc(j);\n"
        "    }\n"
        "    i = i + 1;\n"
        "  }\n"
        "  /*@ loop invariant s >= 0; @*/\n"
        "  while (inc(s) < 3) {\n"
        "    s = s + 1;\n"
        "  }\n"
        "  return s;\n"
        "}\n"
    )
    obls = gen_obligations(pipe.norm, pipe.norm.function("f"))
    assert [(ob.id, ob.span.line, ob.span.col) for ob in obls] == [
        ("f:PostHolds:0", 5, 1),
        ("f:CalleePreHolds:0", 10, 10),  # id(i), in the loop
        ("f:CalleePreHolds:1", 10, 10),  # id(i), at entry
        ("f:CalleePreHolds:2", 10, 23),  # inc(i), in the loop
        ("f:CalleePreHolds:3", 10, 23),  # inc(i), at entry
        ("f:LoopInvInit:0", 9, 3),
        ("f:LoopInvPreserved:0", 9, 3),
        ("f:CalleePreHolds:4", 13, 12),  # id(j), in the inner loop
        ("f:CalleePreHolds:5", 13, 12),  # id(j), at its entry
        ("f:LoopInvInit:1", 12, 5),
        ("f:LoopInvPreserved:1", 12, 5),
        ("f:CalleePreHolds:6", 17, 7),
        ("f:CalleePreHolds:7", 19, 7),
        ("f:CalleePreHolds:8", 24, 10),
        ("f:CalleePreHolds:9", 24, 10),
        ("f:LoopInvInit:2", 23, 3),
        ("f:LoopInvPreserved:2", 23, 3),
    ]
