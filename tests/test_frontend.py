from __future__ import annotations

import random

import pytest

from floc.frontend import (
    FuelExhausted,
    MclSyntaxError,
    PreconditionViolated,
    Returned,
    ast_equal,
    eval_post,
    interpret,
    parse,
    program_text,
    typecheck,
)
from floc.frontend.syntax import Block, If, Sort, Stmt, While

from conftest import load
from mclgen import ProgramGen


# -- parsing -----------------------------------------------------------------


def test_parse_max_listing():
    program = load("max")
    assert len(program.functions) == 1
    fn = program.functions[0]
    assert fn.name == "max"
    assert [p.name for p in fn.params] == ["a", "b"]
    assert fn.return_sort is Sort.INT
    assert len(fn.ensures) == 1
    from floc.frontend import expr_text

    assert expr_text(fn.ensures[0]) == "\\result >= b"


def test_parse_empty_file():
    program = parse("")
    assert program.functions == []
    assert program.globals == []


def test_parse_error_position():
    with pytest.raises(MclSyntaxError) as err:
        parse("int f() { return 1 + ; }")
    assert err.value.line == 1
    assert err.value.col == 22
    assert err.value.expected


def test_while_requires_invariant_annotation():
    src = "int f(int n) { while (n > 0) { n = n - 1; } return n; }"
    with pytest.raises(MclSyntaxError):
        parse(src)


def test_globals_and_const_literal():
    program = parse("int G = 5;\nbool B;\n")
    assert program.global_decl("G").is_const
    assert not program.global_decl("B").is_const


# -- typechecking ------------------------------------------------------------


def _diags(src: str) -> set[str]:
    return {d.code for d in typecheck(parse(src))}


def test_max_is_well_typed():
    assert typecheck(load("max")) == []


def test_sort_mismatch_bool_decl():
    assert "SortMismatch" in _diags("int f() { bool b = 1 + 2; return 0; }")


def test_result_in_void_function():
    assert "IllegalResultUse" in _diags("/*@ ensures \\result >= 0; @*/ void f() { }")


def test_assign_to_param():
    assert "AssignToParam" in _diags("int f(int a) { a = 3; return a; }")


def test_assign_to_const_global():
    assert "AssignToConst" in _diags("int G = 1; void f() { G = 2; }")


def test_duplicate_declaration():
    assert "DuplicateName" in _diags("int f() { int x = 1; int x = 2; return x; }")


def test_reserved_temp_namespace():
    assert "ReservedIdentifier" in _diags("int f() { int tmp_0 = 1; return tmp_0; }")


def test_unknown_identifier():
    assert "UnknownIdentifier" in _diags("int f() { return y; }")


def test_missing_return_on_a_path():
    assert "MissingReturn" in _diags("int f(int a) { if (a > 0) return 1; }")


def test_return_inside_loop_rejected():
    src = (
        "int f(int n) { int i = 0;\n"
        "/*@ loop invariant true || i == i; @*/\n"
        "while (i < n) { return i; } return 0; }"
    )
    assert "ReturnInLoop" in _diags(src)


def test_calls_must_be_pure():
    src = "int g() { return 1; } int f() { return g(); }"
    assert "NonPureCall" in _diags(src)


def test_recursion_rejected():
    src = "pure int f(int n) { return f(n); }"
    assert "RecursiveCall" in _diags(src)


def test_call_in_contract_rejected():
    src = "pure int g() { return 1; } /*@ requires g() > 0; @*/ int f() { return 1; }"
    assert "CallInContract" in _diags(src)


def test_old_only_on_globals_in_ensures():
    assert "IllegalOldUse" in _diags("/*@ ensures \\old(a) >= 0; @*/ int f(int a) { return a; }")
    assert "IllegalOldUse" in _diags("int G; /*@ requires \\old(G) >= 0; @*/ int f() { return G; }")


def test_pure_function_may_not_write_globals():
    assert "PurityViolation" in _diags("int G; pure int f() { G = 1; return 1; }")


# -- interpreter -------------------------------------------------------------


def test_buggy_max_violates_ensures_when_b_larger():
    program = load("max")
    result = interpret(program, "max", {"a": 1, "b": 5})
    assert result == Returned(1, {})  # violates \result >= b


def test_buggy_max_fine_when_a_larger():
    # hand-executed: r = 5; condition 1 > 5 false; return 5
    program = load("max")
    assert interpret(program, "max", {"a": 5, "b": 1}) == Returned(5, {})


def test_eval_post_reads_old_at_entry_and_globals_at_exit():
    program = load("counter")
    fn = program.function("bump")
    result = interpret(program, "bump", {"Counter": 3})
    assert result == Returned(None, {"Counter": 5})
    assert not eval_post(program, fn, {"Counter": 3}, result.value, result.globals)
    assert eval_post(program, fn, {"Counter": 3}, None, {"Counter": 4})
    max_program = load("max")
    max_fn = max_program.function("max")
    assert not eval_post(max_program, max_fn, {"a": 1, "b": 5}, 1, {})
    assert eval_post(max_program, max_fn, {"a": 1, "b": 5}, 5, {})


def test_requires_gate():
    program = load("int_division")
    result = interpret(program, "int_division", {"a": -1, "b": 2})
    assert result == PreconditionViolated("int_division")


def test_division_loop_and_globals():
    program = load("int_division")
    assert interpret(program, "int_division", {"a": 17, "b": 5}) == Returned(3, {})


def test_fuel_exhaustion():
    src = (
        "int spin(int n) { int i = 0;\n"
        "/*@ loop invariant 0 <= i; @*/\n"
        "while (i >= 0) { i = i + 1; } return i; }"
    )
    from floc.frontend.typecheck import check_program

    program = check_program(parse(src))
    assert interpret(program, "spin", {"n": 0}, fuel=100) == FuelExhausted()


def test_call_evaluation_and_inner_precondition():
    program = load("sum_upto")
    assert interpret(program, "sum_upto", {"n": 6}) == Returned(21, {})
    # inner requires violated: next(k) demands k >= -100
    src = (
        "/*@ requires k >= 0; ensures \\result == k; @*/ pure int id0(int k) { return k; }\n"
        "int f(int a) { int r = id0(a); return r; }"
    )
    from floc.frontend.typecheck import check_program

    program = check_program(parse(src))
    assert interpret(program, "f", {"a": -3}) == PreconditionViolated("id0")


def test_env_must_match_inputs_exactly():
    program = load("max")
    with pytest.raises(ValueError):
        interpret(program, "max", {"a": 1})
    with pytest.raises(ValueError):
        interpret(program, "max", {"a": 1, "b": 2, "z": 3})


def test_const_globals_not_in_env():
    program = load("tcas_v14")
    envs = {g.name: 0 for g in program.globals if g.init is None}
    for b in ("HConf", "TwoRepValid", "UpBiasedClimb", "DwnBiasedDescend",
              "OwnBelowThreat", "OwnAboveThreat", "en", "eq", "intentNotKnown",
              "needUpRA", "needDwnRA"):
        envs[b] = False
    result = interpret(program, "altSepTest", envs)
    assert isinstance(result, Returned)
    assert result.value == 0  # UNRESOLVED


def test_interpreter_determinism():
    program = load("sum_upto")
    runs = [interpret(program, "sum_upto", {"n": 7}, fuel=500) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


# -- properties --------------------------------------------------------------


def test_print_parse_round_trip_corpus():
    for name in ("max", "max_fixed", "sum_upto", "int_division", "countdown",
                  "straightline", "tcas_v7", "tcas_v9", "tcas_v14", "counter"):
        program = load(name)
        reparsed = parse(program_text(program))
        assert not typecheck(reparsed), name
        assert ast_equal(program, reparsed), name


def test_print_parse_round_trip_random():
    rng = random.Random(7)
    gen = ProgramGen(rng)
    for _ in range(60):
        src = gen.program_source()
        program = parse(src)
        assert not typecheck(program)
        assert ast_equal(program, parse(program_text(program)))


def test_spans_nest_within_parents():
    program = load("tcas_v9")

    def walk(stmt: Stmt):
        match stmt:
            case Block(stmts=stmts):
                for child in stmts:
                    assert stmt.span.contains(child.span)
                    walk(child)
            case If(then_block=tb, else_block=eb):
                assert stmt.span.contains(stmt.cond.span)
                assert stmt.span.contains(tb.span)
                walk(tb)
                if eb:
                    assert stmt.span.contains(eb.span)
                    walk(eb)
            case While(body=b):
                assert stmt.span.contains(stmt.cond.span)
                assert stmt.span.contains(b.span)
                walk(b)

    for fn in program.functions:
        assert fn.span.contains(fn.body.span)
        walk(fn.body)
