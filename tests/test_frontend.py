from __future__ import annotations

import hashlib
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
    tokenize,
    typecheck,
)
from floc.frontend.syntax import BINARY_OPS, Binary, Block, If, Neg, Not, Sort, Span, Stmt, Var, While

from conftest import CORPUS_NAMES, corpus_path, load
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


_SP = Span("<test>", 1, 1, 1, 1)


def _b(op, left, right):
    return Binary(op, left, right, span=_SP)


a, b, c, p, q = (Var(n, span=_SP) for n in "abcpq")


def _parse_expr(text: str):
    return parse(f"int f() {{ return {text}; }}").functions[0].body.stmts[0].value


@pytest.mark.parametrize(
    "text, tree",
    [
        # each pair of adjacent levels, in both orders
        ("a || b && c", _b("||", a, _b("&&", b, c))),
        ("a && b || c", _b("||", _b("&&", a, b), c)),
        ("a && b == c", _b("&&", a, _b("==", b, c))),
        ("a != b && c", _b("&&", _b("!=", a, b), c)),
        ("a == b < c", _b("==", a, _b("<", b, c))),
        ("a >= b != c", _b("!=", _b(">=", a, b), c)),
        ("a <= b + c", _b("<=", a, _b("+", b, c))),
        ("a - b > c", _b(">", _b("-", a, b), c)),
        ("a + b * c", _b("+", a, _b("*", b, c))),
        ("a * b - c", _b("-", _b("*", a, b), c)),
        ("-a * b", _b("*", Neg(a, span=_SP), b)),
        ("a * -b", _b("*", a, Neg(b, span=_SP))),
        ("!p && q", _b("&&", Not(p, span=_SP), q)),
        # every level associates to the left
        ("a - b - c", _b("-", _b("-", a, b), c)),
        ("a - b + c", _b("+", _b("-", a, b), c)),
        ("a * b * c", _b("*", _b("*", a, b), c)),
        ("a < b < c", _b("<", _b("<", a, b), c)),
        ("a == b != c", _b("!=", _b("==", a, b), c)),
        ("a && b && c", _b("&&", _b("&&", a, b), c)),
        ("a || b || c", _b("||", _b("||", a, b), c)),
        # parentheses override both
        ("a - (b - c)", _b("-", a, _b("-", b, c))),
        ("(a || b) && c", _b("&&", _b("||", a, b), c)),
    ],
)
def test_precedence_and_associativity(text, tree):
    assert ast_equal(_parse_expr(text), tree)


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
    assert "RecursiveCall" in _diags("pure int f(int n) { return f(n); }")
    # Through calls inside expressions that are themselves rejected: an unknown
    # callee's argument, an extra argument, a void callee's argument and the
    # value a void function returns.
    for src in [
        "pure int f() { return nope(f()); }",
        "pure int f() { return 1; } pure int g() { return f(1, g()); }",
        "pure void h(int a) { } pure int g() { return h(g()); }",
        "pure void f() { return f(); }",
    ]:
        assert "RecursiveCall" in _diags(src), src


def test_call_in_contract_rejected():
    src = "pure int g() { return 1; } /*@ requires g() > 0; @*/ int f() { return 1; }"
    assert "CallInContract" in _diags(src)


def test_old_only_on_globals_in_ensures():
    assert "IllegalOldUse" in _diags("/*@ ensures \\old(a) >= 0; @*/ int f(int a) { return a; }")
    assert "IllegalOldUse" in _diags("int G; /*@ requires \\old(G) >= 0; @*/ int f() { return G; }")


# Operand and result sort of every binary operator, written out by hand.
_SIGNATURES = {
    "||": (Sort.BOOL, Sort.BOOL),
    "&&": (Sort.BOOL, Sort.BOOL),
    "==": (Sort.INT, Sort.BOOL),
    "!=": (Sort.INT, Sort.BOOL),
    "<": (Sort.INT, Sort.BOOL),
    "<=": (Sort.INT, Sort.BOOL),
    ">": (Sort.INT, Sort.BOOL),
    ">=": (Sort.INT, Sort.BOOL),
    "+": (Sort.INT, Sort.INT),
    "-": (Sort.INT, Sort.INT),
    "*": (Sort.INT, Sort.INT),
}


def test_signatures_cover_every_binary_operator():
    assert set(_SIGNATURES) == set(BINARY_OPS)


@pytest.mark.parametrize("op", list(BINARY_OPS))
def test_binary_operand_and_result_sorts(op):
    operand, result = _SIGNATURES[op]
    wrong = Sort.BOOL if operand is Sort.INT else Sort.INT
    var_of = {Sort.INT: "i", Sort.BOOL: "p"}

    def check(left: Sort, right: Sort):
        src = f"void f(int i, bool p) {{ {result} r = {var_of[left]} {op} {var_of[right]}; }}"
        program = parse(src)
        return program.functions[0].body.stmts[0].init, typecheck(program)

    expr, diags = check(operand, operand)
    assert diags == []
    assert expr.sort is result
    for side in ("left", "right"):
        expr, diags = check(*((wrong, operand) if side == "left" else (operand, wrong)))
        assert [(d.code, d.message, d.span) for d in diags] == [
            ("SortMismatch", f"expected {operand}, found {wrong}", getattr(expr, side).span)
        ]


def test_pure_function_may_not_write_globals():
    assert "PurityViolation" in _diags("int G; pure int f() { G = 1; return 1; }")
    assert {"PurityViolation", "AssignToConst"} <= _diags("int G = 1; pure void f() { G = 2; }")


def test_pure_function_may_write_a_local_that_shadows_a_global():
    # The shadowing declaration is itself an error, but the write is local.
    local = typecheck(parse("int v; pure int f(int a) { int v = a; v = a + 1; return v; }"))
    assert [d.code for d in local] == ["DuplicateName"]
    param = typecheck(parse("int v; pure int f(int v) { v = 1; return v; }"))
    assert [d.code for d in param] == ["DuplicateName", "AssignToParam"]


def test_every_call_argument_is_checked():
    extra = typecheck(parse("int f(int a) { return a; } int g() { return f(1, nope); }"))
    assert ("UnknownIdentifier", "unknown identifier 'nope'") in [(d.code, d.message) for d in extra]
    void = typecheck(parse("pure void h(int a) { } int g() { int x = h(true); return 0; }"))
    assert ("SortMismatch", "expected int, found bool") in [(d.code, d.message) for d in void]


# -- diagnostics of single-token mutants of the corpus ------------------------

_REPLACEMENTS = [*BINARY_OPS, "!", "true", "1", "0", ",", "(", ")"]


def _token_mutants() -> tuple[list[tuple[str, int, str]], dict]:
    """Every single-token mutant of the corpus as (file, token index,
    replacement), and the text and tokens of each file.  The replacement is
    an operator, a literal, a comma, a parenthesis, an identifier of the
    file, or nothing."""
    keys, files = [], {}
    for name in CORPUS_NAMES:
        source = corpus_path(name).read_text()
        tokens = tokenize(source)[:-1]  # without EOF
        files[name] = source, tokens
        idents = sorted({t.value for t in tokens if t.kind == "IDENT"})
        for k, t in enumerate(tokens):
            keys += [(name, k, rep) for rep in [*_REPLACEMENTS, *idents, ""] if rep != t.value]
    return keys, files


def _offset(source: str, t) -> int:
    return sum(len(line) for line in source.splitlines(keepends=True)[: t.line - 1]) + t.col - 1


def _mutant_text(files: dict, name: str, k: int, rep: str) -> str:
    source, tokens = files[name]
    t = tokens[k]
    i = _offset(source, t)
    return source[:i] + rep + source[i + len(t.value) :]


def _prefixes(files: dict, name: str) -> list[str]:
    """The file cut after each of its tokens."""
    source, tokens = files[name]
    return [source[: _offset(source, t) + len(t.value)] for t in tokens]


# A seeded draw from the ~50000 mutants, of which about a quarter parse.  A
# draw this small rarely reaches the rarest codes, so it always includes one
# mutant for each of them, found by a sweep of all mutants: PurityViolation
# with AssignToConst, RecursiveCall with NonPureCall, IllegalOldUse and
# AssignToParam.
_MUTANT_SAMPLE = 600
_RARE_MUTANTS = [
    ("tcas_v9", 63, "MSEP"),
    ("sum_upto", 99, "sum_upto"),
    ("counter", 9, "bump"),
    ("countdown", 41, "x"),
]

# sha256 over each parsing mutant of the draw: its (file, token index,
# replacement), then its sorted (line, col, code, message) diagnostics.
MUTANT_DIAGNOSTICS_SHA256 = "afaa03a777f9154b4816fb8e7f0ead6fb7b0c6b6d04efbf8644821c30363499f"


def test_mutant_diagnostics_match_golden_sha256():
    keys, files = _token_mutants()
    digest = hashlib.sha256()
    for key in random.Random(2718).sample(keys, _MUTANT_SAMPLE) + _RARE_MUTANTS:
        try:
            program = parse(_mutant_text(files, *key), key[0])
        except MclSyntaxError:
            continue
        diags = sorted((d.span.line, d.span.col, d.code, d.message) for d in typecheck(program))
        digest.update(repr((key, diags)).encode("utf-8") + b"\0")
    assert digest.hexdigest() == MUTANT_DIAGNOSTICS_SHA256


# -- tokens and syntax errors --------------------------------------------------

# Inputs at the edges of the token grammar.
_EDGE_INPUTS = [
    "int f() { return 1; } /* never closed",
    "/*@ requires a > 0;\nint f(int a) { return a; }",
    "int f() { return \\foo; }",
    "int G = 1; # int H;",
    "int \u00e9 = 1;",
    "x\u00b2 = 1",
    "\u00b2x",
    "int G;\r\nint f() {\r\n  return G; // done\r\n}\r\n",
    "int\tf()\t{\n\treturn\t1;\n}",
    "",
    "1abc",
    "int G = \u0663;",
    "@",
    "\\resultx",
    "/**/ /***/ @*/ /*@*/",
    "int f() { return 0009 <= \\old(G) >= -1 != 2 == 3 && 4 || 5; } // no newline",
    "int f() { return a / b; }",
]


def frontend_record(text: str, filename: str) -> bytes:
    """What the lexer and the parser make of one input: its tokens
    (kind, value, line, col) or the lexer's error (line, col, message), then
    its AST with spans or the syntax error (line, col, message, expected)."""
    try:
        lexed: object = [(t.kind, t.value, t.line, t.col) for t in tokenize(text, filename)]
    except MclSyntaxError as err:
        lexed = (err.line, err.col, err.message)
    try:
        program = parse(text, filename)
        parsed: object = (program.globals, program.functions)
    except MclSyntaxError as err:
        parsed = (err.line, err.col, err.message, err.expected)
    return repr((lexed, parsed)).encode("utf-8") + b"\0"


# sha256 over the mutants of the diagnostics test, every token-boundary
# prefix of max.mcl and counter.mcl and the edge inputs: each one's
# frontend_record, after its key for a mutant.
FRONTEND_SHA256 = "a956f141a1362ac7e92ea70a3f4471fc82699ed5c20582edb8d9e5bead59a5b8"


def test_tokens_and_syntax_errors_match_golden_sha256():
    keys, files = _token_mutants()
    digest = hashlib.sha256()
    for key in random.Random(2718).sample(keys, _MUTANT_SAMPLE) + _RARE_MUTANTS:
        digest.update(repr(key).encode("utf-8") + frontend_record(_mutant_text(files, *key), key[0]))
    for name in ("max", "counter"):
        for text in _prefixes(files, name):
            digest.update(frontend_record(text, name))
    for text in _EDGE_INPUTS:
        digest.update(frontend_record(text, "<edge>"))
    assert digest.hexdigest() == FRONTEND_SHA256


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
