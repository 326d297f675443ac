from __future__ import annotations

from floc.faultmodel import (
    Candidate,
    CandidateKind,
    enumerate_candidates,
)
from floc.frontend import parse, typecheck
from floc.frontend.syntax import Sort, Var, expr_text
from floc.logic import format_formula, free_vars
from floc.normalizer import CallRhs, NAssign, NIf, NReturn, NWhile, nstmt_text
from floc.vcgen import gen_obligations

from conftest import build, pipeline_from
from oracles import replace_site


def test_max_has_exactly_the_four_candidates():
    pipe = build("max")
    cands = enumerate_candidates(pipe.norm.function("max"), pipe.source_map)
    got = [(c.id, c.kind, c.location.normalized_text, c.location.line) for c in cands]
    assert got == [
        (1, CandidateKind.DECL_INIT, "a", 3),
        (2, CandidateKind.IF_COND, "b > a", 4),
        (3, CandidateKind.ASSIGN_RHS, "a", 5),
        (4, CandidateKind.RETURN_EXPR, "r", 6),
    ]
    assert [c.sort for c in cands] == [Sort.INT, Sort.BOOL, Sort.INT, Sort.INT]
    assert not any(c.loop_scoped for c in cands)


def test_empty_void_function_has_no_candidates():
    pipe = pipeline_from("void f() { }")
    assert enumerate_candidates(pipe.norm.function("f"), pipe.source_map) == []


def test_v14_includes_the_hoisted_comparison_site():
    pipe = build("tcas_v14")
    cands = enumerate_candidates(pipe.norm.function("altSepTest"), pipe.source_map)
    hoisted = [c for c in cands if c.location.normalized_text == "VerSep > tmp_2"]
    assert len(hoisted) == 1
    assert hoisted[0].location.original_text == "VerSep > 600+50"
    assert hoisted[0].location.line == 167


def test_call_assignments_are_not_sites():
    pipe = build("tcas_v9")
    nf = pipe.norm.function("NonCrossBiasedDescend")
    cands = enumerate_candidates(nf, pipe.source_map)
    assert all("InhibitBiasedClimb" not in c.location.normalized_text for c in cands)
    # but the condition reading the hoisted result is one
    assert any(c.location.normalized_text == "tmp_0 >= DwnSep" for c in cands)


def test_candidate_count_independent_walk():
    # second opinion: count qualifying sites with a direct recursive scan
    def count(stmts):
        n = 0
        for s in stmts:
            match s:
                case NAssign(rhs=CallRhs()):
                    pass
                case NAssign():
                    n += 1
                case NIf(then_stmts=tb, else_stmts=eb):
                    n += 1 + count(tb) + count(eb)
                case NWhile(prelude=pre, body=b):
                    n += 1 + count(pre) + count(b)
                case NReturn(value=v):
                    n += 1 if v is not None else 0
        return n

    for name in ("max", "tcas_v7", "tcas_v9", "tcas_v14", "sum_upto", "countdown", "straightline"):
        pipe = build(name)
        for nf in pipe.norm.functions:
            cands = enumerate_candidates(nf, pipe.source_map)
            assert len(cands) == count(nf.body), (name, nf.name)


def test_loop_scoped_flags():
    pipe = build("countdown")
    cands = enumerate_candidates(pipe.norm.function("countdown"), pipe.source_map)
    by_text = {c.location.normalized_text: c for c in cands}
    assert not by_text["x"].loop_scoped  # int i = x
    assert by_text["i - 1"].loop_scoped  # condition prelude temp
    assert by_text["tmp_0 >= 0"].loop_scoped  # loop condition
    assert by_text["i"].loop_scoped or by_text["i - 1"].loop_scoped  # body assign


def test_instrument_decl_init_like_worked_example():
    # reading the initializer of r as c1 is the WP of  int r = c1;
    pipe = build("max")
    nf = pipe.norm.function("max")
    cands = enumerate_candidates(nf, pipe.source_map)
    (ob,) = gen_obligations(pipe.norm, nf, site=cands[0])
    assert ob.placeholder == ("c1", Sort.INT)
    assert format_formula(ob.body) == "(((b > a) ==> (a >= b)) && ((b <= a) ==> (c1 >= b)))"
    # the function is untouched
    assert nstmt_text(nf.body[0]) == "r = a;"


def test_instrument_condition_gets_bool_placeholder():
    pipe = build("max")
    nf = pipe.norm.function("max")
    cands = enumerate_candidates(nf, pipe.source_map)
    (ob,) = gen_obligations(pipe.norm, nf, site=cands[1])
    assert ob.placeholder == ("c2", Sort.BOOL)
    assert format_formula(ob.body) == "((c2 ==> (a >= b)) && ((!c2) ==> (a >= b)))"
    assert free_vars(ob.body)["c2"] is Sort.BOOL


def test_instrumented_function_prints_and_reparses():
    pipe = build("max")
    nf = pipe.norm.function("max")
    cands = enumerate_candidates(nf, pipe.source_map)
    mutant = replace_site(nf, cands[2].id, Var("c3", span=cands[2].span, sort=Sort.INT))
    # render the normalized body as MCL and re-parse it inside a template
    body_lines = []
    for s in mutant.body:
        match s:
            case NAssign(declares=True, decl_sort=srt):
                body_lines.append(f"{srt} {nstmt_text(s)}")
            case NIf(cond=c, then_stmts=tb):
                body_lines.append(f"if ({expr_text(c)}) {{")
                for t in tb:
                    body_lines.append(nstmt_text(t))
                body_lines.append("}")
            case _:
                body_lines.append(nstmt_text(s))
    src = "int max(int a, int b, int c3) {\n" + "\n".join(body_lines) + "\n}"
    reparsed = parse(src)
    assert not typecheck(reparsed)


def test_placeholder_name_avoids_collisions():
    pipe = pipeline_from("/*@ ensures \\result >= c1; @*/\nint f(int c1) { int r = c1; return r; }")
    nf = pipe.norm.function("f")
    cands = enumerate_candidates(nf, pipe.source_map)
    (ob,) = gen_obligations(pipe.norm, nf, site=cands[0])
    assert ob.placeholder == ("cc1", Sort.INT)
    assert set(free_vars(ob.body)) == {"c1", "cc1"}


def test_replace_site_swaps_one_expression():
    pipe = build("max")
    nf = pipe.norm.function("max")
    from floc.frontend.syntax import IntLit, Span

    repl = IntLit(7, span=Span("x", 1, 1, 1, 1))
    repl.sort = Sort.INT
    mutant = replace_site(nf, 3, repl)
    then_stmt = mutant.body[1].then_stmts[0]
    assert nstmt_text(then_stmt) == "r = 7;"
    assert nstmt_text(nf.body[1].then_stmts[0]) == "r = a;"
