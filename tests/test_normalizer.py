from __future__ import annotations

import hashlib
import os
import pathlib
import random
import subprocess
import sys

import pytest

import floc

from floc.frontend import interpret, parse
from floc.frontend.typecheck import check_program
from floc.faultmodel import enumerate_candidates
from floc.normalizer import (
    CallRhs,
    NAssign,
    NIf,
    NReturn,
    NWhile,
    dump_normalized,
    is_flat,
    normalize,
    nstmt_text,
    render_location,
)

from conftest import load, pipeline_from
from mclgen import ProgramGen


def _stmts_recursive(stmts):
    for s in stmts:
        yield s
        match s:
            case NIf(then_stmts=tb, else_stmts=eb):
                yield from _stmts_recursive(tb)
                yield from _stmts_recursive(eb)
            case NWhile(prelude=pre, body=b):
                yield from _stmts_recursive(pre)
                yield from _stmts_recursive(b)


def _site_exprs(stmts):
    for s in _stmts_recursive(stmts):
        match s:
            case NAssign(rhs=CallRhs(args=args)):
                yield from args
            case NAssign(rhs=e):
                yield e
            case NIf(cond=c) | NWhile(cond=c):
                yield c
            case NReturn(value=e):
                if e is not None:
                    yield e


# -- the TCAS v14 normalization from the evaluation write-up ------------------


# One program needs temporaries; the other has only literals and variables in
# its statements, and a compound expression only in its contract.
_UNCHECKED = [
    "int f(int a) { int r = a * 2 + 1; return r; }",
    "/*@ ensures \\result >= 0; @*/ int f(int a) { return a; }",
]


def test_normalize_rejects_an_unchecked_program():
    for source in _UNCHECKED:
        with pytest.raises(ValueError, match="typecheck"):
            floc.normalize(floc.parse(source))
    # The check must not be an assert, which python -O strips.
    code = (
        "import floc\n"
        f"for source in {_UNCHECKED!r}:\n"
        "    try:\n"
        "        floc.normalize(floc.parse(source))\n"
        "    except ValueError as exc:\n"
        "        print('ValueError:', exc)\n"
    )
    src = pathlib.Path(floc.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == len(_UNCHECKED)
    assert all(ln.startswith("ValueError:") and "typecheck" in ln for ln in lines)


def test_v14_conjunction_chain_with_constant_subexpression():
    np = normalize(load("tcas_v14"))
    nf = np.function("altSepTest")
    texts = [nstmt_text(s) for s in nf.body]
    # en = HConf && OwnTrAlt <= OLEV && VerSep > 600+50 decomposes into a
    # temp per subexpression, the constant sum hoisted on its own.
    assert "tmp_0 = OwnTrAlt <= OLEV;" in texts
    assert "tmp_1 = HConf && tmp_0;" in texts
    assert "tmp_2 = 600 + 50;" in texts
    assert "tmp_3 = VerSep > tmp_2;" in texts
    assert "en = tmp_1 && tmp_3;" in texts

    gt = next(s for s in nf.body if nstmt_text(s) == "tmp_3 = VerSep > tmp_2;")
    loc = render_location(gt.rhs, np)
    assert loc.original_text == "VerSep > 600+50"
    assert loc.line == 167


def test_v9_call_hoisted_out_of_condition():
    np = normalize(load("tcas_v9"))
    nf = np.function("NonCrossBiasedDescend")
    call = nf.body[1]
    assert isinstance(call.rhs, CallRhs) and call.rhs.name == "InhibitBiasedClimb"
    cond_stmt = nf.body[2]
    assert isinstance(cond_stmt, NIf)
    assert nstmt_text(cond_stmt) == "if (tmp_0 >= DwnSep)"
    loc = render_location(cond_stmt.cond, np)
    assert loc.original_text == "InhibitBiasedClimb() >= DwnSep"
    assert loc.line == 121


def test_flat_statement_is_fixed_point():
    pipe = pipeline_from("int f(int a) { int r = a; return r; }")
    nf = pipe.norm.function("f")
    assert [nstmt_text(s) for s in nf.body] == ["r = a;", "return r;"]


def test_flatness_invariant_whole_corpus():
    for name in ("max", "tcas_v7", "tcas_v9", "tcas_v14", "sum_upto",
                  "int_division", "countdown", "straightline"):
        np = normalize(load(name))
        for nf in np.functions:
            for e in _site_exprs(nf.body):
                assert is_flat(e), (name, nf.name, nstmt_text_safe(e))


def nstmt_text_safe(e):
    from floc.frontend.syntax import expr_text

    return expr_text(e)


def test_temporaries_dense_and_single_assignment():
    np = normalize(load("tcas_v9"))
    nf = np.function("NonCrossBiasedDescend")
    temps = [s.target for s in _stmts_recursive(nf.body)
             if isinstance(s, NAssign) and s.target.startswith("tmp_")]
    assert temps == [f"tmp_{i}" for i in range(len(temps))]
    assert len(set(temps)) == len(temps)


def test_while_condition_prelude():
    np = normalize(load("countdown"))
    nf = np.function("countdown")
    loop = next(s for s in nf.body if isinstance(s, NWhile))
    assert [nstmt_text(p) for p in loop.prelude] == ["tmp_0 = i - 1;"]
    assert nstmt_text(loop) == "while (tmp_0 >= 0)"


def test_semantic_preservation_500_random_pairs():
    rng = random.Random(2024)
    gen = ProgramGen(rng)
    checked = 0
    while checked < 500:
        program = check_program(parse(gen.program_source()))
        np = normalize(program)
        fn = program.functions[0]
        for _ in range(5):
            env = gen.inputs([p.name for p in fn.params])
            a = interpret(program, fn.name, env)
            b = interpret(np, fn.name, env)
            assert a == b, (program.source, env)
            checked += 1


def test_preservation_on_loops_and_calls():
    for name, fname, envs in (
        ("sum_upto", "sum_upto", [{"n": n} for n in range(0, 9)]),
        ("int_division", "int_division", [{"a": a, "b": b} for a in range(0, 9) for b in range(1, 5)]),
        ("countdown", "countdown", [{"x": x} for x in range(0, 9)]),
    ):
        program = load(name)
        np = normalize(program)
        for env in envs:
            assert interpret(program, fname, env) == interpret(np, fname, env)


def test_render_location_flat_node_identical_text():
    pipe = pipeline_from("int f(int a) { int r = a; return r; }")
    nf = pipe.norm.function("f")
    loc = render_location(nf.body[0].rhs, pipe.norm)
    assert loc.normalized_text == loc.original_text == "a"


def test_render_location_constant_initializer():
    # a seeded-constant program in the style of the threshold-table port
    pipe = pipeline_from(
        "int T;\n/*@ ensures T == 500; @*/\nvoid init() {\n  T = 550;\n}\n"
    )
    nf = pipe.norm.function("init")
    loc = render_location(nf.body[0].rhs, pipe.norm)
    assert (loc.line, loc.original_text, loc.normalized_text) == (4, "550", "550")


def test_render_location_joins_a_multi_line_span():
    pipe = pipeline_from("int f(int a, int b) {\n  return a +\n    2 *\n    b;\n}")
    cands = enumerate_candidates(pipe.norm, pipe.norm.function("f"))
    assert [(c.id, c.location.line, c.location.normalized_text, c.location.original_text)
            for c in cands] == [
        (1, 3, "2 * b", "2 * b"),
        (2, 2, "a + tmp_0", "a + 2 * b"),
    ]


def test_dump_normalized_margins():
    pipe = pipeline_from("int f(int a) {\n  int r = a * 2 + 1;\n  return r;\n}\n")
    text = dump_normalized(pipe.norm, "f")
    lines = [ln for ln in text.splitlines() if "|" in ln]
    assert all(ln.split("|")[0].strip() in ("2", "3", "") for ln in lines)
    assert any("tmp_0 = a * 2;" in ln for ln in lines)
    assert any("r = tmp_0 + 1;" in ln for ln in lines)


# sha256 over where the normalized nodes of 200 seeded random programs come
# from: the dump-normalized text of each program, then each candidate's fields,
# its span and its rendered location (each record followed by a NUL byte).
RANDOM_LOCATIONS_SHA256 = "adaad3a0746432adb4d5ab597522243bbb38ffb863dbd2f13921b313414e396d"


def test_random_program_locations_match_golden_sha256():
    gen = ProgramGen(random.Random(5150))
    digest = hashlib.sha256()
    for _ in range(200):
        pipe = pipeline_from(gen.program_source())
        digest.update(dump_normalized(pipe.norm, "f").encode("utf-8") + b"\0")
        for c in enumerate_candidates(pipe.norm, pipe.norm.function("f")):
            s, loc = c.span, c.location
            record = (
                c.id, c.kind.value, str(c.sort), c.loop_scoped, c.norm_index,
                s.file, s.line, s.col, s.end_line, s.end_col,
                loc.line, loc.normalized_text, loc.original_text,
            )
            digest.update(repr(record).encode("utf-8") + b"\0")
    assert digest.hexdigest() == RANDOM_LOCATIONS_SHA256
