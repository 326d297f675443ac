from __future__ import annotations

import itertools
import random

import pytest

from floc.frontend.syntax import BINARY_OPS, Sort
from floc.logic import (
    BIN_OPS,
    And,
    Bin,
    BoolConst,
    FALSE,
    Implies,
    IntConst,
    Neg,
    Not,
    Or,
    SortMismatch,
    TRUE,
    UnclassifiedVariable,
    VarRef,
    Verdict,
    build_query,
    f_and,
    f_bin,
    f_implies,
    f_not,
    f_or,
    format_formula,
    format_query,
    free_vars,
    substitute,
)

from oracles import tree_eval

I = Sort.INT
B = Sort.BOOL
# The MCL comparisons: int operands, bool result.
CMP_OPS = [op for op, sig in BINARY_OPS.items() if (sig.operand, sig.result) == (I, B)]


def iv(name: str) -> VarRef:
    return VarRef(name, I)


# -- substitution -------------------------------------------------------------


def test_substitute_literal():
    f = Bin(">=", iv("c1"), iv("b"))
    assert substitute(f, {"b": IntConst(3)}) == Bin(">=", iv("c1"), IntConst(3))


def test_substitute_result_discharge():
    # ensures \result >= b with \result bound to r
    f = Bin(">=", iv("result"), iv("b"))
    assert substitute(f, {"result": iv("r")}) == Bin(">=", iv("r"), iv("b"))


def test_substitute_is_simultaneous():
    f = Bin("+", iv("x"), iv("y"))
    out = substitute(f, {"x": iv("y"), "y": iv("x")})
    assert out == Bin("+", iv("y"), iv("x"))


def test_substitute_rejects_a_variable_of_the_other_sort():
    with pytest.raises(SortMismatch):
        substitute(Not(Bin("<", iv("x"), IntConst(1))), {"x": VarRef("p", B)})


def test_free_vars_bookkeeping_property():
    rng = random.Random(11)
    vars_pool = ["a", "b", "c", "d"]

    def rand_formula(depth: int):
        if depth == 0:
            return iv(rng.choice(vars_pool))
        l, r = rand_formula(depth - 1), rand_formula(depth - 1)
        return rng.choice([Bin("+", l, r), Bin(">=", l, r) if depth == 1 else Bin("+", l, r)])

    for _ in range(200):
        f = Bin(">=", rand_formula(2), rand_formula(2))
        x = rng.choice(vars_pool)
        e = rand_formula(1)
        if x not in free_vars(f):
            continue
        got = set(free_vars(substitute(f, {x: e})))
        want = (set(free_vars(f)) - {x}) | set(free_vars(e))
        assert got == want


def test_free_vars_keeps_first_occurrence_order_at_any_depth():
    f = And((Implies(iv("y"), Not(VarRef("b", B))), Bin("<", Neg(iv("x")), iv("y")), Or((iv("a"), iv("x")))))
    assert list(free_vars(f)) == ["y", "b", "x", "a"]
    deep = VarRef("p", B)
    for _ in range(100_000):
        deep = Not(deep)
    assert free_vars(deep) == {"p": B}


# -- constant folding (literal-only) ------------------------------------------


def test_fold_all_literal_conjunction():
    assert f_and(TRUE, BoolConst(True)) == TRUE
    assert f_and(TRUE, FALSE) == FALSE


def test_fold_keeps_variables_intact():
    c = VarRef("c", B)
    # neutral literals may vanish, but never a subterm with a variable
    assert f_and(TRUE, c) == c
    kept = f_and(FALSE, c)
    assert "c" in free_vars(kept)
    kept2 = f_or(TRUE, c)
    assert "c" in free_vars(kept2)


def test_implies_fold_rules():
    q = Bin(">=", iv("x"), IntConst(0))
    assert f_implies(TRUE, q) == q
    assert f_implies(FALSE, TRUE) == TRUE
    # a false antecedent may not erase a variable-bearing consequent
    assert "x" in free_vars(f_implies(FALSE, q))
    assert "x" in free_vars(f_implies(q, TRUE))


def test_not_pushes_through_comparisons():
    assert f_not(Bin(">", iv("b"), iv("a"))) == Bin("<=", iv("b"), iv("a"))
    assert f_not(Bin("==", iv("a"), iv("b"))) == Bin("!=", iv("a"), iv("b"))
    for op in CMP_OPS:
        f = Bin(op, iv("a"), iv("b"))
        negated = f_not(f)
        assert isinstance(negated, Bin) and negated.op != op
        assert f_not(negated) == f
        for a, b in itertools.product(range(-2, 3), repeat=2):
            env = {"a": a, "b": b}
            assert tree_eval(negated, env) is (not tree_eval(f, env))


def test_bin_folds_literals_as_tree_eval_evaluates_them():
    assert set(BIN_OPS) == set(BINARY_OPS) - {"&&", "||"}
    assert set(BIN_OPS) == set(CMP_OPS) | {"+", "-", "*"}
    ints = [IntConst(v) for v in range(-2, 3)]
    bools = [FALSE, TRUE]
    for op in BIN_OPS:
        pairs = list(itertools.product(ints, repeat=2))
        if op in ("==", "!="):
            pairs += list(itertools.product(bools, repeat=2))
        for a, b in pairs:
            folded = f_bin(op, a, b)
            value = tree_eval(Bin(op, a, b), {})
            assert folded == (BoolConst(value) if op in CMP_OPS else IntConst(value))
        # a variable operand is never folded away
        assert f_bin(op, iv("x"), IntConst(1)) == Bin(op, iv("x"), IntConst(1))


def test_nested_and_flattens():
    f = f_and(f_and(iv_b("p"), iv_b("q")), iv_b("r"))
    assert isinstance(f, And) and len(f.items) == 3


def iv_b(name: str) -> VarRef:
    return VarRef(name, B)


# -- canonical text -----------------------------------------------------------


def test_canonical_text_form():
    body = Or((Bin("<=", iv("b"), iv("a")), Bin(">=", iv("c3"), iv("b"))))
    q = build_query(body, (("a", I), ("b", I)), ("c3", I), ())
    assert format_query(q) == "forall a:int, b:int. exists c3:int. ((b <= a) || (c3 >= b))"


def test_canonical_text_operators():
    f = Implies(Not(iv_b("p")), Bin("==", Neg(iv("x")), Bin("+", iv("x"), IntConst(-2))))
    assert format_formula(f) == "((!p) ==> ((-x) == (x + -2)))"


# -- queries -------------------------------------------------------------------


def test_build_query_example_shape():
    body = Or((Bin("<=", iv("b"), iv("a")), Bin(">=", iv("c3"), iv("b"))))
    q = build_query(body, (("a", I), ("b", I)), ("c3", I), ())
    assert (q.inputs, q.placeholder, q.auxiliaries, q.body) == ((("a", I), ("b", I)), ("c3", I), (), body)
    assert format_query(q).startswith("forall a:int, b:int. exists c3:int. (")


def test_build_query_unclassified_variable():
    body = Bin(">=", iv("tmp_9"), IntConst(0))
    with pytest.raises(UnclassifiedVariable) as err:
        build_query(body, (("a", I),), None, ())
    assert err.value.name == "tmp_9"


def test_build_query_without_placeholder_is_plain_universal():
    body = Bin(">=", iv("a"), IntConst(0))
    q = build_query(body, (("a", I),), None, ())
    assert format_query(q) == "forall a:int. (a >= 0)"
    aux_only = build_query(body, (), None, (("a", I),))
    assert format_query(aux_only) == "forall a:int. (a >= 0)"


def test_query_closure_is_sentence_for_corpus_obligations():
    from floc.vcgen import gen_obligations

    from conftest import build

    for name in ("max", "sum_upto", "int_division", "countdown", "tcas_v9"):
        pipe = build(name)
        for nf in pipe.norm.functions:
            for q in gen_obligations(pipe.norm, nf):
                declared = {n for n, _ in q.inputs + q.auxiliaries}
                assert q.placeholder is None
                assert set(free_vars(q.body)) <= declared
                text = format_query(q)
                assert text.endswith(format_formula(q.body))
                assert text.startswith("forall ") == bool(declared)


# -- evaluation and verdicts ----------------------------------------------------


def test_verdict_rendering():
    assert str(Verdict.valid()) == "Valid"
    assert str(Verdict.invalid({"a": 1})) == "Invalid"
    assert str(Verdict.unknown("timeout")) == "Unknown(timeout)"
    assert Verdict.invalid({"a": 1}).witness == {"a": 1}
