"""The node base (``floc.node``): frozen structural records, identity AST
nodes, and a fresh import that leaves the interpreter and SMT-LIB unloaded."""

from __future__ import annotations

import copy
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import floc
from floc.domains import Built
from floc.frontend.lexer import Token
from floc.frontend.syntax import BINARY_OPS, Binary, IntLit, Sort, Span, ast_equal
from floc.logic import BIN_OPS, Bin, IntConst, QuantifiedQuery, VarRef, Verdict, f_bin
from floc.node import Frozen, replace
from floc.solvers import SolverConfig, _Level

SPAN = Span("m.mcl", 2, 5, 2, 5)


def _bin() -> Bin:
    return Bin("<=", VarRef("x", Sort.INT), IntConst(3))


@pytest.mark.parametrize(
    "node, field",
    [
        (_bin(), "left"),
        (SPAN, "line"),
        (QuantifiedQuery((("x", Sort.INT),), None, (), _bin()), "body"),
        (Verdict.invalid({"x": 4}), "witness"),
        (SolverConfig(), "bound"),
        (Token("IDENT", "x", 1, 5), "kind"),
        (BINARY_OPS["+"], "prec"),
        (BIN_OPS["+"], "fn"),
        (_Level("x", "v1", "d1", range(-8, 9), False, True), "domain"),
        (Built(1, "{-8, v1}"), "points"),
    ],
)
def test_frozen_nodes_refuse_assignment_and_deletion(node, field):
    before = getattr(node, field)
    with pytest.raises(AttributeError):
        setattr(node, field, None)
    with pytest.raises(AttributeError):
        delattr(node, field)
    assert getattr(node, field) is before


def test_no_floc_class_is_a_tuple():
    # floc.node is the only record base: no NamedTuple, whose instances also
    # unpack, index and compare equal to bare tuples.
    tuples = []
    for info in pkgutil.walk_packages(floc.__path__, "floc."):
        module = importlib.import_module(info.name)
        tuples += [f"{info.name}.{name}" for name, value in vars(module).items()
                   if isinstance(value, type) and value.__module__ == info.name
                   and issubclass(value, tuple)]
    assert tuples == []


def test_equal_formulas_built_apart_are_equal_and_hash_alike():
    a = f_bin("+", VarRef("x", Sort.INT), Bin("*", IntConst(2), VarRef("y", Sort.INT)))
    b = f_bin("+", VarRef("x", Sort.INT), Bin("*", IntConst(2), VarRef("y", Sort.INT)))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != replace(a, op="-")
    assert IntConst(3) != VarRef("x", Sort.INT)


def test_no_pass_compares_or_hashes_a_frozen_node(monkeypatch, capsys):
    from floc.cli import main

    calls = []
    eq, hash_ = Frozen.__eq__, Frozen.__hash__
    monkeypatch.setattr(Frozen, "__eq__", lambda self, other: calls.append(self) or eq(self, other))
    monkeypatch.setattr(Frozen, "__hash__", lambda self: calls.append(self) or hash_(self))
    corpus = Path(__file__).resolve().parents[1] / "src" / "floc" / "corpus"
    assert main(["localize", str(corpus / "tcas_v9.mcl"), "--function", "NonCrossBiasedDescend"]) == 0
    assert main(["localize", str(corpus / "max.mcl"), "--function", "max", "--mode", "conjunction"]) == 0
    assert main(["verify", str(corpus / "counter.mcl")]) == 1
    assert calls == []
    assert _bin() == _bin() and len(calls) == 3  # the counter sees a Bin and its two operands


def test_ast_nodes_compare_by_identity():
    a = Binary("+", IntLit(1, span=SPAN), IntLit(2, span=SPAN), span=SPAN, sort=Sort.INT)
    b = Binary("+", IntLit(1, span=SPAN), IntLit(2, span=SPAN), span=SPAN, sort=Sort.INT)
    assert a != b and a == a and len({a, b}) == 2
    assert ast_equal(a, b)
    a.sort = Sort.BOOL  # AST nodes stay mutable: the typechecker fills in sorts
    assert a.sort is Sort.BOOL


def test_positional_patterns_match_fields_in_order():
    match _bin():
        case Bin(op, VarRef(name), IntConst(value)):
            assert (op, name, value) == ("<=", "x", 3)
        case _:
            pytest.fail("Bin(op, left, right) did not match")
    match IntLit(7, span=SPAN):
        case IntLit(v):  # span and sort are keyword-only, so not positional
            assert v == 7
        case _:
            pytest.fail("IntLit(value) did not match")


def test_repr_is_the_dataclass_text():
    assert repr(_bin()) == (
        "Bin(op='<=', left=VarRef(name='x', var_sort=<Sort.INT: 'int'>), right=IntConst(value=3))"
    )
    assert repr(IntLit(7, span=SPAN, sort=Sort.INT)) == (
        "IntLit(span=Span(file='m.mcl', line=2, col=5, end_line=2, end_col=5), "
        "sort=<Sort.INT: 'int'>, value=7)"
    )
    assert repr(Verdict.invalid({"a": -8, "b": True})) == (
        "Verdict(kind=<VerdictKind.INVALID: 'Invalid'>, witness={'a': -8, 'b': True}, reason=None)"
    )


def test_solver_config_keeps_its_checks_and_defaults():
    with pytest.raises(ValueError):
        SolverConfig(bound=0)
    with pytest.raises(ValueError):
        SolverConfig(timeout=float("nan"))
    assert SolverConfig(bound=3) == SolverConfig("internal", None, 3) != SolverConfig()
    assert replace(SolverConfig(), placeholder_bound=16).bc == 16
    with pytest.raises(ValueError):
        replace(SolverConfig(), bound=-1)


def test_copies_of_frozen_nodes_are_equal():
    node = QuantifiedQuery((("x", Sort.INT),), ("c", Sort.INT), (), _bin())
    assert copy.deepcopy(node) == node and copy.copy(SPAN) == SPAN


def test_fresh_import_leaves_the_interpreter_and_smtlib_unloaded():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, floc, floc.localize, floc.cli\n"
        "print(sorted(m for m in ('floc.frontend.interp', 'floc.smtlib') if m in sys.modules))\n"
        "from floc.frontend import interpret, Returned\n"
        "print(floc.interpret is interpret, Returned.__name__)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.splitlines() == ["[]", "True Returned"]


# What ``CodeType.replace`` accepts on Python 3.10, the oldest version
# pyproject.toml supports; 3.11 added ``co_qualname`` and ``co_exceptiontable``.
_CODE_REPLACE_310 = {
    "co_argcount", "co_posonlyargcount", "co_kwonlyargcount", "co_nlocals",
    "co_stacksize", "co_flags", "co_firstlineno", "co_code", "co_consts",
    "co_names", "co_varnames", "co_freevars", "co_cellvars", "co_filename",
    "co_name", "co_linetable",
}


def test_node_base_renames_methods_with_what_python_3_10_accepts():
    import ast

    import floc.node

    tree = ast.parse(Path(floc.node.__file__).read_text())
    used = {k.arg for k in ast.walk(tree) if isinstance(k, ast.keyword) and k.arg
            and k.arg.startswith("co_")}
    assert used and used <= _CODE_REPLACE_310, used - _CODE_REPLACE_310
    assert Bin.__init__.__qualname__ == "Bin.__init__"


def test_nodes_publish_their_fields_to_instances_only():
    import dataclasses

    node = SolverConfig()
    assert node.__dataclass_fields__ == node._fields  # what bench/tracing.py walks
    assert not hasattr(SolverConfig, "__dataclass_fields__")
    assert not dataclasses.is_dataclass(node) and not dataclasses.is_dataclass(Bin)
