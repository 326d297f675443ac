"""First-order formula IR over int and bool sorts.

Formulas carry native operators only; function calls never reach this layer
(the VC generator eliminates them by contract summarization).  The nine
binary operators share one node, ``Bin``, keyed by the operator's MCL text;
what each operator means (its Python function, its negation, its SMT-LIB
symbol) is written once, in ``BIN_OPS``.  Smart constructors fold constants
but only across literal operands: a fold never erases a subterm containing a
variable, which is what guarantees that a candidate's placeholder survives
into the proof obligations.
"""

from __future__ import annotations

import operator
from enum import Enum
from typing import Any, Callable, NamedTuple

from floc.frontend.syntax import Sort
from floc.node import Frozen


class Formula(Frozen):
    pass


class IntConst(Formula):
    value: int


class BoolConst(Formula):
    value: bool


TRUE = BoolConst(True)
FALSE = BoolConst(False)


class VarRef(Formula):
    name: str
    var_sort: Sort


class Neg(Formula):
    arg: Formula


class Bin(Formula):
    """A binary operator applied to two terms; ``op`` is a key of ``BIN_OPS``."""

    op: str
    left: Formula
    right: Formula


class And(Formula):
    items: tuple[Formula, ...]


class Or(Formula):
    items: tuple[Formula, ...]


class Not(Formula):
    arg: Formula


class Implies(Formula):
    antecedent: Formula
    consequent: Formula


SortedVars = tuple[tuple[str, Sort], ...]


class BinOp(NamedTuple):
    fn: Callable[[Any, Any], Any]  # the operator over Python ints and bools
    negated: str | None  # a comparison's complement; None for arithmetic
    smt: str  # SMT-LIB symbol


# Keyed by MCL text, which is also the operator's Python text.
BIN_OPS: dict[str, BinOp] = {
    "+": BinOp(operator.add, None, "+"),
    "-": BinOp(operator.sub, None, "-"),
    "*": BinOp(operator.mul, None, "*"),
    "<": BinOp(operator.lt, ">=", "<"),
    "<=": BinOp(operator.le, ">", "<="),
    ">": BinOp(operator.gt, "<=", ">"),
    ">=": BinOp(operator.ge, "<", ">="),
    "==": BinOp(operator.eq, "!=", "="),
    "!=": BinOp(operator.ne, "==", "distinct"),
}


# ---------------------------------------------------------------------------
# Smart constructors (literal-only folding)
# ---------------------------------------------------------------------------


def _lit(f: Formula) -> bool:
    return isinstance(f, (IntConst, BoolConst))


def f_and(*items: Formula) -> Formula:
    flat: list[Formula] = []
    for it in items:
        if isinstance(it, And):
            flat.extend(it.items)
        else:
            flat.append(it)
    if all(_lit(x) for x in flat):
        return BoolConst(all(x.value for x in flat))
    # Dropping neutral literals erases no variables.
    kept = [x for x in flat if x != TRUE]
    if len(kept) == 1:
        return kept[0]
    return And(tuple(kept))


def f_or(*items: Formula) -> Formula:
    flat: list[Formula] = []
    for it in items:
        if isinstance(it, Or):
            flat.extend(it.items)
        else:
            flat.append(it)
    if all(_lit(x) for x in flat):
        return BoolConst(any(x.value for x in flat))
    kept = [x for x in flat if x != FALSE]
    if len(kept) == 1:
        return kept[0]
    return Or(tuple(kept))


def f_not(f: Formula) -> Formula:
    if isinstance(f, BoolConst):
        return BoolConst(not f.value)
    if isinstance(f, Not):
        return f.arg
    negated = BIN_OPS[f.op].negated if isinstance(f, Bin) else None
    if negated is not None:
        return Bin(negated, f.left, f.right)
    return Not(f)


def f_implies(a: Formula, b: Formula) -> Formula:
    if _lit(a) and _lit(b):
        return BoolConst((not a.value) or b.value)
    if a == TRUE:
        return b
    return Implies(a, b)


def f_neg(a: Formula) -> Formula:
    if isinstance(a, IntConst):
        return IntConst(-a.value)
    return Neg(a)


def f_bin(op: str, a: Formula, b: Formula) -> Formula:
    if _lit(a) and _lit(b):
        value = BIN_OPS[op].fn(a.value, b.value)
        return BoolConst(value) if isinstance(value, bool) else IntConst(value)
    return Bin(op, a, b)


# ---------------------------------------------------------------------------
# Traversal, free variables, substitution
# ---------------------------------------------------------------------------


def _children(f: Formula) -> tuple[Formula, ...]:
    match f:
        case Neg(arg=a) | Not(arg=a):
            return (a,)
        case Bin(left=l, right=r):
            return (l, r)
        case And(items=items) | Or(items=items):
            return items
        case Implies(antecedent=a, consequent=b):
            return (a, b)
    return ()


def free_vars(f: Formula) -> dict[str, Sort]:
    """Free variables with their sorts, in first-occurrence order.

    The walk keeps its own stack, so a formula of any depth is read."""
    out: dict[str, Sort] = {}
    stack = [f]
    while stack:
        g = stack.pop()
        t = type(g)
        if t is VarRef:
            if g.name not in out:
                out[g.name] = g.var_sort
        elif t is Bin:
            stack += (g.right, g.left)
        elif t is And or t is Or:
            stack += reversed(g.items)
        elif t is Not or t is Neg:
            stack.append(g.arg)
        elif t is Implies:
            stack += (g.consequent, g.antecedent)
    return out


class SortMismatch(Exception):
    pass


def substitute(f: Formula, binding: dict[str, Formula]) -> Formula:
    """Simultaneous substitution of formulas for variables.  A node none of
    whose children changed is returned as it is, and a changed one is rebuilt
    through the folding constructors."""
    if not binding:
        return f

    def walk(g: Formula) -> Formula:
        t = type(g)
        if t is VarRef:
            repl = binding.get(g.name)
            if repl is None:
                return g
            if type(repl) is VarRef and repl.var_sort is not g.var_sort:
                raise SortMismatch(f"substituting {repl.var_sort} for {g.var_sort} variable {g.name!r}")
            return repl
        if t is Bin:
            a, b = walk(g.left), walk(g.right)
            return g if a is g.left and b is g.right else f_bin(g.op, a, b)
        if t is And or t is Or:
            items = [*map(walk, g.items)]
            if all(map(operator.is_, items, g.items)):  # never a deep __eq__
                return g
            return f_and(*items) if t is And else f_or(*items)
        if t is Not or t is Neg:
            a = walk(g.arg)
            if a is g.arg:
                return g
            return f_not(a) if t is Not else f_neg(a)
        if t is Implies:
            a, b = walk(g.antecedent), walk(g.consequent)
            return g if a is g.antecedent and b is g.consequent else f_implies(a, b)
        return g

    return walk(f)


# ---------------------------------------------------------------------------
# Canonical text form
# ---------------------------------------------------------------------------

def format_formula(f: Formula) -> str:
    """Fully parenthesized infix rendering."""
    match f:
        case IntConst(value=v):
            return str(v)
        case BoolConst(value=v):
            return "true" if v else "false"
        case VarRef(name=n):
            return n
        case Neg(arg=a):
            return f"(-{format_formula(a)})"
        case Not(arg=a):
            return f"(!{format_formula(a)})"
        case Bin(op=op, left=l, right=r):
            return f"({format_formula(l)} {op} {format_formula(r)})"
        case And(items=items):
            return "(" + " && ".join(format_formula(x) for x in items) + ")"
        case Or(items=items):
            return "(" + " || ".join(format_formula(x) for x in items) + ")"
        case Implies(antecedent=a, consequent=b):
            return f"({format_formula(a)} ==> {format_formula(b)})"
    raise TypeError(f"cannot format {f!r}")


# ---------------------------------------------------------------------------
# Classified quantified queries
# ---------------------------------------------------------------------------


class UnclassifiedVariable(Exception):
    def __init__(self, name: str):
        super().__init__(f"free variable {name!r} is not classified as input, placeholder, or auxiliary")
        self.name = name


class QuantifiedQuery(Frozen):
    """The variable-classified query <inputs i, placeholder c, auxiliaries t, body>.

    It stands for the sentence forall(i). exists(c). forall(t). body.
    """

    inputs: SortedVars
    placeholder: tuple[str, Sort] | None
    auxiliaries: SortedVars
    body: Formula

    @property
    def reported(self) -> SortedVars:
        """The variables an Invalid verdict's witness values: the outermost
        universal block, which is the inputs, and the auxiliaries too when
        there is no placeholder."""
        return self.inputs if self.placeholder is not None else (*self.inputs, *self.auxiliaries)


def build_query(
    body: Formula,
    inputs: SortedVars,
    placeholder: tuple[str, Sort] | None,
    auxiliaries: SortedVars,
) -> QuantifiedQuery:
    declared = {n for n, _ in inputs} | {n for n, _ in auxiliaries}
    if placeholder is not None:
        declared.add(placeholder[0])
    count = len(inputs) + len(auxiliaries) + (1 if placeholder else 0)
    if count != len(declared):
        raise UnclassifiedVariable("<duplicate classification>")
    for name in free_vars(body):
        if name not in declared:
            raise UnclassifiedVariable(name)
    return QuantifiedQuery(tuple(inputs), placeholder, tuple(auxiliaries), body)


def format_query(q: QuantifiedQuery) -> str:
    """The query as a sentence: ``forall i. exists c. forall t. body``."""
    placeholder = (q.placeholder,) if q.placeholder is not None else ()
    prefix = ""
    for word, vs in (("forall", q.inputs), ("exists", placeholder), ("forall", q.auxiliaries)):
        if vs:
            prefix += f"{word} " + ", ".join(f"{n}:{s.value}" for n, s in vs) + ". "
    return prefix + format_formula(q.body)


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


class VerdictKind(Enum):
    VALID = "Valid"
    INVALID = "Invalid"
    UNKNOWN = "Unknown"


class Verdict(Frozen):
    kind: VerdictKind
    witness: dict[str, int | bool] | None = None
    reason: str | None = None  # timeout | resource | prover-said-unknown

    @staticmethod
    def valid() -> Verdict:
        return Verdict(VerdictKind.VALID)

    @staticmethod
    def invalid(witness: dict[str, int | bool]) -> Verdict:
        return Verdict(VerdictKind.INVALID, witness=witness)

    @staticmethod
    def unknown(reason: str) -> Verdict:
        return Verdict(VerdictKind.UNKNOWN, reason=reason)

    @property
    def is_valid(self) -> bool:
        return self.kind is VerdictKind.VALID

    @property
    def is_invalid(self) -> bool:
        return self.kind is VerdictKind.INVALID

    @property
    def is_unknown(self) -> bool:
        return self.kind is VerdictKind.UNKNOWN

    def __str__(self) -> str:
        if self.kind is VerdictKind.UNKNOWN:
            return f"Unknown({self.reason})"
        return self.kind.value
