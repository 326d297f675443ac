"""Lowering to three-address normalized form.

Every compound subexpression is hoisted into a fresh ``tmp_k`` assignment so
each statement carries one flat expression (operands are literals or
variables).  Calls survive only as the entire right-hand side of an
assignment.  Loop conditions are special: their hoisted temporaries live in a
``prelude`` attached to the loop, executed before every condition test, so
semantics are preserved; the WP engine uses the prelude's defining equations
when reasoning about loop heads.

Each normalized node carries in ``span`` the source text it came from, and
the ``NormProgram`` keeps the source, so it turns a span back into one line
of original text (``snippet``).
"""

from __future__ import annotations

from functools import cached_property

from floc.frontend.syntax import (
    Assign,
    Binary,
    Block,
    BoolLit,
    CallExpr,
    Expr,
    GlobalDecl,
    If,
    IntLit,
    Neg,
    Not,
    Program,
    Return,
    Sort,
    Span,
    Var,
    VarDecl,
    While,
    expr_text,
)
from floc.node import KW_ONLY, Frozen, Node, replace


class CallRhs(Node):
    name: str
    args: list[Expr]  # leaves only
    _: KW_ONLY
    span: Span
    sort: Sort | None = None


class NStmt(Node):
    _: KW_ONLY
    span: Span
    index: int = -1  # dense program order within the function


class NAssign(NStmt):
    target: str
    rhs: Expr | CallRhs
    declares: bool = False
    decl_sort: Sort | None = None
    synthetic: bool = False  # a normalizer-introduced temporary


class NIf(NStmt):
    cond: Expr
    then_stmts: list[NStmt]
    else_stmts: list[NStmt]


class NWhile(NStmt):
    prelude: list[NAssign]
    cond: Expr
    invariant: Expr
    body: list[NStmt]


class NReturn(NStmt):
    value: Expr | None


class NFunc(Node):
    name: str
    params: list
    return_sort: Sort
    requires: list[Expr]
    ensures: list[Expr]
    body: list[NStmt]
    pure: bool
    span: Span


class NormProgram(Node):
    globals: list[GlobalDecl]
    functions: list[NFunc]
    source: str = ""
    __slots__ = ("__dict__",)  # for source_lines

    def function(self, name: str) -> NFunc:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(name)

    @cached_property
    def source_lines(self) -> list[str]:
        return self.source.splitlines()

    def snippet(self, span: Span) -> str:
        """The source text of a span as one line; a multi-line span has its
        lines stripped and joined by single spaces."""
        lines = self.source_lines
        if span.line == span.end_line:
            return lines[span.line - 1][span.col - 1 : span.end_col]
        first = lines[span.line - 1][span.col - 1 :]
        rest = lines[span.line : span.end_line - 1]
        last = lines[span.end_line - 1][: span.end_col]
        return " ".join(s.strip() for s in [first, *rest, last])


class LocationDescription(Frozen):
    normalized_text: str
    line: int
    original_text: str


def render_location(node, np: NormProgram) -> LocationDescription:
    span = node.span
    if isinstance(node, CallRhs):
        text = f"{node.name}({', '.join(expr_text(a) for a in node.args)})"
    elif isinstance(node, Expr):
        text = expr_text(node)
    else:
        text = nstmt_text(node)
    return LocationDescription(text, span.line, np.snippet(span))


_LEAVES = (IntLit, BoolLit, Var)


def is_leaf(e: Expr) -> bool:
    return isinstance(e, _LEAVES)


def is_flat(e: Expr) -> bool:
    """Flat: at most one operator deep, operands are literals or variables."""
    match e:
        case IntLit() | BoolLit() | Var():
            return True
        case Neg(arg=a) | Not(arg=a):
            return is_leaf(a)
        case Binary(left=l, right=r):
            return is_leaf(l) and is_leaf(r)
    return False


class _FuncNormalizer:
    def __init__(self):
        self.temps = 0
        self.index = 0

    def next_index(self) -> int:
        self.index += 1
        return self.index - 1

    # -- expression flattening ------------------------------------------------

    def bind(self, rhs: Expr | CallRhs, span: Span, out: list[NAssign]) -> Var:
        """Assign rhs to a fresh temporary and return the temporary."""
        name = f"tmp_{self.temps}"
        self.temps += 1
        out.append(NAssign(
            name, rhs, declares=True, decl_sort=rhs.sort, synthetic=True,
            span=span, index=self.next_index(),
        ))
        return Var(name, span=span, sort=rhs.sort)

    def leaf(self, e: Expr, out: list[NAssign]) -> Expr:
        """Reduce e to a literal or variable, emitting temporary assignments."""
        return e if is_leaf(e) else self.bind(self.flatten(e, out), e.span, out)

    def flatten(self, e: Expr, out: list[NAssign]) -> Expr | CallRhs:
        """Reduce e to a flat expression (or a call on leaf arguments)."""
        _require_sort(e)
        match e:
            case IntLit() | BoolLit() | Var():
                return e
            case CallExpr(name=n, args=args):
                return CallRhs(n, [self.leaf(a, out) for a in args], span=e.span, sort=e.sort)
            case Neg() | Not():
                return replace(e, arg=self.leaf(e.arg, out))
            case Binary():
                return replace(e, left=self.leaf(e.left, out), right=self.leaf(e.right, out))
        raise TypeError(f"cannot normalize expression {e!r}")

    def flat_value(self, e: Expr, out: list[NAssign]) -> Expr:
        """Flat expression with no call at the top (conditions, returns)."""
        flat = self.flatten(e, out)
        return self.bind(flat, e.span, out) if isinstance(flat, CallRhs) else flat

    # -- statements ----------------------------------------------------------

    def do_block(self, block: Block) -> list[NStmt]:
        out: list[NStmt] = []
        for s in block.stmts:
            self.do_stmt(s, out)
        return out

    def do_stmt(self, s, out: list[NStmt]) -> None:
        match s:
            case VarDecl(name=n, decl_sort=srt, init=e):
                rhs = self.flatten(e, out)
                out.append(NAssign(n, rhs, declares=True, decl_sort=srt, span=s.span, index=self.next_index()))
            case Assign(target=t, value=e):
                rhs = self.flatten(e, out)
                out.append(NAssign(t, rhs, span=s.span, index=self.next_index()))
            case If(cond=c, then_block=tb, else_block=eb):
                cond = self.flat_value(c, out)
                idx = self.next_index()
                then_stmts = self.do_block(tb)
                else_stmts = self.do_block(eb) if eb is not None else []
                out.append(NIf(cond, then_stmts, else_stmts, span=s.span, index=idx))
            case While(cond=c, invariant=inv, body=b):
                _require_sort(inv)
                prelude: list[NAssign] = []
                cond = self.flat_value(c, prelude)
                idx = self.next_index()
                out.append(NWhile(prelude, cond, inv, self.do_block(b), span=s.span, index=idx))
            case Return(value=e):
                value = None if e is None else self.flat_value(e, out)
                out.append(NReturn(value, span=s.span, index=self.next_index()))
            case Block():
                out.extend(self.do_block(s))
            case _:
                raise TypeError(f"cannot normalize statement {s!r}")


def _require_sort(e: Expr) -> None:
    # Not an assert: python -O would strip it, and vcgen reads these sorts.
    if e.sort is None:
        raise ValueError("normalize needs a typechecked program: typecheck it first")


def normalize(program: Program) -> NormProgram:
    """Lower a typechecked program to normalized form.

    Semantics are preserved for every input, and the result satisfies the
    flatness invariant (checkable with is_flat).  Raises ValueError if a
    statement's expression or a contract clause has no sort, that is, if the
    program was not typechecked.
    """
    for fn in program.functions:
        for clause in fn.requires + fn.ensures:
            _require_sort(clause)
    funcs = [
        NFunc(
            fn.name,
            list(fn.params),
            fn.return_sort,
            list(fn.requires),
            list(fn.ensures),
            _FuncNormalizer().do_block(fn.body),
            fn.pure,
            span=fn.span,
        )
        for fn in program.functions
    ]
    return NormProgram(program.globals, funcs, source=program.source)


def assigned_vars(stmts: list[NStmt]) -> dict[str, Sort]:
    """Variables assigned anywhere in the statements, in first-write order,
    each with the sort of the value first written to it."""
    seen: dict[str, Sort] = {}

    def walk(seq: list[NStmt]) -> None:
        for s in seq:
            match s:
                case NAssign(target=t, rhs=rhs):
                    seen.setdefault(t, rhs.sort)
                case NIf(then_stmts=tb, else_stmts=eb):
                    walk(tb)
                    walk(eb)
                case NWhile(prelude=pre, body=b):
                    walk(pre)
                    walk(b)

    walk(stmts)
    return seen


def nstmt_text(s: NStmt) -> str:
    match s:
        case NAssign(target=t, rhs=CallRhs(name=n, args=args)):
            return f"{t} = {n}({', '.join(expr_text(a) for a in args)});"
        case NAssign(target=t, rhs=e):
            return f"{t} = {expr_text(e)};"
        case NIf(cond=c):
            return f"if ({expr_text(c)})"
        case NWhile(cond=c):
            return f"while ({expr_text(c)})"
        case NReturn(value=None):
            return "return;"
        case NReturn(value=e):
            return f"return {expr_text(e)};"
    raise TypeError(f"unknown normalized statement {s!r}")


def dump_normalized(np: NormProgram, fname: str | None = None) -> str:
    """Render normalized functions with original line numbers in the margin."""
    lines: list[str] = []
    for fn in np.functions:
        if fname is not None and fn.name != fname:
            continue
        params = ", ".join(f"{p.sort} {p.name}" for p in fn.params)
        lines.append(f"{fn.return_sort} {fn.name}({params}):")
        lines.extend(_dump_stmts(fn.body, 1))
        lines.append("")
    return "\n".join(lines)


def _dump_stmts(stmts: list[NStmt], depth: int) -> list[str]:
    out = []
    pad = "  " * depth

    def emit(s: NStmt, text: str) -> None:
        out.append(f"{s.span.line:>4} | {pad}{text}")

    for s in stmts:
        match s:
            case NIf(then_stmts=tb, else_stmts=eb):
                emit(s, nstmt_text(s) + " {")
                out.extend(_dump_stmts(tb, depth + 1))
                if eb:
                    out.append(f"     | {pad}" + "} else {")
                    out.extend(_dump_stmts(eb, depth + 1))
                out.append(f"     | {pad}" + "}")
            case NWhile(prelude=pre, body=b, invariant=inv):
                for p in pre:
                    emit(p, nstmt_text(p) + "  [loop-cond]")
                emit(s, f"/*@ loop invariant {expr_text(inv)}; @*/")
                emit(s, nstmt_text(s) + " {")
                out.extend(_dump_stmts(b, depth + 1))
                out.append(f"     | {pad}" + "}")
            case _:
                emit(s, nstmt_text(s))
    return out
