"""AST definitions for MCL, the mini contract language.

The eleven binary operators share one node, ``Binary``, keyed by the
operator's MCL text; each operator's precedence, operand sort and result sort
are written once, in ``BINARY_OPS``, which the lexer, the parser, the printer
and the typechecker read.

AST nodes are ``floc.node.Node`` classes, which compare by identity because
the normalizer tracks individual occurrences; ``Span`` is ``Frozen``.
Structural comparison that ignores spans and inferred sorts is provided by
:func:`ast_equal`.
"""

from __future__ import annotations

from enum import Enum

from floc.node import KW_ONLY, Frozen, Node


class Sort(Enum):
    INT = "int"
    BOOL = "bool"
    VOID = "void"

    def __str__(self) -> str:
        return self.value


class Span(Frozen):
    """Half-open is not used: columns are inclusive, 1-based."""

    file: str
    line: int
    col: int
    end_line: int
    end_col: int

    def contains(self, other: Span) -> bool:
        return (self.line, self.col) <= (other.line, other.col) and (
            (other.end_line, other.end_col) <= (self.end_line, self.end_col)
        )


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr(Node):
    _: KW_ONLY
    span: Span
    sort: Sort | None = None


class IntLit(Expr):
    value: int


class BoolLit(Expr):
    value: bool


class Var(Expr):
    name: str


class Neg(Expr):
    arg: Expr


class Not(Expr):
    arg: Expr


class BinaryOp(Frozen):
    prec: int  # binding strength; every level associates to the left
    operand: Sort  # the sort of both operands
    result: Sort


# Keyed by MCL text.  The levels follow C: || < && < ==/!= < relational < +- < *.
BINARY_OPS: dict[str, BinaryOp] = {
    "||": BinaryOp(1, Sort.BOOL, Sort.BOOL),
    "&&": BinaryOp(2, Sort.BOOL, Sort.BOOL),
    "==": BinaryOp(3, Sort.INT, Sort.BOOL),
    "!=": BinaryOp(3, Sort.INT, Sort.BOOL),
    "<": BinaryOp(4, Sort.INT, Sort.BOOL),
    "<=": BinaryOp(4, Sort.INT, Sort.BOOL),
    ">": BinaryOp(4, Sort.INT, Sort.BOOL),
    ">=": BinaryOp(4, Sort.INT, Sort.BOOL),
    "+": BinaryOp(5, Sort.INT, Sort.INT),
    "-": BinaryOp(5, Sort.INT, Sort.INT),
    "*": BinaryOp(6, Sort.INT, Sort.INT),
}


class Binary(Expr):
    """A binary operator applied to two operands; ``op`` is a key of ``BINARY_OPS``."""

    op: str
    left: Expr
    right: Expr


class CallExpr(Expr):
    name: str
    args: list[Expr]


class ResultSym(Expr):
    """The reserved ``\\result`` symbol, legal only in ensures clauses."""


class OldSym(Expr):
    """``\\old(g)`` for a global g, legal only in ensures clauses."""

    name: str


# ---------------------------------------------------------------------------
# Statements and declarations
# ---------------------------------------------------------------------------


class Stmt(Node):
    _: KW_ONLY
    span: Span


class VarDecl(Stmt):
    name: str
    decl_sort: Sort
    init: Expr


class Assign(Stmt):
    target: str
    value: Expr


class Block(Stmt):
    stmts: list[Stmt]


class If(Stmt):
    cond: Expr
    then_block: Block
    else_block: Block | None


class While(Stmt):
    cond: Expr
    invariant: Expr
    body: Block


class Return(Stmt):
    value: Expr | None


class Param(Node):
    name: str
    sort: Sort
    _: KW_ONLY
    span: Span


class FunctionDef(Node):
    name: str
    params: list[Param]
    return_sort: Sort
    requires: list[Expr]
    ensures: list[Expr]
    body: Block
    pure: bool
    _: KW_ONLY
    span: Span


class GlobalDecl(Node):
    name: str
    sort: Sort
    init: IntLit | BoolLit | None
    _: KW_ONLY
    span: Span

    @property
    def is_const(self) -> bool:
        return self.init is not None


class Program(Node):
    globals: list[GlobalDecl]
    functions: list[FunctionDef]
    source: str = ""

    def function(self, name: str) -> FunctionDef:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(name)

    def global_decl(self, name: str) -> GlobalDecl:
        for g in self.globals:
            if g.name == name:
                return g
        raise KeyError(name)


# ---------------------------------------------------------------------------
# Structural equality (spans and inferred sorts excluded)
# ---------------------------------------------------------------------------

_IGNORED_FIELDS = {"span", "sort", "source"}


def ast_equal(a: object, b: object) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, Node):
        for f in a._fields:
            if f in _IGNORED_FIELDS:
                continue
            if not ast_equal(getattr(a, f), getattr(b, f)):
                return False
        return True
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(ast_equal(x, y) for x, y in zip(a, b))
    return a == b


# ---------------------------------------------------------------------------
# Pretty printer
# ---------------------------------------------------------------------------

# Negation and logical not bind tighter than every binary operator.
_PREC_UNARY = 7


def expr_text(e: Expr, parent_prec: int = 0) -> str:
    match e:
        case IntLit(value=v):
            return str(v)
        case BoolLit(value=v):
            return "true" if v else "false"
        case Var(name=n):
            return n
        case ResultSym():
            return "\\result"
        case OldSym(name=n):
            return f"\\old({n})"
        case CallExpr(name=n, args=args):
            return f"{n}({', '.join(expr_text(a) for a in args)})"
        case Neg(arg=a):
            s = "-" + expr_text(a, _PREC_UNARY)
            return s if parent_prec <= _PREC_UNARY else f"({s})"
        case Not(arg=a):
            s = "!" + expr_text(a, _PREC_UNARY)
            return s if parent_prec <= _PREC_UNARY else f"({s})"
        case Binary(op=op, left=l, right=r):
            prec = BINARY_OPS[op].prec
            s = f"{expr_text(l, prec)} {op} {expr_text(r, prec + 1)}"
            return s if prec >= parent_prec else f"({s})"
    raise TypeError(f"unknown expression node {e!r}")


def _contract_text(fn: FunctionDef) -> str:
    if not fn.requires and not fn.ensures:
        return ""
    parts = [f"requires {expr_text(e)};" for e in fn.requires]
    parts += [f"ensures {expr_text(e)};" for e in fn.ensures]
    return "/*@ " + " ".join(parts) + " @*/\n"


def stmt_text(s: Stmt, indent: int = 0) -> str:
    pad = "  " * indent
    match s:
        case VarDecl(name=n, decl_sort=srt, init=e):
            return f"{pad}{srt} {n} = {expr_text(e)};"
        case Assign(target=t, value=e):
            return f"{pad}{t} = {expr_text(e)};"
        case Return(value=None):
            return f"{pad}return;"
        case Return(value=e):
            return f"{pad}return {expr_text(e)};"
        case If(cond=c, then_block=tb, else_block=eb):
            out = f"{pad}if ({expr_text(c)}) " + _block_text(tb, indent)
            if eb is not None:
                out += " else " + _block_text(eb, indent)
            return out
        case While(cond=c, invariant=inv, body=b):
            out = f"{pad}/*@ loop invariant {expr_text(inv)}; @*/\n"
            out += f"{pad}while ({expr_text(c)}) " + _block_text(b, indent)
            return out
        case Block():
            return pad + _block_text(s, indent)
    raise TypeError(f"unknown statement node {s!r}")


def _block_text(b: Block, indent: int) -> str:
    pad = "  " * indent
    if not b.stmts:
        return "{ }"
    inner = "\n".join(stmt_text(s, indent + 1) for s in b.stmts)
    return "{\n" + inner + "\n" + pad + "}"


def function_text(fn: FunctionDef) -> str:
    params = ", ".join(f"{p.sort} {p.name}" for p in fn.params)
    head = _contract_text(fn)
    head += f"{'pure ' if fn.pure else ''}{fn.return_sort} {fn.name}({params}) "
    return head + _block_text(fn.body, 0) + "\n"


def program_text(p: Program) -> str:
    parts = []
    for g in p.globals:
        init = f" = {expr_text(g.init)}" if g.init is not None else ""
        parts.append(f"{g.sort} {g.name}{init};\n")
    for fn in p.functions:
        parts.append(function_text(fn))
    return "\n".join(parts)
