"""Sort checking and static well-formedness rules for MCL programs.

Beyond sort inference the checker enforces:

* no duplicate or shadowing declarations (globals, params, locals, functions)
* parameters and initialized globals (named constants) are never assigned
* ``\\result`` only in ensures of non-void functions; ``\\old`` only on
  globals inside ensures
* expression calls name ``pure`` functions only, and those write no globals;
  contracts are call-free
* no recursion anywhere in the call graph
* non-void functions return on every path, with no unreachable trailing code;
  returns are not allowed inside loop bodies
* user identifiers may not collide with the ``tmp_<k>`` temporary namespace
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from floc.frontend.syntax import (
    BINARY_OPS,
    Assign,
    Binary,
    Block,
    BoolLit,
    CallExpr,
    Expr,
    FunctionDef,
    If,
    IntLit,
    Neg,
    Not,
    OldSym,
    Program,
    ResultSym,
    Return,
    Sort,
    Span,
    Stmt,
    Var,
    VarDecl,
    While,
)

_TEMP_NAME = re.compile(r"tmp_[0-9]+$")


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    span: Span

    def __str__(self) -> str:
        return f"{self.span.file}:{self.span.line}:{self.span.col}: {self.code}: {self.message}"


class TypeCheckError(Exception):
    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


class _Checker:
    def __init__(self, program: Program):
        self.program = program
        self.diags: list[Diagnostic] = []
        self.globals = {g.name: g for g in program.globals}
        self.functions = {f.name: f for f in program.functions}
        self.calls: dict[str, set[str]] = {f.name: set() for f in program.functions}

    def error(self, code: str, message: str, span: Span) -> None:
        self.diags.append(Diagnostic(code, message, span))

    # -- program level -----------------------------------------------------

    def check(self) -> list[Diagnostic]:
        seen: dict[str, Span] = {}
        for g in self.program.globals:
            self._check_name(g.name, g.span)
            if g.name in seen:
                self.error("DuplicateName", f"duplicate global {g.name!r}", g.span)
            seen[g.name] = g.span
            if g.init is not None and g.init.sort is None:
                g.init.sort = Sort.INT if isinstance(g.init, IntLit) else Sort.BOOL
            if g.init is not None and g.init.sort is not g.sort:
                self.error("SortMismatch", f"initializer of {g.name!r} has wrong sort", g.span)
        for f in self.program.functions:
            self._check_name(f.name, f.span)
            if f.name in seen:
                self.error("DuplicateName", f"{f.name!r} already declared", f.span)
            seen[f.name] = f.span
        for f in self.program.functions:
            self._check_function(f)
        self._check_recursion()
        return self.diags

    def _check_name(self, name: str, span: Span) -> None:
        if _TEMP_NAME.match(name):
            self.error(
                "ReservedIdentifier",
                f"{name!r} collides with the normalizer's temporary namespace",
                span,
            )

    def _check_recursion(self) -> None:
        state: dict[str, int] = {}

        def dfs(name: str) -> bool:
            state[name] = 1
            for callee in sorted(self.calls[name]):
                if state.get(callee) == 1 or (state.get(callee) is None and dfs(callee)):
                    return True
            state[name] = 2
            return False

        for f in self.program.functions:
            if state.get(f.name) is None and dfs(f.name):
                self.error("RecursiveCall", f"recursion through {f.name!r} is not allowed", f.span)
                return

    # -- function level ------------------------------------------------------

    def _check_function(self, fn: FunctionDef) -> None:
        scope: dict[str, Sort] = {}
        params = set()
        for p in fn.params:
            self._check_name(p.name, p.span)
            if p.name in scope or p.name in self.globals or p.name in self.functions:
                self.error("DuplicateName", f"parameter {p.name!r} shadows another declaration", p.span)
            scope[p.name] = p.sort
            params.add(p.name)

        for e in fn.requires:
            self._check_bool(fn, e, scope, in_contract="requires")
        for e in fn.ensures:
            self._check_bool(fn, e, scope, in_contract="ensures")

        self._declared = set(scope)
        self._check_block(fn, fn.body, scope, params, in_loop=False)

        if fn.return_sort is not Sort.VOID:
            if not self._definitely_returns(fn.body):
                self.error(
                    "MissingReturn",
                    f"non-void function {fn.name!r} must return on every path",
                    fn.span,
                )

    def _check_block(
        self,
        fn: FunctionDef,
        block: Block,
        scope: dict[str, Sort],
        params: set[str],
        in_loop: bool,
    ) -> None:
        returned = False
        for s in block.stmts:
            if returned:
                self.error("UnreachableCode", "statement after a returning statement", s.span)
                returned = False
            match s:
                case VarDecl(name=n, decl_sort=srt, init=e):
                    self._check_name(n, s.span)
                    if n in self._declared or n in self.globals or n in self.functions:
                        self.error("DuplicateName", f"{n!r} is already declared", s.span)
                    got = self._check_expr(fn, e, scope, in_contract=None)
                    if got is not None and got is not srt:
                        self.error("SortMismatch", f"initializer of {n!r} is {got}, expected {srt}", s.span)
                    scope[n] = srt
                    self._declared.add(n)
                case Assign(target=t, value=e):
                    got = self._check_expr(fn, e, scope, in_contract=None)
                    if fn.pure and t not in scope and t in self.globals:
                        self.error("PurityViolation", f"pure function {fn.name!r} writes global {t!r}", s.span)
                    if t in params:
                        self.error("AssignToParam", f"parameter {t!r} is immutable", s.span)
                    elif t in scope:
                        if got is not None and got is not scope[t]:
                            self.error("SortMismatch", f"assigning {got} to {scope[t]} variable {t!r}", s.span)
                    elif t in self.globals:
                        g = self.globals[t]
                        if g.is_const:
                            self.error("AssignToConst", f"global {t!r} has an initializer and is constant", s.span)
                        elif got is not None and got is not g.sort:
                            self.error("SortMismatch", f"assigning {got} to {g.sort} global {t!r}", s.span)
                    else:
                        self.error("UnknownIdentifier", f"assignment to undeclared {t!r}", s.span)
                case If(cond=c, then_block=tb, else_block=eb):
                    self._check_cond(fn, c, scope)
                    self._check_block(fn, tb, dict(scope), params, in_loop)
                    if eb is not None:
                        self._check_block(fn, eb, dict(scope), params, in_loop)
                case While(cond=c, invariant=inv, body=b):
                    self._check_cond(fn, c, scope)
                    self._check_bool(fn, inv, scope, in_contract="invariant")
                    self._check_block(fn, b, dict(scope), params, in_loop=True)
                case Return(value=e):
                    if in_loop:
                        self.error("ReturnInLoop", "return inside a loop body is not supported", s.span)
                    if fn.return_sort is Sort.VOID:
                        if e is not None:
                            self._check_expr(fn, e, scope, in_contract=None)  # its calls are still edges
                            self.error("SortMismatch", "void function returns a value", s.span)
                    elif e is None:
                        self.error("SortMismatch", f"return without value in {fn.return_sort} function", s.span)
                    else:
                        got = self._check_expr(fn, e, scope, in_contract=None)
                        if got is not None and got is not fn.return_sort:
                            self.error("SortMismatch", f"returning {got} from {fn.return_sort} function", s.span)
                case Block():
                    self._check_block(fn, s, dict(scope), params, in_loop)
            returned = self._definitely_returns(s)

    def _definitely_returns(self, s: Stmt) -> bool:
        match s:
            case Return():
                return True
            case Block(stmts=stmts):
                return any(self._definitely_returns(x) for x in stmts)
            case If(then_block=tb, else_block=eb):
                return eb is not None and self._definitely_returns(tb) and self._definitely_returns(eb)
        return False

    # -- expression level ------------------------------------------------------

    def _check_cond(self, fn: FunctionDef, e: Expr, scope: dict[str, Sort]) -> None:
        got = self._check_expr(fn, e, scope, in_contract=None)
        if got is not None and got is not Sort.BOOL:
            self.error("SortMismatch", f"condition has sort {got}, expected bool", e.span)

    def _check_bool(self, fn: FunctionDef, e: Expr, scope: dict[str, Sort], in_contract: str) -> None:
        got = self._check_expr(fn, e, scope, in_contract=in_contract)
        if got is not None and got is not Sort.BOOL:
            self.error("SortMismatch", f"{in_contract} clause has sort {got}, expected bool", e.span)

    def _check_expr(
        self,
        fn: FunctionDef,
        e: Expr,
        scope: dict[str, Sort],
        in_contract: str | None,
    ) -> Sort | None:
        match e:
            case IntLit():
                e.sort = Sort.INT
            case BoolLit():
                e.sort = Sort.BOOL
            case Var(name=n):
                if n in scope:
                    e.sort = scope[n]
                elif n in self.globals:
                    e.sort = self.globals[n].sort
                else:
                    self.error("UnknownIdentifier", f"unknown identifier {n!r}", e.span)
                    return None
            case ResultSym():
                if in_contract != "ensures" or fn.return_sort is Sort.VOID:
                    self.error("IllegalResultUse", "\\result is only valid in ensures of a non-void function", e.span)
                    return None
                e.sort = fn.return_sort
            case OldSym(name=n):
                if in_contract != "ensures":
                    self.error("IllegalOldUse", "\\old(...) is only valid in ensures clauses", e.span)
                    return None
                if n not in self.globals:
                    self.error("IllegalOldUse", f"\\old applies to globals only, {n!r} is not one", e.span)
                    return None
                e.sort = self.globals[n].sort
            case Neg(arg=a):
                self._require(fn, a, Sort.INT, scope, in_contract)
                e.sort = Sort.INT
            case Not(arg=a):
                self._require(fn, a, Sort.BOOL, scope, in_contract)
                e.sort = Sort.BOOL
            case Binary(op=op, left=l, right=r):
                sig = BINARY_OPS[op]
                self._require(fn, l, sig.operand, scope, in_contract)
                self._require(fn, r, sig.operand, scope, in_contract)
                e.sort = sig.result
            case CallExpr(name=n, args=args):
                if in_contract is not None:
                    self.error("CallInContract", "function calls are not allowed in contract expressions", e.span)
                    return None
                callee = self.functions.get(n)
                if callee is None:
                    self.error("UnknownIdentifier", f"call to undeclared function {n!r}", e.span)
                else:
                    self.calls[fn.name].add(n)
                    if not callee.pure:
                        self.error("NonPureCall", f"{n!r} is not pure and cannot appear in an expression", e.span)
                    if len(args) != len(callee.params):
                        self.error(
                            "SortMismatch", f"{n!r} expects {len(callee.params)} arguments, got {len(args)}", e.span
                        )
                # Every argument is checked, also past the parameters and for
                # an unknown callee: each call in it is an edge of the graph.
                params = [] if callee is None else callee.params
                for a, p in zip(args, params):
                    self._require(fn, a, p.sort, scope, in_contract)
                for a in args[len(params) :]:
                    self._check_expr(fn, a, scope, in_contract)
                if callee is None:
                    return None
                if callee.return_sort is Sort.VOID:
                    self.error("SortMismatch", f"void function {n!r} used in an expression", e.span)
                    return None
                e.sort = callee.return_sort
        return e.sort

    def _require(self, fn: FunctionDef, e: Expr, want: Sort, scope: dict[str, Sort], in_contract: str | None) -> None:
        got = self._check_expr(fn, e, scope, in_contract)
        if got is not None and got is not want:
            self.error("SortMismatch", f"expected {want}, found {got}", e.span)


def typecheck(program: Program) -> list[Diagnostic]:
    """Check the program, annotating every expression with its sort.

    One walk over each function body writes each expression's sort and
    records, as it meets them, the function's call edges and its writes to
    globals; the recursion check then searches the recorded call graph.
    Returns the list of diagnostics; an empty list means the program is
    well-typed and all invariants hold.
    """
    return _Checker(program).check()


def check_program(program: Program) -> Program:
    """Typecheck and raise TypeCheckError on any diagnostic."""
    diags = typecheck(program)
    if diags:
        raise TypeCheckError(diags)
    return program
