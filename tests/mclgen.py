"""Seeded random generator of loop-free, call-free MCL programs.

Used by the semantic-preservation, WP-soundness, and solver-agreement suites.
Programs have int parameters, locals declared up front, straight-line code
with nested ifs, and a full contract; everything typechecks by construction.
"""

from __future__ import annotations

import random

from floc.frontend.syntax import (
    Assign,
    Binary,
    Block,
    Expr,
    FunctionDef,
    If,
    IntLit,
    Neg,
    Not,
    Param,
    Program,
    ResultSym,
    Return,
    Sort,
    Span,
    Var,
    VarDecl,
    program_text,
)

SPAN = Span("<gen>", 1, 1, 1, 1)
CMP_OPS = ("<", "<=", ">", ">=", "==", "!=")


class ProgramGen:
    def __init__(self, rng: random.Random):
        self.rng = rng

    def int_expr(self, names: list[str], depth: int) -> Expr:
        r = self.rng
        if depth <= 0 or r.random() < 0.35:
            if names and r.random() < 0.7:
                return Var(r.choice(names), span=SPAN)
            return IntLit(r.randint(-4, 4), span=SPAN)
        kind = r.choice(("add", "sub", "mul", "neg"))
        if kind == "neg":
            return Neg(self.int_expr(names, depth - 1), span=SPAN)
        left = self.int_expr(names, depth - 1)
        right = self.int_expr(names, depth - 1)
        op = {"add": "+", "sub": "-", "mul": "*"}[kind]
        return Binary(op, left, right, span=SPAN)

    def bool_expr(self, names: list[str], depth: int) -> Expr:
        r = self.rng
        if depth <= 0 or r.random() < 0.4:
            return Binary(
                r.choice(CMP_OPS),
                self.int_expr(names, 1),
                self.int_expr(names, 1),
                span=SPAN,
            )
        kind = r.choice(("and", "or", "not"))
        if kind == "not":
            return Not(self.bool_expr(names, depth - 1), span=SPAN)
        op = "&&" if kind == "and" else "||"
        return Binary(op, self.bool_expr(names, depth - 1), self.bool_expr(names, depth - 1), span=SPAN)

    def stmts(self, params: list[str], mutable: list[str], budget: int, allow_decl: bool) -> list:
        r = self.rng
        out = []
        for _ in range(budget):
            scope = params + mutable
            roll = r.random()
            if allow_decl and (not mutable or roll < 0.3):
                name = f"v{len(mutable)}"
                out.append(VarDecl(name, Sort.INT, self.int_expr(scope, 2), span=SPAN))
                mutable.append(name)
            elif mutable and roll < 0.75:
                out.append(Assign(r.choice(mutable), self.int_expr(scope, 2), span=SPAN))
            elif mutable:
                then_body = self.stmts(params, mutable, r.randint(1, 2), allow_decl=False)
                else_body = self.stmts(params, mutable, r.randint(0, 2), allow_decl=False)
                out.append(
                    If(
                        self.bool_expr(scope, 1),
                        Block(then_body, span=SPAN),
                        Block(else_body, span=SPAN) if else_body else None,
                        span=SPAN,
                    )
                )
        return out

    def function(self, name: str = "f") -> FunctionDef:
        r = self.rng
        n_params = r.randint(1, 3)
        params = [f"p{i}" for i in range(n_params)]
        mutable: list[str] = []
        body = self.stmts(params, mutable, r.randint(2, 4), allow_decl=True)
        body.append(Return(self.int_expr(params + mutable, 2), span=SPAN))

        requires = [] if r.random() < 0.4 else [self.bool_expr(params, 1)]
        result_scope = params  # ensures may mention params and \result
        ensures = []
        for _ in range(r.randint(1, 2)):
            clause = self.bool_expr(result_scope, 1)
            # splice \result into one comparison operand
            side = r.choice(("left", "right"))
            if isinstance(clause, Binary) and clause.op in CMP_OPS:
                if side == "left":
                    clause = Binary(clause.op, ResultSym(span=SPAN), clause.right, span=SPAN)
                else:
                    clause = Binary(clause.op, clause.left, ResultSym(span=SPAN), span=SPAN)
            ensures.append(clause)

        return FunctionDef(
            name,
            [Param(p, Sort.INT, span=SPAN) for p in params],
            Sort.INT,
            requires,
            ensures,
            Block(body, span=SPAN),
            pure=False,
            span=SPAN,
        )

    def program_source(self) -> str:
        return program_text(Program([], [self.function()]))

    def inputs(self, params: list[str], bound: int = 8) -> dict[str, int]:
        return {p: self.rng.randint(-bound, bound) for p in params}
