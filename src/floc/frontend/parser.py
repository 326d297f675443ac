"""Recursive-descent parser for MCL.

Grammar summary:

    program   := (global | function)*
    global    := type IDENT ("=" literal)? ";"
    function  := contract? "pure"? type IDENT "(" params? ")" block
    contract  := "/*@" ("requires" expr ";")* ("ensures" expr ";")* "@*/"
    stmt      := decl | assign | if | while | return | block
    while     := "/*@" "loop" "invariant" expr ";" "@*/" "while" "(" expr ")" block

Binary operators are parsed by precedence climbing over ``BINARY_OPS``, whose
levels follow C; unary ``-`` and ``!`` bind tighter than all of them.  Local
declarations require an initializer; every while loop requires exactly one
invariant annotation.
"""

from __future__ import annotations

from floc.frontend.lexer import MclSyntaxError, Token, tokenize
from floc.frontend.syntax import (
    BINARY_OPS,
    Assign,
    Binary,
    Block,
    BoolLit,
    CallExpr,
    Expr,
    FunctionDef,
    GlobalDecl,
    If,
    IntLit,
    Neg,
    Not,
    OldSym,
    Param,
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

_TYPE_TOKENS = ("int", "bool", "void")


class _Parser:
    def __init__(self, tokens: list[Token], filename: str):
        self.tokens = tokens
        self.pos = 0
        self.filename = filename

    # -- token helpers ----------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[self.pos + offset]

    def at(self, *kinds: str) -> bool:
        return self.tokens[self.pos].kind in kinds

    def take(self) -> Token:
        """The current token.  The cursor stays on EOF, the last token, so
        ``peek`` may look past any token that is not EOF."""
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, *kinds: str) -> Token:
        tok = self.peek()
        if tok.kind not in kinds:
            shown = tok.value or "end of input"
            raise MclSyntaxError(
                f"expected {' or '.join(repr(k) for k in kinds)}, found {shown!r}",
                tok.line,
                tok.col,
                expected=kinds,
            )
        return self.take()

    def span(self, first: Token | Span, last: Token | Span | None = None) -> Span:
        """From the start of ``first`` to the end of ``last``, or of ``first``
        alone; each is a token or a child's span, and ``first`` comes first."""
        if last is None:
            last = first
        end_line = last.line if type(last) is Token else last.end_line
        return Span(self.filename, first.line, first.col, end_line, last.end_col)

    # -- top level ---------------------------------------------------------

    def parse_program(self, source: str) -> Program:
        globals_: list[GlobalDecl] = []
        functions: list[FunctionDef] = []
        while not self.at("EOF"):
            # A function starts with a contract, "pure", or a type, a name and "(".
            if self.at("ANNOT_OPEN", "pure") or (self.peek(1).kind == "IDENT" and self.peek(2).kind == "("):
                functions.append(self.parse_function())
            else:
                globals_.append(self.parse_global())
        return Program(globals_, functions, source=source)

    def parse_global(self) -> GlobalDecl:
        ty_tok = self.expect(*_TYPE_TOKENS)
        name_tok = self.expect("IDENT")
        init = None
        if self.at("="):
            self.take()
            init = self.parse_literal()
        end = self.expect(";")
        return GlobalDecl(name_tok.value, Sort(ty_tok.kind), init, span=self.span(ty_tok, end))

    def parse_literal(self) -> IntLit | BoolLit:
        tok = self.peek()
        if self.at("INT", "true", "false"):
            return self.parse_primary()
        if self.at("-") and self.peek(1).kind == "INT":
            self.take()
            num = self.take()
            return IntLit(-int(num.value), span=self.span(tok, num))
        raise MclSyntaxError(
            "expected literal", tok.line, tok.col, expected=("INT", "true", "false")
        )

    def parse_function(self) -> FunctionDef:
        first_tok = self.peek()
        requires, ensures = self.parse_contract() if self.at("ANNOT_OPEN") else ([], [])
        pure = self.at("pure")
        if pure:
            self.take()
        ty_tok = self.expect(*_TYPE_TOKENS)
        name_tok = self.expect("IDENT")
        self.expect("(")
        params: list[Param] = []
        if not self.at(")"):
            while True:
                p_ty = self.expect("int", "bool")
                p_name = self.expect("IDENT")
                params.append(
                    Param(p_name.value, Sort(p_ty.kind), span=self.span(p_ty, p_name))
                )
                if not self.at(","):
                    break
                self.take()
        self.expect(")")
        body = self.parse_block()
        # The span starts at the contract, or else at the type, not at "pure".
        span = self.span(first_tok if first_tok.kind == "ANNOT_OPEN" else ty_tok, body.span)
        return FunctionDef(
            name_tok.value,
            params,
            Sort(ty_tok.kind),
            requires,
            ensures,
            body,
            pure,
            span=span,
        )

    def parse_contract(self) -> tuple[list[Expr], list[Expr]]:
        self.expect("ANNOT_OPEN")
        requires: list[Expr] = []
        ensures: list[Expr] = []
        while self.at("requires"):
            self.take()
            requires.append(self.parse_expr())
            self.expect(";")
        while self.at("ensures"):
            self.take()
            ensures.append(self.parse_expr())
            self.expect(";")
        self.expect("ANNOT_CLOSE")
        return requires, ensures

    # -- statements ----------------------------------------------------------

    def parse_block(self) -> Block:
        open_tok = self.expect("{")
        stmts: list[Stmt] = []
        while not self.at("}"):
            if self.at("EOF"):
                raise MclSyntaxError("unterminated block", open_tok.line, open_tok.col)
            stmts.append(self.parse_stmt())
        close = self.expect("}")
        return Block(stmts, span=self.span(open_tok, close))

    def parse_stmt(self) -> Stmt:
        tok = self.peek()
        if self.at("ANNOT_OPEN"):
            return self.parse_while()
        if self.at("while"):
            raise MclSyntaxError(
                "while requires a loop invariant annotation (/*@ loop invariant ...; @*/)",
                tok.line,
                tok.col,
                expected=("ANNOT_OPEN",),
            )
        if self.at("{"):
            return self.parse_block()
        if self.at("if"):
            return self.parse_if()
        if self.at("return"):
            self.take()
            value = None if self.at(";") else self.parse_expr()
            end = self.expect(";")
            return Return(value, span=self.span(tok, end))
        if self.at("int", "bool"):
            ty_tok = self.take()
            name = self.expect("IDENT")
            self.expect("=")
            init = self.parse_expr()
            end = self.expect(";")
            return VarDecl(
                name.value,
                Sort(ty_tok.kind),
                init,
                span=self.span(ty_tok, end),
            )
        if self.at("IDENT"):
            name = self.take()
            self.expect("=")
            value = self.parse_expr()
            end = self.expect(";")
            return Assign(name.value, value, span=self.span(name, end))
        raise MclSyntaxError(
            f"expected statement, found {tok.value or 'end of input'!r}",
            tok.line,
            tok.col,
            expected=("IDENT", "int", "bool", "if", "while", "return", "{"),
        )

    def parse_if(self) -> If:
        if_tok = self.expect("if")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then_block = self.as_block(self.parse_stmt())
        else_block = None
        if self.at("else"):
            self.take()
            else_block = self.as_block(self.parse_stmt())
        return If(cond, then_block, else_block, span=self.span(if_tok, (else_block or then_block).span))

    def parse_while(self) -> While:
        open_tok = self.expect("ANNOT_OPEN")
        self.expect("loop")
        self.expect("invariant")
        invariant = self.parse_expr()
        self.expect(";")
        self.expect("ANNOT_CLOSE")
        self.expect("while")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        body = self.as_block(self.parse_stmt())
        return While(cond, invariant, body, span=self.span(open_tok, body.span))

    def as_block(self, s: Stmt) -> Block:
        return s if isinstance(s, Block) else Block([s], span=s.span)

    # -- expressions ---------------------------------------------------------

    def parse_expr(self, min_prec: int = 1) -> Expr:
        """Precedence climbing over ``BINARY_OPS``; every level is left-associative."""
        left = self.parse_unary()
        while True:
            tok = self.peek()
            op = BINARY_OPS.get(tok.kind)
            if op is None or op.prec < min_prec:
                return left
            self.take()
            right = self.parse_expr(op.prec + 1)
            left = Binary(tok.kind, left, right, span=self.span(left.span, right.span))

    def parse_unary(self) -> Expr:
        tok = self.peek()
        if self.at("-", "!"):
            self.take()
            arg = self.parse_unary()
            return (Neg if tok.kind == "-" else Not)(arg, span=self.span(tok, arg.span))
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        tok = self.peek()
        if self.at("INT"):
            self.take()
            return IntLit(int(tok.value), span=self.span(tok))
        if self.at("true", "false"):
            self.take()
            return BoolLit(tok.kind == "true", span=self.span(tok))
        if self.at("RESULT"):
            self.take()
            return ResultSym(span=self.span(tok))
        if self.at("OLD"):
            self.take()
            self.expect("(")
            name = self.expect("IDENT")
            close = self.expect(")")
            return OldSym(name.value, span=self.span(tok, close))
        if self.at("("):
            self.take()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if self.at("IDENT"):
            name = self.take()
            if self.at("("):
                self.take()
                args: list[Expr] = []
                if not self.at(")"):
                    while True:
                        args.append(self.parse_expr())
                        if not self.at(","):
                            break
                        self.take()
                close = self.expect(")")
                return CallExpr(name.value, args, span=self.span(name, close))
            return Var(name.value, span=self.span(name))
        raise MclSyntaxError(
            f"expected expression, found {tok.value or 'end of input'!r}",
            tok.line,
            tok.col,
            expected=("INT", "IDENT", "true", "false", "(", "!", "-"),
        )


def parse(text: str, filename: str = "<input>") -> Program:
    """Parse MCL source into a Program.  Raises MclSyntaxError on bad input."""
    parser = _Parser(tokenize(text, filename), filename)
    return parser.parse_program(text)
