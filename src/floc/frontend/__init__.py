"""MCL frontend: lexer, parser, typechecker, and concrete interpreter."""

from floc.frontend.lexer import MclSyntaxError, tokenize
from floc.frontend.parser import parse
from floc.frontend.typecheck import Diagnostic, TypeCheckError, check_program, typecheck
from floc.frontend.syntax import (
    Program,
    FunctionDef,
    GlobalDecl,
    Sort,
    Span,
    ast_equal,
    expr_text,
    function_text,
    program_text,
)

__all__ = [
    "MclSyntaxError",
    "tokenize",
    "parse",
    "Diagnostic",
    "TypeCheckError",
    "check_program",
    "typecheck",
    "ExecResult",
    "FuelExhausted",
    "PreconditionViolated",
    "Returned",
    "eval_post",
    "interpret",
    "Program",
    "FunctionDef",
    "GlobalDecl",
    "Sort",
    "Span",
    "ast_equal",
    "expr_text",
    "function_text",
    "program_text",
]

# The interpreter is a testing oracle that no analysis calls, so it is loaded
# on first use.
_INTERP = ("ExecResult", "FuelExhausted", "PreconditionViolated", "Returned", "eval_post", "interpret")


def __getattr__(name: str):
    if name in _INTERP:
        from floc.frontend import interp

        return getattr(interp, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
