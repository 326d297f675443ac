"""Candidate error locations.

A candidate is the top-level expression of a normalized statement: an
assignment right-hand side, a declaration initializer, an if or while
condition, or a return expression.  Call assignments are excluded: a call is
an instruction boundary, not a replaceable expression (its hoisted result
variable is covered by the site that consumes it).

Candidate k stands for a fresh placeholder variable ``c<k>`` of the site's
sort: ``vcgen.gen_obligations`` with ``site`` reads the site as that variable
while it generates the obligations, and repairability of the candidate is a
question about those obligations.  The function itself is never copied or
changed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from floc.frontend.syntax import Sort, Span
from floc.normalizer import (
    CallRhs,
    LocationDescription,
    NAssign,
    NFunc,
    NIf,
    NReturn,
    NormProgram,
    NStmt,
    NWhile,
    render_location,
)


class CandidateKind(Enum):
    ASSIGN_RHS = "assign-rhs"
    DECL_INIT = "decl-init"
    IF_COND = "if-cond"
    WHILE_COND = "while-cond"
    RETURN_EXPR = "return-expr"


@dataclass(frozen=True)
class Candidate:
    id: int  # dense, 1-based, program order within the function
    kind: CandidateKind
    sort: Sort
    loop_scoped: bool
    location: LocationDescription
    span: Span
    norm_index: int


def _walk_sites(stmts: list[NStmt], in_loop: bool):
    """Yield (kind, stmt, in_loop) for each qualifying site, program order."""
    for s in stmts:
        match s:
            case NAssign(rhs=CallRhs()):
                pass  # call instruction, not an expression site
            case NAssign(declares=d, synthetic=syn):
                kind = CandidateKind.DECL_INIT if d and not syn else CandidateKind.ASSIGN_RHS
                yield kind, s, in_loop
            case NIf(then_stmts=tb, else_stmts=eb):
                yield CandidateKind.IF_COND, s, in_loop
                yield from _walk_sites(tb, in_loop)
                yield from _walk_sites(eb, in_loop)
            case NWhile(prelude=pre, body=b):
                yield from _walk_sites(pre, True)
                yield CandidateKind.WHILE_COND, s, True
                yield from _walk_sites(b, True)
            case NReturn(value=None):
                pass
            case NReturn():
                yield CandidateKind.RETURN_EXPR, s, in_loop


def _site_expr(kind: CandidateKind, stmt: NStmt):
    match kind:
        case CandidateKind.ASSIGN_RHS | CandidateKind.DECL_INIT:
            return stmt.rhs
        case CandidateKind.IF_COND | CandidateKind.WHILE_COND:
            return stmt.cond
        case CandidateKind.RETURN_EXPR:
            return stmt.value


def enumerate_candidates(np: NormProgram, nf: NFunc) -> list[Candidate]:
    """All candidate error locations of a normalized function, program order."""
    out: list[Candidate] = []
    for kind, stmt, in_loop in _walk_sites(nf.body, False):
        expr = _site_expr(kind, stmt)
        out.append(
            Candidate(
                id=len(out) + 1,
                kind=kind,
                sort=expr.sort,
                loop_scoped=in_loop,
                location=render_location(expr, np),
                span=expr.span,
                norm_index=stmt.index,
            )
        )
    return out
