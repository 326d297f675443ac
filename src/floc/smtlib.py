"""The external backend: SMT-LIB2 emission and a prover subprocess.

``emit_smtlib`` writes a query as one closed sentence over unbounded
integers, and ``decide_external`` hands it to the prover, which gives
unbounded semantics when it answers conclusively.  It lives apart from the
internal enumerator in ``floc.solvers``, which dispatches to it, so that
neither module grows past 4096 tokens: CPython's parser doubles its token
array when it fills, allocating a token for every new slot, so compiling a
module just past 4096 tokens takes about 0.3 MB more memory, and floc is
compiled from source on every fresh import.
"""

from __future__ import annotations

import os
import re

from floc.frontend.syntax import Sort
from floc.logic import (
    BIN_OPS,
    And,
    Bin,
    BoolConst,
    Formula,
    Implies,
    IntConst,
    Neg,
    Not,
    Or,
    QuantifiedQuery,
    VarRef,
    Verdict,
    _children,
)
from floc.solvers import MalformedProverOutput, ProverLaunchFailure, SolverConfig


# ---------------------------------------------------------------------------
# SMT-LIB2 emission
# ---------------------------------------------------------------------------

def _smt_expr(f: Formula, names: dict[str, str]) -> str:
    match f:
        case IntConst(value=v):
            return str(v) if v >= 0 else f"(- {-v})"
        case BoolConst(value=v):
            return "true" if v else "false"
        case VarRef(name=n):
            return names[n]
        case Neg(arg=a):
            return f"(- {_smt_expr(a, names)})"
        case Not(arg=a):
            return f"(not {_smt_expr(a, names)})"
        case And(items=items):
            return "(and " + " ".join(_smt_expr(x, names) for x in items) + ")"
        case Or(items=items):
            return "(or " + " ".join(_smt_expr(x, names) for x in items) + ")"
        case Implies(antecedent=a, consequent=b):
            return f"(=> {_smt_expr(a, names)} {_smt_expr(b, names)})"
        case Bin(op=op, left=l, right=r):
            return f"({BIN_OPS[op].smt} {_smt_expr(l, names)} {_smt_expr(r, names)})"
    raise TypeError(f"cannot emit {f!r}")


def _is_linear(f: Formula) -> bool:
    """Linear iff every multiplication has a literal operand."""
    match f:
        case Bin(op="*", left=l, right=r):
            if not (isinstance(l, IntConst) or isinstance(r, IntConst)):
                return False
            return _is_linear(l) and _is_linear(r)
        case IntConst() | BoolConst() | VarRef():
            return True
    return all(_is_linear(c) for c in _children(f))


def _sort_name(s: Sort) -> str:
    return "Int" if s is Sort.INT else "Bool"


def _binder(vs, names) -> str:
    return "(" + " ".join(f"({names[n]} {_sort_name(s)})" for n, s in vs) + ")"


def _symbols(q: QuantifiedQuery) -> dict[str, str]:
    """The SMT-LIB symbol of each variable: its name with an ``i_``, ``c_``
    or ``t_`` prefix by variable class."""
    names = {n: f"i_{n}" for n, _ in q.inputs}
    if q.placeholder is not None:
        names[q.placeholder[0]] = f"c_{q.placeholder[0]}"
    names.update({n: f"t_{n}" for n, _ in q.auxiliaries})
    return names


def emit_smtlib(q: QuantifiedQuery) -> str:
    """SMT-LIB2 script asserting the negation of the closed sentence.

    Symbols are deterministically renamed by ``_symbols``; the logic is LIA
    when every multiplication has a literal operand, NIA otherwise.
    """
    names = _symbols(q)
    sentence = _smt_expr(q.body, names)
    if q.auxiliaries:
        sentence = f"(forall {_binder(q.auxiliaries, names)} {sentence})"
    if q.placeholder is not None:
        sentence = f"(exists {_binder((q.placeholder,), names)} {sentence})"
    if q.inputs:
        sentence = f"(forall {_binder(q.inputs, names)} {sentence})"

    logic = "LIA" if _is_linear(q.body) else "NIA"
    return (
        f"(set-logic {logic})\n"
        f"(assert (not {sentence}))\n"
        f"(check-sat)\n"
        f"(get-model)\n"
    )


# ---------------------------------------------------------------------------
# External prover backend
# ---------------------------------------------------------------------------


def decide_external(q: QuantifiedQuery, cfg: SolverConfig) -> Verdict:
    """Decide ``q`` with the prover command of ``cfg`` (or ``FLOC_PROVER``)."""
    # Imported here: together they take about 0.44 MB, which every fresh
    # import of floc would pay, and only this backend runs a process.
    import shlex
    import subprocess
    import tempfile

    command = cfg.prover_command or os.environ.get("FLOC_PROVER")
    if not command:
        raise ProverLaunchFailure("no prover command configured (flag --prover or FLOC_PROVER)")
    script = emit_smtlib(q)
    with tempfile.NamedTemporaryFile("w", suffix=".smt2", delete=False) as handle:
        handle.write(script)
        path = handle.name
    try:
        try:
            proc = subprocess.run(
                [*shlex.split(command), path],
                capture_output=True,
                text=True,
                timeout=cfg.timeout,
            )
        except subprocess.TimeoutExpired:
            return Verdict.unknown("timeout")
        except (FileNotFoundError, PermissionError) as exc:
            raise ProverLaunchFailure(f"cannot run prover {command!r}: {exc}") from exc
        lines = [ln.strip() for ln in proc.stdout.splitlines() if ln.strip()]
        if not lines:
            return Verdict.unknown("resource")
        first = lines[0]
        if first == "unsat":
            return Verdict.valid()
        if first == "unknown":
            return Verdict.unknown("prover-said-unknown")
        if first == "sat":
            witness = _parse_model("\n".join(lines[1:]), q)
            return Verdict.invalid(witness)
        raise MalformedProverOutput(f"unexpected prover output {first!r}")
    finally:
        os.unlink(path)


# One constant of a get-model answer: (define-fun NAME () SORT VALUE), where
# VALUE is a numeral, a negated numeral (- n), true or false.
_DEFINE_CONST = re.compile(r"\(define-fun\s+(\S+)\s+\(\)\s+\S+\s+(?:\(\s*-\s*(\d+)\s*\)|(\d+|true|false))\s*\)")


def _parse_model(text: str, q: QuantifiedQuery) -> dict[str, int | bool]:
    """Pull assignments of the outermost universal block out of a get-model
    answer.  Tolerant: missing symbols are simply absent from the witness."""
    symbols = _symbols(q)
    wanted = {symbols[n]: n for n, _ in q.reported}
    witness: dict[str, int | bool] = {}
    for symbol, negated, value in _DEFINE_CONST.findall(text):
        if symbol not in wanted:
            continue
        if negated:
            witness[wanted[symbol]] = -int(negated)
        elif value in ("true", "false"):
            witness[wanted[symbol]] = value == "true"
        else:
            witness[wanted[symbol]] = int(value)
    return witness
