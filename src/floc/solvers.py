"""Deciding classified quantified queries.

Two backends:

* ``internal`` — an exact enumerator over the bounded domain [-B, B] for int
  variables and {false, true} for bool variables.  It is the default backend
  and the acceptance-suite backend; verdicts are exact *with respect to the
  bounded semantics* (an Invalid is a real counterexample over the box, a
  Valid is validity over the box only).
* ``external`` — SMT-LIB2 emission and a prover subprocess, giving unbounded
  semantics when the prover answers conclusively.

The internal backend compiles each query to one Python function holding the
whole loop nest: the inputs in declared order, then the placeholder, then the
auxiliaries, with the body inlined in the innermost loop.

* Hoisting.  One bottom-up pass gives each subterm a level, the position of
  the innermost loop whose variable it reads.  A subterm below its parent's
  level is bound to a local at the top of its own loop, once per distinct
  code text.  Only variables the body reads get a loop; a witness gives the
  others the first value of their domain, where the enumeration meets them.
* Skipping.  A top-level disjunct of the body (a ``==>`` antecedent counts,
  negated) that is decided above the innermost loop is tested at its own
  level; when it holds, the loops below it are skipped.
* Witness reuse.  The placeholder loop tries the last value that fit first,
  then its domain in order with that value skipped.
* Deadline.  The body never reads the clock.  Each point of the loop around
  the innermost one counts the evaluations below it (a point of a level with
  a skip test counts 1), and the clock is read once per 1024 counted
  evaluations.
* Bounded nesting.  Every ``_LIFT_EVERY``-th level of a body is bound to a
  local at its own loop, so the generated code nests few enough parentheses
  for CPython's parser however deep the body is.

Verdicts and witnesses are those of the plain enumeration of the domain
product in order, which ``tests/oracles.py`` keeps as the reference.
"""

from __future__ import annotations

import bisect
import itertools
import math
import os
import re
import shlex
import subprocess
import tempfile
import time
from dataclasses import dataclass
from typing import NamedTuple

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


@dataclass(frozen=True)
class SolverConfig:
    backend: str = "internal"  # "internal" | "external"
    prover_command: str | None = None
    bound: int = 8
    placeholder_bound: int | None = None  # defaults to bound
    timeout: float = 10.0

    def __post_init__(self):
        if self.bound < 1 or (self.placeholder_bound is not None and self.placeholder_bound < 1):
            raise ValueError("bounds must be >= 1")
        if not self.timeout > 0:  # NaN too: a NaN deadline never passes
            raise ValueError("timeout must be positive")

    @property
    def bc(self) -> int:
        return self.bound if self.placeholder_bound is None else self.placeholder_bound

    @property
    def semantics(self) -> str:
        if self.backend == "internal":
            return f"bounded[-{self.bound},{self.bound}]"
        return "unbounded(prover)"


class ProverLaunchFailure(Exception):
    pass


class MalformedProverOutput(Exception):
    pass


# ---------------------------------------------------------------------------
# Staged compilation: one loop nest per query
# ---------------------------------------------------------------------------

_CLOCK_EVERY = 1024  # counted evaluations between two reads of the clock
_MAX_NEST = 20  # CPython rejects more statically nested loops in one function
_LIFT_EVERY = 64  # levels of a body between two locals; CPython nests at most 200 parentheses


def _domain(sort: Sort, bound: int) -> tuple:
    if sort is Sort.BOOL:
        return (False, True)
    return tuple(range(-bound, bound + 1))


class _Level(NamedTuple):
    """One quantified variable of a query, as a loop of the generated nest."""

    name: str
    local: str  # loop variable in the generated code
    param: str  # parameter that carries the domain
    domain: tuple
    exists: bool  # the placeholder's loop; every other loop is universal
    reported: bool  # part of an Invalid witness


class _Timeout(Exception):
    pass


def _ticker(deadline: float):
    """The nest's clock read: 0 (the restarted count) before the deadline."""

    def tick() -> int:
        if time.monotonic() > deadline:
            raise _Timeout
        return 0

    return tick


def _promote(order: list, value) -> None:
    """Move ``value`` to the front of ``order``, a placeholder domain in retry
    order: the value tried first, then the rest of the domain in order."""
    order.remove(value)
    bisect.insort(order, order[0], lo=1)
    order[0] = value


class _Stager:
    """One bottom-up pass over a body.  ``stage`` returns a node's Python code
    and its level: the position of the innermost loop whose variable it reads
    (0 for a constant).  A subterm below its parent's level, and every subterm
    at a ``_LIFT_EVERY``-th depth, is bound once, by code text, to a local at
    the top of its own level."""

    def __init__(self, slots: dict[str, tuple[str, int]], depth: int):
        self.slots = slots  # variable name -> (local, level)
        self.lines: list[list[tuple[str, str]]] = [[] for _ in range(depth + 1)]
        self.hoisted: dict[str, str] = {}  # code text -> local
        self.used: set[int] = set()

    def lift(self, code: str, level: int) -> str:
        if code[0] != "(":  # a variable, a literal or a hoisted local
            return code
        local = self.hoisted.get(code)
        if local is None:
            local = self.hoisted[code] = f"h{len(self.hoisted)}"
            self.lines[level].append(("let", f"{local} = {code}"))
        return local

    def combine(self, staged: list[tuple[str, int]]) -> tuple[list[str], int]:
        """Operand codes of one node, and the node's level."""
        level = max(lv for _, lv in staged)
        hoisted = self.hoisted
        codes = [
            hoisted.get(code, code) if lv == level else self.lift(code, lv) for code, lv in staged
        ]
        return codes, level

    def stage(self, f: Formula, depth: int = 0) -> tuple[str, int]:
        """``depth`` is the node's distance from the root of the staged body."""
        t = type(f)
        if t is VarRef:
            local, level = self.slots[f.name]
            self.used.add(level)
            return local, level
        if t is IntConst or t is BoolConst:
            return repr(f.value), 0
        depth += 1
        if t is Bin:
            left, ll = self.stage(f.left, depth)
            right, rl = self.stage(f.right, depth)
            level = ll if ll > rl else rl
            left = self.lift(left, ll) if ll < level else self.hoisted.get(left, left)
            right = self.lift(right, rl) if rl < level else self.hoisted.get(right, right)
            code = f"({left} {f.op} {right})"  # MCL and Python spell every binary operator alike
        elif t is And or t is Or:
            # Bool constants fold away: bodies are pure and total.
            unit, zero = ("True", "False") if t is And else ("False", "True")
            staged = []
            for x in f.items:
                code, level = self.stage(x, depth)
                if code == zero:
                    return zero, 0
                if code != unit:
                    staged.append((code, level))
            if len(staged) < 2:
                return staged[0] if staged else (unit, 0)
            codes, level = self.combine(staged)
            code = "(" + (" and " if t is And else " or ").join(codes) + ")"
        elif t is Not or t is Neg:
            code, level = self.stage(f.arg, depth)
            code = f"(not {code})" if t is Not else f"(-{code})"
        elif t is Implies:
            staged = [self.stage(f.antecedent, depth), self.stage(f.consequent, depth)]
            (a, b), level = self.combine(staged)
            code = f"((not {a}) or {b})"
        else:
            raise TypeError(f"cannot compile {f!r}")
        if depth % _LIFT_EVERY == 0:
            # Each level adds at most two parentheses; a local resets the count.
            return self.lift(code, level), level
        return code, level


def _disjuncts(f: Formula):
    """Top-level disjuncts of a body as (formula, negated) pairs."""
    t = type(f)
    if t is Or:
        for x in f.items:
            yield from _disjuncts(x)
    elif t is Implies:
        yield f.antecedent, True
        yield from _disjuncts(f.consequent)
    else:
        yield f, False


def _stage_body(body: Formula, levels: list[_Level]) -> tuple[list[int], list, str]:
    """Loops to run, per-level lines and the innermost test of a body.

    A disjunct that is decided above the innermost loop becomes a skip line at
    its own level, placed right after the lets it needs."""
    stager = _Stager({lv.name: (lv.local, i) for i, lv in enumerate(levels) if i}, len(levels) - 1)
    staged = []
    for f, negated in _disjuncts(body):
        code, level = stager.stage(f)
        staged.append((f"(not {code})" if negated else code, level, len(stager.lines[level])))
    top = max(level for _, level, _ in staged)
    for code, level, mark in reversed(staged):
        if level < top:
            stager.lines[level].insert(mark, ("skip", code))
    tests = [code for code, level, _ in staged if level == top]
    test = tests[0] if len(tests) == 1 else "(" + " or ".join(tests) + ")"
    return sorted(stager.used), stager.lines, test


def _nest_source(levels: list[_Level], looped: list[int], lines, test: str) -> str:
    """Source of ``_q(*domains)``: the loop nest over ``looped`` with
    ``test`` in the innermost loop.  ``_q`` returns None when the query holds
    and the reported loop values of the first failing point otherwise;
    ``_tick`` raises ``_Timeout`` past the deadline.

    The placeholder's domain is passed as a list in retry order, the last
    value that fit first; ``_promote`` moves a newly fitting value to the
    front.  A nest that counts fewer than ``_CLOCK_EVERY`` evaluations in all
    never reads the clock."""
    groups = [[lv] for lv in looped]
    while len(groups) > _MAX_NEST:  # merge universal neighbours, outermost first
        i = next(i for i in range(len(groups) - 1)
                 if not levels[groups[i][0]].exists and not levels[groups[i + 1][0]].exists)
        groups[i : i + 2] = [groups[i] + groups[i + 1]]
    sizes = [math.prod(len(levels[lv].domain) for lv in g) for g in groups]
    skips = [any(kind == "skip" for lv in g for kind, _ in lines[lv]) for g in groups]
    weights = [sizes[-1] if gi == len(groups) - 2 else int(skips[gi]) for gi in range(len(groups))]
    reach = total = 1
    for size, weight in zip(sizes, weights):
        reach *= size
        total += reach * weight
    counted = total > _CLOCK_EVERY
    exists = next((gi for gi, g in enumerate(groups) if levels[g[0]].exists), None)
    params = [levels[lv].param for lv in looped]
    if exists is not None:
        c = levels[groups[exists][0]]
        fits = [f"if {c.local} != {c.param}[0]:", f"    _promote({c.param}, {c.local})", "break"]
    if counted:
        params.append("n=0")
    out = [f"def _q({', '.join(params)}):"]
    reported = "(" + "".join(f"{levels[lv].local}, " for lv in looped if levels[lv].reported) + ")"

    def emit(indent: str, group: list[int], skip: list[str]) -> None:
        for lv in group:
            for kind, text in lines[lv]:
                if kind == "let":
                    out.append(indent + text)
                else:
                    out.append(f"{indent}if {text}:")
                    out.extend(f"{indent}    {s}" for s in skip)

    emit("    ", [0], ["return"])
    for gi, group in enumerate(groups):
        indent = "    " * (gi + 1)
        inner = indent + "    "
        targets = ", ".join(levels[lv].local for lv in group)
        params = ", ".join(levels[lv].param for lv in group)
        source = params if len(group) == 1 else f"_product({params})"
        out.append(f"{indent}for {targets} in {source}:")
        skip = fits if gi == exists else ["continue"]
        if counted and weights[gi]:
            out += [
                f"{inner}n += {weights[gi]}",
                f"{inner}if n >= {_CLOCK_EVERY}:",
                f"{inner}    n = _tick()",
            ]
        emit(inner, group, skip)

    indent = "    " * (len(groups) + 1)
    if exists is not None and exists == len(groups) - 1:
        out += [f"{indent}if {test}:", *(f"{indent}    {s}" for s in fits)]
    elif exists is not None:
        out += [f"{indent}if not {test}:", f"{indent}    break"]
    else:
        out += [f"{indent}if not {test}:", f"{indent}    return {reported}"]
    if exists is not None:
        # A failing innermost point breaks out of every universal loop below
        # the placeholder's; finishing them all means the placeholder fits.
        for gi in range(len(groups) - 1, exists, -1):
            indent = "    " * (gi + 1)
            if gi - 1 == exists:
                out += [f"{indent}else:", *(f"{indent}    {s}" for s in fits)]
            else:
                out += [f"{indent}else:", f"{indent}    continue", f"{indent}break"]
        indent = "    " * (exists + 1)
        out += [f"{indent}else:", f"{indent}    return {reported}"]
    return "\n".join(out) + "\n"


def _enumerate(q: QuantifiedQuery, cfg: SolverConfig) -> Verdict:
    """Decide ``q`` over the bounded box with one generated loop nest."""
    variables = [(n, s, cfg.bound, False, True) for n, s in q.inputs]
    if q.placeholder is not None:
        variables.append((*q.placeholder, cfg.bc, True, False))
    variables += [(n, s, cfg.bound, False, q.placeholder is None) for n, s in q.auxiliaries]
    levels = [_Level("", "", "", (), False, False)] + [
        _Level(name, f"v{i}", f"d{i}", _domain(sort, bound), exists, reported)
        for i, (name, sort, bound, exists, reported) in enumerate(variables, 1)
    ]
    looped, lines, test = _stage_body(q.body, levels)
    code = compile(_nest_source(levels, looped, lines, test), "<query>", "exec", dont_inherit=True)
    namespace = {
        "_tick": _ticker(time.monotonic() + cfg.timeout),
        "_product": itertools.product,
        "_promote": _promote,
    }
    defined: dict = {}  # apart from the globals, so that _q and its globals form no cycle
    exec(code, namespace, defined)
    args = [list(levels[lv].domain) if levels[lv].exists else levels[lv].domain for lv in looped]
    try:
        result = defined["_q"](*args)
    except _Timeout:
        return Verdict.unknown("timeout")
    if result is None:
        return Verdict.valid()
    found = dict(zip([levels[lv].name for lv in looped if levels[lv].reported], result))
    witness = {lv.name: found.get(lv.name, lv.domain[0]) for lv in levels[1:] if lv.reported}
    return Verdict.invalid(witness)


# ---------------------------------------------------------------------------
# Internal backend
# ---------------------------------------------------------------------------


def decide(q: QuantifiedQuery, cfg: SolverConfig) -> Verdict:
    """Decide forall(i) forall(t) body, or forall(i) exists(c) forall(t) body
    when the query has a placeholder c.  Invalid carries a witness valuation
    of the outermost universal block: the inputs, and the auxiliaries too
    when there is no placeholder."""
    if cfg.backend == "external":
        return _decide_external(q, cfg)
    return _enumerate(q, cfg)


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


def emit_smtlib(q: QuantifiedQuery) -> str:
    """SMT-LIB2 script asserting the negation of the closed sentence.

    Symbols are deterministically renamed with ``i_``/``c_``/``t_`` prefixes
    by variable class; the logic is LIA when every multiplication has a
    literal operand, NIA otherwise.
    """
    names = {n: f"i_{n}" for n, _ in q.inputs}
    if q.placeholder is not None:
        names[q.placeholder[0]] = f"c_{q.placeholder[0]}"
    names.update({n: f"t_{n}" for n, _ in q.auxiliaries})

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


def _decide_external(q: QuantifiedQuery, cfg: SolverConfig) -> Verdict:
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
    wanted: dict[str, str] = {f"i_{n}": n for n, _ in q.inputs}
    if q.placeholder is None:
        wanted.update({f"t_{n}": n for n, _ in q.auxiliaries})
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
