"""Deciding classified quantified queries.

Two backends:

* ``internal`` — an exact enumerator over the bounded domain [-B, B] for int
  variables and {false, true} for bool variables.  It is the default backend
  and the acceptance-suite backend; verdicts are exact *with respect to the
  bounded semantics* (an Invalid is a real counterexample over the box, a
  Valid is validity over the box only).
* ``external`` — SMT-LIB2 emission and a prover subprocess
  (``floc.smtlib``), giving unbounded semantics when the prover answers
  conclusively.

The internal backend compiles each query to one Python function holding the
whole loop nest: the inputs in declared order, then the placeholder, then the
auxiliaries, with the body inlined in the innermost loop.

* First point.  Before staging, the body is evaluated once at the first
  point of the box: every input and auxiliary at the first value of its box
  (``-B`` or false), the placeholder unknown.  The evaluation is
  three-valued: an ``and`` (``or``) is false (true) when a known item is,
  ``==>`` is true when its antecedent is false or its consequent true, and
  any other operator with an unknown operand is unknown.  A body false there
  is false at that point whatever the placeholder.  Every domain of the nest
  (planned, built or the box) starts with its box's first value, so the
  nest meets that point first: without a placeholder it is the first
  innermost point, and with one, every placeholder value fails at it, so the
  first input fails.  No skip test holds there, since each is a disjunct of
  the body.  The nest would return Invalid with that point's inputs, plus
  the auxiliaries when there is no placeholder, as its witness, and that is
  returned without a nest.  A closed body (no inputs, auxiliaries or
  placeholder) is decided by its value, as its nest of no loops would be.
  Every other query goes on to its nest.
* Hoisting.  One bottom-up pass gives each subterm a level, the position of
  the innermost loop whose variable it reads.  A subterm below its parent's
  level is bound to a local at the top of its own loop, once per distinct
  code text.  Only variables the body reads get a loop; a witness gives the
  others the first value of their domain, where the enumeration meets them.
* Skipping.  A top-level disjunct of the body (a ``==>`` antecedent counts,
  negated) that is decided above the innermost loop is tested at its own
  level; when it holds, the loops below it are skipped.
* Deadline.  The timeout runs from the start of staging, and the clock is
  read once before the nest runs.  A query the first point decides reads no
  clock.  The body never reads it.  Each point of the loop around the
  innermost one counts the evaluations below it (a point of a level with a
  skip test counts 1), and the clock is read once per 1024 counted
  evaluations.  An innermost loop of more than 1024 values counts and
  reads the clock itself, so a huge box cannot run to its end first.
* Bounded nesting.  Every ``_LIFT_EVERY``-th level of a body is bound to a
  local at its own loop, so the generated code nests few enough parentheses
  for CPython's parser however deep the body is.
* Domains.  ``floc.domains.plan`` gives each int loop its domain from the
  comparisons (*atoms*) of the body, which the stager records as it stages
  them, and ``floc.domains`` says how.  The placeholder is planned like any
  other variable, over its box ``[-bc, bc]``.
* Built domains.  A domain that reads outer variables is Python code over
  their loop variables.  The nest builds it once per point of the innermost
  loop it reads, at the end of that loop's lines, and keeps the values that
  lie in its box.  Clock weights count a built domain at its box size, an
  upper bound.

Verdicts and witnesses are those of the plain enumeration of the box in
order, which ``tests/oracles.py`` keeps as the reference.  Owners, runs and
derived atoms are those of ``floc.domains``.  Fix the values of the loops
outside a planned ``x`` and let ``x`` run over its box.  What the loops from
``x`` inward do is fixed by what they see: the values of each domain, in
order, and the truth value of each atom at each point.  An atom
seen there either does not read ``x``, or is owned by ``x``, or is owned by
a loop ``y`` inside ``x`` that pushed its view out: ``y``'s points are affine,
and their order, their box membership and the truth values of ``y``'s atoms
at them are signs of affine forms, whose equations are derived atoms owned
by ``x`` or by a loop between them.  So, by induction from the innermost
loop, the loops from ``x`` inward take the same path at every value of a run
of ``x``'s atoms, derived ones included, and ``x``'s domain holds the least
value of every such run.  A quantifier over ``x`` therefore holds over the
box exactly when it holds over the domain, and a failing point (an input
tuple, for a query with a placeholder) whose ``x`` is not the least of its
run has a failing predecessor with the same prefix.  The lexicographically
first failing point of the box therefore lies in the planned domains, and
the nest, which enumerates them in increasing order, finds that same point
first.  A nest of more than ``MAX_NEST`` loops is not planned: every loop
runs over its box, and ``_nest_source`` merges universal neighbours into
``_product`` loops.
"""

from __future__ import annotations

import itertools
import math
import time
from typing import Iterable, Sequence

from floc.domains import COMPARISONS, Built, box, plan
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
)
from floc.node import Frozen


class SolverConfig(Frozen):
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
    """The external prover could not be run."""


class MalformedProverOutput(Exception):
    """The external prover answered something other than sat, unsat or unknown."""


# ---------------------------------------------------------------------------
# Staged compilation: one loop nest per query
# ---------------------------------------------------------------------------

_CLOCK_EVERY = 1024  # counted evaluations between two reads of the clock
_LIFT_EVERY = 64  # levels of a body between two locals; CPython nests at most 200 parentheses
MAX_NEST = 20  # CPython rejects more statically nested loops in one function


class _Level(Frozen):
    """One quantified variable of a query, as a loop of the generated nest."""

    name: str
    local: str  # loop variable in the generated code
    param: str  # parameter that carries the domain
    domain: Sequence  # values in increasing order
    exists: bool  # the placeholder's loop; every other loop is universal
    reported: bool  # part of an Invalid witness
    built: Built | None = None  # a domain the nest builds; ``domain`` is then the box


class _Timeout(Exception):
    pass


def _ticker(deadline: float):
    """The nest's clock read: 0 (the restarted count) before the deadline."""

    def tick() -> int:
        if time.monotonic() > deadline:
            raise _Timeout
        return 0

    return tick


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
        self.atoms: dict[str, Bin] = {}  # code text -> a comparison staged with it

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
            if f.op in COMPARISONS:
                self.atoms[code] = f
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


def _stage_body(body: Formula, names: list[str]) -> tuple[list[int], list, str, Iterable[Bin]]:
    """Loops to run, per-level lines, the innermost test and the atoms of a
    body over the variables ``names``, whose loop variables are ``v1``,
    ``v2``, ... in that order.

    A disjunct that is decided above the innermost loop becomes a skip line at
    its own level, placed right after the lets it needs."""
    stager = _Stager({name: (f"v{i}", i) for i, name in enumerate(names, 1)}, len(names))
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
    return sorted(stager.used), stager.lines, test, stager.atoms.values()


def _nest_source(levels: list[_Level], looped: list[int], lines, test: str) -> str:
    """Source of ``_q(*domains)``: the loop nest over ``looped`` with
    ``test`` in the innermost loop.  ``_q`` returns None when the query holds
    and the reported loop values of the first failing point otherwise;
    ``_tick`` raises ``_Timeout`` past the deadline.

    A level's ``built`` domain is computed at the end of the lines of the
    level it reads, into ``e<level>``, from its points that lie in its box,
    which is still passed.  A nest of more than ``MAX_NEST`` loops, which has
    no built level, merges universal neighbours, outermost first, into
    ``_product`` loops.  A nest that counts fewer than ``_CLOCK_EVERY``
    evaluations in all never reads the clock."""
    built = {lv: levels[lv].built for lv in looped if levels[lv].built}
    groups = [[lv] for lv in looped]
    while len(groups) > MAX_NEST:  # merge universal neighbours, outermost first
        i = next(i for i in range(len(groups) - 1)
                 if not levels[groups[i][0]].exists and not levels[groups[i + 1][0]].exists)
        groups[i : i + 2] = [groups[i] + groups[i + 1]]
    sizes = [math.prod(len(levels[lv].domain) for lv in g) for g in groups]
    skips = [any(kind == "skip" for lv in g for kind, _ in lines[lv]) for g in groups]
    weights = [int(skip) for skip in skips]
    if sizes and sizes[-1] > _CLOCK_EVERY:  # count in the innermost loop itself
        weights[-1] = 1
    elif len(groups) > 1:
        weights[-2] = sizes[-1]
    reach = total = 1
    for size, weight in zip(sizes, weights):
        reach *= size
        total += reach * weight
    counted = total > _CLOCK_EVERY
    exists = next((gi for gi, g in enumerate(groups) if levels[g[0]].exists), None)
    params = [levels[lv].param for lv in looped]
    if counted:
        params.append("n=0")
    out = [f"def _q({', '.join(params)}):"]
    reported = "(" + "".join(f"{levels[lv].local}, " for lv in looped if levels[lv].reported) + ")"

    def emit(indent: str, group: list[int], skip: str) -> None:
        for lv in group:
            for kind, text in lines[lv]:
                if kind == "let":
                    out.append(indent + text)
                else:
                    out.extend((f"{indent}if {text}:", f"{indent}    {skip}"))
            out.extend(
                f"{indent}e{d} = sorted(filter({levels[d].param}.__contains__, {domain.points}))"
                for d, domain in built.items()
                if domain.level == lv
            )

    emit("    ", [0], "return")
    for gi, group in enumerate(groups):
        indent = "    " * (gi + 1)
        inner = indent + "    "
        targets = ", ".join(levels[lv].local for lv in group)
        params = ", ".join(f"e{lv}" if lv in built else levels[lv].param for lv in group)
        source = params if len(group) == 1 else f"_product({params})"
        out.append(f"{indent}for {targets} in {source}:")
        if counted and weights[gi]:
            out += [
                f"{inner}n += {weights[gi]}",
                f"{inner}if n >= {_CLOCK_EVERY}:",
                f"{inner}    n = _tick()",
            ]
        emit(inner, group, "break" if gi == exists else "continue")

    indent = "    " * (len(groups) + 1)
    if exists is not None and exists == len(groups) - 1:
        out += [f"{indent}if {test}:", f"{indent}    break"]
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
                out += [f"{indent}else:", f"{indent}    break"]
            else:
                out += [f"{indent}else:", f"{indent}    continue", f"{indent}break"]
        indent = "    " * (exists + 1)
        out += [f"{indent}else:", f"{indent}    return {reported}"]
    return "\n".join(out) + "\n"


def _value(f: Formula, env: dict):
    """The value of ``f`` where each variable of ``env`` holds its value, or
    None when it may depend on a variable ``env`` lacks."""
    t = type(f)
    if t is VarRef:
        return env.get(f.name)
    if t is IntConst or t is BoolConst:
        return f.value
    if t is Bin:
        left = _value(f.left, env)
        right = None if left is None else _value(f.right, env)
        return None if right is None else BIN_OPS[f.op].fn(left, right)
    if t is And or t is Or:
        zero = t is Or  # the item value that decides the node
        value = not zero
        for x in f.items:
            v = _value(x, env)
            if v is None:
                value = None
            elif v is zero:
                return zero
        return value
    if t is Not or t is Neg:
        v = _value(f.arg, env)
        return None if v is None else (not v) if t is Not else -v
    if t is Implies:
        a = _value(f.antecedent, env)
        if a is False:
            return True
        b = _value(f.consequent, env)
        return b if a is True or b is True else None
    raise TypeError(f"cannot evaluate {f!r}")


def _first_point(q: QuantifiedQuery, cfg: SolverConfig) -> Verdict | None:
    """The verdict of ``q`` when its body fails at the first point of the box,
    whatever the placeholder, or when it reads no variable; None otherwise."""
    env = {name: box(sort, cfg.bound)[0] for name, sort in (*q.inputs, *q.auxiliaries)}
    value = _value(q.body, env)
    if value is False:
        return Verdict.invalid({name: env[name] for name, _ in q.reported})
    if value is True and not env and q.placeholder is None:  # a closed body
        return Verdict.valid()
    return None


def _enumerate(q: QuantifiedQuery, cfg: SolverConfig) -> Verdict:
    """Decide ``q`` over the bounded box with one generated loop nest, unless
    its first point decides it."""
    verdict = _first_point(q, cfg)
    if verdict is not None:
        return verdict
    tick = _ticker(time.monotonic() + cfg.timeout)
    variables = [(n, s, cfg.bound, False) for n, s in q.inputs]
    if q.placeholder is not None:
        variables.append((*q.placeholder, cfg.bc, True))
    variables += [(n, s, cfg.bound, False) for n, s in q.auxiliaries]
    reported = {name for name, _ in q.reported}
    looped, lines, test, atoms = _stage_body(q.body, [name for name, *_ in variables])
    loops = {variables[lv - 1][0]: (f"v{lv}", lv) for lv in looped}
    boxes = {name: bound for name, sort, bound, *_ in variables if sort is Sort.INT and name in loops}
    domains = plan(atoms, loops, boxes) if len(loops) <= MAX_NEST else {}
    levels = [_Level("", "", "", (), False, False)]
    for i, (name, sort, bound, exists) in enumerate(variables, 1):
        domain = domains.get(name) or box(sort, bound)
        built = domain if type(domain) is Built else None
        levels.append(_Level(name, f"v{i}", f"d{i}", box(sort, bound) if built else domain, exists, name in reported, built))
    code = compile(_nest_source(levels, looped, lines, test), "<query>", "exec", dont_inherit=True)
    namespace = {"_tick": tick, "_product": itertools.product}
    defined: dict = {}  # apart from the globals, so that _q and its globals form no cycle
    exec(code, namespace, defined)
    args = [levels[lv].domain for lv in looped]
    try:
        tick()
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
        from floc.smtlib import decide_external  # loaded only when asked for

        return decide_external(q, cfg)
    return _enumerate(q, cfg)
