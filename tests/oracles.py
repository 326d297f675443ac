"""Independent oracles for the solver suites.

Deliberately primitive: a tree-walking evaluator and a literal triple-nested
loop, sharing no code with the production solver (which compiles each query
to one loop nest with hoisted subterms).  ``reference_decide_universal`` and
``reference_decide_forall_exists`` are the solver's earlier per-point
enumerator, kept as the witness-exact reference: same verdicts, same
witnesses.  The reference still tries the placeholder value that fit last
first; the solver tries its domain in increasing order.  Whether some value
fits an input does not depend on the order they are tried in, so verdicts
and witnesses do not depend on it either.  ``replace_site`` and
``copy_and_mutate`` instrument a candidate the literal way, on a copy of the
function: the reference for ``gen_obligations(..., site=...)`` and the seed of
the mutation suites.
"""

from __future__ import annotations

import copy
import itertools
import random
import time

from floc.faultmodel import CandidateKind, _walk_sites
from floc.frontend.syntax import Sort, Var
from floc.logic import (
    And,
    Bin,
    BoolConst,
    Implies,
    IntConst,
    Neg,
    Not,
    Or,
    QuantifiedQuery,
    VarRef,
    Verdict,
)
from floc.normalizer import assigned_vars

I = Sort.INT
B = Sort.BOOL


def tree_eval(f, env):
    match f:
        case IntConst(value=v) | BoolConst(value=v):
            return v
        case VarRef(name=n):
            return env[n]
        case Neg(arg=x):
            return -tree_eval(x, env)
        case Not(arg=x):
            return not tree_eval(x, env)
        case Bin(op="+", left=l, right=r):
            return tree_eval(l, env) + tree_eval(r, env)
        case Bin(op="-", left=l, right=r):
            return tree_eval(l, env) - tree_eval(r, env)
        case Bin(op="*", left=l, right=r):
            return tree_eval(l, env) * tree_eval(r, env)
        case Bin(op="<", left=l, right=r):
            return tree_eval(l, env) < tree_eval(r, env)
        case Bin(op="<=", left=l, right=r):
            return tree_eval(l, env) <= tree_eval(r, env)
        case Bin(op=">", left=l, right=r):
            return tree_eval(l, env) > tree_eval(r, env)
        case Bin(op=">=", left=l, right=r):
            return tree_eval(l, env) >= tree_eval(r, env)
        case Bin(op="==", left=l, right=r):
            return tree_eval(l, env) == tree_eval(r, env)
        case Bin(op="!=", left=l, right=r):
            return tree_eval(l, env) != tree_eval(r, env)
        case And(items=xs):
            return all(tree_eval(x, env) for x in xs)
        case Or(items=xs):
            return any(tree_eval(x, env) for x in xs)
        case Implies(antecedent=a, consequent=b):
            return (not tree_eval(a, env)) or bool(tree_eval(b, env))
    raise TypeError(f"cannot evaluate {f!r}")


def _dom(sort, bound):
    return (False, True) if sort is Sort.BOOL else range(-bound, bound + 1)


def brute_force(q: QuantifiedQuery, bound: int, cbound: int) -> tuple[str, dict | None]:
    """Triple nested loop: forall inputs, exists placeholder, forall aux.
    Returns the verdict and, for Invalid, the first failing valuation of the
    outermost universal block (the inputs, plus the auxiliaries when there is
    no placeholder)."""
    in_doms = [_dom(s, bound) for _, s in q.inputs]
    aux_doms = [_dom(s, bound) for _, s in q.auxiliaries]
    in_names = [n for n, _ in q.inputs]
    aux_names = [n for n, _ in q.auxiliaries]
    if q.placeholder is None:
        for ivals in itertools.product(*in_doms):
            for tvals in itertools.product(*aux_doms):
                env = dict(zip(in_names, ivals)) | dict(zip(aux_names, tvals))
                if not tree_eval(q.body, env):
                    return "Invalid", env
        return "Valid", None
    cname, csort = q.placeholder
    for ivals in itertools.product(*in_doms):
        base = dict(zip(in_names, ivals))
        witnessed = False
        for c in _dom(csort, cbound):
            holds = True
            for tvals in itertools.product(*aux_doms):
                env = base | {cname: c} | dict(zip(aux_names, tvals))
                if not tree_eval(q.body, env):
                    holds = False
                    break
            if holds:
                witnessed = True
                break
        if not witnessed:
            return "Invalid", base
    return "Valid", None


def brute_force_decide(q: QuantifiedQuery, bound: int, cbound: int) -> str:
    return brute_force(q, bound, cbound)[0]


# -- reference enumerator ------------------------------------------------------

_TIMEOUT_CHECK_MASK = 0x3FF  # check the clock every 1024 evaluations


def _py_expr(f, names):
    match f:
        case IntConst(value=v) | BoolConst(value=v):
            return repr(v)
        case VarRef(name=n):
            return names[n]
        case Neg(arg=a):
            return f"(-{_py_expr(a, names)})"
        case Not(arg=a):
            return f"(not {_py_expr(a, names)})"
        case And(items=items):
            return "(" + " and ".join(_py_expr(x, names) for x in items) + ")"
        case Or(items=items):
            return "(" + " or ".join(_py_expr(x, names) for x in items) + ")"
        case Implies(antecedent=a, consequent=b):
            return f"((not {_py_expr(a, names)}) or {_py_expr(b, names)})"
        case Bin(op="+", left=l, right=r):
            return f"({_py_expr(l, names)} + {_py_expr(r, names)})"
        case Bin(op="-", left=l, right=r):
            return f"({_py_expr(l, names)} - {_py_expr(r, names)})"
        case Bin(op="*", left=l, right=r):
            return f"({_py_expr(l, names)} * {_py_expr(r, names)})"
        case Bin(op="<", left=l, right=r):
            return f"({_py_expr(l, names)} < {_py_expr(r, names)})"
        case Bin(op="<=", left=l, right=r):
            return f"({_py_expr(l, names)} <= {_py_expr(r, names)})"
        case Bin(op=">", left=l, right=r):
            return f"({_py_expr(l, names)} > {_py_expr(r, names)})"
        case Bin(op=">=", left=l, right=r):
            return f"({_py_expr(l, names)} >= {_py_expr(r, names)})"
        case Bin(op="==", left=l, right=r):
            return f"({_py_expr(l, names)} == {_py_expr(r, names)})"
        case Bin(op="!=", left=l, right=r):
            return f"({_py_expr(l, names)} != {_py_expr(r, names)})"
    raise TypeError(f"cannot compile {f!r}")


def _compile_body(body, var_order):
    names = {n: f"v{i}" for i, n in enumerate(var_order)}
    try:
        src = f"def _q({', '.join(names[n] for n in var_order)}):\n    return {_py_expr(body, names)}"
        ns: dict = {}
        exec(compile(src, "<query>", "exec"), {}, ns)
        return ns["_q"]
    except (RecursionError, SyntaxError, MemoryError):
        return lambda *values: tree_eval(body, dict(zip(var_order, values)))


def _domain(sort, bound):
    return (False, True) if sort is Sort.BOOL else tuple(range(-bound, bound + 1))


class _Clock:
    def __init__(self, timeout):
        self.deadline = time.monotonic() + timeout
        self.count = 0

    def expired(self):
        self.count += 1
        if self.count & _TIMEOUT_CHECK_MASK:
            return False
        return time.monotonic() > self.deadline


def reference_decide_universal(q: QuantifiedQuery, cfg) -> Verdict:
    names = [n for n, _ in q.inputs] + [n for n, _ in q.auxiliaries]
    sorts = [s for _, s in q.inputs] + [s for _, s in q.auxiliaries]
    fn = _compile_body(q.body, names)
    clock = _Clock(cfg.timeout)
    for values in itertools.product(*[_domain(s, cfg.bound) for s in sorts]):
        if clock.expired():
            return Verdict.unknown("timeout")
        if not fn(*values):
            return Verdict.invalid(dict(zip(names, values)))
    return Verdict.valid()


def reference_decide_forall_exists(q: QuantifiedQuery, cfg) -> Verdict:
    in_names = [n for n, _ in q.inputs]
    aux_names = [n for n, _ in q.auxiliaries]
    c_name, c_sort = q.placeholder
    fn = _compile_body(q.body, in_names + [c_name] + aux_names)
    in_domains = [_domain(s, cfg.bound) for _, s in q.inputs]
    aux_domains = [_domain(s, cfg.bound) for _, s in q.auxiliaries]
    c_domain = _domain(c_sort, cfg.bc)
    clock = _Clock(cfg.timeout)
    last_good = None
    for ivals in itertools.product(*in_domains):
        if clock.expired():
            return Verdict.unknown("timeout")
        candidates = c_domain
        if last_good is not None:
            candidates = (last_good, *(c for c in c_domain if c != last_good))
        found = False
        for cval in candidates:
            ok = True
            for avals in itertools.product(*aux_domains):
                if clock.expired():
                    return Verdict.unknown("timeout")
                if not fn(*ivals, cval, *avals):
                    ok = False
                    break
            if ok:
                found = True
                last_good = cval
                break
        if not found:
            return Verdict.invalid(dict(zip(in_names, ivals)))
    return Verdict.valid()


def reference_decide(q: QuantifiedQuery, cfg) -> Verdict:
    if q.placeholder is None:
        return reference_decide_universal(q, cfg)
    return reference_decide_forall_exists(q, cfg)


# -- random queries ---------------------------------------------------------------


class QueryGen:
    """Random classified queries, small enough for exhaustive cross-checks."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def term(self, names, depth):
        r = self.rng
        if depth == 0 or r.random() < 0.45:
            if names and r.random() < 0.7:
                return VarRef(r.choice(names), I)
            return IntConst(r.randint(-3, 3))
        kind = r.choice(("add", "sub", "mul", "neg"))
        if kind == "neg":
            return Neg(self.term(names, depth - 1))
        op = {"add": "+", "sub": "-", "mul": "*"}[kind]
        return Bin(op, self.term(names, depth - 1), self.term(names, depth - 1))

    def body(self, names, depth):
        r = self.rng
        if depth == 0 or r.random() < 0.4:
            op = r.choice(("<", "<=", ">", ">=", "==", "!="))
            return Bin(op, self.term(names, 1), self.term(names, 1))
        roll = r.random()
        if roll < 0.35:
            return And((self.body(names, depth - 1), self.body(names, depth - 1)))
        if roll < 0.7:
            return Or((self.body(names, depth - 1), self.body(names, depth - 1)))
        if roll < 0.9:
            return Implies(self.body(names, depth - 1), self.body(names, depth - 1))
        return Not(self.body(names, depth - 1))

    def query(self, max_total: int = 5) -> QuantifiedQuery:
        r = self.rng
        while True:
            ni, nt = r.randint(0, 3), r.randint(0, 3)
            if 1 + ni + nt <= max_total:
                break
        inputs = tuple((f"i{j}", I) for j in range(ni))
        auxes = tuple((f"t{j}", I) for j in range(nt))
        names = [n for n, _ in inputs] + ["c"] + [n for n, _ in auxes]
        return QuantifiedQuery(inputs, ("c", I), auxes, self.body(names, 2))

    def mixed_query(self, placeholder: bool, max_total: int = 5) -> QuantifiedQuery:
        """Like ``query``, with bool as well as int variables, up to three
        auxiliaries, and no placeholder unless ``placeholder``."""
        r = self.rng
        while True:
            ni, nt = r.randint(0, 3), r.randint(0, 3)
            if placeholder + ni + nt <= max_total:
                break

        def sort():
            return B if r.random() < 0.3 else I

        inputs = tuple((f"i{j}", sort()) for j in range(ni))
        auxes = tuple((f"t{j}", sort()) for j in range(nt))
        ph = ("c", sort()) if placeholder else None
        declared = inputs + ((ph,) if ph else ()) + auxes
        ints = [n for n, s in declared if s is I]
        bools = [n for n, s in declared if s is B]
        return QuantifiedQuery(inputs, ph, auxes, self.mixed_body(ints, bools, 3))

    def mixed_term(self, ints, bools, depth):
        r = self.rng
        if depth == 0 or r.random() < 0.4:
            if ints and r.random() < 0.75:
                return VarRef(r.choice(ints), I)
            return IntConst(r.randint(-3, 3))
        kind = r.choice(("add", "sub", "mul", "neg"))
        if kind == "neg":
            return Neg(self.mixed_term(ints, bools, depth - 1))
        op = {"add": "+", "sub": "-", "mul": "*"}[kind]
        left = self.mixed_term(ints, bools, depth - 1)
        return Bin(op, left, self.mixed_term(ints, bools, depth - 1))

    def mixed_body(self, ints, bools, depth):
        r = self.rng
        if depth == 0 or r.random() < 0.3:
            roll = r.random()
            if bools and roll < 0.3:
                return VarRef(r.choice(bools), B)
            if bools and roll < 0.4:
                op = r.choice(("==", "!="))
                return Bin(op, VarRef(r.choice(bools), B), self.mixed_body(ints, bools, 0))
            op = r.choice(("<", "<=", ">", ">=", "==", "!="))
            return Bin(op, self.mixed_term(ints, bools, 1), self.mixed_term(ints, bools, 1))
        roll = r.random()
        sub = lambda: self.mixed_body(ints, bools, depth - 1)  # noqa: E731
        if roll < 0.3:
            return And((sub(), sub()))
        if roll < 0.6:
            return Or((sub(), sub(), sub()) if r.random() < 0.3 else (sub(), sub()))
        if roll < 0.85:
            return Implies(sub(), sub())
        return Not(sub())

    def planner_query(self, max_total: int = 4) -> QuantifiedQuery:
        """A query whose atoms exercise the domain planner: one int variable
        under a linear term with a coefficient and constants that can lie
        outside the box; linear atoms over two and three int variables, some
        reading the placeholder next to universal variables; squares (which
        keep the box) and bool variables.  The placeholder is ``c``, an int,
        a bool or absent."""
        r = self.rng
        while True:
            ni, nt = r.randint(0, 2), r.randint(0, 2)
            ph = r.choice((I, I, B, None))
            if 0 < (ph is not None) + ni + nt <= max_total:
                break

        def sort():
            return B if r.random() < 0.25 else I

        inputs = tuple((f"i{j}", sort()) for j in range(ni))
        auxes = tuple((f"t{j}", sort()) for j in range(nt))
        placeholder = ("c", ph) if ph is not None else None
        declared = inputs + ((placeholder,) if placeholder else ()) + auxes
        ints = [n for n, s in declared if s is I]
        bools = [n for n, s in declared if s is B]
        return QuantifiedQuery(inputs, placeholder, auxes, self.planner_body(ints, bools, 3))

    def linear_term(self, x: str):
        """``a*x + k`` with ``a != 0`` in one of several spellings."""
        r = self.rng
        v = VarRef(x, I)
        a = r.choice((-3, -2, -1, 1, 2, 3))
        scaled = v if a == 1 else Neg(v) if a == -1 else Bin("*", IntConst(a), v)
        if r.random() < 0.3:
            scaled = Bin("*", v, IntConst(a))
        k = self.planner_const()
        roll = r.random()
        if roll < 0.25:
            return scaled
        if roll < 0.5:
            return Bin("+", scaled, k)
        if roll < 0.65:
            return Bin("-", k, scaled)
        if roll < 0.8:
            return Neg(Bin("+", scaled, k))
        return Bin("+", Bin("-", scaled, v), k)  # (a - 1)*x + k: cancels when a == 1

    def planner_const(self):
        """Mostly near the box, sometimes far outside it."""
        r = self.rng
        return IntConst(r.randint(-4, 4) if r.random() < 0.8 else r.randint(-12, 12))

    def planner_atom(self, ints, bools):
        r = self.rng
        if bools and (r.random() < 0.2 or not ints):
            p = VarRef(r.choice(bools), B)
            return p if r.random() < 0.5 or not ints else Bin(r.choice(("==", "!=")), p, self.planner_atom(ints, []))
        op = r.choice(("<", "<=", ">", ">=", "==", "!="))
        x = r.choice(ints)
        m = self.planner_const()
        roll = r.random()
        if roll < 0.12:
            return Bin(op, Bin("*", VarRef(x, I), VarRef(x, I)), m)
        if roll < 0.45 and len(ints) > 1:
            if "c" in ints and r.random() < 0.3:  # the placeholder next to a universal variable
                x = "c"
            others = [n for n in ints if n != x]
            y = r.choice(others)
            left = self.linear_term(x)
            if len(others) > 1 and r.random() < 0.4:
                left = Bin(r.choice(("+", "-")), left, self.linear_term(r.choice([n for n in others if n != y])))
            return Bin(op, left, self.linear_term(y)) if r.random() < 0.5 else Bin(op, self.linear_term(y), left)
        return Bin(op, self.linear_term(x), m) if r.random() < 0.6 else Bin(op, m, self.linear_term(x))

    def planner_body(self, ints, bools, depth, atom=None):
        r = self.rng
        atom = atom or self.planner_atom
        if depth == 0 or r.random() < 0.25:
            return atom(ints, bools)
        roll = r.random()
        sub = lambda: self.planner_body(ints, bools, depth - 1, atom)  # noqa: E731
        if roll < 0.3:
            return And((sub(), sub()))
        if roll < 0.6:
            return Or((sub(), sub()))
        if roll < 0.85:
            return Implies(sub(), sub())
        return Not(sub())

    def chain_query(self, placeholder: bool) -> QuantifiedQuery:
        """A query whose atoms chain int variables two and three at a time
        with unit coefficients (``x < y``, ``y == z + 1``, ``x - z >= 1``),
        so that the planner derives atoms over the outer variables; a few
        atoms read one variable, scale one by 2 (an owner so scaled keeps its
        box) or read a bool.  Four int variables, with the placeholder ``c`` among them when
        ``placeholder``."""
        r = self.rng
        ni = r.randint(1, 3) if placeholder else r.randint(1, 4)
        nt = 3 - ni if placeholder else 4 - ni
        inputs = tuple((f"i{j}", I) for j in range(ni))
        auxes = tuple((f"t{j}", I) for j in range(nt)) + ((("p", B),) if r.random() < 0.6 else ())
        ph = ("c", I) if placeholder else None
        ints = [n for n, _ in inputs] + (["c"] if placeholder else []) + [n for n, _ in auxes[:nt]]
        bools = ["p"] if len(auxes) > nt else []
        return QuantifiedQuery(inputs, ph, auxes, self.planner_body(ints, bools, 3, self.chain_atom))

    def chain_atom(self, ints, bools):
        r = self.rng
        if bools and r.random() < 0.2:
            return VarRef(bools[0], B)
        op = r.choice(("<", "<=", ">", ">=", "==", "!="))
        k = IntConst(r.randint(-3, 3))
        x, y, z = r.sample(ints, 3)
        vx, vy, vz = VarRef(x, I), VarRef(y, I), VarRef(z, I)
        roll = r.random()
        if roll < 0.15:
            return Bin(op, vx, k)
        if roll < 0.45:
            return Bin(op, vx, Bin("+", vy, k))
        if roll < 0.65:
            return Bin(op, Bin("-", vx, vy), k)
        if roll < 0.75:
            return Bin(op, Bin("+", vx, vy), k)
        if roll < 0.92:
            return Bin(op, Bin("-", vx, vz), Bin("+", vy, k))
        return Bin(op, Bin("*", IntConst(2), vx), Bin("+", vy, k))


# ---------------------------------------------------------------------------
# Copy-and-mutate instrumentation
# ---------------------------------------------------------------------------


def replace_site(nf, site_id: int, new_expr):
    """A fresh copy of the function with the site's expression swapped out.

    ``site_id`` is the 1-based candidate index; ``new_expr`` must be flat and
    of the site's sort.  The original function is untouched.
    """
    clone = copy.deepcopy(nf)
    for hits, (kind, stmt, _) in enumerate(_walk_sites(clone.body, False), 1):
        if hits != site_id:
            continue
        match kind:
            case CandidateKind.ASSIGN_RHS | CandidateKind.DECL_INIT:
                stmt.rhs = new_expr
            case CandidateKind.IF_COND | CandidateKind.WHILE_COND:
                stmt.cond = new_expr
            case CandidateKind.RETURN_EXPR:
                stmt.value = new_expr
        return clone
    raise ValueError(f"no site {site_id} in {nf.name!r}")


def copy_and_mutate(np, nf, cand):
    """The function with the candidate's site replaced by a placeholder
    variable, and that placeholder as (name, sort).  The name is ``c<id>``,
    prefixed with ``c`` while it clashes with a name the function assigns or
    with a global, function or parameter of the program."""
    taken = {g.name for g in np.globals} | {f.name for f in np.functions}
    taken |= {p.name for f in np.functions for p in f.params}
    taken |= set(assigned_vars(nf.body))
    name = f"c{cand.id}"
    while name in taken:
        name = "c" + name
    mutant = replace_site(nf, cand.id, Var(name, span=cand.span, sort=cand.sort))
    return mutant, (name, cand.sort)
