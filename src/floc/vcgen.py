"""Weakest-precondition proof-obligation generation.

Obligations are produced per function over the normalized form:

* ``PostHolds`` — the flowed-back ensures requirement,
* ``LoopInvInit`` / ``LoopInvPreserved`` — one pair per loop,
* ``CalleePreHolds`` — one per call site.

An ``Obligation`` is a classified query, built once, that also carries its
id, kind and source span; ``decide`` takes it as it is.  Every obligation
body is quantifier-free with its free variables classified: function
parameters and read (mutable) globals are *inputs*; loop-havoc copies,
call-result summaries, and pre-state snapshots are *auxiliaries*; a
candidate's placeholder, when present, is its own class.  Loops are handled
by havocking the assigned frame and constraining it with the user invariant;
calls are summarized by the callee contract, never inlined.  Initialized
globals are named constants and fold to their values.

Obligations are listed in the order of the statements that owe them, the
postcondition first.  Ties keep the order in which WP discovers them: a
loop's Init before its Preserved, and a condition call's in-loop check
before its check at loop entry.

A candidate is checked without copying the function: generation reads the
placeholder variable wherever it would convert the candidate's expression.
Each candidate's pass reuses detection's WP for the statements that do not
hold its site: WP runs backward, so below the site a candidate's pass carries
the very formulas detection carried, and detection's record of each such
statement is keyed by the statement and the identities of those formulas.

Obligation bodies are built with the literal-only folding constructors from
the logic module, so a placeholder variable is never rewritten or erased on
the way to the prover.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from floc.faultmodel import Candidate
from floc.frontend.syntax import (
    Binary,
    BoolLit,
    Expr,
    IntLit,
    Neg,
    Not,
    OldSym,
    ResultSym,
    Sort,
    Span,
    Var,
)
from floc.logic import (
    Bin,
    BoolConst,
    Formula,
    IntConst,
    QuantifiedQuery,
    TRUE,
    UnclassifiedVariable,
    VarRef,
    f_and,
    f_bin,
    f_implies,
    f_neg,
    f_not,
    f_or,
    free_vars,
    substitute,
)
from floc.normalizer import (
    CallRhs,
    NAssign,
    NFunc,
    NIf,
    NormProgram,
    NReturn,
    NStmt,
    NWhile,
    assigned_vars,
)


class ObligationKind(Enum):
    POST = "PostHolds"
    LOOP_INIT = "LoopInvInit"
    LOOP_PRESERVED = "LoopInvPreserved"
    CALLEE_PRE = "CalleePreHolds"


@dataclass(frozen=True)
class Obligation(QuantifiedQuery):
    """A proof obligation: its classified query, named and placed."""

    id: str
    kind: ObligationKind
    span: Span


class NonPureCallee(Exception):
    pass


@dataclass
class _PendingMeta:
    kind: ObligationKind
    span: Span
    norm_index: int


class _VcGen:
    """WP generation for one function.  It keeps no sort table: every
    variable's sort is read off the typed node that mentions it, and a havoc
    copy takes the sort that ``assigned_vars`` reads off the assignment."""

    def __init__(
        self,
        np: NormProgram,
        nf: NFunc,
        site: Candidate | None,
        shared: dict | None,
    ):
        self.np = np
        self.shared = shared
        self.nf = nf
        self.functions = {f.name: f for f in np.functions}
        self.consts: dict[str, Formula] = {
            g.name: BoolConst(g.init.value) if isinstance(g.init, BoolLit) else IntConst(g.init.value)
            for g in np.globals
            if g.init is not None
        }
        self.aux: dict[str, Sort] = {}
        self.taken = (
            {p.name for p in nf.params}
            | {g.name for g in np.globals}
            | set(assigned_vars(nf.body))
            | set(self.functions)
        )
        self.site_index = None if site is None else site.norm_index
        self.holds = set() if shared is None or site is None else _holding(nf.body, site.norm_index)
        self.placeholder = None
        if site is not None:
            params = {p.name for f in np.functions for p in f.params}
            name = f"c{site.id}"
            while name in self.taken or name in params:
                name = "c" + name
            self.placeholder = (name, site.sort)
            self.taken.add(name)
        self.old_snaps: dict[str, VarRef] = {}

    def fresh_aux(self, base: str, sort: Sort) -> str:
        name = base
        k = 1
        while name in self.taken or name in self.aux:
            k += 1
            name = f"{base}{k}"
        self.aux[name] = sort
        return name

    # -- expression conversion ---------------------------------------------

    def formula(
        self,
        e: Expr,
        result: Formula | None = None,
        formals: dict[str, Formula] | None = None,
    ) -> Formula:
        """Convert an expression.  With ``formals`` it is a callee's contract
        clause: a pure callee writes no global, so its ``\\old`` is current."""
        match e:
            case IntLit(value=v):
                return IntConst(v)
            case BoolLit(value=v):
                return BoolConst(v)
            case Var(name=n) if formals is not None and n in formals:
                return formals[n]
            case Var(name=n) | OldSym(name=n) if n in self.consts:
                return self.consts[n]
            case Var(name=n):
                assert e.sort is not None, f"unsorted variable {n!r}"
                return VarRef(n, e.sort)
            case ResultSym():
                assert result is not None, "\\result outside an ensures context"
                return result
            case OldSym(name=n):
                if formals is not None:
                    return VarRef(n, e.sort)
                if n not in self.old_snaps:
                    self.old_snaps[n] = VarRef(self.fresh_aux(f"{n}_old", e.sort), e.sort)
                return self.old_snaps[n]
            case Neg(arg=a):
                return f_neg(self.formula(a, result, formals))
            case Not(arg=a):
                return f_not(self.formula(a, result, formals))
            case Binary(op=op, left=l, right=r):
                a = self.formula(l, result, formals)
                b = self.formula(r, result, formals)
                if op == "&&":
                    return f_and(a, b)
                if op == "||":
                    return f_or(a, b)
                return f_bin(op, a, b)  # the other op texts are the keys of BIN_OPS
        raise TypeError(f"cannot convert {e!r} to a formula")

    def site_formula(self, s: NStmt, e: Expr) -> Formula:
        """The formula of a statement's own expression; the placeholder at the site."""
        if s.index == self.site_index:
            return VarRef(*self.placeholder)
        return self.formula(e)

    def ensures_formula(self, result: Formula | None) -> Formula:
        return f_and(*[self.formula(e, result=result) for e in self.nf.ensures])

    def contract(self, call: CallRhs, result: Formula) -> tuple[Formula, Formula]:
        """The callee's requires and ensures at a call, with its parameters
        bound to the arguments and ``\\result`` to ``result``."""
        callee = self.functions[call.name]
        if not callee.pure:
            raise NonPureCallee(call.name)
        formals = {p.name: self.formula(a) for p, a in zip(callee.params, call.args)}
        requires = f_and(*[self.formula(e, formals=formals) for e in callee.requires])
        ensures = f_and(*[self.formula(e, result, formals) for e in callee.ensures])
        return requires, ensures

    # -- WP over statements --------------------------------------------------
    #
    # wp_stmts flows a list of "carried" formulas backward.  Slot 0 is the
    # surrounding continuation; slots appended along the way are the bodies of
    # proof obligations discovered further down, which must keep being pulled
    # back to function entry.  The returned metadata aligns with the slots
    # appended beyond the incoming length.

    def wp_stmts(self, stmts: list[NStmt], carried: list[Formula]) -> tuple[list[Formula], list[_PendingMeta]]:
        metas: list[_PendingMeta] = []
        for s in reversed(stmts):
            carried, ms = self.reuse(s, carried)
            metas.extend(ms)
        return carried, metas

    def reuse(self, s: NStmt, carried: list[Formula]) -> tuple[list[Formula], list[_PendingMeta]]:
        """``wp_stmt(s, carried)``, shared across the passes of one function.

        The detection pass records the result, keyed by ``s`` and the ids of
        the ``carried`` formulas, which the record keeps alive, with the
        auxiliaries and ``\\old`` snapshots that ``wp_stmt`` created.  Below
        its site, a candidate's pass meets the same formulas, and for a
        statement that does not hold the site it replays the record: the same
        result, and the same auxiliaries created in the same order."""
        if self.shared is None or s in self.holds:
            return self.wp_stmt(s, carried)
        key = (s, *map(id, carried))
        if self.site_index is None:
            n, m = len(self.aux), len(self.old_snaps)
            out = self.wp_stmt(s, carried)
            self.shared[key] = carried, out, [*self.aux.items()][n:], [*self.old_snaps.items()][m:]
            return out
        if key not in self.shared:
            return self.wp_stmt(s, carried)
        _, out, aux, snaps = self.shared[key]
        self.aux.update(aux)
        self.old_snaps.update(snaps)
        return out

    def wp_stmt(self, s: NStmt, carried: list[Formula]) -> tuple[list[Formula], list[_PendingMeta]]:
        match s:
            case NAssign(target=t, rhs=CallRhs() as call):
                sort = self.functions[call.name].return_sort
                ret = VarRef(self.fresh_aux(f"{call.name}_ret", sort), sort)
                pre, summary = self.contract(call, ret)
                sub = {t: ret}
                out = [f if (g := substitute(f, sub)) is f else f_implies(summary, g) for f in carried]
                return out + [pre], [_PendingMeta(ObligationKind.CALLEE_PRE, s.span, s.index)]
            case NAssign(target=t, rhs=rhs):
                sub = {t: self.site_formula(s, rhs)}
                return [substitute(f, sub) for f in carried], []
            case NIf(cond=c, then_stmts=tb, else_stmts=eb):
                b = self.site_formula(s, c)
                n = len(carried)
                t_car, t_metas = self.wp_stmts(tb, carried)
                e_car, e_metas = self.wp_stmts(eb, carried)
                merged = [
                    f_and(f_implies(b, t_car[i]), f_implies(f_not(b), e_car[i]))
                    for i in range(n)
                ]
                t_extra = [f_implies(b, x) for x in t_car[n:]]
                e_extra = [f_implies(f_not(b), x) for x in e_car[n:]]
                return merged + t_extra + e_extra, t_metas + e_metas
            case NWhile():
                return self.wp_while(s, carried)
            case NReturn(value=e):
                result = None if e is None else self.site_formula(s, e)
                post = self.ensures_formula(result)
                return [post] + [TRUE] * (len(carried) - 1), []
        raise TypeError(f"no WP rule for {s!r}")

    def wp_while(self, s: NWhile, carried: list[Formula]) -> tuple[list[Formula], list[_PendingMeta]]:
        inv = self.formula(s.invariant)
        cond = self.site_formula(s, s.cond)
        defs = [self.prelude_def(p) for p in s.prelude]

        frame = assigned_vars(list(s.body) + list(s.prelude))
        rename: dict[str, Formula] = {v: VarRef(self.fresh_aux(f"{v}_h", srt), srt) for v, srt in frame.items()}

        def rn(f: Formula) -> Formula:
            return substitute(f, rename)

        body_car, body_metas = self.wp_stmts(list(s.body) + list(s.prelude), [inv])
        iter_state = rn(f_and(inv, *defs, cond))
        preserved = f_implies(iter_state, rn(body_car[0]))
        nested = [f_implies(iter_state, rn(x)) for x in body_car[1:]]

        exit_state = rn(f_and(inv, *defs, f_not(cond)))
        out = [f_and(inv, f_implies(exit_state, rn(f))) for f in carried]

        # Calls in the condition prelude are also evaluated once at loop
        # entry; their preconditions must hold there too (the per-iteration
        # evaluations are covered by the body pass above, under havoc).
        entry_slots, entry_metas = self.wp_stmts(list(s.prelude), [])

        init_meta = _PendingMeta(ObligationKind.LOOP_INIT, s.span, s.index)
        pres_meta = _PendingMeta(ObligationKind.LOOP_PRESERVED, s.span, s.index)
        return (
            out + [inv, preserved] + nested + entry_slots,
            [init_meta, pres_meta] + body_metas + entry_metas,
        )

    def prelude_def(self, p: NAssign) -> Formula:
        """Fact that holds at every loop-head test: the temp carries its defining value."""
        target = VarRef(p.target, p.decl_sort)
        if isinstance(p.rhs, CallRhs):
            return self.contract(p.rhs, target)[1]
        return Bin("==", target, self.site_formula(p, p.rhs))

    # -- assembly ---------------------------------------------------------------

    def run(self) -> list[Obligation]:
        if self.nf.return_sort is Sort.VOID:
            seed = self.ensures_formula(None)
            if self.shared is not None:  # detection's own formula, whose records a candidate's pass reads
                seed = self.shared.setdefault("seed", seed)
        else:
            seed = TRUE  # non-void bodies return on every path
        carried, metas = self.wp_stmts(self.nf.body, [seed])

        requires = f_and(*[self.formula(e) for e in self.nf.requires])
        snapshots = [Bin("==", snap, VarRef(g, snap.var_sort)) for g, snap in self.old_snaps.items()]
        antecedent = f_and(requires, *snapshots)

        entries = [(_PendingMeta(ObligationKind.POST, self.nf.span, -1), carried[0])]
        entries += zip(metas, carried[1:])
        entries.sort(key=lambda entry: entry[0].norm_index)  # stable: ties keep discovery order

        obligations = []
        counters: dict[ObligationKind, int] = {}
        for meta, slot in entries:
            k = counters.get(meta.kind, 0)
            counters[meta.kind] = k + 1
            ob_id = f"{self.nf.name}:{meta.kind.value}:{k}"
            obligations.append(self.classify(f_implies(antecedent, slot), ob_id, meta.kind, meta.span))
        return obligations

    def classify(self, body: Formula, ob_id: str, kind: ObligationKind, span: Span) -> Obligation:
        free = free_vars(body)
        ph = None
        if self.placeholder is not None and self.placeholder[0] in free:
            ph = self.placeholder
        inputs = [(p.name, p.sort) for p in self.nf.params if p.name in free]
        inputs += [
            (g.name, g.sort) for g in self.np.globals if g.init is None and g.name in free
        ]
        auxes = [(n, s) for n, s in self.aux.items() if n in free]
        covered = {n for n, _ in inputs} | {n for n, _ in auxes} | ({ph[0]} if ph else set())
        for name in free:
            if name not in covered:
                raise UnclassifiedVariable(name)
        return Obligation(tuple(inputs), ph, tuple(auxes), body, ob_id, kind, span)


def _holding(stmts: list[NStmt], index: int) -> set[NStmt]:
    """The statement at ``index`` and the statements that contain it; empty
    when no statement has that index."""
    for s in stmts:
        if s.index == index:
            return {s}
        if isinstance(s, NIf):
            found = _holding(s.then_stmts + s.else_stmts, index)
        elif isinstance(s, NWhile):
            found = _holding(s.prelude + s.body, index)
        else:
            continue
        if found:
            return found | {s}
    return set()


def gen_obligations(
    np: NormProgram,
    nf: NFunc,
    site: Candidate | None = None,
    shared: dict | None = None,
) -> list[Obligation]:
    """Generate the proof obligations of one normalized function.

    Deterministic: identical input yields identical ids, order, and formulas.
    With ``site``, the candidate's expression is read as a fresh placeholder
    variable ``c<id>`` of the candidate's sort (prefixed with ``c`` until no
    variable, function or parameter of the program has that name).  The
    placeholder is classified separately and attached to each obligation in
    whose body it occurs free.

    ``shared`` is state shared by the passes over one function, created
    empty by the caller: the detection pass (no ``site``) fills it, and each
    candidate's pass then reuses detection's WP for every statement that
    does not hold its site.  It holds two kinds of entry: under ``"seed"``,
    a void function's postcondition as detection built it, so that every
    pass starts from the same formula; and under ``(stmt, *ids)`` the record
    of one statement (see ``_VcGen.reuse``).  The obligations are the same
    with it or without it.
    """
    return _VcGen(np, nf, site, shared).run()
