"""Weakest-precondition proof-obligation generation.

Obligations are produced per function over the normalized form:

* ``PostHolds`` — the flowed-back ensures requirement,
* ``LoopInvInit`` / ``LoopInvPreserved`` — one pair per loop,
* ``CalleePreHolds`` — one per call site.

Every obligation body is quantifier-free with its free variables classified:
function parameters and read (mutable) globals are *inputs*; loop-havoc
copies, call-result summaries, and pre-state snapshots are *auxiliaries*; a
candidate's placeholder, when present, is its own class.  Loops are handled
by havocking the assigned frame and constraining it with the user invariant;
calls are summarized by the callee contract, never inlined.  Initialized
globals are named constants and fold to their values.

A candidate is checked without copying the function: generation reads the
placeholder variable wherever it would convert the candidate's expression.

Obligation bodies are built with the literal-only folding constructors from
the logic module, so a placeholder variable is never rewritten or erased on
the way to the prover.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from floc.faultmodel import Candidate
from floc.frontend.syntax import (
    Add,
    And,
    BoolLit,
    Cmp,
    Expr,
    IntLit,
    Mul,
    Neg,
    Not,
    OldSym,
    Or,
    ResultSym,
    Sort,
    Span,
    Sub,
    Var,
)
from floc.logic import (
    Bin,
    BoolConst,
    Formula,
    IntConst,
    QuantifiedQuery,
    SortedVars,
    TRUE,
    UnclassifiedVariable,
    VarRef,
    build_query,
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


_KIND_RANK = {
    ObligationKind.LOOP_INIT: 0,
    ObligationKind.LOOP_PRESERVED: 1,
    ObligationKind.CALLEE_PRE: 0,
}


@dataclass(frozen=True)
class Obligation:
    id: str
    kind: ObligationKind
    body: Formula
    inputs: SortedVars
    auxiliaries: SortedVars
    placeholder: tuple[str, Sort] | None
    span: Span
    function: str

    def query(self) -> QuantifiedQuery:
        return build_query(self.body, self.inputs, self.placeholder, self.auxiliaries)


class NonPureCallee(Exception):
    pass


@dataclass
class _PendingMeta:
    kind: ObligationKind
    span: Span
    norm_index: int
    seq: int


class _VcGen:
    def __init__(
        self,
        np: NormProgram,
        nf: NFunc,
        placeholder: tuple[str, Sort] | None,
        site: Candidate | None,
    ):
        self.np = np
        self.nf = nf
        self.functions = {f.name: f for f in np.functions}
        self.consts: dict[str, int | bool] = {
            g.name: g.init.value for g in np.globals if g.init is not None
        }
        self.global_sorts = {g.name: g.sort for g in np.globals if g.init is None}
        self.param_sorts = {p.name: p.sort for p in nf.params}
        self.var_sorts = dict(self.param_sorts)
        self.var_sorts.update(self.global_sorts)
        self._collect_decl_sorts(nf.body)
        self.aux: dict[str, Sort] = {}
        self.taken = set(self.var_sorts) | set(self.consts) | set(self.functions)
        self.site_index = None if site is None else site.norm_index
        if site is not None:
            params = {p.name for f in np.functions for p in f.params}
            name = f"c{site.id}"
            while name in self.taken or name in params:
                name = "c" + name
            placeholder = (name, site.sort)
        self.placeholder = placeholder
        if placeholder is not None:
            self.taken.add(placeholder[0])
            self.var_sorts[placeholder[0]] = placeholder[1]
        self.old_snaps: dict[str, str] = {}
        self.seq = 0

    def _collect_decl_sorts(self, stmts: list[NStmt]) -> None:
        for s in stmts:
            match s:
                case NAssign(target=t, declares=True, decl_sort=srt):
                    self.var_sorts[t] = srt
                case NIf(then_stmts=tb, else_stmts=eb):
                    self._collect_decl_sorts(tb)
                    self._collect_decl_sorts(eb)
                case NWhile(prelude=pre, body=b):
                    self._collect_decl_sorts(pre)
                    self._collect_decl_sorts(b)

    def fresh_aux(self, base: str, sort: Sort) -> str:
        name = base
        k = 1
        while name in self.taken:
            k += 1
            name = f"{base}{k}"
        self.taken.add(name)
        self.aux[name] = sort
        return name

    def next_seq(self) -> int:
        self.seq += 1
        return self.seq

    # -- expression conversion ---------------------------------------------

    def formula(
        self,
        e: Expr,
        result: Formula | None = None,
        formals: dict[str, Formula] | None = None,
        old_is_current: bool = False,
    ) -> Formula:
        match e:
            case IntLit(value=v):
                return IntConst(v)
            case BoolLit(value=v):
                return BoolConst(v)
            case Var(name=n):
                if formals is not None and n in formals:
                    return formals[n]
                if n in self.consts:
                    v = self.consts[n]
                    return BoolConst(v) if isinstance(v, bool) else IntConst(v)
                assert e.sort is not None, f"unsorted variable {n!r}"
                return VarRef(n, e.sort)
            case ResultSym():
                assert result is not None, "\\result outside an ensures context"
                return result
            case OldSym(name=n):
                if n in self.consts:
                    v = self.consts[n]
                    return BoolConst(v) if isinstance(v, bool) else IntConst(v)
                if old_is_current:
                    return VarRef(n, self.global_sorts[n])
                snap = self.old_snaps.get(n)
                if snap is None:
                    snap = self.fresh_aux(f"{n}_old", self.global_sorts[n])
                    self.old_snaps[n] = snap
                return VarRef(snap, self.global_sorts[n])
            case Neg(arg=a):
                return f_neg(self.formula(a, result, formals, old_is_current))
            case Not(arg=a):
                return f_not(self.formula(a, result, formals, old_is_current))
            case Add(left=l, right=r):
                return f_bin("+", self.formula(l, result, formals, old_is_current), self.formula(r, result, formals, old_is_current))
            case Sub(left=l, right=r):
                return f_bin("-", self.formula(l, result, formals, old_is_current), self.formula(r, result, formals, old_is_current))
            case Mul(left=l, right=r):
                return f_bin("*", self.formula(l, result, formals, old_is_current), self.formula(r, result, formals, old_is_current))
            case Cmp(op=op, left=l, right=r):
                return f_bin(op, self.formula(l, result, formals, old_is_current), self.formula(r, result, formals, old_is_current))
            case And(left=l, right=r):
                return f_and(self.formula(l, result, formals, old_is_current), self.formula(r, result, formals, old_is_current))
            case Or(left=l, right=r):
                return f_or(self.formula(l, result, formals, old_is_current), self.formula(r, result, formals, old_is_current))
        raise TypeError(f"cannot convert {e!r} to a formula")

    def site_formula(self, s: NStmt, e: Expr) -> Formula:
        """The formula of a statement's own expression; the placeholder at the site."""
        if s.index == self.site_index:
            return VarRef(*self.placeholder)
        return self.formula(e)

    def ensures_formula(self, result: Formula | None) -> Formula:
        return f_and(*[self.formula(e, result=result) for e in self.nf.ensures])

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
            carried, ms = self.wp_stmt(s, carried)
            metas.extend(ms)
        return carried, metas

    def wp_stmt(self, s: NStmt, carried: list[Formula]) -> tuple[list[Formula], list[_PendingMeta]]:
        match s:
            case NAssign(target=t, rhs=CallRhs(name=callee_name, args=args)):
                callee = self.functions[callee_name]
                if not callee.pure:
                    raise NonPureCallee(callee_name)
                argmap = {p.name: self.formula(a) for p, a in zip(callee.params, args)}
                ret = VarRef(
                    self.fresh_aux(f"{callee_name}_ret", callee.return_sort),
                    callee.return_sort,
                )
                summary = f_and(
                    *[self.formula(e, result=ret, formals=argmap, old_is_current=True) for e in callee.ensures]
                )
                pre = f_and(*[self.formula(e, formals=argmap) for e in callee.requires])
                out = []
                for f in carried:
                    if t in free_vars(f):
                        out.append(f_implies(summary, substitute(f, {t: ret})))
                    else:
                        out.append(f)
                meta = _PendingMeta(ObligationKind.CALLEE_PRE, s.span, s.index, self.next_seq())
                return out + [pre], [meta]
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
        rename: dict[str, Formula] = {}
        for v in frame:
            sort = self.var_sorts[v]
            rename[v] = VarRef(self.fresh_aux(f"{v}_h", sort), sort)

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

        init_meta = _PendingMeta(ObligationKind.LOOP_INIT, s.span, s.index, self.next_seq())
        pres_meta = _PendingMeta(ObligationKind.LOOP_PRESERVED, s.span, s.index, self.next_seq())
        return (
            out + [inv, preserved] + nested + entry_slots,
            [init_meta, pres_meta] + body_metas + entry_metas,
        )

    def prelude_def(self, p: NAssign) -> Formula:
        """Fact that holds at every loop-head test: the temp carries its defining value."""
        target = VarRef(p.target, self.var_sorts[p.target])
        if isinstance(p.rhs, CallRhs):
            callee = self.functions[p.rhs.name]
            argmap = {f.name: self.formula(a) for f, a in zip(callee.params, p.rhs.args)}
            return f_and(
                *[self.formula(e, result=target, formals=argmap, old_is_current=True) for e in callee.ensures]
            )
        return Bin("==", target, self.site_formula(p, p.rhs))

    # -- assembly ---------------------------------------------------------------

    def run(self) -> list[Obligation]:
        if self.nf.return_sort is Sort.VOID:
            seed = self.ensures_formula(None)
        else:
            seed = TRUE  # non-void bodies return on every path
        carried, metas = self.wp_stmts(self.nf.body, [seed])

        requires = f_and(*[self.formula(e) for e in self.nf.requires])
        snapshots = [
            Bin("==", VarRef(snap, self.global_sorts[g]), VarRef(g, self.global_sorts[g]))
            for g, snap in self.old_snaps.items()
        ]
        antecedent = f_and(requires, *snapshots)

        entries: list[tuple[_PendingMeta, Formula]] = [
            (_PendingMeta(ObligationKind.POST, self.nf_span(), -1, 0), carried[0])
        ]
        entries += list(zip(metas, carried[1:]))
        entries.sort(key=lambda ec: (ec[0].norm_index, _KIND_RANK.get(ec[0].kind, 0), ec[0].seq))

        obligations = []
        counters: dict[ObligationKind, int] = {}
        for meta, slot in entries:
            body = f_implies(antecedent, slot)
            k = counters.get(meta.kind, 0)
            counters[meta.kind] = k + 1
            inputs, auxes, ph = self.classify(body)
            obligations.append(
                Obligation(
                    id=f"{self.nf.name}:{meta.kind.value}:{k}",
                    kind=meta.kind,
                    body=body,
                    inputs=inputs,
                    auxiliaries=auxes,
                    placeholder=ph,
                    span=meta.span,
                    function=self.nf.name,
                )
            )
        return obligations

    def nf_span(self) -> Span:
        if self.nf.span is not None:
            return self.nf.span
        if self.nf.body:
            return self.nf.body[0].span
        return Span(self.np.filename, 1, 1, 1, 1)

    def classify(self, body: Formula) -> tuple[SortedVars, SortedVars, tuple[str, Sort] | None]:
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
        return tuple(inputs), tuple(auxes), ph


def gen_obligations(
    np: NormProgram,
    nf: NFunc,
    placeholder: tuple[str, Sort] | None = None,
    site: Candidate | None = None,
) -> list[Obligation]:
    """Generate the proof obligations of one normalized function.

    Deterministic: identical input yields identical ids, order, and formulas.
    With ``site``, the candidate's expression is read as a fresh placeholder
    variable ``c<id>`` of the candidate's sort (prefixed with ``c`` until no
    variable, function or parameter of the program has that name).  A
    ``placeholder`` names a variable that the function itself already reads
    in place of a site.  Either way the placeholder is classified separately
    and attached to each obligation in whose body it occurs free.
    """
    return _VcGen(np, nf, placeholder, site).run()
