from __future__ import annotations

import hashlib
import itertools
import math
import random
import re
import stat
import sys
import time

import pytest

import floc.solvers as solvers
from floc.domains import Built, plan
from floc.faultmodel import enumerate_candidates
from floc.frontend.syntax import Sort
from floc.logic import (
    BIN_OPS,
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
    _children,
    build_query,
    format_query,
    free_vars,
)
from floc.smtlib import MalformedProverOutput, ProverLaunchFailure, emit_smtlib
from floc.solvers import SolverConfig, decide
from floc.vcgen import gen_obligations

from conftest import CORPUS_NAMES, build, pipeline_from
from mclgen import straight_line_source
from oracles import (
    QueryGen,
    brute_force,
    reference_decide,
    reference_decide_forall_exists,
    reference_decide_universal,
    tree_eval,
)

I = Sort.INT
B = Sort.BOOL


def iv(n):
    return VarRef(n, I)


def _example1_detection_body():
    # (b > a => a >= b) && (b <= a => a >= b)
    return And(
        (
            Implies(Bin(">", iv("b"), iv("a")), Bin(">=", iv("a"), iv("b"))),
            Implies(Bin("<=", iv("b"), iv("a")), Bin(">=", iv("a"), iv("b"))),
        )
    )


def test_universal_invalid_with_witness():
    q = build_query(_example1_detection_body(), (("a", I), ("b", I)), None, ())
    v = decide(q, SolverConfig())
    assert v.is_invalid
    a, b = v.witness["a"], v.witness["b"]
    assert b > a  # the violation happens exactly when b > a
    # witness validity: substituting it back falsifies the body
    assert tree_eval(q.body, v.witness) is False


def test_universal_tautology_valid():
    body = Or((Bin("<=", iv("b"), iv("a")), Bin(">=", iv("b"), iv("b"))))
    q = build_query(body, (("a", I), ("b", I)), None, ())
    assert decide(q, SolverConfig()).is_valid


def test_forall_exists_worked_examples():
    cfg = SolverConfig()
    # C3: forall a,b exists c3. (b <= a) || (c3 >= b)  — repairable
    c3 = build_query(
        Or((Bin("<=", iv("b"), iv("a")), Bin(">=", iv("c3"), iv("b")))),
        (("a", I), ("b", I)),
        ("c3", I),
        (),
    )
    assert decide(c3, cfg).is_valid
    # C1: forall a,b exists c1. (b <= a) && (c1 >= b)  — not repairable
    c1 = build_query(
        And((Bin("<=", iv("b"), iv("a")), Bin(">=", iv("c1"), iv("b")))),
        (("a", I), ("b", I)),
        ("c1", I),
        (),
    )
    v = decide(c1, cfg)
    assert v.is_invalid
    assert v.witness["a"] < v.witness["b"]


def test_vacuous_placeholder_still_invalid():
    body = Bin(">=", iv("a"), IntConst(0))
    q = build_query(body, (("a", I),), ("c", I), ())
    v = decide(q, SolverConfig())
    assert v.is_invalid and v.witness["a"] < 0


def test_auxiliaries_are_universal_after_placeholder():
    # forall a exists c forall t. (t == a) => c == t   — c may depend on a, not t
    body = Implies(Bin("==", VarRef("t", I), iv("a")), Bin("==", VarRef("c", I), VarRef("t", I)))
    q = build_query(body, (("a", I),), ("c", I), (("t", I),))
    assert decide(q, SolverConfig(bound=4)).is_valid
    # forall a exists c forall t. c == t  — impossible
    q2 = build_query(Bin("==", VarRef("c", I), VarRef("t", I)), (("a", I),), ("c", I), (("t", I),))
    assert decide(q2, SolverConfig(bound=4)).is_invalid


def test_bool_variables():
    p = VarRef("p", B)
    body = And((Implies(p, Bin("==", iv("c"), iv("x"))), Implies(Not(p), Bin("==", iv("c"), Neg(iv("x"))))))
    q = build_query(body, (("x", I), ("p", B)), ("c", I), ())
    assert decide(q, SolverConfig(bound=4)).is_valid


def test_internal_matches_independent_brute_force():
    # spec invariant: the enumerator equals a literal triple nested loop
    rng = random.Random(13)

    def brute(q: QuantifiedQuery, bound: int, cbound: int) -> str:
        def ev(f, env):
            match f:
                case IntConst(value=v) | BoolConst(value=v):
                    return v
                case VarRef(name=n):
                    return env[n]
                case Neg(arg=x):
                    return -ev(x, env)
                case Not(arg=x):
                    return not ev(x, env)
                case Bin(op="+", left=l, right=r):
                    return ev(l, env) + ev(r, env)
                case Bin(op="*", left=l, right=r):
                    return ev(l, env) * ev(r, env)
                case Bin(op="<", left=l, right=r):
                    return ev(l, env) < ev(r, env)
                case Bin(op="<=", left=l, right=r):
                    return ev(l, env) <= ev(r, env)
                case Bin(op=">", left=l, right=r):
                    return ev(l, env) > ev(r, env)
                case Bin(op=">=", left=l, right=r):
                    return ev(l, env) >= ev(r, env)
                case Bin(op="==", left=l, right=r):
                    return ev(l, env) == ev(r, env)
                case Bin(op="!=", left=l, right=r):
                    return ev(l, env) != ev(r, env)
                case And(items=xs):
                    return all(ev(x, env) for x in xs)
                case Or(items=xs):
                    return any(ev(x, env) for x in xs)
                case Implies(antecedent=a, consequent=b):
                    return (not ev(a, env)) or bool(ev(b, env))
            raise TypeError(f)

        rng_dom = list(range(-bound, bound + 1))
        names_i = [n for n, _ in q.inputs]
        names_t = [n for n, _ in q.auxiliaries]
        cname = q.placeholder[0]
        for ivals in itertools.product(rng_dom, repeat=len(names_i)):
            env = dict(zip(names_i, ivals))
            found = False
            for c in range(-cbound, cbound + 1):
                env[cname] = c
                if all(
                    ev(q.body, {**env, **dict(zip(names_t, tvals))})
                    for tvals in itertools.product(rng_dom, repeat=len(names_t))
                ):
                    found = True
                    break
            if not found:
                return "Invalid"
        return "Valid"

    def rand_term(names, depth):
        if depth == 0 or rng.random() < 0.45:
            if names and rng.random() < 0.7:
                return iv(rng.choice(names))
            return IntConst(rng.randint(-3, 3))
        op = rng.choice(("+", "*", "neg"))
        if op == "neg":
            return Neg(rand_term(names, depth - 1))
        return Bin(op, rand_term(names, depth - 1), rand_term(names, depth - 1))

    def rand_body(names, depth):
        if depth == 0 or rng.random() < 0.4:
            op = rng.choice(("<", "<=", ">", ">=", "==", "!="))
            return Bin(op, rand_term(names, 1), rand_term(names, 1))
        kind = rng.random()
        if kind < 0.4:
            return And((rand_body(names, depth - 1), rand_body(names, depth - 1)))
        if kind < 0.8:
            return Or((rand_body(names, depth - 1), rand_body(names, depth - 1)))
        return Implies(rand_body(names, depth - 1), rand_body(names, depth - 1))

    cfg = SolverConfig(bound=4, placeholder_bound=4, timeout=60)
    for k in range(60):
        ni = rng.randint(0, 2)
        nt = rng.randint(0, 2)
        if ni + nt > 3:
            nt = 0
        inputs = tuple((f"i{j}", I) for j in range(ni))
        auxes = tuple((f"t{j}", I) for j in range(nt))
        names = [n for n, _ in inputs] + ["c"] + [n for n, _ in auxes]
        q = build_query_loose(rand_body(names, 2), inputs, ("c", I), auxes)
        got = decide(q, cfg)
        want = brute(q, 4, 4)
        assert str(got).startswith(want), (k, str(got), want)


def build_query_loose(body, inputs, placeholder, auxes):
    # queries here may not use every declared variable; that is fine
    return QuantifiedQuery(tuple(inputs), placeholder, tuple(auxes), body)


def test_forall_exists_witness_reproduces_failure():
    # fixing the witness inputs and re-deciding the inner exists/forall
    # block must still fail
    rng = random.Random(31)
    gen = QueryGen(rng)
    cfg = SolverConfig(bound=4, placeholder_bound=4, timeout=60)
    seen_invalid = 0
    while seen_invalid < 25:
        q = gen.query()
        v = decide(q, cfg)
        if not v.is_invalid:
            continue
        seen_invalid += 1
        assert set(v.witness) == {n for n, _ in q.inputs}
        cname = q.placeholder[0]
        aux = [n for n, _ in q.auxiliaries]
        exists_c = False
        for c in range(-4, 5):
            env = dict(v.witness) | {cname: c}
            if all(
                tree_eval(q.body, env | dict(zip(aux, tvals)))
                for tvals in itertools.product(range(-4, 5), repeat=len(aux))
            ):
                exists_c = True
        assert not exists_c, (q, v.witness)


def test_timeout_yields_unknown():
    # a valid formula forces the full sweep; a zero-ish budget expires first
    body = Or((Bin("<=", iv("b"), iv("a")), Bin(">=", iv("b"), iv("b"))))
    q = build_query(body, (("a", I), ("b", I)), None, ())
    v = decide(q, SolverConfig(bound=3000, timeout=1e-9))
    assert v.is_unknown and v.reason == "timeout"
    q2 = build_query(
        And((Bin("<=", iv("b"), iv("a")), Bin(">=", iv("c"), iv("b")))), (("a", I), ("b", I)), ("c", I), ()
    )
    v2 = decide(q2, SolverConfig(bound=3000, timeout=1e-9))
    assert v2.is_unknown and v2.reason == "timeout"
    # All the work sits under a single outer point: no inputs, and either a
    # long placeholder domain or two auxiliaries.  The clock must still be
    # read before the sweep ends.
    q3 = build_query(Bin("==", iv("c"), iv("t")), (), ("c", I), (("t", I),))
    v3 = decide(q3, SolverConfig(placeholder_bound=3000, timeout=1e-9))
    assert v3.is_unknown and v3.reason == "timeout"
    assert decide(q3, SolverConfig(placeholder_bound=3000)).is_invalid
    body4 = Or((Bin("<=", iv("t0"), iv("t1")), Bin(">", iv("t0"), iv("t1"))))
    q4 = build_query(body4, (), None, (("t0", I), ("t1", I)))
    v4 = decide(q4, SolverConfig(bound=3000, timeout=1e-9))
    assert v4.is_unknown and v4.reason == "timeout"
    # b*b >= 0 holds at the second loop, so the loops below it never run
    body5 = Or((Bin(">=", Bin("*", iv("b"), iv("b")), IntConst(0)), Bin("==", iv("t0"), Bin("+", iv("t1"), iv("a")))))
    q5 = build_query(body5, (("a", I), ("b", I)), None, (("t0", I), ("t1", I)))
    v5 = decide(q5, SolverConfig(bound=3000, timeout=1e-9))
    assert v5.is_unknown and v5.reason == "timeout"


@pytest.mark.parametrize("placeholder", [True, False], ids=["forall-exists", "universal"])
def test_staged_solver_matches_reference_and_brute_force(placeholder):
    rng = random.Random(2024 + placeholder)
    gen = QueryGen(rng)
    queries = []
    for _ in range(220):
        q = gen.mixed_query(placeholder, max_total=6)
        bound, cbound = rng.randint(1, 2), rng.randint(1, 3)
        queries.append((q, SolverConfig(bound=bound, placeholder_bound=cbound, timeout=60)))
    sorts = [s for q, _ in queries for _, s in q.inputs + q.auxiliaries]
    assert B in sorts and I in sorts
    assert any(not q.inputs for q, _ in queries)
    assert any(len(q.auxiliaries) == 2 for q, _ in queries)
    assert any(len(q.auxiliaries) == 3 for q, _ in queries)
    verdicts = set()
    for q, cfg in queries:
        got = decide(q, cfg)
        want = reference_decide(q, cfg)
        assert str(got) == str(want), (q, got, want)
        witness = list((got.witness or {}).items())
        assert witness == list((want.witness or {}).items()), q
        verdict, brute_witness = brute_force(q, cfg.bound, cfg.bc)
        assert str(got) == verdict, (q, got)
        assert witness == list((brute_witness or {}).items()), q
        verdicts.add(str(got))
    assert verdicts == {"Valid", "Invalid"}


def _record_nests(monkeypatch) -> list[tuple[list, list[int], str]]:
    """Record, per query decided, the levels, the looped levels and the
    source of its nest."""
    seen = []
    nest_source = solvers._nest_source

    def record(levels, looped, lines, test):
        seen.append((levels, looped, nest_source(levels, looped, lines, test)))
        return seen[-1][2]

    monkeypatch.setattr(solvers, "_nest_source", record)
    return seen


def _widest(levels, looped, level) -> int:
    """The most values a built domain takes at any point of the loops it
    reads."""
    domains = {levels[lv].local: levels[lv].domain for lv in looped}
    reads = sorted(set(re.findall(r"\bv\d+\b", level.built.points)))
    return max(
        len(set(eval(level.built.points, dict(zip(reads, values)))) & set(level.domain))
        for values in itertools.product(*(domains[v] for v in reads))
    )


def test_planned_domains_match_reference_and_brute_force(monkeypatch):
    seen = _record_nests(monkeypatch)
    rng = random.Random(1103)
    gen = QueryGen(rng)
    configs = [
        SolverConfig(bound=2, timeout=60),
        SolverConfig(bound=3, timeout=60),
        SolverConfig(bound=2, placeholder_bound=6, timeout=60),
    ]
    verdicts, reduced, boxed, built = set(), set(), set(), set()
    for _ in range(200):
        q = gen.planner_query()
        inputs = dict(q.inputs)
        for cfg in configs:
            got = decide(q, cfg)
            want = reference_decide(q, cfg)
            assert str(got) == str(want), (q, cfg, got, want)
            witness = list((got.witness or {}).items())
            assert witness == list((want.witness or {}).items()), (q, cfg)
            verdict, brute_witness = brute_force(q, cfg.bound, cfg.bc)
            assert (str(got), witness) == (verdict, list((brute_witness or {}).items())), (q, cfg)
            verdicts.add(str(got))
            levels, looped, _ = seen.pop()
            for level in (levels[lv] for lv in looped):
                kind = "placeholder" if level.exists else "input" if level.name in inputs else "auxiliary"
                if level.built:
                    built.add(kind)
                    assert 1 <= _widest(levels, looped, level) <= len(level.domain)
                elif type(level.domain) is not tuple:  # an int
                    bound = cfg.bc if level.exists else cfg.bound
                    box = list(range(-bound, bound + 1))
                    domain = list(level.domain)
                    assert domain[0] == -bound and set(domain) <= set(box) and domain == sorted(domain)
                    (boxed if domain == box else reduced).add("placeholder" if level.exists else "universal")
    assert verdicts == {"Valid", "Invalid"}
    assert reduced == boxed == {"placeholder", "universal"}
    assert built == {"auxiliary", "placeholder"}


@pytest.mark.parametrize("placeholder", [True, False], ids=["forall-exists", "universal"])
def test_derived_domains_match_reference_and_brute_force(monkeypatch, placeholder):
    # Chained two- and three-variable atoms: each loop's points are pushed
    # out, as derived atoms, to the loops around it.
    seen = _record_nests(monkeypatch)
    rng = random.Random(1509 + placeholder)
    gen = QueryGen(rng)
    configs = [SolverConfig(bound=3, placeholder_bound=2, timeout=60), SolverConfig(bound=2, placeholder_bound=4, timeout=60)]
    verdicts, outer_planned = set(), 0
    for _ in range(80):
        q = gen.chain_query(placeholder)
        for cfg in configs:
            got = decide(q, cfg)
            want = reference_decide(q, cfg)
            witness = list((got.witness or {}).items())
            assert (str(got), witness) == (str(want), list((want.witness or {}).items())), (q, cfg)
            verdict, brute_witness = brute_force(q, cfg.bound, cfg.bc)
            assert (str(got), witness) == (verdict, list((brute_witness or {}).items())), (q, cfg)
            verdicts.add(str(got))
            levels, looped, _ = seen.pop()
            # A built domain that reads a loop which does not keep its box:
            # the read loop's points were planned from derived atoms.
            outer_planned += any(
                lv.built and (levels[lv.built.level].built or type(levels[lv.built.level].domain) is list)
                for lv in (levels[i] for i in looped)
            )
    assert verdicts == {"Valid", "Invalid"}
    assert outer_planned >= 15


def test_derived_points_start_every_run_of_the_loops_inside():
    # Loops z, y, a bool and x; x owns atoms over x, y and z, and y owns
    # atoms over y and z.  At each value of the loops outside a planned
    # variable, its domain holds the least value of each run on which the
    # loops from it inward see the same truth values: of the atoms it owns,
    # and, value by value in order, of every atom inside.
    rng = random.Random(23)
    names, bound = ["z", "y", "x"], 4
    loops = {"z": ("v1", 1), "y": ("v2", 2), "p": ("v3", 3), "x": ("v4", 4)}
    ops = ("<", "<=", ">", ">=", "==", "!=")

    def atom(terms, k):
        left = IntConst(0)
        for name, a in terms:
            left = Bin("+", left, Bin("*", IntConst(a), iv(name)))
        return Bin(rng.choice(ops), left, IntConst(k))

    def domain(d, env):
        if type(d) is Built:
            values = eval(d.points, {loops[n][0]: v for n, v in env.items()})
            return sorted(v for v in values if -bound <= v <= bound)
        return list(d)

    derived = 0
    for _ in range(60):
        atoms = [atom([("x", rng.choice((-1, 1))), ("y", rng.choice((-1, 0, 1))), ("z", rng.choice((-1, 0, 1, 2)))], rng.randint(-5, 5))
                 for _ in range(rng.randint(1, 3))]
        atoms += [atom([("y", rng.choice((-1, 1))), ("z", rng.choice((-1, 1)))], rng.randint(-5, 5)) for _ in range(rng.randint(0, 2))]
        atoms += [atom([("z", 1)], rng.randint(-5, 5)) for _ in range(rng.randint(0, 1))]
        domains = plan(atoms, loops, dict.fromkeys(names, bound))
        owned = {n: [f for f in atoms if max(free_vars(f), key=names.index) == n] for n in names}

        def view(i, env):
            """What the loops from names[i] inward see at the values env."""
            inner = () if i + 1 == len(names) else tuple(
                view(i + 1, env | {names[i + 1]: v}) for v in domain(domains[names[i + 1]], env)
            )
            return tuple(tree_eval(f, env) for f in owned[names[i]]), inner

        for i, name in enumerate(names):
            for outer in itertools.product(range(-bound, bound + 1), repeat=i):
                env = dict(zip(names, outer))
                runs = [view(i, env | {name: v}) for v in range(-bound, bound + 1)]
                starts = [v for v in range(-bound, bound + 1) if v == -bound or runs[v + bound] != runs[v + bound - 1]]
                assert set(starts) <= set(domain(domains[name], env)), (atoms, name, env, domains[name])
        derived += domains["y"] != range(-bound, bound + 1) and domains["z"] != range(-bound, bound + 1)
    assert derived >= 20


@pytest.mark.parametrize(
    "op, a, k, want",
    [
        # a*x + k op 0 over [-8, 8]: -8 and the least value of the atom's second run
        (">=", 1, -1, [-8, 1]),  # x >= 1
        (">", 1, -1, [-8, 2]),  # x > 1
        ("<", 1, -1, [-8, 1]),  # x < 1
        ("<=", 1, -1, [-8, 2]),  # x <= 1
        (">=", 2, -3, [-8, 2]),  # 2x >= 3
        (">", 2, -3, [-8, 2]),  # 2x > 3
        (">=", 2, -4, [-8, 2]),  # 2x >= 4
        (">", 2, -4, [-8, 3]),  # 2x > 4
        (">=", -2, 3, [-8, 2]),  # -2x + 3 >= 0: x <= 1
        (">", -2, 4, [-8, 2]),  # -2x + 4 > 0: x < 2
        ("<=", -3, 7, [-8, 3]),  # -3x + 7 <= 0: x >= 3
        ("==", 3, -7, [-8, 2, 3]),  # 3x == 7: never, harmless points
        ("!=", 1, 5, [-8, -5, -4]),  # x != -5
        (">=", 1, 20, [-8]),  # always true in the box
    ],
)
def test_planned_points_by_operator(op, a, k, want):
    x = VarRef("x", I)
    atom = Bin(op, Bin("+", Bin("*", IntConst(a), x), IntConst(k)), IntConst(0))
    domain = plan([atom], {"x": ("v1", 1)}, {"x": 8})["x"]
    assert domain == want
    truth = [BIN_OPS[op].fn(a * v + k, 0) for v in range(-8, 9)]
    starts = [-8] + [v for v in range(-7, 9) if truth[v + 8] != truth[v + 7]]
    assert set(starts) <= set(domain)
    if op not in ("==", "!="):
        assert domain == starts  # one point per ordering atom


def test_built_points_start_every_run():
    # a*x + b*y + c*z + k op 0, owned by x, the last of its variables in loop
    # order: at each (y, z) of the box, x's built domain holds -B and the
    # least value of each run of x on which the atom keeps its truth value.
    # When a is not 1 or -1 once the atom is divided by its content, a point
    # would need a floor division of the outer values, and x keeps its box.
    rng = random.Random(7)
    x, y, z = iv("x"), iv("y"), iv("z")
    loops = {"y": ("v1", 1), "z": ("v2", 2), "p": ("v3", 3), "x": ("v4", 4)}
    boxed = 0
    for _ in range(300):
        op = rng.choice(("<", "<=", ">", ">=", "==", "!="))
        a, b, c = rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((-2, -1, 1, 2)), rng.choice((-1, 0, 2))
        k = rng.randint(-6, 6)
        terms = Bin("+", Bin("*", IntConst(a), x), Bin("*", IntConst(b), y))
        atom = Bin(op, Bin("+", terms, Bin("*", IntConst(c), z)), IntConst(-k))
        built = plan([atom], loops, {"x": 3, "y": 3, "z": 3})["x"]
        if abs(a) != math.gcd(a, b, c, k):
            assert built == range(-3, 4), atom
            boxed += 1
            continue
        assert "//" not in built.points, atom
        for yv, zv in itertools.product(range(-3, 4), repeat=2):
            domain = sorted(p for p in eval(built.points, {"v1": yv, "v2": zv}) if -3 <= p <= 3)
            truth = [BIN_OPS[op].fn(a * xv + b * yv + c * zv + k, 0) for xv in range(-3, 4)]
            starts = [-3] + [xv for xv in range(-2, 4) if truth[xv + 3] != truth[xv + 2]]
            assert set(starts) <= set(domain), (atom, yv, zv, built.points)
            if op not in ("==", "!="):
                assert domain == starts, (atom, yv, zv, built.points)
    assert 0 < boxed < 300  # both cases are drawn


def test_an_innermost_loop_right_inside_the_loop_it_reads_keeps_its_box():
    # Building y's domain once per x would cost more than running its box.
    atom = Bin("<=", iv("x"), iv("y"))
    assert plan([atom], {"x": ("v1", 1), "y": ("v2", 2)}, {"x": 8, "y": 8}) == {"x": range(-8, 9), "y": range(-8, 9)}
    # With a loop between them, y's domain is built once per x.
    loops = {"x": ("v1", 1), "p": ("v2", 2), "y": ("v3", 3)}
    assert plan([atom], loops, {"x": 8, "y": 8})["y"] == (1, "{-8, v1}")


def test_a_linear_atom_is_divided_by_its_content():
    # (x - y) == (y - x) is 2x - 2y == 0, the same truth set as x - y == 0.
    atom = Bin("==", Bin("-", iv("x"), iv("y")), Bin("-", iv("y"), iv("x")))
    loops = {"x": ("v1", 1), "p": ("v2", 2), "y": ("v3", 3)}
    assert plan([atom], loops, {"x": 8, "y": 8})["y"] == Built(1, "{-8, v1, v1 + 1}")


def test_planned_domains_of_the_tcas9_descend_c11_query(monkeypatch):
    # VerSep is read only by VerSep >= 1; AlimVal and InhibitBiasedClimb_ret
    # own their atoms, whose points read DwnSep and UpSep.  Those points are
    # pushed out as atoms over DwnSep and UpSep: UpSep gets a domain built
    # once per DwnSep value, and DwnSep a list.
    seen = _record_nests(monkeypatch)
    pipe = build("tcas_v9")
    nf = pipe.norm.function("NonCrossBiasedDescend")
    (site,) = [c for c in enumerate_candidates(pipe.norm, nf) if c.id == 11]
    (q,) = [ob for ob in gen_obligations(pipe.norm, nf, site=site) if ob.placeholder]
    assert q.placeholder[0] == "c11"
    assert decide(q, SolverConfig()).is_valid
    ((levels, looped, _),) = seen
    named = {levels[lv].name: levels[lv] for lv in looped}
    assert list(named["VerSep"].domain) == [-8, 1]
    dwn, up = named["DwnSep"], named["UpSep"]
    assert type(dwn.domain) is list and dwn.built is None
    assert up.built.level == levels.index(dwn)
    pairs = sum(len(set(eval(up.built.points, {dwn.local: v})) & set(up.domain)) for v in dwn.domain)
    assert len(dwn.domain) < 17 and pairs <= 100
    assert _widest(levels, looped, named["AlimVal"]) <= 3
    assert _widest(levels, looped, named["InhibitBiasedClimb_ret"]) <= 5


def test_a_huge_bound_allocates_no_domain():
    # x is read through a square, so its loop keeps its box of 2 * 10**9 + 1
    # values; the clock stops the sweep long before it ends.
    body = Or((Bin("!=", Bin("*", iv("x"), iv("x")), IntConst(2)), Bin(">=", iv("z"), IntConst(5))))
    q = build_query(body, (("x", I), ("z", I)), None, ())
    start = time.monotonic()
    v = decide(q, SolverConfig(bound=10**9, timeout=0.05))
    assert time.monotonic() - start < 1
    assert v.is_unknown and v.reason == "timeout"
    # z is planned: its loop runs over -B and 5 only.
    q2 = build_query(Bin(">=", iv("z"), IntConst(5)), (("z", I),), None, ())
    start = time.monotonic()
    v2 = decide(q2, SolverConfig(bound=10**9, timeout=0.05))
    assert time.monotonic() - start < 1
    assert v2.is_invalid and v2.witness == {"z": -(10**9)}
    # The placeholder is read through a product, so its loop keeps its box
    # too, and at x = -8 no value of it fits.
    c, x = iv("c"), iv("x")
    q3 = build_query(Or((Bin("==", Bin("*", c, x), IntConst(2)), Bin(">=", x, IntConst(5)))), (("x", I),), ("c", I), ())
    start = time.monotonic()
    v3 = decide(q3, SolverConfig(placeholder_bound=10**9, timeout=0.05))
    assert time.monotonic() - start < 1
    assert v3.is_unknown and v3.reason == "timeout"


def test_the_clock_is_read_inside_a_huge_innermost_loop():
    # Both atoms read x and y nonlinearly, so y's loop keeps its box of
    # 2 * 10**9 + 1 values, and the body holds at every point.
    x, y = iv("x"), iv("y")
    body = Or((Bin("<=", Bin("*", x, y), IntConst(0)), Bin(">", Bin("*", x, y), IntConst(0))))
    q = build_query(body, (("x", I), ("y", I)), None, ())
    start = time.monotonic()
    v = decide(q, SolverConfig(bound=10**9, timeout=0.05))
    assert time.monotonic() - start < 1
    assert v.is_unknown and v.reason == "timeout"


def _depth(f) -> int:
    return 1 + max((_depth(c) for c in _children(f)), default=0)


def test_bodies_deeper_than_the_parser_takes_compile():
    # Unlifted, the generated code nests about one parenthesis per level of
    # the body: 300 for this Or/Not chain, about 200 for the straight-line
    # queries below, against CPython's limit of 200.
    body = Bin("==", iv("c"), Bin("*", iv("x"), iv("x")))
    for k in range(150):  # 300 nested Or/Not nodes; each Or's first item is false
        body = Not(Or((Bin("<", iv("x"), IntConst(-20 - k)), body)))
    q = build_query(body, (("x", I),), ("c", I), ())
    cfg = SolverConfig(bound=3, placeholder_bound=3)
    v = decide(q, cfg)
    assert (str(v), v.witness) == brute_force(q, 3, 3) == ("Invalid", {"x": -3})
    assert v.witness == reference_decide(q, cfg).witness
    aux = (("c", I), ("t", I))
    universal = build_query(Or((body, Bin(">=", iv("t"), IntConst(0)))), (("x", I),), None, aux)
    u = decide(universal, cfg)
    assert (str(u), u.witness) == brute_force(universal, 3, 3)
    assert u.witness == reference_decide(universal, cfg).witness

    # The detection query and three candidate queries of a 100-statement
    # straight-line function whose contract fails at x == 2.
    pipe = pipeline_from(straight_line_source(100, fails_at=2))
    nf = pipe.norm.function("f")
    verdicts = []
    for site in [None, *enumerate_candidates(pipe.norm, nf)[:3]]:
        (q,) = gen_obligations(pipe.norm, nf, site=site)
        assert _depth(q.body) >= 200
        v = decide(q, cfg)
        assert (str(v), v.witness) == brute_force(q, 3, 3)
        assert v.witness == reference_decide(q, cfg).witness
        verdicts.append((str(v), v.witness))
    assert verdicts == [("Invalid", {"x": 2})] + [("Valid", None)] * 3


def test_more_variables_than_python_nests_loops():
    # 12 inputs, the placeholder and 11 auxiliaries: 24 loops, past CPython's
    # limit of 20 statically nested blocks in one function.
    xs = [f"x{k}" for k in range(12)]
    ts = [f"t{k}" for k in range(11)]
    guard = Or(tuple(Bin(">=", iv(n), IntConst(-1)) for n in xs + ts))
    body = And((Or((Bin("<", iv("x11"), IntConst(1)), Bin("==", iv("c"), Bin("+", iv("x0"), iv("t10"))))), guard))
    q = QuantifiedQuery(tuple((n, I) for n in xs), ("c", I), tuple((n, I) for n in ts), body)
    cfg = SolverConfig(bound=1, placeholder_bound=2, timeout=60)
    v = decide(q, cfg)
    assert v.is_invalid
    assert list(v.witness.items()) == list(reference_decide_forall_exists(q, cfg).witness.items())
    u = QuantifiedQuery(tuple((n, I) for n in xs), None, tuple((n, I) for n in ts + ["c"]), body)
    w = decide(u, cfg)
    assert list(w.witness.items()) == list(reference_decide_universal(u, cfg).witness.items())


def test_more_loops_than_python_nests_are_not_planned(monkeypatch):
    # 24 pairs (x_k, y_k), where y_k owns y_k > x_k: 48 loops.  Planned, each
    # y_k but the innermost one would get a domain built at x_k's level, as
    # would the placeholder c, which owns c == x0 + 5.  A nest of more than
    # MAX_NEST loops is not planned: every loop keeps its box, and universal
    # neighbours merge, outermost first, until 20 loops remain.
    seen = _record_nests(monkeypatch)
    pairs = [(f"x{k}", f"y{k}") for k in range(24)]
    body = Or((*(Bin(">", iv(y), iv(x)) for x, y in pairs), Bin("<", iv("x23"), IntConst(1))))
    inputs = tuple((n, I) for pair in pairs for n in pair)
    cfg = SolverConfig(bound=1, timeout=60)
    for q in (
        QuantifiedQuery(inputs, None, (), body),
        QuantifiedQuery(inputs[:12], ("c", I), inputs[12:], Or((body, Bin("==", iv("c"), Bin("+", iv("x0"), IntConst(5)))))),
    ):
        v = decide(q, cfg)
        want = reference_decide(q, cfg)
        assert (str(v), list((v.witness or {}).items())) == (str(want), list((want.witness or {}).items()))
        ((levels, looped, source),) = seen
        seen.clear()
        assert len(looped) > solvers.MAX_NEST
        for level in (levels[lv] for lv in looped):
            bound = cfg.bc if level.exists else cfg.bound
            assert level.built is None and level.domain == range(-bound, bound + 1), level.name
        assert source.count("for ") == 20


# -- SMT-LIB emission ----------------------------------------------------------


def test_emit_smtlib_worked_example():
    q = build_query(
        Or((Bin("<=", iv("b"), iv("a")), Bin(">=", iv("c3"), iv("b")))),
        (("a", I), ("b", I)),
        ("c3", I),
        (),
    )
    script = emit_smtlib(q)
    assert "(set-logic LIA)" in script
    assert (
        "(assert (not (forall ((i_a Int) (i_b Int)) "
        "(exists ((c_c3 Int)) (or (<= i_b i_a) (>= c_c3 i_b))))))"
    ) in script
    assert script.rstrip().endswith("(check-sat)\n(get-model)".replace("\n", "\n")) or "(get-model)" in script


def test_emit_smtlib_deterministic():
    q = build_query(Bin(">=", iv("x"), IntConst(-3)), (("x", I),), None, ())
    assert emit_smtlib(q) == emit_smtlib(q)
    assert "(- 3)" in emit_smtlib(q)


def test_emit_smtlib_bool_sorts_stay_lia():
    body = Or((VarRef("p", B), Not(VarRef("p", B))))
    q = build_query(body, (("p", B),), None, ())
    script = emit_smtlib(q)
    assert "(set-logic LIA)" in script
    assert "(i_p Bool)" in script


def test_emit_smtlib_nonlinear_switches_to_nia():
    body = Bin(">=", Bin("*", iv("x"), iv("y")), IntConst(0))
    q = build_query(body, (("x", I), ("y", I)), None, ())
    assert "(set-logic NIA)" in emit_smtlib(q)
    linear = Bin(">=", Bin("*", IntConst(2), iv("x")), IntConst(0))
    q2 = build_query(linear, (("x", I),), None, ())
    assert "(set-logic LIA)" in emit_smtlib(q2)


def test_emit_smtlib_aux_prefix():
    body = Or((VarRef("p", B), Bin("==", Bin("+", iv("x"), iv("t0")), iv("c"))))
    q = build_query(body, (("x", I), ("p", B)), ("c", I), (("t0", I),))
    script = emit_smtlib(q)
    assert "(or i_p (= (+ i_x t_t0) c_c))" in script
    assert "(exists ((c_c Int))" in script
    assert "(forall ((t_t0 Int))" in script



# sha256 over the SMT-LIB script and the query text of every obligation of
# every corpus function: at detection and at each candidate's site (184
# queries, each text followed by a NUL byte).
CORPUS_SMTLIB_SHA256 = "f31dd8dd2949d20cd6e8985b91f05aaa2344c2b0c1877282d3d1475c9f136c7e"
CORPUS_QUERY_TEXT_SHA256 = "19b43a45cef9164ac51e76905dab6f9cfa9a98a7cf7547b341f9e3c213cac146"


def _corpus_queries():
    # Each function's queries as localize_norm generates them: detection
    # first, then each candidate, all sharing one state.
    for name in CORPUS_NAMES:
        pipe = build(name)
        for nf in pipe.norm.functions:
            shared: dict = {}
            for site in [None, *enumerate_candidates(pipe.norm, nf)]:
                yield from gen_obligations(pipe.norm, nf, site=site, shared=shared)


def test_corpus_smtlib_and_query_text_match_golden_sha256():
    smtlib, text = hashlib.sha256(), hashlib.sha256()
    count = 0
    for q in _corpus_queries():
        smtlib.update(emit_smtlib(q).encode("utf-8") + b"\0")
        text.update(format_query(q).encode("utf-8") + b"\0")
        count += 1
    assert count == 184
    assert smtlib.hexdigest() == CORPUS_SMTLIB_SHA256
    assert text.hexdigest() == CORPUS_QUERY_TEXT_SHA256


# sha256 over the internal solver's verdict and witness on each of the 184
# corpus queries above, in the same order: one line per query, the query id,
# the verdict and the witness items in declared order.  Pinned with the
# enumerator that walked the whole box.
CORPUS_VERDICT_SHA256 = {
    3: "2c10c602464ab2285d1566ec33a1c8ad8289c1dce57f9f6f3f1901662519e125",
    8: "71e4d4fdcff63a74c0ce5c259b9bf4f625dc0195609e168c77457e0abfb7cb97",
}


def _corpus_verdict_sha256(bound: int) -> str:
    digest = hashlib.sha256()
    cfg = SolverConfig(bound=bound, timeout=600)
    for q in _corpus_queries():
        v = decide(q, cfg)
        digest.update(f"{q.id} {v} {list((v.witness or {}).items())}\n".encode("utf-8"))
    return digest.hexdigest()


@pytest.mark.parametrize("bound", sorted(CORPUS_VERDICT_SHA256))
def test_corpus_verdicts_and_witnesses_match_golden_sha256(bound):
    assert _corpus_verdict_sha256(bound) == CORPUS_VERDICT_SHA256[bound]

# -- external prover plumbing ----------------------------------------------------


def _stub_prover(tmp_path, name: str, body: str) -> str:
    path = tmp_path / name
    path.write_text(f"#!{sys.executable}\n{body}")
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return f"{sys.executable} {path}"


def _simple_query():
    return build_query(Bin(">=", iv("x"), IntConst(0)), (("x", I),), None, ())


def test_external_unsat_maps_to_valid(tmp_path):
    cmd = _stub_prover(tmp_path, "unsat.py", "print('unsat')")
    cfg = SolverConfig(backend="external", prover_command=cmd)
    assert decide(_simple_query(), cfg).is_valid


def test_external_sat_maps_to_invalid_with_model(tmp_path):
    cmd = _stub_prover(
        tmp_path,
        "sat.py",
        "print('sat')\nprint('(model (define-fun i_x () Int (- 4)))')",
    )
    cfg = SolverConfig(backend="external", prover_command=cmd)
    v = decide(_simple_query(), cfg)
    assert v.is_invalid
    assert v.witness == {"x": -4}


_Z3_MODEL = """sat
(
  (define-fun i_x () Int
    (- 3))
  (define-fun t_t () Int
    7)
  (define-fun i_p () Bool
    true)
  (define-fun f ((a Int)) Int
    (ite (= a 0) 1 2))
  (define-fun i_y ((a Int)) Int
    (ite (= a 0) 1 2))
)"""
_CVC5_MODEL = (
    "sat\n(model (define-fun c_c () Int 2) (define-fun i_p () Bool false) "
    "(define-fun t_t () Int (- 1)) (define-fun i_y ((a Int)) Int a) (define-fun i_x () Int 5) )"
)


@pytest.mark.parametrize(
    "model, placeholder, witness",
    [
        # Without a placeholder the auxiliaries belong to the witness too.
        (_Z3_MODEL, None, [("x", -3), ("t", 7), ("p", True)]),
        (_CVC5_MODEL, None, [("p", False), ("t", -1), ("x", 5)]),
        # With one, neither c_ nor t_ symbols do.
        (_Z3_MODEL, ("c", I), [("x", -3), ("p", True)]),
        (_CVC5_MODEL, ("c", I), [("p", False), ("x", 5)]),
    ],
)
def test_external_model_layouts(tmp_path, model, placeholder, witness):
    # A define-fun that takes arguments is a function, never a witness value.
    cmd = _stub_prover(tmp_path, "model.py", f"print({model!r})")
    cfg = SolverConfig(backend="external", prover_command=cmd)
    body = Or((Bin(">=", iv("x"), iv("y")), VarRef("p", B), Bin(">=", iv("t"), IntConst(0))))
    q = build_query(body, (("x", I), ("p", B), ("y", I)), placeholder, (("t", I),))
    v = decide(q, cfg)
    assert v.is_invalid
    assert list(v.witness.items()) == witness


def test_external_unknown(tmp_path):
    cmd = _stub_prover(tmp_path, "unk.py", "print('unknown')")
    cfg = SolverConfig(backend="external", prover_command=cmd)
    v = decide(_simple_query(), cfg)
    assert v.is_unknown and v.reason == "prover-said-unknown"


def test_external_timeout(tmp_path):
    cmd = _stub_prover(tmp_path, "slow.py", "import time\ntime.sleep(5)\nprint('unsat')")
    cfg = SolverConfig(backend="external", prover_command=cmd, timeout=0.2)
    v = decide(_simple_query(), cfg)
    assert v.is_unknown and v.reason == "timeout"


def test_external_crash_is_resource_unknown(tmp_path):
    cmd = _stub_prover(tmp_path, "crash.py", "import sys\nsys.exit(3)")
    cfg = SolverConfig(backend="external", prover_command=cmd)
    v = decide(_simple_query(), cfg)
    assert v.is_unknown and v.reason == "resource"


def test_external_garbage_is_malformed(tmp_path):
    cmd = _stub_prover(tmp_path, "garbage.py", "print('segmentation fault')")
    cfg = SolverConfig(backend="external", prover_command=cmd)
    with pytest.raises(MalformedProverOutput):
        decide(_simple_query(), cfg)


def test_external_missing_binary_is_launch_failure():
    cfg = SolverConfig(backend="external", prover_command="/nonexistent/prover-xyz")
    with pytest.raises(ProverLaunchFailure):
        decide(_simple_query(), cfg)


def test_external_requires_a_command():
    cfg = SolverConfig(backend="external", prover_command=None)
    import os

    old = os.environ.pop("FLOC_PROVER", None)
    try:
        with pytest.raises(ProverLaunchFailure):
            decide(_simple_query(), cfg)
    finally:
        if old is not None:
            os.environ["FLOC_PROVER"] = old


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(bound=0)
    with pytest.raises(ValueError):
        SolverConfig(timeout=0)
    with pytest.raises(ValueError):
        SolverConfig(timeout=float("nan"))
    assert SolverConfig(bound=5).bc == 5
    assert SolverConfig(bound=5, placeholder_bound=9).bc == 9
    assert SolverConfig().semantics == "bounded[-8,8]"
    assert SolverConfig(backend="external", prover_command="z3").semantics == "unbounded(prover)"
