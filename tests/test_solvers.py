from __future__ import annotations

import hashlib
import itertools
import random
import stat
import sys

import pytest

from floc.faultmodel import enumerate_candidates
from floc.frontend.syntax import Sort
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
    _children,
    build_query,
    format_query,
)
from floc.solvers import (
    MalformedProverOutput,
    ProverLaunchFailure,
    SolverConfig,
    decide,
    emit_smtlib,
)
from floc.vcgen import gen_obligations

from conftest import CORPUS_NAMES, build, pipeline_from
from mclgen import straight_line_source
from oracles import (
    QueryGen,
    brute_force,
    reference_decide,
    reference_decide_forall_exists,
    reference_decide_universal,
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
    from floc.logic import eval_formula

    assert eval_formula(q.body, v.witness) is False


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
    from oracles import QueryGen, tree_eval

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


def test_corpus_smtlib_and_query_text_match_golden_sha256():
    smtlib, text = hashlib.sha256(), hashlib.sha256()
    count = 0
    for name in CORPUS_NAMES:
        pipe = build(name)
        for nf in pipe.norm.functions:
            for site in [None, *enumerate_candidates(pipe.norm, nf)]:
                for q in gen_obligations(pipe.norm, nf, site=site):
                    smtlib.update(emit_smtlib(q).encode("utf-8") + b"\0")
                    text.update(format_query(q).encode("utf-8") + b"\0")
                    count += 1
    assert count == 184
    assert smtlib.hexdigest() == CORPUS_SMTLIB_SHA256
    assert text.hexdigest() == CORPUS_QUERY_TEXT_SHA256

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
