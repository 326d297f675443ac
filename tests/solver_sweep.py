"""Check the internal solver against the reference enumerator on random
queries: for each seed 1-20, 60 ``planner_query`` draws of up to 5 variables,
30 ``mixed_query`` draws with a placeholder and 30 without, and 30
``chain_query`` draws with a placeholder and 30 without, each decided at
bound 1, at bound 3, and at bound 2 with placeholder bound 5.  Every verdict
and witness must equal ``oracles.reference_decide``'s.  The sweep prints, per
config, the number of decisions and how many of them the first-point check
made without a nest, and last how many times the planner derived atoms from
a built domain (``floc.domains._derive``); the output is the same on every
run.  It stops at the first mismatch with the query, the config and both
verdicts.

It takes about 5 s on one core of a shared x86-64 Linux machine (Python
3.11).  Run from the repository root:

    PYTHONPATH=src python tests/solver_sweep.py
"""

from __future__ import annotations

import random

import floc.domains as domains
import floc.solvers as solvers
from floc.solvers import SolverConfig, decide

from oracles import QueryGen, reference_decide

CONFIGS = {
    "bound 1": SolverConfig(bound=1, timeout=600),
    "bound 3": SolverConfig(bound=3, timeout=600),
    "bound 2, placeholder bound 5": SolverConfig(bound=2, placeholder_bound=5, timeout=600),
}


def queries(seed: int) -> list:
    gen = QueryGen(random.Random(seed))
    out = [gen.planner_query(max_total=5) for _ in range(60)]
    for placeholder in (True, False):
        out += [gen.mixed_query(placeholder) for _ in range(30)]
    for placeholder in (True, False):
        out += [gen.chain_query(placeholder) for _ in range(30)]
    return out


def main() -> None:
    total = {name: [0, 0] for name in CONFIGS}  # decisions, of which the first point made
    derive = domains._derive
    derived = 0

    def count_derive(*args):
        nonlocal derived
        derived += 1
        derive(*args)

    domains._derive = count_derive
    for seed in range(1, 21):
        for q in queries(seed):
            for name, cfg in CONFIGS.items():
                got, want = [(str(v), list((v.witness or {}).items())) for v in (decide(q, cfg), reference_decide(q, cfg))]
                if got != want:
                    raise AssertionError(f"seed {seed}, {name}: {q}\n  solver {got}\n  reference {want}")
                total[name][0] += 1
                total[name][1] += solvers._first_point(q, cfg) is not None
    for name, (decisions, made) in total.items():
        print(f"{name}: {decisions} decisions, {made} at the first point")
    decisions, made = map(sum, zip(*total.values()))
    print(f"all: {decisions} decisions, {made} at the first point, all equal to the reference")
    print(f"derived atoms: {derived} runs of the derive rule")


if __name__ == "__main__":
    main()
