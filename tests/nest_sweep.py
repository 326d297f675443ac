"""Print one sha256 over the staged loop nest of every corpus query: the
detection query and each candidate's query of every corpus function, at the
default ``SolverConfig()``, in the order of
``test_corpus_smtlib_and_query_text_match_golden_sha256`` and generated the
same way, as ``localize_norm`` does.  Each nest is hashed as its Python
source followed by the domain of each looped level: the planned list, the
code of a domain built in the nest, or the box.  List domains and boxes are
passed to the nest as arguments, so the source alone does not show them.
Two versions of the internal solver that print the same hash stage every
corpus query to the same Python code over the same domains.  Beside it, the
sweep counts the int loops of those queries by what the planner gave them,
and prints the number of loops of the largest nest.  The solver's first-point
check is switched off, so that every query is staged; the sweep prints how
many queries the check would decide without a nest: those refuted at the
first point of the box, and the closed ones.  Its last line is how many
times the planner derived atoms from a built domain (``floc.domains._derive``).

Each query is staged and not run, so the sweep takes seconds.  Run from the
repository root:

    PYTHONPATH=src python tests/nest_sweep.py
"""

from __future__ import annotations

import hashlib
import time

import floc.domains as domains
import floc.solvers as solvers
from floc.faultmodel import enumerate_candidates
from floc.solvers import SolverConfig, decide
from floc.vcgen import gen_obligations

from conftest import CORPUS_NAMES, build


class _Staged(Exception):
    """Carries a query's nest source out of ``decide`` before the nest runs."""


def main() -> None:
    t0 = time.perf_counter()
    nest_source = solvers._nest_source

    kinds = {"box": 0, "list": 0, "built": 0}
    largest = 0

    def capture(levels, looped, *args):
        nonlocal largest
        largest = max(largest, len(looped))
        domains = []
        for level in (levels[lv] for lv in looped):
            if level.built:
                kinds["built"] += 1
            elif type(level.domain) is not tuple:  # a bool runs over (False, True)
                kinds["list" if type(level.domain) is list else "box"] += 1
            domains.append(repr(level.built or level.domain))
        raise _Staged("\n".join([nest_source(levels, looped, *args), *domains]))

    cfg = SolverConfig()
    first_point = solvers._first_point
    decided = {"refuted": 0, "closed": 0}
    derive = domains._derive
    derived = 0

    def count_derive(*args):
        nonlocal derived
        derived += 1
        derive(*args)

    solvers._nest_source = capture
    solvers._first_point = lambda q, cfg: None
    domains._derive = count_derive
    digest = hashlib.sha256()
    count = 0
    for name in CORPUS_NAMES:
        pipe = build(name)
        for nf in pipe.norm.functions:
            shared: dict = {}
            for site in [None, *enumerate_candidates(pipe.norm, nf)]:
                for ob in gen_obligations(pipe.norm, nf, site=site, shared=shared):
                    if first_point(ob, cfg) is not None:
                        decided["refuted" if ob.inputs or ob.placeholder or ob.auxiliaries else "closed"] += 1
                    try:
                        decide(ob, cfg)
                    except _Staged as staged:
                        digest.update(staged.args[0].encode("utf-8") + b"\0")
                    else:
                        raise AssertionError(f"{name}: {ob.id} was not staged")
                    count += 1
    print(f"{digest.hexdigest()}  {count} queries, {time.perf_counter() - t0:.1f} s")
    print("int loops: " + ", ".join(f"{n} {kind}" for kind, n in kinds.items()))
    print(f"largest nest: {largest} loops")
    print(f"first point decides: {decided['refuted']} refuted, {decided['closed']} closed")
    print(f"derived atoms: {derived} runs of the derive rule")


if __name__ == "__main__":
    main()
