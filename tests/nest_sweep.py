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
and prints the number of loops of the largest nest.

Each query is staged and not run, so the sweep takes seconds.  Run from the
repository root:

    PYTHONPATH=src python tests/nest_sweep.py
"""

from __future__ import annotations

import hashlib
import time

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

    solvers._nest_source = capture
    digest = hashlib.sha256()
    count = 0
    for name in CORPUS_NAMES:
        pipe = build(name)
        for nf in pipe.norm.functions:
            shared: dict = {}
            for site in [None, *enumerate_candidates(pipe.norm, nf)]:
                for ob in gen_obligations(pipe.norm, nf, site=site, shared=shared):
                    try:
                        decide(ob, SolverConfig())
                    except _Staged as staged:
                        digest.update(staged.args[0].encode("utf-8") + b"\0")
                    else:
                        raise AssertionError(f"{name}: {ob.id} was not staged")
                    count += 1
    print(f"{digest.hexdigest()}  {count} queries, {time.perf_counter() - t0:.1f} s")
    print("int loops: " + ", ".join(f"{n} {kind}" for kind, n in kinds.items()))
    print(f"largest nest: {largest} loops")


if __name__ == "__main__":
    main()
