"""Print one sha256 over the generated loop-nest source of every corpus query:
the detection query and each candidate's query of every corpus function, at
the default ``SolverConfig()``, in the order of
``test_corpus_smtlib_and_query_text_match_golden_sha256`` and generated the
same way, as ``localize_norm`` does.  Two versions of the internal solver
that print the same hash stage every corpus query to the same Python code.

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

    def capture(*args):
        raise _Staged(nest_source(*args))

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


if __name__ == "__main__":
    main()
