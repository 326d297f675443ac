"""Print one sha256 over what the lexer and the parser make of every
single-token mutant of the corpus and of every token-boundary prefix of each
corpus file, hashed as ``test_tokens_and_syntax_errors_match_golden_sha256``
hashes its sample.  Two versions of the frontend that print the same hash
lex and parse all of these inputs alike: the same tokens, ASTs, spans and
syntax errors.

Run from the repository root (it takes minutes):

    PYTHONPATH=src python tests/frontend_sweep.py
"""

from __future__ import annotations

import hashlib
import time

from test_frontend import _mutant_text, _prefixes, _token_mutants, frontend_record


def main() -> None:
    t0 = time.perf_counter()
    keys, files = _token_mutants()
    digest = hashlib.sha256()
    for key in keys:
        digest.update(repr(key).encode("utf-8") + frontend_record(_mutant_text(files, *key), key[0]))
    prefixes = 0
    for name in files:
        for text in _prefixes(files, name):
            digest.update(frontend_record(text, name))
            prefixes += 1
    print(f"{digest.hexdigest()}  {len(keys)} mutants, {prefixes} prefixes, {time.perf_counter() - t0:.0f} s")


if __name__ == "__main__":
    main()
