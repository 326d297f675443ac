from __future__ import annotations

import tokenize
from pathlib import Path

import floc

# CPython's parser doubles its token array when it fills, so compiling a
# module of more than 4096 tokens takes about 0.3 MB more memory.  floc is
# compiled from source on every fresh start, and that shows in its peak RSS.
_MAX_TOKENS = 4096
_UNPARSED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}


def _parser_tokens(path: Path) -> int:
    with path.open("rb") as f:
        return sum(1 for tok in tokenize.tokenize(f.readline) if tok.type not in _UNPARSED)


def test_every_module_stays_under_4096_parser_tokens():
    root = Path(floc.__file__).parent
    sizes = {path.relative_to(root).as_posix(): _parser_tokens(path) for path in root.rglob("*.py")}
    assert len(sizes) >= 15 and "frontend/parser.py" in sizes
    assert 2000 < sizes["solvers.py"] < _MAX_TOKENS
    assert {name: n for name, n in sizes.items() if n >= _MAX_TOKENS} == {}
