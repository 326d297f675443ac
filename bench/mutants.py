"""Single-token source mutants of loop-free corpus functions.

A mutant changes one token inside one function body: it flips a comparison
(``<``/``<=``, ``>``/``>=``, ``==``/``!=``), swaps ``+`` and ``-``, or bumps an
integer literal by one in either direction.  Contracts and comments are never
touched.  The space of mutants is enumerated from the source text alone, in a
fixed order.

The space is small (a few dozen mutants), so a draw takes every mutant once in
an order the seed picks.  Drawing with replacement would let the seed change
the mix of cheap and expensive mutants, and with it every timing.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

# (corpus file stem, function) pairs whose bodies are mutated.
TARGETS = (
    ("straightline", "max2"),
    ("straightline", "abs_val"),
    ("straightline", "dist"),
    ("straightline", "sign"),
    ("straightline", "odd_succ"),
    ("max_fixed", "max"),
    ("sum_upto", "next"),
)

_FLIPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==", "+": "-", "-": "+"}

_TOKEN = re.compile(
    r"(?P<comment>//[^\n]*|/\*.*?\*/)"
    r"|(?P<int>\d+)"
    r"|(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<op><=|>=|==|!=|&&|\|\||[-+*/<>=!(){};,])"
    r"|(?P<space>\s+)",
    re.DOTALL,
)


@dataclass(frozen=True)
class Mutant:
    stem: str  # corpus file stem
    function: str
    offset: int  # character offset of the mutated token in the file
    old: str
    new: str
    source: str  # the whole mutated file

    @property
    def key(self) -> str:
        return f"{self.stem}:{self.function}@{self.offset}:{self.old}->{self.new}"


def _tokens(text: str):
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"cannot tokenize at offset {pos}: {text[pos:pos + 10]!r}")
        if m.lastgroup in ("int", "ident", "op"):
            yield m.lastgroup, m.group(), m.start()
        pos = m.end()


def body_tokens(text: str, function: str) -> list[tuple[str, str, int]]:
    """The tokens strictly inside the braces of ``function``'s body."""
    toks = list(_tokens(text))
    for i, (kind, value, _) in enumerate(toks):
        if kind == "ident" and value == function and toks[i + 1][1] == "(":
            break
    else:
        raise KeyError(function)
    start = next(j for j in range(i, len(toks)) if toks[j][1] == "{")
    depth = 0
    for j in range(start, len(toks)):
        depth += {"{": 1, "}": -1}.get(toks[j][1], 0)
        if depth == 0:
            return toks[start + 1 : j]
    raise ValueError(f"unbalanced braces in {function}")


def _replacements(kind: str, value: str) -> list[str]:
    if kind == "int":
        n = int(value)
        return [str(n + 1)] + ([str(n - 1)] if n >= 1 else [])
    if kind == "op" and value in _FLIPS:
        return [_FLIPS[value]]
    return []


def mutant_space(sources: dict[str, str], targets=TARGETS) -> list[Mutant]:
    """Every single-token mutant of the target bodies, in a fixed order."""
    out = []
    for stem, function in targets:
        text = sources[stem]
        for kind, value, offset in body_tokens(text, function):
            for new in _replacements(kind, value):
                mutated = text[:offset] + new + text[offset + len(value) :]
                out.append(Mutant(stem, function, offset, value, new, mutated))
    return out


def draw(space: list, seed: int) -> list:
    """Every item of ``space`` once, in an order picked by ``seed``; the same
    seed gives the same list."""
    out = list(space)
    random.Random(seed).shuffle(out)
    return out
