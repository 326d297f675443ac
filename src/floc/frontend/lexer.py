"""Tokenizer for MCL.

The token grammar is one regular expression, ``_TOKEN``: at each position its
alternatives are tried in order, and the first that matches is skipped, makes
a token or raises ``MclSyntaxError``.  ``/*@`` and ``@*/`` are tokens; other
comments are skipped.  An identifier starts with a letter (``str.isalpha``)
or ``_`` and goes on with letters, digits (``str.isalnum``) and ``_``.
``Token`` is a ``floc.node.Frozen`` record, not a tuple: read it by field name.
"""

from __future__ import annotations

import re

from floc.frontend.syntax import BINARY_OPS
from floc.node import Frozen

KEYWORDS = {
    "int",
    "bool",
    "void",
    "if",
    "else",
    "while",
    "return",
    "true",
    "false",
    "pure",
    "requires",
    "ensures",
    "loop",
    "invariant",
}

# Longest operators first so '<=' wins over '<'.
_OPERATORS = sorted([*BINARY_OPS, "=", "!", "(", ")", "{", "}", ";", ","], key=len, reverse=True)

_TOKEN = re.compile(
    "|".join(
        f"(?P<{name}>{pattern})"
        for name, pattern in [
            ("skip", r"(?:[ \t\r\n]+|//[^\n]*|/\*(?!@).*?\*/)+"),  # whitespace and comments
            ("ANNOT_OPEN", r"/\*@"),
            ("ANNOT_CLOSE", r"@\*/"),
            ("unterminated", r"/\*"),  # a comment with no "*/"
            ("RESULT", r"\\result"),
            ("OLD", r"\\old"),
            ("escape", r"\\"),  # any other escape
            ("INT", "[0-9]+"),  # \d would also take "٣"
            ("word", r"\w+"),  # a keyword or IDENT; \w is str.isalnum() or "_"
            ("op", "|".join(map(re.escape, _OPERATORS))),
            ("other", "."),
        ]
    ),
    re.DOTALL,
)

_ERRORS = {"unterminated": "unterminated comment", "escape": "unknown escape symbol"}


class Token(Frozen):
    kind: str  # keyword text, operator text, or IDENT/INT/RESULT/OLD/ANNOT_OPEN/ANNOT_CLOSE/EOF
    value: str
    line: int
    col: int

    @property
    def end_col(self) -> int:
        return self.col + max(len(self.value), 1) - 1


class MclSyntaxError(Exception):
    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col
        self.expected = expected


def tokenize(text: str, filename: str = "<input>") -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0  # line_start: the offset of the current line's first character
    for m in _TOKEN.finditer(text):
        kind, value, start = m.lastgroup, m.group(), m.start()
        if kind == "skip":
            newlines = value.count("\n")
            if newlines:
                line += newlines
                line_start = start + value.rindex("\n") + 1
            continue
        col = start - line_start + 1
        if kind == "word":
            if not (value[0].isalpha() or value[0] == "_"):  # \w+ also starts at "²" or "٣"
                raise MclSyntaxError(f"unexpected character {value[0]!r}", line, col)
            kind = value if value in KEYWORDS else "IDENT"
        elif kind == "op":
            kind = value
        elif kind == "other":
            raise MclSyntaxError(f"unexpected character {value!r}", line, col)
        elif kind in _ERRORS:
            raise MclSyntaxError(_ERRORS[kind], line, col)
        tokens.append(Token(kind, value, line, col))
    tokens.append(Token("EOF", "", line, len(text) - line_start + 1))
    return tokens
