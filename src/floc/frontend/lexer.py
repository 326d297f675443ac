"""Tokenizer for MCL.

Annotation markers ``/*@`` and ``@*/`` are tokens; plain ``/* ... */`` and
``// ...`` are comments.  ``\\result`` and ``\\old`` lex as dedicated tokens.
"""

from __future__ import annotations

from dataclasses import dataclass

from floc.frontend.syntax import BINARY_OPS

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


@dataclass(frozen=True)
class Token:
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
    i = 0
    line = 1
    col = 1
    n = len(text)

    def advance(k: int) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        c = text[i]
        if c in " \t\r\n":
            advance(1)
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                advance(1)
            continue
        if text.startswith("/*@", i):
            tokens.append(Token("ANNOT_OPEN", "/*@", line, col))
            advance(3)
            continue
        if text.startswith("@*/", i):
            tokens.append(Token("ANNOT_CLOSE", "@*/", line, col))
            advance(3)
            continue
        if text.startswith("/*", i):
            start_line, start_col = line, col
            advance(2)
            while i < n and not text.startswith("*/", i):
                advance(1)
            if i >= n:
                raise MclSyntaxError("unterminated comment", start_line, start_col)
            advance(2)
            continue
        if c == "\\":
            for word, kind in (("\\result", "RESULT"), ("\\old", "OLD")):
                if text.startswith(word, i):
                    tokens.append(Token(kind, word, line, col))
                    advance(len(word))
                    break
            else:
                raise MclSyntaxError("unknown escape symbol", line, col)
            continue
        if "0" <= c <= "9":  # str.isdigit would also take "²" and "٣"
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(Token("INT", text[i:j], line, col))
            advance(j - i)
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = word if word in KEYWORDS else "IDENT"
            tokens.append(Token(kind, word, line, col))
            advance(j - i)
            continue
        for op in _OPERATORS:
            if text.startswith(op, i):
                tokens.append(Token(op, op, line, col))
                advance(len(op))
                break
        else:
            raise MclSyntaxError(f"unexpected character {c!r}", line, col)

    tokens.append(Token("EOF", "", line, col))
    return tokens
