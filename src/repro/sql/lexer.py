"""Tokenizer for the SQL dialect."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List

from repro.sql.errors import SqlParseError

KEYWORDS = {
    "select",
    "from",
    "where",
    "group",
    "having",
    "order",
    "by",
    "as",
    "and",
    "or",
    "not",
    "like",
    "in",
    "between",
    "is",
    "null",
    "asc",
    "desc",
    "limit",
    "distinct",
    "true",
    "false",
    "case",
    "when",
    "then",
    "else",
    "end",
}


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    COMMA = ","
    LPAREN = "("
    RPAREN = ")"
    STAR = "*"
    DOT = "."
    EOF = "eof"


@dataclass(frozen=True)
class Token:
    type: TokenType
    text: str
    position: int

    def is_keyword(self, *words: str) -> bool:
        return self.type is TokenType.KEYWORD and self.text in words

    def __repr__(self) -> str:
        return f"Token({self.type.value}, {self.text!r})"


_OPERATORS = ("<=", ">=", "<>", "!=", "=", "<", ">", "+", "-", "/", "%", "||")


def tokenize(text: str) -> List[Token]:
    """Tokenize SQL text; raises :class:`SqlParseError` on bad input."""
    tokens: List[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and text.startswith("--", i):
            newline = text.find("\n", i)
            i = n if newline < 0 else newline + 1
            continue
        if ch == "'":
            value, i = _read_string(text, i)
            tokens.append(Token(TokenType.STRING, value, i))
            continue
        if ch == '"' or ch == "`":
            value, i = _read_quoted_ident(text, i, ch)
            tokens.append(Token(TokenType.IDENT, value, i))
            continue
        if ch.isdigit() or (
            ch == "." and i + 1 < n and text[i + 1].isdigit()
        ):
            value, i = _read_number(text, i)
            tokens.append(Token(TokenType.NUMBER, value, i))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            lowered = word.lower()
            if lowered in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, lowered, start))
            else:
                tokens.append(Token(TokenType.IDENT, word, start))
            continue
        if ch == ",":
            tokens.append(Token(TokenType.COMMA, ",", i))
            i += 1
            continue
        if ch == "(":
            tokens.append(Token(TokenType.LPAREN, "(", i))
            i += 1
            continue
        if ch == ")":
            tokens.append(Token(TokenType.RPAREN, ")", i))
            i += 1
            continue
        if ch == "*":
            tokens.append(Token(TokenType.STAR, "*", i))
            i += 1
            continue
        if ch == ".":
            tokens.append(Token(TokenType.DOT, ".", i))
            i += 1
            continue
        for operator in _OPERATORS:
            if text.startswith(operator, i):
                tokens.append(Token(TokenType.OPERATOR, operator, i))
                i += len(operator)
                break
        else:
            raise SqlParseError(f"unexpected character {ch!r}", i)
    tokens.append(Token(TokenType.EOF, "", n))
    return tokens


def _read_string(text: str, start: int) -> tuple[str, int]:
    """Read a single-quoted string with '' escaping."""
    i = start + 1
    parts: List[str] = []
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "'":
            if i + 1 < n and text[i + 1] == "'":
                parts.append("'")
                i += 2
                continue
            return "".join(parts), i + 1
        parts.append(ch)
        i += 1
    raise SqlParseError("unterminated string literal", start)


def _read_quoted_ident(text: str, start: int, quote: str) -> tuple[str, int]:
    end = text.find(quote, start + 1)
    if end < 0:
        raise SqlParseError("unterminated quoted identifier", start)
    return text[start + 1 : end], end + 1


def _read_number(text: str, start: int) -> tuple[str, int]:
    i = start
    n = len(text)
    seen_dot = False
    seen_exp = False
    while i < n:
        ch = text[i]
        if ch.isdigit():
            i += 1
        elif ch == "." and not seen_dot and not seen_exp:
            seen_dot = True
            i += 1
        elif ch in "eE" and not seen_exp and i > start:
            seen_exp = True
            i += 1
            if i < n and text[i] in "+-":
                i += 1
        else:
            break
    return text[start:i], i
