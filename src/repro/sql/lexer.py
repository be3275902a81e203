"""SQL lexer.

Produces a flat token stream; keywords are not distinguished from
identifiers here. Each token carries a ``key``, the one thing the parser
compares: an unquoted identifier upper-cased (keywords match
case-insensitively, as PostgreSQL's grammar effectively does for most of
its keyword classes), an operator as written, and ``None`` for a
literal, a quoted identifier or EOF — so a quoted identifier is never a
keyword.

One compiled pattern matches every token class. Its character classes
are Python's own predicates: ``\\s`` is ``str.isspace``, ``\\w`` is
``isalnum()`` or ``_`` and ``\\d`` is ``isdecimal``. The characters where
``str.isdigit`` / ``isalpha`` part from ``\\d`` / ``[^\\W\\d]`` (a
superscript digit, a vulgar fraction, a Roman numeral) are rare enough
that a text holding one gets the pattern extended by exactly those
characters.
"""

from __future__ import annotations

import enum
import re
from typing import List, NamedTuple, Optional

from repro.errors import SqlSyntaxError


class TokenKind(enum.Enum):
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    EOF = "eof"


class Token(NamedTuple):
    kind: TokenKind
    value: str
    position: int
    #: What the parser matches keywords and operators against (see the
    #: module docstring); ``None`` never equals a keyword or operator.
    key: Optional[str] = None


#: ``{digit}`` is one digit (``str.isdigit``), ``{start}`` an identifier's
#: first character (``str.isalpha`` or ``_``). Each match takes the
#: whitespace before its token along; a comment, or whitespace at the end
#: of the text, is a ``skip`` match of its own. Strings keep the position
#: *after* the closing quote, every other token its first character's.
_TEMPLATE = r"""
    \s*
    (?:
      (?P<skip>\s+|--[^\n]*\n?|/\*.*?\*/)
    | (?P<number>(?:{digit}+(?:\.{digit}+)?|\.{digit}+)(?:[eE][+-]?{digit}+)?)
    | (?P<word>{start}\w*)
    | (?P<op><=|>=|<>|!=|\|\||::|[-+*%(),;.=<>\[\]]|/(?!\*))
    | (?P<string>'[^']*(?:''[^']*)*'(?!'))
    | (?P<quoted>"[^"]*")
    | (?P<error>.)
    )
"""


def _compile(digits: str = "", non_starters: str = "") -> "re.Pattern[str]":
    digit = rf"[\d{re.escape(digits)}]" if digits else r"\d"
    start = r"[^\W\d]"
    if non_starters:
        start = rf"(?![{re.escape(non_starters)}]){start}"
    return re.compile(
        _TEMPLATE.format(digit=digit, start=start), re.VERBOSE | re.DOTALL
    )


_TOKEN = _compile()


def _pattern(text: str) -> "re.Pattern[str]":
    if text.isascii():
        return _TOKEN
    chars = "".join(dict.fromkeys(text))
    # Digits that are not decimal start and continue a number; numeric
    # characters that are not letters never start a word.
    digits = "".join(c for c in chars if c.isdigit() and not c.isdecimal())
    non_starters = "".join(
        c for c in chars if c.isnumeric() and not c.isalpha() and not c.isdecimal()
    )
    if not digits and not non_starters:
        return _TOKEN
    return _compile(digits, non_starters)


def tokenize(text: str) -> List[Token]:
    """Tokenize SQL text; raises :class:`SqlSyntaxError` on bad input."""
    tokens: List[Token] = []
    append = tokens.append
    for match in _pattern(text).finditer(text):
        group = match.lastgroup
        value = match.group(group)
        if group == "word":
            append(Token(TokenKind.IDENT, value, match.start(group), value.upper()))
        elif group == "op":
            append(Token(TokenKind.OPERATOR, value, match.start(group), value))
        elif group == "number":
            append(Token(TokenKind.NUMBER, value, match.start(group)))
        elif group == "string":
            append(Token(TokenKind.STRING, value[1:-1].replace("''", "'"), match.end()))
        elif group == "quoted":
            append(Token(TokenKind.IDENT, value[1:-1], match.start(group)))
        elif group == "error":
            raise _error(text, match.start(group))
    tokens.append(Token(TokenKind.EOF, "", len(text)))
    return tokens


def _error(text: str, position: int) -> SqlSyntaxError:
    char = text[position]
    if char == "'":
        return SqlSyntaxError(f"unterminated string literal at {position}")
    if char == '"':
        return SqlSyntaxError(f"unterminated quoted identifier at {position}")
    if text.startswith("/*", position):
        return SqlSyntaxError(f"unterminated comment at {position}")
    return SqlSyntaxError(f"unexpected character {char!r} at position {position}")
