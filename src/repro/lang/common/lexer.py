"""Table-driven lexer shared by all four front ends.

Each language supplies a :class:`LexerSpec` (token patterns, keywords,
comment syntax); the :class:`Lexer` produces a :class:`TokenStream`
with the peek/accept/expect helpers recursive-descent parsers need.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.errors import LexError, ParseError

#: Token type of the synthetic end-of-input token.
EOF = "EOF"
#: Token type for newline tokens (only when a spec keeps them).
NEWLINE = "NEWLINE"


@dataclass(frozen=True)
class Token:
    """One lexical token with its source position."""

    type: str
    value: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.type}({self.value!r})@{self.line}:{self.column}"


@dataclass
class LexerSpec:
    """What a language's tokens look like.

    Attributes:
        patterns: Ordered ``(token_type, regex)`` pairs; first match
            wins.  A token type of ``None`` is skipped (whitespace).
            The patterns are joined into one alternation, so none may
            match the empty string or use numbered backreferences.
        keywords: Words that turn an identifier into its own type
            (uppercased type name).
        keywords_case_insensitive: Fold case when matching keywords.
        line_comment: Prefix starting a comment that runs to newline.
        block_comment: ``(open, close)`` delimiters, if any.
        keep_newlines: Emit NEWLINE tokens (for line-oriented YALLL).
    """

    patterns: list[tuple[str | None, str]]
    keywords: set[str] = field(default_factory=set)
    keywords_case_insensitive: bool = False
    line_comment: str | None = None
    block_comment: tuple[str, str] | None = None
    keep_newlines: bool = False


class Lexer:
    """Compiles a :class:`LexerSpec` and tokenizes source text."""

    def __init__(self, spec: LexerSpec):
        self.spec = spec
        # One alternation with a named group per pattern: ``re`` tries the
        # alternatives in order, so the first pattern that matches wins.
        for _token_type, pattern in spec.patterns:
            if re.match(pattern, ""):
                raise ValueError(
                    f"lexer pattern {pattern!r} matches the empty string"
                )
        self._scanner = re.compile("|".join(
            f"(?P<_{index}>{pattern})"
            for index, (_token_type, pattern) in enumerate(spec.patterns)
        )).match
        self._types = {
            f"_{index}": token_type
            for index, (token_type, _pattern) in enumerate(spec.patterns)
        }
        if spec.keywords_case_insensitive:
            self._keywords = {k.lower() for k in spec.keywords}
        else:
            self._keywords = set(spec.keywords)

    def tokenize(self, text: str) -> "TokenStream":
        tokens: list[Token] = []
        line, column = 1, 1
        position = 0
        length = len(text)
        spec = self.spec
        while position < length:
            # Comments.
            if spec.line_comment and text.startswith(spec.line_comment, position):
                end = text.find("\n", position)
                position = length if end < 0 else end
                continue
            if spec.block_comment and text.startswith(
                spec.block_comment[0], position
            ):
                close = text.find(
                    spec.block_comment[1], position + len(spec.block_comment[0])
                )
                if close < 0:
                    raise LexError("unterminated comment", line, column)
                consumed = text[position : close + len(spec.block_comment[1])]
                line, column = _advance(consumed, line, column)
                position = close + len(spec.block_comment[1])
                continue
            if text[position] == "\n":
                if spec.keep_newlines and tokens and tokens[-1].type != NEWLINE:
                    tokens.append(Token(NEWLINE, "\n", line, column))
                line += 1
                column = 1
                position += 1
                continue
            match = self._scanner(text, position)
            if match is None or match.end() == position:
                raise LexError(
                    f"unexpected character {text[position]!r}", line, column
                )
            value = match.group()
            token_type = self._types[match.lastgroup]
            if token_type is not None:
                resolved = self._classify(token_type, value)
                tokens.append(Token(resolved, value, line, column))
            line, column = _advance(value, line, column)
            position = match.end()
        tokens.append(Token(EOF, "", line, column))
        return TokenStream(tokens)

    def _classify(self, token_type: str, value: str) -> str:
        if token_type == "IDENT":
            needle = (
                value.lower()
                if self.spec.keywords_case_insensitive
                else value
            )
            if needle in self._keywords:
                return needle.upper()
        return token_type


def _advance(consumed: str, line: int, column: int) -> tuple[int, int]:
    """The position just after ``consumed``, which started at line:column."""
    newlines = consumed.count("\n")
    if newlines:
        return line + newlines, len(consumed) - consumed.rfind("\n")
    return line, column + len(consumed)


class TokenStream:
    """Cursor over a token list with parser conveniences."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._index = 0

    @property
    def current(self) -> Token:
        return self._tokens[self._index]

    def peek(self, ahead: int = 0) -> Token:
        index = min(self._index + ahead, len(self._tokens) - 1)
        return self._tokens[index]

    def at(self, *types: str) -> bool:
        return self.current.type in types

    def advance(self) -> Token:
        token = self.current
        if token.type != EOF:
            self._index += 1
        return token

    def accept(self, *types: str) -> Token | None:
        """Consume and return the current token if it matches."""
        if self.at(*types):
            return self.advance()
        return None

    def expect(self, *types: str) -> Token:
        """Consume a token of the given type or raise ParseError."""
        if self.at(*types):
            return self.advance()
        expected = " or ".join(types)
        raise ParseError(
            f"expected {expected}, found {self.current.type} "
            f"({self.current.value!r})",
            self.current.line,
            self.current.column,
        )

    def skip_newlines(self) -> None:
        while self.at(NEWLINE):
            self.advance()

    def at_end(self) -> bool:
        return self.at(EOF)
