"""The shared lexer toolkit."""

import pytest

from repro.errors import LexError, ParseError
from repro.lang.common.lexer import EOF, NEWLINE, Lexer, LexerSpec


def make_lexer(**overrides):
    spec = LexerSpec(
        patterns=[
            (None, r"[ \t]+"),
            ("NUMBER", r"[0-9]+"),
            ("IDENT", r"[A-Za-z_][A-Za-z0-9_]*"),
            ("PLUS", r"\+"),
        ],
        keywords={"begin", "end"},
        keywords_case_insensitive=True,
        **overrides,
    )
    return Lexer(spec)


class TestTokenization:
    def test_basic(self):
        stream = make_lexer().tokenize("abc 12 +")
        types = []
        while not stream.at_end():
            types.append(stream.advance().type)
        assert types == ["IDENT", "NUMBER", "PLUS"]

    def test_keywords_case_insensitive(self):
        stream = make_lexer().tokenize("BEGIN x End")
        assert stream.advance().type == "BEGIN"
        assert stream.advance().type == "IDENT"
        assert stream.advance().type == "END"

    def test_positions(self):
        stream = make_lexer().tokenize("a\n  b")
        first = stream.advance()
        second = stream.advance()
        assert (first.line, first.column) == (1, 1)
        assert (second.line, second.column) == (2, 3)

    def test_unknown_character(self):
        with pytest.raises(LexError):
            make_lexer().tokenize("a @ b")

    def test_eof_token(self):
        stream = make_lexer().tokenize("")
        assert stream.current.type == EOF
        assert stream.at_end()

    def test_line_comments(self):
        lexer = make_lexer(line_comment=";")
        stream = lexer.tokenize("a ; this is noise\nb")
        assert stream.advance().value == "a"
        assert stream.advance().value == "b"

    def test_block_comments_track_lines(self):
        lexer = make_lexer(block_comment=("/*", "*/"))
        stream = lexer.tokenize("a /* one\ntwo */ b")
        stream.advance()
        assert stream.advance().line == 2

    def test_unterminated_block_comment(self):
        lexer = make_lexer(block_comment=("/*", "*/"))
        with pytest.raises(LexError):
            lexer.tokenize("a /* never closed")

    def test_newlines_kept_when_requested(self):
        lexer = make_lexer(keep_newlines=True)
        stream = lexer.tokenize("a\nb")
        assert stream.advance().type == "IDENT"
        assert stream.advance().type == NEWLINE
        assert stream.advance().type == "IDENT"

    def test_consecutive_newlines_collapse(self):
        lexer = make_lexer(keep_newlines=True)
        stream = lexer.tokenize("a\n\n\nb")
        stream.advance()
        assert stream.advance().type == NEWLINE
        assert stream.advance().type == "IDENT"


def whitespace_lexer():
    """The MPL/EMPL/SIMPL/S* shape: one ``\\s+`` pattern skips newlines too."""
    return Lexer(LexerSpec(patterns=[
        (None, r"\s+"),
        ("IDENT", r"[A-Za-z_][A-Za-z0-9_]*"),
        ("PLUS", r"\+"),
    ]))


def drain(stream):
    """Every token before EOF."""
    found = []
    while not stream.at_end():
        found.append(stream.advance())
    return found


class TestScanner:
    def test_first_pattern_wins_not_longest(self):
        lexer = Lexer(LexerSpec(patterns=[
            ("NUMBER", r"[0-9]+"),
            ("HEX", r"0x[0-9a-f]+"),
            ("IDENT", r"[a-z][a-z0-9]*"),
        ]))
        tokens = drain(lexer.tokenize("0x1f"))
        assert [(t.type, t.value) for t in tokens] == [
            ("NUMBER", "0"), ("IDENT", "x1f"),
        ]

    def test_groups_inside_patterns_do_not_leak(self):
        lexer = Lexer(LexerSpec(patterns=[
            (None, r" +"),
            ("NUMBER", r"-?(0x[0-9a-f]+|[0-9]+)"),
            ("IDENT", r"(?P<word>[a-z]+)"),
        ]))
        tokens = drain(lexer.tokenize("-0x1f ab 7"))
        assert [t.type for t in tokens] == ["NUMBER", "IDENT", "NUMBER"]

    def test_pattern_matching_empty_string_rejected(self):
        with pytest.raises(ValueError, match="empty string"):
            Lexer(LexerSpec(patterns=[("A", r"a"), ("B", r"b*")]))


class TestWhitespaceSpanningNewlines:
    def test_trailing_whitespace_before_newline(self):
        tokens = drain(whitespace_lexer().tokenize("a  \nb"))
        assert [(t.value, t.line, t.column) for t in tokens] == [
            ("a", 1, 1), ("b", 2, 1),
        ]

    def test_whitespace_only_line(self):
        tokens = drain(whitespace_lexer().tokenize("a\n   \n  b + c"))
        assert [(t.value, t.line, t.column) for t in tokens] == [
            ("a", 1, 1), ("b", 3, 3), ("+", 3, 5), ("c", 3, 7),
        ]

    def test_parse_error_line_after_indented_blank_line(self, hm1):
        from repro.lang.mpl import compile_mpl

        source = "program p;\nbegin\n    R0 -> R3;\n    \n    R3 +\n"
        with pytest.raises(ParseError) as error:
            compile_mpl(source, hm1)
        assert error.value.line == 6


class TestStream:
    def test_expect_success_and_failure(self):
        stream = make_lexer().tokenize("a 1")
        assert stream.expect("IDENT").value == "a"
        with pytest.raises(ParseError):
            stream.expect("IDENT")

    def test_accept_returns_none(self):
        stream = make_lexer().tokenize("1")
        assert stream.accept("IDENT") is None
        assert stream.accept("NUMBER").value == "1"

    def test_peek_does_not_consume(self):
        stream = make_lexer().tokenize("a b")
        assert stream.peek(1).value == "b"
        assert stream.current.value == "a"

    def test_peek_past_end_is_eof(self):
        stream = make_lexer().tokenize("a")
        assert stream.peek(10).type == EOF
