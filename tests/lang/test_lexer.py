"""Lexer tests."""

import pytest

from repro.lang.lexer import LexError, TokenKind, tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)][:-1]  # drop EOF


class TestTokenize:
    def test_empty_input_gives_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_keywords_vs_identifiers(self):
        assert kinds("let x in") == [
            TokenKind.KW_LET,
            TokenKind.IDENT,
            TokenKind.KW_IN,
        ]
        assert kinds("lettuce") == [TokenKind.IDENT]

    def test_integers(self):
        tokens = tokenize("42 007")
        assert tokens[0].text == "42"
        assert tokens[1].text == "007"

    def test_record_tokens(self):
        assert kinds("@{ @@ @[ @ # ~") == [
            TokenKind.AT_BRACE,
            TokenKind.AT_AT,
            TokenKind.AT_BRACKET,
            TokenKind.AT,
            TokenKind.HASH,
            TokenKind.TILDE,
        ]

    def test_arrow_vs_minus_like(self):
        assert kinds("->") == [TokenKind.ARROW]

    def test_lambda_backslash(self):
        assert kinds("\\x -> x") == [
            TokenKind.LAMBDA,
            TokenKind.IDENT,
            TokenKind.ARROW,
            TokenKind.IDENT,
        ]

    def test_comments_skipped(self):
        assert kinds("1 -- comment\n2") == [TokenKind.INT, TokenKind.INT]

    def test_line_tracking(self):
        tokens = tokenize("a\nb")
        assert tokens[0].span.line == 1
        assert tokens[1].span.line == 2

    def test_prime_in_identifier(self):
        tokens = tokenize("s' x_1")
        assert tokens[0].text == "s'"
        assert tokens[1].text == "x_1"

    def test_unknown_character_raises(self):
        with pytest.raises(LexError):
            tokenize("a $ b")

    def test_braces_brackets_parens(self):
        assert kinds("{}()[],;=") == [
            TokenKind.LBRACE,
            TokenKind.RBRACE,
            TokenKind.LPAREN,
            TokenKind.RPAREN,
            TokenKind.LBRACKET,
            TokenKind.RBRACKET,
            TokenKind.COMMA,
            TokenKind.SEMI,
            TokenKind.EQUALS,
        ]


class TestRegion:
    """``tokenize(source, start, end, line, column)`` lexes a region of a
    larger source exactly as lexing the whole source would."""

    SOURCE = "a = 1;\n  bb = {x = 2}; -- note\n  c = bb\n"

    def test_region_tokens_match_the_whole_source(self):
        whole = tokenize(self.SOURCE)
        start = self.SOURCE.index("bb")
        end = self.SOURCE.index("c =")
        region = tokenize(self.SOURCE, start, end, 2, 3)
        expected = [t for t in whole if start <= t.offset < end]
        assert [(t.kind, t.text, t.span, t.offset) for t in region[:-1]] == [
            (t.kind, t.text, t.span, t.offset) for t in expected
        ]
        assert region[-1].kind is TokenKind.EOF
        assert region[-1].offset == end

    @pytest.mark.parametrize("inside", ["-- note", "bb"])
    def test_token_running_past_the_region_raises(self, inside):
        # The region ends one character into a comment or a name.
        end = self.SOURCE.index(inside) + 1
        with pytest.raises(LexError):
            tokenize(self.SOURCE, 0, end)
