"""Scanner edge cases beyond the main behaviour suite."""

import itertools

from repro.scanner import Scanner, ScannerConfig
from repro.scanner.scanner import _is_ascii_digits
from repro.scanner.time_fsm import _fixed_digits, _raw_digits
from repro.scanner.token_types import TokenType, reconstruct

SC = Scanner()


def texts(message):
    return [t.text for t in SC.scan(message).tokens]


def types(message):
    return [t.type for t in SC.scan(message).tokens]


class TestUrlEdges:
    def test_scheme_only_is_not_url(self):
        assert types("http:// broken")[0] is TokenType.LITERAL

    def test_unusual_scheme(self):
        tokens = SC.scan("via ldap+tls://dir.example.com/ou=x ok").tokens
        assert tokens[1].type is TokenType.URL

    def test_url_in_quotes(self):
        tokens = SC.scan('fetch "https://example.com/x" done').tokens
        url = [t for t in tokens if t.type is TokenType.URL]
        assert url and url[0].text == "https://example.com/x"

    def test_url_with_port_and_fragment(self):
        tokens = SC.scan("at http://h.example.com:8080/a#frag end").tokens
        assert tokens[1].text == "http://h.example.com:8080/a#frag"

    def test_not_a_scheme_mid_word(self):
        # "see:http://x" — colon breaks first, then URL is recognised
        tokens = SC.scan("see:http://example.com/x").tokens
        assert [t.type for t in tokens] == [
            TokenType.LITERAL,
            TokenType.LITERAL,
            TokenType.URL,
        ]


class TestNumbers:
    def test_plus_signed(self):
        assert types("+42")[0] is TokenType.INTEGER

    def test_sign_alone_is_literal(self):
        assert types("-")[0] is TokenType.LITERAL

    def test_double_dot_not_float(self):
        assert types("1..2")[0] is TokenType.LITERAL

    def test_comma_thousands_split(self):
        # ',' is a break char: "1,234" is three tokens
        assert texts("1,234") == ["1", ",", "234"]

    def test_leading_zero_integer(self):
        assert types("007")[0] is TokenType.INTEGER

    def test_exponent_without_fraction(self):
        assert types("x 2e10")[1] is TokenType.FLOAT


class TestStructural:
    def test_nested_brackets(self):
        assert texts("[[x]]") == ["[", "[", "x", "]", "]"]

    def test_only_punctuation(self):
        assert texts("()[]") == ["(", ")", "[", "]"]

    def test_crlf_line_endings(self):
        scanned = SC.scan("line one\r\nline two")
        assert scanned.truncated
        assert reconstruct(scanned.tokens) == "line one"

    def test_leading_whitespace(self):
        scanned = SC.scan("   indented message")
        assert scanned.tokens[0].text == "indented"

    def test_unicode_message(self):
        toks = texts("utilisateur café connecté depuis 10.0.0.1")
        assert "café" in toks

    def test_very_long_token(self):
        long_word = "x" * 5000
        scanned = SC.scan(f"start {long_word} end")
        assert scanned.tokens[1].text == long_word


class TestMaxTokensInteraction:
    def test_cap_with_existing_newline(self):
        scanner = Scanner(ScannerConfig(max_tokens=3))
        scanned = scanner.scan("a b c d e\nrest")
        assert len(scanned.tokens) == 3  # cap includes the REST marker
        assert scanned.tokens[-1].type is TokenType.REST
        assert scanned.truncated

    def test_under_cap_untouched(self):
        scanner = Scanner(ScannerConfig(max_tokens=100))
        scanned = scanner.scan("a b c")
        assert len(scanned.tokens) == 3
        assert not scanned.truncated


class TestSpacingFidelity:
    def test_paper_example_grok_compatible(self):
        # the exact-whitespace property the paper adds for external parsers
        msg = "proxy:5070 close, 403 bytes (426 B) lifetime 00:01"
        assert reconstruct(SC.scan(msg).tokens) == msg

    def test_mixed_adjacent_punctuation(self):
        msg = 'a="quoted",b=2;c=[3]'
        assert reconstruct(SC.scan(msg).tokens) == msg


class TestAsciiDigitTests:
    """``str.isascii() and str.isdigit()`` answers exactly the per-char
    ASCII test it replaced, in the word classifier and the time FSM,
    over every string of length <= 3 from an alphabet that includes
    non-ASCII digits."""

    ALPHABET = (
        "0123456789"
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
        "+-.٣²１"
    )

    @staticmethod
    def per_char(s):
        return bool(s) and all("0" <= c <= "9" for c in s)

    def strings(self):
        for n in range(4):
            for chars in itertools.product(self.ALPHABET, repeat=n):
                yield "".join(chars)

    def test_classifier_digit_test(self):
        for s in self.strings():
            assert _is_ascii_digits(s) == self.per_char(s), repr(s)

    def test_time_fsm_digit_fields(self):
        fixed, raw = _fixed_digits(2, 0, 99), _raw_digits(2)
        for s in self.strings():
            expected = len(s) >= 2 and self.per_char(s[:2])
            assert (raw(s, 0) == 2) == expected, repr(s)
            if len(s) == 3 and self.per_char(s[2]):
                expected = False  # the digit run continues
            assert (fixed(s, 0) == 2) == expected, repr(s)
