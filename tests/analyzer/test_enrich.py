"""Analysis-time enrichment: key/value pairs, e-mails, host names."""

import pytest

from repro.analyzer.enrich import enrich_tokens, enrich_types, is_email, is_hostname
from repro.scanner import Scanner
from repro.scanner.token_types import TokenType

SC = Scanner()


def enriched(message: str):
    return enrich_tokens(SC.scan(message).tokens)


class TestKeyValue:
    def test_kv_triple_retyped(self):
        tokens = enriched("rc = 0 done")
        assert tokens[0].type is TokenType.KEY
        assert tokens[2].type is TokenType.INTEGER
        assert tokens[2].semantic == "rc"

    def test_kv_without_spaces(self):
        tokens = enriched("user=root")
        assert tokens[0].type is TokenType.KEY
        assert tokens[2].type is TokenType.VALUE
        assert tokens[2].semantic == "user"

    def test_literal_value_becomes_variable(self):
        tokens = enriched("state=active")
        assert tokens[2].type is TokenType.VALUE
        assert tokens[2].type.is_variable()

    def test_key_must_start_alpha(self):
        tokens = enriched("1=2")
        assert tokens[0].type is TokenType.INTEGER

    def test_double_equals_not_kv(self):
        tokens = enriched("a = = b")
        assert tokens[0].type is TokenType.LITERAL

    def test_original_tokens_untouched(self):
        scanned = SC.scan("user=root")
        enrich_tokens(scanned.tokens)
        assert scanned.tokens[0].type is TokenType.LITERAL


class TestEmail:
    @pytest.mark.parametrize(
        "addr", ["ops@example.com", "a.b-c@dept.example.fr", "x@y.io"]
    )
    def test_positive(self, addr):
        assert is_email(addr)
        assert enriched(f"mail from {addr}")[2].type is TokenType.EMAIL

    @pytest.mark.parametrize(
        "text", ["not-an-email", "@example.com", "a@b", "a@@b.com", "a@b..com"]
    )
    def test_negative(self, text):
        assert not is_email(text)


class TestHostname:
    @pytest.mark.parametrize(
        "host",
        ["node17.cluster.example.com", "proxy.cse.cuhk.edu.hk", "db01.example.com",
         "web.example.fr"],
    )
    def test_positive(self, host):
        assert is_hostname(host)
        assert enriched(f"connect {host} ok")[1].type is TokenType.HOST

    @pytest.mark.parametrize(
        "text",
        [
            "archive.tar",  # two labels, unknown TLD
            "1.5",  # decimal
            "dfs.DataNode$PacketResponder",  # java component ($ illegal)
            "a..b.com",
            ".leading.com",
            "trailing.com.",
            "192.168.1.5",  # numeric last label
            "noDotsHere",
        ],
    )
    def test_negative(self, text):
        assert not is_hostname(text)


class TestLengthPreserved:
    def test_enrichment_never_changes_token_count(self):
        for message in (
            "user=root uid = 0 from ops@example.com at node1.example.com",
            "a b c",
            "",
        ):
            tokens = SC.scan(message).tokens
            assert len(enrich_tokens(tokens)) == len(tokens)


class TestColumnEnrichment:
    """``enrich_types`` is ``enrich_tokens`` on the types column: type
    for type, and the k=v value's semantic tag is the text two
    positions back exactly where that position is typed ``KEY``."""

    def test_equals_enrich_tokens(self, message_generator):
        messages = message_generator.messages(400) + [
            "user=root uid = 0 from ops@example.com at node1.example.com",
            "a = = b x = y = z k= v",
            "rc = 0 done state=active mail=ops@example.com",
        ]
        memo = {}  # shared: later messages hit it
        for message in messages:
            tokens = SC.scan(message).tokens
            texts = [tok.text for tok in tokens]
            types = [tok.type for tok in tokens]
            expected = enrich_tokens(tokens)
            out = enrich_types(texts, types, memo)
            assert out == [tok.type for tok in expected]
            assert types == [tok.type for tok in tokens]  # a copy is retyped
            semantics = [
                texts[i - 2] if i > 1 and out[i - 2] is TokenType.KEY else None
                for i in range(len(out))
            ]
            assert semantics == [tok.semantic for tok in expected]
