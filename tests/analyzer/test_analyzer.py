"""Analyser behaviour: merge rules, constant folding, legacy mode."""

from hypothesis import given, settings, strategies as st

from repro.analyzer import Analyzer, AnalyzerConfig, LegacyAnalyzer
from repro.analyzer.analyzer import FOLD_MIN_SUPPORT, MERGE_THRESHOLD
from repro.parser import Parser
from repro.scanner import Scanner

SC = Scanner()


def analyze(messages, config=None):
    return Analyzer(config).analyze([SC.scan(m) for m in messages])


def pattern_texts(messages, config=None):
    return sorted(p.text for p in analyze(messages, config))


class TestIdMerge:
    def test_block_ids_merge(self):
        texts = pattern_texts(
            [f"deleting block blk_{i} now" for i in (101, 202, 303)]
        )
        assert texts == ["deleting block %alphanum% now"]

    def test_hex_ids_merge_without_digits(self):
        # letters-only hashes are still identifiers
        texts = pattern_texts(["commit deadbeef done", "commit cafebabe done"])
        assert texts == ["commit %alphanum% done"]

    def test_two_values_suffice(self):
        texts = pattern_texts(["job j1 ok", "job j2 ok"])
        assert texts == ["job %alphanum% ok"]

    def test_plain_words_not_id_merged(self):
        texts = pattern_texts(["status up now", "status down now"])
        assert len(texts) == 2


class TestWordMerge:
    def test_above_threshold_merges(self):
        messages = [f"login user{u} accepted" for u in "abcdef"]  # 6 distinct
        # usernames here are pure alpha: usera, userb, ...
        messages = [f"login {u} accepted" for u in
                    ("alpha", "bravo", "carol", "delta", "echo", "frank")]
        assert pattern_texts(messages) == ["login %string% accepted"]

    def test_at_or_below_threshold_stays_split(self):
        messages = [f"login {u} accepted" for u in ("alpha", "bravo", "carol")]
        assert len(pattern_texts(messages)) == 3

    def test_dissimilar_events_not_merged(self):
        # five events sharing only token count; children differ entirely
        messages = [
            "alpha opens the gate",
            "bravo closes a window",
            "carol deletes some files",
            "delta rewrites those rules",
            "echo restarts every daemon",
        ]
        assert len(pattern_texts(messages)) == 5

    def test_merge_threshold_is_four(self):
        users = ("alpha", "bravo", "carol", "delta", "echo")
        assert MERGE_THRESHOLD == 4
        four = [f"login {u} accepted" for u in users[:4]]
        assert len(pattern_texts(four)) == 4
        five = [f"login {u} accepted" for u in users]
        assert pattern_texts(five) == ["login %string% accepted"]


class TestConstantFolding:
    def test_single_valued_integer_folds(self):
        """Limitation 4 mitigation: a port that is always 22 is static."""
        messages = [f"conn from 10.0.0.{i} port 22" for i in range(5)]
        texts = pattern_texts(messages)
        assert texts == ["conn from %srcip% port 22"]

    def test_varying_integer_stays_variable(self):
        messages = [f"conn from 10.0.0.{i} port {22000 + i}" for i in range(5)]
        assert pattern_texts(messages) == ["conn from %srcip% port %srcport%"]

    def test_folding_disabled(self):
        messages = [f"conn from 10.0.0.{i} port 22" for i in range(5)]
        config = AnalyzerConfig(fold_constants=False)
        assert pattern_texts(messages, config) == [
            "conn from %srcip% port %srcport%"
        ]

    def test_time_never_folds(self):
        messages = ["at 08:12:33 tick"] * 5
        texts = pattern_texts(messages)
        assert texts == ["at %msgtime% tick"]

    def test_below_min_support_not_folded(self):
        assert FOLD_MIN_SUPPORT == 3
        two = [f"conn from 10.0.0.{i} port 22" for i in range(2)]
        assert pattern_texts(two) == ["conn from %srcip% port %srcport%"]
        three = [f"conn from 10.0.0.{i} port 22" for i in range(3)]
        assert pattern_texts(three) == ["conn from %srcip% port 22"]


class TestEmission:
    def test_support_and_examples(self):
        messages = [f"delete blk_{i} ok" for i in range(6)]
        (pattern,) = analyze(messages)
        assert pattern.support == 6
        assert len(pattern.examples) == 3
        assert all(e in messages for e in pattern.examples)

    def test_empty_input(self):
        assert analyze([]) == []

    def test_exact_spacing_preserved(self):
        messages = [f"rc={i} done" for i in range(5)]
        (pattern,) = analyze(messages)
        assert pattern.text == "rc=%rc% done"

    def test_kv_semantic_naming(self):
        messages = [f"login user={u} ok" for u in ("ann", "bob", "cyd", "dan", "eve")]
        (pattern,) = analyze(messages)
        assert "%user%" in pattern.text


class TestLegacyAnalyzer:
    def test_handles_mixed_lengths_in_one_trie(self):
        messages = ["a b", "a b c", "a b c d"]
        patterns = LegacyAnalyzer().analyze([SC.scan(m) for m in messages])
        assert len(patterns) == 3

    def test_never_folds_constants(self):
        messages = [f"conn from 10.0.0.{i} port 22" for i in range(5)]
        patterns = LegacyAnalyzer().analyze([SC.scan(m) for m in messages])
        assert patterns[0].render(exact_spacing=False).endswith("%srcport%")

    def test_pairwise_merge_groups_similar_siblings(self):
        messages = [f"login {u} accepted" for u in ("alpha", "bravo")]
        patterns = LegacyAnalyzer().analyze([SC.scan(m) for m in messages])
        # the legacy comparison merges at >=2 similar siblings
        assert len(patterns) == 1

    def test_records_trie_size(self):
        analyzer = LegacyAnalyzer()
        analyzer.analyze([SC.scan("a b c")])
        assert analyzer.last_trie_nodes >= 4


class TestProperties:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["open", "close", "read"]),
                st.integers(0, 10_000),
                st.sampled_from(["ok", "failed"]),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_patterns_match_their_own_examples(self, rows):
        """Core invariant: every discovered pattern parses every example
        message stored with it."""
        messages = [f"{verb} file {num} {status}" for verb, num, status in rows]
        patterns = analyze(messages)
        parser = Parser(patterns)
        for pattern in patterns:
            for example in pattern.examples:
                hit = parser.match(SC.scan(example))
                assert hit is not None

    @given(
        st.lists(
            st.integers(0, 3),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_supports_sum_to_message_count(self, picks):
        templates = [
            "alpha {} beta",
            "gamma delta {}",
            "x y",
            "solo",
        ]
        messages = [templates[p].format(i) for i, p in enumerate(picks)]
        by_len = {}
        for m in messages:
            by_len.setdefault(len(SC.scan(m).tokens), []).append(m)
        total = 0
        for group in by_len.values():
            for pattern in analyze(group):
                total += pattern.support
        assert total == len(messages)

    def test_deterministic(self):
        messages = [f"evt {i} blk_{i * 7} u{i % 3}" for i in range(40)]
        a = pattern_texts(messages)
        b = pattern_texts(messages)
        assert a == b


class TestMergeMechanics:
    def test_typed_and_literal_siblings_never_cross_merge(self):
        """The Proxifier mechanism: INTEGER-typed tokens and alnum
        literals at the same position stay on separate edges."""
        messages = ["sent (426) ok", "sent (64K) ok", "sent (311) ok",
                    "sent (12K) ok"]
        patterns = analyze(messages)
        classes = sorted(
            t.var_class.value
            for p in patterns
            for t in p.tokens
            if t.is_variable
        )
        assert classes == ["alphanum", "integer"]

    def test_punctuation_siblings_never_merge(self):
        messages = ["x ( y", "x ) y", "x [ y", "x ] y", "x , y", "x ; y"]
        patterns = analyze(messages)
        assert len(patterns) == 6  # six punctuation variants stay distinct

    def test_merged_variable_edge_reused_across_groups(self):
        # two id groups merging at the same node fold into one V-edge
        messages = [f"evt blk_{i} end" for i in range(3)] + [
            f"evt run_{i} end" for i in range(3)
        ]
        patterns = analyze(messages)
        assert len(patterns) == 1
        assert patterns[0].support == 6

    def test_semantic_key_separates_typed_edges(self):
        # port=5 and size=5: same token type, different k=v semantics
        messages = [f"conn port = {i} ok" for i in range(4)] + [
            f"conn size = {i} ok" for i in range(4)
        ]
        patterns = analyze(messages)
        texts = sorted(p.text for p in patterns)
        assert texts == ["conn port = %port% ok", "conn size = %size% ok"]
