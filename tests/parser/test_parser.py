"""Parser: variable acceptance rules, best-match scoring, REST handling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyzer.pattern import Pattern, PatternToken, VarClass
from repro.parser import Parser
from repro.scanner import Scanner

SC = Scanner()


def pattern_from(text: str, service: str = "svc") -> Pattern:
    return Pattern.from_text(text, service)


def match(parser: Parser, message: str):
    return parser.match(SC.scan(message))


class TestAcceptance:
    @pytest.mark.parametrize(
        "pattern_text, message, should_match",
        [
            ("count %integer%", "count 42", True),
            ("count %integer%", "count 4.2", False),
            ("load %float%", "load 0.93", True),
            ("load %float%", "load 7", True),  # integers widen to float
            ("from %ipv4%", "from 10.0.0.1", True),
            ("from %ipv4%", "from verywrong", False),
            ("peer %ipv6%", "peer fe80::1", True),
            ("dev %mac%", "dev 00:1b:44:11:3a:b7", True),
            ("at %msgtime%", "at 2021-09-14 08:12:33", True),
            ("at %msgtime%", "at midnight", False),
            ("get %url%", "get http://example.com/x", True),
            ("x %string% y", "x anything y", True),
            ("x %alphanum% y", "x blk_123 y", True),
            ("x %alphanum% y", "x 123 y", True),
            ("x %alphanum% y", "x ??? y", False),
        ],
    )
    def test_var_classes(self, pattern_text, message, should_match):
        parser = Parser([pattern_from(pattern_text)])
        assert (match(parser, message) is not None) is should_match

    def test_email_and_host_via_enrichment(self):
        parser = Parser([pattern_from("mail from %email% via %host%")])
        hit = match(parser, "mail from ops@example.com via mx1.example.com")
        assert hit is not None
        assert hit.fields == {
            "email": "ops@example.com",
            "host": "mx1.example.com",
        }


class TestScoring:
    def test_most_static_tokens_wins(self):
        generic = pattern_from("%string% %string1% %string2%")
        specific = pattern_from("session closed %string%")
        parser = Parser([generic, specific])
        hit = match(parser, "session closed abruptly")
        assert hit.pattern.text == "session closed %string%"
        assert hit.static_matches == 2

    def test_tie_broken_by_fewer_variables(self):
        a = Pattern(
            tokens=[
                PatternToken.static("x"),
                PatternToken.variable(VarClass.STRING, "s1"),
                PatternToken.variable(VarClass.STRING, "s2"),
            ],
            service="svc",
        )
        b = Pattern(
            tokens=[
                PatternToken.static("x"),
                PatternToken.variable(VarClass.REST, "rest"),
            ],
            service="svc",
        )
        parser = Parser([a, b])
        hit = match(parser, "x one two")
        assert hit.pattern is b  # 1 variable beats 2 at equal static score


class TestFieldExtraction:
    def test_fields_keyed_by_names(self):
        parser = Parser([pattern_from("%action% from %srcip% port %srcport%")])
        hit = match(parser, "Accepted from 1.2.3.4 port 22")
        assert hit.fields == {
            "action": "Accepted",
            "srcip": "1.2.3.4",
            "srcport": "22",
        }


class TestRest:
    def test_rest_consumes_remainder(self):
        parser = Parser([pattern_from("panic: %ignorerest%")])
        hit = match(parser, "panic: everything after this is ignored 123")
        assert hit is not None
        assert "everything" in hit.fields["ignorerest"]

    def test_rest_matches_empty_tail(self):
        parser = Parser([pattern_from("panic %ignorerest%")])
        assert match(parser, "panic") is not None

    def test_truncated_message_matches(self):
        parser = Parser([pattern_from("head %integer%")])
        assert match(parser, "head 5\nsecond line") is not None


class TestMisc:
    def test_no_match_returns_none(self):
        parser = Parser([pattern_from("known pattern")])
        assert match(parser, "completely different words") is None

    def test_empty_parser_matches_nothing(self):
        assert match(Parser(), "anything") is None
        assert len(Parser()) == 0

    def test_add_pattern_idempotent(self):
        parser = Parser()
        p = pattern_from("a %integer%")
        parser.add_pattern(p)
        parser.add_pattern(p)
        assert len(parser) == 1

    def test_shorter_message_no_match(self):
        parser = Parser([pattern_from("a b c")])
        assert match(parser, "a b") is None

    def test_longer_message_no_match(self):
        parser = Parser([pattern_from("a b")])
        assert match(parser, "a b c") is None

    def test_shared_prefix_patterns(self):
        parser = Parser(
            [pattern_from("job %integer% started"), pattern_from("job %integer% done")]
        )
        assert match(parser, "job 9 started").pattern.text.endswith("started")
        assert match(parser, "job 9 done").pattern.text.endswith("done")


class TestLengthBuckets:
    """Root pruning: patterns are bucketed by token count, so a match only
    ever walks candidates of the message's own length (plus ignore-rest
    patterns, which accept any sufficiently long message)."""

    def test_patterns_of_many_lengths_coexist(self):
        parser = Parser(
            [
                pattern_from("up"),
                pattern_from("count %integer%"),
                pattern_from("count %integer% of %integer%"),
            ]
        )
        assert match(parser, "up").pattern.text == "up"
        assert match(parser, "count 3").pattern.text == "count %integer%"
        assert match(parser, "count 3 of 9") is not None
        assert match(parser, "count 3 of") is None

    def test_rest_pattern_spans_length_buckets(self):
        parser = Parser(
            [pattern_from("count %integer%"), pattern_from("panic %ignorerest%")]
        )
        assert match(parser, "panic") is not None
        assert match(parser, "panic at the disco tonight 22:00") is not None
        assert match(parser, "count 7").pattern.text == "count %integer%"

    def test_rest_and_exact_compete_on_static_tokens(self):
        parser = Parser(
            [pattern_from("job %integer% done"), pattern_from("job %ignorerest%")]
        )
        # the exact pattern matches more static tokens and must win even
        # though both sub-tries accept the message
        assert match(parser, "job 5 done").pattern.text == "job %integer% done"

    def test_version_bumps_on_every_mutation(self):
        parser = Parser()
        assert parser.version == 0
        parser.add_pattern(pattern_from("a %integer%"))
        parser.add_pattern(pattern_from("b %integer%"))
        assert parser.version == 2


class TestNoCopy:
    def test_match_does_not_mutate_tokens_without_enrichment(self):
        parser = Parser([pattern_from("evt %integer%")], enrich=False)
        scanned = SC.scan("evt 7")
        before = list(scanned.tokens)
        assert parser.match(scanned) is not None
        assert scanned.tokens == before

    def test_rest_marker_sliced_only_when_present(self):
        parser = Parser([pattern_from("evt %integer%")], enrich=False)
        truncated = SC.scan("evt 7\ntail text")
        assert truncated.tokens[-1].type.value == "rest"
        assert parser.match(truncated) is not None
        assert truncated.tokens[-1].type.value == "rest"  # untouched

    def test_pre_enriched_tokens_accepted(self):
        from repro.analyzer.enrich import enrich_tokens

        parser = Parser([pattern_from("mail from %email%")])
        scanned = SC.scan("mail from ops@example.com")
        hit = parser.match(scanned, tokens=enrich_tokens(scanned.tokens))
        assert hit is not None and hit.fields["email"] == "ops@example.com"


# ----------------------------------------------------------------------
# Incremental maintenance: per-bucket add/remove equals a fresh build
# ----------------------------------------------------------------------

def _spacing_twin(pattern: Pattern) -> Pattern:
    """Same tokens with one ``is_space_before`` flipped: another text,
    hence another id, on the very same trie path and leaf."""
    tokens = [
        PatternToken(
            is_variable=t.is_variable,
            text=t.text,
            var_class=t.var_class,
            name=t.name,
            is_space_before=t.is_space_before,
        )
        for t in pattern.tokens
    ]
    tokens[-1].is_space_before = not tokens[-1].is_space_before
    return Pattern(tokens=tokens, service=pattern.service)


#: overlapping families across four length buckets and the ignore-rest
#: bucket — every tie-break level of the matcher has competitors here
FAMILY = [
    pattern_from(text)
    for text in (
        # shared prefixes
        "session %string% %string2%",
        "session closed %string%",
        "session closed abruptly",
        "session %string% abruptly",
        # full ties: same statics, same variable count
        "a %string% c",
        "a %alphanum% c",
        "%string% b c",
        "a b %string%",
        # literal vs variable
        "error %integer% at %string%",
        "error 42 at %string%",
        "%string% 42 at disk",
        "error %integer% at disk",
        # ignore-rest shadowing
        "kernel %string% %ignorerest%",
        "kernel oops %ignorerest%",
        "kernel oops at %string%",
        "kernel %string% at %string2%",
        "session %ignorerest%",
        # neighbours in other buckets
        "up",
        "count %integer%",
        "job %integer% done",
    )
]
TWINS = (FAMILY[-1], _spacing_twin(FAMILY[-1]))
FAMILY.append(TWINS[1])
TWIN_IDS = {p.id for p in TWINS}

PROBES = [
    SC.scan(message)
    for message in (
        "session closed abruptly",
        "session closed early",
        "session opened abruptly",
        "session opened late",
        "session",
        "a b c",
        "a bb c",
        "a ?? c",
        "x b c",
        "a b x",
        "error 42 at disk",
        "error 42 at node",
        "error 7 at disk",
        "warn 42 at disk",
        "kernel oops at boot",
        "kernel oops at boot time today",
        "kernel panic at boot",
        "kernel oops",
        "up",
        "count 3",
        "job 5 done",
        "nothing here matches at all today",
    )
]


def outcome(hit):
    if hit is None:
        return None
    return (hit.pattern_id, id(hit.pattern), hit.fields, hit.static_matches)


def assert_same_matcher(live, fresh):
    """*live* answers every probe exactly like *fresh*: winner (id and
    object), fields, static count and frontier telemetry, one by one
    and through ``match_many``."""
    assert len(live) == len(fresh)
    for probe in PROBES:
        assert outcome(live.match(probe)) == outcome(fresh.match(probe))
        assert live.last_frontier == fresh.last_frontier
    assert [outcome(h) for h in live.match_many(PROBES)] == [
        outcome(h) for h in fresh.match_many(PROBES)
    ]
    assert live.last_frontiers == fresh.last_frontiers


def _backends():
    from repro.parser.compiled import CompiledParser

    return (Parser, CompiledParser)


_indices = st.integers(0, len(FAMILY) - 1)
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _indices),
        st.tuples(st.just("remove"), st.lists(_indices, min_size=1, max_size=4)),
    ),
    min_size=1,
    max_size=14,
)


class TestIncrementalMaintenance:
    """The O(Δ) contract: after any sequence of ``add_pattern`` /
    ``remove_patterns`` the parser is indistinguishable from one built
    from scratch from the survivors in first-insertion order."""

    @pytest.mark.parametrize("cls", _backends())
    @settings(max_examples=60, deadline=None)
    @given(steps=_steps)
    def test_any_sequence_equals_fresh_build(self, cls, steps):
        live = cls()
        survivors: dict[str, Pattern] = {}
        for op, arg in steps:
            version = live.version
            if op == "add":
                pattern = FAMILY[arg]
                if pattern.id in survivors and pattern.id in TWIN_IDS:
                    # re-adding the twin that lost the shared leaf takes
                    # it back, which no insertion order of a fresh build
                    # reproduces (nor did the whole-set rebuild)
                    continue
                live.add_pattern(pattern)
                survivors.setdefault(pattern.id, pattern)
                assert live.version > version
            else:
                ids = [FAMILY[i].id for i in arg]
                present = {pid for pid in ids if pid in survivors}
                assert live.remove_patterns(ids) == len(present)
                for pid in present:
                    del survivors[pid]
                if present:
                    assert live.version > version
                else:
                    assert live.version == version
            assert_same_matcher(live, cls(list(survivors.values())))
            for pid, pattern in survivors.items():
                assert live.get(pid) is pattern
            # the reference matcher is the specification of both
            reference = Parser(list(survivors.values()))
            for probe in PROBES:
                hit, expected = live.match(probe), reference.match(probe)
                assert (hit is None) == (expected is None)
                if hit is not None:
                    assert hit.pattern_id == expected.pattern_id
                    assert hit.fields == expected.fields

    @pytest.mark.parametrize("cls", _backends())
    def test_match_result_carries_the_insertion_id(self, cls):
        parser = cls(FAMILY)
        for probe in PROBES:
            hit = parser.match(probe)
            if hit is not None:
                assert hit.pattern_id == hit.pattern.id
                assert parser.get(hit.pattern_id) is hit.pattern
        assert parser.get("no-such-id") is None

    @pytest.mark.parametrize("cls", _backends())
    def test_twins_share_a_leaf_and_survive_each_other(self, cls):
        first, second = TWINS
        assert first.id != second.id
        parser = cls([first, second])
        assert len(parser) == 1  # one leaf, two ids
        assert parser.match(SC.scan("job 5 done")).pattern_id == second.id
        assert parser.remove_patterns([second.id]) == 1
        assert len(parser) == 1
        assert parser.match(SC.scan("job 5 done")).pattern_id == first.id
        assert parser.remove_patterns([first.id]) == 1
        assert len(parser) == 0
        assert parser.match(SC.scan("job 5 done")) is None

    def test_removal_rebuilds_only_the_buckets_it_removes_from(self):
        parser = Parser(FAMILY)
        roots = {key: bucket.root for key, bucket in parser._buckets.items()}
        assert parser.remove_patterns([pattern_from("a %string% c").id]) == 1
        for key, bucket in parser._buckets.items():
            assert (bucket.root is roots[key]) == (key != 3)
        # the last pattern of a bucket takes the bucket with it
        assert parser.remove_patterns([pattern_from("up").id]) == 1
        assert 1 not in parser._buckets
