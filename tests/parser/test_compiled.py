"""Differential equivalence suite for the compiled parser.

:class:`CompiledParser` is the parser the miner runs; its contract is
*bit-identical* match results to the reference parse-trie DFS
(:class:`Parser`): same winning pattern under the full tie-break
order (most static tokens, then fewest variables, then the reference
fold order), same extracted fields, same static count — and ``None``
exactly when the reference misses.  These tests enforce the contract on

* pattern sets **mined** by the full pipeline from seeded generator,
  production-stream and loghub corpora, replayed over their own source
  messages (plus mutations);
* **handcrafted** adversarial sets aimed at the tie-break seams: shared
  prefixes, literal-vs-variable ambiguity, full ties, and ignore-rest
  shadowing;
* **seeded random families** of overlapping patterns drawn from a tiny
  shared vocabulary, so collisions on every tie-break level are common
  rather than lucky.

Structural properties ride along: ``match_many`` positional parity,
O(Δ) ``add_pattern`` patching, frontier telemetry, and the factory.
"""

import functools
import random

import pytest

from tests.conftest import MessageGenerator
from repro.analyzer.enrich import enrich_tokens
from repro.analyzer.pattern import Pattern, PatternToken, VarClass
from repro.core.patterndb import PatternDB
from repro.core.pipeline import SequenceRTG
from repro.core.records import LogRecord
from repro.loghub.corpus import DATASET_NAMES, load_dataset
from repro.parser import Parser, ParserConfig, build_parser
from repro.parser.compiled import CompiledParser
from repro.scanner import Scanner
from repro.scanner.compiled import CompiledScanner
from repro.workflow.stream import ProductionStream, StreamConfig

SC = Scanner()
COLUMNS = CompiledScanner()


@functools.lru_cache(maxsize=1 << 16)
def scan(message):
    """``SC.scan``, memoised: scanning is a pure function of the text and
    the suites replay one message against several parsers."""
    return SC.scan(message)


@functools.lru_cache(maxsize=1 << 16)
def columns(message):
    """The compiled scanner's ``(texts, types)`` columns of *message*."""
    cols = COLUMNS.scan_columns([message])
    return tuple(cols.texts), tuple(cols.types)


def assert_backends_agree(patterns, messages, raw=False):
    """Both backends, loaded with the *same* pattern objects, produce
    identical results — winner identity, fields, static count — on every
    message, through ``match`` and through ``match_columns`` on the
    compiled scanner's columns.  With *raw* every message goes in as
    ``match(scanned, scanned.tokens)``: the caller skips enrichment."""
    ref, comp = Parser(patterns), CompiledParser(patterns)
    for message in messages:
        scanned = scan(message)
        if raw:
            a = ref.match(scanned, scanned.tokens)
            results = (comp.match(scanned, scanned.tokens),)
        else:
            a = ref.match(scanned)
            texts, types = columns(message)
            results = (
                comp.match(scanned),
                comp.match_columns(list(texts), list(types)),
            )
        for b in results:
            if a is None:
                assert b is None, repr(message)
                continue
            assert b is not None, repr(message)
            assert b.pattern is a.pattern, (
                message,
                a.pattern.text,
                b.pattern.text,
            )
            assert b.pattern_id == a.pattern_id, repr(message)
            assert b.fields == a.fields, repr(message)
            assert b.static_matches == a.static_matches, repr(message)
    return ref, comp


def mutated(messages, seed):
    """Word-level mutations of *messages*: drops, swaps and splices that
    push matches across pattern-length buckets and onto near-miss
    patterns."""
    rng = random.Random(seed)
    out = []
    for message in messages:
        words = message.split()
        if len(words) < 2:
            continue
        i = rng.randrange(len(words))
        out.append(" ".join(words[:i] + words[i + 1:]))  # drop one word
        j = rng.randrange(len(words))
        swapped = list(words)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        out.append(" ".join(swapped))
        donor = rng.choice(messages).split()
        out.append(" ".join(words[: len(words) // 2] + donor[len(donor) // 2:]))
    return out


def mined_by_service(records):
    """Mine *records* with the full pipeline; yield each service's stored
    pattern set with the messages that produced it."""
    rtg = SequenceRTG(db=PatternDB())
    rtg.analyze_by_service(records)
    by_service = {}
    for record in records:
        by_service.setdefault(record.service, []).append(record.message)
    for service, messages in by_service.items():
        yield rtg.db.load_service(service), messages


class TestMinedCorpora:
    def test_generator_corpus(self):
        records = MessageGenerator(seed=7).records(400, n_services=4)
        for patterns, messages in mined_by_service(records):
            assert patterns  # mining must produce something to compare
            assert_backends_agree(
                patterns, messages + mutated(messages, seed=13)
            )

    def test_production_stream(self, steady_corpus):
        # a small stream, then the e2e steady workloads' 40-service shape
        # at a lower duplicate fraction (a duplicate adds no comparison:
        # matching is a pure function of the message)
        small = ProductionStream(
            StreamConfig(n_services=6, seed=41, duplicate_fraction=0.3)
        )
        corpora = [
            *mined_by_service(list(small.records(500))),
            *steady_corpus.values(),
        ]
        for patterns, messages in corpora:
            messages = list(dict.fromkeys(messages))
            probes = messages + mutated(messages, seed=17)
            for raw in (False, True):
                assert_backends_agree(patterns, probes, raw=raw)

    def test_loghub_datasets(self):
        for name in DATASET_NAMES:
            contents = load_dataset(name, 60, seed=3).contents()
            records = [LogRecord(name, m) for m in contents]
            for patterns, messages in mined_by_service(records):
                assert_backends_agree(
                    patterns, messages + mutated(messages, seed=19)
                )

    def test_enrichment_disabled_parity(self):
        """The caller skipping enrichment (unenriched tokens passed in)."""
        records = MessageGenerator(seed=29).records(200, n_services=2)
        for patterns, messages in mined_by_service(records):
            assert_backends_agree(
                patterns, messages + mutated(messages, seed=23), raw=True
            )


def patterns_from(texts):
    return [Pattern.from_text(text, "svc") for text in texts]


class TestTieBreaking:
    """Satellite: tie-break parity on deliberately overlapping sets."""

    def test_shared_prefix_most_static_wins(self):
        patterns = patterns_from(
            [
                "session %string% %string2%",
                "session closed %string%",
                "session closed abruptly",
                "session %string% abruptly",
            ]
        )
        ref, _ = assert_backends_agree(
            patterns,
            [
                "session closed abruptly",
                "session closed early",
                "session opened abruptly",
                "session opened late",
                "session closed",
                "session closed abruptly now",
            ],
        )
        # anchor the shared behaviour, not just the agreement: the
        # all-static pattern must beat every variable sibling
        hit = ref.match(SC.scan("session closed abruptly"))
        assert hit.pattern is patterns[2]
        assert hit.static_matches == 3

    def test_literal_vs_variable_ambiguity(self):
        patterns = patterns_from(
            [
                "error %integer% at %string%",
                "error 42 at %string%",
                "%string% 42 at disk",
                "error %integer% at disk",
            ]
        )
        ref, _ = assert_backends_agree(
            patterns,
            [
                "error 42 at disk",
                "error 42 at node",
                "error 7 at disk",
                "warn 42 at disk",
                "error x at disk",
            ],
        )
        # "error 42 at disk" satisfies all four; the 3-static candidates
        # tie on statics and variables, and the reference fold order
        # decides.  Whatever it picks, the compiled backend picked the
        # same object above; pin the count so the case stays a full tie.
        hit = ref.match(SC.scan("error 42 at disk"))
        assert hit.static_matches == 3

    def test_full_tie_resolved_identically(self):
        # same statics, same variable count — only the fold order breaks
        # the tie, in both trie buckets
        patterns = patterns_from(
            ["a %string% c", "a %alphanum% c", "%string% b c", "a b %string%"]
        )
        assert_backends_agree(
            patterns, ["a b c", "a bb c", "a ?? c", "x b c", "a b x"]
        )

    def test_ignore_rest_shadowing(self):
        patterns = patterns_from(
            [
                "kernel %string% %ignorerest%",
                "kernel oops %ignorerest%",
                "kernel oops at %string%",
                "kernel %string% at %string2%",
            ]
        )
        ref, comp = assert_backends_agree(
            patterns,
            [
                "kernel oops at boot",
                "kernel oops at boot time today",
                "kernel panic at boot",
                "kernel oops",
                "kernel oops now",
                "kernel",
            ],
        )
        # exact-length patterns shadow ignore-rest ones on statics; the
        # rest field binds only when there is a tail to bind
        hit = ref.match(SC.scan("kernel oops at boot"))
        assert hit.pattern is patterns[2]
        boundary = comp.match(SC.scan("kernel oops"))
        assert boundary.pattern is patterns[1]
        assert "ignorerest" not in boundary.fields
        tail = comp.match(SC.scan("kernel oops at boot time today"))
        assert tail.pattern is patterns[1]
        assert tail.fields["ignorerest"] == "at boot time today"
        assert ref.match(SC.scan("kernel oops")).fields == boundary.fields
        assert ref.match(
            SC.scan("kernel oops at boot time today")
        ).fields == tail.fields


class TestColumnMatching:
    """``match_columns`` against the reference ``Parser.match`` where the
    columns differ from tokens: enrichment retypes a copy of the types
    column (k=v keys and values, e-mail addresses, host names), the REST
    marker of a truncated message, and the pre-enriched ``tokens``
    shortcut."""

    PATTERNS = [
        "login user = %string% from %host%",
        "login user = %string% from %string2%",
        "login %string% = %string2% from %host%",
        "login user = root from %host%",
        "login user = %alphanum% from %string%",
        "login user = %host% from %string%",
        "mail to %email% queued",
        "mail to %string% queued",
        "mail to %email% %ignorerest%",
        "mail %ignorerest%",
        "job %integer% done",
        "job %integer% %ignorerest%",
        "job %alphanum% done",
        "a = %string% = %string2%",
    ]
    MESSAGES = [
        "login user = alice from node1.example.com",
        "login user = root from node1.example.com",
        "login user = root from gateway",
        "login user = 42 from db.internal",
        "login uid = alice from node7.example.com",
        "login user=alice from node1.example.com",
        "login user = a1 from gw",
        "login user = db.example.com from gw",
        "mail to bob@example.com queued",
        "mail to bob queued",
        "mail to bob@example.com queued twice",
        "mail to bob@example.com\nqueued",
        "mail\nto bob",
        "mail",
        "job 7 done",
        "job 7 done\nstack frame 1\nstack frame 2",
        "job x7 done",
        "job 7 failed badly",
        "job 7",
        "a = b = c",
        "a = = c",
        "= a = b",
    ]

    def test_enrichment_and_rest_marker(self):
        patterns = patterns_from(self.PATTERNS)
        assert_backends_agree(patterns, self.MESSAGES, raw=True)
        ref, _ = assert_backends_agree(patterns, self.MESSAGES)
        # the set does reach the enriched and truncated cells
        winners = {
            m: ref.match(scan(m)).pattern.text
            for m in self.MESSAGES if ref.match(scan(m)) is not None
        }
        assert winners["login user = root from node1.example.com"] == (
            "login user = root from %host%"
        )
        assert winners["mail to bob@example.com\nqueued"] == (
            "mail to %email% %ignorerest%"
        )
        assert winners["job 7 done\nstack frame 1\nstack frame 2"] == (
            "job %alphanum% done"
        )

    def test_mined_multiline_and_pair_corpus(self):
        rng = random.Random(31)
        hosts = ("node1.example.com", "db.internal", "gw", "10.0.0.7")
        records = []
        for i in range(240):
            user, host = rng.choice("abcdef") * 3, rng.choice(hosts)
            records.append(LogRecord("auth", rng.choice([
                f"login user = {user} from {host}",
                f"mail to {user}@example.com queued id={i}",
                f"job {i} failed\n  at frame {i % 7}\n  at main",
                f"session {user} key = value{i % 3} host {host}",
            ])))
        for patterns, messages in mined_by_service(records):
            assert patterns
            assert_backends_agree(patterns, messages + mutated(messages, seed=37))

    def test_enrichment_leaves_the_columns_alone(self):
        patterns = patterns_from(self.PATTERNS)
        parser = CompiledParser(patterns)
        for message in self.MESSAGES:
            texts, types = map(list, columns(message))
            before = list(types)
            parser.match_columns(texts, types)
            assert types == before, repr(message)

    def test_pre_enriched_tokens_shortcut(self):
        """``match(scanned, tokens)`` skips enrichment and feeds the same
        core: reference and compiled agree given the same tokens."""
        patterns = patterns_from(self.PATTERNS)
        ref, comp = Parser(patterns), CompiledParser(patterns)
        for message in self.MESSAGES:
            scanned = scan(message)
            for tokens in (enrich_tokens(scanned.tokens), scanned.tokens):
                a, b = ref.match(scanned, tokens), comp.match(scanned, tokens)
                assert (a is None) == (b is None), repr(message)
                if a is not None:
                    assert (b.pattern_id, b.fields, b.static_matches) == (
                        a.pattern_id, a.fields, a.static_matches
                    ), repr(message)


#: shared vocabulary for the random families — tiny on purpose, so
#: independently drawn patterns overlap constantly
_WORDS = (
    "session", "closed", "error", "disk", "node", "failed", "at", "for",
    "port", "up",
)
_CLASSES = (VarClass.STRING, VarClass.ALNUM, VarClass.INTEGER)


def random_pattern(rng):
    tokens = []
    counts = {}
    for i in range(rng.randint(2, 6)):
        if rng.random() < 0.5:
            tokens.append(
                PatternToken.static(rng.choice(_WORDS), is_space_before=i > 0)
            )
        else:
            vc = rng.choice(_CLASSES)
            counts[vc] = counts.get(vc, 0) + 1
            name = vc.value if counts[vc] == 1 else f"{vc.value}{counts[vc]}"
            tokens.append(
                PatternToken.variable(vc, name=name, is_space_before=i > 0)
            )
    if rng.random() < 0.2:
        tokens.append(PatternToken.variable(VarClass.REST, name="ignorerest"))
    return Pattern(tokens=tokens, service="prop")


def conforming_words(rng, pattern):
    words = []
    for tok in pattern.tokens:
        if not tok.is_variable:
            words.append(tok.text)
        elif tok.var_class is VarClass.STRING:
            words.append(rng.choice(_WORDS + ("value", "thing")))
        elif tok.var_class is VarClass.ALNUM:
            words.append(rng.choice((f"id{rng.randint(0, 999)}",
                                     str(rng.randint(0, 99_999)))))
        elif tok.var_class is VarClass.INTEGER:
            words.append(str(rng.randint(0, 99_999)))
        else:  # REST: zero to three tail words — zero probes the L==k edge
            words.extend(rng.choice(_WORDS) for _ in range(rng.randint(0, 3)))
    return words


class TestRandomOverlappingFamilies:
    """Seeded property test: families of overlapping patterns drawn from
    one small vocabulary, matched against conforming and mutated
    messages.  Every tie-break level gets exercised by volume."""

    def test_families_agree(self):
        rng = random.Random(20260808)
        for _ in range(10):
            patterns = [random_pattern(rng) for _ in range(30)]
            messages = [
                " ".join(conforming_words(rng, rng.choice(patterns)))
                for _ in range(150)
            ]
            messages += mutated(messages[:50], seed=rng.randrange(10**6))
            # pure word soup for the miss path
            messages += [
                " ".join(rng.choice(_WORDS) for _ in range(rng.randint(1, 7)))
                for _ in range(30)
            ]
            assert_backends_agree(patterns, messages)


class TestMatchMany:
    def test_positional_parity_and_duplicate_sharing(self):
        stream = ProductionStream(
            StreamConfig(n_services=1, seed=5, duplicate_fraction=0.6)
        )
        messages = [r.message for r in stream.records(300)]
        patterns = next(
            iter(
                mined_by_service(
                    [LogRecord("one", m) for m in messages]
                )
            )
        )[0]
        scanned = [SC.scan(m) for m in messages]

        for cls in (Parser, CompiledParser):
            parser = cls(patterns)
            batch = parser.match_many(scanned)
            assert len(batch) == len(scanned)
            # batch results equal the one-by-one results...
            fresh = cls(patterns)
            for hit, msg in zip(batch, scanned):
                single = fresh.match(msg)
                if single is None:
                    assert hit is None
                else:
                    assert hit.pattern is single.pattern
                    assert hit.fields == single.fields
            # ...in-batch duplicates get equal results, each matched on
            # its own (the fast lane deduplicates raw messages upstream)
            by_text = {}
            for hit, message in zip(batch, messages):
                if message in by_text and hit is not None:
                    assert by_text[message] is not hit
                    assert by_text[message].pattern is hit.pattern
                    assert by_text[message].fields == hit.fields
                by_text[message] = hit
            assert len(by_text) < len(messages)  # duplicates were there
            # one frontier sample per message
            assert len(parser.last_frontiers) == len(scanned)
            assert all(f >= 0 for f in parser.last_frontiers)

    def test_cross_backend_batch_parity(self):
        records = MessageGenerator(seed=3).records(150, n_services=1)
        patterns, messages = next(iter(mined_by_service(records)))
        scanned = [SC.scan(m) for m in messages + mutated(messages, seed=31)]
        ref_batch = Parser(patterns).match_many(scanned)
        comp_batch = CompiledParser(patterns).match_many(scanned)
        for a, b in zip(ref_batch, comp_batch):
            if a is None:
                assert b is None
            else:
                assert b.pattern is a.pattern and b.fields == a.fields


class TestIncrementalCompilation:
    def test_add_pattern_invalidates_compiled_state(self):
        texts = [
            "session closed %string%",
            "session %string% %string2%",
            "session closed abruptly",
            "kernel %string% %ignorerest%",
            "kernel oops at %string%",
        ]
        probes = [
            "session closed abruptly",
            "session opened late",
            "kernel oops at boot",
            "kernel oops at boot time",
        ]
        ref, comp = Parser(), CompiledParser()
        assert comp.match(SC.scan(probes[0])) is None  # empty set, no crash
        for text in texts:
            pattern = Pattern.from_text(text, "svc")
            ref.add_pattern(pattern)
            comp.add_pattern(pattern)
            for probe in probes:
                scanned = SC.scan(probe)
                a, b = ref.match(scanned), comp.match(scanned)
                assert (a is None) == (b is None), (text, probe)
                if a is not None:
                    assert b.pattern is a.pattern
                    assert b.fields == a.fields

    def test_len_contract(self):
        patterns = patterns_from(["a %string% c", "x y z"])
        ref, comp = Parser(patterns), CompiledParser(patterns)
        assert len(comp) == len(ref) == 2


class TestDirtyLengthLowering:
    """An add lowers the added pattern alone and patches it into the
    frontiers it joins, in place; a removal re-lowers the one length
    bucket it touches.  Every other length keeps its frontier — programs,
    dispatch columns and per-token memos — as the very same objects.
    (The hypothesis sequence in ``tests/parser/test_parser.py`` proves
    the matches stay right and the lowering equals a fresh one; this
    pins what stays warm.)"""

    TEXTS = [
        "up",
        "count %integer%",
        "size %integer%",
        "a %string% c",
        "a b %string%",
        "error %integer% at %string%",
        "error 42 at %string%",
    ]
    PROBES = ["up", "count 3", "a b c", "error 42 at disk"]

    def warm(self):
        comp = CompiledParser(patterns_from(self.TEXTS))
        self.match_all(comp)
        assert sorted(comp._frontier) == [1, 2, 3, 4]
        return comp, dict(comp._frontier)

    def match_all(self, comp):
        for probe in self.PROBES:
            assert comp.match(SC.scan(probe)) is not None

    @staticmethod
    def spy(monkeypatch, comp):
        """Record every whole-bucket lowering and frontier build."""
        calls = []
        lower, build = comp._lower_bucket, comp._frontier_for
        monkeypatch.setattr(
            comp, "_lower_bucket", lambda bucket: calls.append(
                ("lower", bucket.key)
            ) or lower(bucket)
        )
        monkeypatch.setattr(
            comp, "_frontier_for", lambda length: calls.append(
                ("frontier", length)
            ) or build(length)
        )
        return calls

    def test_add_and_remove_touch_one_length(self, monkeypatch):
        comp, before = self.warm()
        memo = before[2].columns[0][3]  # literal-token memo of column 0
        assert "count" in memo
        calls = self.spy(monkeypatch, comp)

        added = Pattern.from_text("a %alphanum% c", "svc")
        n_three = len(before[3].progs)
        comp.add_pattern(added)
        self.match_all(comp)
        assert calls == []  # no whole-bucket lowering, no rebuild
        for length in (1, 2, 3, 4):
            assert comp._frontier[length] is before[length]
        assert len(before[3].progs) == n_three + 1
        assert before[3].progs[-1].pattern is added
        assert before[2].columns[0][3] is memo and "count" in memo
        assert comp.match(SC.scan("a bb c")).pattern.text == added.text

        assert comp.remove_patterns(
            [Pattern.from_text("error 42 at %string%", "svc").id]
        ) == 1
        self.match_all(comp)
        assert calls == [("lower", 4), ("frontier", 4)]
        for length in (1, 2, 3):
            assert comp._frontier[length] is before[length]
        assert comp._frontier[4] is not before[4]

    def test_emptied_length_loses_its_programs(self):
        comp, before = self.warm()
        assert comp.remove_patterns([Pattern.from_text("up", "svc").id]) == 1
        assert comp.match(SC.scan("up")) is None
        assert comp.last_frontier == 0
        assert 1 not in comp._programs
        for length in (2, 3, 4):
            assert comp._frontier[length] is before[length]

    def test_ignore_rest_change_invalidates_every_length(self, monkeypatch):
        """Adding an ignore-rest pattern patches it into every frontier
        it is short enough for; removing one re-lowers every length."""
        comp, before = self.warm()
        calls = self.spy(monkeypatch, comp)
        rest = Pattern.from_text("a %ignorerest%", "svc")
        comp.add_pattern(rest)
        self.match_all(comp)
        assert calls == []
        for length, frontier in before.items():
            assert comp._frontier[length] is frontier
            assert frontier.progs[-1].pattern is rest
        # the rest program joined every frontier it is short enough for
        assert comp.match(SC.scan("a b c d e")).pattern is rest

        assert comp.remove_patterns([rest.id]) == 1
        self.match_all(comp)
        assert {("frontier", length) for length in before} <= set(calls)
        for length, frontier in before.items():
            if length in comp._frontier:
                assert comp._frontier[length] is not frontier
        assert comp.match(SC.scan("a b c d e")) is None


class TestFrontierTelemetry:
    def test_last_frontier_counts_candidates(self):
        patterns = patterns_from(
            ["a %string% c", "a %alphanum% c", "a b %string%", "x %ignorerest%"]
        )
        for cls in (Parser, CompiledParser):
            parser = cls(patterns)
            parser.match(SC.scan("a b c"))
            three_tokens = parser.last_frontier
            assert three_tokens >= 1
            parser.match(SC.scan("zero overlap here today maybe"))
            assert parser.last_frontier >= 0

    def test_compiled_frontier_is_the_merged_candidate_count(self):
        patterns = patterns_from(
            ["a %string% c", "a %alphanum% c", "a b %string%", "x %ignorerest%"]
        )
        comp = CompiledParser(patterns)
        comp.match(SC.scan("a b c"))
        # three exact 3-token programs plus the applicable rest program
        assert comp.last_frontier == 4
        comp.match(SC.scan("x"))
        # the 1-token frontier holds just the rest program (L == k)
        assert comp.last_frontier == 1


class TestBackendSelection:
    """There is none: the factory builds the compiled parser, and the
    configuration has no ``backend`` to set."""

    def test_factory_builds_each_backend(self):
        assert type(build_parser()) is CompiledParser
        assert type(build_parser(config=ParserConfig())) is CompiledParser
        assert type(SequenceRTG().parser_for("svc")) is CompiledParser

    def test_factory_passes_patterns(self):
        patterns = patterns_from(["mail from %email%"])
        parser = build_parser(patterns, config=ParserConfig())
        assert parser.match(SC.scan("mail from ops@example.com")) is not None

    def test_unknown_backend_rejected(self):
        with pytest.raises(TypeError, match="backend"):
            ParserConfig(backend="reference")
        with pytest.raises(AttributeError, match="backend"):
            ParserConfig().backend = "reference"
