"""Differential equivalence suite for the compiled analyser.

:class:`CompiledAnalyzer` is the analyser the miner runs; its contract
is *byte-identical* pattern output to the reference per-node analysis
trie (:class:`Analyzer`): same pattern list order (the DFS
emission walk over identical dict orders), same texts, supports,
examples, token structures and semantic names, and the same
``last_trie_nodes`` telemetry.  These tests enforce the contract on

* **mined corpora**: seeded generator, production-stream and loghub
  messages partitioned exactly the way ``AnalyzeStage`` partitions them
  (per service, per token count), across every behavioural config axis
  (folding, semi-constant expansion);
* **handcrafted families** aimed at the merge seams: Rule B id groups,
  Rule A similarity groups at the threshold boundary, value-cap
  overflow, fold-support boundaries, and double merges colliding on one
  ``V`` key;
* the **weighted-insert property** (satellite): one insert with ``n=k``
  must equal ``k`` single inserts on both analysers — patterns, node
  counts, observed values, captured examples.

Structural properties ride along: scratch-state reset-and-reuse across
partitions (satellite regression), and the factory.
"""

import functools
import random

import pytest

from tests.conftest import MessageGenerator
from repro.analyzer import Analyzer, AnalyzerConfig, build_analyzer
from repro.analyzer.compiled import CompiledAnalyzer
from repro.core.pipeline import SequenceRTG
from repro.loghub.corpus import DATASET_NAMES, load_dataset
from repro.scanner import Scanner
from repro.workflow.stream import ProductionStream, StreamConfig

SC = Scanner()


@functools.lru_cache(maxsize=1 << 16)
def scan(message, service):
    """``SC.scan``, memoised: scanning is a pure function of the text and
    the suites feed one corpus to the analysers under many configs."""
    return SC.scan(message, service=service)


def fingerprint(pattern):
    """Everything a pattern carries, in comparable form."""
    return (
        pattern.text,
        pattern.service,
        pattern.support,
        tuple(pattern.examples),
        tuple(
            (t.is_variable, t.text, t.var_class, t.name, t.is_space_before)
            for t in pattern.tokens
        ),
    )


def partitions_for(messages, service="svc"):
    """Scan *messages* and partition by token count, the way
    ``AnalyzeStage`` feeds the analyser — one partition per length, in
    length order."""
    by_length = {}
    for message in messages:
        scanned = scan(message, service)
        by_length.setdefault(scanned.token_count(), []).append(scanned)
    return [partition for _, partition in sorted(by_length.items())]


#: the behavioural axes of AnalyzerConfig, one variation each
CONFIG_VARIATIONS = (
    {},
    {"fold_constants": False},
    {"semi_constant_max_values": 3},
)


def assert_backends_agree(partitions, **config_kwargs):
    """One analyser instance per backend mines every partition in
    sequence (exercising scratch reuse); outputs must be identical."""
    config = AnalyzerConfig(**config_kwargs)
    ref, comp = Analyzer(config), CompiledAnalyzer(config)
    mined_something = False
    for partition in partitions:
        a = ref.analyze(partition)
        b = comp.analyze(partition)
        assert comp.last_trie_nodes == ref.last_trie_nodes
        assert [fingerprint(p) for p in b] == [fingerprint(p) for p in a]
        mined_something = mined_something or bool(a)
    assert mined_something  # the corpus must actually produce patterns


def stream_by_service(n_services, duplicate_fraction, n, seed=41):
    """Each service's messages from the first *n* stream records."""
    stream = ProductionStream(StreamConfig(
        n_services=n_services, seed=seed,
        duplicate_fraction=duplicate_fraction,
    ))
    by_service = {}
    for record in stream.records(n):
        by_service.setdefault(record.service, []).append(record.message)
    return list(by_service.values())


class TestMinedCorpora:
    def test_generator_corpus(self):
        records = MessageGenerator(seed=7).records(400, n_services=4)
        by_service = {}
        for record in records:
            by_service.setdefault(record.service, []).append(record.message)
        for kwargs in CONFIG_VARIATIONS:
            for messages in by_service.values():
                assert_backends_agree(partitions_for(messages), **kwargs)

    def test_production_stream(self, steady_corpus):
        # a small stream under every variation, then the e2e steady
        # workloads' 40-service shape with folding on and off
        steady = [messages for _, messages in steady_corpus.values()]
        for corpus, variations in (
            (stream_by_service(6, 0.3, 500), CONFIG_VARIATIONS),
            (steady, CONFIG_VARIATIONS[:2]),
        ):
            for kwargs in variations:
                for messages in corpus:
                    assert_backends_agree(partitions_for(messages), **kwargs)

    def test_loghub_datasets(self):
        for name in DATASET_NAMES:
            contents = load_dataset(name, 60, seed=3).contents()
            assert_backends_agree(partitions_for(contents, service=name))

    def test_arbitrary_messages(self):
        """Pure token soup (every scan-time token shape) — mining rarely
        generalises here, but the tries must still be identical."""
        gen = MessageGenerator(seed=23)
        messages = [gen.message() for _ in range(300)]
        for kwargs in CONFIG_VARIATIONS:
            assert_backends_agree(partitions_for(messages), **kwargs)


class TestHandcraftedMergeFamilies:
    """The merge seams, pinned one by one."""

    def check(self, messages, **kwargs):
        assert_backends_agree(partitions_for(messages), **kwargs)

    def test_rule_b_id_merge(self):
        self.check(
            [f"deleting block blk_{n} now" for n in (17, 9423, 100, 85)]
        )

    def test_rule_b_hex_ids(self):
        self.check(
            [f"request {h} finished ok" for h in
             ("fcbcdfce", "00ab1234", "deadbeef", "0badcafe")]
        )

    def test_rule_a_at_threshold_boundary(self):
        # exactly MERGE_THRESHOLD (4) distinct words must NOT merge;
        # threshold+1 must — run both sides of the boundary
        words = ["alpha", "bravo", "charlie", "delta", "echo"]
        self.check([f"state changed to {w} today" for w in words[:4]])
        self.check([f"state changed to {w} today" for w in words])

    def test_value_cap_overflow(self):
        # more than VALUE_CAP (8) distinct values through one typed edge
        self.check([f"served request in {i} ms" for i in range(12)])

    def test_fold_support_boundary(self):
        # a single-valued integer edge right at/below FOLD_MIN_SUPPORT (3)
        for copies in (2, 3, 4):
            self.check(["worker heartbeat 7 ok"] * copies)

    def test_double_merge_collides_on_one_v_key(self):
        # two Rule A groups at one position (their children differ, so
        # they do not group together) both become Vstring: the second
        # must absorb into the *existing* V node, not create a second one
        messages = [
            f"job {w} done fast"
            for w in ("alpha", "bravo", "charlie", "delta", "echo")
        ] + [
            f"job {w} failed hard"
            for w in ("foxtrot", "golf", "hotel", "india", "juliet")
        ]
        self.check(messages)

    def test_semi_constant_expansion(self):
        messages = (
            ["link state up port 7"] * 4
            + ["link state down port 9"] * 3
            + ["link state up port 12"] * 2
        )
        self.check(messages, semi_constant_max_values=2)

    def test_enriched_shapes(self):
        # key=value triples, emails and hostnames retype at analysis
        # time; both backends must see the same enriched token stream
        self.check(
            [
                f"login user=u{n} from node{n}.cluster.example.com "
                f"contact ops{n}@example.com" for n in range(6)
            ]
        )

    def test_deep_merge_after_parent_union(self):
        # merging at the first position unifies subtrees; the *second*
        # position then holds siblings contributed by different parents
        # and must merge (or not) identically on the unified trie
        messages = [
            f"host{a} reported {w} status" for a in range(6)
            for w in ("good", "bad", "fine", "poor", "weak")
        ]
        self.check(messages)


class TestWeightedInsertEquivalence:
    """Satellite: one insert with n=k ≡ k single inserts, per analyser."""

    def corpora(self, steady_corpus):
        gen_records = MessageGenerator(seed=31).records(300, n_services=1)
        yield [r.message for r in gen_records]
        yield from stream_by_service(1, 0.6, 300, seed=13)
        yield from (messages for _, messages in steady_corpus.values())
        yield load_dataset(DATASET_NAMES[0], 80, seed=5).contents()

    def test_weighted_equals_repeated(self, steady_corpus):
        for messages in self.corpora(steady_corpus):
            # duplicate-heavy stream: replicate each message a few times
            rng = random.Random(77)
            repeated = []
            for message in messages:
                repeated.extend([message] * rng.randint(1, 4))
            for cls in (Analyzer, CompiledAnalyzer):
                for partition in partitions_for(repeated):
                    dedup: dict[str, int] = {}
                    uniques = []
                    for msg in partition:
                        if msg.original not in dedup:
                            dedup[msg.original] = 0
                            uniques.append(msg)
                        dedup[msg.original] += 1
                    counts = [dedup[m.original] for m in uniques]

                    analyzer = cls()
                    plain = analyzer.analyze(partition)
                    plain_nodes = analyzer.last_trie_nodes
                    weighted = analyzer.analyze(uniques, counts=counts)
                    assert analyzer.last_trie_nodes == plain_nodes
                    assert [fingerprint(p) for p in weighted] == [
                        fingerprint(p) for p in plain
                    ]


class TestScratchReuse:
    """Satellite regression: resetting and reusing one analyser across
    partitions changes nothing versus a fresh instance per partition."""

    @pytest.mark.parametrize(
        "cls", [Analyzer, CompiledAnalyzer], ids=["reference", "compiled"]
    )
    def test_reused_instance_matches_fresh_instances(self, cls):
        records = MessageGenerator(seed=47).records(250, n_services=1)
        partitions = partitions_for([r.message for r in records])
        assert len(partitions) > 1  # reuse must actually be exercised
        reused = cls()
        for partition in partitions:
            fresh = cls()
            a = fresh.analyze(partition)
            b = reused.analyze(partition)
            assert reused.last_trie_nodes == fresh.last_trie_nodes
            assert [fingerprint(p) for p in b] == [fingerprint(p) for p in a]

    def test_trie_reset_drops_state(self):
        from repro.analyzer.trie import AnalysisTrie

        trie = AnalysisTrie()
        scanned = SC.scan("session opened for root")
        trie.insert(scanned, scanned.tokens)
        assert trie.node_count() > 1 and trie.n_messages == 1
        trie.reset()
        assert trie.node_count() == 1
        assert trie.n_messages == 0
        assert not trie.root.children


class TestBackendSelection:
    """There is none: the factory builds the compiled analyser, and the
    configuration has no ``backend`` to set."""

    def test_factory_builds_each_backend(self):
        assert type(build_analyzer()) is CompiledAnalyzer
        assert type(SequenceRTG().analyzer) is CompiledAnalyzer

    def test_factory_passes_config(self):
        config = AnalyzerConfig(semi_constant_max_values=2)
        assert build_analyzer(config).config is config

    def test_unknown_backend_rejected(self):
        with pytest.raises(TypeError, match="backend"):
            AnalyzerConfig(backend="reference")
        with pytest.raises(AttributeError, match="backend"):
            AnalyzerConfig().backend = "reference"

    def test_empty_partition(self):
        for cls in (Analyzer, CompiledAnalyzer):
            assert cls().analyze([]) == []
