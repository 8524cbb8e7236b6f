"""Differential equivalence suite for the compiled scanner.

:class:`CompiledScanner` is the scanner the miner runs; its contract is
*bit-identical* token streams to the reference FSM :class:`Scanner` —
same text, type, ``is_space_before`` and ``pos`` on every message, under
every configuration.  These tests enforce the contract on seeded
generator corpora, the bundled loghub corpora, and a hand-written
adversarial set, across all four scanner flag combinations.
"""

import itertools
import re

import pytest

from tests.conftest import MessageGenerator
from repro.core.pipeline import SequenceRTG
from repro.loghub.corpus import DATASET_NAMES, load_dataset
from repro.scanner import ScannerConfig, build_scanner
from repro.scanner.compiled import CompiledScanner, CompiledTimeFSM
from repro.scanner.scanner import Scanner, WordCache
from repro.scanner.time_fsm import DEFAULT_LAYOUTS, SINGLE_DIGIT_LAYOUTS, TimeFSM
from repro.scanner.token_types import TokenType
from repro.workflow.stream import ProductionStream, StreamConfig

#: every (allow_single_digit_time, enable_path_fsm) combination
FLAG_COMBOS = list(itertools.product([False, True], repeat=2))

#: inputs aimed at the seams between the FSM cascade and the compiled
#: gates: boundary rejections, gate false-positive bait, flex digits,
#: offsets, carving interactions
ADVERSARIAL = [
    "",
    " ",
    "2024-01-02 10:11:12.345abc tail",
    "2024-01-02 10:11:12.345 ok",
    "+12:345 off",
    "x 12:34:56:78:9a:bc y",
    "fe80::1 and ::1 and :: alone",
    "Jan  2 03:04:05 host proc[1]: ok",
    "20171224-0:7:20:444 z",
    "a 1.2.3.4 12.5 2 for 99",
    "081109 203615 INFO dfs.DataNode$PacketResponder",
    "Mar 17 06:39:01.123456789012 x",
    "date 2024-13-01 bad month",
    "t 23:59:60 leap second",
    "31/Dec/2024:23:59:59 +0000 req",
    "u 12/25/2024 11:59:59 PM done",
    "Januar 5 is not a month",
    "12:34",
    "12:34:56",
    "9999-12-31T23:59:59.999999999Z end",
    "2024-01-02T03:04:05+01:30 tz",
    "url http://a.b/c?d=1, and (https://x/y).",
    "path /var/log/app.log and C:\\Users\\x",
    "trailing words. Really?! yes...",
    "unicode café 10.0.0.1 naïve",
    "multi\nline\nmessage",
    "numbers 42 -17 +3 1e5 2.5e-3 0.5 .5 5.",
    "brackets (a) [b] {c} <d> \"e\" 'f' k=v;x|y:z",
]


def corpus():
    msgs = MessageGenerator(seed=7).messages(400)
    stream = ProductionStream(
        StreamConfig(n_services=10, seed=41, duplicate_fraction=0.3)
    )
    msgs.extend(r.message for r in stream.records(400))
    # the e2e steady workloads' stream shape (40 services, half the
    # records duplicates); scanning is a pure function of the message,
    # so each distinct one is compared once
    steady = ProductionStream(
        StreamConfig(n_services=40, seed=41, duplicate_fraction=0.5)
    )
    msgs.extend(dict.fromkeys(r.message for r in steady.records(6000)))
    for name in DATASET_NAMES:
        msgs.extend(load_dataset(name, 80, seed=3).contents())
    msgs.extend(ADVERSARIAL)
    return msgs


def token_keys(scanned):
    return [(t.text, t.type, t.is_space_before, t.pos) for t in scanned.tokens]


class TestBackendEquivalence:
    @pytest.mark.parametrize("single_digit,path_fsm", FLAG_COMBOS)
    def test_identical_token_streams(self, single_digit, path_fsm):
        config = ScannerConfig(
            allow_single_digit_time=single_digit, enable_path_fsm=path_fsm
        )
        fsm, compiled = Scanner(config), CompiledScanner(config)
        for message in corpus():
            a = fsm.scan(message, service="svc")
            b = compiled.scan(message, service="svc")
            assert token_keys(a) == token_keys(b), repr(message)
            assert a.truncated == b.truncated, repr(message)
            assert a.service == b.service == "svc"

    def test_max_tokens_equivalence(self):
        for cap in (1, 2, 3, 5, 100):
            config = ScannerConfig(max_tokens=cap)
            fsm, compiled = Scanner(config), CompiledScanner(config)
            for message in ADVERSARIAL:
                a, b = fsm.scan(message), compiled.scan(message)
                assert token_keys(a) == token_keys(b), (cap, message)
                assert a.truncated == b.truncated
                assert len(b.tokens) <= cap

    def test_scan_many_matches_scan(self):
        compiled = CompiledScanner()
        batch = compiled.scan_many(ADVERSARIAL, service="s")
        assert [token_keys(m) for m in batch] == [
            token_keys(compiled.scan(m, service="s")) for m in ADVERSARIAL
        ]


class TestCompiledTimeFSM:
    @pytest.mark.parametrize("single_digit", [False, True])
    def test_match_parity_at_every_position(self, single_digit):
        ref = TimeFSM(allow_single_digit=single_digit)
        comp = CompiledTimeFSM(allow_single_digit=single_digit)
        for message in ADVERSARIAL:
            for i in range(len(message)):
                assert ref.match(message, i) == comp.match(message, i), (
                    message,
                    i,
                )

    def test_every_default_layout_has_a_program(self):
        # the whole catalogue is digit- or alpha-led; nothing should
        # land on the interpreted fallback list
        comp = CompiledTimeFSM(allow_single_digit=True)
        assert not comp._digit_fallbacks
        n_alpha = sum(
            1
            for lay in DEFAULT_LAYOUTS + SINGLE_DIGIT_LAYOUTS
            if lay[:3] in ("MON", "DAY")
        )
        assert len(comp._digit_programs) == len(
            DEFAULT_LAYOUTS + SINGLE_DIGIT_LAYOUTS
        ) - n_alpha

    def test_untranslatable_layout_falls_back(self):
        # a digit-led layout using ZZZ has no regex translation; it must
        # still match via the interpreted fallback
        comp = CompiledTimeFSM(layouts=("hh:mm ZZZ",))
        ref = TimeFSM(layouts=("hh:mm ZZZ",))
        assert comp._digit_fallbacks
        s = "12:34 UTC done"
        assert comp.match(s, 0) == ref.match(s, 0) == len("12:34 UTC")


class TestRegexAssumptions:
    def test_whitespace_class_matches_str_isspace(self):
        # the compiled word/whitespace programs use \s where the FSM uses
        # str.isspace(); prove they agree on every code point
        ws = re.compile(r"\s")
        for cp in range(0x110000):
            c = chr(cp)
            assert bool(ws.match(c)) == c.isspace(), hex(cp)


class TestWordCache:
    def test_interns_and_classifies(self):
        cache = WordCache()
        text, ttype = cache.lookup("error")
        assert text == "error" and ttype is TokenType.LITERAL
        assert cache.lookup("42")[1] is TokenType.INTEGER
        # same object back for a distinct but equal string
        again, _ = cache.lookup("err" + "or")
        assert again is text

    def test_clears_when_full(self):
        cache = WordCache(maxsize=4)
        for i in range(4):
            cache.lookup(f"w{i}")
        assert len(cache) == 4
        cache.lookup("overflow")
        assert len(cache) == 1  # dropped wholesale, then repopulated

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            WordCache(maxsize=0)


class TestBackendSelection:
    """There is none: the factory builds the compiled scanner, and the
    configuration has no ``backend`` to set."""

    def test_factory_builds_each_backend(self):
        config = ScannerConfig(enable_path_fsm=True)
        built = build_scanner(config)
        assert type(built) is CompiledScanner and built.config is config
        assert type(build_scanner()) is CompiledScanner
        assert type(SequenceRTG().scanner) is CompiledScanner

    def test_unknown_backend_rejected(self):
        with pytest.raises(TypeError, match="backend"):
            ScannerConfig(backend="fsm")
        with pytest.raises(AttributeError, match="backend"):
            ScannerConfig().backend = "fsm"

    def test_negative_max_tokens_rejected(self):
        with pytest.raises(ValueError, match="max_tokens"):
            ScannerConfig(max_tokens=-1)
