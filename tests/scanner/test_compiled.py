"""Differential equivalence suite for the compiled scanner.

:class:`CompiledScanner` is the scanner the miner runs; its contract is
*bit-identical* token streams to the reference FSM :class:`Scanner` —
same text, type, ``is_space_before`` and ``pos`` on every message, under
every configuration.  These tests enforce the contract on seeded
generator corpora, the bundled loghub corpora, and a hand-written
adversarial set, across all four scanner flag combinations.
"""

import functools
import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import MessageGenerator
from repro.core.pipeline import SequenceRTG
from repro.loghub.corpus import DATASET_NAMES, load_dataset
from repro.scanner import ScannerConfig, build_scanner
from repro.scanner.compiled import CompiledScanner, CompiledTimeFSM, _elements
from repro.scanner.scanner import Scanner, WordCache
from repro.scanner.time_fsm import (
    _DAYS,
    _DAYS_FULL,
    _MONTHS,
    _MONTHS_FULL,
    DEFAULT_LAYOUTS,
    SINGLE_DIGIT_LAYOUTS,
    TimeFSM,
)
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
    # integers, IPv4 and floats next to YYYY.MM.DD (the typed groups
    # run ahead of the time flag)
    "2024.01.02 1.2.3.4 2024.01.02.5 3.25 10.0.0.1,2024.01.02",
    "0255.1.1.1 1000.1.1.1 2024.5 2024.01 12 Jan 2024 12 Janx",
    "1234 Mar 05 10:11:12 then 123456 203615 and 12 12 ok",
    "081109  203615 two spaces; 0811093 203615 seven digits",
    # month and day names, and words that only start like them
    "mon Monday mounted Mar, 5 Marc Mayday sept Sep 1 12:00:00 2024",
    "Monday, 01 Jan 2024 10:11:12 +0000 and Tue, 02 Feb 2021 10:11:12 UTC",
    "MONDAY JANUARY 5 jAn 7 12:13:14 december",
    # '::'-compressed IPv6 at a break, and dangling groups
    "::1",
    "fe80::",
    "addr fe80:: x ::ffff:10.0.0.1 y ::: z 12:: q a:b:c",
    "mac aa-bb-cc-dd-ee-ff 0a-1b-2c-3d-4e-5f AB:CD:EF:01:23:45",
    # URL schemes of 11, 12 and 13 characters
    "abcdefghijk://x abcdefghijkl://x abcdefghijklm://x",
    "git+ssh.x-y://h/p é://z",
    # a drive letter may be any str.isalpha() character
    "open \u00e9:\\dir\\x now",
    # carving after numbers
    "42. 1.2.3.4, v2.0!? 3.5. -7! +8? 1e5.",
    # Unicode digits: isdigit() but not ASCII
    "\u0663 \u00b21 \uff11\uff12 12\u0663 \u0663.\u0663.\u0663.\u0663 +\u00b2 2024-01-0\u0663",
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


#: element -> renderer of a valid random value
_FIELDS = {
    "YYYY": lambda r: str(r.randint(1000, 9999)),
    "YY": lambda r: f"{r.randint(0, 99):02d}",
    "MM": lambda r: f"{r.randint(1, 12):02d}",
    "M": lambda r: str(r.randint(1, 12)),
    "DD": lambda r: f"{r.randint(1, 31):02d}",
    "D": lambda r: str(r.randint(1, 31)),
    "hh": lambda r: f"{r.randint(0, 23):02d}",
    "h": lambda r: str(r.randint(0, 23)),
    "mm": lambda r: f"{r.randint(0, 59):02d}",
    "m": lambda r: str(r.randint(0, 59)),
    "ss": lambda r: f"{r.randint(0, 60):02d}",
    "s": lambda r: str(r.randint(0, 60)),
    "FFF": lambda r: str(r.randint(0, 10 ** r.randint(1, 9) - 1)),
    "MON": lambda r: r.choice(sorted(_MONTHS | _MONTHS_FULL)).title(),
    "DAY": lambda r: r.choice(sorted(_DAYS | _DAYS_FULL)).capitalize(),
    "AP": lambda r: r.choice(["AM", "pm"]),
    "OFF": lambda r: r.choice(["Z", "+0100", "-05:30"]),
    "ZZZ": lambda r: r.choice(["UTC", "CEST"]),
    " ": lambda r: " " * r.randint(1, 2),
}
#: where a rendered timestamp is placed: start of the message, after a
#: space, and before ',', ':' and '.5'
CONTEXTS = ["{}", "at {} x", "{}, y", "{}: y", "{}.5 y"]


def render(layout, rng):
    return "".join(
        _FIELDS[el](rng) if el in _FIELDS else el for el in _elements(layout)
    )


def rendered_layouts(seed=11, per_layout=6):
    rng = random.Random(seed)
    out = []
    for layout in DEFAULT_LAYOUTS + SINGLE_DIGIT_LAYOUTS:
        for _ in range(per_layout):
            stamp = render(layout, rng)
            out.extend((layout, ctx.format(stamp)) for ctx in CONTEXTS)
    return out


class TestFlagSeams:
    """The master regex against the FSM cascade where they meet: every
    catalogue layout rendered in context, the typed integer/IPv4 groups
    against the catalogue, and the flag's soundness at every token."""

    @pytest.mark.parametrize("single_digit,path_fsm", FLAG_COMBOS)
    def test_rendered_layouts(self, single_digit, path_fsm):
        config = ScannerConfig(
            allow_single_digit_time=single_digit, enable_path_fsm=path_fsm
        )
        fsm, compiled = Scanner(config), CompiledScanner(config)
        claimed = 0
        for layout, message in rendered_layouts():
            a, b = fsm.scan(message), compiled.scan(message)
            assert token_keys(a) == token_keys(b), (layout, message)
            claimed += any(t.type is TokenType.TIME for t in a.tokens)
        # the renderings do exercise the time FSM, not just the words
        assert claimed > len(rendered_layouts()) // 2

    def test_typed_groups_never_hold_a_timestamp(self):
        """Integers and IPv4 are typed ahead of the time FSM.  That is
        sound because of two facts about the catalogue, asserted here:
        a digit-led layout's leading digit run is followed by ``-/.:``,
        ``T`` or spaces — never by the end of a layout or another break
        character — and the only widths followed by spaces (2, 4, 6) and
        by ``.`` (4) are the ones the typed groups exclude."""
        after_run = {}
        for layout in DEFAULT_LAYOUTS + SINGLE_DIGIT_LAYOUTS:
            els = _elements(layout)
            if els[0] in ("MON", "DAY"):
                continue
            k = 0
            while k < len(els) and els[k] not in ("-", "/", ".", ":", " ", "T"):
                assert els[k] in (
                    "YYYY", "YY", "MM", "M", "DD", "D", "hh", "h",
                ), layout
                k += 1
            assert k < len(els), layout
            width = sum(
                {"YYYY": 4}.get(el, 2) for el in els[:k]
            )  # fixed widths; flex fields only ever precede '/' or ':'
            if els[:k] and set(els[:k]) & {"M", "D", "h"}:
                assert els[k] in ("/", ":"), layout
            after_run.setdefault(els[k], set()).add(width)
        assert after_run[" "] == {2, 4, 6}
        assert after_run["."] == {4}
        assert "T" not in after_run  # 'T' only follows a date
        rx = CompiledScanner()._master
        for message in ("12 Jan 2024 x", "2024 Jan 02 10:11:12", "081109 203615"):
            assert rx.match(message).group(3) is None  # not an integer
        # and empirically: wherever the typed groups fire, no FSM claims
        for single_digit in (False, True):
            scanner = CompiledScanner(
                ScannerConfig(allow_single_digit_time=single_digit)
            )
            ref = TimeFSM(allow_single_digit=single_digit)
            for _layout, message in rendered_layouts(seed=5, per_layout=4):
                for m in scanner._master.finditer(message):
                    for group in (3, 4):  # integer, IPv4
                        if m.group(group):
                            at = m.start(group)
                            assert ref.match(message, at) < 0, message
                            assert scanner._hex_fsm.match(message, at) is None

    @pytest.mark.parametrize("single_digit,path_fsm", FLAG_COMBOS)
    def test_every_fsm_token_start_is_flagged(self, single_digit, path_fsm):
        config = ScannerConfig(
            allow_single_digit_time=single_digit, enable_path_fsm=path_fsm
        )
        fsm, compiled = Scanner(config), CompiledScanner(config)
        messages = ADVERSARIAL + [m for _l, m in rendered_layouts(seed=3, per_layout=2)]
        for name in DATASET_NAMES:
            messages.extend(load_dataset(name, 20, seed=5).contents())
        claimed = {
            TokenType.TIME, TokenType.MAC, TokenType.IPV6,
            TokenType.URL, TokenType.PATH,
        }
        for message in messages:
            line = message.split("\n", 1)[0]
            for tok in fsm.scan(line).tokens:
                if tok.type in claimed:
                    m = compiled._master.match(line, tok.pos)
                    # group 5 flags by prefix, group 8 a URL scheme
                    assert m is not None and (m.group(5) or m.group(8)), (line, tok)


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


class TestUnicodeAssumptions:
    """The flag's character classes against the str predicates the FSMs
    use, over every code point."""

    def test_letter_class_covers_str_isalpha(self):
        letter = re.compile(r"[^\W\d_]")
        for cp in range(0x110000):
            c = chr(cp)
            if c.isalpha():
                assert letter.match(c), hex(cp)

    def test_only_ascii_lowers_to_a_month_or_day_letter(self):
        # TimeFSM compares s[i:i+3].lower() with ASCII names; the flag
        # spells them in ASCII case pairs
        initials = set("".join(_MONTHS | _DAYS))
        for cp in range(128, 0x110000):
            lower = chr(cp).lower()
            assert not (len(lower) == 1 and lower in initials), hex(cp)


class TestHypothesisIdentity:
    """Random messages built from the fragments every FSM and flag looks
    at, under all four flag combinations."""

    FRAGMENTS = [
        " ", "  ", "\t", "0", "1", "12", "2024", "255", "081109", "9", ".",
        ",", ":", "::", "-", "/", "\\", "T", "Z", "+", "e", "a", "f", "x",
        "Jan", "mon", "Monday", "Mar", "http", "://", "AM", "!", "?", "=",
        "(", "]", "\"", "\u0663", "\u00b2", "\u00e9", "C:\\", "/var/log",
    ]

    @pytest.mark.parametrize("single_digit,path_fsm", FLAG_COMBOS)
    @settings(max_examples=100, deadline=None)
    @given(parts=st.lists(st.sampled_from(FRAGMENTS), max_size=16))
    def test_bit_identical(self, single_digit, path_fsm, parts):
        config = ScannerConfig(
            allow_single_digit_time=single_digit, enable_path_fsm=path_fsm
        )
        message = "".join(parts)
        assert token_keys(Scanner(config).scan(message)) == token_keys(
            _compiled(single_digit, path_fsm).scan(message)
        ), repr(message)


class TestColumns:
    """``scan_columns`` is the one tokenizer loop: every message's slice
    of the flat columns, read token by token, is the reference scan —
    text, type, ``is_space_before``, ``pos`` — and ends in the REST
    marker exactly when the reference truncates.  Multi-line messages
    and the ``max_tokens`` cap ride in every batch."""

    FRAGMENTS = TestHypothesisIdentity.FRAGMENTS + ["\n", "\nat frame 3"]

    @staticmethod
    def column_keys(cols, k):
        lo = cols.ends[k - 1] if k else 0
        return [
            (cols.texts[i], cols.types[i], cols.spaces[i], cols.positions[i])
            for i in range(lo, cols.ends[k])
        ]

    @pytest.mark.parametrize("single_digit,path_fsm", FLAG_COMBOS)
    @settings(max_examples=60, deadline=None)
    @given(
        batch=st.lists(
            st.lists(st.sampled_from(FRAGMENTS), max_size=16).map("".join),
            max_size=6,
        ),
        max_tokens=st.sampled_from([0, 0, 1, 2, 3, 5]),
    )
    def test_columns_are_the_reference_scan(
        self, single_digit, path_fsm, batch, max_tokens
    ):
        config = ScannerConfig(
            allow_single_digit_time=single_digit,
            enable_path_fsm=path_fsm,
            max_tokens=max_tokens,
        )
        reference = Scanner(config)
        cols = _capped(single_digit, path_fsm, max_tokens).scan_columns(batch)
        assert len(cols) == len(cols.ends) == len(batch)
        assert cols.originals == batch
        for k, message in enumerate(batch):
            expected = reference.scan(message, service="s")
            assert self.column_keys(cols, k) == token_keys(expected), repr(message)
            built = cols.scanned(k, service="s")
            assert token_keys(built) == token_keys(expected)
            assert built.truncated == expected.truncated
            assert built.original == message and built.service == "s"

    def test_corpus_columns_are_the_reference_scan(self):
        messages = corpus()
        reference, compiled = Scanner(), CompiledScanner()
        cols = compiled.scan_columns(messages)
        assert len(cols.texts) == cols.ends[-1]
        rest = 0
        for k, message in enumerate(messages):
            keys = self.column_keys(cols, k)
            assert keys == token_keys(reference.scan(message)), repr(message)
            rest += bool(keys) and keys[-1][1] is TokenType.REST
        assert rest  # the corpus has multi-line messages

    def test_scan_and_scan_many_build_from_the_columns(self):
        compiled = CompiledScanner()
        cols = compiled.scan_columns(ADVERSARIAL)
        for k, message in enumerate(ADVERSARIAL):
            assert token_keys(compiled.scan(message)) == self.column_keys(cols, k)


@functools.lru_cache(maxsize=None)
def _capped(single_digit, path_fsm, max_tokens):
    return CompiledScanner(
        ScannerConfig(
            allow_single_digit_time=single_digit,
            enable_path_fsm=path_fsm,
            max_tokens=max_tokens,
        )
    )


@functools.lru_cache(maxsize=None)
def _compiled(single_digit, path_fsm):
    return CompiledScanner(
        ScannerConfig(allow_single_digit_time=single_digit, enable_path_fsm=path_fsm)
    )


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
