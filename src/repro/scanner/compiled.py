"""The production scanner: one master-regex pass per line.

The reference :class:`~repro.scanner.scanner.Scanner` walks every
message character by character in Python and consults its FSM cascade
(time → hex → URL → path → general) at every token start.  That loop is
the one cost every message pays on every execution path — batch dedup
only short-circuits duplicates — which makes it the throughput floor of
the whole pipeline.

This module tokenises a line with one ``findall`` of a *master regex*,
built once per :class:`~repro.scanner.scanner.ScannerConfig`.  Each
match is ``(\\s*)`` — the whitespace before the token, which is its
``is_space_before`` — followed by exactly one of these groups:

* **break** — a single break character (``:`` only when not opening
  ``::``);
* **integer** and **IPv4** — whole words of those shapes, typed in C;
* **flag** — a word (or ``::``) at which the time, hex or (opt-in) path
  FSM *could* claim a token.  The flag is a sound superset derived from
  the FSM entry conditions and the layout catalogue (see
  :func:`_master_rx`), so the single-digit and path options change the
  regex, not the loop;
* **number-shaped word** — classified once per distinct text by the
  scanner's :class:`~repro.scanner.scanner.WordCache`;
* **word** — any other word, a literal interned through the same cache
  without running the classifier; or, when ``://`` follows it, a
  flagged URL scheme (the scheme's characters are all word characters,
  so the word is the scheme).

Only a flagged token runs Python FSM code: the unchanged cascade for
that one token.  When the claimed token ends where the flagged word
does, the pass keeps consuming the same ``findall`` tuples; otherwise
(a timestamp spanning spaces, a URL through a ``:``) it resumes with a
fresh ``findall`` at the token's end.

The pass builds no :class:`~repro.scanner.token_types.Token`: it
appends each token's text, type, ``is_space_before`` and position to
the flat columns of a :class:`TokenColumns` (the flagged cascade emits
into the same columns), and the ``REST`` marker and the ``max_tokens``
cut happen in the same loop.  :meth:`CompiledScanner.scan_columns` is
that loop, once; ``scan`` and ``scan_many`` build their tokens from its
columns.  The scan stage calls ``scan_columns``, so a message the
parser matches on its columns never becomes tokens at all — only a
miss does, on its way to the analyser.

Integers and IPv4 are typed ahead of the flag, which is sound only
because no catalogue layout can match at such a word: a layout's
leading digit run must be followed by the character that ends the word,
and the two groups exclude exactly the follow-ups the catalogue has
(:func:`_int_guards`).  ``tests/scanner/test_compiled.py`` asserts that
against the catalogue, and the whole token stream — text, type,
``is_space_before``, ``pos`` — against the reference cascade.
"""

from __future__ import annotations

import re

from repro.scanner.scanner import ScannedMessage, Scanner
from repro.scanner.time_fsm import (
    _COMPACT,
    _DAYS,
    _DAYS_FULL,
    _DIGIT_FIELDS,
    _MONTHS,
    _MONTHS_FULL,
    _NAMES,
    DEFAULT_LAYOUTS,
    SINGLE_DIGIT_LAYOUTS,
    TimeFSM,
    _compile,
)
from repro.scanner.token_types import Token, TokenType

__all__ = ["CompiledScanner", "CompiledTimeFSM", "TokenColumns"]


# --- compiled time programs -------------------------------------------------
#
# Digit-led layouts are translated element-by-element into regex programs
# that reproduce the interpreted matchers exactly:
#
# * fixed/flex digit fields become value-range alternations guarded by a
#   ``(?!\d)`` lookahead — the guard encodes the FSM's "reject if the
#   digit run continues" rule and also sterilises backtracking into the
#   shorter alternatives of flex fields;
# * ``FFF`` and spaces consume maximal runs greedily, like the FSM; the
#   following element can never match a digit or a space, so backtracking
#   into these runs always fails and greedy equals possessive;
# * month names use explicit ``[Jj][Aa][Nn]`` character pairs (matching
#   the FSM's ``.lower()`` comparison, unlike ``re.IGNORECASE`` which
#   also case-folds exotica like the Kelvin sign);
# * the FSM's "name not followed by a letter" checks on MON/AP are
#   dropped because in every digit-led layout those elements are
#   followed by a separator literal (which cannot match a letter) or
#   are final (where ``_boundary_ok`` already rejects letters) — the
#   layout dies at the same inputs either way.
#
# Alpha-led layouts (DAY/MON first) keep the interpreted matchers: the
# master regex flags them only at a month or day name.


def _case_pairs(name: str) -> str:
    return "".join(f"[{ch.upper()}{ch}]" for ch in name)


_MONTH_RX = "(?:%s)" % "|".join(
    _case_pairs(name)
    for name in (
        sorted(_MONTHS_FULL, key=lambda n: (-len(n), n)) + sorted(_MONTHS)
    )
)

#: element → regex mirroring ``time_fsm._compile``'s non-compact choice
#: (valued two-digit fields; compact raw fields are emitted separately)
_ELEMENT_RX = {
    "YYYY": r"[1-9]\d{3}(?!\d)",  # _fixed_digits(4, 1000, 9999)
    "YY": r"\d{2}",  # _raw_digits(2)
    "MM": r"(?:0[1-9]|1[0-2])(?!\d)",  # _fixed_digits(2, 1, 12)
    "M": r"(?:0[1-9]|1[0-2]|[1-9])(?!\d)",  # _flex_digits(2, 1, 12)
    "DD": r"(?:0[1-9]|[12]\d|3[01])(?!\d)",  # _fixed_digits(2, 1, 31)
    "D": r"(?:0[1-9]|[12]\d|3[01]|[1-9])(?!\d)",  # _flex_digits(2, 1, 31)
    "hh": r"(?:[01]\d|2[0-3])(?!\d)",  # _fixed_digits(2, 0, 23)
    "h": r"(?:[01]\d|2[0-3]|\d)(?!\d)",  # _flex_digits(2, 0, 23)
    "mm": r"[0-5]\d(?!\d)",  # _fixed_digits(2, 0, 59)
    "m": r"(?:[0-5]\d|\d)(?!\d)",  # _flex_digits(2, 0, 59)
    "ss": r"(?:[0-5]\d|60)(?!\d)",  # _fixed_digits(2, 0, 60)
    "s": r"(?:[0-5]\d|60|\d)(?!\d)",  # _flex_digits(2, 0, 60)
    "FFF": r"\d{1,9}",  # _fraction (maximal, no boundary check)
    "MON": _MONTH_RX,
    "AP": r"(?:[Aa][Mm]|[Pp][Mm])",
    "OFF": r"(?:Z|[+-](?:\d{4}(?!\d)|\d{2}:\d{2}(?!\d)))",
    " ": r"[ ]+",  # _space: one or more literal spaces
}


def _elements(layout: str) -> list[str]:
    """Split *layout* into element names and literal characters, with
    the longest-first element parse of ``time_fsm._compile``."""
    out: list[str] = []
    i = 0
    while i < len(layout):
        for name in _NAMES:
            if layout.startswith(name, i):
                out.append(name)
                i += len(name)
                break
        else:
            out.append(layout[i])
            i += 1
    return out


def _layout_to_regex(layout: str) -> str:
    """Translate one layout into a regex source string.

    Follows the same element tokenisation and compact/valued/raw choice
    as :func:`repro.scanner.time_fsm._compile`.  Raises ``KeyError`` for
    elements with no regex translation (DAY/ZZZ — alpha-layout only),
    and for layouts where a digit element or digit literal directly
    follows ``FFF``, or a space follows a space: there the FSM's
    no-backtracking greed is load-bearing and the greedy regex would
    diverge, so those (hypothetical, custom-catalogue) layouts stay on
    the interpreted matchers.
    """
    parts: list[str] = []
    compact = any(run in layout for run in _COMPACT)
    prev = ""
    for el in _elements(layout):
        if el in _ELEMENT_RX:
            if prev == "FFF" and el not in ("MON", "AP", "OFF", " "):
                raise KeyError(f"FFF followed by {el!r}")
            if prev == " " and el == " ":
                raise KeyError("space followed by space")
            if compact and el in _DIGIT_FIELDS:
                parts.append(r"\d{%d}" % _DIGIT_FIELDS[el])
            else:
                parts.append(_ELEMENT_RX[el])
        elif el in ("DAY", "ZZZ"):
            raise KeyError(el)
        else:
            if prev == "FFF" and el.isdigit():
                raise KeyError(f"FFF followed by {el!r}")
            parts.append(re.escape(el))
        prev = el
    return "".join(parts)


def _is_alpha_led(layout: str) -> bool:
    return layout[:3] in ("MON", "DAY")


class CompiledTimeFSM(TimeFSM):
    """TimeFSM with digit-led layouts compiled to regex programs.

    Longest-match and boundary semantics are preserved: every program is
    tried at the position and the longest end passing ``_boundary_ok``
    wins, exactly like the interpreted loop.  Digit-led layouts that
    cannot be translated (custom catalogues using DAY/ZZZ after digits)
    fall back to their interpreted matchers.
    """

    def __init__(
        self,
        layouts: tuple[str, ...] | None = None,
        allow_single_digit: bool = False,
    ) -> None:
        if layouts is None:
            layouts = DEFAULT_LAYOUTS
        super().__init__(layouts, allow_single_digit)
        if allow_single_digit:
            layouts = layouts + SINGLE_DIGIT_LAYOUTS
        self._digit_programs: list[re.Pattern[str]] = []
        self._digit_fallbacks: list[list] = []
        for layout in layouts:
            if _is_alpha_led(layout):
                continue  # handled by the parent class
            try:
                self._digit_programs.append(re.compile(_layout_to_regex(layout)))
            except KeyError:
                self._digit_fallbacks.append(_compile(layout))

    def match(self, s: str, i: int) -> int:
        c = s[i] if i < len(s) else ""
        if not ("0" <= c <= "9"):
            return super().match(s, i)
        best = -1
        boundary_ok = self._boundary_ok
        for rx in self._digit_programs:
            m = rx.match(s, i)
            if m is not None:
                j = m.end()
                if j > best and boundary_ok(s, j):
                    best = j
        for matchers in self._digit_fallbacks:
            j = i
            for mt in matchers:
                j = mt(s, j)
                if j < 0:
                    break
            else:
                if j > best and boundary_ok(s, j):
                    best = j
        return best


# --- the master regex -------------------------------------------------------

_BREAK = "".join(sorted(Scanner._BREAK_CHARS))
#: one word of the general FSM: a maximal run of non-whitespace,
#: non-break characters (\s is verified to agree with str.isspace())
_WORD_CLASS = "[^\\s%s]" % re.escape(_BREAK)
#: lookahead: the word ends here
_WORD_END = "(?=[\\s%s]|\\Z)" % re.escape(_BREAK)

#: width range of each digit field, as the FSM's matchers consume it
_DIGIT_WIDTHS = {name: (n, n) for name, n in _DIGIT_FIELDS.items()}
_DIGIT_WIDTHS.update({name: (1, 2) for name in ("M", "D", "h", "m", "s")})
_DIGIT_WIDTHS["FFF"] = (1, 9)


def _trie_rx(words) -> str:
    """Case-pair regex of lower-case ASCII *words*, factored into a trie
    so that a mismatch costs one character test per level."""
    trie: dict = {}
    for word in words:
        node = trie
        for ch in word:
            node = node.setdefault(ch, {})
        node[""] = {}

    def emit(node: dict) -> str:
        alts = [_case_pairs(ch) + emit(node[ch]) for ch in sorted(node) if ch]
        if not alts:
            return ""
        body = alts[0] if len(alts) == 1 else "(?:%s)" % "|".join(alts)
        return "(?:%s)?" % body if "" in node else body

    return emit(trie)


def _digit_leads(layouts) -> list[tuple[int, int, str | None, str | None]]:
    """Per digit-led layout: the width range of its leading digit run,
    the element after it and the one after that (None past the end).

    A digit-led layout can only match at a digit, so every timestamp it
    claims starts with that run followed by that element.
    """
    leads = []
    for layout in layouts:
        if _is_alpha_led(layout):
            continue
        els = _elements(layout)
        lo = hi = k = 0
        while k < len(els) and els[k] in _DIGIT_WIDTHS:
            a, b = _DIGIT_WIDTHS[els[k]]
            lo, hi, k = lo + a, hi + b, k + 1
        if not hi:
            continue  # opens with a non-digit: never matches at a digit
        nxt = els[k] if k < len(els) else None
        after = els[k + 1] if k + 1 < len(els) else None
        leads.append((lo, hi, nxt, after))
    return leads


def _after_first_digit(alts) -> str:
    """``[0-9]`` and then any of *alts*, given as ``(lo, hi, tail)``: a
    digit run of lo..hi digits in all (the first included), then tail.
    Sharing the first digit test lets every other word skip the lot."""
    rxs = []
    for lo, hi, tail in alts:
        lo, hi = lo - 1, hi - 1
        run = "" if not hi else "[0-9]{%d}" % lo if lo == hi else "[0-9]{%d,%d}" % (lo, hi)
        rxs.append(run + tail)
    return "[0-9](?:%s)" % "|".join(dict.fromkeys(rxs))


def _time_flag(leads) -> str:
    """Where a digit-led layout can start: its lead run and what follows
    (a literal, or spaces then a month name or digit).  Elements whose
    first character is not pinned add nothing — a looser superset."""
    alts = []
    for lo, hi, nxt, after in leads:
        tail = ""
        if nxt == " ":
            tail = " +" + (
                _trie_rx(_MONTHS | _MONTHS_FULL) if after == "MON"
                else "[0-9]" if after in _DIGIT_WIDTHS
                else ""
            )
        elif nxt is not None and len(nxt) == 1:  # a literal character
            tail = re.escape(nxt)
        alts.append((lo, hi, tail))
    return _after_first_digit(alts)


def _int_guards(leads) -> tuple[str, str]:
    """Negative lookaheads that keep the integer and IPv4 groups off
    every word a digit-led layout could claim.

    Such a word is exactly a layout's lead run followed by the character
    that ends the word, so a layout can only claim an integer word when
    its lead is followed by whitespace, a break character or nothing,
    and an IPv4 word when its lead is followed by ``.``.  (``:`` after
    an integer — clock times, hex groups — is excluded by the integer
    group's follow set instead.)
    """
    ints, ipv4 = [], []
    for lo, hi, nxt, _after in leads:
        if nxt is None:
            ints.append((lo, hi, "(?![0-9])"))
        elif nxt != ":" and (nxt.isspace() or nxt in Scanner._BREAK_CHARS):
            ints.append((lo, hi, re.escape(nxt)))
        elif nxt == ".":
            ipv4.append((lo, hi, r"\."))
    return tuple(
        "(?!%s)" % _after_first_digit(alts) if alts else "" for alts in (ints, ipv4)
    )


#: month or day name as ``TimeFSM``'s alpha branch accepts it: the
#: name-matchers need it not followed by a letter (ASCII letters are a
#: subset of str.isalpha(), so the lookahead never rejects a real match)
_NAME_FLAG = _trie_rx(_MONTHS | _MONTHS_FULL | _DAYS | _DAYS_FULL) + "(?![A-Za-z])"
#: MAC/IPv6: a hex group of at most four digits, a separator and more
#: address material (a fifth hex digit fails the FSM too); spelled with
#: a leading character class, which lets the regex engine skip the
#: branch on one test
_HEX_FLAG = "[0-9a-fA-F][0-9a-fA-F]{0,3}+[:-][0-9a-fA-F:]"
#: path FSM: absolute/UNC, a drive letter, or components reaching a '/'
_PATH_FLAG = r"[/\\]|[^\W\d_]:\\|[A-Za-z0-9._+~@%\-]+/"
#: the octets ``Scanner._classify_word`` accepts: leading zeros, <= 255
_OCTET = "0*(?:25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"


def _master_rx(single_digit: bool, path: bool) -> re.Pattern[str]:
    """The one tokenising regex for a scanner configuration."""
    layouts = DEFAULT_LAYOUTS + (SINGLE_DIGIT_LAYOUTS if single_digit else ())
    leads = _digit_leads(layouts)
    flags = [_time_flag(leads), _NAME_FLAG, _HEX_FLAG]
    if path:
        flags.append(_PATH_FLAG)
    int_guard, ipv4_guard = _int_guards(leads)
    no_colon = re.escape(_BREAK.replace(":", ""))
    return re.compile(
        "(\\s*)(?:"
        # 1. break character (``::`` is flagged below)
        f"([{no_colon}]|:(?!:))"
        # 2. integer / 3. IPv4, typed here
        f"|(?=[+\\-0-9])(?:{int_guard}([+-]?[0-9]++)(?=[\\s{no_colon}]|\\Z)"
        f"|{ipv4_guard}([+-]?{_OCTET}(?:\\.{_OCTET}){{3}}){_WORD_END})"
        # 4. flagged: the FSM cascade decides
        f"|((?=(?:{'|'.join(flags)})){_WORD_CLASS}++|::)"
        # 5. a word shaped like a number: the word cache classifies it
        f"|([+-]?[0-9][0-9.e+\\-]*+){_WORD_END}"
        # 6. any other word: a literal — unless ``://`` follows it,
        # which flags a URL scheme (its letters are all word characters)
        f"|({_WORD_CLASS}++)(?!://)|({_WORD_CLASS}++))"
    )


_TRAILING = frozenset(".,!?")
_REST = TokenType.REST


class TokenColumns:
    """Messages scanned to token columns, the output of
    :meth:`CompiledScanner.scan_columns`.

    Four flat, parallel columns hold every token of every message —
    ``texts``, ``types``, ``spaces`` (``is_space_before``) and
    ``positions`` — and message *k*'s tokens are the slice from
    ``ends[k - 1]`` (0 for the first) to ``ends[k]``.  A batch is a
    handful of lists instead of a :class:`Token` per token, which is
    what lets a parser hit match on the ``texts`` and ``types`` slices
    (:meth:`repro.parser.compiled.CompiledParser.match_columns`) without
    building a token; :meth:`scanned` builds them, for the messages that
    need them.
    """

    __slots__ = ("originals", "ends", "texts", "types", "spaces", "positions")

    def __init__(self, originals: list[str]) -> None:
        self.originals = list(originals)
        self.ends: list[int] = []
        self.texts: list[str] = []
        self.types: list[TokenType] = []
        self.spaces: list[bool] = []
        self.positions: list[int] = []

    def __len__(self) -> int:
        return len(self.originals)

    def append(self, token: Token) -> None:
        """Take one token apart into the columns (the sink the FSM
        cascade emits into)."""
        self.texts.append(token.text)
        self.types.append(token.type)
        self.spaces.append(token.is_space_before)
        self.positions.append(token.pos)

    def scanned(self, k: int, service: str = "") -> ScannedMessage:
        """Message *k* as :meth:`Scanner.scan` returns it: truncated
        exactly when its tokens end in the REST marker."""
        ends = self.ends
        lo = ends[k - 1] if k else 0
        hi = ends[k]
        types = self.types[lo:hi]
        tokens = list(map(
            Token, self.texts[lo:hi], types, self.spaces[lo:hi], self.positions[lo:hi]
        ))
        # positional: original, tokens, truncated, service
        return ScannedMessage(
            self.originals[k], tokens, bool(types) and types[-1] is _REST, service
        )


class CompiledScanner(Scanner):
    """Drop-in scanner tokenising each line with one master-regex pass.

    Construction and configuration are inherited from :class:`Scanner`.
    :meth:`scan_columns` is the one tokenizer loop — multi-line
    truncation and the ``max_tokens`` cap included — and :meth:`scan` /
    :meth:`scan_many` build their tokens from its columns.  The token
    streams are bit-identical to the reference cascade (asserted by the
    differential property suite in ``tests/scanner/test_compiled.py``,
    not assumed).
    """

    def __init__(self, config=None) -> None:
        super().__init__(config)
        # swap in the regex-program time matcher (same layout catalogue)
        self._time_fsm = CompiledTimeFSM(
            allow_single_digit=self.config.allow_single_digit_time
        )
        self._master = _master_rx(
            self.config.allow_single_digit_time, self.config.enable_path_fsm
        )

    def scan(self, message: str, service: str = "") -> ScannedMessage:
        return self.scan_columns([message]).scanned(0, service)

    def scan_many(
        self, messages: list[str], service: str = ""
    ) -> list[ScannedMessage]:
        cols = self.scan_columns(messages)
        return [cols.scanned(k, service) for k in range(len(cols))]

    # ------------------------------------------------------------------
    def scan_columns(self, messages: list[str]) -> TokenColumns:
        """Scan every message, in order, to one set of :class:`TokenColumns`.

        Message *k*'s columns hold what :meth:`Scanner.scan` returns,
        token for token: a multi-line message is scanned to its first
        line break and ends in a ``REST`` marker, and a message over
        ``max_tokens`` is cut to ``max_tokens - 1`` tokens plus the
        marker.
        """
        cols = TokenColumns(messages)
        texts, types, spaces, positions = (
            cols.texts, cols.types, cols.spaces, cols.positions
        )
        text_append = texts.append
        type_append = types.append
        space_append = spaces.append
        pos_append = positions.append
        sink = cols.append
        findall = self._master.findall
        cached = self._words._data.get  # a memo hit costs no Python frame
        lookup = self._words.lookup
        token_at = self._token_at
        max_tokens = self.config.max_tokens
        trailing = _TRAILING
        LITERAL = TokenType.LITERAL
        INTEGER = TokenType.INTEGER
        IPV4 = TokenType.IPV4
        ends = cols.ends
        end_append = ends.append
        for message in messages:
            newline = message.find("\n")
            s = message if newline < 0 else message[:newline]
            pos = start = 0
            while True:
                for ws, brk, num, ip, flag, numeric, word, scheme in findall(s, start):
                    if ws:
                        pos += len(ws)
                        space_before = True
                    else:
                        space_before = False
                    word = word or numeric
                    if word:
                        if word[-1] in trailing and len(word) > 1:
                            # carving: the cascade's general FSM does it
                            token_at(s, pos, space_before, sink)
                        else:
                            hit = cached(word) or lookup(
                                word, None if numeric else LITERAL
                            )
                            text_append(hit[0])
                            type_append(hit[1])
                            space_append(space_before)
                            pos_append(pos)
                        pos += len(word)
                        continue
                    if brk:
                        text, ttype = brk, LITERAL
                    elif num:
                        text, ttype = num, INTEGER
                    elif ip:
                        text, ttype = ip, IPV4
                    else:
                        end = token_at(s, pos, space_before, sink)
                        if end != pos + len(flag or scheme):
                            # the claimed token ends inside or past the
                            # flagged word: resume the pass at its end
                            pos = start = end
                            break
                        pos = end
                        continue
                    text_append(text)
                    type_append(ttype)
                    space_append(space_before)
                    pos_append(pos)
                    pos += len(text)
                else:
                    break
            if newline >= 0:
                sink(Token("", _REST, True, len(s)))
            if max_tokens:
                first = ends[-1] if ends else 0
                if len(texts) - first > max_tokens:
                    # the marker replaces the last kept token: the cap
                    # counts it
                    cut = first + max_tokens - 1
                    for column in (texts, types, spaces, positions):
                        del column[cut:]
                    sink(Token("", _REST, True, len(s)))
            end_append(len(texts))
        return cols
