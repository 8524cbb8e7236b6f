"""The production scanner: a regex-program tokenizer.

The reference :class:`~repro.scanner.scanner.Scanner` walks every
message character by character in Python and consults its FSM cascade
(time → hex → URL → path → general) at every token start.  That loop is
the one cost every message pays on every execution path — the fast lane
only short-circuits duplicates — which makes it the throughput floor of
the whole pipeline.

This module compiles the cascade into a small set of precompiled
``re`` programs executed left-to-right over each line:

* whitespace runs and general words are consumed by single C-level
  regex matches instead of per-character Python iterations;
* each specialised FSM sits behind a *sound gate* — a cheap compiled
  prefilter that can never reject a real match but rejects the vast
  majority of token starts (a plain word or integer) without entering
  the FSM at all.  Gated positions still run the reference FSMs, so the
  emitted token stream is bit-identical to the FSM cascade's by
  construction: text, type, ``is_space_before`` and ``pos`` all come
  from the same code once a gate opens.

The gates are derived from the FSM entry conditions:

* **time** — every digit-led layout in the catalogue starts with 1-4
  digits followed by a separator (``-/.:``), 1-4 digits then spaces and
  a month/day name, or a compact 6/8-digit date block; alpha-led
  layouts start with a known month/day name prefix (the same check
  :meth:`TimeFSM.match` performs first).
* **hex** — a successful MAC/IPv6 match always has a hex group of at
  most four digits followed by ``:`` or ``-`` and another hex digit or
  colon, or starts with ``::``.
* **URL** — the scheme is 1-12 characters, so ``://`` must occur
  within 12 characters of the token start.
* **path** (opt-in) — a match starts with ``/`` or ``\\``, a Windows
  drive prefix, or a run of component characters reaching a ``/``.

Word classification and text allocation go through the same bounded
memo + ``sys.intern`` layer as the reference scanner
(:class:`~repro.scanner.scanner.WordCache`).
"""

from __future__ import annotations

import re

from repro.scanner.scanner import Scanner
from repro.scanner.time_fsm import (
    _COMPACT,
    _DAYS,
    _DIGIT_FIELDS,
    _MONTHS,
    _MONTHS_FULL,
    _NAMES,
    TimeFSM,
)
from repro.scanner.token_types import Token, TokenType

__all__ = ["CompiledScanner", "CompiledTimeFSM"]


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
#   into these runs always fails and greedy equals possessive (possessive
#   quantifiers themselves would need Python 3.11);
# * month names use explicit ``[Jj][Aa][Nn]`` character pairs (matching
#   the FSM's ``.lower()`` comparison, unlike ``re.IGNORECASE`` which
#   also case-folds exotica like the Kelvin sign);
# * the FSM's "name not followed by a letter" checks on MON/AP are
#   dropped because in every digit-led layout those elements are
#   followed by a separator literal (which cannot match a letter) or
#   are final (where ``_boundary_ok`` already rejects letters) — the
#   layout dies at the same inputs either way.
#
# Alpha-led layouts (DAY/MON first) keep the interpreted matchers: they
# are already gated by a month/day-name prefix check and contribute
# nothing to the hot path.

_MONTH_RX = "(?:%s)" % "|".join(
    "".join(f"[{ch.upper()}{ch}]" for ch in name)
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
    i = 0
    compact = any(run in layout for run in _COMPACT)
    prev = ""
    while i < len(layout):
        for name in _NAMES:
            if layout.startswith(name, i):
                if prev == "FFF" and name not in ("MON", "AP", "OFF", " "):
                    raise KeyError(f"FFF followed by {name!r}")
                if prev == " " and name == " ":
                    raise KeyError("space followed by space")
                if compact and name in _DIGIT_FIELDS:
                    parts.append(r"\d{%d}" % _DIGIT_FIELDS[name])
                else:
                    parts.append(_ELEMENT_RX[name])
                prev = name
                i += len(name)
                break
        else:
            if prev == "FFF" and layout[i].isdigit():
                raise KeyError(f"FFF followed by {layout[i]!r}")
            parts.append(re.escape(layout[i]))
            prev = ""
            i += 1
    return "".join(parts)


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
            from repro.scanner.time_fsm import DEFAULT_LAYOUTS

            layouts = DEFAULT_LAYOUTS
        super().__init__(layouts, allow_single_digit)
        if allow_single_digit:
            from repro.scanner.time_fsm import SINGLE_DIGIT_LAYOUTS

            layouts = layouts + SINGLE_DIGIT_LAYOUTS
        self._digit_programs: list[re.Pattern[str]] = []
        self._digit_fallbacks: list[list] = []
        from repro.scanner.time_fsm import _compile

        for layout in layouts:
            if layout[0].isalpha() and layout[:3] in ("MON", "DAY"):
                continue  # alpha-led: handled by the parent class
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

# one-or-more whitespace: \s is verified (tests/scanner/test_compiled.py)
# to agree with str.isspace(), the reference tokeniser's delimiter test
_WS_RX = re.compile(r"\s+")

# maximal run of non-whitespace, non-break characters — exactly the
# reference general FSM's word loop (break set mirrors _BREAK_CHARS)
_WORD_RX = re.compile(r"""[^\s()\[\]{}"'=,;<>|:]+""")

# sound gate for digit-led timestamp layouts (see module docstring);
# re.ASCII because the FSM's digit test is ASCII-strict
_TIME_GATE = re.compile(
    r"\d{1,4}[-/.:]|\d{1,4} +[A-Za-z]|\d{6} \d|\d{8}-\d", re.ASCII
)

# sound gate for MAC/IPv6: a short hex group, a separator, and more
# address material — or a leading '::' compression
_HEX_GATE = re.compile(r"[0-9a-fA-F]{1,4}[:-][0-9a-fA-F:]|::")

# sound gate for the opt-in path FSM: absolute/UNC/drive starts, or a
# component run that actually reaches a '/'
_PATH_GATE = re.compile(r"[/\\]|[A-Za-z]:\\|[A-Za-z0-9._+~@%\-]+/")

# first characters that can open a month or day name (both cases)
_MONTH_DAY_PREFIXES = frozenset(_MONTHS) | frozenset(_DAYS)
_MONTH_DAY_INITIALS = frozenset(
    p[0] for p in _MONTH_DAY_PREFIXES
) | frozenset(p[0].upper() for p in _MONTH_DAY_PREFIXES)

_HEX_LETTERS = frozenset("abcdefABCDEF")

# trailing sentence punctuation carved off words (Scanner._TRAILING)
_TRAILING = set(".,!?")


class CompiledScanner(Scanner):
    """Drop-in scanner executing compiled regex programs per line.

    Construction, configuration, multi-line truncation and the
    ``max_tokens`` cap are all inherited from :class:`Scanner`; only the
    per-line tokenisation loop differs.  The token streams are
    bit-identical (asserted by the differential property suite in
    ``tests/scanner/test_compiled.py``, not assumed).
    """

    def __init__(self, config=None) -> None:
        super().__init__(config)
        # swap in the regex-program time matcher (same layout catalogue)
        self._time_fsm = CompiledTimeFSM(
            allow_single_digit=self.config.allow_single_digit_time
        )

    # ------------------------------------------------------------------
    def _scan_line(self, s: str) -> list[Token]:
        tokens: list[Token] = []
        n = len(s)
        i = 0
        space_before = False

        # hoist every per-iteration attribute lookup out of the loop
        append = tokens.append
        ws_match = _WS_RX.match
        word_match = _WORD_RX.match
        time_gate = _TIME_GATE.match
        hex_gate = _HEX_GATE.match
        time_match = self._time_fsm.match
        hex_match = self._hex_fsm.match
        path_fsm = self._path_fsm
        path_gate = _PATH_GATE.match if path_fsm is not None else None
        lookup = self._words.lookup
        match_url = self._match_url
        month_day_initials = _MONTH_DAY_INITIALS
        month_day_prefixes = _MONTH_DAY_PREFIXES
        hex_letters = _HEX_LETTERS
        break_chars = self._BREAK_CHARS
        trailing = _TRAILING
        TIME = TokenType.TIME
        URL = TokenType.URL
        PATH = TokenType.PATH
        LITERAL = TokenType.LITERAL

        while i < n:
            c = s[i]
            if c.isspace():
                i = ws_match(s, i).end()
                space_before = True
                continue

            if "0" <= c <= "9":
                # 1. datetime FSM (digit-led layouts)
                if time_gate(s, i) is not None:
                    end = time_match(s, i)
                    if end > 0:
                        append(Token(s[i:end], TIME, space_before, i))
                        i = end
                        space_before = False
                        continue
                # 2. hexadecimal FSM (digits are hex digits too)
                if hex_gate(s, i) is not None:
                    hit = hex_match(s, i)
                    if hit is not None:
                        end, ttype = hit
                        append(Token(s[i:end], ttype, space_before, i))
                        i = end
                        space_before = False
                        continue
                # 3. URL: schemes start with a letter — never matches here
            elif c.isalpha():
                # 1. datetime FSM (month/day-name-led layouts)
                if (
                    c in month_day_initials
                    and s[i : i + 3].lower() in month_day_prefixes
                ):
                    end = time_match(s, i)
                    if end > 0:
                        append(Token(s[i:end], TIME, space_before, i))
                        i = end
                        space_before = False
                        continue
                # 2. hexadecimal FSM (a-f letters open hex groups)
                if c in hex_letters and hex_gate(s, i) is not None:
                    hit = hex_match(s, i)
                    if hit is not None:
                        end, ttype = hit
                        append(Token(s[i:end], ttype, space_before, i))
                        i = end
                        space_before = False
                        continue
                # 3. URL: '://' must sit within the 12-char scheme budget
                if s.find("://", i + 1, i + 15) != -1:
                    end = match_url(s, i)
                    if end > 0:
                        append(Token(s[i:end], URL, space_before, i))
                        i = end
                        space_before = False
                        continue
            elif c == ":" and s.startswith("::", i):
                # 2. hexadecimal FSM: '::'-compressed IPv6
                hit = hex_match(s, i)
                if hit is not None:
                    end, ttype = hit
                    append(Token(s[i:end], ttype, space_before, i))
                    i = end
                    space_before = False
                    continue

            # 4. path FSM (future-work extension, opt-in)
            if path_gate is not None and path_gate(s, i) is not None:
                end = path_fsm.match(s, i)
                if end > 0:
                    append(Token(s[i:end], PATH, space_before, i))
                    i = end
                    space_before = False
                    continue

            # 5. general text/number FSM
            if c in break_chars:
                append(Token(c, LITERAL, space_before, i))
                i += 1
                space_before = False
                continue

            j = word_match(s, i).end()
            word = s[i:j]

            # carve trailing sentence punctuation into separate tokens,
            # but only when the remaining head still carries content
            if word[-1] in trailing and len(word) > 1:
                carved: list[tuple[str, int]] = []
                while (
                    len(word) > 1
                    and word[-1] in trailing
                    and any(ch.isalnum() for ch in word[:-1])
                ):
                    carved.append((word[-1], i + len(word) - 1))
                    word = word[:-1]
                text, ttype = lookup(word)
                append(Token(text, ttype, space_before, i))
                for text, pos in reversed(carved):
                    append(Token(text, LITERAL, False, pos))
            else:
                text, ttype = lookup(word)
                append(Token(text, ttype, space_before, i))
            i = j
            space_before = False
        return tokens
