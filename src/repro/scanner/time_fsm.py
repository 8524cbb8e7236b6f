"""Datetime finite state machine.

Sequence recognises timestamps at scan time with a dedicated FSM compiled
from a catalogue of known layouts, which lets it process a message in a
single pass without any user-supplied regular expressions.  This module
reimplements that design: each layout is written in a compact element
language, compiled once into a matcher, and the FSM returns the longest
match over all layouts starting at a given character position.

Two behaviours from the paper are modelled explicitly:

* **Leading-zero limitation (§IV "Limitations")** — the published FSM
  cannot parse time parts without a leading zero, e.g. the HealthApp raw
  timestamp ``20171224-0:7:20:444``.  That is the default here too.
* **Future-work fix (§VI)** — ``allow_single_digit=True`` adds the
  single-digit layout variants, which is the modification the authors
  list as future work.

Layout element language
-----------------------
``YYYY`` 4-digit year · ``YY`` 2-digit year · ``MM``/``M`` month with/
without leading zero · ``DD``/``D`` day · ``hh``/``h`` hour · ``mm``/``m``
minute · ``ss``/``s`` second · ``FFF`` 1-9 fractional digits · ``MON``
month name · ``DAY`` weekday name · ``AP`` am/pm · ``OFF`` numeric UTC
offset · ``ZZZ`` timezone abbreviation.  A space matches one or more
spaces (syslog pads single-digit days: ``Jan  2``).  Any other character
matches itself.
"""

from __future__ import annotations

from collections.abc import Callable

__all__ = ["TimeFSM", "DEFAULT_LAYOUTS", "SINGLE_DIGIT_LAYOUTS"]

_MONTHS = {
    "jan", "feb", "mar", "apr", "may", "jun",
    "jul", "aug", "sep", "oct", "nov", "dec",
}
_MONTHS_FULL = {
    "january", "february", "march", "april", "may", "june", "july",
    "august", "september", "october", "november", "december",
}
_DAYS = {"mon", "tue", "wed", "thu", "fri", "sat", "sun"}
_DAYS_FULL = {
    "monday", "tuesday", "wednesday", "thursday",
    "friday", "saturday", "sunday",
}

# Characters that may legally follow a complete timestamp.  Letters,
# digits, ':' and '-' would indicate we matched a prefix of something
# larger (e.g. the first three octet pairs of a MAC address), so they
# invalidate the match.
_BOUNDARY_OK = set(" \t,;)]}\"'|=<>")


def _is_digit(c: str) -> bool:
    return "0" <= c <= "9"


# --- element matchers -------------------------------------------------------
# Each matcher takes (s, i) and returns the end index or -1 on failure.


def _fixed_digits(n: int, lo: int, hi: int) -> Callable[[str, int], int]:
    def match(s: str, i: int) -> int:
        j = i + n
        if j > len(s):
            return -1
        run = s[i:j]
        if not (run.isascii() and run.isdigit()):
            return -1
        # reject if the digit run continues (would be a longer number)
        if j < len(s) and _is_digit(s[j]):
            return -1
        if not (lo <= int(run) <= hi):
            return -1
        return j

    return match


def _flex_digits(max_n: int, lo: int, hi: int) -> Callable[[str, int], int]:
    def match(s: str, i: int) -> int:
        j = i
        while j < len(s) and j - i < max_n and _is_digit(s[j]):
            j += 1
        if j == i:
            return -1
        if j < len(s) and _is_digit(s[j]):
            return -1
        if not (lo <= int(s[i:j]) <= hi):
            return -1
        return j

    return match


def _fraction(s: str, i: int) -> int:
    j = i
    while j < len(s) and j - i < 9 and _is_digit(s[j]):
        j += 1
    return j if j > i else -1


def _raw_digits(n: int) -> Callable[[str, int], int]:
    """Exactly *n* digits with no value constraint and no run-boundary check.

    Used inside compact all-digit layouts (``YYMMDD hhmmss``) where the
    sub-fields butt against each other.
    """

    def match(s: str, i: int) -> int:
        j = i + n
        run = s[i:j]
        if j > len(s) or not (run.isascii() and run.isdigit()):
            return -1
        return j

    return match


def _month_name(s: str, i: int) -> int:
    for names, length in ((_MONTHS_FULL, None), (_MONTHS, 3)):
        if length is None:
            # full names: longest-first check
            for name in sorted(names, key=len, reverse=True):
                if s[i : i + len(name)].lower() == name:
                    end = i + len(name)
                    if end >= len(s) or not s[end].isalpha():
                        return end
        else:
            if s[i : i + 3].lower() in names:
                end = i + 3
                if end >= len(s) or not s[end].isalpha():
                    return end
    return -1


def _day_name(s: str, i: int) -> int:
    for name in sorted(_DAYS_FULL, key=len, reverse=True):
        if s[i : i + len(name)].lower() == name:
            end = i + len(name)
            if end >= len(s) or not s[end].isalpha():
                return end
    if s[i : i + 3].lower() in _DAYS:
        end = i + 3
        if end >= len(s) or not s[end].isalpha():
            return end
    return -1


def _ampm(s: str, i: int) -> int:
    chunk = s[i : i + 2].lower()
    if chunk in ("am", "pm"):
        end = i + 2
        if end >= len(s) or not s[end].isalpha():
            return end
    return -1


def _offset(s: str, i: int) -> int:
    if i >= len(s) or s[i] not in "+-":
        # a literal 'Z' (Zulu) also terminates ISO-8601 stamps
        if i < len(s) and s[i] == "Z":
            return i + 1
        return -1
    j = i + 1
    digits = 0
    while j < len(s) and (_is_digit(s[j]) or (s[j] == ":" and digits == 2)):
        if _is_digit(s[j]):
            digits += 1
        j += 1
    return j if digits == 4 else -1


def _tz_abbrev(s: str, i: int) -> int:
    j = i
    while j < len(s) and s[j].isupper():
        j += 1
    if 2 <= j - i <= 5:
        return j
    return -1


def _space(s: str, i: int) -> int:
    j = i
    while j < len(s) and s[j] == " ":
        j += 1
    return j if j > i else -1


def _literal(c: str) -> Callable[[str, int], int]:
    def match(s: str, i: int) -> int:
        if i < len(s) and s[i] == c:
            return i + 1
        return -1

    return match


_ELEMENTS: dict[str, Callable[[str, int], int]] = {
    "YYYY": _fixed_digits(4, 1000, 9999),
    "YY": _raw_digits(2),
    "MM": _raw_digits(2),
    "M": _flex_digits(2, 1, 12),
    "DD": _raw_digits(2),
    "D": _flex_digits(2, 1, 31),
    "hh": _raw_digits(2),
    "h": _flex_digits(2, 0, 23),
    "mm": _raw_digits(2),
    "m": _flex_digits(2, 0, 59),
    "ss": _raw_digits(2),
    "s": _flex_digits(2, 0, 60),
    "FFF": _fraction,
    "MON": _month_name,
    "DAY": _day_name,
    "AP": _ampm,
    "OFF": _offset,
    "ZZZ": _tz_abbrev,
    " ": _space,
}

# Valued two-digit elements get value checks *when they stand alone*
# (i.e. are followed by a separator); compact layouts use the raw forms.
_VALUED = {
    "MM": _fixed_digits(2, 1, 12),
    "DD": _fixed_digits(2, 1, 31),
    "hh": _fixed_digits(2, 0, 23),
    "mm": _fixed_digits(2, 0, 59),
    "ss": _fixed_digits(2, 0, 60),
}

# Element names ordered longest-first for greedy layout parsing.
_NAMES = sorted(_ELEMENTS, key=len, reverse=True)

# Compact layouts in which consecutive digit fields are not separated and
# therefore must use raw (unbounded-value, no-boundary) digit matching.
_COMPACT = {"YYMMDD", "hhmmss", "YYYYMMDD"}


_DIGIT_FIELDS = {"YYYY": 4, "YY": 2, "MM": 2, "DD": 2, "hh": 2, "mm": 2, "ss": 2}


def _compile(layout: str) -> list[Callable[[str, int], int]]:
    """Compile a layout string into a list of element matchers.

    In *compact* layouts (those containing an unseparated digit run such
    as ``YYYYMMDD``) the fixed digit fields butt against each other, so
    they must be matched as raw digit groups without value or run-boundary
    checks; in separated layouts the two-digit fields get value-range
    validation to reduce false positives.
    """
    matchers: list[Callable[[str, int], int]] = []
    i = 0
    compact = any(run in layout for run in _COMPACT)
    while i < len(layout):
        for name in _NAMES:
            if layout.startswith(name, i):
                if compact and name in _DIGIT_FIELDS:
                    matchers.append(_raw_digits(_DIGIT_FIELDS[name]))
                elif name in _VALUED:
                    matchers.append(_VALUED[name])
                else:
                    matchers.append(_ELEMENTS[name])
                i += len(name)
                break
        else:
            matchers.append(_literal(layout[i]))
            i += 1
    return matchers


#: Layout catalogue with leading zeros required (published behaviour).
DEFAULT_LAYOUTS: tuple[str, ...] = (
    # ISO and ISO-like
    "YYYY-MM-DD hh:mm:ss.FFF",
    "YYYY-MM-DD hh:mm:ss,FFF",
    "YYYY-MM-DD hh:mm:ss",
    "YYYY-MM-DDThh:mm:ss.FFFOFF",
    "YYYY-MM-DDThh:mm:ssOFF",
    "YYYY-MM-DDThh:mm:ss.FFF",
    "YYYY-MM-DDThh:mm:ss",
    "YYYY/MM/DD hh:mm:ss.FFF",
    "YYYY/MM/DD hh:mm:ss",
    "YYYY.MM.DD hh:mm:ss",
    "YYYY-MM-DD-hh.mm.ss.FFF",  # BGL RAS timestamps
    "YYYY-MM-DD",
    "YYYY/MM/DD",
    "YYYY.MM.DD",
    # US-style
    "MM/DD/YYYY hh:mm:ss AP",
    "MM/DD/YYYY hh:mm:ss",
    "MM/DD/YY hh:mm:ss",
    "DD/MON/YYYY:hh:mm:ss OFF",
    "DD/MON/YYYY:hh:mm:ss",
    "DD/MON/YYYY hh:mm:ss",
    "MM-DD hh:mm:ss.FFF",  # Android logcat
    "MM-DD-YYYY hh:mm:ss",
    # Named-month styles
    "DAY MON DD hh:mm:ss.FFF YYYY",
    "DAY MON DD hh:mm:ss YYYY",
    "DAY MON DD hh:mm:ss ZZZ YYYY",
    "DAY, DD MON YYYY hh:mm:ss OFF",  # RFC 2822 (mail/HTTP dates)
    "DAY, DD MON YYYY hh:mm:ss ZZZ",
    "MON DD hh:mm:ss YYYY",
    "MON D hh:mm:ss",  # syslog (padded day handled by flexible space)
    "MON DD, YYYY h:mm:ss AP",
    "DD MON YYYY hh:mm:ss",
    "DD-MON-YYYY hh:mm:ss",  # Oracle-style
    "YYYY MON DD hh:mm:ss",
    # Compact
    "YYMMDD hhmmss",  # HDFS headers: "081109 203615"
    "YYYYMMDD-hh:mm:ss:FFF",  # HealthApp with leading zeros
    # Bare clock times
    "hh:mm:ss.FFF",
    "hh:mm:ss,FFF",
    "hh:mm:ss",
    "hh:mm",
)

#: Future-work layouts (paper §VI): accept single-digit time parts.
SINGLE_DIGIT_LAYOUTS: tuple[str, ...] = (
    "YYYYMMDD-h:m:s:FFF",  # HealthApp raw: 20171224-0:7:20:444
    "YYYY-MM-DD h:m:s.FFF",
    "YYYY-MM-DD h:m:s",
    "M/D/YYYY h:m:s",
    "h:m:s",
)


class TimeFSM:
    """Longest-match datetime recogniser over a compiled layout catalogue."""

    def __init__(
        self,
        layouts: tuple[str, ...] = DEFAULT_LAYOUTS,
        allow_single_digit: bool = False,
    ) -> None:
        if allow_single_digit:
            layouts = layouts + SINGLE_DIGIT_LAYOUTS
        self._digit_layouts: list[list[Callable[[str, int], int]]] = []
        self._alpha_layouts: list[list[Callable[[str, int], int]]] = []
        for layout in layouts:
            compiled = _compile(layout)
            if layout[0].isalpha() and layout[:3] in ("MON", "DAY"):
                self._alpha_layouts.append(compiled)
            else:
                self._digit_layouts.append(compiled)

    def match(self, s: str, i: int) -> int:
        """Return the end index of the longest timestamp starting at *i*.

        Returns ``-1`` when no layout matches or when the match does not
        end at a token boundary.
        """
        c = s[i] if i < len(s) else ""
        if _is_digit(c):
            layouts = self._digit_layouts
        elif c.isalpha():
            prefix = s[i : i + 3].lower()
            if prefix not in _MONTHS and prefix not in _DAYS:
                return -1
            layouts = self._alpha_layouts
        else:
            return -1

        best = -1
        for matchers in layouts:
            j = i
            for m in matchers:
                j = m(s, j)
                if j < 0:
                    break
            else:
                if j > best and self._boundary_ok(s, j):
                    best = j
        return best

    @staticmethod
    def _boundary_ok(s: str, j: int) -> bool:
        if j >= len(s):
            return True
        c = s[j]
        if c in _BOUNDARY_OK:
            return True
        if c == ".":
            # a full stop ending a sentence is fine; ".5" would mean we
            # stopped inside a larger number
            return j + 1 >= len(s) or not _is_digit(s[j + 1])
        return False
