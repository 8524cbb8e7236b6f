"""Single-pass log message scanner.

This is the reproduction of Sequence's scanner with Sequence-RTG's two
additions: the ``is_space_before`` token property (whitespace-exact
pattern reconstruction) and first-line truncation of multi-line messages
with an ignore-rest marker.

The scan is a single forward pass over the characters of the message.
At each token start the scanner consults its finite state machines in
priority order — datetime, hexadecimal (MAC/IPv6), URL, then optionally
the path FSM — and falls back to the general text/number FSM, which
splits words on whitespace and structural punctuation and classifies
each word as IPv4, integer, float or literal.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import ClassVar

from repro.scanner.hex_fsm import HexFSM
from repro.scanner.path_fsm import PathFSM
from repro.scanner.time_fsm import TimeFSM
from repro.scanner.token_types import Token, TokenType

__all__ = ["Scanner", "ScannerConfig", "ScannedMessage", "WordCache"]

# Punctuation that always forms its own single-character token.  Colons
# are included so component headers ("sshd[123]:") and host:port splits
# tokenise cleanly; timestamps and addresses containing colons are
# claimed by their FSMs before the general FSM runs.
_BREAK_CHARS = set("()[]{}\"'=,;<>|:")

# Trailing sentence punctuation carved off the end of a word.
_TRAILING = set(".,!?")

def _is_ws(c: str) -> bool:
    """All Unicode whitespace (incl. control separators) delimits tokens,
    matching what ``str.split()`` treats as whitespace."""
    return c.isspace()


@dataclass(slots=True)
class ScannerConfig:
    """Scanner behaviour switches.

    Defaults reproduce the published Sequence-RTG behaviour including its
    documented limitations; the two flags enable the paper's future-work
    fixes (§VI) for the ablation study.
    """

    #: Accept time parts without a leading zero (fixes HealthApp raw logs).
    allow_single_digit_time: bool = False
    #: Enable the fourth (path) finite state machine.
    enable_path_fsm: bool = False
    #: Maximum tokens kept per message (0 = unlimited), *including* the
    #: REST marker appended at the cut.  The longest message observed in
    #: production had 864 tokens; capping protects the analysis trie
    #: (§III, memory management).
    max_tokens: int = 0
    #: Not a setting: the ``backend`` label on scan-stage metrics, naming
    #: the one tokeniser the miner runs
    #: (:class:`repro.scanner.compiled.CompiledScanner`).
    backend: ClassVar[str] = "compiled"

    def __post_init__(self) -> None:
        if self.max_tokens < 0:
            raise ValueError(f"max_tokens must be >= 0, got {self.max_tokens}")


@dataclass(slots=True)
class ScannedMessage:
    """Result of scanning one log message."""

    original: str
    tokens: list[Token]
    truncated: bool = False  # True when a multi-line message was cut
    service: str = ""

    def token_texts(self) -> list[str]:
        return [t.text for t in self.tokens]

    def token_count(self) -> int:
        return len(self.tokens)


class WordCache:
    """Bounded memo of general-FSM words → ``(interned text, type)``.

    Log vocabulary is tiny relative to log volume, so classifying (and
    allocating) each distinct word once pays for itself within a batch.
    Interning through :func:`sys.intern` collapses the analysis-trie and
    parse-trie key storage to one string object per distinct word and
    turns their key comparisons into pointer checks.  The memo is
    dropped wholesale when it reaches *maxsize* (an adversarial
    all-unique stream costs one failed lookup per word, nothing more);
    interned strings are freed with the memo, CPython's intern table
    holds no immortal references.
    """

    __slots__ = ("maxsize", "_data")

    #: distinct words remembered before the memo is dropped and rebuilt
    DEFAULT_SIZE = 65536

    def __init__(self, maxsize: int = DEFAULT_SIZE) -> None:
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self._data: dict[str, tuple[str, TokenType]] = {}

    def __len__(self) -> int:
        return len(self._data)

    def lookup(self, word: str, known: TokenType | None = None) -> tuple[str, TokenType]:
        """The interned text and scan-time type of one word (*known*: a
        type the caller has already established, skipping the classifier)."""
        hit = self._data.get(word)
        if hit is None:
            text = sys.intern(word)
            hit = (text, known or Scanner._classify_word(text))
            if len(self._data) >= self.maxsize:
                self._data.clear()
            self._data[text] = hit
        return hit


class Scanner:
    """Tokenise log messages in a single pass.

    Instances are stateless between calls and therefore safe to share
    across partitions; construction compiles the FSM layout catalogue
    once, so callers should reuse one scanner per configuration.
    """

    #: break set shared with the compiled scanner's regex program
    _BREAK_CHARS = _BREAK_CHARS

    def __init__(self, config: ScannerConfig | None = None) -> None:
        self.config = config or ScannerConfig()
        self._time_fsm = TimeFSM(
            allow_single_digit=self.config.allow_single_digit_time
        )
        self._hex_fsm = HexFSM()
        self._path_fsm = PathFSM() if self.config.enable_path_fsm else None
        self._words = WordCache()

    # ------------------------------------------------------------------
    def scan(self, message: str, service: str = "") -> ScannedMessage:
        """Scan *message* into typed tokens.

        Multi-line messages are processed only to the first line break
        (paper §III): the remainder is dropped and a ``REST`` marker token
        is appended so the parser knows to ignore trailing text.
        """
        truncated = False
        newline = message.find("\n")
        body = message
        if newline >= 0:
            body = message[:newline]
            truncated = True

        tokens = self._scan_line(body)
        if truncated:
            tokens.append(
                Token(text="", type=TokenType.REST, is_space_before=True, pos=len(body))
            )
        max_tokens = self.config.max_tokens
        if max_tokens and len(tokens) > max_tokens:
            # the REST marker replaces the last kept token so the cap is
            # honoured *including* the marker (the pre-fix behaviour
            # returned max_tokens + 1 tokens)
            tokens = tokens[: max_tokens - 1]
            tokens.append(
                Token(
                    text="",
                    type=TokenType.REST,
                    is_space_before=True,
                    pos=len(body),
                )
            )
            truncated = True
        return ScannedMessage(
            original=message, tokens=tokens, truncated=truncated, service=service
        )

    def scan_many(
        self, messages: list[str], service: str = ""
    ) -> list[ScannedMessage]:
        """Scan a batch of messages, hoisting the per-call setup.

        Semantically ``[self.scan(m, service) for m in messages]``; the
        bound-method and config lookups are paid once per batch instead
        of once per message.
        """
        scan = self.scan
        return [scan(message, service) for message in messages]

    # ------------------------------------------------------------------
    def _scan_line(self, s: str) -> list[Token]:
        tokens: list[Token] = []
        n = len(s)
        i = 0
        space_before = False
        while i < n:
            if _is_ws(s[i]):
                space_before = True
                i += 1
                continue
            i = self._token_at(s, i, space_before, tokens.append)
            space_before = False
        return tokens

    def _token_at(self, s: str, i: int, space_before: bool, append) -> int:
        """Run the FSM cascade at token start *i*: append the token(s) it
        yields and return where the next token starts."""
        # 1. datetime FSM (may span spaces inside the timestamp)
        end = self._time_fsm.match(s, i)
        if end > 0:
            append(Token(s[i:end], TokenType.TIME, space_before, i))
            return end

        # 2. hexadecimal FSM (MAC / IPv6)
        hit = self._hex_fsm.match(s, i)
        if hit is not None:
            end, ttype = hit
            append(Token(s[i:end], ttype, space_before, i))
            return end

        # 3. URL
        end = self._match_url(s, i)
        if end > 0:
            append(Token(s[i:end], TokenType.URL, space_before, i))
            return end

        # 4. path FSM (future-work extension, opt-in)
        if self._path_fsm is not None:
            end = self._path_fsm.match(s, i)
            if end > 0:
                append(Token(s[i:end], TokenType.PATH, space_before, i))
                return end

        # 5. general text/number FSM
        if s[i] in _BREAK_CHARS:
            append(Token(s[i], TokenType.LITERAL, space_before, i))
            return i + 1

        n = len(s)
        j = i
        while j < n and not _is_ws(s[j]) and s[j] not in _BREAK_CHARS:
            j += 1
        word = s[i:j]

        # carve trailing sentence punctuation into separate tokens,
        # but only when the remaining head still carries content
        carved: list[tuple[str, int]] = []
        while (
            len(word) > 1
            and word[-1] in _TRAILING
            and any(ch.isalnum() for ch in word[:-1])
        ):
            carved.append((word[-1], i + len(word) - 1))
            word = word[:-1]

        text, ttype = self._words.lookup(word)
        append(Token(text, ttype, space_before, i))
        for text, pos in reversed(carved):
            append(Token(text, TokenType.LITERAL, False, pos))
        return j

    # ------------------------------------------------------------------
    @staticmethod
    def _match_url(s: str, i: int) -> int:
        """Match ``scheme://...`` starting at *i*; return end or -1."""
        j = i
        n = len(s)
        while j < n and (s[j].isalpha() or (j > i and s[j] in "+.-")) and j - i < 12:
            j += 1
        if j == i or not s.startswith("://", j):
            return -1
        j += 3
        if j >= n or _is_ws(s[j]):
            return -1
        while j < n and not _is_ws(s[j]) and s[j] not in "\"'<>|":
            j += 1
        # drop trailing sentence punctuation from the URL
        while j > i and s[j - 1] in ".,;)":
            j -= 1
        return j

    @staticmethod
    def _classify_word(word: str) -> TokenType:
        """Classify one general-FSM word as IPv4, integer, float or literal."""
        c0 = word[0] if word else ""
        if not (c0.isdigit() or (c0 in "+-" and len(word) > 1 and word[1].isdigit())):
            return TokenType.LITERAL

        body = word[1:] if c0 in "+-" else word
        # ASCII-strict digit test: unicode "digits" like superscripts pass
        # str.isdigit() but are not parseable numbers
        if _is_ascii_digits(body):
            return TokenType.INTEGER

        # IPv4 dotted quad
        parts = body.split(".")
        if len(parts) == 4 and all(
            _is_ascii_digits(p) and int(p) <= 255 for p in parts
        ):
            return TokenType.IPV4

        # float: digits '.' digits with optional exponent
        if _is_float(body):
            return TokenType.FLOAT

        return TokenType.LITERAL


def _is_ascii_digits(s: str) -> bool:
    # str.isdigit() alone also accepts "²" or "١"; "".isdigit() is False
    return s.isascii() and s.isdigit()


def _is_float(s: str) -> bool:
    mantissa, _, exponent = s.partition("e")
    if not mantissa:
        mantissa, _, exponent = s.partition("E")
    if exponent:
        exp = exponent[1:] if exponent[0] in "+-" else exponent
        if not _is_ascii_digits(exp):
            return False
    head, dot, frac = mantissa.partition(".")
    if not dot:
        return bool(exponent) and _is_ascii_digits(head)
    return _is_ascii_digits(head) and _is_ascii_digits(frac)
