"""Tokenisation substrate (the *Sequence* scanner).

The scanner turns a raw log message into a sequence of typed tokens in a
single pass, using three finite state machines (datetime, hexadecimal,
general text/number) exactly as the seminal Sequence tool does, plus the
Sequence-RTG additions:

* ``is_space_before`` on every token so the original spacing can be
  reconstructed exactly (paper §III, "Addressing Whitespace Management
  issues in Tokenisation");
* multi-line truncation with an ignore-rest marker (paper §III,
  "Handling Multi-Line Messages Properly");
* optional future-work extensions — single-digit time parts and a fourth
  FSM for filesystem paths (paper §VI) — disabled by default to match the
  published behaviour.

The miner tokenises with
:class:`~repro.scanner.compiled.CompiledScanner`, a regex-program
rewrite of the cascade; :class:`Scanner`, the character-by-character FSM
cascade it subclasses, is the reference oracle the differential suite
(``tests/scanner/test_compiled.py``) diffs it against, token for token.
"""

from repro.scanner.compiled import CompiledScanner
from repro.scanner.scanner import ScannedMessage, Scanner, ScannerConfig
from repro.scanner.token_types import Token, TokenType

__all__ = [
    "Scanner",
    "ScannerConfig",
    "ScannedMessage",
    "Token",
    "TokenType",
    "build_scanner",
]


def build_scanner(config: ScannerConfig | None = None) -> Scanner:
    """Construct the scanner the miner runs."""
    return CompiledScanner(config)
