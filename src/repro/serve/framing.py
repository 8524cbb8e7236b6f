"""Incremental frame decoding for the network ingest tier.

The listeners speak the two framings syslog-ng's ``network()`` /
``syslog()`` destinations emit (RFC 6587 transport of the JSON-template
payloads this repository has always ingested):

* **newline framing** (``\\n``-delimited, "non-transparent framing") —
  the same wire format :meth:`repro.workflow.stream.ProductionStream.jsonl`
  produces and the file-fed ``serve`` path reads;
* **octet-counted framing** (``<len> <payload>``, "octet stuffing
  safe") — a decimal byte count, one space, then exactly that many
  payload bytes.  Mandatory when payloads may contain newlines.

:class:`FrameDecoder` is deliberately *incremental*: it consumes raw
socket chunks of any size and returns the complete frames they finish,
keeping partial frames buffered — so a listener can read in large
chunks (64 KiB) and never blocks on line boundaries, and a frame split
across TCP segments costs no re-scan of the whole buffer (the newline
search resumes where the previous chunk ended).

The framing mode is auto-detected per connection from the first byte:
a leading ASCII digit means octet-counted (JSON payloads start with
``{``, never a digit), anything else means newline framing.  A
connection never changes mode.
"""

from __future__ import annotations

__all__ = ["FrameDecoder", "FramingError", "MAX_FRAME_BYTES"]

#: Default bound on one frame's payload size.  A log message is a few
#: hundred bytes; a megabyte frame is a protocol error or an attack,
#: not data.
MAX_FRAME_BYTES = 1 << 20

#: Longest believable ASCII length prefix of an octet-counted frame
#: (``MAX_FRAME_BYTES`` is 7 digits; 20 leaves slack for future bounds).
_MAX_PREFIX_DIGITS = 20

_NEWLINE = ord("\n")
_SPACE = ord(" ")
_DIGITS = frozenset(b"0123456789")


class FramingError(ValueError):
    """The byte stream violates the framing protocol.

    Raised for an oversized frame, a malformed octet-count prefix, or a
    length prefix that never terminates.  The connection that produced
    it cannot be resynchronised and must be closed (the listeners do,
    counting the event as a protocol error).
    """


class FrameDecoder:
    """Split a byte stream into frames, one socket chunk at a time."""

    __slots__ = ("max_frame", "_buffer", "_framing", "_scan_from", "_want")

    def __init__(self, max_frame: int = MAX_FRAME_BYTES) -> None:
        if max_frame <= 0:
            raise ValueError(f"max_frame must be positive, got {max_frame}")
        self.max_frame = max_frame
        self._buffer = bytearray()
        #: ``None`` until the first byte arrives, then "newline"/"octet"
        self._framing: str | None = None
        #: newline mode: offset the next delimiter scan resumes from
        self._scan_from = 0
        #: octet mode: payload bytes the current frame still needs
        #: (``None`` while parsing the length prefix)
        self._want: int | None = None

    @property
    def mode(self) -> str | None:
        """Detected framing ("newline" or "octet"), ``None`` before data."""
        return self._framing

    def feed(self, data: bytes) -> list[bytes]:
        """Consume one chunk; return the complete frames it finished."""
        if not data:
            return []
        if self._framing is None:
            self._framing = "octet" if data[0] in _DIGITS else "newline"
        self._buffer.extend(data)
        if self._framing == "newline":
            return self._feed_newline()
        return self._feed_octet()

    def flush(self) -> bytes | None:
        """Return the trailing unterminated newline frame at EOF, if any.

        Octet-counted mode never flushes: a truncated frame is a
        protocol error, and returning half a payload would hand the
        parser garbage.  Call once, when the peer closed the stream.
        """
        if self._framing == "newline" and self._buffer:
            frame = bytes(self._buffer)
            self._buffer.clear()
            self._scan_from = 0
            return frame
        return None

    # -- newline framing -------------------------------------------------
    def _feed_newline(self) -> list[bytes]:
        buffer = self._buffer
        frames: list[bytes] = []
        start = 0
        scan = self._scan_from
        while True:
            cut = buffer.find(_NEWLINE, scan)
            if cut < 0:
                break
            frames.append(bytes(buffer[start:cut]))
            start = scan = cut + 1
        if start:
            del buffer[:start]
        if len(buffer) > self.max_frame:
            raise FramingError(
                f"unterminated line exceeds max frame size ({self.max_frame} bytes)"
            )
        self._scan_from = len(buffer)
        return frames

    # -- octet-counted framing -------------------------------------------
    def _feed_octet(self) -> list[bytes]:
        buffer = self._buffer
        frames: list[bytes] = []
        while True:
            if self._want is None:
                cut = buffer.find(_SPACE)
                if cut < 0:
                    if len(buffer) > _MAX_PREFIX_DIGITS:
                        raise FramingError(
                            "octet-counted length prefix never terminated"
                        )
                    break
                prefix = bytes(buffer[:cut])
                if not prefix or any(b not in _DIGITS for b in prefix):
                    raise FramingError(
                        f"malformed octet-counted length prefix {prefix!r}"
                    )
                want = int(prefix)
                if want > self.max_frame:
                    raise FramingError(
                        f"octet-counted frame of {want} bytes exceeds the "
                        f"max frame size ({self.max_frame} bytes)"
                    )
                del buffer[: cut + 1]
                self._want = want
            if len(buffer) < self._want:
                break
            want = self._want
            frames.append(bytes(buffer[:want]))
            del buffer[:want]
            self._want = None
        return frames
