"""Incremental frame decoding: newline and octet-counted framing."""

import json

import pytest
from hypothesis import given, strategies as st

from repro.serve.framing import FrameDecoder, FramingError


def octet(payload: bytes) -> bytes:
    return str(len(payload)).encode() + b" " + payload


class TestNewlineFraming:
    def test_single_frame(self):
        decoder = FrameDecoder()
        assert decoder.feed(b'{"a": 1}\n') == [b'{"a": 1}']
        assert decoder.mode == "newline"

    def test_many_frames_one_chunk(self):
        decoder = FrameDecoder()
        assert decoder.feed(b"{1}\n{2}\n{3}\n") == [b"{1}", b"{2}", b"{3}"]

    def test_frame_split_across_chunks(self):
        decoder = FrameDecoder()
        assert decoder.feed(b'{"service": "s", "mes') == []
        assert decoder.feed(b'sage": "m"}\nnext') == [
            b'{"service": "s", "message": "m"}'
        ]
        assert decoder.feed(b"\n") == [b"next"]

    def test_byte_at_a_time(self):
        decoder = FrameDecoder()
        frames = []
        for byte in b"{x}\n{y}\n":
            frames.extend(decoder.feed(bytes([byte])))
        assert frames == [b"{x}", b"{y}"]

    def test_empty_lines_are_frames(self):
        # parse_record treats them as malformed; the decoder stays dumb
        decoder = FrameDecoder()
        assert decoder.feed(b"\n\n{z}\n") == [b"", b"", b"{z}"]

    def test_flush_returns_unterminated_tail(self):
        decoder = FrameDecoder()
        decoder.feed(b"{complete}\n{tail without newline}")
        assert decoder.flush() == b"{tail without newline}"
        assert decoder.flush() is None

    def test_flush_empty_buffer(self):
        decoder = FrameDecoder()
        decoder.feed(b"{a}\n")
        assert decoder.flush() is None

    def test_oversized_line_raises(self):
        decoder = FrameDecoder(max_frame=16)
        with pytest.raises(FramingError, match="unterminated line"):
            decoder.feed(b"x" * 17)

    def test_max_frame_boundary_ok(self):
        decoder = FrameDecoder(max_frame=16)
        assert decoder.feed(b"x" * 16) == []
        assert decoder.feed(b"\n") == [b"x" * 16]


class TestOctetFraming:
    def test_single_frame(self):
        decoder = FrameDecoder()
        assert decoder.feed(octet(b'{"a": 1}')) == [b'{"a": 1}']
        assert decoder.mode == "octet"

    def test_many_frames_one_chunk(self):
        decoder = FrameDecoder()
        chunk = octet(b"{one}") + octet(b"{two}") + octet(b"{three}")
        assert decoder.feed(chunk) == [b"{one}", b"{two}", b"{three}"]

    def test_prefix_split_across_chunks(self):
        decoder = FrameDecoder()
        payload = b"{abcdefghij}"
        assert decoder.feed(b"1") == []
        assert decoder.feed(b"2 ") == []
        assert decoder.feed(payload) == [payload]

    def test_payload_split_across_chunks(self):
        decoder = FrameDecoder()
        payload = b'{"service": "s", "message": "hello"}'
        framed = octet(payload)
        assert decoder.feed(framed[:10]) == []
        assert decoder.feed(framed[10:]) == [payload]

    def test_payload_may_contain_newlines(self):
        decoder = FrameDecoder()
        payload = b'{"message": "line one\nline two"}'
        assert decoder.feed(octet(payload)) == [payload]
        assert decoder.mode == "octet"

    def test_flush_never_returns_partial_payload(self):
        decoder = FrameDecoder()
        decoder.feed(b"100 only twenty bytes")
        assert decoder.flush() is None

    def test_oversized_frame_raises(self):
        decoder = FrameDecoder(max_frame=64)
        with pytest.raises(FramingError, match="exceeds the max frame size"):
            decoder.feed(b"65 ")

    def test_malformed_prefix_raises(self):
        decoder = FrameDecoder()
        with pytest.raises(FramingError, match="malformed"):
            decoder.feed(b"12x4 {payload here}")

    def test_unterminated_prefix_raises(self):
        decoder = FrameDecoder()
        with pytest.raises(FramingError, match="never terminated"):
            decoder.feed(b"1234567890123456789012345")

    def test_zero_length_frame(self):
        decoder = FrameDecoder()
        assert decoder.feed(b"0 5 {abc}") == [b"", b"{abc}"]


class TestModeDetection:
    def test_digit_first_byte_means_octet(self):
        decoder = FrameDecoder()
        decoder.feed(b"4")
        assert decoder.mode == "octet"

    def test_brace_first_byte_means_newline(self):
        decoder = FrameDecoder()
        decoder.feed(b"{")
        assert decoder.mode == "newline"

    def test_mode_unset_before_data(self):
        decoder = FrameDecoder()
        assert decoder.mode is None
        assert decoder.feed(b"") == []
        assert decoder.mode is None


class TestChunkingInvariance:
    """However the stream is cut into chunks, the frames come out the
    same — the property the incremental decoder exists for."""

    @given(st.data())
    def test_newline_random_chunking(self, data):
        messages = [
            json.dumps({"service": f"s{i}", "message": f"m {i}"}).encode()
            for i in range(8)
        ]
        stream = b"".join(m + b"\n" for m in messages)
        frames = []
        decoder = FrameDecoder()
        pos = 0
        while pos < len(stream):
            size = data.draw(st.integers(min_value=1, max_value=len(stream) - pos))
            frames.extend(decoder.feed(stream[pos:pos + size]))
            pos += size
        assert frames == messages

    @given(st.data())
    def test_octet_random_chunking(self, data):
        messages = [
            json.dumps({"service": f"s{i}", "message": f"m {i}\nwrapped"}).encode()
            for i in range(8)
        ]
        stream = b"".join(octet(m) for m in messages)
        frames = []
        decoder = FrameDecoder()
        pos = 0
        while pos < len(stream):
            size = data.draw(st.integers(min_value=1, max_value=len(stream) - pos))
            frames.extend(decoder.feed(stream[pos:pos + size]))
            pos += size
        assert frames == messages
