"""Listener endpoints of the network ingest tier.

Three ways in, one data model out: every listener turns its wire format
into JSON-lines frames and pushes them through the server's ``submit``
seam (decode → route → shard queue), so the mining side never knows
which door a record came through.

* ``tcp://host:port`` — syslog-ng-compatible framed JSONL over TCP
  (newline or octet-counted framing, auto-detected per connection by
  :class:`~repro.serve.framing.FrameDecoder`);
* ``unix:///path`` — the same protocol over a Unix domain socket, for
  same-host log daemons that want to skip the TCP stack;
* ``http://host:port`` — a minimal HTTP/1.1 front door: ``POST
  /ingest`` with a JSONL body (one record per line), keep-alive
  supported, per-request accept/shed/malformed accounting in the JSON
  response, and 429 when the shed policy refused records.

Handlers read in 64 KiB chunks and decode frames incrementally, so the
event loop never blocks on line boundaries.  Admission is per chunk:
the frames a chunk finishes go to ``submit`` in slices of up to 512
(one decoding pass and one router admission per slice, not a coroutine
per frame), and after every full slice the handler yields to the loop
to keep accept latency flat across many connections.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass

from repro.serve.framing import FrameDecoder, FramingError

__all__ = [
    "ListenSpec",
    "parse_listen_specs",
    "handle_stream_connection",
    "handle_http_connection",
    "LISTEN_SCHEMES",
]

#: Recognised listener schemes.
LISTEN_SCHEMES = ("tcp", "unix", "http")

#: Socket read chunk: big enough to amortise syscalls, small enough to
#: keep per-chunk decode bursts short on the event loop.
_CHUNK = 65536

#: Frames per ``submit`` slice; a full slice is followed by a
#: cooperative yield back to the event loop.
_SLICE = 512

#: Bound on one HTTP request body (a batch of JSONL records).
MAX_HTTP_BODY = 8 << 20


@dataclass(frozen=True, slots=True)
class ListenSpec:
    """One parsed ``--listen`` endpoint."""

    scheme: str  # "tcp" | "unix" | "http"
    host: str = ""
    port: int = 0
    path: str = ""  # unix only

    def __str__(self) -> str:
        if self.scheme == "unix":
            return f"unix://{self.path}"
        return f"{self.scheme}://{self.host}:{self.port}"


def parse_listen_specs(text: str) -> list[ListenSpec]:
    """Parse a comma-separated ``--listen`` value.

    ``tcp://127.0.0.1:7514,unix:///run/rtg.sock,http://0.0.0.0:8080``
    — port 0 asks the kernel for a free port (the server reports the
    bound endpoints back).
    """
    specs: list[ListenSpec] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        scheme, sep, rest = part.partition("://")
        if not sep or scheme not in LISTEN_SCHEMES:
            raise ValueError(
                f"unsupported listen endpoint {part!r}: expected "
                "tcp://host:port, unix:///path or http://host:port"
            )
        if scheme == "unix":
            if not rest:
                raise ValueError(f"unix endpoint needs a socket path: {part!r}")
            specs.append(ListenSpec(scheme="unix", path=rest))
            continue
        host, sep, port_text = rest.rpartition(":")
        if not sep or not port_text.isdigit():
            raise ValueError(
                f"endpoint {part!r} needs an explicit port (0 = ephemeral)"
            )
        specs.append(
            ListenSpec(scheme=scheme, host=host or "127.0.0.1", port=int(port_text))
        )
    if not specs:
        raise ValueError(f"no listen endpoints in {text!r}")
    return specs


# ----------------------------------------------------------------------
# Admission, shared by every listener
# ----------------------------------------------------------------------

async def _submit_all(
    ingress, frames: list[bytes], source: str, arrived: float
) -> tuple[int, int, int]:
    """Submit *frames* slice by slice; summed ``(accepted, shed, malformed)``."""
    accepted = shed = malformed = 0
    for start in range(0, len(frames), _SLICE):
        part = frames[start : start + _SLICE]
        outcome = await ingress.submit(part, source, arrived)
        accepted += outcome[0]
        shed += outcome[1]
        malformed += outcome[2]
        if len(part) == _SLICE:
            await asyncio.sleep(0)
    return accepted, shed, malformed


# ----------------------------------------------------------------------
# TCP / UDS: framed JSONL
# ----------------------------------------------------------------------

async def handle_stream_connection(
    ingress, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
    source: str,
) -> None:
    """One framed-JSONL connection: decode incrementally, submit per chunk.

    *ingress* is the owning :class:`~repro.serve.server.ServeServer`;
    its ``submit`` applies the overload policy (a blocked submit awaits
    queue space, which stalls this reader and pushes back on the
    client's TCP window).
    """
    ingress.connection_opened(source)
    decoder = FrameDecoder()
    clock = ingress.clock
    try:
        while True:
            chunk = await reader.read(_CHUNK)
            if not chunk:
                tail = decoder.flush()
                if tail is not None:
                    await ingress.submit([tail], source, clock())
                break
            arrived = clock()
            await _submit_all(ingress, decoder.feed(chunk), source, arrived)
    except FramingError:
        ingress.protocol_error(source)
    except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


# ----------------------------------------------------------------------
# HTTP/1.1 front door
# ----------------------------------------------------------------------

def _http_response(
    status: int, reason: str, body: dict, keep_alive: bool
) -> bytes:
    payload = (json.dumps(body) + "\n").encode("utf-8")
    connection = "keep-alive" if keep_alive else "close"
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: {connection}\r\n"
        "\r\n"
    ).encode("ascii")
    return head + payload


async def _read_http_head(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str]] | None:
    """Read one request line + headers; ``None`` on EOF before a request."""
    line = await reader.readline()
    if not line:
        return None
    try:
        method, target, _version = line.decode("ascii").split(None, 2)
    except ValueError:
        raise FramingError(f"malformed HTTP request line {line!r}") from None
    headers: dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n"):
            break
        if not raw:
            raise FramingError("HTTP headers truncated")
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            raise FramingError(f"malformed HTTP header {raw!r}")
        headers[name.strip().lower()] = value.strip()
    return method.upper(), target, headers


async def handle_http_connection(
    ingress, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    """One HTTP/1.1 connection: ``POST /ingest`` JSONL bodies, keep-alive."""
    ingress.connection_opened("http")
    clock = ingress.clock
    try:
        while True:
            head = await _read_http_head(reader)
            if head is None:
                break
            method, target, headers = head
            keep_alive = headers.get("connection", "keep-alive").lower() != "close"
            path = target.split("?", 1)[0]

            if method == "GET" and path in ("/healthz", "/health"):
                writer.write(
                    _http_response(
                        200, "OK",
                        {"status": "draining" if ingress.closing else "ok"},
                        keep_alive,
                    )
                )
                await writer.drain()
                if not keep_alive:
                    break
                continue

            if method != "POST" or path != "/ingest":
                writer.write(
                    _http_response(
                        404, "Not Found",
                        {"error": "POST /ingest or GET /healthz"}, False,
                    )
                )
                await writer.drain()
                break

            length_text = headers.get("content-length")
            if length_text is None or not length_text.isdigit():
                writer.write(
                    _http_response(
                        411, "Length Required",
                        {"error": "Content-Length required"}, False,
                    )
                )
                await writer.drain()
                break
            length = int(length_text)
            if length > MAX_HTTP_BODY:
                writer.write(
                    _http_response(
                        413, "Payload Too Large",
                        {"error": f"body over {MAX_HTTP_BODY} bytes"}, False,
                    )
                )
                await writer.drain()
                break

            body = await reader.readexactly(length)
            arrived = clock()
            decoder = FrameDecoder()
            frames = decoder.feed(body)
            tail = decoder.flush()
            if tail is not None:
                frames.append(tail)
            accepted, shed, malformed = await _submit_all(
                ingress, frames, "http", arrived
            )
            status, reason = (429, "Too Many Requests") if shed else (200, "OK")
            writer.write(
                _http_response(
                    status, reason,
                    {"accepted": accepted, "shed": shed, "malformed": malformed},
                    keep_alive,
                )
            )
            await writer.drain()
            if not keep_alive:
                break
    except (FramingError, asyncio.IncompleteReadError):
        ingress.protocol_error("http")
    except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
