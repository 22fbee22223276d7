"""Lean HTTP/1.1 framing shared by the wire server and client.

Only what the wire protocol uses: a request or response is a start line,
header lines up to a blank line, and a ``Content-Length`` body (or, for
``/v1/stream``, a chunked one).  Headers are read straight into a dict keyed
by lower-cased name with no MIME parsing, and every response (status line,
headers and body) leaves in one buffer through one ``sendall``.

The limits are the standard library's: a line holds at most
:data:`MAX_LINE` bytes and a message at most :data:`MAX_HEADERS` headers.
A request that breaks them is answered 414 (request line) or 431 (headers);
a request with a ``Transfer-Encoding`` body is answered 411.  Every
framing failure raises :class:`ProtocolError`, a :class:`ConnectionError`,
so a client treats a bad status line or a short body like any other
transport failure.
"""

from __future__ import annotations

import email.utils
import functools
import time
from dataclasses import dataclass
from http import HTTPStatus
from typing import BinaryIO, Iterator, Mapping

#: Longest request, status or header line accepted, in bytes.
MAX_LINE = 65536
#: Most header lines accepted in one message.
MAX_HEADERS = 100

_SERVER_LINE = b"Server: blinkdb-net/1\r\n"
#: ``(second, Date line)`` of the last response; one tuple, so threads
#: never see a second paired with another second's line.
_date_cache: tuple[int, bytes] = (-1, b"")


class ProtocolError(ConnectionError):
    """A message that breaks HTTP/1.1 framing; ``status`` is the server's answer."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class Message:
    """One parsed request (``method``, ``target``) or response (``status``)."""

    version: str
    headers: dict[str, str]
    body: bytes = b""
    method: str = ""
    target: str = ""
    status: int = 0

    @property
    def close(self) -> bool:
        """True when the connection ends after this message."""
        return (
            self.version == "HTTP/1.0"
            or self.headers.get("connection", "").lower() == "close"
        )


def _readline(rfile: BinaryIO, status: int = 431) -> bytes:
    line = rfile.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise ProtocolError("line too long", status)
    return line


def _read_exact(rfile: BinaryIO, length: int) -> bytes:
    data = rfile.read(length)
    if len(data) < length:
        raise ProtocolError(f"short body: {len(data)} of {length} bytes")
    return data


def _read_headers(rfile: BinaryIO) -> dict[str, str]:
    headers: dict[str, str] = {}
    while True:
        line = _readline(rfile)
        if line in (b"\r\n", b"\n"):
            return headers
        if not line:
            raise ProtocolError("connection closed inside the headers")
        if len(headers) >= MAX_HEADERS:
            raise ProtocolError(f"more than {MAX_HEADERS} headers", 431)
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep or not name or name != name.strip():
            raise ProtocolError(f"bad header line {line[:80]!r}")
        headers[name.lower()] = value.strip()


def _digits(value: str) -> bool:
    return value.isascii() and value.isdigit()


def _content_length(headers: Mapping[str, str]) -> int | None:
    value = headers.get("content-length")
    if value is None:
        return None
    if not _digits(value):
        raise ProtocolError(f"bad Content-Length {value!r}")
    return int(value)


def read_request(rfile: BinaryIO) -> Message | None:
    """Read one request; ``None`` on a clean end of stream between requests."""
    line = _readline(rfile, 414)
    if not line.strip():
        return None
    words = line.decode("latin-1").split()
    if len(words) != 3:
        raise ProtocolError(f"bad request line {line[:80]!r}")
    method, target, version = words
    if version not in ("HTTP/1.0", "HTTP/1.1"):
        raise ProtocolError(
            f"unsupported version {version[:20]!r}",
            505 if version.startswith("HTTP/") else 400,
        )
    headers = _read_headers(rfile)
    if "transfer-encoding" in headers:
        raise ProtocolError("request bodies need a Content-Length", 411)
    length = _content_length(headers) or 0
    body = _read_exact(rfile, length) if length else b""
    return Message(version, headers, body, method=method, target=target)


def read_response_head(rfile: BinaryIO) -> Message:
    """Read a status line and headers."""
    line = _readline(rfile)
    if not line:
        raise ProtocolError("connection closed before the status line")
    words = line.decode("latin-1").split(None, 2)
    if len(words) < 2 or not words[0].startswith("HTTP/1.") or not _digits(words[1]):
        raise ProtocolError(f"bad status line {line[:80]!r}")
    return Message(words[0], _read_headers(rfile), status=int(words[1]))


def read_body(rfile: BinaryIO, response: Message) -> Message:
    """Read a response's sized, chunked or close-delimited body into ``body``."""
    if response.headers.get("transfer-encoding", "").lower() == "chunked":
        response.body = b"".join(iter_chunks(rfile))
    else:
        length = _content_length(response.headers)
        response.body = rfile.read() if length is None else _read_exact(rfile, length)
    return response


def read_response(rfile: BinaryIO) -> Message:
    """Read one whole response: its head, then its body."""
    return read_body(rfile, read_response_head(rfile))


def iter_chunks(rfile: BinaryIO) -> Iterator[bytes]:
    """Yield a chunked body's chunks; consumes the last chunk and trailers."""
    while True:
        line = _readline(rfile)
        size_field = line.split(b";", 1)[0].strip()
        if not size_field or size_field.strip(b"0123456789abcdefABCDEF"):
            raise ProtocolError(f"bad chunk size line {line[:80]!r}")
        size = int(size_field, 16)
        if size == 0:
            _read_headers(rfile)  # trailers
            return
        chunk = _read_exact(rfile, size)
        if _read_exact(rfile, 2) != b"\r\n":
            raise ProtocolError("chunk not followed by CRLF")
        yield chunk


def _date() -> bytes:
    # RFC 9110 asks a server with a clock for Date; one format per second.
    global _date_cache
    now = int(time.time())
    if _date_cache[0] != now:
        line = f"Date: {email.utils.formatdate(now, usegmt=True)}\r\n".encode("ascii")
        _date_cache = (now, line)
    return _date_cache[1]


@functools.lru_cache(maxsize=None)
def _status_line(status: int) -> bytes:
    return f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n".encode("ascii")


def _head(status: int, headers: Mapping[str, str], close: bool) -> list[bytes]:
    parts = [_status_line(status), _SERVER_LINE, _date()]
    parts.extend(f"{name}: {value}\r\n".encode("latin-1") for name, value in headers.items())
    if close:
        parts.append(b"Connection: close\r\n")
    return parts


def write_response(
    sock, status: int, headers: Mapping[str, str], body: bytes, close: bool = False
) -> None:
    """Send status line, headers and a ``Content-Length`` body in one write."""
    parts = _head(status, headers, close)
    parts.append(b"Content-Length: %d\r\n\r\n" % len(body))
    parts.append(body)
    sock.sendall(b"".join(parts))


def write_chunked_head(
    sock, status: int, headers: Mapping[str, str], close: bool = False
) -> None:
    """Start a chunked response; follow with :func:`write_chunk` calls."""
    parts = _head(status, headers, close)
    parts.append(b"Transfer-Encoding: chunked\r\n\r\n")
    sock.sendall(b"".join(parts))


def write_chunk(sock, data: bytes) -> None:
    """Send one chunk; empty ``data`` sends the last chunk, ending the body."""
    sock.sendall(b"%x\r\n%s\r\n" % (len(data), data) if data else b"0\r\n\r\n")


def write_request(
    sock, method: str, target: str, headers: Mapping[str, str], body: bytes | None = None
) -> None:
    """Send a request line, headers and an optional body in one write."""
    parts = [f"{method} {target} HTTP/1.1\r\n".encode("ascii")]
    parts.extend(f"{name}: {value}\r\n".encode("latin-1") for name, value in headers.items())
    if body is not None:
        parts.append(b"Content-Length: %d\r\n" % len(body))
    parts.append(b"\r\n")
    if body:
        parts.append(body)
    sock.sendall(b"".join(parts))
