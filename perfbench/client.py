"""A minimal blocking HTTP/1.1 client for the load generator.

One :class:`Connection` is one persistent socket.  It counts every byte
it reads for a response (status line, headers, chunk framing and body),
which is what ``wire_kib_per_op`` reports, and it understands both body
framings the server emits: ``Content-Length`` and chunked transfer.
"""

from __future__ import annotations

import json
import socket
import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple


class WireFailure(Exception):
    """The server closed the connection or sent something unframeable."""


@dataclass
class Response:
    status: int
    headers: Dict[str, str]
    body: bytes
    wire_bytes: int
    seconds: float

    def json(self) -> Dict[str, object]:
        return json.loads(self.body)


class Connection:
    """One keep-alive connection to the server under test."""

    def __init__(self, port: int, host: str = "127.0.0.1") -> None:
        self._sock = socket.create_connection((host, port), timeout=120)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = bytearray()
        self._read = 0

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def request(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        headers: Sequence[Tuple[str, str]] = (),
    ) -> Response:
        head = [f"{method} {path} HTTP/1.1", "Host: bench"]
        if body:
            head.append("Content-Type: application/json")
            head.append(f"Content-Length: {len(body)}")
        head.extend(f"{name}: {value}" for name, value in headers)
        payload = ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body
        start = time.perf_counter()
        self._read = 0
        self._sock.sendall(payload)
        status, fields = self._read_head()
        if "chunked" in fields.get("transfer-encoding", ""):
            data = self._read_chunked()
        else:
            data = self._take(int(fields.get("content-length", "0")))
        seconds = time.perf_counter() - start
        return Response(status, fields, data, self._read, seconds)

    def post_json(
        self,
        path: str,
        payload: object,
        headers: Sequence[Tuple[str, str]] = (),
    ) -> Response:
        return self.request(
            "POST", path, json.dumps(payload).encode("utf-8"), headers
        )

    # ------------------------------------------------------------------
    def _fill(self) -> None:
        chunk = self._sock.recv(262144)
        if not chunk:
            raise WireFailure("server closed the connection")
        self._read += len(chunk)
        self._buffer += chunk

    def _line(self) -> bytes:
        while True:
            end = self._buffer.find(b"\r\n")
            if end >= 0:
                line = bytes(self._buffer[:end])
                del self._buffer[: end + 2]
                return line
            self._fill()

    def _take(self, size: int) -> bytes:
        while len(self._buffer) < size:
            self._fill()
        data = bytes(self._buffer[:size])
        del self._buffer[:size]
        return data

    def _read_head(self) -> Tuple[int, Dict[str, str]]:
        while True:
            end = self._buffer.find(b"\r\n\r\n")
            if end >= 0:
                break
            self._fill()
        lines = bytes(self._buffer[:end]).decode("latin-1").split("\r\n")
        del self._buffer[: end + 4]
        parts = lines[0].split(None, 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
            raise WireFailure(f"malformed status line {lines[0]!r}")
        fields = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            fields[name.strip().lower()] = value.strip()
        return int(parts[1]), fields

    def _read_chunked(self) -> bytes:
        parts = []
        while True:
            size = int(self._line().split(b";", 1)[0], 16)
            if size == 0:
                self._line()
                return b"".join(parts)
            parts.append(self._take(size))
            self._take(2)


def wait_ready(port: int, timeout: float = 60.0) -> Optional[Dict[str, object]]:
    """Poll ``/healthz`` until the server answers; its body, or None."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with Connection(port) as conn:
                response = conn.request("GET", "/healthz")
            if response.status == 200:
                return response.json()
        except (OSError, WireFailure):
            time.sleep(0.05)
    return None
