"""R007 positive fixture: mutable containers reach publish sinks."""

from dataclasses import dataclass
from typing import Dict


class TaraService:
    def store(self, snapshot, canonical, entry):
        return None

    def remember(self, snapshot, canonical, rows) -> None:
        entry = [tuple(row) for row in rows]
        self.store(snapshot, canonical, entry)  # list into the cache -> finding


@dataclass(frozen=True)
class Answer:
    # Mutable container inside a "frozen" published value -> finding.
    rows: Dict[int, str]


class Service:
    # repro-lint: publish
    def freeze(self, rows):
        return {row[0]: row for row in rows}  # dict published -> finding


class Gateway:
    def __init__(self, service: TaraService) -> None:
        self._service = service

    def attach(self, snapshot, canonical, entry, chunks) -> None:
        body = bytearray(b"".join(chunks))
        entry.with_blob((), body)  # bytearray body -> finding

    def attach_variant(self, snapshot, canonical, entry, frames) -> None:
        body = list(frames)
        entry.with_gzip((), b"{", body)  # list body -> finding

    def store_raw(self, snapshot, canonical, rows) -> None:
        self._service.store(snapshot, canonical, entry=dict(rows))  # -> finding
