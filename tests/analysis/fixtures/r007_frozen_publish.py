"""R007 negative fixture: publish sinks only receive frozen values."""

from dataclasses import dataclass
from typing import Mapping, Tuple


@dataclass(frozen=True)
class AnswerEntry:
    value: object
    value_cost: int
    blobs: Tuple[Tuple[Tuple[float, ...], bytes], ...] = ()

    def with_blob(self, echo, blob):
        return self

    def with_gzip(self, echo, prefix, body):
        return self


class TaraService:
    def store(self, snapshot, canonical, entry):
        return None

    def remember(self, snapshot, canonical, rows) -> None:
        staged = [tuple(row) for row in rows]
        value = tuple(staged)  # frozen before the sink
        self.store(snapshot, canonical, AnswerEntry(value, 100))


@dataclass(frozen=True)
class Answer:
    rows: Tuple[int, ...]
    labels: Mapping[int, str]


class Service:
    # repro-lint: publish
    def freeze(self, rows):
        return tuple(tuple(row) for row in rows)


class Gateway:
    def __init__(self, service: TaraService) -> None:
        self._service = service

    def attach(self, snapshot, canonical, entry, chunks) -> None:
        body = b"".join(chunks)  # bytes are frozen before the sinks
        self._service.store(snapshot, canonical, entry.with_blob((), body))
        self._service.store(
            snapshot, canonical, entry.with_gzip((), b"{", body)
        )
