"""The serving answer cache: one immutable entry per canonical region key.

The paper's equivalence (Definition 11) says every setting inside one
time-aware stable region yields the same ruleset, so one served answer
is reused under one canonical integer key
(:func:`repro.service.keys.canonicalize`).  An :class:`AnswerEntry`
holds everything the serving tiers reuse for that key:

* the *frozen* answer value, thawed per caller by
  :class:`repro.service.TaraService` — or ``None`` for an entry the
  network tier minted from bytes alone (a Q1 answer assembled from
  encoded rows never exists as a value; the service computes the value
  on the first in-process request and keeps the bytes);
* the *identity blob* for each echo tag — the encoded answer bytes
  after ``"answer":`` in the success envelope.  Q2/Q3 answers echo the
  caller's raw floats (:func:`repro.service.keys.echo_tag`), so
  region-equivalent requests share the value but not the bytes;
* the *gzip variant* for each echo tag — one complete pre-compressed
  response body, stored with the envelope prefix it was compressed
  under.  A variant is served only to a request whose envelope is that
  same prefix, so a variant never outlives the snapshot epoch baked
  into it, even under an epoch-free key.

Entries are immutable: attaching bytes builds a successor entry
(:meth:`AnswerEntry.with_blob`, :meth:`AnswerEntry.with_gzip`) that
replaces the old one in its tier.  A tier is a
:class:`~repro.core.storage.lru.ByteBudgetLRU`: the service owns the
shared tier of epoch-free entries (explicit windows, valid forever
because archived windows are immutable), and each
:class:`repro.core.Snapshot` owns a segment of its scoped entries,
dropped wholesale when the snapshot's last reader drains.  There is no
other retirement.

Each entry is charged :attr:`AnswerEntry.cost`: a deterministic model
of the frozen value (:func:`answer_cost`, in the manner of
:func:`~repro.core.storage.lru.series_cost`; :data:`ENTRY_BASE_COST`
alone for a bytes-only entry) plus the length of every attached byte
string.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple, cast

from repro.core.queries import ComparisonResult, Recommendation, RuleTrajectory
from repro.mining.rules import RuleId

#: A canonical region key — the integer tuple produced by
#: :func:`repro.service.keys.canonicalize` (re-declared here so the
#: entry does not depend on the key-construction layer above it).
CacheKey = Tuple[int, ...]

#: The raw caller floats an answer echoes back (empty for Q1/Q5).
EchoTag = Tuple[float, ...]

#: Default byte budget of one cache tier.
DEFAULT_CACHE_BYTES = 64 * 1024 * 1024

#: Charged per entry: the entry object, its LRU slot and its key tuple.
ENTRY_BASE_COST = 120

#: Charged per object a frozen answer holds: a trajectory, one window
#: measure of a trajectory, a window diff, a stable region, or one
#: per-window row of a content answer (the storage LRU's
#: ``DECODED_ENTRY_COST`` for a small object plus its container slot).
OBJECT_COST = 88

#: Charged per rule-id reference inside a tuple (ids are shared ints).
REF_COST = 8


def answer_cost(query_class: str, value: object) -> int:
    """Charged bytes for one frozen answer of *query_class*.

    A model, not a measurement: budgets must mean the same on every run
    of the same workload.  Rules themselves are shared with the catalog
    and not charged.
    """
    if query_class == "Q1":
        trajectories = cast(Tuple[RuleTrajectory, ...], value)
        return ENTRY_BASE_COST + sum(
            OBJECT_COST * (1 + len(trajectory.measures))
            for trajectory in trajectories
        )
    if query_class == "Q2":
        comparison = cast(ComparisonResult, value)
        refs = len(comparison.only_first) + len(comparison.only_second)
        for diff in comparison.per_window:
            refs += len(diff.only_first) + len(diff.only_second) + len(diff.common)
        return (
            ENTRY_BASE_COST
            + OBJECT_COST * len(comparison.per_window)
            + REF_COST * refs
        )
    if query_class == "Q3":
        recommendation = cast(Recommendation, value)
        return ENTRY_BASE_COST + OBJECT_COST * (1 + len(recommendation.neighbors))
    pairs = cast(Tuple[Tuple[int, Tuple[RuleId, ...]], ...], value)
    return ENTRY_BASE_COST + sum(
        OBJECT_COST + REF_COST * len(ids) for _, ids in pairs
    )


@dataclass(frozen=True)
class AnswerEntry:
    """One cached answer with its encoded byte variants.

    Attributes:
        value: the frozen answer (immutable containers only), or
            ``None`` for a bytes-only entry.
        value_cost: :func:`answer_cost` of *value*
            (:data:`ENTRY_BASE_COST` when *value* is ``None``).
        blobs: ``(echo tag, identity answer blob)`` pairs.
        gzipped: ``(echo tag, envelope prefix, gzip body)`` triples.
    """

    value: object
    value_cost: int
    blobs: Tuple[Tuple[EchoTag, bytes], ...] = ()
    gzipped: Tuple[Tuple[EchoTag, bytes, bytes], ...] = ()

    @classmethod
    def of_blob(cls, echo: EchoTag, blob: bytes) -> "AnswerEntry":
        """A bytes-only entry: *blob* for *echo* and no frozen value."""
        return cls(None, ENTRY_BASE_COST, ((echo, blob),))

    @property
    def cost(self) -> int:
        """Charged bytes: the value model plus every attached byte string."""
        return (
            self.value_cost
            + sum(len(blob) for _, blob in self.blobs)
            + sum(len(prefix) + len(body) for _, prefix, body in self.gzipped)
        )

    def blob(self, echo: EchoTag) -> Optional[bytes]:
        """The identity answer blob for *echo*, or ``None``."""
        for tag, blob in self.blobs:
            if tag == echo:
                return blob
        return None

    def gzip(self, echo: EchoTag, prefix: bytes) -> Optional[bytes]:
        """The gzip body for *echo* compressed under *prefix*, or ``None``."""
        for tag, minted_under, body in self.gzipped:
            if tag == echo and minted_under == prefix:
                return body
        return None

    def merged(self, other: "AnswerEntry") -> "AnswerEntry":
        """This entry completed by *other* (``self`` if it adds nothing).

        *other*'s value fills a missing value, and its identity blobs
        join for the echo tags this entry has no blob for; whatever is
        already here wins (a racing miss computed the same answer).
        """
        merged = self
        if merged.value is None and other.value is not None:
            merged = replace(merged, value=other.value, value_cost=other.value_cost)
        for echo, blob in other.blobs:
            if merged.blob(echo) is None:
                merged = merged.with_blob(echo, blob)
        return merged

    def with_blob(self, echo: EchoTag, blob: bytes) -> "AnswerEntry":
        """A successor entry with *blob* as the identity bytes of *echo*."""
        kept = tuple(pair for pair in self.blobs if pair[0] != echo)
        return replace(self, blobs=kept + ((echo, blob),))

    def with_gzip(
        self, echo: EchoTag, prefix: bytes, body: bytes
    ) -> "AnswerEntry":
        """A successor entry whose one gzip variant of *echo* is *body*."""
        kept = tuple(triple for triple in self.gzipped if triple[0] != echo)
        return replace(self, gzipped=kept + ((echo, prefix, body),))
