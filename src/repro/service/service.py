"""The thread-safe online serving façade over the TARA explorer.

:class:`TaraService` answers the explorer's Q1/Q2/Q3/Q5 request classes
through the serving answer cache (:mod:`repro.core.cache`):

1. every request is canonicalized (:mod:`repro.service.keys`) to an
   all-integer key built from stable-region ids, so two settings inside
   one time-aware stable region share a single cache entry;
2. answers are stored *frozen* (immutable containers) and *thawed* on
   the way out — callers receive fresh mutable containers and answers
   that echo their own request's float settings, never another
   caller's region-equivalent ones;
3. every request executes against a **pinned snapshot**
   (:class:`repro.core.Snapshot`): the service pins the current view,
   canonicalizes and answers against it, and releases the pin when the
   answer is thawed.  Epoch-free entries (explicit windows, valid
   forever because archived windows are immutable) live in a tier the
   service owns; generation-scoped entries live in the *snapshot's own
   segment* and vanish wholesale when the snapshot retires.  There is
   no epoch re-check anywhere: an answer computed under a pin is
   correct for that pin by construction.

Both tiers are :class:`~repro.core.storage.lru.ByteBudgetLRU` instances
under one byte budget (``cache_bytes``, each tier bounded by it), and
an entry also carries the encoded bytes the network tier attaches to it
(:meth:`TaraService.lookup` / :meth:`TaraService.store` /
:meth:`TaraService.attach`), so one entry per region key is the only
answer cache.

Beside the shared tier sits the **row tier**, one more
``ByteBudgetLRU`` under the same budget: it maps
``(rule_id, *windows)`` to the encoded bytes of one Q1 row.  Archived
windows are immutable and rule ids are stable across epochs, so a row
naming explicit windows is valid on every snapshot of the service and
never goes stale.  The network tier answers a Q1 miss through
:meth:`TaraService.execute_on` with ``encode_row``: the anchor ruleset
comes from the EPS slice and the answer is its rules' rows, joined;
only rows missing from the tier are decoded and encoded.

Concurrency: one re-entrant service lock guards the metrics, the
retirement bookkeeping and every read-modify-write of an entry
(:meth:`TaraService.store` / :meth:`TaraService.attach`), so a
concurrent attachment is never lost; plain lookups rely on the tiers'
own locks (global order: ``IncrementalTara._lock`` →
``TaraService._lock`` → ``Snapshot._lock`` → ``ByteBudgetLRU._lock``).
Cache misses compute *outside* every lock, so a slow first query does
not serialize the service; concurrent misses on the same key each
compute and the first store wins (benign — region equivalence
guarantees they computed equal answers).
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
    cast,
    overload,
)

from repro.common.errors import ValidationError
from repro.common.timing import stopwatch
from repro.core.builder import TaraKnowledgeBase
from repro.core.cache import (
    DEFAULT_CACHE_BYTES,
    ENTRY_BASE_COST,
    AnswerEntry,
    answer_cost,
)
from repro.core.explorer import ExplorerAnswer, TaraExplorer
from repro.core.incremental import IncrementalTara
from repro.core.queries import (
    CompareQuery,
    ComparisonResult,
    ContentQuery,
    ExplorerQuery,
    MatchMode,
    MinedRule,
    Recommendation,
    RecommendQuery,
    RollupAnswer,
    RollupQuery,
    RuleTrajectory,
    TrajectoryQuery,
)
from repro.core.regions import ParameterSetting
from repro.core.snapshot import Segment, Snapshot, SnapshotHandle
from repro.core.storage.lru import ByteBudgetLRU
from repro.data.items import ItemId
from repro.data.periods import PeriodSpec
from repro.data.transactions import Transaction
from repro.mining.rules import RuleId
from repro.service.keys import CanonicalQuery, canonicalize
from repro.service.metrics import ServiceMetrics

#: Sources a service can wrap.
ServiceSource = Union[TaraKnowledgeBase, TaraExplorer, IncrementalTara]

#: Encodes one Q1 row for the wire; the network tier passes
#: :func:`repro.serve.protocol.encode_trajectory_row`.
RowEncoder = Callable[[RuleTrajectory], bytes]

#: Row-tier key: ``(rule_id, *windows)``.
RowKey = Tuple[int, ...]


class TaraService:
    """Thread-safe, cached query serving over one TARA knowledge base.

    Wraps a :class:`TaraKnowledgeBase`, an existing
    :class:`TaraExplorer` (both served as a single static snapshot), or
    an :class:`IncrementalTara` publisher (in which case every request
    pins whatever snapshot is current; publishes never disturb requests
    already in flight).
    """

    def __init__(
        self,
        source: ServiceSource,
        *,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        metrics: Optional[ServiceMetrics] = None,
    ) -> None:
        self._lock = threading.RLock()
        self.cache_bytes = cache_bytes
        self._shared: Segment = ByteBudgetLRU(cache_bytes)
        self._rows: ByteBudgetLRU[RowKey, bytes] = ByteBudgetLRU(cache_bytes)
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self._retired_seen = 0  # repro-lint: guarded-by=_lock
        # Exactly one of the two is set, in __init__, and never rebound:
        # either we front a publisher, or we hold one static snapshot
        # pinned for the service's whole lifetime.
        self._publisher: Optional[IncrementalTara] = None
        self._static: Optional[Snapshot] = None
        if isinstance(source, IncrementalTara):
            self._publisher = source
        elif isinstance(source, TaraExplorer):
            static = Snapshot(
                source.knowledge_base.window_count,
                source.knowledge_base,
                explorer=source,
            )
            static.pin()
            self._static = static
        elif isinstance(source, TaraKnowledgeBase):
            static = Snapshot(source.window_count, source)
            static.pin()
            self._static = static
        else:
            raise ValidationError(
                f"cannot serve from a {type(source).__name__!r}"
            )

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    def pin(self) -> SnapshotHandle:
        """Pin the current snapshot; release promptly (``with`` it).

        Against a publisher this is the MVCC read barrier: the returned
        view is immutable and survives any number of concurrent
        publishes until the handle is released.  Against a static
        source it pins the service's single long-lived snapshot.
        """
        if self._publisher is not None:
            return self._publisher.snapshot()
        assert self._static is not None
        return self._static.handle()

    @property
    def knowledge_base(self) -> TaraKnowledgeBase:
        """The knowledge base of the currently published snapshot."""
        if self._publisher is not None:
            return self._publisher.knowledge_base
        assert self._static is not None
        return self._static.knowledge_base

    @property
    def epoch(self) -> int:
        """Epoch of the currently published snapshot."""
        with self.pin() as snapshot:
            return snapshot.epoch

    def cache_info(self) -> Dict[str, int]:
        """Occupancy and lifetime accounting across both cache tiers.

        Counts sum the shared (epoch-free) tier and the current
        snapshot's segment; segments of retired snapshots are gone and
        accounted as invalidations in :attr:`metrics`.
        """
        self._sync_retirements()
        info = {
            name: 0
            for name in (
                "entries", "current_bytes", "peak_bytes", "evictions",
                "rejected",
            )
        }
        with self.pin() as snapshot:
            segment = snapshot.segment(self.cache_bytes)
            epoch = snapshot.epoch
        tiers = [self._shared] if segment is None else [self._shared, segment]
        for tier in tiers:
            counters = tier.counters()
            for name in info:
                info[name] += counters[name]
        info["budget_bytes"] = self.cache_bytes
        info["epoch"] = epoch
        return info

    def metrics_snapshot(self) -> Dict[str, object]:
        """Service-tier metrics dict with fresh storage gauges.

        When the served knowledge base is a lazy v2 load
        (:class:`repro.core.lazykb.LazyTaraKnowledgeBase`), its
        shard-touch and decoded-series LRU counters are sampled into the
        metrics' storage section first, so ``/metrics`` and the bench
        artefacts see eviction pressure without polling the reader
        directly.  Eagerly loaded knowledge bases have no storage
        section.  ``rows`` holds the row tier's counters.
        """
        sampler = getattr(self.knowledge_base, "storage_counters", None)
        counters = sampler() if callable(sampler) else None
        with self._lock:
            if counters is not None:
                self.metrics.set_storage_counters(counters)
            report = self.metrics.as_dict()
        report["rows"] = self._rows.counters()
        return report

    def snapshot_stats(self) -> Dict[str, object]:
        """Publisher/snapshot introspection for ``GET /v1/snapshot``."""
        if self._publisher is not None:
            return self._publisher.snapshot_stats()
        assert self._static is not None
        static = self._static
        return {
            "epoch": static.epoch,
            "windows": static.window_count,
            "refs": static.refs,
            "building": False,
            "retired_snapshots": 0,
            "retired_entries": 0,
        }

    def publish(
        self, batches: Iterable[Sequence[Transaction]]
    ) -> Snapshot:
        """Forward a publish to the wrapped publisher.

        Raises :class:`ValidationError` when the service fronts a
        static source (nothing can be appended to it).
        """
        if self._publisher is None:
            raise ValidationError(
                "this service fronts a static knowledge base; "
                "serve an IncrementalTara to accept appends"
            )
        return self._publisher.publish(batches)

    def _sync_retirements(self) -> None:
        """Fold snapshot retirements into the invalidation metric.

        Retirement happens on whatever thread drops the last pin; the
        publisher counts dropped segment entries and we pull the delta
        here (on the serving path) rather than re-entering the service
        from the retirement callback.
        """
        publisher = self._publisher
        if publisher is None:
            return
        total = publisher.retired_entries()
        with self._lock:
            delta = total - self._retired_seen
            if delta > 0:
                self._retired_seen = total
                self.metrics.record_invalidations(delta)

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    @overload
    def execute(self, query: TrajectoryQuery) -> List[RuleTrajectory]: ...

    @overload
    def execute(self, query: CompareQuery) -> ComparisonResult: ...

    @overload
    def execute(self, query: RecommendQuery) -> Recommendation: ...

    @overload
    def execute(self, query: ContentQuery) -> Dict[int, List[RuleId]]: ...

    @overload
    def execute(self, query: RollupQuery) -> RollupAnswer: ...

    def execute(self, query: ExplorerQuery) -> ExplorerAnswer:
        """Serve one request against a freshly pinned snapshot.

        Cache hits thaw the stored answer; misses execute the resolved
        request on the pinned snapshot's explorer (outside every lock),
        freeze and store the answer, and return it.  Roll-up requests
        pass through uncached (their answers are not region-invariant).
        """
        with self.pin() as snapshot:
            return self.execute_on(snapshot, query)

    @overload
    def execute_on(
        self,
        snapshot: Snapshot,
        query: ExplorerQuery,
        canonical: Optional[CanonicalQuery] = None,
    ) -> ExplorerAnswer: ...

    @overload
    def execute_on(
        self,
        snapshot: Snapshot,
        query: TrajectoryQuery,
        canonical: Optional[CanonicalQuery] = None,
        *,
        encode_row: RowEncoder,
    ) -> bytes: ...

    def execute_on(
        self,
        snapshot: Snapshot,
        query: ExplorerQuery,
        canonical: Optional[CanonicalQuery] = None,
        *,
        encode_row: Optional[RowEncoder] = None,
    ) -> Union[ExplorerAnswer, bytes]:
        """Serve one request against an already-pinned *snapshot*.

        The serving gateway pins once per request (so canonicalization,
        coalescing, and execution all observe one view), canonicalizes
        once, and passes the *canonical* form in; without it the query
        is canonicalized here.  The caller owns the pin and must hold it
        until the answer is returned.

        With *encode_row*, a Q1 request is answered as its encoded rows
        (one per matching rule, in answer order, joined by commas: the
        inside of the answer's row array) drawn from the row tier; the
        answer value is never built.  An entry without a value (minted
        from bytes by the network tier) is a value miss: the value is
        computed and joins the entry beside its bytes.
        """
        with stopwatch() as clock:
            if canonical is None:
                canonical = canonicalize(
                    query, snapshot.knowledge_base, snapshot.epoch
                )
            hit = False
            result: Union[ExplorerAnswer, bytes]
            if encode_row is not None and isinstance(
                canonical.resolved, TrajectoryQuery
            ):
                result = self._rows_on(snapshot, canonical.resolved, encode_row)
            else:
                entry = self.lookup(snapshot, canonical)
                if entry is not None and entry.value is not None:
                    hit = True
                    frozen = entry.value
                else:
                    answer = snapshot.explorer().execute(canonical.resolved)
                    frozen = self._freeze(canonical, answer)
                    if canonical.key is not None:
                        self.store(
                            snapshot,
                            canonical,
                            AnswerEntry(
                                frozen,
                                answer_cost(canonical.query_class, frozen),
                            ),
                        )
                result = self._thaw(canonical, query, frozen)
        self._sync_retirements()
        with self._lock:
            self.metrics.observe(canonical.query_class, hit, clock.seconds)
        return result

    def _rows_on(
        self, snapshot: Snapshot, query: TrajectoryQuery, encode_row: RowEncoder
    ) -> bytes:
        """The comma-joined Q1 rows of a resolved (explicit-window) *query*.

        Each row is read from the row tier, or built by
        :meth:`TaraExplorer.trajectory`, encoded by *encode_row* and
        charged to the tier at its length plus ``ENTRY_BASE_COST``.
        """
        spec = query.spec
        assert spec is not None  # canonicalization resolved the default
        explorer = snapshot.explorer()
        windows = spec.windows
        rows = self._rows
        encoded: List[bytes] = []
        for rule_id in explorer.ruleset(query.setting, query.anchor_window):
            key = (rule_id, *windows)
            row = rows.get(key)
            if row is None:
                row = encode_row(explorer.trajectory(rule_id, spec))
                rows.put(key, row, ENTRY_BASE_COST + len(row))
            encoded.append(row)
        return b",".join(encoded)

    def uncached(self, query: ExplorerQuery) -> ExplorerAnswer:
        """Execute *query* on a pinned snapshot, bypassing both caches.

        The bench harnesses use this to verify that cached answers
        equal freshly computed ones before they write results.
        """
        with self.pin() as snapshot:
            canonical = canonicalize(
                query, snapshot.knowledge_base, snapshot.epoch
            )
            return snapshot.explorer().execute(canonical.resolved)

    # ------------------------------------------------------------------
    # the two cache tiers
    # ------------------------------------------------------------------
    def _tier(
        self, snapshot: Snapshot, canonical: CanonicalQuery
    ) -> Optional[Segment]:
        """The tier *canonical* belongs to (``None`` once retired).

        Scoped answers live in the pinned snapshot's segment — always
        correct, because they were computed against exactly that view,
        and gone when the snapshot retires.  Epoch-free answers live in
        the service-owned shared tier and outlive every snapshot.
        """
        if canonical.scoped:
            return snapshot.segment(self.cache_bytes)
        return self._shared

    def lookup(
        self, snapshot: Snapshot, canonical: CanonicalQuery
    ) -> Optional[AnswerEntry]:
        """The cached entry for *canonical* on *snapshot*, or ``None``.

        Refreshes the entry's recency; records no metrics (the network
        tier probes here for encoded bytes before it executes).
        """
        key = canonical.key
        tier = self._tier(snapshot, canonical)
        if key is None or tier is None:
            return None
        return tier.get(key)

    def store(
        self, snapshot: Snapshot, canonical: CanonicalQuery, entry: AnswerEntry
    ) -> bool:
        """Merge *entry* into the key's entry, or cache it if there is none.

        A computed value fills a bytes-only entry (keeping its bytes),
        and an identity blob joins the entry of its key; what is already
        stored wins (a racing miss computed the same answer).  The tier
        charges the entry's cost, evicting least-recently-used entries,
        and rejects an entry that alone exceeds the budget.  False when
        nothing changed or the key is not cacheable.
        """
        return self._update(
            snapshot,
            canonical,
            lambda current: entry if current is None else current.merged(entry),
        )

    def attach(
        self,
        snapshot: Snapshot,
        canonical: CanonicalQuery,
        extend: Callable[[AnswerEntry], AnswerEntry],
    ) -> bool:
        """Replace the key's entry by ``extend(entry)``; False if absent.

        The network tier attaches gzip variants this way
        (:meth:`AnswerEntry.with_gzip`); identity blobs go through
        :meth:`store`.  The successor is re-charged at its new cost.
        """
        return self._update(
            snapshot,
            canonical,
            lambda current: None if current is None else extend(current),
        )

    def _update(
        self,
        snapshot: Snapshot,
        canonical: CanonicalQuery,
        change: Callable[[Optional[AnswerEntry]], Optional[AnswerEntry]],
    ) -> bool:
        """Read-modify-write one key under the service lock."""
        key = canonical.key
        tier = self._tier(snapshot, canonical)
        if key is None or tier is None:
            return False
        with self._lock:
            current = tier.get(key)
            successor = change(current)
            if successor is None or successor is current:
                return False
            evicted = tier.put(key, successor, successor.cost)
            self.metrics.record_evictions(evicted)
        return True

    # ------------------------------------------------------------------
    # freeze / thaw
    # ------------------------------------------------------------------
    # repro-lint: publish
    def _freeze(self, canonical: CanonicalQuery, answer: object) -> object:
        """Convert *answer* to the immutable form stored in the cache."""
        if canonical.query_class == "Q1":
            trajectories = cast(List[RuleTrajectory], answer)
            return tuple(trajectories)
        if canonical.query_class == "Q5":
            per_window = cast(Dict[int, List[RuleId]], answer)
            return tuple(
                (window, tuple(ids)) for window, ids in per_window.items()
            )
        # Q2/Q3 answers are frozen dataclasses already.
        return answer

    def _thaw(
        self, canonical: CanonicalQuery, query: ExplorerQuery, frozen: object
    ) -> ExplorerAnswer:
        """Rebuild a caller-owned answer from the frozen cached form.

        Outer containers come back fresh (appending to or popping from
        a served answer cannot corrupt the cache); the frozen value
        objects inside (trajectories, diffs, regions) are shared with
        the cache and must be treated as read-only.  Q2/Q3 answers are
        re-echoed with the *caller's* settings — a region-equivalent
        entry may have been populated by a request with different raw
        floats.
        """
        if canonical.query_class == "Q1":
            stored = cast(Tuple[RuleTrajectory, ...], frozen)
            return list(stored)
        if canonical.query_class == "Q2":
            comparison = cast(ComparisonResult, frozen)
            compare_query = cast(CompareQuery, query)
            return replace(
                comparison,
                first=compare_query.first,
                second=compare_query.second,
            )
        if canonical.query_class == "Q3":
            recommendation = cast(Recommendation, frozen)
            recommend_query = cast(RecommendQuery, query)
            return replace(
                recommendation,
                setting=recommend_query.setting,
                neighbors=dict(recommendation.neighbors),
            )
        if canonical.query_class == "Q5":
            pairs = cast(Tuple[Tuple[int, Tuple[RuleId, ...]], ...], frozen)
            return {window: list(ids) for window, ids in pairs}
        return cast(RollupAnswer, frozen)

    # ------------------------------------------------------------------
    # convenience wrappers (mirror the explorer's named operations)
    # ------------------------------------------------------------------
    def trajectories(
        self,
        setting: ParameterSetting,
        anchor_window: int,
        spec: Optional[PeriodSpec] = None,
    ) -> List[RuleTrajectory]:
        """Q1 via the cache; see :class:`TrajectoryQuery`."""
        return self.execute(
            TrajectoryQuery(
                setting=setting, anchor_window=anchor_window, spec=spec
            )
        )

    def compare(
        self,
        first: ParameterSetting,
        second: ParameterSetting,
        spec: Optional[PeriodSpec] = None,
        mode: MatchMode = MatchMode.SINGLE,
    ) -> ComparisonResult:
        """Q2 via the cache; see :class:`CompareQuery`."""
        return self.execute(
            CompareQuery(first=first, second=second, spec=spec, mode=mode)
        )

    def recommend(
        self, setting: ParameterSetting, window: Optional[int] = None
    ) -> Recommendation:
        """Q3 via the cache; see :class:`RecommendQuery`."""
        return self.execute(RecommendQuery(setting=setting, window=window))

    def content(
        self,
        setting: ParameterSetting,
        items: Sequence[ItemId],
        spec: Optional[PeriodSpec] = None,
    ) -> Dict[int, List[RuleId]]:
        """Q5 via the cache; see :class:`ContentQuery`."""
        return self.execute(
            ContentQuery(setting=setting, items=tuple(items), spec=spec)
        )

    def mine_rolled_up(
        self, setting: ParameterSetting, spec: PeriodSpec
    ) -> RollupAnswer:
        """Roll-up mining — metered but never cached (not region-invariant)."""
        return self.execute(RollupQuery(setting=setting, spec=spec))

    def mine(
        self, setting: ParameterSetting, spec: Optional[PeriodSpec] = None
    ) -> Dict[int, List[MinedRule]]:
        """Traditional mining — metered as class ``"mine"``, uncached.

        Mining answers embed per-window float measures for every rule;
        they are bulky relative to recomputation cost, so the serving
        layer meters them without caching.
        """
        with stopwatch() as clock:
            with self.pin() as snapshot:
                answer = snapshot.explorer().mine(setting, spec)
        with self._lock:
            self.metrics.observe("mine", False, clock.seconds)
        return answer
