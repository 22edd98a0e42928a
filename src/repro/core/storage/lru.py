"""A byte-budgeted LRU for decoded archive slices and served answers.

The v2 read path (:mod:`repro.core.storage.reader`) materializes a
rule's decoded series only on first touch; this container is what keeps
the *sum* of those materializations bounded.  The serving answer cache
(:mod:`repro.core.cache`) uses the same container for its tiers.  Each
cached value carries an explicit byte cost (the reader charges a
deterministic estimate of the decoded Python structure, see
:func:`series_cost`); inserting past the budget evicts
least-recently-used entries until the total fits again.  Counters
(hits, misses, evictions, current/peak charged bytes) feed the storage
section of the serving metrics and the ``repro bench-persist``
artefact.

Thread safety: the serving tier executes queries on a thread pool, so
every public method takes the container's own lock — the LRU is shared
by all readers of one mmap'd knowledge base.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Generic, Optional, Tuple, TypeVar

from repro.common.errors import ValidationError

K = TypeVar("K")
V = TypeVar("V")

#: Deterministic per-entry cost estimate for one decoded series entry: a
#: 4-tuple of small ints costs ~72 bytes of tuple header + slots plus
#: the list cell, measured on CPython 3.10-3.12 (sys.getsizeof of the
#: tuple is 72; ints below 2**30 are interned or shared).  The charge is
#: deliberately a *model*, not a live measurement: budgets must mean the
#: same thing on every run of the same workload.
DECODED_ENTRY_COST = 88

#: Fixed overhead charged per cached series (list header + dict slot).
SERIES_BASE_COST = 120


def series_cost(entry_count: int) -> int:
    """Charged bytes for a decoded series of *entry_count* entries."""
    return SERIES_BASE_COST + entry_count * DECODED_ENTRY_COST


class ByteBudgetLRU(Generic[K, V]):
    """LRU mapping with a total byte budget instead of an entry count.

    Args:
        budget_bytes: maximum total charged bytes; ``None`` disables
            eviction (the cache only counts).  A value that alone
            exceeds the budget is returned to the caller but *not*
            cached — retaining it would immediately evict everything
            else for a value that can never fit.
    """

    def __init__(self, budget_bytes: Optional[int] = None) -> None:
        if budget_bytes is not None and budget_bytes <= 0:
            raise ValidationError(
                f"memory budget must be positive, got {budget_bytes}"
            )
        self._lock = threading.Lock()
        self.budget_bytes = budget_bytes
        self._entries: "OrderedDict[K, Tuple[V, int]]" = OrderedDict()  # repro-lint: guarded-by=_lock
        self._current_bytes = 0  # repro-lint: guarded-by=_lock
        self._peak_bytes = 0  # repro-lint: guarded-by=_lock
        self._hits = 0  # repro-lint: guarded-by=_lock
        self._misses = 0  # repro-lint: guarded-by=_lock
        self._evictions = 0  # repro-lint: guarded-by=_lock
        self._rejected = 0  # repro-lint: guarded-by=_lock

    def get(self, key: K) -> Optional[V]:
        """The cached value for *key* (refreshed as most recent), or None."""
        with self._lock:
            cached = self._entries.get(key)
            if cached is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return cached[0]

    def put(self, key: K, value: V, cost: int) -> int:
        """Cache *value* charged at *cost* bytes, evicting LRU entries.

        Replacing an existing key re-charges it at the new cost.  An
        entry whose lone cost exceeds the whole budget is rejected (and
        counted) instead of wiping the cache for nothing.  Returns how
        many entries were evicted to make room.
        """
        if cost < 0:
            raise ValidationError(f"cost must be >= 0, got {cost}")
        evicted = 0
        with self._lock:
            if self.budget_bytes is not None and cost > self.budget_bytes:
                self._rejected += 1
                return 0
            existing = self._entries.pop(key, None)
            if existing is not None:
                self._current_bytes -= existing[1]
            self._entries[key] = (value, cost)
            self._current_bytes += cost
            if self.budget_bytes is not None:
                while self._current_bytes > self.budget_bytes and len(self._entries) > 1:
                    _, (_, evicted_cost) = self._entries.popitem(last=False)
                    self._current_bytes -= evicted_cost
                    evicted += 1
                self._evictions += evicted
                # The newest entry alone may still exceed the budget when
                # cost <= budget < cost + anything; that case cannot
                # happen (we evicted down to one entry of cost <= budget).
            if self._current_bytes > self._peak_bytes:
                self._peak_bytes = self._current_bytes
        return evicted

    def clear(self) -> int:
        """Drop every entry (counters are preserved); returns how many."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._current_bytes = 0
            return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def counters(self) -> Dict[str, int]:
        """JSON-friendly snapshot of the cache accounting."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "budget_bytes": self.budget_bytes or 0,
                "current_bytes": self._current_bytes,
                "peak_bytes": self._peak_bytes,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "rejected": self._rejected,
            }
