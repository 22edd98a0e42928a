"""LRU and segment-retirement behaviour of the serving answer cache.

One immutable :class:`~repro.core.cache.AnswerEntry` per canonical key,
stored through :meth:`TaraService.store` into a byte-budgeted tier: the
service's shared tier for epoch-free keys, the pinned snapshot's segment
for scoped ones.
"""

import pytest

from repro.common.errors import ValidationError
from repro.core import GenerationConfig, IncrementalTara, RecommendQuery
from repro.core.cache import ENTRY_BASE_COST, AnswerEntry
from repro.core.storage.lru import ByteBudgetLRU
from repro.service import EPOCH_FREE, CanonicalQuery, TaraService


def canonical(key, *, epoch=EPOCH_FREE):
    """A hand-made canonical query: only the key and its scope matter."""
    return CanonicalQuery("Q3", RecommendQuery(setting=None), key, epoch)


def entry(value, cost=100):
    return AnswerEntry(value, cost)


class TestLru:
    def test_put_get_roundtrip(self, small_kb):
        service = TaraService(small_kb)
        with service.pin() as snapshot:
            assert service.lookup(snapshot, canonical((1,))) is None
            service.store(snapshot, canonical((1,)), entry("a"))
            found = service.lookup(snapshot, canonical((1,)))
            assert found is not None and found.value == "a"
        assert service.cache_info()["entries"] == 1

    def test_bound_evicts_least_recently_used(self, small_kb):
        service = TaraService(small_kb, cache_bytes=200)
        with service.pin() as snapshot:
            service.store(snapshot, canonical((1,)), entry("a"))
            service.store(snapshot, canonical((2,)), entry("b"))
            service.lookup(snapshot, canonical((1,)))  # (2,) is now the victim
            service.store(snapshot, canonical((3,)), entry("c"))
            assert service.lookup(snapshot, canonical((2,))) is None
            assert service.lookup(snapshot, canonical((1,))) is not None
            assert service.lookup(snapshot, canonical((3,))) is not None
        assert service.cache_info()["evictions"] == 1
        assert service.metrics.evictions == 1

    def test_refreshing_put_does_not_grow(self, small_kb):
        service = TaraService(small_kb)
        attach_bytes = lambda current: current.with_blob((), b"bytes")  # noqa: E731
        with service.pin() as snapshot:
            assert not service.attach(snapshot, canonical((1,)), attach_bytes)
            service.store(snapshot, canonical((1,)), entry("a"))
            # A racing miss keeps the entry already there (and its bytes).
            assert service.attach(snapshot, canonical((1,)), attach_bytes)
            service.store(snapshot, canonical((1,)), entry("a2"))
            found = service.lookup(snapshot, canonical((1,)))
        assert found is not None and found.value == "a"
        assert found.blob(()) == b"bytes"
        info = service.cache_info()
        assert info["entries"] == 1
        assert info["current_bytes"] == 100 + len(b"bytes")

    def test_bytes_only_entry_costs_its_bytes(self, small_kb):
        blob = b'{"trajectories":[]}'
        minted = AnswerEntry.of_blob((), blob)
        assert minted.value is None
        assert minted.cost == ENTRY_BASE_COST + len(blob)
        filled = minted.merged(entry("a", 300))
        assert filled.value == "a" and filled.blob(()) == blob
        assert filled.cost == 300 + len(blob)
        assert filled.merged(minted) is filled  # adds nothing
        service = TaraService(small_kb)
        with service.pin() as snapshot:
            key = canonical((1,))
            assert service.store(snapshot, key, minted)
            assert service.lookup(snapshot, key).cost == minted.cost
            # A computed value joins the bytes-only entry; a later store
            # keeps the value already there.
            assert service.store(snapshot, key, entry("a", 300))
            assert not service.store(snapshot, key, entry("a2", 300))
            found = service.lookup(snapshot, key)
        assert found.value == "a" and found.blob(()) == blob
        assert service.cache_info()["current_bytes"] == 300 + len(blob)

    def test_clear_reports_dropped(self, small_windows):
        incremental = IncrementalTara(GenerationConfig(0.02, 0.1))
        incremental.publish([small_windows.window(0)])
        service = TaraService(incremental)
        with service.pin() as snapshot:
            service.store(snapshot, canonical((1,), epoch=1), entry("a"))
            service.store(snapshot, canonical((2,), epoch=1), entry("b"))
            service.store(snapshot, canonical((3,)), entry("free"))
        incremental.publish([small_windows.window(1)])
        # The retired segment reported both scoped entries it dropped.
        assert incremental.retired_entries() == 2
        assert service.cache_info()["entries"] == 1
        assert service.cache_info()["epoch"] == 2

    def test_nonpositive_bound_rejected(self, small_kb):
        with pytest.raises(ValidationError, match="budget"):
            TaraService(small_kb, cache_bytes=0)


class TestSegmentRetirement:
    def test_per_entry_purge_protocol_is_gone(self, small_kb):
        # Scoped entries live in a snapshot's private segment and die
        # with it, in one clear(); nothing purges entry by entry.
        service = TaraService(small_kb)
        with service.pin() as snapshot:
            for owner in (service, snapshot, ByteBudgetLRU(1)):
                assert not hasattr(owner, "purge_scoped_except")
                assert not hasattr(owner, "observe_epoch")

    def test_clear_is_idempotent(self):
        segment = ByteBudgetLRU(1 << 10)
        segment.put((1,), entry("scoped"), 100)
        segment.put((2,), entry("free"), 100)
        assert segment.clear() == 2
        assert segment.clear() == 0

    def test_canonical_home_is_core(self):
        # The entry lives below the service so snapshots can hold it;
        # the old serving-tier import path is gone, not forked.
        assert AnswerEntry.__module__ == "repro.core.cache"
        with pytest.raises(ImportError):
            import repro.service.cache  # noqa: F401
