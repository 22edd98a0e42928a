"""The encoded-bytes side of the unified answer-cache entry.

Encoded answers are attached to the service's one cache entry per region
key (:class:`repro.core.cache.AnswerEntry`): an identity blob per echo
tag and a gzip variant per echo tag, charged to the same byte budget as
the frozen answer and retired with the snapshot that scoped them.  These
tests drive :meth:`QueryGateway.dispatch_wire` in-process (no sockets)
and read the entry and the ``respcache`` counters back.
"""

from __future__ import annotations

import asyncio
import gzip
import json

import pytest

from repro.common.errors import ValidationError
from repro.core import (
    GenerationConfig,
    IncrementalTara,
    ParameterSetting,
    RecommendQuery,
    TrajectoryQuery,
)
from repro.core.cache import ENTRY_BASE_COST, AnswerEntry, answer_cost
from repro.serve import ServeConfig, TaraServer
from repro.serve.gateway import QueryGateway
from repro.serve.protocol import encode_request
from repro.service import TaraService, canonicalize
from repro.service.keys import echo_tag
from tests.service.conftest import same_region_setting

SETTING = ParameterSetting(min_support=0.03, min_confidence=0.2)
GZIP = {"accept-encoding": "gzip"}


def serve(gateway, queries):
    """Dispatch *queries* (``(query, headers)`` pairs) in order."""

    async def scenario():
        responses = []
        for query, headers in queries:
            kind, payload = encode_request(query)
            responses.append(
                await gateway.dispatch_wire(
                    "POST",
                    f"/v1/query/{kind}",
                    json.dumps(payload).encode("utf-8"),
                    headers,
                )
            )
        return responses

    return asyncio.run(scenario())


def entry_of(service, query):
    """The cache entry *query* canonicalizes to on the current snapshot."""
    with service.pin() as snapshot:
        canonical = canonicalize(query, snapshot.knowledge_base, snapshot.epoch)
        return service.lookup(snapshot, canonical)


def envelope(response):
    body = response.body
    if dict(response.headers).get("Content-Encoding") == "gzip":
        body = gzip.decompress(body)
    return json.loads(body)


@pytest.fixture()
def gateway(small_kb):
    gateway = QueryGateway(TaraService(small_kb), pool_size=1)
    yield gateway
    gateway.aclose()


@pytest.fixture()
def publisher(small_windows):
    incremental = IncrementalTara(GenerationConfig(0.02, 0.1))
    incremental.publish([small_windows.window(0), small_windows.window(1)])
    return incremental


class TestLookup:
    def test_miss_then_hit(self, gateway):
        query = TrajectoryQuery(setting=SETTING, anchor_window=0)
        first, second = serve(gateway, [(query, None), (query, None)])
        assert envelope(first)["cached"] is False
        assert envelope(second)["cached"] is True
        assert second.body == first.body.replace(
            b'"cached":false', b'"cached":true', 1
        )
        counters = gateway.cache_counters()
        assert counters["hits"] == 1 and counters["misses"] == 1

    def test_echo_tag_distinguishes_entries(self, gateway, small_kb):
        # Two settings in one stable region share the entry (one value)
        # but not the bytes: each answer echoes its own raw floats.
        first = RecommendQuery(setting=SETTING, window=0)
        twin = same_region_setting(small_kb, SETTING)
        assert twin != SETTING
        second = RecommendQuery(setting=twin, window=0)
        responses = serve(
            gateway, [(first, None), (second, None), (first, None)]
        )
        assert [envelope(r)["cached"] for r in responses] == [
            False, False, True,
        ]
        assert envelope(responses[1])["answer"]["setting"] == {
            "minsupp": twin.min_support,
            "minconf": twin.min_confidence,
        }
        assert envelope(responses[2])["answer"] == envelope(responses[0])["answer"]
        entry = entry_of(gateway.service, first)
        assert entry is entry_of(gateway.service, second)
        assert {tag for tag, _ in entry.blobs} == {
            echo_tag(first), echo_tag(second),
        }
        assert gateway.service.metrics.hits["Q3"] == 1  # value shared

    def test_gzip_preferred_when_accepted(self, gateway):
        query = TrajectoryQuery(setting=SETTING, anchor_window=0)
        _, zipped, plain = serve(
            gateway, [(query, None), (query, GZIP), (query, None)]
        )
        assert dict(zipped.headers)["Content-Encoding"] == "gzip"
        assert "Content-Encoding" not in dict(plain.headers)
        assert envelope(zipped) == envelope(plain)

    def test_identity_fallback_counts_one_hit(self, gateway):
        query = TrajectoryQuery(setting=SETTING, anchor_window=0)
        serve(gateway, [(query, None)])
        (zipped,) = serve(gateway, [(query, GZIP)])  # no variant yet
        assert dict(zipped.headers)["Content-Encoding"] == "gzip"
        counters = gateway.cache_counters()
        assert counters["hits"] == 1 and counters["misses"] == 1
        assert counters["gzip_variants"] == 1

    def test_gzip_variant_counter_counts_new_entries_once(self, gateway):
        query = TrajectoryQuery(setting=SETTING, anchor_window=0)
        responses = serve(gateway, [(query, None)] + [(query, GZIP)] * 3)
        assert gateway.cache_counters()["gzip_variants"] == 1
        assert responses[1].body == responses[2].body == responses[3].body
        assert len(entry_of(gateway.service, query).gzipped) == 1


class TestBudget:
    def test_eviction_is_least_recently_served(self, small_kb):
        queries = [RecommendQuery(setting=SETTING, window=w) for w in range(3)]
        costs = []
        for query in queries:
            probe = QueryGateway(TaraService(small_kb), pool_size=1)
            serve(probe, [(query, None)])
            costs.append(entry_of(probe.service, query).cost)
            probe.aclose()
        # Room for the first entry plus either of the other two.
        budget = costs[0] + max(costs[1], costs[2])
        gateway = QueryGateway(
            TaraService(small_kb, cache_bytes=budget), pool_size=1
        )
        serve(gateway, [(queries[0], None), (queries[1], None)])
        serve(gateway, [(queries[0], None)])  # refresh the oldest
        serve(gateway, [(queries[2], None)])  # forces an eviction
        gateway.aclose()
        assert gateway.cache_counters()["evictions"] == 1
        assert entry_of(gateway.service, queries[1]) is None  # evicted
        assert entry_of(gateway.service, queries[0]) is not None

    def test_byte_accounting(self, gateway):
        query = TrajectoryQuery(setting=SETTING, anchor_window=0)
        (response,) = serve(gateway, [(query, None)])
        entry = entry_of(gateway.service, query)
        blob = entry.blob(())
        assert blob is not None and blob in response.body
        assert entry.cost == entry.value_cost + len(blob)
        assert gateway.cache_counters()["current_bytes"] == entry.cost
        serve(gateway, [(query, GZIP)])
        grown = entry_of(gateway.service, query)
        ((_, prefix, body),) = grown.gzipped
        assert grown.cost == entry.cost + len(prefix) + len(body)
        counters = gateway.cache_counters()
        assert counters["current_bytes"] == grown.cost
        assert counters["peak_bytes"] >= grown.cost

    def test_oversize_body_rejected(self, small_kb):
        gateway = QueryGateway(TaraService(small_kb, cache_bytes=64), pool_size=1)
        query = TrajectoryQuery(setting=SETTING, anchor_window=0)
        first, second = serve(gateway, [(query, None), (query, None)])
        gateway.aclose()
        counters = gateway.cache_counters()
        assert counters["rejected"] >= 1
        assert counters["entries"] == 0 and counters["current_bytes"] == 0
        assert envelope(second)["cached"] is False
        assert envelope(second)["answer"] == envelope(first)["answer"]

    def test_budget_must_be_positive(self, small_kb):
        with pytest.raises(ValidationError, match="budget"):
            TaraService(small_kb, cache_bytes=0)
        with pytest.raises(ValidationError, match="response_cache_bytes"):
            ServeConfig(response_cache_bytes=0)
        # The budget belongs to the service; a server never ignores it.
        with pytest.raises(ValidationError, match="cache_bytes=1024"):
            TaraServer(
                TaraService(small_kb, cache_bytes=1024),
                ServeConfig(port=0, response_cache_bytes=2048),
            )


class TestBytesOnlyEntries:
    def test_wire_q1_entry_is_charged_for_its_bytes(self, gateway):
        query = TrajectoryQuery(setting=SETTING, anchor_window=0)
        serve(gateway, [(query, None)])
        entry = entry_of(gateway.service, query)
        blob = entry.blob(())
        assert entry.value is None and blob is not None
        assert entry.cost == ENTRY_BASE_COST + len(blob)
        frozen = tuple(gateway.service.uncached(query))
        assert entry.cost < answer_cost("Q1", frozen) + len(blob)

    def test_execute_after_wire_q1_returns_the_explorer_answer(self, gateway):
        service = gateway.service
        query = TrajectoryQuery(setting=SETTING, anchor_window=0)
        serve(gateway, [(query, None)])
        blob = entry_of(service, query).blob(())
        misses = service.metrics.misses["Q1"]
        assert service.execute(query) == service.uncached(query)
        assert service.metrics.misses["Q1"] == misses + 1  # a value miss
        entry = entry_of(service, query)
        assert entry.value is not None and entry.blob(()) == blob
        assert entry.cost == entry.value_cost + len(blob)
        assert service.execute(query) == service.uncached(query)
        assert service.metrics.hits["Q1"] == 1
        # The wire keeps serving the bytes it attached.
        (again,) = serve(gateway, [(query, None)])
        assert envelope(again)["cached"] is True


class TestEpochRetirement:
    def test_other_epochs_purged_current_kept(self, publisher, small_windows):
        gateway = QueryGateway(TaraService(publisher), pool_size=1)
        scoped = TrajectoryQuery(setting=SETTING, anchor_window=0)  # spec=None
        serve(gateway, [(scoped, None)])
        old = entry_of(gateway.service, scoped)
        publisher.publish([small_windows.window(2)])  # old snapshot drains
        serve(gateway, [(scoped, None), (scoped, None)])
        gateway.aclose()
        new = entry_of(gateway.service, scoped)
        assert new is not None and new is not old
        # A wire Q1 entry is bytes-only; its rows report all 3 windows.
        rows = json.loads(new.blob(()))["trajectories"]
        assert new.value is None
        assert rows and {len(row["measures"]) for row in rows} == {3}
        assert publisher.snapshot_stats()["retired_entries"] == 1
        assert gateway.cache_counters()["hits"] == 1  # at the new epoch

    def test_epoch_free_entries_survive(self, publisher, small_windows):
        gateway = QueryGateway(TaraService(publisher), pool_size=1)
        explicit = RecommendQuery(setting=SETTING, window=0)
        scoped = RecommendQuery(setting=SETTING)  # latest window
        serve(gateway, [(explicit, None), (scoped, None)])
        publisher.publish([small_windows.window(2)])
        assert entry_of(gateway.service, explicit) is not None
        assert entry_of(gateway.service, scoped) is None
        (again,) = serve(gateway, [(explicit, None)])
        gateway.aclose()
        assert envelope(again)["cached"] is True
        assert envelope(again)["snapshot_epoch"] == 3

    def test_purge_drops_gzip_variant_with_its_epoch(
        self, publisher, small_windows
    ):
        gateway = QueryGateway(TaraService(publisher), pool_size=1)
        scoped = TrajectoryQuery(setting=SETTING, anchor_window=0)
        serve(gateway, [(scoped, None), (scoped, GZIP)])
        assert len(entry_of(gateway.service, scoped).gzipped) == 1
        publisher.publish([small_windows.window(2)])
        gateway.aclose()
        counters = gateway.cache_counters()
        assert counters["entries"] == 0 and counters["current_bytes"] == 0
        assert publisher.snapshot_stats()["retired_entries"] == 1

    def test_observe_same_epoch_is_noop(self, publisher):
        # Pinning the same snapshot again and again retires nothing.
        gateway = QueryGateway(TaraService(publisher), pool_size=1)
        scoped = TrajectoryQuery(setting=SETTING, anchor_window=0)
        serve(gateway, [(scoped, None)] * 3)
        gateway.aclose()
        assert entry_of(gateway.service, scoped) is not None
        assert gateway.cache_counters()["hits"] == 2
        assert publisher.snapshot_stats()["retired_entries"] == 0


class TestCounters:
    def test_counter_snapshot_keys(self, gateway):
        query = TrajectoryQuery(setting=SETTING, anchor_window=0)
        responses = serve(gateway, [(query, None), (query, None)])
        counters = gateway.cache_counters()
        assert counters["entries"] == 1
        assert counters["stores"] == 1
        assert counters["bytes_served"] == len(entry_of(gateway.service, query).blob(()))
        assert counters["not_modified"] == 0
        assert isinstance(entry_of(gateway.service, query), AnswerEntry)
        assert all(response.status == 200 for response in responses)
        assert set(counters) == {
            "entries",
            "budget_bytes",
            "current_bytes",
            "peak_bytes",
            "hits",
            "misses",
            "stores",
            "evictions",
            "rejected",
            "gzip_variants",
            "bytes_served",
            "not_modified",
        }
