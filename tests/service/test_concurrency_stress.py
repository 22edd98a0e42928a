"""Threaded stress over the paths the R006 contracts now guard.

PR 8 replaced the listener/purge protocol with pinned MVCC snapshots,
so the races worth hammering moved: explorer creation from a cold
snapshot, queries racing *publishes* (each publish installs a new
snapshot and retires the old one when its readers drain), and pin/
release storms against the publisher.  CPython's GIL makes the old
races hard to *force*, so the assertions pin observable outcomes
(equal answers, retire-exactly-once, coherent epochs) rather than
timing.
"""

import asyncio
import json
import threading

import pytest

from repro.core import (
    GenerationConfig,
    IncrementalTara,
    ParameterSetting,
    RecommendQuery,
    TrajectoryQuery,
)
from repro.data import PeriodSpec
from repro.serve.gateway import QueryGateway
from repro.serve.protocol import (
    TRAJECTORIES_HEAD,
    TRAJECTORIES_TAIL,
    encode_answer_blob,
    encode_request,
    encode_trajectory_row,
)
from repro.service import TaraService, canonicalize

SETTING = ParameterSetting(0.05, 0.3)


@pytest.fixture()
def incremental(small_windows):
    inc = IncrementalTara(GenerationConfig(0.02, 0.1))
    inc.publish([small_windows.window(0)])
    return inc


def run_all(threads):
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class TestExplorerCreationRace:
    def test_cold_concurrent_queries_share_one_explorer(self, small_kb):
        service = TaraService(small_kb)
        expected = service.uncached(RecommendQuery(setting=SETTING, window=0))
        results = []
        errors = []

        def client():
            try:
                results.append(service.recommend(SETTING, window=0))
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        run_all([threading.Thread(target=client) for _ in range(16)])
        assert not errors
        assert all(got.region == expected.region for got in results)
        # The snapshot lock makes lazy creation single-shot: every
        # reader of the pinned snapshot reuses one explorer.
        with service.pin() as snapshot:
            assert snapshot.explorer() is snapshot.explorer()


class TestQueriesRacingPublishes:
    def test_explicit_window_answers_survive_epoch_churn(
        self, incremental, small_windows
    ):
        service = TaraService(incremental)
        expected = service.recommend(SETTING, window=0)
        errors = []
        stop = threading.Event()

        def client():
            while not stop.is_set():
                got = service.recommend(SETTING, window=0)
                if got.region != expected.region:
                    errors.append(got)

        clients = [threading.Thread(target=client) for _ in range(4)]
        for thread in clients:
            thread.start()
        try:
            for index in range(1, small_windows.window_count):
                incremental.publish([small_windows.window(index)])
        finally:
            stop.set()
            for thread in clients:
                thread.join()
        assert not errors
        # Every publish installed its snapshot: epochs ended in sync.
        assert service.epoch == incremental.window_count
        assert service.cache_info()["epoch"] == incremental.window_count


class TestPinReleaseStorm:
    def test_concurrent_pins_never_see_a_retired_snapshot(
        self, incremental, small_windows
    ):
        errors = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                try:
                    with incremental.snapshot() as snapshot:
                        if snapshot.retired:
                            errors.append(snapshot.epoch)
                except Exception as error:  # pragma: no cover
                    errors.append(error)

        readers = [threading.Thread(target=reader) for _ in range(8)]
        for thread in readers:
            thread.start()
        try:
            for index in range(1, small_windows.window_count):
                incremental.publish([small_windows.window(index)])
        finally:
            stop.set()
            for thread in readers:
                thread.join()
        assert not errors

    def test_superseded_snapshots_retire_exactly_once(
        self, incremental, small_windows
    ):
        handles = [incremental.snapshot() for _ in range(32)]
        superseded = handles[0].snapshot
        incremental.publish([small_windows.window(1)])
        assert not superseded.retired  # readers still pin it

        run_all(
            [
                threading.Thread(target=handle.release)
                for handle in handles
            ]
        )
        assert superseded.retired
        assert superseded.retire_count == 1
        # Two retirements total: the fixture's epoch-0 snapshot (when
        # the first publish superseded it) and this one.
        stats = incremental.snapshot_stats()
        assert stats["retired_snapshots"] == 2


class TestEntryAttachRace:
    def test_concurrent_attaches_lose_no_variant(self, small_kb):
        # Every thread attaches its own echo's bytes to one shared entry;
        # a lost read-modify-write update would drop some of them.
        import sys

        service = TaraService(small_kb)
        query = RecommendQuery(setting=SETTING, window=0)
        service.execute(query)
        workers, rounds = 8, 25
        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with service.pin() as snapshot:
                canonical = canonicalize(
                    query, snapshot.knowledge_base, snapshot.epoch
                )

                def attacher(worker):
                    for step in range(rounds):
                        echo = (float(worker), float(step))
                        service.attach(
                            snapshot,
                            canonical,
                            lambda entry: entry.with_blob(echo, b"x"),
                        )

                threads = [
                    threading.Thread(target=attacher, args=(worker,))
                    for worker in range(workers)
                ]
                run_all(threads)
                for thread in threads:
                    thread.join(timeout=30.0)
                    assert not thread.is_alive()
                entry = service.lookup(snapshot, canonical)
        finally:
            sys.setswitchinterval(saved)
        assert entry is not None
        assert len(entry.blobs) == workers * rounds
        assert service.cache_info()["current_bytes"] == entry.cost


class TestRowFillsFromPoolThreads:
    """Q1 row-tier fills and evictions racing on the gateway's pool."""

    def test_concurrent_q1_misses_serve_the_explorer_bytes(self, small_kb):
        import sys

        # A budget a few rows overflow: fills race evictions.
        service = TaraService(small_kb, cache_bytes=4096)
        gateway = QueryGateway(service, pool_size=4)
        queries = [
            TrajectoryQuery(
                setting=ParameterSetting(
                    0.02 + 0.01 * (i % 4), 0.1 + 0.1 * (i % 3)
                ),
                anchor_window=i % small_kb.window_count,
                spec=PeriodSpec(range(i % 3, small_kb.window_count)),
            )
            for i in range(48)
        ]
        expected = [
            encode_answer_blob("Q1", service.uncached(query))
            for query in queries
        ]

        async def burst():
            requests = []
            for query in queries:
                kind, payload = encode_request(query)
                requests.append(
                    gateway.dispatch_wire(
                        "POST",
                        f"/v1/query/{kind}",
                        json.dumps(payload).encode("utf-8"),
                    )
                )
            return await asyncio.gather(*requests)

        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            responses = asyncio.run(burst())
        finally:
            sys.setswitchinterval(saved)
            gateway.aclose()
        for response, blob in zip(responses, expected):
            assert response.status == 200
            assert response.body.split(b'"answer":', 1)[1] == blob + b"}"
        rows = service.metrics_snapshot()["rows"]
        assert rows["misses"] > 0 and rows["evictions"] > 0
        assert rows["current_bytes"] <= 4096

    def test_row_reads_race_publishes(self, incremental, small_windows):
        service = TaraService(incremental)
        query = TrajectoryQuery(
            setting=ParameterSetting(0.02, 0.1),
            anchor_window=0,
            spec=PeriodSpec([0]),
        )
        expected = encode_answer_blob("Q1", service.uncached(query))
        errors = []
        stop = threading.Event()

        def client():
            while not stop.is_set():
                with service.pin() as snapshot:
                    rows = service.execute_on(
                        snapshot, query, encode_row=encode_trajectory_row
                    )
                blob = TRAJECTORIES_HEAD + rows + TRAJECTORIES_TAIL
                if blob != expected:
                    errors.append(blob)

        clients = [threading.Thread(target=client) for _ in range(4)]
        for thread in clients:
            thread.start()
        try:
            for index in range(1, small_windows.window_count):
                incremental.publish([small_windows.window(index)])
        finally:
            stop.set()
            for thread in clients:
                thread.join()
        assert not errors
        # Explicit windows are immutable: every epoch reused one row set.
        rows = service.metrics_snapshot()["rows"]
        assert rows["hits"] > 0
        assert rows["entries"] == len(json.loads(expected)["trajectories"])
