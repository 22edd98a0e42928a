"""The Q1 row tier: served Q1 bytes equal the explorer's answer, encoded.

A Q1 miss on the wire path is the anchor ruleset plus a join of encoded
rows from the service's row tier (``(rule_id, *windows)`` -> row bytes);
only rows the tier lacks are built and encoded.  The tier is valid on
every snapshot because archived windows never change, so the property
checked everywhere here is byte identity: the served answer equals
``encode_answer_blob("Q1", explorer answer)`` on the pinned snapshot —
at random settings, anchors and spans, across publishes, under a budget
that evicts on every request, and with two services over different
knowledge bases in one process.
"""

from __future__ import annotations

import asyncio
import gzip
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    GenerationConfig,
    IncrementalTara,
    ParameterSetting,
    TrajectoryQuery,
    build_knowledge_base,
)
from repro.core.cache import ENTRY_BASE_COST
from repro.data import PeriodSpec, TransactionDatabase, WindowedDatabase
from repro.serve.gateway import QueryGateway
from repro.serve.protocol import (
    encode_answer_blob,
    encode_request,
    encode_trajectory_row,
)
from repro.service import TaraService, canonicalize
from tests.conftest import random_itemlists

setting_strategy = st.tuples(
    st.floats(min_value=0.02, max_value=0.5),
    st.floats(min_value=0.1, max_value=0.9),
).map(lambda pair: ParameterSetting(*pair))


def query_strategy(window_count):
    """Q1 requests over *window_count* windows, default or explicit spans.

    Explicit spans may name windows past the end (the request resolves
    them away), but always keep one that exists.
    """
    span = st.one_of(
        st.none(),
        st.tuples(
            st.integers(min_value=0, max_value=window_count - 1),
            st.lists(st.integers(min_value=0, max_value=window_count + 1)),
        ).map(lambda pair: PeriodSpec([pair[0], *pair[1]])),
    )
    return st.builds(
        TrajectoryQuery,
        setting=setting_strategy,
        anchor_window=st.integers(min_value=0, max_value=window_count - 1),
        spec=span,
    )


def served_answer(gateway, query, *, accept_gzip=False):
    """The answer bytes of one dispatched request (after ``"answer":``)."""
    kind, payload = encode_request(query)
    headers = {"accept-encoding": "gzip"} if accept_gzip else None

    async def dispatch():
        return await gateway.dispatch_wire(
            "POST",
            f"/v1/query/{kind}",
            json.dumps(payload).encode("utf-8"),
            headers,
        )

    response = asyncio.run(dispatch())
    assert response.status == 200, response.body
    body = response.body
    if dict(response.headers).get("Content-Encoding") == "gzip":
        body = gzip.decompress(body)
    _, answer = body.split(b'"answer":', 1)
    assert answer.endswith(b"}")
    return answer[:-1]


def explorer_blob(service, query):
    """``encode_answer_blob`` of the explorer's answer on the current view."""
    with service.pin() as snapshot:
        canonical = canonicalize(query, snapshot.knowledge_base, snapshot.epoch)
        answer = snapshot.explorer().execute(canonical.resolved)
    return encode_answer_blob("Q1", answer)


#: A row-tier budget a handful of small_kb rows overflow.
ROW_BUDGET = 2000


def row_charges(service, queries):
    """What each distinct row of *queries* costs the row tier."""
    charges = {}
    with service.pin() as snapshot:
        explorer = snapshot.explorer()
        for query in queries:
            resolved = canonicalize(
                query, snapshot.knowledge_base, snapshot.epoch
            ).resolved
            spec = resolved.spec
            for rule_id in explorer.ruleset(
                resolved.setting, resolved.anchor_window
            ):
                row = encode_trajectory_row(explorer.trajectory(rule_id, spec))
                charges[(rule_id, *spec.windows)] = ENTRY_BASE_COST + len(row)
    return charges


@pytest.fixture(scope="module")
def other_kb():
    """A knowledge base over different baskets: same rule ids, other rules."""
    itemlists = random_itemlists(seed=303, count=800, item_count=12, max_len=5)
    db = TransactionDatabase.from_itemlists(itemlists)
    windows = WindowedDatabase.partition_by_count(db, 3)
    return build_knowledge_base(windows, GenerationConfig(0.02, 0.1))


class TestByteIdentity:
    @settings(max_examples=40, deadline=None)
    @given(queries=st.lists(query_strategy(4), min_size=1, max_size=4))
    def test_random_settings_anchors_and_spans(self, small_kb, queries):
        gateway = QueryGateway(TaraService(small_kb), pool_size=2)
        try:
            for query in queries:
                expected = explorer_blob(gateway.service, query)
                assert served_answer(gateway, query) == expected
                # Again, gzip-negotiated: an answer-cache hit now.
                again = served_answer(gateway, query, accept_gzip=True)
                assert again == expected
        finally:
            gateway.aclose()

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_across_publishes(self, small_windows, data):
        incremental = IncrementalTara(GenerationConfig(0.02, 0.1))
        incremental.publish([small_windows.window(0)])
        gateway = QueryGateway(TaraService(incremental), pool_size=2)
        try:
            for window in range(1, small_windows.window_count + 1):
                count = incremental.window_count
                for query in data.draw(
                    st.lists(query_strategy(count), min_size=1, max_size=3)
                ):
                    expected = explorer_blob(gateway.service, query)
                    assert served_answer(gateway, query) == expected
                if window < small_windows.window_count:
                    incremental.publish([small_windows.window(window)])
        finally:
            gateway.aclose()

    @settings(max_examples=15, deadline=None)
    @given(queries=st.lists(query_strategy(4), min_size=2, max_size=5))
    def test_budget_that_evicts_every_request(self, small_kb, queries):
        # Room for a few rows: a Q1 with more rules evicts, and no
        # larger answer entry fits, so requests take the row miss path.
        service = TaraService(small_kb, cache_bytes=ROW_BUDGET)
        gateway = QueryGateway(service, pool_size=2)
        try:
            for query in queries:
                assert served_answer(gateway, query) == explorer_blob(
                    service, query
                )
        finally:
            gateway.aclose()
        rows = service.metrics_snapshot()["rows"]
        charges = row_charges(service, queries)
        assert rows["current_bytes"] <= ROW_BUDGET
        assert rows["entries"] <= len(charges)
        if sum(charges.values()) > ROW_BUDGET:
            assert rows["evictions"] > 0

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_two_services_over_different_kbs(self, small_kb, other_kb, data):
        gateways = [
            QueryGateway(TaraService(small_kb), pool_size=1),
            QueryGateway(TaraService(other_kb), pool_size=1),
        ]
        try:
            for query in data.draw(
                st.lists(query_strategy(3), min_size=1, max_size=4)
            ):
                for gateway in gateways:
                    assert served_answer(gateway, query) == explorer_blob(
                        gateway.service, query
                    )
        finally:
            for gateway in gateways:
                gateway.aclose()


class TestRowTier:
    def test_rows_are_reused_across_settings(self, small_kb):
        service = TaraService(small_kb)
        gateway = QueryGateway(service, pool_size=1)
        spec = PeriodSpec([0, 1, 2, 3])
        loose = TrajectoryQuery(ParameterSetting(0.02, 0.1), 0, spec)
        tight = TrajectoryQuery(ParameterSetting(0.05, 0.3), 0, spec)
        try:
            served_answer(gateway, loose)
            filled = service.metrics_snapshot()["rows"]
            served_answer(gateway, tight)  # a subset of loose's rules
            reused = service.metrics_snapshot()["rows"]
        finally:
            gateway.aclose()
        assert filled["entries"] > 0 and filled["hits"] == 0
        assert reused["entries"] == filled["entries"]
        assert reused["hits"] > 0
        assert reused["misses"] == filled["misses"]

    def test_in_process_execute_never_touches_rows(self, small_kb):
        service = TaraService(small_kb)
        service.trajectories(ParameterSetting(0.02, 0.1), 0)
        assert service.metrics_snapshot()["rows"]["entries"] == 0
