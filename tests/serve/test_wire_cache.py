"""End-to-end wire-hot path: chunking, gzip, ETags, the byte cache.

Everything here talks to a real :class:`TaraServer` over a real socket
through :class:`ServeClient` — chunked reassembly, content negotiation,
and conditional requests are exercised exactly as an external client
would see them.
"""

from __future__ import annotations

import asyncio
import gzip
import json
import threading

import pytest

from repro.common.errors import ValidationError
from repro.core import (
    GenerationConfig,
    IncrementalTara,
    ParameterSetting,
    RecommendQuery,
    TrajectoryQuery,
)
from repro.serve import auto_pool_size, resolve_pool_size
from repro.serve.client import ServeClient
from repro.serve.gateway import GZIP_MIN_BYTES, QueryGateway
from repro.serve.protocol import encode_request
from repro.service import TaraService

SETTING = ParameterSetting(min_support=0.02, min_confidence=0.1)
QUERY = TrajectoryQuery(setting=SETTING, anchor_window=0)


def wire(query):
    kind, payload = encode_request(query)
    return f"/v1/query/{kind}", payload


async def connect(server):
    host, port = server.address
    return await ServeClient.open(host, port)


class TestChunkedStreaming:
    def test_large_body_streams_and_reassembles(
        self, small_kb, running_server, monkeypatch
    ):
        # Force streaming for any realistic body size, then check the
        # reassembled bytes are exactly the non-streamed ones.
        import repro.serve.gateway as gateway

        target, payload = wire(QUERY)

        async def scenario():
            async with running_server(small_kb) as server:
                client = await connect(server)
                monkeypatch.setattr(gateway, "STREAM_THRESHOLD", 256)
                status, headers, chunked_body = await client.exchange(
                    "POST", target, payload
                )
                assert status == 200
                assert headers.get("transfer-encoding") == "chunked"
                assert "content-length" not in headers
                monkeypatch.setattr(gateway, "STREAM_THRESHOLD", 1 << 30)
                status, headers, plain_body = await client.exchange(
                    "POST", target, payload
                )
                assert status == 200
                assert "transfer-encoding" not in headers
                assert int(headers["content-length"]) == len(plain_body)
                await client.aclose()
                return chunked_body, plain_body

        chunked_body, plain_body = asyncio.run(scenario())
        first = json.loads(chunked_body)
        second = json.loads(plain_body)
        assert first["answer"] == second["answer"]
        # Chunked transfer framing must be invisible to the payload:
        # same bytes after the envelope's per-request cached flag.
        assert chunked_body.split(b'"answer":', 1)[1] == plain_body.split(
            b'"answer":', 1
        )[1]


class TestResponseCacheOnTheWire:
    def test_second_request_is_served_from_cache(
        self, small_kb, running_server
    ):
        target, payload = wire(QUERY)

        async def scenario():
            async with running_server(small_kb) as server:
                client = await connect(server)
                _, _, first = await client.exchange("POST", target, payload)
                _, _, second = await client.exchange("POST", target, payload)
                _, metrics = await client.metrics()
                await client.aclose()
                return first, second, metrics

        first, second, metrics = asyncio.run(scenario())
        assert json.loads(first)["cached"] is False
        assert json.loads(second)["cached"] is True
        assert json.loads(first)["answer"] == json.loads(second)["answer"]
        respcache = metrics["metrics"]["respcache"]
        assert respcache["hits"] == 1
        assert respcache["misses"] == 1
        assert respcache["stores"] == 1
        assert respcache["bytes_served"] > 0

    def test_tiny_budget_rejects_and_reencodes(
        self, small_kb, running_server
    ):
        target, payload = wire(QUERY)

        async def scenario():
            async with running_server(
                small_kb, response_cache_bytes=128
            ) as server:
                client = await connect(server)
                _, _, first = await client.exchange("POST", target, payload)
                _, _, second = await client.exchange("POST", target, payload)
                _, metrics = await client.metrics()
                await client.aclose()
                return first, second, metrics

        first, second, metrics = asyncio.run(scenario())
        # The body never fits, so nothing is ever served from cache …
        assert json.loads(second)["cached"] is False
        respcache = metrics["metrics"]["respcache"]
        assert respcache["rejected"] >= 1
        assert respcache["hits"] == 0
        # … but the answers are still correct.
        assert json.loads(first)["answer"] == json.loads(second)["answer"]


class TestGzipNegotiation:
    def test_round_trip_and_cached_variant(self, small_kb, running_server):
        target, payload = wire(QUERY)

        async def scenario():
            async with running_server(small_kb) as server:
                client = await connect(server)
                # Cold miss: compressed under its own (uncached) envelope.
                _, cold_headers, cold = await client.exchange(
                    "POST", target, payload, accept_gzip=True
                )
                # Warm hit: compressed variant, created once.
                _, warm_headers, warm_raw = await client.exchange(
                    "POST", target, payload, accept_gzip=True,
                    decompress=False,
                )
                _, _, repeat_raw = await client.exchange(
                    "POST", target, payload, accept_gzip=True,
                    decompress=False,
                )
                _, metrics = await client.metrics()
                await client.aclose()
                return cold_headers, cold, warm_headers, warm_raw, \
                    repeat_raw, metrics

        cold_headers, cold, warm_headers, warm_raw, repeat_raw, metrics = (
            asyncio.run(scenario())
        )
        assert cold_headers.get("content-encoding") == "gzip"
        assert json.loads(cold)["cached"] is False
        assert warm_headers.get("content-encoding") == "gzip"
        assert warm_headers.get("vary") == "Accept-Encoding"
        warm = json.loads(gzip.decompress(warm_raw))
        assert warm["cached"] is True
        assert warm["answer"] == json.loads(cold)["answer"]
        # Deterministic compression: the repeat body is byte-identical,
        # and the variant was compressed exactly once.
        assert repeat_raw == warm_raw
        assert metrics["metrics"]["respcache"]["gzip_variants"] == 1

    def test_gzip_not_served_when_not_accepted(
        self, small_kb, running_server
    ):
        target, payload = wire(QUERY)

        async def scenario():
            async with running_server(small_kb) as server:
                client = await connect(server)
                await client.exchange(
                    "POST", target, payload, accept_gzip=True
                )
                await client.exchange(
                    "POST", target, payload, accept_gzip=True
                )  # creates the variant
                _, headers, body = await client.exchange(
                    "POST", target, payload
                )
                await client.aclose()
                return headers, body

        headers, body = asyncio.run(scenario())
        assert "content-encoding" not in headers
        assert json.loads(body)["cached"] is True


class TestGzipOnMiss:
    def test_miss_gunzips_to_the_identity_bytes(self, small_kb):
        gateway = QueryGateway(TaraService(small_kb), pool_size=1)
        kind, payload = encode_request(QUERY)
        body = json.dumps(payload).encode("utf-8")

        zipped = asyncio.run(
            gateway.dispatch_wire(
                "POST", f"/v1/query/{kind}", body, {"accept-encoding": "gzip"}
            )
        )
        # The identity reference is a cold miss too (same envelope).
        fresh = QueryGateway(TaraService(small_kb), pool_size=1)
        plain = asyncio.run(
            fresh.dispatch_wire("POST", f"/v1/query/{kind}", body)
        )
        gateway.aclose()
        fresh.aclose()
        headers = dict(zipped.headers)
        assert headers["Content-Encoding"] == "gzip"
        assert headers["Vary"] == "Accept-Encoding"
        assert headers["ETag"] == dict(plain.headers)["ETag"]
        assert len(plain.body) >= GZIP_MIN_BYTES
        assert gzip.decompress(zipped.body) == plain.body
        assert json.loads(plain.body)["cached"] is False

    def test_coalesced_follower_compresses_its_own_envelope(self, small_kb):
        service = TaraService(small_kb)
        gateway = QueryGateway(service, pool_size=2)
        started, release = threading.Event(), threading.Event()
        original = service.execute_on

        def gated_execute(snapshot, query, canonical=None, **options):
            started.set()
            release.wait(timeout=5.0)
            return original(snapshot, query, canonical, **options)

        service.execute_on = gated_execute  # instance shadow, test-only
        kind, payload = encode_request(QUERY)
        body = json.dumps(payload).encode("utf-8")

        async def scenario():
            tasks = [
                asyncio.create_task(
                    gateway.dispatch_wire(
                        "POST",
                        f"/v1/query/{kind}",
                        body,
                        {"accept-encoding": "gzip"},
                    )
                )
                for _ in range(2)
            ]
            await asyncio.get_running_loop().run_in_executor(
                None, started.wait, 5.0
            )
            while gateway.coalescer.hits < 1:
                await asyncio.sleep(0)
            release.set()
            return await asyncio.gather(*tasks)

        responses = asyncio.run(scenario())
        gateway.aclose()
        assert all(
            dict(r.headers)["Content-Encoding"] == "gzip" for r in responses
        )
        envelopes = [json.loads(gzip.decompress(r.body)) for r in responses]
        assert sorted(e["coalesced"] for e in envelopes) == [False, True]
        assert envelopes[0]["answer"] == envelopes[1]["answer"]

    def test_below_threshold_body_stays_identity(self, small_kb):
        gateway = QueryGateway(TaraService(small_kb), pool_size=1)
        # A setting no rule meets: the smallest Q1 body there is.
        query = TrajectoryQuery(
            setting=ParameterSetting(0.99, 0.99), anchor_window=0
        )
        kind, payload = encode_request(query)
        response = asyncio.run(
            gateway.dispatch_wire(
                "POST",
                f"/v1/query/{kind}",
                json.dumps(payload).encode("utf-8"),
                {"accept-encoding": "gzip"},
            )
        )
        gateway.aclose()
        assert response.status == 200
        assert len(response.body) < GZIP_MIN_BYTES
        assert "Content-Encoding" not in dict(response.headers)
        assert json.loads(response.body)["answer"] == {"trajectories": []}


class TestGzipEnvelopeAfterPublish:
    def test_epoch_free_variant_names_the_pinned_snapshot(self, small_windows):
        # An explicit-window key survives publishes; its gzip variant is a
        # complete body with the minting snapshot's epoch baked in, so it
        # must not be replayed to a request pinned to a later snapshot.
        incremental = IncrementalTara(GenerationConfig(0.02, 0.1))
        incremental.publish([small_windows.window(0), small_windows.window(1)])
        gateway = QueryGateway(TaraService(incremental), pool_size=1)
        target, payload = wire(RecommendQuery(setting=SETTING, window=0))
        body = json.dumps(payload).encode("utf-8")
        accept = {"accept-encoding": "gzip"}

        async def both_encodings():
            seen = []
            for headers in (accept, accept, None):
                response = await gateway.dispatch_wire(
                    "POST", target, body, headers
                )
                raw = response.body
                if dict(response.headers).get("Content-Encoding") == "gzip":
                    raw = gzip.decompress(raw)
                seen.append(json.loads(raw))
            return seen

        before = asyncio.run(both_encodings())
        incremental.publish([small_windows.window(2)])
        after = asyncio.run(both_encodings())
        gateway.aclose()
        assert [e["snapshot_epoch"] for e in before] == [2, 2, 2]
        assert [e["snapshot_epoch"] for e in after] == [3, 3, 3]
        assert [e["epoch"] for e in after] == [3, 3, 3]
        assert all(e["answer"] == before[0]["answer"] for e in before + after)


class TestConditionalRequests:
    def test_etag_round_trip_yields_304(self, small_kb, running_server):
        target, payload = wire(QUERY)

        async def scenario():
            async with running_server(small_kb) as server:
                client = await connect(server)
                _, headers, _ = await client.exchange(
                    "POST", target, payload
                )
                etag = headers["etag"]
                status, cond_headers, body = await client.exchange(
                    "POST", target, payload, if_none_match=etag
                )
                status_star, _, _ = await client.exchange(
                    "POST", target, payload, if_none_match='"nope", *'
                )
                _, metrics = await client.metrics()
                await client.aclose()
                return etag, status, cond_headers, body, status_star, metrics

        etag, status, cond_headers, body, status_star, metrics = asyncio.run(
            scenario()
        )
        assert etag.startswith('W/"')
        assert status == 304 and body == b""
        assert cond_headers.get("etag") == etag
        assert status_star == 304  # '*' matches any representation
        assert metrics["metrics"]["respcache"]["not_modified"] == 2

    def test_stale_etag_gets_full_answer(self, small_kb, running_server):
        target, payload = wire(QUERY)

        async def scenario():
            async with running_server(small_kb) as server:
                client = await connect(server)
                await client.exchange("POST", target, payload)
                status, _, body = await client.exchange(
                    "POST", target, payload, if_none_match='W/"deadbeef"'
                )
                await client.aclose()
                return status, body

        status, body = asyncio.run(scenario())
        assert status == 200
        assert json.loads(body)["ok"] is True


class TestPoolSizing:
    def test_auto_resolves_to_cpu_count(self):
        assert resolve_pool_size("auto") == auto_pool_size()
        assert auto_pool_size() >= 1

    def test_explicit_counts_pass_through(self):
        assert resolve_pool_size(3) == 3
        assert resolve_pool_size("5") == 5

    @pytest.mark.parametrize("bad", ["0", "-2", "many", "", "1.5"])
    def test_invalid_sizes_rejected(self, bad):
        with pytest.raises(ValidationError, match="pool"):
            resolve_pool_size(bad)
