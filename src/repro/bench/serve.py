"""``repro bench-serve`` — the network-tier load harness.

Measures what a client actually sees through the socket: every cell of
the (dataset x query class x concurrency) matrix boots a fresh
:class:`repro.serve.TaraServer` on an ephemeral port, connects
``concurrency`` persistent clients, and drives an identical-request
workload through them:

round 1 (cold)
    all clients fire the same query concurrently at a cold cache — the
    window where request coalescing must collapse the burst into one
    execution (and the leader's encoded bytes populate the response
    cache); answers come back identity-coded and chunk-streamed;
variant warm-up (untimed)
    one gzip-accepting request compresses the cached body once and
    stores the pre-compressed variant — a one-time cost that parallels
    the cold miss, kept out of the steady-state numbers;
rounds 2+ (warm)
    each client re-issues the query until the cell's request budget is
    spent.  Clients advertise ``Accept-Encoding: gzip`` (as real HTTP
    clients do), so the wire-hot path measured here is one response-
    cache probe plus a pre-compressed byte splice — no re-encode, no
    re-compress (reported separately as ``warm_*``; the uncompressed
    cache hit is sampled after the workload as ``warm_identity_p50_
    ms``).

After the measured workload the harness exercises the negotiation
surface: a repeat gzip request that must come from the cached variant
without re-compressing (the variant counter must not move), and a
conditional request with the response's ``ETag`` that must answer 304
with an empty body.

Before anything is written the harness verifies every served body
byte-for-byte against a direct, cache-bypassing
:meth:`repro.service.TaraService.uncached` execution encoded through
:func:`repro.serve.protocol.encode_answer_blob` — identity bodies
directly, gzip bodies by gunzipping one (compression is deterministic:
fixed level, zeroed mtime, rule R005) and requiring the rest to be
byte-identical to it — and asserts the workload produced coalesce hits
*and* response-cache hits.  All verification runs after the clocks
stop, so multi-megabyte compares never inflate a concurrent request's
measured latency.  A bench that measured a broken server aborts
instead of recording a lie.

**The PR 10 gate.**  The PR 7 seed served warm Q1 at p50 ≈ 420 ms
(>99% of it re-encoding ~20k rows per request); the response cache
must bring the warm served Q1 p50 to single-digit milliseconds — at
least 50× better than the seed, enforced per dataset at the lowest
measured concurrency.

Schema of ``BENCH_serve.json`` (``repro-bench-serve/2``)
========================================================

``schema``
    The literal string ``"repro-bench-serve/2"``.
``version`` / ``quick`` / ``host`` / ``pool_size``
    As in the sibling artefacts (no wall date — rule R005);
    ``pool_size`` is the resolved thread count (default: one per CPU).
``gate``
    The enforced thresholds: ``{"warm_q1_p50_ms_max", "seed_warm_q1_
    p50_ms", "improvement_floor"}``.
``results``
    One object per (dataset, query class, concurrency) cell::

        {"dataset", "query_class",        # "Q1" | "Q2" | "Q3" | "Q5"
         "concurrency", "requests",       # clients, measured requests
         "p50_ms", "p95_ms", "p99_ms",    # all measured requests
         "cold_p50_ms",                   # the coalescing burst
         "warm_p50_ms", "warm_p95_ms", "warm_p99_ms",   # gzip-negotiated
         "warm_identity_p50_ms",          # uncompressed cache-hit sample
         "inproc_warm_ms",                # in-process warm reference
         "rps",                           # requests / cell wall seconds
         "coalesce_executions", "coalesce_hits",
         "respcache_hits", "respcache_misses", "respcache_hit_rate",
         "bytes_served",                  # body bytes served from cache
         "not_modified",                  # 304 conditional answers
         "body_bytes",                    # identity body size
         "gzip_bytes",                    # compressed variant size
         "verified": true}                # identity+gzip+304 verified

``build_seconds``
    Per-dataset offline build wall time, for context.
"""

from __future__ import annotations

import argparse
import asyncio
import gzip
import json
import os
import platform
from typing import Any, Dict, List, Set, Tuple

from repro._version import __version__
from repro.bench.online import _build, _cell_queries
from repro.bench.workloads import _WORKLOADS, online_settings, select_datasets
from repro.common.errors import ValidationError
from repro.common.stats import percentile
from repro.common.timing import stopwatch
from repro.core import ExplorerQuery, ParameterSetting, TaraKnowledgeBase
from repro.serve.client import ServeClient
from repro.serve.gateway import resolve_pool_size
from repro.serve.protocol import (
    encode_answer_blob,
    encode_request,
    envelope_prefix,
)
from repro.serve.server import ServeConfig, TaraServer
from repro.service.service import TaraService

SCHEMA = "repro-bench-serve/2"
DEFAULT_OUT = "BENCH_serve.json"

#: Concurrency levels per matrix mode (the spec requires at least two).
QUICK_CONCURRENCY: Tuple[int, ...] = (2, 8)
FULL_CONCURRENCY: Tuple[int, ...] = (4, 16)

#: Total requests per cell per matrix mode.
QUICK_REQUESTS = 24
FULL_REQUESTS = 64

#: The PR 7 seed's warm served Q1 p50 (ms) and the required improvement.
SEED_WARM_Q1_P50_MS = 420.75
IMPROVEMENT_FLOOR = 50

#: Gate: warm served Q1 p50 must stay below seed / floor (~8.4 ms).
WARM_Q1_P50_GATE_MS = SEED_WARM_Q1_P50_MS / IMPROVEMENT_FLOOR


async def _run_cell(
    knowledge_base: TaraKnowledgeBase,
    query_class: str,
    query: ExplorerQuery,
    *,
    concurrency: int,
    requests: int,
    pool_size: int,
) -> Dict[str, Any]:
    """Serve one cell through a fresh server; returns the result row."""
    service = TaraService(knowledge_base)
    server = TaraServer(service, ServeConfig(port=0, pool_size=pool_size))
    await server.start()
    host, port = server.address
    clients = [
        await ServeClient.open(host, port) for _ in range(concurrency)
    ]
    kind, payload = encode_request(query)
    target = f"/v1/query/{kind}"
    # The reference bytes every served body must end with: a fresh,
    # cache-bypassing execution through the same canonical encoder.
    answer_tail = (
        b'"answer":' + encode_answer_blob(query_class, service.uncached(query))
        + b"}"
    )
    cold: List[float] = []
    warm: List[float] = []
    identity_warm: List[float] = []
    # (headers, raw body) of every exchange, verified AFTER the clocks
    # stop — gunzip and multi-megabyte compares would otherwise inflate
    # the latency of whatever other request is in flight.
    observed: List[Tuple[Dict[str, str], bytes]] = []

    async def one(
        client: ServeClient,
        bucket: List[float],
        *,
        accept_gzip: bool = True,
    ) -> None:
        with stopwatch() as clock:
            status, headers, raw = await client.exchange(
                "POST",
                target,
                payload,
                accept_gzip=accept_gzip,
                decompress=False,
            )
        if status != 200:
            raise ValidationError(
                f"{query_class} request failed with HTTP {status}: "
                f"{raw[:200]!r}"
            )
        bucket.append(clock.seconds)
        observed.append((dict(headers), raw))

    per_client = max(requests // concurrency, 2)

    async def drive(client: ServeClient) -> None:
        # Rounds 2+: the wire-hot warm path, measured per request.  The
        # clients advertise gzip (as real HTTP clients do), so after the
        # warm-up these are served from the pre-compressed variant.
        for _ in range(per_client - 1):
            await one(client, warm)

    def check_identity(raw: bytes) -> None:
        if not raw.startswith(b'{"ok":true') or not raw.endswith(answer_tail):
            raise ValidationError(
                f"served {query_class} body diverged from direct "
                f"execution at concurrency {concurrency}"
            )

    try:
        with stopwatch() as cold_wall:
            # Round 1: every client races the same query at a cold
            # cache — the coalescing window (each miss is compressed
            # under its own envelope; the cached variant only exists
            # after a warm hit).
            await asyncio.gather(*(one(client, cold) for client in clients))
        # Variant warm-up (untimed, like the cold miss it parallels):
        # the first gzip-accepting cache hit compresses the body once
        # and stores the variant the warm rounds will be served from.
        warmup: List[float] = []
        await one(clients[0], warmup)
        with stopwatch() as warm_wall:
            await asyncio.gather(*(drive(client) for client in clients))
        wall_seconds = cold_wall.seconds + warm_wall.seconds

        # --- byte verification (off the clock) -----------------------
        # Misses are compressed under their own envelope (cached:false,
        # their coalesced flag), hits are served the one cached variant.
        # gzip output is deterministic (fixed level, zeroed mtime — rule
        # R005), so each distinct body is gunzipped and verified once,
        # and every hit must carry the byte-identical variant.
        hit_prefix = envelope_prefix(
            query_class, service.epoch, coalesced=False, cached=True
        )
        gzip_reference: bytes = b""
        gzip_served = 0
        verified_gzip: Set[bytes] = set()
        for response_headers, raw in observed:
            if response_headers.get("content-encoding") == "gzip":
                gzip_served += 1
                if raw in verified_gzip:
                    continue
                plain = gzip.decompress(raw)
                check_identity(plain)
                verified_gzip.add(raw)
                if not plain.startswith(hit_prefix):
                    continue
                if gzip_reference:
                    raise ValidationError(
                        f"{query_class} gzip bodies diverged between "
                        f"requests at concurrency {concurrency}"
                    )
                gzip_reference = raw
            else:
                check_identity(raw)
        if gzip_served == 0:
            raise ValidationError(
                f"warm {query_class} workload was never served from the "
                "compressed variant despite advertising gzip"
            )

        # --- negotiation surface (verified, not timed) ---------------
        variants_before = server.gateway.cache_counters()["gzip_variants"]
        scratch: List[float] = []
        await one(clients[0], scratch)
        repeat_headers, repeat_body = observed[-1]
        variants_after = server.gateway.cache_counters()["gzip_variants"]
        if (
            repeat_headers.get("content-encoding") != "gzip"
            or repeat_body != gzip_reference
            or variants_after != variants_before
        ):
            raise ValidationError(
                f"{query_class} gzip variant was re-compressed instead of "
                "served from the cache"
            )
        etag = repeat_headers.get("etag", "")
        if not etag:
            raise ValidationError(f"{query_class} response carried no ETag")
        status, _, body_304 = await clients[0].exchange(
            "POST", target, payload, if_none_match=etag
        )
        if status != 304 or body_304:
            raise ValidationError(
                f"conditional {query_class} request answered "
                f"{status} with {len(body_304)} body bytes, expected "
                "an empty 304"
            )
        # Identity-warm sample: the uncompressed cache hit, reported
        # alongside the gzip-negotiated warm path for transparency.
        for _ in range(3):
            await one(clients[0], identity_warm, accept_gzip=False)
        check_identity(observed[-1][1])

        coalesce = server.gateway.coalescer.counters()
        respcache = server.gateway.cache_counters()
    finally:
        for client in clients:
            await client.aclose()
        await server.stop()

    # In-process warm reference: the same query through the service
    # façade (value-cache hit), for the "within ~10×" comparison.
    with stopwatch() as inproc:
        for _ in range(3):
            service.execute(query)
    inproc_warm_ms = inproc.seconds / 3 * 1e3

    sent = len(cold) + len(warm)
    millis = sorted(seconds * 1e3 for seconds in cold + warm)
    warm_ms = sorted(seconds * 1e3 for seconds in warm)
    cold_ms = sorted(seconds * 1e3 for seconds in cold)
    probes = respcache["hits"] + respcache["misses"]
    return {
        "dataset": "",  # filled by the matrix driver
        "query_class": query_class,
        "concurrency": concurrency,
        "requests": sent,
        "p50_ms": percentile(millis, 50.0),
        "p95_ms": percentile(millis, 95.0),
        "p99_ms": percentile(millis, 99.0),
        "cold_p50_ms": percentile(cold_ms, 50.0),
        "warm_p50_ms": percentile(warm_ms, 50.0),
        "warm_p95_ms": percentile(warm_ms, 95.0),
        "warm_p99_ms": percentile(warm_ms, 99.0),
        "warm_identity_p50_ms": percentile(
            sorted(seconds * 1e3 for seconds in identity_warm), 50.0
        ),
        "inproc_warm_ms": inproc_warm_ms,
        "rps": sent / wall_seconds if wall_seconds else 0.0,
        "coalesce_executions": coalesce["executions"],
        "coalesce_hits": coalesce["hits"],
        "respcache_hits": respcache["hits"],
        "respcache_misses": respcache["misses"],
        "respcache_hit_rate": (
            respcache["hits"] / probes if probes else 0.0
        ),
        "bytes_served": respcache["bytes_served"],
        "not_modified": respcache["not_modified"],
        "body_bytes": len(answer_tail) - len(b'"answer":') - 1,
        "gzip_bytes": len(gzip_reference),
        "verified": True,
    }


def run_serve_matrix(
    datasets: Tuple[str, ...],
    concurrency_levels: Tuple[int, ...],
    requests: int,
    pool_size: int,
) -> Tuple[List[Dict[str, Any]], Dict[str, float]]:
    """Run the full matrix; returns ``(results, build_seconds)``.

    Raises :class:`ValidationError` if any served body deviates from
    direct execution (identity or gzip), if the workload never produced
    a coalesce hit or a response-cache hit, or if the warm served Q1
    p50 misses the ≥50×-over-seed gate.
    """
    results: List[Dict[str, Any]] = []
    build_seconds: Dict[str, float] = {}
    for dataset in datasets:
        knowledge_base, seconds = _build(dataset)
        build_seconds[dataset] = seconds
        print(
            f"  {dataset}: built {knowledge_base.window_count} windows, "
            f"{len(knowledge_base.catalog)} rules in {seconds:.2f} s"
        )
        _, minsupp, minconf = online_settings(dataset)[0]
        setting = ParameterSetting(minsupp, minconf)
        for query_class, query in _cell_queries(knowledge_base, setting):
            for concurrency in concurrency_levels:
                row = asyncio.run(
                    _run_cell(
                        knowledge_base,
                        query_class,
                        query,
                        concurrency=concurrency,
                        requests=requests,
                        pool_size=pool_size,
                    )
                )
                row["dataset"] = dataset
                results.append(row)
                print(
                    f"    {query_class} c={concurrency:<3} "
                    f"n={row['requests']:<4} "
                    f"p50={row['p50_ms']:8.3f} ms  "
                    f"warm p50={row['warm_p50_ms']:7.3f} ms  "
                    f"p99={row['p99_ms']:8.3f} ms  "
                    f"rps={row['rps']:8.1f}  "
                    f"coalesced={row['coalesce_hits']}  "
                    f"cache hit%={row['respcache_hit_rate'] * 100:5.1f}"
                )
    total_hits = sum(row["coalesce_hits"] for row in results)
    if total_hits == 0:
        raise ValidationError(
            "identical-request workload produced zero coalesce hits; "
            "the serving tier is not collapsing concurrent duplicates"
        )
    if sum(row["respcache_hits"] for row in results) == 0:
        raise ValidationError(
            "warm workload produced zero response-cache hits; "
            "the encoded-answer byte cache is not serving"
        )
    floor_concurrency = min(concurrency_levels)
    for row in results:
        if (
            row["query_class"] == "Q1"
            and row["concurrency"] == floor_concurrency
            and row["warm_p50_ms"] > WARM_Q1_P50_GATE_MS
        ):
            raise ValidationError(
                f"warm served Q1 p50 {row['warm_p50_ms']:.3f} ms on "
                f"{row['dataset']} exceeds the gate "
                f"{WARM_Q1_P50_GATE_MS:.3f} ms "
                f"(seed {SEED_WARM_Q1_P50_MS} ms / {IMPROVEMENT_FLOOR}x)"
            )
    return results, build_seconds


def add_bench_serve_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the ``repro bench-serve`` arguments on *parser*."""
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced CI matrix (retail only, fewer requests)",
    )
    parser.add_argument(
        "--out",
        default=DEFAULT_OUT,
        help=f"output JSON path (default: {DEFAULT_OUT}; '-' for stdout only)",
    )
    parser.add_argument(
        "--datasets",
        nargs="+",
        choices=tuple(_WORKLOADS),
        default=None,
        help="benchmark only these datasets (default: quick/full selection)",
    )
    parser.add_argument(
        "--concurrency",
        nargs="+",
        type=int,
        default=None,
        metavar="N",
        help="concurrent clients per cell (default: 2 8 quick, 4 16 full)",
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=0,
        help="total requests per cell (default: 24 quick, 64 full)",
    )
    parser.add_argument(
        "--pool-size",
        default="auto",
        help="server worker threads: a count or 'auto' "
             "(one per CPU; default: auto)",
    )


def run_bench_serve(args: argparse.Namespace) -> int:
    """Entry point for the ``repro bench-serve`` subcommand."""
    datasets = select_datasets(args)
    if args.concurrency is not None:
        concurrency_levels = tuple(args.concurrency)
    else:
        concurrency_levels = (
            QUICK_CONCURRENCY if args.quick else FULL_CONCURRENCY
        )
    if any(level < 1 for level in concurrency_levels):
        raise ValidationError(
            f"--concurrency levels must be >= 1, got {concurrency_levels}"
        )
    requests = args.requests
    if requests <= 0:
        requests = QUICK_REQUESTS if args.quick else FULL_REQUESTS
    pool_size = resolve_pool_size(args.pool_size)
    print(
        f"repro bench-serve ({'quick' if args.quick else 'full'} matrix): "
        f"{len(datasets)} dataset(s), Q1/Q2/Q3/Q5 x "
        f"concurrency {list(concurrency_levels)}, "
        f"{requests} requests/cell, pool={pool_size}"
    )
    results, build_seconds = run_serve_matrix(
        datasets, concurrency_levels, requests, pool_size
    )
    payload = {
        "schema": SCHEMA,
        "version": __version__,
        "quick": args.quick,
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpu_count": os.cpu_count(),
        },
        "pool_size": pool_size,
        "concurrency": list(concurrency_levels),
        "requests_per_cell": requests,
        "gate": {
            "warm_q1_p50_ms_max": WARM_Q1_P50_GATE_MS,
            "seed_warm_q1_p50_ms": SEED_WARM_Q1_P50_MS,
            "improvement_floor": IMPROVEMENT_FLOOR,
        },
        "results": results,
        "build_seconds": build_seconds,
    }
    if args.out != "-":
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=False)
            handle.write("\n")
        print(f"wrote {args.out} ({SCHEMA})")
    return 0
