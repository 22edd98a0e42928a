"""Network-tier observability for the ``/metrics`` route.

:class:`ServerMetrics` accumulates, per endpoint, request counts split
by status family and a latency histogram (reusing
:class:`repro.service.metrics.LatencyHistogram` so the two tiers bucket
identically), plus a concurrency gauge (current and peak in-flight
requests), an uptime-based requests-per-second figure, and the
request-level counters of the encoded-bytes path (:data:`BYTE_COUNTERS`,
published as ``respcache``).  Coalescer counters and the answer cache's
occupancy are merged into the snapshot by the gateway.

Everything here is event-loop-confined: the gateway is the only writer
and it runs on the server's asyncio loop, so no locks are needed — the
same single-writer discipline :mod:`repro.serve.coalesce` relies on.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.timing import Ticker
from repro.service.metrics import LatencyHistogram

#: Request-level counters of the encoded-bytes path: requests answered
#: from cached bytes (``hits``) or not (``misses``), identity blobs
#: attached (``stores``), gzip variants compressed (``gzip_variants``),
#: cached body bytes sent (``bytes_served``) and 304 answers
#: (``not_modified``).
BYTE_COUNTERS = (
    "hits",
    "misses",
    "stores",
    "gzip_variants",
    "bytes_served",
    "not_modified",
)


class ServerMetrics:
    """Per-endpoint counters for one :class:`repro.serve.server.TaraServer`."""

    def __init__(self) -> None:
        self._uptime = Ticker()
        self.requests: Dict[str, int] = {}
        self.statuses: Dict[str, Dict[str, int]] = {}
        self.latency: Dict[str, LatencyHistogram] = {}
        self.in_flight = 0
        self.peak_in_flight = 0
        self.respcache: Dict[str, int] = dict.fromkeys(BYTE_COUNTERS, 0)
        self._order: List[str] = []

    def _register(self, endpoint: str) -> None:
        if endpoint not in self.requests:
            self.requests[endpoint] = 0
            self.statuses[endpoint] = {}
            self.latency[endpoint] = LatencyHistogram()
            self._order.append(endpoint)

    def enter(self) -> None:
        """A request started executing (in-flight gauge up)."""
        self.in_flight += 1
        self.peak_in_flight = max(self.peak_in_flight, self.in_flight)

    def exit(self) -> None:
        """A request finished (in-flight gauge down)."""
        self.in_flight -= 1

    def count(self, name: str, amount: int = 1) -> None:
        """Add *amount* to one of the :data:`BYTE_COUNTERS`."""
        self.respcache[name] += amount

    def observe(self, endpoint: str, status: int, seconds: float) -> None:
        """Record one completed request against *endpoint*."""
        self._register(endpoint)
        self.requests[endpoint] += 1
        family = f"{status // 100}xx"
        families = self.statuses[endpoint]
        families[family] = families.get(family, 0) + 1
        self.latency[endpoint].record(seconds)

    @property
    def total_requests(self) -> int:
        """Requests observed across every endpoint."""
        return sum(self.requests.values())

    @property
    def uptime_seconds(self) -> float:
        """Seconds since the metrics (and server) came up."""
        return self._uptime.seconds

    @property
    def requests_per_second(self) -> float:
        """Lifetime average RPS across all endpoints."""
        uptime = self.uptime_seconds
        return self.total_requests / uptime if uptime > 0.0 else 0.0

    def as_dict(
        self,
        coalesce: Dict[str, int],
        *,
        cache: Optional[Dict[str, int]] = None,
    ) -> Dict[str, object]:
        """JSON snapshot for the ``/metrics`` route.

        *coalesce* is the coalescer's counter snapshot
        (:meth:`repro.serve.coalesce.RequestCoalescer.counters`);
        *cache* the answer cache's occupancy
        (:meth:`repro.service.TaraService.cache_info`), merged with the
        byte-path counters into the ``respcache`` section.
        """
        endpoints: Dict[str, object] = {}
        for endpoint in self._order:
            endpoints[endpoint] = {
                "requests": self.requests[endpoint],
                "statuses": dict(sorted(self.statuses[endpoint].items())),
                "latency": self.latency[endpoint].as_dict(),
            }
        snapshot: Dict[str, object] = {
            "uptime_seconds": self.uptime_seconds,
            "requests": self.total_requests,
            "requests_per_second": self.requests_per_second,
            "in_flight": self.in_flight,
            "peak_in_flight": self.peak_in_flight,
            "coalesce": dict(coalesce),
            "endpoints": endpoints,
            "respcache": {**self.respcache, **(cache or {})},
        }
        return snapshot

    def report(self, title: str = "server metrics") -> str:
        """Human-readable table, styled after the other ``report()`` methods."""
        lines = [title]
        width = max((len(name) for name in self._order), default=0)
        for name in self._order:
            mean_ms = self.latency[name].mean_seconds * 1e3
            families = " ".join(
                f"{family}={count}"
                for family, count in sorted(self.statuses[name].items())
            )
            lines.append(
                f"  {name.ljust(width)}  {self.requests[name]:6d} req"
                f"  mean {mean_ms:9.3f} ms  {families}"
            )
        lines.append(
            f"  uptime {self.uptime_seconds:.1f} s"
            f"  rps {self.requests_per_second:.1f}"
            f"  peak in-flight {self.peak_in_flight}"
        )
        return "\n".join(lines)
