"""Readings of this host and of the benchmark's own processes.

Everything is read from ``/proc`` or from ``os``; nothing here changes a
setting of the machine.  CPU pinning (:func:`pin`, :class:`Alternation`)
acts only on the benchmark's own process and the server it started.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Optional

_TICKS = os.sysconf("SC_CLK_TCK")

#: CPUs the benchmark was started on, before any pinning.
_ALLOWED = sorted(os.sched_getaffinity(0))


def cpu_count() -> int:
    """CPUs the benchmark may use."""
    return len(_ALLOWED)


def pin(pid: int, cpu: int) -> bool:
    """Pin *pid* (0: the calling thread) to the *cpu*-th allowed CPU.

    Only when at least two CPUs are allowed, so the load generator and
    the server never share one; returns whether it pinned.
    """
    if len(_ALLOWED) < 2:
        return False
    os.sched_setaffinity(pid, {_ALLOWED[cpu % len(_ALLOWED)]})
    return True


def _pin_threads(pid: int, cpu: int) -> None:
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(tid), {cpu})
        except ProcessLookupError:
            pass  # the thread ended since the listing


class Alternation:
    """While entered, swap the server and the load generator between the
    two allowed CPUs every *period* seconds, keeping them apart.

    Each vCPU of the host alternates between a fast and a slow phase on
    its own, for 0.1 s to several seconds; alternating spreads both
    processes evenly over both vCPUs instead of leaving each run's figures
    to one vCPU's phases.  Does nothing on a host with fewer than two CPUs.
    """

    def __init__(self, server_pid: int, period: float = 0.25) -> None:
        self._server = server_pid
        self._period = period
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _swap(self, turn: int) -> None:
        _pin_threads(self._server, _ALLOWED[(turn + 1) % 2])
        _pin_threads(os.getpid(), _ALLOWED[turn % 2])

    def _run(self) -> None:
        turn = 0
        while not self._stop.wait(self._period):
            turn += 1
            self._swap(turn)

    def __enter__(self) -> "Alternation":
        if len(_ALLOWED) >= 2:
            self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._thread.is_alive():
            self._stop.set()
            self._thread.join(timeout=10)
            self._swap(0)


def process_cpu_seconds(pid: int) -> float:
    """User + system CPU of *pid* (``/proc/<pid>/stat`` utime + stime)."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        raw = handle.read()
    # The command name may hold spaces; fields resume after its ')'.
    fields = raw[raw.rindex(b")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS


def own_cpu_seconds() -> float:
    """User + system CPU of this process, all threads."""
    times = os.times()
    return times.user + times.system


def peak_rss_mib(pid: int) -> float:
    """``VmHWM`` of *pid* in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def steal_ticks() -> Optional[int]:
    """Host-wide steal ticks from ``/proc/stat`` (None if not reported)."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = handle.readline().split()
    return int(fields[8]) if len(fields) > 8 else None


def calibration_ms(rounds: int = 5) -> float:
    """Median time of a fixed pure-Python loop.

    The loop does the same work on every run, so a run whose figure is
    far from the others ran on a slower (or faster) host phase.
    """
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        acc = 0
        for value in range(200_000):
            acc += value * value % 7
        samples.append((time.perf_counter() - start) * 1000.0)
    samples.sort()
    return samples[len(samples) // 2]
