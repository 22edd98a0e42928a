"""The repository benchmark: one command, served workloads, checked answers.

    python3 perfbench/run.py --workload slider-walk --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is always a child process
(``repro serve`` or the launcher in ``server.py``); this process is the
load generator and the answer oracle.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``,
with the end-to-end metrics when ``--trace 0`` and the per-layer metrics
when ``--trace 1``.  A line before it, starting with ``# run``, records
the host figures of the run.  Exit code 0 only when every answer checked
out.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostinfo  # noqa: E402
import layers  # noqa: E402
from client import Connection  # noqa: E402
from procs import Context, ServerProcess  # noqa: E402
from workloads import WORKLOADS, Measured  # noqa: E402

SETUPS = 3
#: Highest tail percentile reported.  Every workload has at least 100
#: ops, so p90 always has ten samples beyond it; higher percentiles moved
#: by up to 2x from run to run with host steal (see README.md).
TAIL_CAP = 90.0


def tail_percentile(samples: int) -> float:
    """p90, or the highest whole percentile below it with at least ten
    samples beyond it (tiny runs)."""
    percentile = TAIL_CAP
    while percentile > 50.0 and samples - math.ceil(percentile / 100.0 * samples) < 10:
        percentile -= 1.0
    return percentile


def percentile(values: List[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def fetch_metrics(server: ServerProcess) -> Dict[str, object]:
    with Connection(server.port) as conn:
        return conn.request("GET", "/metrics").json()


def end_to_end(measured: Measured, setups: List[float], cpu: float, rss: float) -> Dict[str, float]:
    ops = measured.ops
    latencies = [op.seconds * 1000.0 for op in ops]
    return {
        "setup_s": statistics.median(setups),
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": percentile(latencies, tail_percentile(len(ops))),
        "op_rate": len(ops) / measured.wall,
        "wire_kib_per_op": sum(op.wire_bytes for op in ops) / len(ops) / 1024.0,
        "server_cpu_ms_per_op": cpu * 1000.0 / len(ops),
        "server_peak_rss_mib": rss,
    }


def with_units(root: Path, section: str, values: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    """*values* as result metrics, with the units BENCHMARK.json names."""
    spec = json.loads((root / "BENCHMARK.json").read_text("utf-8"))
    units = {metric["name"]: metric["unit"] for metric in spec[section]}
    if set(units) != set(values):
        raise RuntimeError(f"{section} metrics {sorted(values)} != BENCHMARK.json {sorted(units)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def run_workload(
    name: str, seed: int, seconds: int, trace: bool, *, root: Path, tiny: bool = False
) -> Dict[str, object]:
    """One run: set up (several times), measure, check.  Returns the
    result object plus a ``"diagnostics"`` entry."""
    workload = WORKLOADS[name](tiny)
    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))  # the oracle's DCTAR re-mine
    calibration = hostinfo.calibration_ms()
    steal_before = hostinfo.steal_ticks()
    hostinfo.pin(0, 0)  # the load generator; servers go to the next CPU
    per_session = max(1, round(workload.ops_per_second * seconds / workload.sessions))
    ctx = Context(root, seed, trace, per_session * workload.sessions)
    try:
        setups: List[float] = []
        server: Optional[ServerProcess] = None
        for index in range(SETUPS):
            ctx.setup_index = index
            if server is not None:
                server.stop()
            started = time.perf_counter()
            server = workload.setup(ctx)
            setups.append(time.perf_counter() - started)
        assert server is not None
        before = fetch_metrics(server) if trace else None
        cpu_before = hostinfo.process_cpu_seconds(server.pid)
        own_before = hostinfo.own_cpu_seconds()
        with hostinfo.Alternation(server.pid):
            measured = workload.measure(ctx, server, ctx.ops)
        own_cpu = hostinfo.own_cpu_seconds() - own_before
        cpu = hostinfo.process_cpu_seconds(server.pid) - cpu_before
        rss = hostinfo.peak_rss_mib(server.pid)
        after = fetch_metrics(server) if trace else None
        errors = workload.check(ctx, server, measured)
        server.stop()
        failed = sum(1 for op in measured.ops if op.errors)
        e2e = end_to_end(measured, setups, cpu, rss)
        diagnostics: Dict[str, object] = {
            "workload": name, "seed": seed, "ops": len(measured.ops),
            "tail_percentile": tail_percentile(len(measured.ops)),
            "setups_s": setups, "calibration_ms": calibration,
            "steal_ticks": _delta(steal_before, hostinfo.steal_ticks()),
            "loadgen_cpu_share": own_cpu / measured.wall,
            "cpus": hostinfo.cpu_count(),
            "errors": (errors + [e for op in measured.ops for e in op.errors])[:10],
        }
        if trace:
            table, report = layers.per_layer(
                ctx, server, measured, before, after, own_cpu, workload.name)
            diagnostics.update(report)
            diagnostics["traced_op_p50_ms"] = e2e["op_p50_ms"]
            metrics = with_units(root, "per_layer", table)
        else:
            metrics = with_units(root, "end_to_end", e2e)
        return {
            "correct": not errors and failed == 0,
            "attempted": len(measured.ops),
            "failed": failed,
            "metrics": metrics,
            "diagnostics": diagnostics,
        }
    finally:
        ctx.close()


def _delta(before: Optional[int], after: Optional[int]) -> Optional[int]:
    return None if before is None or after is None else after - before


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="TARA repository benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs (the benchmark's own tests)")
    args = parser.parse_args(argv)
    # A terminated run still stops its servers (the ``finally`` blocks).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} holds no program source (src/repro)", file=sys.stderr)
        return 2
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), root=root, tiny=args.tiny)
    diagnostics = result.pop("diagnostics")
    print("# run " + json.dumps(diagnostics, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
