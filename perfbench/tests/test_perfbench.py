"""The benchmark's own tests, at tiny sizes with every check on.

    PYTHONPATH=src python -m pytest perfbench/tests -q

They start real server processes, so they take about a minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterator, List

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
END_TO_END = sorted(metric["name"] for metric in SPEC["end_to_end"])
PER_LAYER = sorted(metric["name"] for metric in SPEC["per_layer"])
NAMES = [workload["name"] for workload in SPEC["workloads"]]


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture
def affinity() -> Iterator[None]:
    """In-process runs pin the calling thread; undo it afterwards."""
    saved = os.sched_getaffinity(0)
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


def test_spec_names_every_workload() -> None:
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_completes_with_every_check(workload: str, trace: str) -> None:
    done = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr[-3000:]
    lines = done.stdout.strip().splitlines()
    assert lines[-2].startswith("# run ")
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == (PER_LAYER if trace == "1" else END_TO_END)
    if trace == "1":
        reconcile = json.loads(lines[-2][len("# run "):])["reconcile"]
        assert reconcile["worst_gap_ms"] < 0.01
        assert abs(reconcile["children_self_ms"] + reconcile["unattributed_ms"]
                   - reconcile["request_ms"]) < 0.01


def test_corrupted_answer_counts_as_failed(monkeypatch: pytest.MonkeyPatch, affinity: None) -> None:
    original = workloads.decode

    def drop_one_rule(response: object) -> Dict[str, object]:
        envelope = original(response)  # type: ignore[arg-type]
        answer = envelope.get("answer")
        if (
            envelope.get("query_class") == "Q1"
            and isinstance(answer, dict)
            and len(answer["trajectories"]) > 1
        ):
            answer["trajectories"] = answer["trajectories"][1:]
        return envelope

    monkeypatch.setattr(workloads, "decode", drop_one_rule)
    result = run.run_workload("slider-walk", 5, 1, False, root=ROOT, tiny=True)
    assert result["failed"] > 0
    assert result["correct"] is False


def test_seed_changes_inputs_not_metric_names() -> None:
    shape = inputs.BasketShape(windows=2, per_window=50)
    assert inputs.generate_windows(shape, 1) != inputs.generate_windows(shape, 2)
    assert inputs.generate_windows(shape, 1) == inputs.generate_windows(shape, 1)
    names: List[List[str]] = []
    for seed in ("1", "2"):
        done = bench("--workload", "ingest-fresh", "--seed", seed, "--seconds", "1", "--tiny")
        assert done.returncode == 0, done.stderr[-3000:]
        names.append(sorted(json.loads(done.stdout.strip().splitlines()[-1])["metrics"]))
    assert names[0] == names[1] == END_TO_END


def test_refuses_a_tree_without_the_program(tmp_path: Path) -> None:
    (tmp_path / "perfbench").mkdir()
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
