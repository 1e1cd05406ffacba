"""Smoke test of the benchmark itself, on tiny inputs.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q

Every metric ``BENCHMARK.json`` names must be printed with its unit on
every workload, and the reference checks must be able to fail.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seconds", "1", "--scale", "0.05"]

sys.path[:0] = [str(HERE), str(ROOT / "src")]


def run_bench(*args: str) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["table5-inproc", "table5-daemon"])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result, stdout = run_bench("--workload", workload, "--seed", "3", "--trace", trace, *TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert isinstance(emitted["value"], (int, float))
        if trace == "0":
            assert emitted["value"] > 0, metric["name"]
    assert '"record_kernel"' in stdout and '"source_sha1"' in stdout


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table5-inproc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, env=env,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


class WrongReference:
    """A Table V program whose paper row claims one use case too many."""

    def __init__(self, program) -> None:
        self._program = program
        self.name = program.name
        self.paper = dataclasses.replace(program.paper, use_cases=program.paper.use_cases + 1)

    def run_plain(self, scale):
        return self._program.run_plain(scale=scale)

    def run_tracked(self, scale):
        return self._program.run_tracked(scale=scale)


def test_a_wrong_reference_is_counted_as_a_failure():
    import scenarios
    from repro.workloads import workload_by_name

    result = scenarios.Result()
    scenarios.table5(
        result, "inproc", 0.1, 0.05, False, ROOT, ROOT / ".perfbench", 0.0,
        programs=[WrongReference(workload_by_name("Gpdotnet"))],
    )
    assert result.attempted >= 1
    assert result.failed == result.attempted
    assert result.layers["failed_frac"][0] == 1.0


def test_daemon_refusals_and_append_failures_are_failures():
    import scenarios

    result = scenarios.Result(attempted=3)
    stats = [
        {"session": "a", "refused_windows": 2, "append_failures": 0},
        {"session": "b", "refused_windows": 0, "append_failures": 1},
        {"session": "c", "refused_windows": 0, "append_failures": 0},
        # Already failed its report check: not counted twice.
        {"session": "d", "refused_windows": 1, "append_failures": 0},
    ]
    passed = {"a": "Gpdotnet round 0", "b": "Mandelbrot round 0", "c": "Astrogrep round 0"}
    scenarios.flag_refused_sessions(result, stats, passed)
    assert result.failed == 2
    assert any("refused 2 windows" in p for p in result.problems)
    assert any("1 journal appends failed" in p for p in result.problems)


def test_daemon_reference_runs_in_a_child_process():
    import scenarios

    assert scenarios.in_child(lambda: os.getpid()) != os.getpid()
    with pytest.raises(RuntimeError):
        scenarios.in_child(lambda: 1 / 0)


def test_report_comparison_sees_changed_evidence():
    import scenarios
    from repro.testing.oracle import run_batch_path
    from repro.testing.traces import generate_trace

    report = run_batch_path(
        generate_trace(7, max_instances=6, max_segments=10, max_segment_events=400)
    )
    assert report["use_cases"], "trace 7 should flag a use case"
    assert scenarios.reports_match(report, report)
    wrong = json.loads(json.dumps(report))
    evidence = wrong["use_cases"][0]["evidence"]
    key = next(iter(evidence))
    evidence[key] = "changed"
    assert not scenarios.reports_match(wrong, report)
