"""Self-test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench -q

Each test starts real child processes, as the benchmark does, on workloads
shrunk to a few dozen small queries.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_benchmark_json_follows_its_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in SPEC["end_to_end"])} in SPEC["end_to_end"]
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])


def test_declared_metrics_match_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: run.layer_unit(name) for name in run.LAYER_METRICS}


def test_seed_fixes_the_inputs():
    for w in workloads.WORKLOADS:
        first = workloads.digest(workloads.generate(w, 1))
        assert first == workloads.digest(workloads.generate(w, 1))
        assert first != workloads.digest(workloads.generate(w, 2))


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(2004) == 99.0
    assert run.tail_percentile(103) == 90.0
    assert run.tail_percentile(52) == 75.0
    assert run.tail_percentile(7) == 100.0


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_declared_metric_is_emitted(workload, trace):
    result = run.run_benchmark(workload, 3, 0.3, trace, tiny=True, setup_samples=2)
    summary = run.report(result)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(summary["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = summary["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1


def test_wrong_reference_raises_error_rate(monkeypatch):
    import references

    true_beta = references.reference_beta
    monkeypatch.setattr(references, "reference_beta", lambda g: 1.1 * true_beta(g))
    result = run.run_benchmark("scan-singles", 3, 0.3, False, tiny=True, setup_samples=2)
    summary = run.report(result)
    assert result["error_rate"] > 0
    assert not summary["correct"] and summary["failed"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "words",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
