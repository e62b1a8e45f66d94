"""Smoke test of the benchmark: every workload at a tiny size, both modes.

Run with ``python3 -m pytest bench``; each case starts ``bench/run.py
--smoke`` in a child interpreter and reads its JSON result line.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    res = _result(_run(workload, 0))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, metric in res["metrics"].items():
        assert metric["unit"] == units[name]
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    res = _result(_run(workload, 1))
    assert res["correct"]
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert set(m) == {x["name"] for x in SPEC["per_layer"]}
    if workload == "iris-grid":
        # cells run on the harness pool, yet their calls are still seen
        assert m["strategies.cbmi_predict_calls"] >= 1
        assert m["forest.nodes"] > m["forest.fit_calls"] > 0
        assert m["harness.speedup_vs_serial"] > 0
    elif workload == "synth-missforest":
        assert m["imputers.sweeps"] >= 1 and m["harness.run_s"] == 0
    else:
        assert m["forest.fit_calls"] == 0 and m["setup.forest.nodes"] > 0
        assert m["imputers.mice_solves"] > 0 and m["forest.predict_row_trees"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
