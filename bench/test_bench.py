"""Self-check of the benchmark: every workload, at a tiny sample size, with
the trace off and on, emits every metric that BENCHMARK.json names.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY_N = 60


def test_declared_metrics_match_the_code():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.load_workloads())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload):
    spec = run.load_workloads()[workload]
    for trace, declared in ((False, SPEC["end_to_end"]), (True, SPEC["per_layer"])):
        result = run.run_workload(workload, spec, seed=3, seconds=0.5, trace=trace,
                                  n=TINY_N, log=lambda *_: None)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
        for m in declared:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert math.isfinite(got["value"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "proj_square_tetra",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout == ""
