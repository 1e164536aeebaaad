"""Smoke test of the benchmark at tiny scale.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def site_objects():
    sites = tracing.TIMED_SITES + (tracing.TENSOR_SITE,)
    return [getattr(owner, attr) for _, owner, attr in sites]


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_prints_with_its_unit_and_wrappers_are_removed(workload):
    originals = site_objects()
    for trace, listed in ((0, BENCHMARK["end_to_end"]), (1, BENCHMARK["per_layer"])):
        lines = []
        result = run.run_benchmark(workload, seed=1, seconds=0, trace=trace,
                                   scale=workloads.TINY, log=lines.append)
        # Every unit, traced or not, checks its outputs and compares its
        # digests with the first untraced unit's.
        assert result["correct"] and result["failed"] == 0, "\n".join(lines)
        assert result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in listed}
        assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert all(now is before for now, before in zip(site_objects(), originals))
    assert any("1 traced units" in line for line in lines)


def test_traced_digest_mismatch_is_a_failure(monkeypatch):
    setup, unit = workloads.WORKLOADS["train"]

    def unit_that_depends_on_tracing(state, rec):
        out = unit(state, rec)
        out.digests["params"] += str(rec.count(workloads.TENSOR_COUNT) > 0)
        return out

    monkeypatch.setitem(workloads.WORKLOADS, "train", (setup, unit_that_depends_on_tracing))
    result = run.run_benchmark("train", seed=1, seconds=0, trace=1,
                               scale=workloads.TINY, log=lambda line: None)
    assert not result["correct"] and result["failed"] == 1


def test_exits_nonzero_without_printing_a_result_when_sources_are_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
