"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py

Not part of the package's test suite (``testpaths`` names ``tests``
only); it checks that every workload emits every metric named in
BENCHMARK.json with its unit, that a wrong reference value is counted as
a failure, and that the benchmark refuses to run without the package.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 42


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_with_unit(workload, trace):
    result, detail = run.measure(workload, SEED, 0.0, trace, tiny=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    assert result["attempted"] >= 1
    assert result["correct"] and result["failed"] == 0, detail["failures"]
    if trace:
        assert detail["absent"] == []
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_wrong_reference_counts_in_fail_rate():
    result, detail = run.measure("scan", SEED, 0.0, 1, lasso_density=0.5,
                                 tiny=True)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["check.fail_rate"]["value"] == 1.0
    assert all("off the reference" in err for _, err in detail["failures"])


def test_refuses_to_run_without_the_package():
    run.WORK.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "scan", "--seed",
             "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
