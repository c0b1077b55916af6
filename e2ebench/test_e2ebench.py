"""The benchmark's own tests, on tiny inputs.

Run from the repository root with ``python -m pytest e2ebench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import e2e_inputs  # noqa: E402
import e2e_measure  # noqa: E402
import run as bench  # noqa: E402

TINY = 0.02
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny_run(workload: str, trace: int, seed: int = 7, references=None):
    if references is None:
        references = e2e_inputs.reference_digests(e2e_inputs.generate(workload, seed, TINY))
    args = SimpleNamespace(workload=workload, seed=seed, seconds=0.2, trace=trace, scale=TINY)
    return bench.run(args, references=references)


def _counts(result: dict) -> dict:
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] in ("count", "pages/record") or name.endswith(("_ratio", "_error"))
    }


def test_metric_tables_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(e2e_measure.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(e2e_measure.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_tiny_pass_reports_every_metric_and_matches_references(workload, trace):
    result, info = _tiny_run(workload, trace)
    table = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in table
    ]
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["attempted"] >= len(e2e_inputs.generate(workload, 7, TINY).requests)
    assert (result["failed"], result["correct"]) == (0, True), info.get("first_failure")
    assert info["seed"] == 7 and info["sequences"] and info["buffer_pool"]


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_traced_counters_repeat_for_a_seed(workload):
    first, _ = _tiny_run(workload, trace=1)
    second, _ = _tiny_run(workload, trace=1)
    assert _counts(first) == _counts(second)


@pytest.mark.parametrize("workload", ["adhoc_small", "scan_memory"])
def test_storage_counters_are_zero_in_memory(workload):
    result, _ = _tiny_run(workload, trace=1)
    storage = {n: m["value"] for n, m in result["metrics"].items() if n.startswith("storage.")}
    assert storage and not any(storage.values())


def test_times_are_scaled_by_the_calibrated_speed():
    speed = e2e_measure.Speed()
    for _ in range(3):
        speed.sample()
    assert speed.scale() == pytest.approx(
        (e2e_measure.REFERENCE_CALIBRATION_S / speed.calibration_s()) ** 0.5
    )
    _, info = _tiny_run("adhoc_small", trace=0)
    assert info["calibration_samples"] >= 1  # one per timed pass
    assert info["time_scale"] > 0 and info["setup_time_scale"] > 0


def test_wrong_answer_counts_as_failed():
    inputs = e2e_inputs.generate("probe_paged", 7, TINY)
    references = e2e_inputs.reference_digests(inputs)
    key = inputs.requests[0].key
    count, digest = references[key]
    references[key] = (count, digest + 1)
    result, info = _tiny_run("probe_paged", trace=0, references=references)
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    assert key in info["first_failure"]


def _command(*extra: str) -> list[str]:
    return [sys.executable, "e2ebench/run.py", "--seed", "3", "--seconds", "0.3", *extra]


def test_command_prints_result_as_last_line():
    done = subprocess.run(
        _command("--workload", "scan_paged", "--trace", "0", "--scale", str(TINY)),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0


def test_command_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "e2ebench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        _command("--workload", "adhoc_small", "--trace", "0"),
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
