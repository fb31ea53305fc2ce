"""Smoke tests of the benchmark harness on tiny covers.

The exhaustive selftest takes about 15 s and is already a tier-1 test
(tests/test_acceptance.py), so these tests replace ``oracle.run`` with a
stub that returns the default table's documented figures.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import record_digests
import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SIZE = 24
SEED = 1


@pytest.fixture
def lib(monkeypatch):
    lib = run.import_package()

    def fake_run(table, jobs=1):
        return lib.oracle.OracleResult(
            total_cases=run.ORACLE_CASES, failures=[],
            lossy_corner_count=run.ORACLE_LOSSY_CORNERS, lossy_corner_cases=[],
            branch_counts={}, mark_case_counts={}, baseline_in_range_cases=0)

    monkeypatch.setattr(lib.oracle, "run", fake_run)
    return lib


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_result_lists_the_metrics_of_benchmark_json(lib, tmp_path, workload, trace):
    report = run.measure(workload, SEED, 0, trace, size=SIZE, digests={}, out_dir=tmp_path)
    line = json.loads(json.dumps(run.result(report, SPEC)))
    listed = SPEC["per_layer" if trace else "end_to_end"]

    assert (line["correct"], line["failed"], line["attempted"]) == (True, 0, 15 + trace)
    assert line["metrics"] == {
        m["name"]: {"value": report["values"][m["name"]], "unit": m["unit"]} for m in listed}
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
    assert report["environment"]["seed"] == SEED
    if trace:
        spans = [json.loads(s) for s in (tmp_path / f"{workload}-seed{SEED}-spans.jsonl").open()]
        assert {"id", "parent", "op", "name", "start", "end"} <= set(spans[0])
        assert sum(s["name"] == "cli.main" for s in spans) == 16


def test_digests_recorded_from_the_library_match_the_cli(lib, tmp_path):
    recorded = {inp.kind: record_digests.outputs(lib, inp)
                for inp in run.make_inputs("full-p5", SEED, SIZE)}
    report = run.measure("full-p5", SEED, 0, True, size=SIZE, digests=recorded, out_dir=tmp_path)

    assert report["failed"] == 0, report["problems"]
    assert report["digests_checked"] == 15  # stego, raster and recovered per cover and method


def test_wrong_digest_counts_as_failed_operation(lib, tmp_path):
    recorded = {inp.kind: record_digests.outputs(lib, inp)
                for inp in run.make_inputs("full-p5", SEED, SIZE)}
    recorded["noise"]["apvd"]["recovered"] = "0" * 64
    report = run.measure("full-p5", SEED, 0, False, size=SIZE, digests=recorded, out_dir=tmp_path)

    assert report["failed"] == 1
    assert report["ops_failed_ratio"] == 1 / report["attempted"]
    assert report["problems"][0].startswith("extract_s/noise: apvd recovered")
    assert run.result(report, SPEC)["correct"] is False


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "full-p5", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)

    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no pvdstego sources" in proc.stderr
