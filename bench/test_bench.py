"""Tests of the benchmark itself, at the tiny size.

    python3 -m pytest -q bench/test_bench.py

They check the printed result line against BENCHMARK.json, that a wrong
pinned answer is counted as a failure, and that the command fails
cleanly where the library is missing.
"""

import json
import shutil
import subprocess
from pathlib import Path

import pytest

import run

run.load_library()
import workloads  # noqa: E402  (needs the library path set up by run)

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(capsys, workload, trace=0):
    code = run.main(["--workload", workload, "--seed", "0", "--seconds", "0",
                     "--trace", str(trace), "--size", "tiny"])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2])["record"], json.loads(lines[-1])


def declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_end_to_end(capsys, workload):
    code, record, result = bench(capsys, workload)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert record["failed_ratio"] == 0
    assert record["job_samples"] >= run.MIN_SAMPLES
    assert record["calibration_chunks"] >= 2
    assert len(record["pass_walls_ref_s"]) == record["passes_untraced"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_traced(capsys, workload):
    code, record, result = bench(capsys, workload, trace=1)
    assert code == 0 and result["correct"]
    assert record["passes_traced"] >= 1 and record["passes_untraced"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        declared("per_layer")


def test_wrong_count_pin_fails(capsys, monkeypatch):
    key = workloads.SIZES["tiny"]["counts"][1]
    total, orbits = workloads.COUNT_PINS[key]
    monkeypatch.setitem(workloads.COUNT_PINS, key, (total + 1, orbits))
    code, record, result = bench(capsys, "spectra")
    assert code == 1
    assert not result["correct"] and result["failed"] > 0
    assert record["failed_ratio"] > 0
    assert record["failed_jobs"] == ["spectra/count/%s/%d" % key]


def test_wrong_product_pin_fails(capsys, monkeypatch):
    pins = workloads.load_pins()
    label = "affine/B2/triple/0"
    pins[label] = "0" * 16
    monkeypatch.setattr(workloads, "load_pins", lambda: pins)
    code, record, result = bench(capsys, "affine")
    assert code == 1 and record["failed_ratio"] > 0
    assert record["failed_jobs"] == [label]


def test_pins_cover_default_seed():
    jobs = workloads.build("affine", workloads.DEFAULT_SEED, "full")
    triples = {j.label for j in jobs if "/triple/" in j.label}
    assert triples == set(workloads.load_pins())


def test_fails_without_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "affine",
                                             "--seed", "0", "--seconds", "1",
                                             "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_calibration_chunk():
    import calibrate
    assert calibrate.work() == calibrate.CHECKSUM
    assert calibrate.chunk() > 0
