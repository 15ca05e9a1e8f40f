"""Smoke test of the benchmark itself: every workload at tiny size, traced and not.

Run from the root of the checkout:  python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify_large", "sweep_families", "cli_small")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_workloads_match_benchmark_json():
    assert tuple(w["name"] for w in _spec()["workloads"]) == WORKLOADS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1

    wanted = _spec()["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    assert sorted(got) == sorted(m["name"] for m in wanted)
    for m in wanted:
        assert got[m["name"]]["unit"] == m["unit"]
        assert isinstance(got[m["name"]]["value"], (int, float))
        assert f"{m['name']} " in "\n".join(lines)

    printed = {line.split()[0]: line.split()[1:] for line in lines if " " in line}
    assert printed["failed_frac"] == ["0", "1"]
    if not trace and workload != "sweep_families":
        assert printed["site_steps_per_s"][1] == "1/s"


def test_counts_repeat_across_seeds():
    counts = []
    for seed in ("1", "2"):
        proc = _run(ROOT, "--workload", "sweep_families", "--seed", seed, "--seconds", "1",
                    "--trace", "1", "--tiny")
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if k.endswith(".calls")})
    assert counts[0] == counts[1]
    # One closed-form call per site per sweep point, one seed-file read per Type 2 point.
    assert counts[0]["stationary.closed_form.calls"] == 3 * 4 * 60
    assert counts[0]["serialize.seeds_from_json.calls"] == 2 * 4


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "cli_small", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
