"""Smoke test of the benchmark: every workload at tiny size with all of its
checks, untraced and traced, so the benchmark cannot rot.

Run from the repository root: python -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "0", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke(workload, trace):
    proc = bench("--workload", workload, "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in declared]
    assert all(metrics[m["name"]]["unit"] == m["unit"] for m in declared)
    if trace:
        # the layer self times and the benchmark's own remainder make up the wall
        layers = sum(v["value"] for k, v in metrics.items() if k.startswith("layer."))
        total = layers + metrics["trace.unattributed_s"]["value"]
        assert total == pytest.approx(metrics["trace.wall_s"]["value"], rel=1e-6)
    else:
        assert all(metrics[m["name"]]["value"] > 0 for m in declared)
        for name in ("wall_s", "setup_s", "peak_rss_mib", "fail_rate"):
            assert name in proc.stdout


def test_failed_check_exits_nonzero(monkeypatch, capsys):
    sys.path.insert(0, str(HERE))
    import run

    workloads = run.import_workloads()
    monkeypatch.setattr(workloads.search, "exhaustive_max_table", lambda F, X: [0] * (X + 1))
    code = run.main(["--workload", "exact_plateau", "--seed", "7", "--seconds", "0", "--smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] == 2


def test_without_program_exits_nonzero_silently(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "exact_plateau", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
