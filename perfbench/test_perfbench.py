"""Tests of the benchmark itself: its correctness gate and its refusals.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _checkout(tmp_path: Path, *, with_program: bool) -> Path:
    """A copy of the benchmark files, optionally beside the program."""
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    if with_program:
        (tmp_path / "src").symlink_to(ROOT / "src")
    return tmp_path


def _run(checkout: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=checkout, capture_output=True, text=True, timeout=180,
    )


def test_gate_flags_errors_and_differing_counts():
    reference = json.loads((HERE / "reference.json").read_text())
    good = {"outcome": dict(reference["sweep-p4"])}
    assert run.gate(reference, "sweep-p4", good) == []
    assert run.gate(reference, "sweep-p4", {"setup_s": 0.3}) == []
    bad = {"outcome": {**reference["sweep-p4"], "transitions": 1}}
    assert run.gate(reference, "sweep-p4", bad) == [
        "transitions: expected 1013412, got 1"
    ]
    assert run.gate(reference, "sweep-p4", {"error": "boom"}) == ["boom"]


def test_doctored_reference_count_makes_the_run_fail(tmp_path):
    checkout = _checkout(tmp_path, with_program=True)
    ref_path = checkout / "perfbench" / "reference.json"
    reference = json.loads(ref_path.read_text())
    reference["sweep-p4"]["transitions"] += 1
    ref_path.write_text(json.dumps(reference))

    proc = _run(
        checkout, "--workload", "sweep-p4", "--seed", "1",
        "--seconds", "1", "--trace", "0",
    )

    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 1  # the timed job; set-up jobs have no counts
    assert result["attempted"] == run.SETUP_SAMPLES + 1
    assert "transitions: expected 1013413, got 1013412" in proc.stderr
    # the failed job's timings are void
    assert result["metrics"]["wall_s"]["value"] == 0


def test_refuses_without_the_program(tmp_path):
    checkout = _checkout(tmp_path, with_program=False)
    proc = _run(
        checkout, "--workload", "verify-c2", "--seed", "1",
        "--seconds", "1", "--trace", "0",
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
