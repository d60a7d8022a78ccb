"""Smoke runs of the scripts under scripts/."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_opacity_benchmark_reports_clean():
    proc = _run_script("opacity_benchmark.py", "--trials", "5")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "opacity regression: clean"


def test_recognition_sweep_summary():
    proc = _run_script(
        "recognition_sweep.py", "--odd", "13,1", "--char2", "3", "--seeds", "1", "--trials", "5"
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = proc.stdout.split("\nsummary\n")[1].splitlines()
    for label in ("SL2(13)", "SL2(2^3)"):
        assert any(line.strip().startswith(f"{label}: 1/1 exact") for line in summary), proc.stdout
