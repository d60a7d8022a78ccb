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
    lines = proc.stdout.splitlines()
    assert lines[-1] == "opacity regression: clean"
    # the per-op table: one row per group and kind of string, each cell a
    # time in us, except the memo-hit column of transparent strings
    assert lines[1].split() == ["group", "strings", "mul", "inv", "compare", "encode", "dec-hit", "dec-miss"]
    rows = [line.split() for line in lines[2:10]]
    assert [r[:2] for r in rows] == [
        [g, s] for g in ("PSL2(13)", "SL2(81)", "SL2(169)", "SL2(2^8)") for s in ("opaque", "transparent")
    ]
    for r in rows:
        cells = r[2:]
        if r[1] == "transparent":
            assert cells[4] == "-"
            del cells[4]
        assert all(float(c) > 0 for c in cells), r
    # the morphism image rows: us per image, then base-box muls, invs and
    # compares per image, exact once the inputs' unipotents are lifted
    assert lines[10].startswith("morphism image")
    assert lines[11].split() == ["group", "strings", "us", "muls", "invs", "compares"]
    rows = [line.split() for line in lines[12:18]]
    assert [r[:2] for r in rows] == [
        [g, s] for g in ("PSL2(13)", "SL2(81)", "SL2(16)") for s in ("opaque", "transparent")
    ]
    for r in rows:
        assert float(r[2]) > 0, r
        assert r[3:] == ["6.00", "0.00", "0.00"], r
    # the char-2 lift rows: base-box ops per lift_int, which multiplies
    # popcount(j) basis markers and makes no witness; over j = 1..2^n - 1
    # that is 17/15 muls for n = 4 and 769/255 for n = 8
    assert lines[18].startswith("char-2 lift")
    assert lines[19].split() == ["group", "muls", "invs", "compares"]
    rows = [line.split() for line in lines[20:22]]
    assert rows == [["SL2(16)", "1.13", "0.00", "0.00"], ["SL2(2^8)", "3.02", "0.00", "0.00"]]
    # the off-box rows: ms of each step of the structure-constants stage
    assert lines[22].startswith("off-box field work")
    assert lines[23].split() == ["field", "tables", "validate"]
    rows = [line.split() for line in lines[24:29]]
    assert [r[0] for r in rows] == ["GF(2^4)", "GF(2^8)", "GF(2^12)", "GF(3^4)", "GF(13^2)"]
    for r in rows:
        assert len(r) == 3 and all(float(c) > 0 for c in r[1:]), r
    # the cold-start rows: ms and peak MB of a fresh interpreter's import,
    # then of its building the odd-grid boxes
    assert lines[29].startswith("cold start")
    assert lines[30].split() == ["step", "ms", "maxrss-mb"]
    rows = [line.split() for line in lines[31:33]]
    assert [r[0] for r in rows] == ["import", "boxes"]
    for r in rows:
        assert len(r) == 3 and all(float(c) > 0 for c in r[1:]), r
    assert lines[33] == ""


def test_recognition_sweep_summary():
    proc = _run_script(
        "recognition_sweep.py", "--odd", "13,1", "--char2", "3", "--seeds", "1", "--trials", "5"
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = proc.stdout.split("\nsummary\n")[1].splitlines()
    for label in ("SL2(13)", "SL2(2^3)"):
        assert any(line.strip().startswith(f"{label}: 1/1 exact") for line in summary), proc.stdout
