"""A smoke run of scripts/bench.py on the six groups of its opacity check."""
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest
from test_source_size import parser_tokens

ROOT = Path(__file__).resolve().parents[1]
_ARGS = ["--odd", "13,1", "29,1", "3,4", "13,2", "--char2", "3", "8", "--seeds", "1", "--trials", "5"]


@pytest.fixture(scope="module")
def bench():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench.py"), *_ARGS],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout)


def test_bench_meta(bench):
    # src_lines is what `cat src/bbsl2/*.py src/bbsl2/*.json | wc -l` prints,
    # and max_module_tokens the largest module's count under the token limit
    src = ROOT / "src" / "bbsl2"
    lines = sum(f.read_bytes().count(b"\n") for f in [*src.glob("*.py"), *src.glob("*.json")])
    meta = dict(bench["meta"])
    ref = meta.pop("ref_loop_ms")
    assert meta == {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "src_lines": lines,
        "max_module_tokens": max(map(parser_tokens, src.glob("*.py"))),
    }
    # the yardstick loop, timed before and after the run
    assert ref.keys() == {"before", "after"}
    assert all(0 < ms < 10_000 for ms in ref.values()), ref


def _cpu_model():
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return None
    return next((line.split(":", 1)[1].strip() for line in lines if line.startswith("model name")), None)


def test_bench_measurements(bench):
    # per op: one row per group and kind of string, each cell a time in us
    kinds = ("opaque", "transparent")
    rows = bench["per_op"]
    assert [(r["group"], r["strings"]) for r in rows] == [
        (g, s) for g in ("PSL2(13)", "SL2(81)", "SL2(169)", "SL2(2^8)") for s in kinds
    ]
    columns = ("mul", "inv", "compare", "encode", "decode", "decode_bytes", "seal")
    for r in rows:
        assert r.keys() == {"group", "strings", *columns}, r
        assert all(r[c] > 0 for c in columns), r
    # an image of a recovered morphism costs six base-box muls once the
    # unipotents its input needs are lifted, and no inverse or compare
    rows = bench["images"]
    assert [(r["group"], r["strings"]) for r in rows] == [
        (g, s) for g in ("PSL2(13)", "SL2(81)", "SL2(2^4)") for s in kinds
    ]
    for r in rows:
        assert r["us"] > 0, r
        assert (r["images"], r["muls"], r["invs"], r["compares"]) == (200, 1_200, 0, 0), r
    # a lift of j multiplies the popcount(j) basis markers of its bits and
    # makes no witness: over j = 1..2^n - 1, 17 muls for n = 4, 769 for n = 8
    assert bench["lifts"] == [
        {"group": "SL2(2^4)", "lifts": 15, "muls": 17, "invs": 0, "compares": 0},
        {"group": "SL2(2^8)", "lifts": 255, "muls": 769, "invs": 0, "compares": 0},
    ]
    # ms of each off-box step of the structure-constants stage
    rows = bench["off_box"]
    assert [r["field"] for r in rows] == ["GF(2^4)", "GF(2^8)", "GF(2^12)", "GF(3^4)", "GF(13^2)"]
    assert all(r["tables_ms"] > 0 and r["validate_ms"] > 0 for r in rows), rows
    # ms of the irreducible search, presentation, tables and constructor of standard fields
    rows = bench["standard_fields"]
    steps = ("smallest_irreducible_ms", "polynomial_field_ms", "tables_ms", "constructor_ms")
    assert [r["field"] for r in rows] == ["GF(2^8)", "GF(2^12)", "GF(2^16)", "GF(3^6)"]
    for r in rows:
        assert r.keys() == {"field", *steps}, r
        assert all(r[s] > 0 for s in steps), r
    # one-point faults that pass all --trials checks, per cost-table group
    rows = bench["detection"]
    assert [r["group"] for r in rows] == [
        "SL2(13)", "SL2(81)", "SL2(169)", "SL2(625)", "SL2(729)", "SL2(2^8)", "SL2(2^12)"
    ]
    for r in rows:
        assert r.keys() == {"group", "trials", "faults", "escaped"}, r
        assert (r["trials"], r["faults"]) == (5, 40) and 0 <= r["escaped"] <= r["faults"], r
    # ms and peak MB of a fresh interpreter's import, then of its odd and char-2 boxes
    rows = bench["cold_start"]
    assert [r["step"] for r in rows] == ["import", "boxes", "char2-boxes"]
    assert all(r["ms"] > 0 and r["maxrss_mb"] > 0 for r in rows), rows


def test_bench_runs_are_exact_and_identical(bench):
    # seed 0 runs on both kinds of string, which must agree in everything
    # but time: stage samples, verification and complete base-box counts
    runs = bench["runs"]
    assert [(r["group"], r["seed"]) for r in runs] == [
        (g, 0) for g in ("SL2(13)", "SL2(29)", "SL2(81)", "SL2(169)", "SL2(2^3)", "SL2(2^8)")
    ]
    for r in runs:
        assert r["exact"] and r["identical"], r
        opaque, transparent = r["opaque"], r["transparent"]
        assert opaque["s"] > 0 and transparent["s"] > 0, r
        assert opaque.keys() == transparent.keys()
        assert {"samples", "verification", "muls", "invs", "compares"} < opaque.keys()
        assert all(opaque[key] == transparent[key] for key in opaque if key != "s"), r
        assert opaque["verification"]["phi_homomorphism_checks"] == {"trials": 5, "passes": 5}, r
        assert opaque["muls"] > 0 and opaque["compares"] > 0, r
