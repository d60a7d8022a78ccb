"""Seeded CLI reports against golden copies.

``golden_reports.json`` holds the report of each case below with its
``elapsed_ms`` fields removed, as written by the CLI before frame
finding and the recognition tail were shared between the pipelines.
Every other field is a pure function of the seed, so a refactor that
keeps the oracle calls and the sampling order reproduces each report
exactly: stage names, samples_used, verification, structure constants.
"""
import json
from pathlib import Path

import pytest

from bbsl2.cli import main

GOLDEN = json.loads(Path(__file__).with_name("golden_reports.json").read_text())

# PSL2(13) given by u(1) and the Weyl element n(1)
PSL13 = {
    "p": 13,
    "k": 1,
    "center_quotient": True,
    "generators": [[[1, 1], [0, 1]], [[0, 1], [12, 0]]],
}

CASES = {
    "recognize-odd-13": ["recognize-odd", "--p", "13", "--seed", "7", "--trials", "20"],
    "recognize-odd-9": ["recognize-odd", "--p", "3", "--k", "2", "--seed", "1", "--trials", "20"],
    "recognize-odd-psl13-input": ["recognize-odd", "--input", "{psl13}", "--seed", "3", "--trials", "20"],
    "recognize-char2-8": ["recognize-char2", "--n", "3", "--seed", "2", "--trials", "20"],
    "frobenius-9": ["frobenius", "--p", "3", "--k", "2", "--seed", "1", "--trials", "20"],
}

# the frobenius report's single "frame" stage is now the four stages of
# find_standard_generators; their samples add up to the old total
FRAME_STAGES = [("unipotent", 3), ("classify", 1), ("torus", 18), ("weyl", 3)]


def run_case(argv, tmp_path) -> dict:
    psl13 = tmp_path / "psl13.json"
    psl13.write_text(json.dumps(PSL13))
    out = tmp_path / "report.json"
    assert main([a.format(psl13=psl13) for a in argv] + ["--out", str(out)]) == 0
    report = json.loads(out.read_text())
    for stage in report["stages"]:
        del stage["elapsed_ms"]
    return report


@pytest.mark.parametrize("name", [n for n in CASES if not n.startswith("frobenius")])
def test_recognition_report_matches_golden(name, tmp_path):
    assert run_case(CASES[name], tmp_path) == GOLDEN[name]


def test_frobenius_report_splits_frame_stage(tmp_path):
    got = run_case(CASES["frobenius-9"], tmp_path)
    want = GOLDEN["frobenius-9"]
    frame = [(s["name"], s["samples_used"]) for s in got["stages"][:4]]
    assert frame == FRAME_STAGES
    assert all(s["ok"] for s in got["stages"])
    old_frame, *old_rest = want["stages"]
    assert old_frame["name"] == "frame"
    assert sum(n for _, n in FRAME_STAGES) == old_frame["samples_used"]
    assert got["stages"][4:] == old_rest
    assert {k: v for k, v in got.items() if k != "stages"} == {
        k: v for k, v in want.items() if k != "stages"
    }
