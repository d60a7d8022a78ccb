"""Seeded CLI reports against golden copies.

``golden_reports.json`` holds the report of each case below with its
``elapsed_ms`` fields removed, as written by the CLI before frame
finding and the recognition tail were shared between the pipelines.
The ``recognize-char2-8`` entry was re-captured when characteristic 2
began reading coordinates through the trace form, which changed its
stages, basis and verification keys. The ``frobenius-9`` verify stage
(0 -> 60 samples) and the ``recognize-odd-psl13-input`` weyl stage
(24 -> 25) were re-captured when draws from ``SubgroupBox`` and
``DirectProductBox`` wrappers began to count on the base box; that
weyl stage was re-captured again (25 -> 1) when PSL2 stopped searching
the involution centralizer and began to share the SL2 sweep over
random conjugates of u. Every field but ``elapsed_ms`` is a pure
function of the seed, so a refactor that keeps the oracle calls and the
sampling order reproduces each report exactly: stage names,
samples_used, verification, structure constants.

``field-report-gf81-input`` was captured just before the CLI began to
read its input once and to build every report through one helper. It
reports the isomorphism from a recovered GF(3^4) presentation, the
normal basis that ``recover_psl2`` finds for SL2(81), so the isomorphism
search really runs. ``selftest-1`` was re-captured when selftest began
to run three recognitions on both string kinds instead of checking the
backend against brute-force matrices: its verification keys name the
groups, and its ``params`` hold the trial count instead of ``opaque``.
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

# GF(3^4) on the normal basis x, x^3, x^9, x^27 of the SL2(81) recognition
# (box seed 1000, Random(0)): the unity is 2 * (sum of the basis), not basis 0
GF81 = {
    "p": 3,
    "k": 4,
    "c": [
        [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [2, 2, 2, 2]],
        [[0, 0, 1, 0], [0, 0, 0, 1], [2, 2, 2, 2], [1, 0, 0, 0]],
        [[0, 0, 0, 1], [2, 2, 2, 2], [1, 0, 0, 0], [0, 1, 0, 0]],
        [[2, 2, 2, 2], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
    ],
}

CASES = {
    "recognize-odd-13": ["recognize-odd", "--p", "13", "--seed", "7", "--trials", "20"],
    "recognize-odd-9": ["recognize-odd", "--p", "3", "--k", "2", "--seed", "1", "--trials", "20"],
    "recognize-odd-psl13-input": ["recognize-odd", "--input", "{psl13}", "--seed", "3", "--trials", "20"],
    "recognize-char2-8": ["recognize-char2", "--n", "3", "--seed", "2", "--trials", "20"],
    "frobenius-9": ["frobenius", "--p", "3", "--k", "2", "--seed", "1", "--trials", "20"],
    "field-report-gf81-input": ["field-report", "--input", "{gf81}", "--seed", "5"],
    "selftest-1": ["selftest", "--seed", "1"],
}

# the frobenius report's single "frame" stage is now the four stages of
# find_standard_generators; their samples add up to the old total
FRAME_STAGES = [("unipotent", 3), ("classify", 1), ("torus", 18), ("weyl", 3)]


def run_case(argv, tmp_path) -> dict:
    psl13 = tmp_path / "psl13.json"
    psl13.write_text(json.dumps(PSL13))
    gf81 = tmp_path / "gf81.json"
    gf81.write_text(json.dumps(GF81))
    out = tmp_path / "report.json"
    assert main([a.format(psl13=psl13, gf81=gf81) for a in argv] + ["--out", str(out)]) == 0
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
