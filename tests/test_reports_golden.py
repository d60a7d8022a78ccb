"""Seeded CLI reports against golden copies.

``golden_reports.json`` holds the report of each case below with its
``elapsed_ms`` fields removed. Every field but ``elapsed_ms`` is a pure
function of the seed, so a refactor that keeps the oracle calls and the
sampling order reproduces each report exactly: stage names,
samples_used, verification, structure constants.

``field-report-gf81-input`` reports the isomorphism from a recovered
GF(3^4) presentation, the normal basis that ``recover_psl2`` finds for
SL2(81), so the isomorphism search really runs.
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
    "recognize-odd-13": ["recognize", "--p", "13", "--seed", "7", "--trials", "20"],
    "recognize-odd-9": ["recognize", "--p", "3", "--k", "2", "--seed", "1", "--trials", "20"],
    "recognize-odd-psl13-input": ["recognize", "--input", "{psl13}", "--seed", "3", "--trials", "20"],
    "recognize-char2-8": ["recognize", "--p", "2", "--k", "3", "--seed", "2", "--trials", "20"],
    "field-report-gf81-input": ["field-report", "--input", "{gf81}"],
    "selftest-1": ["selftest", "--seed", "1"],
}


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


@pytest.mark.parametrize("name", CASES)
def test_recognition_report_matches_golden(name, tmp_path):
    assert run_case(CASES[name], tmp_path) == GOLDEN[name]

