"""CLI contract: modes, report schema, exit codes, determinism."""
import importlib.resources
import json
import subprocess
import sys

import jsonschema
import pytest

from bbsl2.backend import MatrixBackend
from bbsl2.cli import main
from bbsl2.field import ExplicitField


@pytest.fixture(scope="module")
def schema():
    text = importlib.resources.files("bbsl2").joinpath("report.schema.json").read_text()
    return json.loads(text)


def _run(tmp_path, argv, expect=0):
    out = tmp_path / "report.json"
    rc = main(argv + ["--out", str(out)])
    assert rc == expect, f"exit {rc} != {expect} for {argv}"
    return json.loads(out.read_text()) if out.exists() else None


def _strip_timing(report):
    for s in report.get("stages", []):
        s["elapsed_ms"] = 0.0
    return report


def test_recognize_odd_success_and_schema(tmp_path, schema):
    rep = _run(tmp_path, ["recognize-odd", "--p", "13", "--k", "1", "--seed", "7", "--trials", "50"])
    jsonschema.validate(rep, schema)
    assert rep["mode"] == "recognize-odd" and rep["seed"] == 7
    assert rep["params"]["q"] == 13 and rep["params"]["opaque"] is True
    assert rep["verification"]["phi_homomorphism_checks"] == {"trials": 50, "passes": 50}
    assert all(s["ok"] for s in rep["stages"])
    assert rep["structure_constants"] == {"p": 13, "k": 1, "c": [[[1]]]}


def test_recognize_char2_success_and_schema(tmp_path, schema):
    rep = _run(tmp_path, ["recognize-char2", "--n", "3", "--seed", "2", "--trials", "40"])
    jsonschema.validate(rep, schema)
    assert rep["params"] == {"p": 2, "k": 3, "q": 8, "center_quotient": False, "opaque": True}
    assert rep["verification"]["carrier_size"] == 8
    assert rep["verification"]["phi_homomorphism_checks"]["passes"] == 40


def test_frobenius_mode(tmp_path, schema):
    rep = _run(tmp_path, ["frobenius", "--p", "3", "--k", "2", "--seed", "1", "--trials", "40"])
    jsonschema.validate(rep, schema)
    v = rep["verification"]
    assert v["shift_order_identity"]["passes"] == 40
    assert v["shift_multiplicative"]["passes"] == 40
    assert v["fixes_unipotent_tuple"] and v["fixes_weyl_tuple"] and v["torus_tuple_power_map"]


def test_field_report_q9_has_eight_structure_entries(tmp_path, schema):
    rep = _run(tmp_path, ["field-report", "--p", "3", "--k", "2", "--seed", "4", "--trials", "20"])
    jsonschema.validate(rep, schema)
    c = rep["structure_constants"]["c"]
    entries = [x for plane in c for row in plane for x in row]
    assert len(entries) == 8
    F = ExplicitField(3, 2, c)
    import random

    F.validate(random.Random(0))


def test_selftest_mode(tmp_path, schema):
    rep = _run(tmp_path, ["selftest", "--seed", "0"])
    jsonschema.validate(rep, schema)
    assert all(rep["verification"].values())


def test_determinism_same_seed_bitwise(tmp_path):
    a = _run(tmp_path, ["recognize-odd", "--p", "13", "--k", "1", "--seed", "5", "--trials", "30"])
    b = _run(tmp_path, ["recognize-odd", "--p", "13", "--k", "1", "--seed", "5", "--trials", "30"])
    # timing is the single nondeterministic field; everything else is bitwise equal
    assert json.dumps(_strip_timing(a), sort_keys=True) == json.dumps(
        _strip_timing(b), sort_keys=True
    )


def test_different_seed_changes_sampling(tmp_path):
    a = _run(tmp_path, ["recognize-odd", "--p", "13", "--k", "1", "--seed", "5", "--trials", "10"])
    b = _run(tmp_path, ["recognize-odd", "--p", "13", "--k", "1", "--seed", "6", "--trials", "10"])
    assert [s["samples_used"] for s in a["stages"]] != [s["samples_used"] for s in b["stages"]]


def test_opaque_transparent_same_statistics(tmp_path):
    a = _run(tmp_path, ["recognize-odd", "--p", "13", "--k", "1", "--seed", "3", "--trials", "30", "--opaque"])
    b = _run(tmp_path, ["recognize-odd", "--p", "13", "--k", "1", "--seed", "3", "--trials", "30", "--transparent"])
    assert a["verification"] == b["verification"]
    assert [s["samples_used"] for s in a["stages"]] == [s["samples_used"] for s in b["stages"]]


def test_rejected_inputs_exit_1(tmp_path, capsys):
    assert main(["recognize-odd", "--p", "7", "--k", "1"]) == 1
    assert main(["recognize-odd", "--p", "2", "--k", "3"]) == 1
    assert main(["recognize-char2", "--p", "13"]) == 1
    assert main(["recognize-odd"]) == 1
    assert main(["recognize-odd", "--input", str(tmp_path / "missing.json")]) == 1
    assert main(["recognize-odd", "--p", "13", "--k", "1", "--n", "2"]) == 1
    capsys.readouterr()


def test_composite_p_exit_1(tmp_path, capsys):
    # a composite p is bad input, not a contract violation
    assert main(["recognize-odd", "--p", "9", "--k", "1"]) == 1
    assert "not a prime" in capsys.readouterr().err
    path = tmp_path / "f9.json"
    path.write_text(json.dumps({"p": 9, "k": 1, "c": [[[1]]]}))
    assert main(["field-report", "--input", str(path)]) == 1
    capsys.readouterr()


def test_usage_errors_exit_1():
    with pytest.raises(SystemExit) as e:
        main(["bogus-mode"])
    assert e.value.code == 1
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 1


def test_generator_file_input(tmp_path, schema):
    desc = {
        "p": 13,
        "k": 1,
        "center_quotient": False,
        "generators": [[[1, 2], [0, 1]], [[0, 2], [6, 0]]],
    }
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(desc))
    rep = _run(tmp_path, ["recognize-odd", "--input", str(path), "--seed", "3", "--trials", "30"])
    jsonschema.validate(rep, schema)
    assert rep["params"]["q"] == 13
    # --p disagreeing with the file is a rejected input
    assert main(["recognize-odd", "--input", str(path), "--p", "5"]) == 1


def test_generator_file_with_coordinate_vectors(tmp_path, schema):
    F = ExplicitField.polynomial_field(3, 2)
    be = MatrixBackend(F, center_quotient=True, opaque=False)
    vec = lambda a: list(F.coords(a))
    desc = {
        "p": 3,
        "k": 2,
        "center_quotient": True,
        "generators": [
            [[vec(e) for e in row] for row in m] for m in be.standard_generators()
        ],
    }
    path = tmp_path / "psl9.json"
    path.write_text(json.dumps(desc))
    rep = _run(tmp_path, ["recognize-odd", "--input", str(path), "--seed", "1", "--trials", "30"])
    jsonschema.validate(rep, schema)
    assert rep["params"]["center_quotient"] is True
    assert rep["verification"]["is_center_quotient"] is True


def test_field_report_accepts_explicit_field_json(tmp_path, schema):
    F = ExplicitField.polynomial_field(3, 2)
    path = tmp_path / "field.json"
    path.write_text(F.to_json())
    rep = _run(tmp_path, ["field-report", "--input", str(path)])
    jsonschema.validate(rep, schema)
    assert rep["verification"]["ring_iso_to_standard"] is True
    assert rep["structure_constants"]["c"] == [[list(r) for r in pl] for pl in F.c]


def test_monte_carlo_failure_exit_2_names_stage(tmp_path, schema):
    desc = {"p": 13, "k": 1, "center_quotient": False, "generators": [[[1, 0], [0, 1]]]}
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(desc))
    rep = _run(tmp_path, ["recognize-odd", "--input", str(path), "--seed", "0"], expect=2)
    jsonschema.validate(rep, schema)
    assert rep["verification"]["ok"] is False
    assert rep["verification"]["failed_stage"] == "unipotent"
    assert rep["stages"][-1]["ok"] is False


def test_contract_violation_exit_3(tmp_path, schema):
    # structure constants with zero divisors: not a field
    bad = {"p": 3, "k": 2, "c": [[[0, 0], [0, 0]], [[0, 0], [0, 1]]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    rep = _run(tmp_path, ["field-report", "--input", str(path)], expect=3)
    jsonschema.validate(rep, schema)
    assert rep["verification"]["ok"] is False


def test_console_script_entry_point(tmp_path):
    out = tmp_path / "st.json"
    proc = subprocess.run(
        [sys.executable, "-m", "bbsl2.cli", "selftest", "--seed", "1", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["mode"] == "selftest"
    assert proc.stdout == ""  # report went to the file, not stdout
