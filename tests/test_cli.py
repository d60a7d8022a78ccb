"""CLI contract: modes, report schema, exit codes, determinism."""
import argparse
import importlib.resources
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from bbsl2 import backend
from bbsl2.backend import MatrixBackend
from bbsl2.cli import _build_parser, main
from bbsl2.field import ExplicitField

from brute import scrambled

README = Path(__file__).resolve().parents[1] / "README.md"


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
    rep = _run(tmp_path, ["recognize", "--p", "13", "--k", "1", "--seed", "7", "--trials", "50"])
    jsonschema.validate(rep, schema)
    assert rep["mode"] == "recognize" and rep["seed"] == 7
    assert rep["params"]["q"] == 13 and rep["params"]["opaque"] is True
    assert rep["verification"]["phi_homomorphism_checks"] == {"trials": 50, "passes": 50}
    assert all(s["ok"] for s in rep["stages"])
    assert rep["structure_constants"] == {"p": 13, "k": 1, "c": [[[1]]]}


def test_recognize_char2_success_and_schema(tmp_path, schema):
    rep = _run(tmp_path, ["recognize", "--p", "2", "--k", "3", "--seed", "2", "--trials", "40"])
    jsonschema.validate(rep, schema)
    assert rep["params"] == {"p": 2, "k": 3, "q": 8, "center_quotient": False, "opaque": True}
    assert set(rep["verification"]) == {"phi_homomorphism_checks", "is_center_quotient", "iso_matrix"}
    assert rep["verification"]["phi_homomorphism_checks"]["passes"] == 40


def test_field_report_q9_has_eight_structure_entries(tmp_path, schema):
    # the structure_constants object of a recognition report is a field file
    rep = _run(tmp_path, ["recognize", "--p", "3", "--k", "2", "--seed", "4", "--trials", "20"])
    c = rep["structure_constants"]["c"]
    entries = [x for plane in c for row in plane for x in row]
    assert len(entries) == 8
    path = tmp_path / "gf9.json"
    path.write_text(json.dumps(rep["structure_constants"]))
    rep = _run(tmp_path, ["field-report", "--input", str(path)])
    jsonschema.validate(rep, schema)
    assert list(rep["verification"]) == ["iso_matrix"]
    assert rep["structure_constants"]["c"] == c


def test_selftest_mode(tmp_path, schema):
    rep = _run(tmp_path, ["selftest", "--seed", "0"])
    jsonschema.validate(rep, schema)
    assert rep["params"] == {"trials": 200}
    assert all(rep["verification"].values())
    for group in ("sl2_5", "psl2_9", "sl2_16"):
        assert rep["verification"][f"{group}_verified"] is True
        assert rep["verification"][f"{group}_opaque_matches_transparent"] is True
    assert rep["verification"]["identity_encodings_differ_bitwise"] is True


def test_selftest_names_every_group_under_a_broken_kernel(tmp_path, monkeypatch, capsys):
    # only the boxes multiply wrongly: the verify stage keeps its field's kernel
    real = backend.MatrixBackend.__init__

    def swapped(self, *args, **kwargs):
        real(self, *args, **kwargs)
        mul = self.mul

        def bad(a, b):
            (w, x), (y, z) = mul(a, b)
            return ((x, w), (y, z))

        self.mul = bad

    monkeypatch.setattr(backend.MatrixBackend, "__init__", swapped)
    rep = _run(tmp_path, ["selftest"], expect=3)
    err = capsys.readouterr().err
    for group in ("sl2_5", "psl2_9", "sl2_16"):
        assert f"{group}_verified" in err
        assert rep["verification"][f"{group}_verified"] is False
        assert rep["verification"][f"{group}_opaque_matches_transparent"] is False


def test_determinism_same_seed_bitwise(tmp_path):
    a = _run(tmp_path, ["recognize", "--p", "13", "--k", "1", "--seed", "5", "--trials", "30"])
    b = _run(tmp_path, ["recognize", "--p", "13", "--k", "1", "--seed", "5", "--trials", "30"])
    # timing is the single nondeterministic field; everything else is bitwise equal
    assert json.dumps(_strip_timing(a), sort_keys=True) == json.dumps(
        _strip_timing(b), sort_keys=True
    )


def test_different_seed_changes_sampling(tmp_path):
    a = _run(tmp_path, ["recognize", "--p", "13", "--k", "1", "--seed", "5", "--trials", "10"])
    b = _run(tmp_path, ["recognize", "--p", "13", "--k", "1", "--seed", "6", "--trials", "10"])
    assert [s["samples_used"] for s in a["stages"]] != [s["samples_used"] for s in b["stages"]]


def test_opaque_transparent_same_statistics(tmp_path):
    a = _run(tmp_path, ["recognize", "--p", "13", "--k", "1", "--seed", "3", "--trials", "30"])
    b = _run(tmp_path, ["recognize", "--p", "13", "--k", "1", "--seed", "3", "--trials", "30", "--transparent"])
    assert a["verification"] == b["verification"]
    assert [s["samples_used"] for s in a["stages"]] == [s["samples_used"] for s in b["stages"]]


def test_rejected_inputs_exit_1(tmp_path, capsys):
    assert main(["recognize", "--p", "7", "--k", "1"]) == 1
    assert main(["recognize"]) == 1
    assert main(["recognize", "--k", "3"]) == 1
    assert main(["recognize", "--input", str(tmp_path / "missing.json")]) == 1
    not_utf8 = tmp_path / "not-utf8.json"
    not_utf8.write_bytes(b"\xff\xfe\x00")
    assert main(["recognize", "--input", str(not_utf8)]) == 1
    assert "bbsl2: rejected input" in capsys.readouterr().err
    # an --out that is a directory, or in a missing one: rejected before the run
    for out in (tmp_path, tmp_path / "missing" / "report.json"):
        assert main(["recognize", "--p", "13", "--out", str(out)]) == 1
        assert "bbsl2: rejected input" in capsys.readouterr().err
    # a generators value that is not a list, and a generator whose rows are not lists
    for n, gens in enumerate([5, [[1, 2]]]):
        path = tmp_path / f"bad{n}.json"
        path.write_text(json.dumps({"p": 13, "k": 1, "generators": gens}))
        assert main(["recognize", "--input", str(path)]) == 1
        assert "bbsl2: rejected input" in capsys.readouterr().err
    # JSON floats, strings and bools where integers or a boolean belong: int() and
    # bool() would read p = 3.9 as 3, "3" as 3, true as 1 and "false" as True
    gens = [[[1, 1], [0, 1]], [[0, 1], [12, 0]]]
    bad_files = [
        ("field-report", {"p": 3.9, "k": 1, "c": [[[1.7]]]}),
        ("field-report", {"p": "3", "k": 1, "c": [[[1]]]}),
        ("field-report", {"p": 3, "k": True, "c": [[[1]]]}),
        ("field-report", {"p": 3, "k": 1, "c": [[[True]]]}),
        ("recognize", {"p": 13, "k": 1, "center_quotient": "false", "generators": gens}),
        ("recognize", {"p": 13, "k": True, "generators": gens}),
        ("recognize", {"p": 2, "k": "4", "generators": gens}),
        ("recognize", {"p": 2, "k": None, "generators": gens}),
        ("recognize", {"p": 13, "k": 1, "generators": [[[True, 1], [0, 1]], gens[1]]}),
    ]
    for n, (mode, desc) in enumerate(bad_files):
        path = tmp_path / f"loose{n}.json"
        path.write_text(json.dumps(desc))
        assert main([mode, "--input", str(path)]) == 1, desc
        assert "bbsl2: rejected input" in capsys.readouterr().err
    # a degree below 1, from the flags: rejected before any irreducible is searched for
    for argv in (
        ["recognize", "--p", "5", "--k", "0"],
        ["recognize", "--p", "5", "--k", "-1"],
        ["recognize", "--p", "2", "--k", "0"],
        ["recognize", "--p", "2", "--k", "-1"],
    ):
        assert main(argv) == 1, argv
        assert "bbsl2: rejected input" in capsys.readouterr().err


@pytest.mark.parametrize("trials", ["0", "-5"])
@pytest.mark.parametrize("group", [["--p", "13", "--k", "1"], ["--p", "2", "--k", "3"]],
                         ids=["recognize-odd", "recognize-char2"])
def test_trials_below_one_exit_1(group, trials, tmp_path, capsys):
    # a report of zero trials would read as verified while checking nothing
    out = tmp_path / "report.json"
    assert main(["recognize", *group, "--trials", trials, "--out", str(out)]) == 1
    assert "trial" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["recognize", "--p", "13"], ["selftest"]],
                         ids=["recognize-odd", "selftest"])
def test_negative_seed_exit_1(argv, tmp_path, capsys):
    # Random(-s) draws the stream of Random(s), and the report schema wants seed >= 0
    out = tmp_path / "report.json"
    assert main(argv + ["--seed", "-1", "--out", str(out)]) == 1
    assert "bbsl2: rejected input" in capsys.readouterr().err
    assert not out.exists()


def test_composite_p_exit_1(tmp_path, capsys):
    # a composite p is bad input, not a contract violation
    assert main(["recognize", "--p", "9", "--k", "1"]) == 1
    assert "not a prime" in capsys.readouterr().err
    path = tmp_path / "f9.json"
    path.write_text(json.dumps({"p": 9, "k": 1, "c": [[[1]]]}))
    assert main(["field-report", "--input", str(path)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["recognize", "--p", "7"],
    ["recognize", "--p", "1000003"],
    ["recognize", "--p", "4", "--k", "3"],
    ["recognize", "--p", "2", "--k", "1"],
    ["recognize", "--p", "2", "--k", "0"],
    ["recognize", "--p", "3", "--k", "14"],
    ["recognize", "--p", "3", "--k", "100000"],
    ["recognize", "--p", "1048601"],
    ["recognize", "--p", "2", "--k", "21"],
    ["recognize", "--p", "1", "--k", "2"],
    ["recognize", "--p", "0"],
    ["recognize", "--p", "-3"],
])
def test_bad_group_parameters_exit_1_before_a_field_is_built(argv, monkeypatch, capsys):
    # q = 3 mod 4, an even p that is not 2, SL2(2), q above 2^20, or a p
    # below 2: the field of a large q would cost seconds and hundreds of MB
    # before the pipeline said no
    def no_field(p, k):
        raise AssertionError(f"built GF({p}^{k}) for rejected parameters")

    monkeypatch.setattr(ExplicitField, "polynomial_field", no_field)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "bbsl2: rejected input" in err
    if int(argv[2]) < 2:  # named as no prime, not as an even characteristic
        assert "not a prime" in err


def test_field_file_above_2_20_elements_exit_1_before_a_field_is_built(tmp_path, monkeypatch, capsys):
    # validating GF(1048583) would build the standard field's million-entry tables
    def no_field(p, k):
        raise AssertionError(f"built GF({p}^{k}) for a field file above 2^20 elements")

    monkeypatch.setattr(ExplicitField, "polynomial_field", no_field)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"p": 1048583, "k": 1, "c": [[[1]]]}))
    assert main(["field-report", "--input", str(path)]) == 1
    assert "at most 2^20 elements" in capsys.readouterr().err


def test_char2_without_k_names_the_degree_before_a_field_is_built(monkeypatch, capsys):
    # --k defaults to 1 at every p, and SL2(2) is out of scope
    def no_field(p, k):
        raise AssertionError(f"built GF({p}^{k}) for SL2(2)")

    monkeypatch.setattr(ExplicitField, "polynomial_field", no_field)
    assert main(["recognize", "--p", "2", "--trials", "5"]) == 1
    assert "the degree must be at least 2" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["centre_quotient", "n"])
def test_group_file_with_an_unknown_key_names_it(key, tmp_path, capsys):
    # a misspelled key would otherwise take its default silently: PSL2(13) read as SL2(13)
    path = tmp_path / "psl13.json"
    path.write_text(json.dumps({"p": 13, "k": 1, key: True,
                                "generators": [[[1, 1], [0, 1]], [[0, 1], [12, 0]]]}))
    out = tmp_path / "report.json"
    assert main(["recognize", "--input", str(path), "--out", str(out)]) == 1
    assert f"unknown key '{key}'" in capsys.readouterr().err
    assert not out.exists()


def _char2_group_file(path, n: int, torus) -> Path:
    """u(1), h(t) for each t in ``torus(F)``, and n(1), over the standard GF(2^n)."""
    F = ExplicitField.polynomial_field(2, n)
    vec = lambda a: list(F.coords(a))
    tori = [[[vec(t), 0], [0, vec(F.inv(t))]] for t in torus(F)]
    path.write_text(json.dumps({"p": 2, "k": n,
                                "generators": [[[1, 1], [0, 1]], *tori, [[0, 1], [1, 0]]]}))
    return path


def test_char2_group_file_recognizes(tmp_path, schema):
    # u(1), h(x) and n(1) over GF(8): the same mode as for odd p
    path = _char2_group_file(tmp_path / "sl8.json", 3, lambda F: [F.element((0, 1, 0))])
    rep = _run(tmp_path, ["recognize", "--input", str(path), "--seed", "2", "--trials", "30"])
    jsonschema.validate(rep, schema)
    assert rep["params"] == {"p": 2, "k": 3, "q": 8, "center_quotient": False, "opaque": True}
    assert rep["verification"]["phi_homomorphism_checks"] == {"trials": 30, "passes": 30}
    # --input alone gives p and k, so --k beside it is a rejected input
    assert main(["recognize", "--input", str(path), "--k", "4"]) == 1


# (n, torus): SL2(2) = <u(1), n(1)> in SL2(8), and SL2(4) = <u(1), h(w), n(1)>
# in SL2(16), where w = g^5 has order 3 for a primitive g, so F_4 = {0, 1, w, w^2}
_CHAR2_SUBFIELD_GROUPS = {
    "SL2(2)-as-SL2(8)": (3, lambda F: []),
    "SL2(4)-as-SL2(16)": (4, lambda F: [F.pow(F.primitive_element(), 5)]),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", _CHAR2_SUBFIELD_GROUPS)
def test_char2_subfield_group_exit_3_at_the_field_stage(name, seed, tmp_path, schema, capsys):
    # no conjugator's scalar generates GF(2^n): a true SL2(2^n) fails every
    # draw with probability at most 2^-40, so this is no retryable budget
    n, torus = _CHAR2_SUBFIELD_GROUPS[name]
    path = _char2_group_file(tmp_path / "sub.json", n, torus)
    rep = _run(tmp_path, ["recognize", "--input", str(path), "--seed", str(seed)], expect=3)
    jsonschema.validate(rep, schema)
    assert rep["verification"]["failed_stage"] == "field"
    assert "contract violation" in capsys.readouterr().err


def _mode_parsers() -> dict:
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def test_schema_modes_are_the_cli_modes(schema):
    # a mode deleted from the parser must not linger in the report schema
    assert sorted(schema["properties"]["mode"]["enum"]) == sorted(_mode_parsers())


def test_readme_lists_each_modes_flags():
    # one README line per mode, "- `mode`: `--flag` ...", names exactly the
    # flags its subparser takes, so a flag added or dropped shows there
    contract = README.read_text(encoding="utf-8").split("## CLI contract", 1)[1].split("\n## ", 1)[0]
    readme = {mode: set(re.findall(r"--[a-z0-9-]+", flags))
              for mode, flags in re.findall(r"^- `([a-z0-9-]+)`: (.*)$", contract, re.M)}
    parser = {mode: {opt for a in sub._actions for opt in a.option_strings} - {"-h", "--help"}
              for mode, sub in _mode_parsers().items()}
    assert readme == parser


def test_usage_errors_exit_1(capsys):
    for mode in ("bogus-mode", "frobenius"):
        with pytest.raises(SystemExit) as e:
            main([mode, "--p", "3", "--k", "4"])
        assert e.value.code == 1
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 1
    # one recognition mode, whose degree is --k at every p
    for argv, err in ((["recognize-odd", "--p", "13"], "invalid choice"),
                      (["recognize-char2", "--n", "3"], "invalid choice"),
                      (["recognize", "--n", "3"], "unrecognized arguments")):
        capsys.readouterr()
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 1, argv
        assert err in capsys.readouterr().err


def test_generator_file_input(tmp_path, schema, capsys):
    desc = {
        "p": 13,
        "k": 1,
        "center_quotient": False,
        "generators": [[[1, 2], [0, 1]], [[0, 2], [6, 0]]],
    }
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(desc))
    rep = _run(tmp_path, ["recognize", "--input", str(path), "--seed", "3", "--trials", "30"])
    jsonschema.validate(rep, schema)
    assert rep["params"]["q"] == 13
    # --input alone gives p and k: --p or --k beside it is a rejected
    # input, even where it agrees with the file
    for flags in (["--p", "5"], ["--k", "2"], ["--p", "13"], ["--k", "1"]):
        capsys.readouterr()
        assert main(["recognize", "--input", str(path)] + flags) == 1, flags
        assert "--input gives p and k" in capsys.readouterr().err, flags


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
    rep = _run(tmp_path, ["recognize", "--input", str(path), "--seed", "1", "--trials", "30"])
    jsonschema.validate(rep, schema)
    assert rep["params"]["center_quotient"] is True
    assert rep["verification"]["is_center_quotient"] is True


def test_field_report_accepts_explicit_field_json(tmp_path, schema):
    F = ExplicitField.polynomial_field(3, 2)
    path = tmp_path / "field.json"
    path.write_text(json.dumps(F.to_dict()))
    rep = _run(tmp_path, ["field-report", "--input", str(path)])
    jsonschema.validate(rep, schema)
    assert list(rep["verification"]) == ["iso_matrix"]
    assert rep["structure_constants"]["c"] == [[list(r) for r in pl] for pl in F.c]


@pytest.mark.parametrize("flags", [
    ["--p", "5"], ["--k", "7"], ["--n", "3"], ["--trials", "200"], ["--opaque"], ["--transparent"],
    ["--seed", "5"],
])
def test_field_report_rejects_flags_a_field_file_ignores(tmp_path, capsys, flags):
    # a field file is not recognized: it names its own p and k, and has no
    # trials, no strings and no randomness, so a group, codec or seed flag
    # is a usage error
    path = tmp_path / "gf9.json"
    path.write_text(json.dumps(ExplicitField.polynomial_field(3, 2).to_dict()))
    with pytest.raises(SystemExit) as e:
        main(["field-report", "--input", str(path)] + flags)
    assert e.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_monte_carlo_failure_exit_2_names_stage(tmp_path, schema):
    desc = {"p": 13, "k": 1, "center_quotient": False, "generators": [[[1, 0], [0, 1]]]}
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(desc))
    rep = _run(tmp_path, ["recognize", "--input", str(path), "--seed", "0"], expect=2)
    jsonschema.validate(rep, schema)
    assert rep["verification"]["ok"] is False
    assert rep["verification"]["failed_stage"] == "unipotent"
    assert rep["stages"][-1]["ok"] is False


def test_contract_violation_exit_3(tmp_path, schema):
    # structure constants with zero divisors: not a field; the second,
    # F_3[x]/(x^2 - 1) = F_3 x F_3, has a unity and satisfies every ring axiom
    for c in ([[[0, 0], [0, 0]], [[0, 0], [0, 1]]], [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"p": 3, "k": 2, "c": c}))
        rep = _run(tmp_path, ["field-report", "--input", str(path)], expect=3)
        jsonschema.validate(rep, schema)
        assert rep["verification"]["ok"] is False


def test_changed_structure_constant_names_the_basis_pair(tmp_path, capsys):
    # GF(2^4) on a scrambled basis with one constant flipped: it keeps a unity
    # and a primitive element, and only a basis product tells it from a field
    desc = scrambled(ExplicitField.polynomial_field(2, 4), 11).to_dict()
    desc["c"][1][0][0] ^= 1
    path = tmp_path / "bad16.json"
    path.write_text(json.dumps(desc))
    _run(tmp_path, ["field-report", "--input", str(path)], expect=3)
    assert "basis pair" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--input", "/nonexistent.json"], ["--p", "4"], ["--k", "0"], ["--n", "3"], ["--trials", "5"],
    ["--opaque"], ["--transparent"],
])
def test_selftest_rejects_group_flags(flags, capsys):
    # selftest builds its own boxes and runs both string kinds: a group or
    # codec flag would be ignored, so it is a usage error
    with pytest.raises(SystemExit) as e:
        main(["selftest", "--seed", "1"] + flags)
    assert e.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_recognize_odd_reads_a_group_file_once(tmp_path, monkeypatch):
    path = tmp_path / "psl13.json"
    path.write_text(json.dumps({"p": 13, "k": 1, "center_quotient": True,
                                "generators": [[[1, 1], [0, 1]], [[0, 1], [12, 0]]]}))
    real_open, reads = open, []

    def counting_open(file, *args, **kwargs):
        if str(file) == str(path):
            reads.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    _run(tmp_path, ["recognize", "--input", str(path), "--seed", "3", "--trials", "5"])
    assert len(reads) == 1


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


def _quick_start_commands():
    block = README.read_text(encoding="utf-8").split("## Quick start", 1)[1].split("```", 2)[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("bbsl2 ")]


@pytest.mark.parametrize("argv", _quick_start_commands(), ids=" ".join)
def test_readme_quick_start_runs(argv, tmp_path, monkeypatch):
    # the README's first commands, as a reader would type them, in a fresh directory
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
