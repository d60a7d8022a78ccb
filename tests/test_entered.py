"""Every function in the package runs, or is named here with its reason.

A fresh interpreter runs the three CLI modes under ``sys.setprofile``:
``selftest``, ``recognize --input`` on the standard generators of
PSL2(9) written as length-k coordinate vectors, on transparent strings,
and ``field-report`` on that run's structure constants. Every ``def`` in
``src/bbsl2``, nested closures included, is found by AST and matched to
the code objects entered by file and first line (a decorated function's
code starts at its first decorator). The functions never entered must be
exactly ``UNENTERED``: code that only tests call belongs in
``tests/brute.py``, and a listed function that gains a caller leaves the
list.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from bbsl2.backend import MatrixBackend
from bbsl2.field import ExplicitField

SRC = Path(__file__).resolve().parents[1] / "src"

UNENTERED = {
    "rejection and alternate-input paths: bad arguments, a failed run, "
    "strings made outside the backend, GL2 boxes": [
        "cli._Parser.error",
        "cli._failure_report",
        "errors.MonteCarloFailure.__init__",
        "backend.MatrixBackend._bind_codec.parse",
        "backend.MatrixBackend._bind_codec.decrypt",
        "backend.MatrixBackend._bind_codec.decode",
        "backend.mat_inv2",
        "blackbox.ElementString.__init__",
        "blackbox.ElementString.__repr__",
    ],
    "a tuple string's bytes, made only when read; no run reads them": [
        "blackbox._join_bytes",
    ],
    "abstract: each box binds its own raw operations": [
        "blackbox.BlackBoxGroup._mul",
        "blackbox.BlackBoxGroup._inv",
        "blackbox.BlackBoxGroup._compare",
    ],
    "the field axioms of the recovered field, which criterion 3 checks": [
        "bbfield.BlackBoxField.zero",
        "bbfield.BlackBoxField.add",
        "bbfield.BlackBoxField.read_int",
        "sl2char2.Char2Field.eq",
        "sl2char2.Char2Field.add",
        "sl2char2.Char2Field.mul",
        "sl2char2.Char2Field.read_int",
    ],
    "kept for the subfield frame, which will sample a SubgroupBox": [
        "blackbox.SubgroupBox._count_sample",
    ],
    "hooked by the benchmark's trace; they leave with its next change": [
        "field.ExplicitField._mul_raw",
        "sl2char2.enumerate_unipotent",
        "involutions.bray_element",
        "involutions.bray_centralizer",
    ],
    "read by the benchmark's morphism-apply check (`perfbench/workloads.py`); "
    "it leaves with the benchmark's next change": [
        "field.ExplicitField.pow",
    ],
}

_CHILD = r"""
import contextlib, io, json, os, sys
import bbsl2
from bbsl2 import cli

group, report, field = sys.argv[1:]
pkg = os.path.dirname(bbsl2.__file__)
codes = set()
sys.setprofile(lambda frame, event, arg: codes.add(frame.f_code))
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    status = [cli.main(["selftest"])]
    status.append(cli.main(["recognize", "--input", group, "--transparent", "--out", report]))
    with open(report) as src, open(field, "w") as dst:
        json.dump(json.load(src)["structure_constants"], dst)
    status.append(cli.main(["field-report", "--input", field]))
sys.setprofile(None)
entered = {(os.path.basename(c.co_filename), c.co_firstlineno)
           for c in codes if os.path.dirname(c.co_filename) == pkg}
print(json.dumps({"status": status, "entered": sorted(entered)}))
"""


def package_functions() -> dict[tuple[str, int], str]:
    """Every def in the package by (file name, first line of its code),
    named module.Class.function, with enclosing functions for a closure."""
    out = {}

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                out[(path.name, line)] = f"{scope}.{child.name}"
                visit(child, path, f"{scope}.{child.name}")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{scope}.{child.name}")
            else:
                visit(child, path, scope)

    for path in sorted((SRC / "bbsl2").glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path, path.stem)
    return out


def _group_file(path: Path) -> None:
    F = ExplicitField.polynomial_field(3, 2)
    gens = MatrixBackend(F, center_quotient=True).standard_generators()
    desc = {"p": 3, "k": 2, "center_quotient": True,
            "generators": [[[list(F.coords(x)) for x in row] for row in m] for m in gens]}
    path.write_text(json.dumps(desc))


def test_every_package_function_runs_or_is_listed(tmp_path):
    group = tmp_path / "psl2_9.json"
    _group_file(group)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(group), str(tmp_path / "report.json"), str(tmp_path / "field.json")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["status"] == [0, 0, 0]
    entered = {tuple(key) for key in result["entered"]}
    never = {name for key, name in package_functions().items() if key not in entered}
    listed = {name for names in UNENTERED.values() for name in names}
    unlisted, stale = sorted(never - listed), sorted(listed - never)
    assert not unlisted and not stale, (
        f"never entered and not listed (move to tests/brute.py, or list with a reason): {unlisted}; "
        f"listed but entered or gone (take off the list): {stale}"
    )
