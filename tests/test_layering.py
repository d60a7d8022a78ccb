"""The algorithm reaches matrices only through the black box, and F_q
has one representation, known to one module.

An AST walk over ``src/bbsl2``: no module other than ``backend.py``,
``cli.py`` and ``__init__.py`` imports ``backend``, no module other
than ``field.py`` reads the attribute ``_tables`` or ``_c00`` of
anything but ``self``, and no module other than ``backend.py`` and
``blackbox.py`` reads a handle's ``_value``, ``_seal`` or ``_data``.
A handle holds its plaintext matrix on either kind of string, so an
algorithm that read it would act alike on opaque and transparent boxes,
and no comparison of the two could see it.
"""
import ast
from pathlib import Path

import pytest

from bbsl2.backend import MatrixBackend
from bbsl2.field import ExplicitField

SRC = Path(__file__).resolve().parents[1] / "src" / "bbsl2"
TRUSTED = {"backend.py", "cli.py", "__init__.py"}
REPRESENTATION = {"_tables", "_c00"}
HANDLE = {"_value", "_seal", "_data"}
HANDLE_MODULES = {"backend.py", "blackbox.py"}


def findings(src: Path) -> list[str]:
    out = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                modules = [base] + [f"{base}.{a.name}" for a in node.names]
            else:
                modules = []
            if path.name not in TRUSTED and any("backend" in m.split(".") for m in modules):
                out.append(f"{path.name}:{node.lineno} imports backend")
            if (
                isinstance(node, ast.Attribute)
                and node.attr in REPRESENTATION
                and path.name != "field.py"
                and not (isinstance(node.value, ast.Name) and node.value.id == "self")
            ):
                out.append(f"{path.name}:{node.lineno} reads {node.attr}")
            if isinstance(node, ast.Attribute) and node.attr in HANDLE and path.name not in HANDLE_MODULES:
                out.append(f"{path.name}:{node.lineno} reads {node.attr}")
    return out


def test_no_algorithm_module_imports_the_backend_or_reads_the_tables():
    assert findings(SRC) == []


def test_a_module_reading_a_handles_matrix_is_found(tmp_path):
    (tmp_path / "peek.py").write_text("def peek(box, x):\n    return box.mul(x, x)._value\n")
    assert findings(tmp_path) == ["peek.py:2 reads _value"]
    # the same module is allowed where handles are made
    (tmp_path / "peek.py").rename(tmp_path / "blackbox.py")
    assert findings(tmp_path) == []


@pytest.mark.parametrize("p, k", [(13, 1), (3, 2), (2, 3)])
def test_backends_over_one_field_share_its_kernel(p, k):
    F = ExplicitField.polynomial_field(p, k)
    assert MatrixBackend(F).mul is MatrixBackend(F, special=False, opaque=False).mul is F.matmul
