"""The traced benchmark run's hooks still name live functions.

``perfbench/tracing.py`` rebinds the functions and methods listed in its
``SPANS``, ``HOT`` and ``COUNTED`` tables by (module, qualified name),
and raises if one is missing. The tables are read here from the source
with ``ast.literal_eval``, so a rename in the package fails this test
instead of the traced run.
"""
import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
TABLES = ("SPANS", "HOT", "COUNTED")


def hook_tables() -> dict[str, list]:
    tables = {}
    for node in ast.parse(TRACING.read_text(), str(TRACING)).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in TABLES:
                tables[name] = ast.literal_eval(node.value)
    return tables


HOOKS = [hook for table in hook_tables().values() for hook in table]


def test_all_tables_found():
    assert sorted(hook_tables()) == sorted(TABLES)
    assert HOOKS


@pytest.mark.parametrize("module, qualname, name", HOOKS, ids=[h[2] for h in HOOKS])
def test_hook_resolves(module, qualname, name):
    # the tracer reads a method from its owner's own __dict__, so a method
    # inherited from a base class would fail the traced run
    *path, attr = qualname.split(".")
    owner = importlib.import_module(module)
    for part in path:
        owner = getattr(owner, part)
    raw = vars(owner)[attr]
    assert callable(getattr(raw, "__func__", raw))


def test_polynomial_field_is_a_classmethod():
    # the tracer rewraps a classmethod through its __func__
    from bbsl2.field import ExplicitField

    assert isinstance(ExplicitField.__dict__["polynomial_field"], classmethod)
