"""Every exported name has a caller in the package or a script.

A name in ``bbsl2.__all__`` must be read somewhere in ``src/bbsl2``
(outside ``__init__.py``) or in ``scripts/``: as a name, or as an
attribute. Its own ``def``, ``class`` or assignment does not count, and
neither do imports, so an export kept alive only by tests fails here.
"""
import ast
from pathlib import Path

import bbsl2

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [
    *(p for p in sorted((ROOT / "src" / "bbsl2").glob("*.py")) if p.name != "__init__.py"),
    *sorted((ROOT / "scripts").glob("*.py")),
]


def referenced_names(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_export_has_a_caller():
    used = set().union(*map(referenced_names, SOURCES))
    assert sorted(set(bbsl2.__all__) - used) == []
