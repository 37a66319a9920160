"""The library's source: every module reads each name it imports."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "bihpo"


def unused_imports(source: str) -> list[str]:
    """The names a module's imports bind that no other line of it reads.

    `import a.b` binds a; `from __future__` imports bind nothing.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport os.path\nimport json as j\n"
              "from math import pi, tau\nprint(os, tau)\n")
    assert unused_imports(source) == ["j", "pi"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_reads_every_name_it_imports(module):
    unused = unused_imports((SRC / module).read_text(encoding="utf-8"))
    assert not unused, f"{module} imports names it never reads: {', '.join(unused)}"
