"""Source hygiene checks that need no linter.

Every name a module imports must be read somewhere in that module.
`__init__.py` is skipped: it imports names to re-export them.
"""
import ast
import os

import pytest

import ordrank

SRC = os.path.dirname(os.path.abspath(ordrank.__file__))
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py") and f != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return ["%s (line %d)" % (name, line) for name, line in sorted(imported.items())
            if name not in read]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == [], module


def test_unused_import_check_flags_and_spares():
    src = ("from __future__ import annotations\n"
           "import os.path\nimport json\nfrom x import a, b as c, d\n"
           "def f():\n    from y import e\n    d = 1\n    return os, a, e.attr\n")
    # d is only written, never read
    assert unused_imports(src) == ["c (line 4)", "d (line 4)", "json (line 3)"]
