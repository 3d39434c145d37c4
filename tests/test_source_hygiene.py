"""Source hygiene checks that need no linter.

Every name a module imports must be read somewhere in that module.
`__init__.py` is skipped: it imports names to re-export them.
Every private module-level name must be read by some module of the package.
Every parameter of a def must be read in its body, unless allowlisted.
Every def that takes a space's bound is listed with its reason.
Every `lru_cache` is listed with its reason.
No module rebinds a module-level name through a `global` statement.
No module imports inside a function, except to break a real import cycle.
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


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level names (one leading underscore) of the given
    modules that none of them reads.  A read is a loaded `ast.Name`, an
    attribute of that name or an imported name."""
    defined: dict[tuple[str, str], int] = {}
    read: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[(module, name)] = node.lineno
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
            elif isinstance(n, ast.alias):
                read.add(n.name)
    return ["%s: %s (line %d)" % (module, name, line)
            for (module, name), line in sorted(defined.items()) if name not in read]


def test_no_orphaned_private_names():
    sources = {}
    for module in sorted(f for f in os.listdir(SRC) if f.endswith(".py")):
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            sources[module] = fh.read()
    assert orphaned_private_names(sources) == []


def test_orphan_check_flags_and_spares():
    sources = {
        "a.py": ("import b\n_TABLE = {}\n_x, _y = 1, 2\n__all__ = []\n"
                 "def _helper():\n    return _x\n"
                 "def _unused():\n    pass\nclass _Kind:\n    pass\n"
                 "def public():\n    return b._across\n"),
        "b.py": ("from a import _Kind\n_across = 1\n_alone: int = 2\n"
                 "def _recursive(n):\n    return _recursive(n - 1)\n"),
    }
    # read: _x (a name), _across (an attribute), _Kind (an import) and
    # _recursive (by itself); __all__ is not private
    assert orphaned_private_names(sources) == [
        "a.py: _TABLE (line 2)", "a.py: _helper (line 5)", "a.py: _unused (line 7)",
        "a.py: _y (line 3)", "b.py: _alone (line 3)"]


def _defs(source: str):
    """(qualified name, parameters, node) of every def, nested ones too."""
    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, prefix + child.name + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                params += [a for a in (args.vararg, args.kwarg) if a is not None]
                yield prefix + child.name, params, child
                yield from visit(child, prefix + child.name + ".")
            else:
                yield from visit(child, prefix)

    return visit(ast.parse(source), "")


def unused_parameters(source: str) -> list[str]:
    """Parameters of every def (nested ones too) that its body never loads,
    as qualified names.  `self`, `cls` and `_`-prefixed names are exempt."""
    out = []
    for name, params, node in _defs(source):
        loaded = {n.id for stmt in node.body for n in ast.walk(stmt)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out.extend("%s.%s (line %d)" % (name, a.arg, node.lineno)
                   for a in params if a.arg not in loaded
                   and a.arg not in ("self", "cls") and not a.arg.startswith("_"))
    return out


# parameter -> why it stays although its body never reads it
UNUSED_PARAMETER_ALLOWLIST = {
    "derivative.py: ConvDeriv.tail_disagreement.space":
        "ordbench/workloads.py passes the space; the set does not depend on it",
}


def test_no_unused_parameters():
    found = []
    for module in MODULES:
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            found += ["%s: %s" % (module, entry) for entry in unused_parameters(fh.read())]
    assert [f for f in found
            if f.split(" (line")[0] not in UNUSED_PARAMETER_ALLOWLIST] == []


def test_unused_parameter_check_flags_and_spares():
    src = ("def f(a, b, *args, c, _d, **kw):\n    return a + c\n"
           "class K:\n"
           "    def m(self, x, y=1):\n        def inner(z, w):\n            return z\n"
           "        return inner(x, 0)\n"
           "    @classmethod\n    def n(cls, v):\n        return cls(v)\n")
    # b, args and kw are never read; _d, self and cls are exempt; y is
    # only a default; inner's w is unread; n reads v
    assert unused_parameters(src) == [
        "f.b (line 1)", "f.args (line 1)", "f.kw (line 1)", "K.m.y (line 4)",
        "K.m.inner.w (line 5)"]


# def -> why it takes a space's bound.  A cell is one set on every space, so
# the bound enters only where cells are made from constraints or printed;
# the cell algebra (meet, cell_and, cell_minus, cells_difference,
# cell_is_empty, iter_cell, cells_subset, cells_eq) takes cells alone.
BOUND_PARAMETERS = {
    "derivative.py: CellTemplate.cell_at": "builds a stage's cell through _mk_cell",
    "patterns.py: _mk_cell": "clamps an upper end that reaches the bound to it",
    "patterns.py: _merge_cell": "merges a conjunction's atoms into _mk_cell",
    "patterns.py: _cells_cached": "the to_cells memo, one entry per pattern and space",
    "patterns.py: to_cells": "a pattern's cells on the space below the bound",
    "patterns.py: cell_pattern": "leaves out an upper end equal to the bound",
    "patterns.py: cells_pattern": "cell_pattern of each cell",
    "pseudouniform.py: remainder_lt": "an ordinal threshold, not a space",
    "space.py: limit_cells": "whether the cell's upper end is the bound, which keeps it",
}


def bound_parameters(source: str) -> list[str]:
    """The defs that take a parameter named bound or space_bound."""
    return [name for name, params, _ in _defs(source)
            if any(a.arg in ("bound", "space_bound") for a in params)]


def test_bound_parameters_are_pinned():
    found = []
    for module in MODULES:
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            found += ["%s: %s" % (module, name) for name in bound_parameters(fh.read())]
    assert sorted(found) == sorted(BOUND_PARAMETERS)


def test_bound_parameter_check_flags_and_spares():
    src = ("def meet(xs, ys):\n    return xs\n"
           "class T:\n    def cell_at(self, j, bound):\n"
           "        def inner(space_bound, upper):\n            return upper\n"
           "        return inner(bound, j)\n")
    assert bound_parameters(src) == ["T.cell_at", "T.cell_at.inner"]


# memo -> why it stays an lru_cache.  A memo keyed on one value lives on
# that value (a digit set's complement and shift, a cell's md pass and limit
# cells, a sequence's value traces); these key on a pair or a tuple, are
# read by ordbench/tracer.py through cache_info, or build workload inputs.
LRU_CACHES = {
    "derivative.py: ConvDeriv.tail_disagreement_param":
        "a pair key: equal (fam, eps) operators share one entry, 56 values for 600 objects",
    "derivative.py: _apply_cached": "a tracer read; a pair key (operator, cell tuple)",
    "oracle.py: _block_points": "a pair key (blocks, trailing points)",
    "patterns.py: _cells_cached": "a tracer read; a pair key (pattern, bound)",
    "patterns.py: _ds_subset": "a pair key",
    "patterns.py: _meet_pair": "a pair key",
    "patterns.py: cell_is_empty": "a tracer read",
    "patterns.py: ds_and": "a pair key",
    "patterns.py: ds_eq": "input construction: an int key",
    "patterns.py: ds_ge": "input construction: an int key",
    "patterns.py: ds_lt": "input construction: an int key",
    "patterns.py: ds_mod": "input construction: an int pair",
    "patterns.py: ds_or": "a pair key",
    "patterns.py: ds_window": "input construction: an int pair",
    "space.py: _limits_per_partition": "a tuple key (cells, topology, keep)",
    "space.py: partition_cells": "a tracer read",
}


def _is_lru_cache(node) -> bool:
    """`lru_cache`, `functools.lru_cache` or a call of either."""
    if isinstance(node, ast.Call):
        node = node.func
    return (isinstance(node, ast.Name) and node.id == "lru_cache"
            or isinstance(node, ast.Attribute) and node.attr == "lru_cache")


def lru_caches(source: str) -> list[str]:
    """The defs an `lru_cache` decorates, as qualified names, and the names
    assigned an `lru_cache(...)(fn)` call."""
    found = [name for name, _, node in _defs(source)
             if any(_is_lru_cache(d) for d in node.decorator_list)]
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and _is_lru_cache(node.value.func)):
            found += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return found


def test_lru_caches_are_pinned():
    found = []
    for module in MODULES:
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            found += ["%s: %s" % (module, name) for name in lru_caches(fh.read())]
    assert sorted(found) == sorted(LRU_CACHES)


def test_lru_cache_check_flags_and_spares():
    src = ("import functools\nfrom functools import lru_cache\n"
           "@lru_cache(maxsize=8)\ndef f(x):\n    return x\n"
           "class K:\n    @functools.lru_cache\n    def m(self):\n        return 1\n"
           "    @staticmethod\n    def s():\n        return 2\n"
           "_pair = lru_cache(maxsize=4)(f)\n_plain = dict(f=f)\n"
           "def g(y):\n    return lru_cache(y)\n")
    # g only returns a cache, and _plain is no call of lru_cache's result
    assert lru_caches(src) == ["f", "K.m", "_pair"]


def global_statements(source: str) -> list[str]:
    """The names of every `global` statement, with its line."""
    return ["%s (line %d)" % (name, n.lineno) for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Global) for name in n.names]


def test_no_global_statements():
    found = []
    for module in sorted(f for f in os.listdir(SRC) if f.endswith(".py")):
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            found += ["%s: %s" % (module, entry) for entry in global_statements(fh.read())]
    assert found == []


def test_global_check_flags_and_spares():
    src = ("_LIMIT = 6\ndef set_limit(n):\n    global _LIMIT, _OLD\n    _LIMIT = n\n"
           "def walk():\n    pos = 0\n    def step():\n        nonlocal pos\n"
           "        pos += 1\n    return step, 'global _LIMIT'\n")
    # a nonlocal and the word in a string are not global statements
    assert global_statements(src) == ["_LIMIT (line 3)", "_OLD (line 3)"]


def _package_modules(node) -> list[str]:
    """The package modules a relative import names, as file names."""
    if not isinstance(node, ast.ImportFrom) or node.level != 1:
        return []
    if node.module:
        return [node.module + ".py"]
    return [alias.name + ".py" for alias in node.names]


def local_imports(sources: dict[str, str]) -> list[str]:
    """Imports below module level, except a relative import of package
    modules that each import the importing module at top level (the one way
    to break that cycle)."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    top = {module: {m for node in tree.body for m in _package_modules(node)}
           for module, tree in trees.items()}
    out = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or node in tree.body:
                continue
            targets = _package_modules(node)
            if not targets or any(module not in top.get(m, ()) for m in targets):
                out.append("%s: line %d" % (module, node.lineno))
    return out


def test_no_function_local_imports():
    sources = {}
    for module in MODULES:
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            sources[module] = fh.read()
    assert local_imports(sources) == []


def test_local_import_check_flags_and_spares():
    sources = {
        "a.py": ("from . import b\nfrom .c import k\n"
                 "def f():\n    import json\n    from .c import k2\n    return json\n"),
        "b.py": ("def g():\n    from . import a\n    from .c import k\n"
                 "    from .a import f\n    return a, k, f\n"),
        "c.py": "def h():\n    from .a import f\n    return f\n",
    }
    # b may import a inside g: a imports b at top level; a's json, a's c
    # and b's c are not cycles; c's a is, as a imports c at top level
    assert local_imports(sources) == ["a.py: line 4", "a.py: line 5", "b.py: line 3"]
