"""Two `ast` scans of src/curvlab (no linter ships with the project).

Every module-level import is used by its module: a name bound by a
top-level `import` or `from ... import` must occur as a name (or as the
base of an attribute access) somewhere else in the module.  `__init__.py`
re-exports by importing and is skipped.

No `vec_add` or `vec_sub` call takes a `vec_scale(...)` call as an
argument: that builds a scaled copy and then a new sum for every term, where
`F.add_scaled(out, c, v)` adds c*v to `out` in place.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "curvlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or alias.name == "annotations":
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_scan_finds_an_unused_import():
    src = "from typing import Dict, List\nimport os\n\ndef f(x: List[int]):\n    return x\n"
    assert unused_imports(src) == ["Dict", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _call_name(node):
    f = node.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def scaled_accumulations(source: str):
    """Line numbers of vec_add/vec_sub calls with a vec_scale(...) argument."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and _call_name(node) in ("vec_add", "vec_sub")
        and any(isinstance(a, ast.Call) and _call_name(a) == "vec_scale" for a in node.args)
    )


def test_scan_finds_a_scaled_accumulation():
    src = (
        "out = vec_add(F, out, vec_scale(F, c, v))\n"
        "w = gl.vec_sub(F, u,\n    gl.vec_scale(F, c, v))\n"
        "x = vec_add(F, u, v)\n"
        "F.add_scaled(out, c, v)\n"
    )
    assert scaled_accumulations(src) == [1, 2]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_scaled_accumulation(path):
    assert scaled_accumulations(path.read_text(encoding="utf-8")) == []
