"""Every module-level import in src/curvlab is used by its module.

No linter ships with the project, so this is a small `ast` scan: a name
bound by a top-level `import` or `from ... import` must occur as a name
(or as the base of an attribute access) somewhere else in the module.
`__init__.py` re-exports by importing and is skipped.
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
