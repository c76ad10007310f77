"""Eleven `ast` scans of src/curvlab (one also of tests/; no linter ships with
the project), and one check of pyproject.toml.

Every module-level import is used by its module, in src/curvlab and in
tests/: a name bound by a top-level `import` or `from ... import` must
occur as a name (or as the base of an attribute access) somewhere else in
the module.  `__init__.py` re-exports by importing and is skipped.

No `vec_add` or `vec_sub` call takes a `vec_scale(...)` call as an
argument: that builds a scaled copy and then a new sum for every term, where
`F.add_scaled(out, c, v)` adds c*v to `out` in place.

No private helper is orphaned: every module-level function or class whose
name starts with one underscore is referenced (as a name, an attribute or
an imported name) somewhere in src/curvlab outside its own definition.  A
helper that only tests use belongs in a tests/reference_*.py module.

No function-local `from .m import ...` repeats a module that the same file
already imports from at module level: there is no import cycle for it to
avoid, so the names belong in the module-level import.

No module imports an underscore name from another curvlab module, at any
depth: a private helper serves its own module, and what other modules need
is public (a sign convention copied through a private import is how a
convention ends up written in several places).

No public function or class is dead: every module-level one that
`__init__.py` does not re-export is referenced (as a name, an attribute or
an imported name) somewhere in src/curvlab, tests/ or perfbench/ outside
its own definition.  Methods are not scanned: attribute names collide
across classes.

Brute force is declared: the functions and methods of src/curvlab that call
`enumerate_affine` are exactly those in `AFFINE_ENUMERATORS`.  Where exact
linear algebra decides a question, the enumeration belongs in a
tests/reference_*.py oracle, and a new program path that enumerates has to
be added to the list.

Refusals reach the user: `except BudgetExceeded` occurs in src/curvlab
only in `cli.main`, which reports it with exit 3, so no search turns a
refusal back into a verdict.

Validators are declared: the functions and methods of src/curvlab named
`validate` or ending in `_reports` are exactly those in `VALIDATORS`, one
per structure.  A second checker for a structure (a weaker copy of its
axioms, as the Hochschild conditions of a square-zero extension were
beside the validation of its total algebra) has to be added to the list.

The basis-key format lives in presented.py: no other module compares a
subscript `[0]` with "v" (the test whether a key is a vertex key, which
`PresentedCurvedAlgebra.vertex_of` makes).  Building a ("v", name) key and
the "v:" prefix of the document format stay allowed.

The program has no runtime dependency: no module imports sympy, at any
depth (it is a test oracle, in tests/reference_semisimple.py), and the
`dependencies` of pyproject.toml are empty.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "curvlab"
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


@pytest.mark.parametrize(
    "path", MODULES + sorted((ROOT / "tests").glob("*.py")), ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}"
)
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


def basis_ranks(source: str):
    """Line numbers of len(EchelonBasis(...)) calls: a rank read off a reduced
    basis, where the field's `rank` kernel (forward elimination) serves."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and _call_name(node) == "len"
        and any(isinstance(a, ast.Call) and _call_name(a) == "EchelonBasis" for a in node.args)
    )


def test_scan_finds_a_rank_read_off_a_basis():
    src = (
        "r = len(EchelonBasis(F, n, rows))\n"
        "s = len(\n    gl.EchelonBasis(F, n, rows))\n"
        "basis = EchelonBasis(F, n, rows)\n"
        "t = len(basis.rows())\n"
        "u = F.rank([dict(v) for v in rows], n)\n"
    )
    assert basis_ranks(src) == [1, 2]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_rank_read_off_a_basis(path):
    assert basis_ranks(path.read_text(encoding="utf-8")) == []


def private_definitions(tree):
    """Module-level `_name` functions and classes (not dunders) by name."""
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    }


def references(node):
    """Names, attribute names and imported names occurring under node."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(alias.name for alias in n.names)
    return out


def orphaned_helpers(sources):
    """Sorted (module, name) of private helpers that no code outside their
    own definition refers to; sources maps module names to source text."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    defined = {(m, name) for m, tree in trees.items() for name in private_definitions(tree)}
    used = set()
    for tree in trees.values():
        for node in tree.body:
            refs = references(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                refs.discard(node.name)  # recursion is not a use
            used |= refs
    return sorted((m, name) for m, name in defined if name not in used)


def test_scan_finds_an_orphaned_helper():
    sources = {
        "a": "def _used():\n    pass\n\ndef _self(n):\n    return _self(n - 1)\n\n"
        "class _Gone:\n    pass\n\ndef __dunder__():\n    pass\n",
        "b": "from .a import _used\n\ndef _via_attr():\n    pass\n\nx = obj._via_attr\n",
    }
    assert orphaned_helpers(sources) == [("a", "_Gone"), ("a", "_self")]


def test_no_orphaned_private_helper():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert orphaned_helpers(sources) == []


def redundant_local_imports(source: str):
    """Line numbers of relative imports below module level from a module
    that the source also imports from at module level."""
    tree = ast.parse(source)
    top = {(n.level, n.module) for n in tree.body if isinstance(n, ast.ImportFrom)}
    return sorted(
        node.lineno
        for stmt in tree.body
        for node in ast.walk(stmt)
        if node is not stmt
        and isinstance(node, ast.ImportFrom)
        and node.level
        and (node.level, node.module) in top
    )


def test_scan_finds_a_redundant_local_import():
    src = (
        "from .algebra import CurvedAlgebra\n"
        "from . import budget\n\n"
        "def f():\n"
        "    from .algebra import twist_algebra\n"
        "    from .mc import GaugeClasses\n"
        "    import sympy\n"
        "    return twist_algebra\n\n"
        "class C:\n"
        "    def g(self):\n"
        "        from . import budget\n"
        "        from ..algebra import direct_product\n"
    )
    assert redundant_local_imports(src) == [5, 12]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_redundant_local_import(path):
    assert redundant_local_imports(path.read_text(encoding="utf-8")) == []


def private_imports(source: str):
    """(line, name) of the underscore names (not dunders) that relative or
    `curvlab.` imports anywhere in the source take from a curvlab module."""
    return sorted(
        (node.lineno, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "curvlab")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    )


def test_scan_finds_a_private_import():
    src = (
        "from __future__ import annotations\n"
        "from .algebra import CurvedAlgebra, _bracket\n"
        "from random import _inst\n\n"
        "def f():\n"
        "    from curvlab.mc import _ElementData, __doc__\n"
        "    from ..fields import _ZERO as Z\n"
    )
    assert private_imports(src) == [(2, "_bracket"), (6, "_ElementData"), (7, "_ZERO")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_import_between_modules(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_public(sources, exported, others):
    """Sorted (module, name) of the module-level public functions and
    classes of `sources` (module name -> source text) that are not in
    `exported` and that no code refers to outside their own definition,
    neither in `sources` nor in `others` (more source texts)."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    defined = {
        (m, node.name)
        for m, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }
    used = set()
    for tree in trees.values():
        for node in tree.body:
            refs = references(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                refs.discard(node.name)  # recursion is not a use
            used |= refs
    for src in others:
        used |= references(ast.parse(src))
    return sorted((m, name) for m, name in defined if name not in exported and name not in used)


def test_scan_finds_an_unreferenced_public_function():
    sources = {
        "a": "def exported():\n    pass\n\ndef dead(n):\n    return dead(n - 1)\n\n"
        "class Dead:\n    def method(self):\n        pass\n\ndef by_test():\n    pass\n\n"
        "def by_attr():\n    pass\n\ndef _private():\n    pass\n",
        "b": "from .a import by_other\n\ndef by_other():\n    pass\n\nx = m.by_attr\n",
    }
    others = ["from curvlab.a import by_test\n"]
    assert unreferenced_public(sources, {"exported"}, others) == [("a", "Dead"), ("a", "dead")]


def test_no_unreferenced_public_function():
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    others = [
        p.read_text(encoding="utf-8")
        for d in ("tests", "perfbench")
        for p in sorted((ROOT / d).rglob("*.py"))
    ]
    assert unreferenced_public(sources, exported, others) == []


# the p^n enumerations left in the program: the MC sets (a quadratic system;
# in a convolution algebra, the stage-0 groups of each block), the points of
# each stage of the staged MC solver (MC Hom(C, A) past stage 0 and the
# n-homotopies for n != 3), and one gauge solve per class of H^0
AFFINE_ENUMERATORS = {
    "algebra.mc_enumerate",
    "algebra.mc_staged_enumerate",
    "barcobar.mc_convolution_enumerate",
    "mc.GaugeClasses._inverse_pair",
}


def affine_enumerators(sources):
    """Sorted "module.name" of the module-level functions and the methods
    (as "module.Class.name") of `sources` (module name -> source text) that
    call `enumerate_affine`, directly or through an attribute; a call in a
    nested function counts for the function it is nested in."""
    out = set()
    for m, src in sources.items():
        for node in ast.parse(src).body:
            if isinstance(node, ast.ClassDef):
                defs = [
                    (f"{node.name}.{n.name}", n)
                    for n in node.body
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs = [(node.name, node)]
            else:
                continue
            for name, d in defs:
                if any(isinstance(n, ast.Call) and _call_name(n) == "enumerate_affine" for n in ast.walk(d)):
                    out.add(f"{m}.{name}")
    return sorted(out)


def test_scan_finds_the_affine_enumerators():
    sources = {
        "a": "def brute(F, k):\n    return list(enumerate_affine(F, {}, k))\n\n"
        "def linear(F, k):\n    return solve(F, k)\n\n"
        "class C:\n    def search(self):\n        def inner():\n            return gl.enumerate_affine(F, {}, [])\n"
        "        return inner()\n\n    def other(self):\n        pass\n",
        "b": "from .gradedlin import enumerate_affine\n\nx = enumerate_affine\n",
    }
    assert affine_enumerators(sources) == ["a.C.search", "a.brute"]


def test_brute_force_is_declared():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert affine_enumerators(sources) == sorted(AFFINE_ENUMERATORS)


def budget_handlers(sources):
    """Sorted qualified names ("module.Class.name", "module.name", a nested
    function under its enclosing ones; "module" at module level) of the
    places in `sources` (module name -> source text) with an `except`
    clause that names BudgetExceeded, alone, in a tuple or as an attribute."""
    out = set()

    def names(t):
        if isinstance(t, ast.Tuple):
            return [n for e in t.elts for n in names(e)]
        return [t.id if isinstance(t, ast.Name) else t.attr if isinstance(t, ast.Attribute) else None]

    def visit(prefix, node):
        for n in ast.iter_child_nodes(node):
            if isinstance(n, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(f"{prefix}.{n.name}", n)
            else:
                if isinstance(n, ast.ExceptHandler) and n.type is not None and "BudgetExceeded" in names(n.type):
                    out.add(prefix)
                visit(prefix, n)

    for m, src in sources.items():
        visit(m, ast.parse(src))
    return sorted(out)


def test_scan_finds_the_budget_handlers():
    sources = {
        "a": "def main():\n    try:\n        run()\n    except BudgetExceeded as e:\n        return 3\n\n"
        "class S:\n    def solve(self):\n        try:\n            pass\n        except (ValueError, gl.BudgetExceeded):\n"
        "            return None\n\n"
        "def other():\n    try:\n        pass\n    except ValueError:\n        pass\n",
        "b": "try:\n    import x\nexcept BudgetExceeded:\n    pass\n",
    }
    assert budget_handlers(sources) == ["a.S.solve", "a.main", "b"]


def test_only_main_handles_a_refusal():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert budget_handlers(sources) == ["cli.main"]


VALIDATORS = {
    "algebra.CurvedAlgebra.validate",
    "algebra.CurvedMorphism.validate",
    "coalgebra.CurvedCoalgebra.validate",
    "mc.GaugeQuadruple.validate",
}


def validators(sources):
    """Sorted qualified names ("module.Class.name", "module.name", a nested
    function under its enclosing ones) of the functions and methods of
    `sources` (module name -> source text) named `validate` or ending in
    `_reports`."""
    out = []

    def visit(prefix, body):
        for n in body:
            if isinstance(n, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{n.name}"
                if not isinstance(n, ast.ClassDef) and (n.name == "validate" or n.name.endswith("_reports")):
                    out.append(name)
                visit(name, n.body)

    for m, src in sources.items():
        visit(m, ast.parse(src).body)
    return sorted(out)


def test_scan_finds_the_validators():
    sources = {
        "a": "class S:\n    def validate(self):\n        return []\n\n"
        "    def condition_reports(self):\n        return []\n\n"
        "def validate_all(xs):\n    return xs\n\n"
        "def check(x):\n    def validate():\n        return []\n    return validate()\n",
        "b": "def reports():\n    return []\n\nvalidate = None\n",
    }
    assert validators(sources) == ["a.S.condition_reports", "a.S.validate", "a.check.validate"]


def test_validators_are_declared():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert validators(sources) == sorted(VALIDATORS)


def vertex_key_tests(source: str):
    """Line numbers of comparisons of a subscript [0] with "v", alone or
    in a literal tuple, list or set."""

    def first_entry(n):
        return isinstance(n, ast.Subscript) and isinstance(n.slice, ast.Constant) and n.slice.value == 0

    def v(n):
        elts = n.elts if isinstance(n, (ast.Tuple, ast.List, ast.Set)) else [n]
        return any(isinstance(e, ast.Constant) and e.value == "v" for e in elts)

    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Compare)
        and any(map(first_entry, [node.left] + node.comparators))
        and any(map(v, [node.left] + node.comparators))
    )


def test_scan_finds_a_vertex_key_test():
    src = (
        'if k[0] == "v":\n'
        '    pass\n'
        'x = "v" != key[0]\n'
        'y = w[0] in ("v", "u")\n'
        'key = ("v", name)\n'
        'z = word.startswith("v:")\n'
        'u = k[1] == "v" or k[0] == "w"\n'
    )
    assert vertex_key_tests(src) == [1, 3, 4]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "presented.py"], ids=lambda p: p.name)
def test_no_vertex_key_test_outside_presented(path):
    assert vertex_key_tests(path.read_text(encoding="utf-8")) == []


def sympy_imports(source: str):
    """Line numbers of the imports of sympy or a submodule of it, at any
    depth of the source."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "sympy" for name in names):
            lines.append(node.lineno)
    return lines


def test_scan_finds_a_sympy_import():
    src = (
        "import os, sympy\n"
        "from fractions import Fraction\n\n"
        "def f():\n"
        "    from sympy.polys import factor_list\n"
        "    import sympyish\n"
        "    from .sympy import x\n"
    )
    assert sympy_imports(src) == [1, 5]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_sympy_import(path):
    assert sympy_imports(path.read_text(encoding="utf-8")) == []


def test_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []
