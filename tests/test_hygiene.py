"""Static hygiene of the package source (stdlib ``ast`` only).

Leftovers a refactor tends to leave behind are caught here: ``from ...
import`` names that no longer have a use in their module, module-level
private functions that nothing references any more, and imports inside a
function body (no package module needs one to break an import cycle).
The independent audit routes, which the checks compare against, must not
share the per-algebra memo or its helpers, nor name the evaluator path.
Only ``MulTensor`` and the coordinate route read structure constants.
A linear map is a square ``Matrix``, with no wrapper type around it.
The package ``__init__`` (whose imports are re-exports) and ``from
__future__ import annotations`` are exempt from the unused-name check.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bihomtrias"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _used_names(tree, attributes=False):
    """Every bare name the module uses (and, with ``attributes``, every
    attribute name), plus the strings listed in __all__."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif attributes and isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_from_imports(path):
    tree = _tree(path)
    used = _used_names(tree)
    unused = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
        if (alias.asname or alias.name) not in used
    ]
    assert not unused, f"{path.name} imports unused names {unused}"


def test_private_functions_are_referenced():
    trees = {p.name: _tree(p) for p in sorted(PACKAGE.glob("*.py"))}
    used = set().union(*(_used_names(t, attributes=True) for t in trees.values()))
    unreferenced = [
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in used
    ]
    assert not unreferenced, f"private functions never referenced: {unreferenced}"


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _public_definitions(tree):
    """(qualified name, name) of each module-level function and constant
    and each non-dunder method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _dunder(
                    item.name
                ):
                    yield f"{node.name}.{item.name}", item.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and not _dunder(t.id):
                    yield t.id, t.id


def _references(tree):
    """Names read, attribute names, imported names and their aliases, and
    the pieces of every string constant split on '.' and ':' (which covers
    __all__ entries and dotted names looked up at run time)."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.update({node.name.rpartition(".")[2], node.asname})
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.update(re.split(r"[.:]", node.value))
    return refs


def test_every_definition_is_referenced():
    """Each function, method and constant of the package is used by name
    somewhere in src/, tests/ or perfbench/."""
    sources = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    refs = set().union(*(_references(_tree(p)) for p in sources))
    unreferenced = [
        f"{path.name}:{qualified}"
        for path in sorted(PACKAGE.glob("*.py"))
        for qualified, name in _public_definitions(_tree(path))
        if name not in refs
    ]
    assert not unreferenced, f"definitions never referenced: {unreferenced}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_function_local_imports(path):
    local = [
        f"{fn.name}:{node.lineno}"
        for fn in ast.walk(_tree(path))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not local, f"{path.name} imports inside functions at {local}"


MEMO_NAMES = {"per_algebra", "ab_images", "_memo"}
# The evaluator path that the independent routes are compared against.
EVALUATOR_NAMES = {"bilinear", "evaluate", "basis_witnesses", "check_axioms", "full_report"}


def _independent_routes():
    return {
        "coordinate.py": _tree(PACKAGE / "coordinate.py"),
        "tests/oracles.py": _tree(Path(__file__).resolve().parent / "oracles.py"),
    }


@pytest.mark.parametrize("route", sorted(_independent_routes()))
def test_independent_routes_do_not_use_the_memo(route):
    tree = _independent_routes()[route]
    names = _used_names(tree, attributes=True) | {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    shared = names & (MEMO_NAMES | EVALUATOR_NAMES)
    assert not shared, f"{route} references {sorted(shared)}"


def test_only_multensor_reads_structure_constants():
    """Products are evaluated through MulTensor's methods; the coordinate
    route reads the constants ``.c`` directly on purpose."""
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "coordinate.py":
            continue
        tree = _tree(path)
        inside = {
            id(node)
            for cls in tree.body
            if isinstance(cls, ast.ClassDef) and cls.name == "MulTensor"
            for node in ast.walk(cls)
        }
        readers += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "c" and id(node) not in inside
        ]
    assert not readers, f"structure constants read outside MulTensor at {readers}"


def test_maps_are_matrices():
    """A linear map is a square ``Matrix``: no module defines a wrapper class
    named ``LinearMap`` or reads a wrapped ``.matrix`` back out."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(_tree(path))
        if (isinstance(node, ast.ClassDef) and node.name == "LinearMap")
        or (isinstance(node, ast.Attribute) and node.attr == "matrix")
    ]
    assert not found, f"LinearMap class or .matrix read at {found}"
