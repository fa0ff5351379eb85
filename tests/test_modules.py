"""Boundaries between the modules of the argudyn package."""

import ast
from pathlib import Path

import argudyn

PACKAGE = Path(argudyn.__file__).parent


def test_no_module_imports_a_private_name_from_another():
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("argudyn"):
                continue
            private += [
                f"{path.name}: {node.module}.{alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert private == []


def test_no_module_reads_a_private_attribute_except_through_self():
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr.startswith("_")
                and not node.attr.endswith("__")
                and not (isinstance(node.value, ast.Name) and node.value.id == "self")
            ):
                private.append(f"{path.name}:{node.lineno}: .{node.attr}")
    assert private == []


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue  # the package namespace re-exports what it imports
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [
            f"{path.name}: {name}"
            for name in _imported_names(tree)
            if name not in used
        ]
    assert unused == []


def test_package_exports_exactly_what_it_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = set(_imported_names(tree))
    assert sorted(argudyn.__all__) == sorted(imported | {"__version__"})


def test_search_modules_do_not_recurse():
    # the search depth follows the framework size in these modules, so a
    # recursive call could exceed the interpreter's recursion limit
    recursive = []
    for name in ("core.py", "enumeration.py", "solvers.py"):
        tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            recursive += [
                f"{name}: {fn.name}"
                for call in ast.walk(fn)
                if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id == fn.name
            ]
    assert recursive == []
