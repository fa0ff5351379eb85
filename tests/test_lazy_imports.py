"""The package resolves its names lazily, and each command loads only the
modules it runs."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import argudyn

PACKAGE = Path(argudyn.__file__).parent

# runs `argudyn ARGV`; a command that fails fails the probe
RUN_CLI = """
import sys
from argudyn.cli import run_cli
if run_cli(sys.argv[1:]):
    sys.exit("command failed")
"""


def _loaded(code: str, *argv: str) -> set[str]:
    """The argudyn modules that a fresh interpreter holds after running code
    with the arguments argv."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code += "\nprint(sorted(m for m in sys.modules if m.startswith('argudyn')))"
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, check=True)
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize("engine", ["delta", "branching"])
def test_solve_repair_loads_no_gadgets_bench_or_firstorder(tmp_path, engine):
    path = tmp_path / "f.apx"
    path.write_text("arg(a). arg(b). att(a,b).", encoding="utf-8")
    modules = _loaded(RUN_CLI, "solve", "repair", "--af", str(path), "--semantics",
                      "adm", "--set", "b", "-k", "1", "--engine", engine)
    assert "argudyn.solvers" in modules
    assert modules.isdisjoint({"argudyn.gadgets", "argudyn.bench", "argudyn.firstorder"})


def test_gen_cnf_small_loads_no_firstorder_or_bench(tmp_path):
    path = tmp_path / "f.cnf"
    path.write_text("p cnf 2 2\n1 2 0\n-1 -2 0\n", encoding="utf-8")
    modules = _loaded(RUN_CLI, "gen", "cnf-small", "--cnf", str(path),
                      "--out", str(tmp_path / "g.apx"))
    assert "argudyn.gadgets" in modules
    assert modules.isdisjoint({"argudyn.firstorder", "argudyn.bench"})


def test_importing_core_loads_no_other_module():
    modules = _loaded("import sys, argudyn.core")
    assert modules <= {"argudyn", "argudyn.core", "argudyn.errors"}


def _homes() -> dict[str, str]:
    """Each exported name and the module it is imported from in __init__.py,
    read from the source rather than from the runtime table."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.name: node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_every_export_resolves_to_its_home_object():
    for name, module in _homes().items():
        home = importlib.import_module(f"argudyn.{module}")
        # __getattr__ runs even when an earlier lookup cached the name
        assert argudyn.__getattr__(name) is getattr(home, name), name
        assert getattr(argudyn, name) is getattr(home, name), name


def test_lazy_namespace_lists_and_rejects_names():
    assert set(argudyn.__all__) <= set(dir(argudyn))
    with pytest.raises(AttributeError, match="no_such_name"):
        argudyn.no_such_name
    namespace: dict = {}
    exec("from argudyn import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(argudyn.__all__)
    exec("from argudyn import core", namespace)
    assert namespace["core"] is importlib.import_module("argudyn.core")
