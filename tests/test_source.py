"""Checks on the package source itself."""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "gcl"


def test_no_assert_statements():
    # invariants raise InvariantError: an assert vanishes under python -O
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_cli_start_up_loads_neither_dataclasses_nor_inspect():
    # each command is a fresh process: importing dataclasses (which loads
    # inspect) and building the records with it cost about 0.04 s of CPU
    # per command on a 2-vCPU host, so the records derive from
    # gcl.value.Value instead
    probe = "import sys, gcl.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "[]"


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports but neither reads nor lists in __all__."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [
        f"{path.name}: {name}"
        for path in paths
        for name in _unused_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_unused_import_check_catches_a_stranded_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .context import blocks, block_set_of as bso\n"
        "from .exprs import conj\n"
        "__all__ = ['conj']\n"
        "bso(os)\n"
    )
    assert _unused_imports(tree) == ["blocks (line 3)"]
