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
