"""The benchmark's traced runner still wraps every name it looks up.

perfbench/traced_gcl.py wraps gcl's public functions by name before it
runs a command, so a renamed or removed function makes it fail.
"""

import json
import os
import pathlib
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
T1_CXT = "B\n\n3\n2\n\ng1\ng2\ng3\na\nb\nX.\nXX\n.X\n"


def test_traced_commands_exit_0(tmp_path, thirteen_blocks_path):
    ctx = tmp_path / "t1.cxt"
    ctx.write_text(T1_CXT)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    spans_file = tmp_path / "spans.json"
    traced = [sys.executable, str(ROOT / "perfbench" / "traced_gcl.py"), str(spans_file)]
    # the plain context has 9 blocks, past the pretty limit, so its export
    # takes the table-picking path
    plain = ROOT / "tests" / "golden" / "export_plain.csv"
    names = set()
    for argv in (
        ["verify", str(ctx), "--json"],
        ["build", str(ctx), "--format", "json"],
        ["build", str(plain), "--format", "json"],
        # past the inspect limit the command never reads oracle,
        # irreducibles or classical, which the runner wraps all the same
        ["inspect", str(thirteen_blocks_path), "--objects", "g1"],
    ):
        proc = subprocess.run(
            [*traced, repr(time.monotonic()), *argv], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        traced_run = json.loads(spans_file.read_text())
        spans = [span[0] for span in traced_run["spans"]]
        names |= set(spans)
        if argv[1] == str(ctx) and argv[0] == "build":
            # t1's bounds print reduced, from members the class scan found
            assert traced_run["counts"]["irreducibles.members"] > 0
        if argv[0] == "inspect":
            assert {"cli.main", "lattice.build_gcl"} <= set(spans)
        if argv[0] == "verify":
            # perfbench times each law by rewrapping oracle.LAWS' run functions
            laws = [law["law"] for law in json.loads(proc.stdout)["laws"]]
            assert len(laws) == 19
            assert sorted(s for s in spans if s.startswith("oracle.law.")) == sorted(
                f"oracle.law.{law}" for law in laws
            )
    assert {
        "cli.main",
        "cli.export_lattice",
        "lattice.build_gcl",
        "oracle.verify_laws",
        "classical.recover_classical",
    } <= names
