"""Self-tests of the benchmark: inputs, span arithmetic and output checks.

Run from the root of a checkout: python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

import checks
import run
import spans
from inputs import blocked_context, stream, to_cxt
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def _make(name: str, seed: int, directory: Path):
    directory.mkdir()
    cmds = WORKLOADS[name].make(stream(name, seed), directory)
    files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
    args = [[a.replace(str(directory), "DIR") for a in c.args] for c in cmds]
    return files, args


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_only_on_the_seed(name, tmp_path):
    first = _make(name, 7, tmp_path / "a")
    again = _make(name, 7, tmp_path / "b")
    other = _make(name, 8, tmp_path / "c")
    assert first == again
    assert first[0] != other[0]


def test_blocked_context_has_exactly_n_f_blocks():
    rng = stream("test", 1)
    for n_f, m, n in ((9, 4, 12), (14, 10, 22), (16, 4, 16)):
        ctx = blocked_context(rng, n_f, m, n)
        assert (ctx.n, ctx.m, ctx.n_f) == (n, m, n_f)


def test_self_time_subtracts_the_union_of_children():
    tree = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["d", 5.0, 7.0, 0],
        ["d", 6.0, 8.0, 0],  # overlaps its sibling: covered once
        ["c", 9.0, 11.0, 0],  # runs past its parent: clipped
    ]
    assert spans.self_times(tree) == [10.0 - 3.0 - 3.0 - 1.0, 2.0, 1.0, 2.0, 2.0, 2.0]
    busy, calls = spans.aggregate(tree)
    assert busy == {"a": 3.0, "b": 2.0, "c": 3.0, "d": 4.0}
    assert calls == {"a": 1, "b": 1, "c": 2, "d": 2}


def test_percentile_is_nearest_rank():
    values = list(range(1, 41))
    assert run.percentile(values, 75) == 30
    assert run.percentile(values, 50) == 20
    assert WORKLOADS["audit"].min_samples == 100
    assert WORKLOADS["classical"].min_samples == 40


def _gcl(*argv) -> bytes:
    from gcl.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue().encode()


@pytest.fixture
def small(tmp_path):
    ctx = blocked_context(stream("test", 3), 5, 4, 8)
    path = tmp_path / "small.cxt"
    path.write_text(to_cxt(ctx))
    return ctx, str(path)


def test_checker_rejects_a_flipped_minterm(small):
    ctx, path = small
    out = _gcl("build", path, "--format", "json")
    assert checks.gcl_json(ctx, out) is None
    data = json.loads(out)
    node = data["nodes"][3]
    node["gfcp_minterms"] = sorted(set(node["gfcp_minterms"]) ^ {0})
    assert checks.gcl_json(ctx, json.dumps(data).encode()) is not None


def test_checker_rejects_a_dropped_concept(small):
    ctx, path = small
    for kind in ("fcl", "rsl"):
        out = _gcl("build", path, "--lattice", kind, "--format", "json")
        assert checks.classical_json(ctx, kind, out) is None
        data = json.loads(out)
        del data["nodes"][1]
        assert checks.classical_json(ctx, kind, json.dumps(data).encode()) is not None


def test_checker_rejects_a_wrong_extent(small):
    ctx, path = small
    row, objects = ctx.blocks[0]
    out = _gcl("inspect", path, "--objects", ",".join(ctx.names(objects)))
    assert checks.inspect(ctx, objects, False, out) is None
    assert checks.inspect(ctx, ctx.blocks[1][1], False, out) is not None


def test_every_audit_output_passes_its_check(tmp_path):
    cmds = WORKLOADS["audit"].make(stream("audit", 5), tmp_path)
    for cmd in cmds:
        assert cmd.check(_gcl(*cmd.args)) is None, cmd.label


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    for key, reported in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[key]} == reported


def test_law_names_match_the_oracle():
    from gcl import oracle

    assert run.LAWS == tuple(name for name, _, _ in oracle.LAWS)


def test_reference_seconds_scale_by_the_calibrations_around_a_command():
    ref = run.CALIB_REF_S
    assert run.to_ref(0.6, ref) == pytest.approx(0.6)
    # a host running at half speed doubles both the command and calib.py
    assert run.to_ref(1.2, 2 * ref) == pytest.approx(0.6)
    calib = [9.0, 1.0, 2.0, 3.0, 4.0, 9.0]
    assert run.calib_around(calib, 3) == 2.5  # median of 1, 2, 3, 4
    assert run.calib_around(calib, 0) == 5.0  # median of 9, 1 at the start
    assert run.calib_around(calib, 6) == 6.5  # median of 4, 9 at the end


def test_calibration_child_prints_its_checksum():
    import subprocess
    import sys

    import calib

    got = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "calib.py")], capture_output=True, check=True
    )
    assert got.stdout == f"calib {calib.checksum():08x}\n".encode()
