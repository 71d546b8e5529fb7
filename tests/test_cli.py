"""End-to-end runs of the command line driver, in process."""

import atexit
import gc
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import pytest

from reference import reference_bound
from gcl import (
    BitSet,
    FormalContext,
    LawResult,
    OracleReport,
    blocks,
    build_fcl,
    build_gcl,
    build_rsl,
    context_to_cxt,
    irreducible_conjunctions,
    irreducible_disjunctions,
    random_context,
    recover_classical,
)
from gcl import cli, exprs, irreducibles
from gcl.cli import main

T1_CXT = "B\n\n3\n2\n\ng1\ng2\ng3\na\nb\nX.\nXX\n.X\n"
T1_CSV = ",a,b\ng1,1,0\ng2,1,1\ng3,0,1\n"


@pytest.fixture
def t1_path(tmp_path):
    p = tmp_path / "t1.cxt"
    p.write_text(T1_CXT)
    return str(p)


@pytest.fixture
def t1_csv_path(tmp_path):
    p = tmp_path / "t1.csv"
    p.write_text(T1_CSV)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- build ---


def test_build_text(capsys, t1_path):
    code, out, _ = run(capsys, "build", t1_path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "gcl lattice: 3 objects, 2 attributes, 3 blocks, 8 nodes"
    assert "block D2: {g2} with row a & b" in lines
    assert "zero_rho: minterms [0]" in lines
    assert "one_eta: minterms [1, 2, 3]" in lines
    assert sum(1 for l in lines if l.startswith("node [")) == 8
    assert "node [1] {g1}" in lines
    assert "  grsp: !b" in lines
    assert "  gfcp: !b & a" in lines
    assert lines[-1].startswith("covers: ")
    assert len(lines[-1].removeprefix("covers: ").split(", ")) == 12


def test_build_json(capsys, t1_path):
    code, out, _ = run(capsys, "build", t1_path, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "gcl"
    assert data["objects"] == ["g1", "g2", "g3"]
    assert data["attributes"] == ["a", "b"]
    assert len(data["blocks"]) == 3
    assert len(data["nodes"]) == 8
    assert len(data["edges"]) == 12
    node = data["nodes"][1]
    assert node["extent"] == ["g1"]
    assert node["grsp_minterms"] == [0, 1]
    assert node["gfcp_minterms"] == [1]
    assert data["constants"]["zero_rho"] == [0]
    assert data["constants"]["one_eta"] == [1, 2, 3]


def test_build_output_is_reproducible(capsys, t1_path):
    _, first_json, _ = run(capsys, "build", t1_path, "--format", "json")
    _, first_dot, _ = run(capsys, "build", t1_path, "--format", "dot")
    _, second_json, _ = run(capsys, "build", t1_path, "--format", "json")
    _, second_dot, _ = run(capsys, "build", t1_path, "--format", "dot")
    assert first_json == second_json
    assert first_dot == second_dot


def test_build_dot(capsys, t1_path):
    code, out, _ = run(capsys, "build", t1_path, "--format", "dot")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "digraph gcl {"
    assert lines[1] == "  rankdir=BT;"
    assert lines[-1] == "}"
    assert '  n1 [label="{g1} | !b"];' in lines
    assert sum(1 for l in lines if "->" in l) == 12


def test_build_fcl(capsys, t1_path):
    code, out, _ = run(capsys, "build", t1_path, "--lattice", "fcl")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "fcl lattice: 3 objects, 2 attributes, 4 concepts"
    assert "concept [0] {g2} with intent {a, b}" in lines
    assert "  property: a & b" in lines
    assert lines[-1] == "covers: 0<1, 0<2, 1<3, 2<3"


def test_build_rsl_json(capsys, t1_path):
    code, out, _ = run(capsys, "build", t1_path, "--lattice", "rsl", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "rsl"
    assert [n["extent"] for n in data["nodes"]] == [
        [], ["g1", "g2"], ["g2", "g3"], ["g1", "g2", "g3"],
    ]
    assert data["nodes"][0]["intent"] == []
    assert data["nodes"][3]["intent"] == ["a", "b"]


def test_build_from_csv(capsys, t1_path, t1_csv_path):
    _, from_cxt, _ = run(capsys, "build", t1_path, "--format", "json")
    _, from_csv, _ = run(capsys, "build", t1_csv_path, "--format", "json")
    assert from_cxt == from_csv


def test_build_from_bom_prefixed_files(capsys, tmp_path, t1_path):
    _, want, _ = run(capsys, "build", t1_path)
    for name, text in (("bom.cxt", T1_CXT), ("bom.csv", T1_CSV)):
        p = tmp_path / name
        p.write_text("\ufeff" + text, encoding="utf-8")
        code, out, _ = run(capsys, "build", str(p))
        assert code == 0
        assert out == want


def test_input_format_override(capsys, tmp_path):
    p = tmp_path / "table.data"
    p.write_text(T1_CSV)
    code, out, _ = run(capsys, "build", str(p), "--input-format", "csv")
    assert code == 0
    assert "8 nodes" in out


def test_build_out_file(capsys, tmp_path, t1_path):
    target = tmp_path / "lat.json"
    code, out, _ = run(capsys, "build", t1_path, "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["kind"] == "gcl"


# --- verify ---


def test_verify_ok(capsys, t1_path):
    code, out, _ = run(capsys, "verify", t1_path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("context sha256 ")
    assert lines[1] == "3 objects, 2 attributes, 3 blocks"
    assert sum(1 for l in lines if l.startswith("law ") and l.endswith(": ok")) == 19
    assert not any(": FAIL" in l for l in lines)
    assert lines[-1] == "all laws hold"


def test_verify_json(capsys, t1_path):
    code, out, _ = run(capsys, "verify", t1_path, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert len(data["laws"]) == 19
    assert "sweep" not in data


def test_verify_sweep(capsys, t1_path):
    code, out, _ = run(capsys, "verify", t1_path, "--sweep")
    assert code == 0
    lines = out.splitlines()
    assert "sweep: 8 attribute classes over 16 composite attributes" in lines
    assert "class {g1}: size 2, min [1], max [0, 1]" in lines
    assert sum(1 for l in lines if l.startswith("class ")) == 8
    assert lines[-1] == "all laws hold"


def test_verify_sweep_json(capsys, t1_path):
    code, out, _ = run(capsys, "verify", t1_path, "--sweep", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["sweep"]["passed"] is True
    assert len(data["sweep"]["classes"]) == 8


def test_verify_sweep_over_its_cap_is_refused_before_any_law(capsys, tmp_path, monkeypatch):
    def never(*args):
        raise AssertionError("a law ran")

    monkeypatch.setattr("gcl.oracle.verify_laws", never)
    p = tmp_path / "five.csv"
    p.write_text(",a,b,c,d,e\ng1,1,0,1,0,1\ng2,0,1,1,0,0\n")
    code, out, err = run(capsys, "verify", str(p), "--sweep")
    assert (code, out) == (3, "")
    assert err == "gcl: 5 attributes exceed the sweep cap of 4\n"


def test_verify_reports_failures(capsys, t1_path, monkeypatch):
    def fake(ctx, lat=None):
        return OracleReport(
            "0" * 64, 3, 2,
            (LawResult("extent-fixpoint", False, "X={g1}: grsp does not evaluate back"),),
            None,
            (),
        )

    monkeypatch.setattr("gcl.oracle.verify_laws", fake)
    code, out, _ = run(capsys, "verify", t1_path)
    assert code == 4
    lines = out.splitlines()
    assert "law extent-fixpoint: FAIL (X={g1}: grsp does not evaluate back)" in lines
    assert lines[-1] == "1 laws FAILED"


# --- compare ---


def test_compare_agrees(capsys, t1_path):
    code, out, _ = run(capsys, "compare", t1_path)
    assert code == 0
    assert out.splitlines() == [
        "fcl: routes agree on 4 concepts",
        "rsl: routes agree on 4 concepts",
    ]


def test_compare_disagreement_exits_4(capsys, t1_path, monkeypatch):
    from gcl.classical import recover_classical

    def drop_one(lat, kind):
        got = recover_classical(lat, kind)
        return type(got)(got.kind, got.context, tuple(got.concepts)[1:], got.hasse_edges)

    monkeypatch.setattr("gcl.classical.recover_classical", drop_one)
    code, out, _ = run(capsys, "compare", t1_path)
    assert code == 4
    assert out.splitlines() == [
        "fcl: routes DISAGREE (direct 4 concepts, recovered 3)",
        "rsl: routes DISAGREE (direct 4 concepts, recovered 3)",
    ]


def test_compare_agrees_on_duplicate_rows(capsys, tmp_path):
    # 240 objects over 12 distinct rows: every node is a union of blocks of
    # 20 objects, and the recovered extents must still be whole blocks
    distinct = (0, 1, 3, 6, 12, 24, 48, 63, 21, 42, 17, 34)
    ctx = FormalContext(
        tuple(f"g{i}" for i in range(240)),
        tuple(f"m{j}" for j in range(6)),
        distinct * 20,
    )
    assert blocks(ctx).n_f == 12
    p = tmp_path / "dup.cxt"
    p.write_text(context_to_cxt(ctx))
    code, out, _ = run(capsys, "compare", str(p))
    assert code == 0
    assert out.splitlines() == [
        f"fcl: routes agree on {len(build_fcl(ctx).concepts)} concepts",
        f"rsl: routes agree on {len(build_rsl(ctx).concepts)} concepts",
    ]
    lat = build_gcl(ctx)
    assert recover_classical(lat, "fcl") == build_fcl(ctx)
    assert recover_classical(lat, "rsl") == build_rsl(ctx)


def test_compare_builds_no_node(capsys, tmp_path, monkeypatch):
    # recovery reads every block set's extent and bounds from the partition
    def never(*args):
        raise AssertionError("a node was built")

    ctx = random_context(1, 12, 6, 0.5)
    p = tmp_path / "c.cxt"
    p.write_text(context_to_cxt(ctx))
    monkeypatch.setattr("gcl.lattice.GeneralConcept", never)
    code, out, err = run(capsys, "compare", str(p))
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        f"fcl: routes agree on {len(build_fcl(ctx).concepts)} concepts",
        f"rsl: routes agree on {len(build_rsl(ctx).concepts)} concepts",
    ]


def test_build_refuses_names_with_line_breaks(capsys, tmp_path):
    # quoted csv fields may hold a line break, which no cxt name can
    p = tmp_path / "broken.csv"
    p.write_bytes(b',a,"b\nc"\n"g\n1",X,.\ng2,.,X\n')
    for fmt in ("text", "json", "dot"):
        code, out, err = run(capsys, "build", str(p), "--format", fmt)
        assert code == 2 and out == ""
        assert err == "gcl: object name 'g\\n1' contains a line break\n"


def _swap_selections(monkeypatch):
    """Make the cli read, for block set 1 (the first block alone), the
    members kept for block set 2, and the other way, in exports and
    inspect alike."""
    real_keeps = irreducibles._keeps
    swap = {1: 2, 2: 1}
    monkeypatch.setattr("gcl.irreducibles._keeps", lambda table, ks: real_keeps(table, swap.get(ks, ks)))


def test_build_broken_reduced_bound_exits_4(capsys, t1_path, monkeypatch):
    _swap_selections(monkeypatch)
    for fmt in ("text", "json", "dot"):
        code, _, err = run(capsys, "build", t1_path, "--format", fmt)
        assert code == 4
        which = "gfcp" if fmt == "json" else "grsp"  # json writes a node's gfcp first
        assert err == f"gcl: reduced {which} does not match its canonical bound\n"


# --- random ---


def test_random_matches_golden(capsys):
    golden = pathlib.Path(__file__).parent / "golden" / "random_seed1_4x3.cxt"
    code, out, _ = run(capsys, "random", "1", "4", "3", "0.5")
    assert code == 0
    assert out == golden.read_text()


def test_random_out_file(capsys, tmp_path):
    target = tmp_path / "ctx.cxt"
    code, out, _ = run(capsys, "random", "1", "4", "3", "0.5", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("B\n\n4\n3\n")


def test_random_rejects_bad_density(capsys):
    code, _, err = run(capsys, "random", "1", "4", "3", "1.5")
    assert code == 1
    assert "density 1.5 outside [0, 1]" in err


def test_random_rejects_negative_dimensions(capsys):
    code, _, err = run(capsys, "random", "1", "-4", "3", "0.5")
    assert code == 1
    assert "negative dimensions" in err


def test_random_refuses_oversized_context(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("random_context ran")

    monkeypatch.setattr("gcl.cli.random_context", never)
    code, out, err = run(capsys, "random", "1", "100000000", "1000", "0.5")
    assert code == 3 and out == ""
    assert "100000000000 cells exceed the cap of 10000000" in err


@pytest.mark.parametrize(
    "objects, attributes, names",
    [("1000000000", "0", 1000000000), ("0", "20000000", 20000000), ("1", "10000000", 10000001)],
)
def test_random_refuses_too_many_names(capsys, monkeypatch, objects, attributes, names):
    # no cells to count, or too few, yet every name would be built
    def never(*args):
        raise AssertionError("random_context ran")

    monkeypatch.setattr("gcl.cli.random_context", never)
    code, out, err = run(capsys, "random", "1", objects, attributes, "0.5")
    assert code == 3 and out == ""
    assert f"= {names} names exceed the cap of 10000000" in err


# --- inspect ---


def test_inspect_by_objects(capsys, t1_path):
    code, out, _ = run(capsys, "inspect", t1_path, "--objects", "g1")
    assert code == 0
    assert out.splitlines() == [
        "extent: {g1}",
        "blocks: D1",
        "grsp: !b  (minterms [0, 1])",
        "gfcp: !b & a  (minterms [1])",
    ]


def test_inspect_empty_extent(capsys, t1_path):
    code, out, _ = run(capsys, "inspect", t1_path, "--objects", "")
    assert code == 0
    assert out.splitlines() == [
        "extent: {}",
        "blocks: (none)",
        "grsp: !a & !b  (minterms [0])",
        "gfcp: 0  (minterms [])",
    ]


def test_inspect_by_query(capsys, t1_path):
    code, out, _ = run(capsys, "inspect", t1_path, "--query", "a & !b")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "query: a & !b"
    assert lines[1] == "extent: {g1}"


def test_inspect_irreducibles(capsys, t1_path):
    code, out, _ = run(capsys, "inspect", t1_path, "--objects", "g1", "--irreducibles")
    assert code == 0
    lines = out.splitlines()
    assert "conjunction class: {!b}" in lines
    assert "disjunction class: {!b}" in lines


def test_inspect_empty_class_is_marked(capsys, t1_path):
    code, out, _ = run(capsys, "inspect", t1_path, "--objects", "g2", "--irreducibles")
    assert code == 0
    assert "disjunction class: (empty)" in out.splitlines()


def _inspect_reference(ctx, xs, irreducibles):
    """inspect's output as it was built before it was streamed: whole lines
    joined at the end, each bound from the oracle's walk (reference.py), its
    ids from ids()."""
    lat = build_gcl(ctx)
    node = lat.node_of(xs)
    lines = ["extent: {" + ", ".join(ctx.object_names(node.extent)) + "}"]
    in_blocks = [f"D{k + 1}" for k in range(lat.partition.n_f) if node.block_set >> k & 1]
    lines.append("blocks: " + (", ".join(in_blocks) if in_blocks else "(none)"))
    fancy = cli._fancy(lat, cli._INSPECT_BLOCK_LIMIT)
    for which, cf in (("grsp", node.grsp), ("gfcp", node.gfcp)):
        pretty = reference_bound(ctx, node.extent, cf, which, fancy)
        lines.append(f"{which}: {pretty}  (minterms {cf.ids()})")
    if irreducibles:
        for label, find in (
            ("conjunction", irreducible_conjunctions),
            ("disjunction", irreducible_disjunctions),
        ):
            members = find(ctx, xs).members
            body = ", ".join(s.describe(ctx.attributes) for s in members)
            lines.append(f"{label} class: {body or '(empty)'}")
    return "\n".join(lines) + "\n"


# (objects, attributes, fancy): reduced bounds at n_F <= 12 and m <= 10,
# plain ones past either limit.  inspect renders one node, so from m 2 on a
# plain bound and its id list are written in runs of 2^ceil(m/2) items,
# fancy shapes (12 x 8) included
INSPECT_SHAPES = [
    (5, 0, True),
    (4, 1, True),
    (6, 3, True),
    (12, 8, True),
    (40, 6, False),
    (16, 10, False),
    (6, 11, False),
    (30, 13, False),
    (5, 16, False),
]


@pytest.mark.parametrize(
    "n, m, fancy", INSPECT_SHAPES, ids=[f"{n}x{m}" for n, m, _ in INSPECT_SHAPES]
)
def test_streamed_inspect_matches_the_joined_lines(capsys, tmp_path, n, m, fancy):
    # fancy shapes stay within the irreducibles cap; every shape past m 1
    # has its bounds and ids in runs
    assert m <= irreducibles.DEFAULT_IRREDUCIBLES_CAP or not fancy
    assert (exprs._low_width(m, 1) < m) == (m > 1)
    ctx = random_context(n + 100 * m, n, m, 0.5)
    assert cli._fancy(build_gcl(ctx), cli._INSPECT_BLOCK_LIMIT) == fancy
    p = tmp_path / "ctx.cxt"
    p.write_text(context_to_cxt(ctx))
    exts = blocks(ctx).extents
    # the empty extent (an empty gfcp), every object (a full grsp) and
    # every other block
    for bits in sorted({0, (1 << n) - 1, sum(exts[::2])}):
        xs = BitSet(bits, n)
        flags = ["--irreducibles"] if m <= 10 else []
        code, out, err = run(
            capsys, "inspect", str(p), "--objects", ",".join(ctx.object_names(xs)), *flags
        )
        assert (code, err) == (0, "")
        assert out == _inspect_reference(ctx, xs, bool(flags))


def test_wide_inspect_is_written_in_runs(tmp_path, monkeypatch):
    # m 16: a bound of the empty extent lists nearly 2^16 minterms, written
    # a slice of 2^8 at a time, never as one string
    ctx = random_context(7, 5, 16, 0.5)
    p = tmp_path / "wide.cxt"
    p.write_text(context_to_cxt(ctx))
    sizes = []

    class Out:
        def write(self, text):
            sizes.append(len(text))

    monkeypatch.setattr(sys, "stdout", Out())
    assert main(["inspect", str(p), "--objects", ""]) == 0
    assert sum(sizes) > 4 * 10**6
    assert max(sizes) < sum(sizes) / 50


def test_inspect_holds_one_run_not_one_bound(tmp_path, monkeypatch):
    # 22 objects in 14 blocks over 10 attributes, the shape the benchmark's
    # cube inspects: each bound lists about a thousand minterms (some 55 KB
    # of text), but inspect picks them from tables of 2^5 strings and
    # writes them 2^5 at a time, so its heap never holds a whole bound or
    # a table of 2^10 terms.  The peak is about 38 KB (--objects) and 70 KB
    # (--query); with 2^10-term tables and one string per bound it was
    # 487 and 519 KB.
    base = random_context(0, 14, 10, 0.5)
    ctx = FormalContext(
        tuple(f"g{i + 1}" for i in range(22)), base.attributes, base.rows + base.rows[:8]
    )
    part = blocks(ctx)
    assert part.n_f == 14
    p = tmp_path / "cube.cxt"
    p.write_text(context_to_cxt(ctx))
    picked = [k for k in range(part.n_f) if k % 3 != 1]
    extent = sum(part.extents[k] for k in picked)
    query = " | ".join(
        "(" + " & ".join(("" if part.rows[k] >> j & 1 else "!") + a
                         for j, a in enumerate(ctx.attributes)) + ")"
        for k in picked
    )
    target = ",".join(ctx.object_names(BitSet(extent, ctx.n_objects)))
    written = []

    class Sink:
        def write(self, text):
            written.append(len(text))

    monkeypatch.setattr(sys, "stdout", Sink())
    for args in (("--objects", target), ("--query", query)):
        exprs._term_tables.cache_clear()
        blocks.cache_clear()
        written.clear()
        tracemalloc.start()
        try:
            assert main(["inspect", str(p), *args]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(written) > 100_000
        assert peak < 150 * 1024, (args[0], peak)


def test_inspect_cap_refusals_write_nothing(capsys, t1_path, tmp_path):
    code, out, err = run(capsys, "inspect", t1_path, "--objects", "g1", "--max-m", "1")
    assert (code, out) == (3, "")
    assert "2 attributes exceed the canonical-form cap of 1" in err
    # 11 attributes: the irreducible classes are refused after the bounds
    # are rendered, but before they are written
    p = tmp_path / "m11.cxt"
    names = ["g1", "g2"] + [f"m{j}" for j in range(11)]
    p.write_text("B\n\n2\n11\n\n" + "\n".join(names + ["X" * 11, "." * 11]) + "\n")
    code, out, err = run(capsys, "inspect", str(p), "--objects", "g1", "--irreducibles")
    assert (code, out) == (3, "")
    assert "11 attributes exceed the irreducibles cap of 10" in err


def test_inspect_broken_reduced_bound_writes_nothing(capsys, t1_path, monkeypatch):
    _swap_selections(monkeypatch)
    code, out, err = run(capsys, "inspect", t1_path, "--objects", "g1")
    assert (code, out) == (4, "")
    assert "does not match its canonical bound" in err


def test_inspect_unknown_name(capsys, t1_path):
    for names in ("g9", "g1, g9"):
        code, out, err = run(capsys, "inspect", t1_path, "--objects", names)
        assert (code, out) == (2, "")
        assert "unknown name 'g9'" in err


def test_internal_key_error_is_not_an_unknown_name(capsys, t1_path, monkeypatch):
    def broken(ctx):
        raise KeyError("internal")

    monkeypatch.setattr("gcl.classical.build_fcl", broken)
    with pytest.raises(KeyError, match="internal"):
        main(["build", t1_path, "--lattice", "fcl"])


def test_inspect_non_block_union(capsys, tmp_path):
    p = tmp_path / "dup.cxt"
    p.write_text("B\n\n3\n2\n\ng1\ng2\ng3\na\nb\nX.\nX.\n.X\n")
    code, out, err = run(capsys, "inspect", str(p), "--objects", "g1")
    assert (code, out) == (2, "")
    assert "not a union of blocks" in err


def test_inspect_bad_query(capsys, t1_path):
    code, out, err = run(capsys, "inspect", t1_path, "--query", "a &")
    assert (code, out) == (2, "")
    assert "column" in err


# --- failure modes shared by every file-reading command ---


def test_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "build", str(tmp_path / "nope.cxt"))
    assert code == 2
    assert "nope.cxt" in err


def test_missing_file_is_named_as_pathlib_names_it(capsys, tmp_path, monkeypatch):
    # "." parts and repeated slashes are dropped, ".." kept, as Path printed
    # them when the CLI read files through it; so is an --out path
    monkeypatch.chdir(tmp_path)
    for given, named in (("./nope.cxt", "nope.cxt"), ("a//b/../m.csv", "a/b/../m.csv")):
        code, out, err = run(capsys, "build", given)
        assert (code, out, err) == (2, "", f"gcl: [Errno 2] No such file or directory: '{named}'\n")
    code, _, err = run(capsys, "random", "1", "2", "2", "0.5", "--out", ".//gone/./x.cxt")
    assert (code, err) == (2, "gcl: [Errno 2] No such file or directory: 'gone/x.cxt'\n")
    (tmp_path / "t1.cxt").write_text(T1_CXT)
    code, out, err = run(capsys, "build", "t1.cxt", "--out", "./nope//x.txt")
    assert (code, out, err) == (2, "", "gcl: [Errno 2] No such file or directory: 'nope/x.txt'\n")


def test_malformed_context(capsys, tmp_path):
    p = tmp_path / "bad.cxt"
    p.write_text("B\n\n2\n1\n\ng1\ng2\na\nX\nXX\n")
    code, _, err = run(capsys, "build", str(p))
    assert code == 2
    assert "line 10" in err


def test_oversized_csv_field_is_an_input_error(capsys, tmp_path):
    p = tmp_path / "big.csv"
    p.write_text("," + "a" * 200_000 + "\n")
    code, out, err = run(capsys, "build", str(p))
    assert (code, out) == (2, "")
    assert err == "gcl: line 1: malformed csv: field larger than field limit (131072)\n"


def test_non_utf8_context_is_an_input_error(tmp_path):
    # run as a child, so a traceback would show on its stderr
    p = tmp_path / "latin1.cxt"
    p.write_bytes(T1_CXT.replace("g1", "g\xe9").encode("latin-1"))
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "gcl.cli", "build", str(p)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "gcl: line 6: byte 0xe9 at offset 9 is not UTF-8\n"


def test_utf8_names_round_trip_through_out_file(capsys, tmp_path):
    p = tmp_path / "utf8.cxt"
    p.write_bytes(T1_CXT.replace("g1", "g\u00e9").encode("utf-8"))
    target = tmp_path / "lat.txt"
    code, _, _ = run(capsys, "build", str(p), "--out", str(target))
    assert code == 0
    assert "node [1] {g\u00e9}".encode("utf-8") in target.read_bytes()


def test_block_cap(capsys, t1_path):
    # the node cap is fixed: --max-nf is no option of any command
    for command in (["build"], ["verify"], ["compare"], ["inspect", "--objects", "g1"]):
        code, _, err = run(capsys, *command, t1_path, "--max-nf", "1")
        assert code == 1
        assert "unrecognized arguments: --max-nf 1" in err


@pytest.fixture
def blocks64_path(capsys, tmp_path):
    # 70 random rows over 8 attributes, 64 of them distinct: 64 blocks
    p = tmp_path / "b64.cxt"
    assert run(capsys, "random", "5", "70", "8", "0.5", "--out", str(p))[0] == 0
    return str(p)


def test_reading_one_node_passes_the_node_cap(capsys, blocks64_path):
    # inspect and verify read nodes by block set, so 2^64 nodes are no bar
    code, out, err = run(capsys, "inspect", blocks64_path, "--query", "m1 & !m2")
    assert (code, err) == (0, "")
    assert out.startswith("query: m1 & !m2\nextent: {")
    code, out, err = run(capsys, "verify", blocks64_path)
    assert (code, err) == (0, "")
    assert "70 objects, 8 attributes, 64 blocks" in out
    assert out.endswith("all laws hold\n")


def test_walking_the_cube_is_refused_past_the_node_cap(capsys, blocks64_path, monkeypatch):
    def never(*args):
        raise AssertionError("a direct build ran")

    # compare walks every node to recover the classical lattices, and is
    # refused before it builds them directly
    monkeypatch.setattr("gcl.classical.build_fcl", never)
    monkeypatch.setattr("gcl.classical.build_rsl", never)
    code, out, err = run(capsys, "compare", blocks64_path)
    assert (code, out) == (3, "")
    assert err == (
        "gcl: 64 blocks exceed the node cap of 20 (the lattice would need 2^64 nodes)\n"
    )
    code, out, err = run(capsys, "build", blocks64_path)
    assert (code, out) == (3, "")
    assert "export of 64 blocks and 8 attributes refused" in err


def test_oversized_export_is_refused_before_rendering(capsys, tmp_path, monkeypatch):
    # 16 blocks x 16 attributes: within the canonical cap, but
    # the export would print 2^16 nodes with 2^16-minterm bounds
    names = [f"g{i}" for i in range(16)]
    attrs = [f"m{j}" for j in range(16)]
    rows = ["".join("X" if (i + 1) >> j & 1 else "." for j in range(16)) for i in range(16)]
    p = tmp_path / "wide.cxt"
    p.write_text("B\n\n16\n16\n\n" + "\n".join(names + attrs + rows) + "\n")

    def never(*args):
        raise AssertionError("a node was built or rendered")

    # everything a node's text is computed from, on either rendering path
    monkeypatch.setattr("gcl.lattice.GeneralConcept", never)
    monkeypatch.setattr("gcl.cli._bound_pretty", never)
    monkeypatch.setattr("gcl.exprs._term_text", never)
    monkeypatch.setattr("gcl.exprs._id_runs", never)
    monkeypatch.setattr("gcl.cli._picked", never)
    monkeypatch.setattr("gcl.context.BlockPartition.union", never)
    # a refused export neither truncates nor creates its --out file
    kept = tmp_path / "kept.txt"
    kept.write_text("earlier output\n")
    missing = tmp_path / "missing.txt"
    for fmt in ("text", "json", "dot"):
        for out_args in ((), ("--out", str(kept)), ("--out", str(missing))):
            code, out, err = run(capsys, "build", str(p), "--format", fmt, *out_args)
            assert code == 3 and out == ""
            assert "export of 16 blocks and 16 attributes refused" in err
            assert "export limit of 2^20" in err
    assert kept.read_text() == "earlier output\n"
    assert not missing.exists()


def test_wide_inspect_is_refused_before_rendering(capsys, tmp_path, monkeypatch):
    # 3 objects x 17 attributes: within every cap, but each printed bound
    # would list up to 2^17 minterm ids
    rows = ["X" * 17, "X." * 8 + "X", "." * 17]
    names = ["g1", "g2", "g3"] + [f"m{j}" for j in range(17)]
    p = tmp_path / "wide.cxt"
    p.write_text("B\n\n3\n17\n\n" + "\n".join(names + rows) + "\n")

    def never(*args):
        raise AssertionError("a node was looked up or rendered")

    monkeypatch.setattr("gcl.lattice.GclLattice.node_of", never)
    monkeypatch.setattr("gcl.cli._bound_pretty", never)
    for target in (["--objects", "g1,g3"], ["--query", "m0 & !m1"]):
        code, out, err = run(capsys, "inspect", str(p), *target)
        assert (code, out) == (3, "")
        assert "inspect of 17 attributes refused" in err
        assert "inspect limit of 16 attributes" in err


def test_max_m_holds_for_every_command(capsys, tmp_path):
    # 3 objects x 21 attributes: past the default canonical-form cap of 20
    rows = ["X" * 21, "X." * 10 + "X", "." * 21]
    names = ["g1", "g2", "g3"] + [f"m{j}" for j in range(21)]
    p = tmp_path / "wide.cxt"
    p.write_text("B\n\n3\n21\n\n" + "\n".join(names + rows) + "\n")
    code, _, err = run(capsys, "build", str(p))
    assert code == 3
    assert err == "gcl: 21 attributes exceed the canonical-form cap of 20\n"
    code, out, _ = run(capsys, "compare", str(p), "--max-m", "21")
    assert code == 0
    assert out.splitlines() == [
        "fcl: routes agree on 3 concepts",
        "rsl: routes agree on 3 concepts",
    ]
    code, out, _ = run(capsys, "verify", str(p), "--max-m", "21")
    assert code == 0
    assert out.splitlines()[-1] == "all laws hold"


def test_bad_env_value_falls_back(capsys, t1_path, monkeypatch):
    monkeypatch.setenv("GCL_MAX_M", "plenty")
    code, out, _ = run(capsys, "build", t1_path)
    assert code == 0
    assert "8 nodes" in out


def test_negative_max_m_is_usage_error(capsys, t1_path):
    code, out, err = run(capsys, "inspect", t1_path, "--objects", "g1", "--max-m=-2")
    assert (code, out) == (1, "")
    assert "argument --max-m: invalid cap '-2': must be at least 0" in err
    # a value that is no int keeps argparse's own wording
    code, _, err = run(capsys, "build", t1_path, "--max-m", "two")
    assert code == 1
    assert "argument --max-m: invalid int value: 'two'" in err


def test_negative_env_value_falls_back(capsys, t1_path, monkeypatch):
    monkeypatch.setenv("GCL_MAX_M", "-1")
    code, out, _ = run(capsys, "build", t1_path)
    assert code == 0
    assert "8 nodes" in out


# --- usage ---


def test_no_command_is_usage_error(capsys):
    assert run(capsys, )[0] == 1


def test_unknown_command_is_usage_error(capsys):
    assert run(capsys, "destroy")[0] == 1


def test_build_requires_context(capsys):
    code, _, err = run(capsys, "build")
    assert code == 1
    assert "usage:" in err


def test_inspect_target_is_exclusive(capsys, t1_path):
    code, _, _ = run(capsys, "inspect", t1_path, "--objects", "g1", "--query", "a")
    assert code == 1


def test_help_exits_cleanly(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "build", "--help")[0] == 0


def test_help_lists_the_grammar_table(capsys):
    code, out, err = run(capsys, "-h")
    assert (code, err) == (0, "")
    assert out.startswith("usage: gcl [-h] command ...\n")
    for name, (about, _, _) in cli._COMMANDS.items():
        assert f"  {name} " in out and about in out
    for name, (about, _, rows) in cli._COMMANDS.items():
        code, out, err = run(capsys, name, "-h")
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: gcl {name} [-h]") and about in out
        for arg, kind, _, text in rows:
            assert f"  {arg}" in out and text in out
            if isinstance(kind, tuple):
                assert "{" + ",".join(kind) + "}" in out


# Each usage error with the last line argparse printed for it; the usage
# block above that line is laid out anew from the grammar table.
USAGE_ERRORS = [
    ([], "gcl: error: the following arguments are required: command"),
    (
        ["bild"],
        "gcl: error: argument command: invalid choice: 'bild' "
        "(choose from 'build', 'verify', 'compare', 'random', 'inspect')",
    ),
    (["build"], "gcl build: error: the following arguments are required: context"),
    (["build", "F", "extra"], "gcl: error: unrecognized arguments: extra"),
    (["build", "F", "--max-nf", "1"], "gcl: error: unrecognized arguments: --max-nf 1"),
    (["build", "F", "-x"], "gcl: error: unrecognized arguments: -x"),
    (["build", "--", "F", "--", "--x"], "gcl: error: unrecognized arguments: -- --x"),
    (["build", "F", "--out"], "gcl build: error: argument --out: expected one argument"),
    (["build", "F", "--out", "--", "x"], "gcl build: error: argument --out: expected one argument"),
    (
        ["build", "F", "--format", "xml"],
        "gcl build: error: argument --format: invalid choice: 'xml' "
        "(choose from 'json', 'dot', 'text')",
    ),
    (
        ["build", "F", "--max-m", "two"],
        "gcl build: error: argument --max-m: invalid int value: 'two'",
    ),
    (
        ["build", "F", "--max-m=-2"],
        "gcl build: error: argument --max-m: invalid cap '-2': must be at least 0",
    ),
    (
        ["verify", "F", "--json=1"],
        "gcl verify: error: argument --json: ignored explicit argument '1'",
    ),
    (["random", "1", "4", "3"], "gcl random: error: the following arguments are required: density"),
    (["random", "1", "2", "3", "4", "5"], "gcl: error: unrecognized arguments: 5"),
    (["random", "x", "4", "3", "0.5"], "gcl random: error: argument seed: invalid int value: 'x'"),
    (
        ["inspect", "F", "--objects", "g1", "--query", "a"],
        "gcl inspect: error: argument --query: not allowed with argument --objects",
    ),
    (["inspect", "F"], "gcl inspect: error: one of the arguments --objects --query is required"),
    (
        ["inspect", "F", "--i", "cxt", "--objects", "g1"],
        "gcl inspect: error: ambiguous option: --i could match --input-format, --irreducibles",
    ),
    (
        ["inspect", "F", "--query", "-a"],
        "gcl inspect: error: argument --query: expected one argument",
    ),
    (["build", "F", "-hx"], "gcl build: error: argument -h/--help: ignored explicit argument 'x'"),
]


@pytest.mark.parametrize("argv,last", USAGE_ERRORS, ids=[" ".join(a) for a, _ in USAGE_ERRORS])
def test_usage_errors_end_with_argparse_line(capsys, argv, last):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    prog = last.split(": error: ")[0]
    assert err.startswith(f"usage: {prog} ")
    assert err.endswith("\n" + last + "\n")


_DEFAULTS = {
    "build": dict(lattice="gcl", format="text", out=None),
    "verify": dict(sweep=False, json=False, out=None),
    "compare": {},
    "inspect": dict(objects=None, query=None, irreducibles=False),
}


def _args(command, context="F", **fields):
    """The values argparse gave a command reading a context."""
    common = dict(command=command, context=context, input_format=None, max_m=20)
    return {**common, **_DEFAULTS[command], **fields}


def _random(seed, objects, attributes, density, out=None):
    """The values argparse gave the random command."""
    fields = dict(seed=seed, objects=objects, attributes=attributes, density=density)
    return dict(command="random", **fields, out=out)


# Command lines with the values argparse gave the command for them.


VALID_ARGV = [
    (["build", "F", "--format", "json"], _args("build", format="json")),
    (["build", "--format", "json", "F"], _args("build", format="json")),
    (
        ["build", "--out", "o.txt", "F", "--lattice", "fcl"],
        _args("build", out="o.txt", lattice="fcl"),
    ),
    (
        ["build", "F", "--format=dot", "--input-format=csv"],
        _args("build", format="dot", input_format="csv"),
    ),
    (["build", "F", "--form", "dot", "--lat=rsl"], _args("build", format="dot", lattice="rsl")),
    (["build", "F", "--format", "json", "--format", "dot"], _args("build", format="dot")),
    (["build", "--", "-F"], _args("build", "-F")),
    (["build", "F", "--"], _args("build")),
    (
        ["inspect", "F", "--obj", "g1,g2", "--irr"],
        _args("inspect", objects="g1,g2", irreducibles=True),
    ),
    (
        ["inspect", "--query", "a & !b", "F", "--max-m", "3"],
        _args("inspect", query="a & !b", max_m=3),
    ),
    (["inspect", "F", "--query=-a"], _args("inspect", query="-a")),
    (["inspect", "F", "--objects", "g1", "--objects", "g2"], _args("inspect", objects="g2")),
    (
        ["verify", "F", "--max-m", "5", "--max-m=7", "--json", "--sweep", "--json"],
        _args("verify", max_m=7, json=True, sweep=True),
    ),
    (
        ["verify", "--sw", "F", "--j", "--o", "r.txt"],
        _args("verify", sweep=True, json=True, out="r.txt"),
    ),
    (["compare", "F", "--max-m", "-0"], _args("compare", max_m=0)),
    (["random", "1", "-4", "3", "0.5"], _random(1, -4, 3, 0.5)),
    (["random", "--out", "c.cxt", "-1", "4", "3", "-.5"], _random(-1, 4, 3, -0.5, "c.cxt")),
    (["random", "1", "4", "--out", "c.cxt", "3", "0.5"], _random(1, 4, 3, 0.5, "c.cxt")),
]


@pytest.mark.parametrize("argv,want", VALID_ARGV)
def test_valid_argv_reaches_the_command_with_argparse_values(monkeypatch, argv, want):
    monkeypatch.delenv("GCL_MAX_M", raising=False)
    seen = []
    about, _, rows = cli._COMMANDS[argv[0]]
    monkeypatch.setitem(cli._COMMANDS, argv[0], (about, lambda args: seen.append(args) or 0, rows))
    assert main(argv) == 0
    assert [vars(args) for args in seen] == [want]


def _big_cxt(tmp_path) -> pathlib.Path:
    # 12 distinct rows over 8 attributes: a text export of several MB
    rows = [format(i * 37 % 256, "08b").replace("1", "X").replace("0", ".") for i in range(12)]
    names = [f"g{i}" for i in range(12)] + [f"m{j}" for j in range(8)]
    p = tmp_path / "big.cxt"
    p.write_text("B\n\n12\n8\n\n" + "\n".join(names + rows) + "\n")
    return p


def test_closed_stdout_exits_141_quietly(tmp_path):
    p = _big_cxt(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "gcl.cli", "build", str(p)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait(timeout=120) == 141
    assert err == b""


# --- exit ---

# registered before main, so it runs after main's exit hook (last in, first out)
_EXIT_PROBE = (
    "import atexit, gc, sys\n"
    "def record():\n"
    "    with open(sys.argv[1], 'w') as fh:\n"
    "        fh.write(str(gc.get_freeze_count() > 0))\n"
    "atexit.register(record)\n"
    "import gcl.cli\n"
    "sys.exit(gcl.cli.main(sys.argv[2:]))\n"
)


def _exit_probe(tmp_path, *argv):
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).resolve().parents[1] / "src")}
    flag = tmp_path / "frozen.txt"
    proc = subprocess.Popen(
        [sys.executable, "-c", _EXIT_PROBE, str(flag), *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=tmp_path,
    )
    return proc, flag


def test_exit_freezes_the_heap_before_earlier_handlers(tmp_path, t1_path):
    proc, flag = _exit_probe(tmp_path, "verify", t1_path)
    out, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (0, b"")
    assert out.startswith(b"context sha256 ")
    assert flag.read_text() == "True"


def test_main_leaves_the_callers_gc_state(capsys, t1_path):
    # the freeze waits for exit: an in-process caller still collects its
    # own cycles, and two calls add at most one exit handler
    frozen, enabled, handlers = gc.get_freeze_count(), gc.isenabled(), atexit._ncallbacks()
    assert main(["build", t1_path]) == 0
    assert main(["verify", t1_path, "--json"]) == 0
    capsys.readouterr()
    assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)
    assert atexit._ncallbacks() - handlers <= 1


def test_child_output_matches_in_process_output(capsys, tmp_path):
    # n_F 10, m 6: several buffers of json, all flushed at exit
    p = tmp_path / "c.cxt"
    p.write_text(context_to_cxt(random_context(7, 10, 6, 0.5)))
    code, want, _ = run(capsys, "build", str(p), "--format", "json")
    assert code == 0 and len(want) > 1 << 16
    proc, flag = _exit_probe(tmp_path, "build", str(p), "--format", "json")
    piped, err = proc.communicate(timeout=120)
    assert (proc.returncode, err, piped) == (0, b"", want.encode())
    proc, _ = _exit_probe(tmp_path, "build", str(p), "--format", "json", "--out", "o.json")
    assert proc.communicate(timeout=120) == (b"", b"")
    assert proc.returncode == 0
    assert (tmp_path / "o.json").read_bytes() == want.encode()
    assert flag.read_text() == "True"


def test_closed_stdout_still_freezes_and_exits_141(tmp_path):
    proc, flag = _exit_probe(tmp_path, "build", str(_big_cxt(tmp_path)))
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait(timeout=120) == 141
    assert err == b""
    assert flag.read_text() == "True"


# --- peak memory ---

# The command's own peak: VmHWM counts only the address space exec gave
# this process, so it is read in the child, when the command returns.
_PEAK_PROBE = (
    "import sys\n"
    "import gcl.cli\n"
    "try:\n"
    "    code = gcl.cli.main(sys.argv[2:])\n"
    "finally:\n"
    "    with open('/proc/self/status') as fh:\n"
    "        peak = [line.split()[1] for line in fh if line.startswith('VmHWM:')]\n"
    "    with open(sys.argv[1], 'w') as out:\n"
    "        out.write(peak[0])\n"
    "sys.exit(code)\n"
)


def _has_vmhwm() -> bool:
    try:
        with open("/proc/self/status") as fh:
            return any(line.startswith("VmHWM:") for line in fh)
    except OSError:
        return False


@pytest.mark.skipif(not _has_vmhwm(), reason="no VmHWM in /proc/self/status")
@pytest.mark.parametrize(
    "shape, argv, code, bound_mb",
    [
        # 4,986 blocks over 20 attributes: a 2^20-bit row table kept per
        # block took about 350 MB, to print 1.5 KB or to refuse
        ((5000, 20), ["verify"], 0, 30),
        ((5000, 20), ["inspect", "--objects", "g1"], 3, 30),
        # 16 blocks: recovery reads 2^16 block sets, and keeping every node
        # read took 36 MB
        ((16, 12), ["compare"], 0, 25),
    ],
    ids=["verify-5000x20", "inspect-refused-5000x20", "compare-16x12"],
)
def test_peak_memory_follows_the_output(tmp_path, shape, argv, code, bound_mb):
    p = tmp_path / "r.cxt"
    p.write_text(context_to_cxt(random_context(1, *shape, 0.5)))
    peak = tmp_path / "peak.txt"
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_PROBE, str(peak), argv[0], str(p), *argv[1:]],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert int(peak.read_text()) < bound_mb * 1024
