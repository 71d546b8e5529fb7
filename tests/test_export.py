"""Streamed export: golden bytes, the json layout, and memory against output size."""

import gzip
import io
import json
import pathlib
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import reference_bound
from strategies import hostile_contexts
from gcl import BitSet, FormalContext, build_fcl, build_gcl, build_rsl, cli, context, exprs, irreducibles, lattice
from gcl.context import BlockPartition, parse_context
from gcl.cli import _PRETTY_BLOCK_LIMIT, _fancy, _json_escape, export_lattice, main
from gcl.oracle import random_context

GOLDEN = pathlib.Path(__file__).parent / "golden"
SUFFIX = {"text": "txt", "json": "json", "dot": "dot"}

# (context file, lattice kind, golden stem): the fancy context has 8 blocks,
# so its bounds take the reduced rendering; the plain one has 9, past the
# pretty limit, and is read as csv; the wide one has 11 attributes, so its
# bounds are written in runs, one per high term of the literal-term tables,
# and its 11th attribute (the first in the high table) carries a tab, a
# quote, a backslash and an astral character.  Names carry quotes,
# backslashes, a tab, non-ASCII letters and leading or trailing blanks.
CASES = [
    ("export_fancy.cxt", "gcl", "export_fancy_gcl"),
    ("export_plain.csv", "gcl", "export_plain_gcl"),
    ("export_wide.cxt", "gcl", "export_wide_gcl"),
    ("export_fancy.cxt", "fcl", "export_fancy_fcl"),
    ("export_fancy.cxt", "rsl", "export_fancy_rsl"),
]


def _golden(stem: str, fmt: str) -> bytes:
    path = GOLDEN / f"{stem}.{SUFFIX[fmt]}"
    if path.exists():
        return path.read_bytes()
    return gzip.decompress(path.with_name(path.name + ".gz").read_bytes())


def _exported(lat, fmt: str) -> str:
    out = io.StringIO()
    export_lattice(lat, fmt, out)
    return out.getvalue()


@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
@pytest.mark.parametrize("source,kind,stem", CASES)
def test_build_matches_golden_bytes(capsysbinary, tmp_path, source, kind, stem, fmt):
    want = _golden(stem, fmt)
    argv = ["build", str(GOLDEN / source), "--lattice", kind, "--format", fmt]
    assert main(argv) == 0
    captured = capsysbinary.readouterr()
    assert captured.out == want and captured.err == b""
    target = tmp_path / "export.out"
    target.write_text("x" * 10**6)  # a longer earlier file is replaced whole
    assert main([*argv, "--out", str(target)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert target.read_bytes() == want


_BUILD = {"gcl": build_gcl, "fcl": build_fcl, "rsl": build_rsl}


@pytest.mark.parametrize("kind", ["gcl", "fcl", "rsl"])
@settings(max_examples=40, deadline=None)
@given(ctx=hostile_contexts())
@example(ctx=FormalContext((), (), ()))
@example(ctx=FormalContext(("g",), (), (0,)))
@example(ctx=FormalContext((), ("a", "b"), ()))
def test_json_export_has_the_json_dumps_layout(kind, ctx):
    out = _exported(_BUILD[kind](ctx), "json")
    assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out


class _CountingSink:
    """A text stream that keeps nothing but the number of characters written."""

    def __init__(self):
        self.size = 0

    def write(self, text: str) -> int:
        self.size += len(text)
        return len(text)


@settings(max_examples=300, deadline=None)
@given(text=st.text(st.characters(exclude_categories=())))
@example(text='"\\/')
@example(text="".join(map(chr, range(0x20))) + "\x7f\x80 \u00e9\u2028\uffff")
@example(text="\U0001f600\U0010ffff\U00010000")
@example(text="\ud800 \udfff \udbff\udc00")
def test_json_escape_matches_json_dumps(text):
    # quotes, backslashes, controls, DEL, non-BMP characters (as surrogate
    # pairs) and lone surrogates, all as json.dumps writes them
    assert _json_escape(text) == json.dumps(text)[1:-1]


@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
def test_plain_export_builds_no_node(monkeypatch, capsysbinary, fmt):
    def never(*args):
        raise AssertionError("a node was built")

    monkeypatch.setattr("gcl.lattice.GeneralConcept", never)
    argv = ["build", str(GOLDEN / "export_plain.csv"), "--format", fmt]
    assert main(argv) == 0
    assert capsysbinary.readouterr().out == _golden("export_plain_gcl", fmt)


@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
def test_plain_export_maps_each_high_and_low_block_set_once(monkeypatch, fmt):
    # 9 blocks: the walk maps the 2^4 low and the 2^5 high block sets, and
    # ORs them into all 512 nodes
    ctx = parse_context((GOLDEN / "export_plain.csv").read_text(encoding="utf-8"), "csv")
    lat = build_gcl(ctx)
    n_f, h = lat.partition.n_f, context._WALK_LOW
    assert n_f == 9 and not _fancy(lat, _PRETTY_BLOCK_LIMIT)
    # the lattice's minterm tables are derived on first read; read them
    # here, so only the export's own maps are counted
    assert lat.zero_rho.table | lat.one_eta.table
    calls = Counter()
    for name in ("union", "row_table"):
        original = getattr(BlockPartition, name)

        def counted(part, block_set, name=name, original=original):
            calls[name] += 1
            return original(part, block_set)

        monkeypatch.setattr(BlockPartition, name, counted)
    assert _exported(lat, fmt).encode() == _golden("export_plain_gcl", fmt)
    assert 0 < calls["union"] <= (1 << h) + (1 << n_f - h)
    assert 0 < calls["row_table"] <= (1 << h) + (1 << n_f - h)


class _WriteCounter:
    """A text stream that keeps nothing but the number of write calls."""

    def __init__(self):
        self.calls = 0

    def write(self, text: str) -> int:
        self.calls += 1
        return len(text)


@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
def test_export_writes_each_node_in_one_chunk_up_to_the_term_split(fmt):
    # 9 blocks over 5 attributes, plain bounds: every part of a node is a
    # string, so the node is one write; the header, the constants and the
    # cover batches add a few more
    rows = tuple((7 * i + 3) % 32 for i in range(9))
    ctx = FormalContext(tuple(f"g{i}" for i in range(9)), tuple("abcde"), rows)
    lat = build_gcl(ctx)
    assert lat.partition.n_f == 9 and not _fancy(lat, _PRETTY_BLOCK_LIMIT)
    sink = _WriteCounter()
    export_lattice(lat, fmt, sink)
    assert sink.calls < (1 << 9) + 32


def test_unknown_format_is_refused_before_writing():
    sink = _WriteCounter()
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        export_lattice(build_gcl(_eight_blocks()), "xml", sink)
    assert sink.calls == 0


def _flat(uppers):
    return [(lo, hi) for lo, his in uppers for hi in his]


@pytest.mark.parametrize("n_f", range(11))
def test_the_per_lower_covers_flatten_to_the_cover_pairs(n_f):
    rows = tuple(range(n_f))
    ctx = FormalContext(tuple(f"g{i}" for i in rows), ("a", "b", "c", "d"), rows)
    edges = build_gcl(ctx).hasse_edges
    uppers = list(edges.uppers())
    assert len(uppers) == 1 << n_f
    # the covers differ in one block, ascending by lower then upper
    want = sorted((ks, ks | 1 << k) for ks in range(1 << n_f) for k in range(n_f) if not ks >> k & 1)
    assert _flat(enumerate(uppers)) == want == list(edges) == _flat(cli._uppers(edges))


@pytest.mark.parametrize("build", [build_fcl, build_rsl])
@pytest.mark.parametrize("seed", range(1, 6))
def test_classical_covers_grouped_by_lower_give_back_the_pairs(build, seed):
    lat = build(random_context(seed, 12, 6, 0.5))
    grouped = list(cli._uppers(lat.hasse_edges))
    assert [lo for lo, _ in grouped] == sorted({lo for lo, _ in lat.hasse_edges})
    assert _flat(grouped) == list(lat.hasse_edges)


@pytest.mark.parametrize("kind", ["gcl", "fcl", "rsl"])
def test_a_lattice_without_covers_prints_none(kind):
    # no objects: the one gcl node, and one classical concept
    lat = _BUILD[kind](FormalContext((), ("a", "b"), ()))
    assert not lat.hasse_edges
    assert _exported(lat, "text").endswith("\ncovers: (none)\n")
    assert json.loads(_exported(lat, "json"))["edges"] == []
    assert '"edges": []' in _exported(lat, "json")
    assert "->" not in _exported(lat, "dot")


# ---------------------------------------------------------------------------
# differential check against the node-by-node rendering
#
# The reference renders node by node from the lattice's nodes, with
# canonical_to_str (or the oracle's reduced bound, on a lattice small enough
# for it; see reference.py) and json.dumps: no name, id, term or member
# tables and no runs.  It shares _term_text with the export through
# canonical_to_str, so the golden files and test_exprs check the runs
# themselves.

def _reference(lat, fmt: str) -> str:
    ctx, part = lat.context, lat.partition
    fancy = _fancy(lat, _PRETTY_BLOCK_LIMIT)

    def pretty(node, which):
        return reference_bound(ctx, node.extent, getattr(node, which), which, fancy)

    def braced(names):
        return "{" + ", ".join(names) + "}"

    nodes = list(lat.nodes)
    edges = list(lat.hasse_edges)
    blocks = [
        (BitSet(extent, ctx.n_objects), BitSet(row, ctx.n_attributes))
        for extent, row in zip(part.extents, part.rows)
    ]
    if fmt == "json":
        data = {
            "kind": "gcl",
            "objects": list(ctx.objects),
            "attributes": list(ctx.attributes),
            "blocks": [
                {"extent": ctx.object_names(extent), "row": ctx.attribute_names(row)}
                for extent, row in blocks
            ],
            "constants": {"zero_rho": lat.zero_rho.ids(), "one_eta": lat.one_eta.ids()},
            "nodes": [
                {
                    "block_set": n.block_set,
                    "extent": ctx.object_names(n.extent),
                    "grsp_minterms": n.grsp.ids(),
                    "grsp_pretty": pretty(n, "grsp"),
                    "gfcp_minterms": n.gfcp.ids(),
                    "gfcp_pretty": pretty(n, "gfcp"),
                }
                for n in nodes
            ],
            "edges": [list(e) for e in edges],
        }
        return json.dumps(data, indent=2, sort_keys=True) + "\n"
    if fmt == "dot":
        lines = ["digraph gcl {", "  rankdir=BT;"]
        for i, n in enumerate(nodes):
            label = f"{braced(ctx.object_names(n.extent))} | {pretty(n, 'grsp')}"
            label = label.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  n{i} [label="{label}"];')
        lines.extend(f"  n{lo} -> n{hi};" for lo, hi in edges)
        return "\n".join(lines) + "\n}\n"
    lines = [
        f"gcl lattice: {ctx.n_objects} objects, {ctx.n_attributes} attributes, "
        f"{part.n_f} blocks, {len(nodes)} nodes"
    ]
    for k, (extent, row) in enumerate(blocks):
        row = " & ".join(ctx.attribute_names(row)) or "(no attributes)"
        lines.append(f"block D{k + 1}: {braced(ctx.object_names(extent))} with row {row}")
    lines.append(f"zero_rho: minterms {lat.zero_rho.ids()}")
    lines.append(f"one_eta: minterms {lat.one_eta.ids()}")
    for i, n in enumerate(nodes):
        lines.append(f"node [{i}] {braced(ctx.object_names(n.extent))}")
        lines.append(f"  grsp: {pretty(n, 'grsp')}")
        lines.append(f"  gfcp: {pretty(n, 'gfcp')}")
    lines.append("covers: " + (", ".join(f"{lo}<{hi}" for lo, hi in edges) or "(none)"))
    return "\n".join(lines) + "\n"


# every character either escaping must handle, plus plain and non-ASCII ones
_ESCAPED = st.text(st.sampled_from('"\\\tab \u00e9\U0001f642'), min_size=1, max_size=3)


@st.composite
def _wide_contexts(draw):
    """9 to 12 attributes and at most 3 blocks, under hostile names."""
    m = draw(st.integers(9, 12))
    n = draw(st.integers(0, 5))
    names = draw(st.lists(_ESCAPED, unique=True, min_size=m + n, max_size=m + n))
    kinds = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=3))
    rows = draw(st.lists(st.sampled_from(kinds), min_size=n, max_size=n))
    return FormalContext(tuple(names[m:]), tuple(names[:m]), tuple(rows))


_HIGH_NAMES = tuple("abcdefghij") + ('h\t"\\\U0001f642', "\\x")


@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
@settings(max_examples=12, deadline=None)
@given(ctx=_wide_contexts())
@example(ctx=FormalContext(("o\t1", '"o2"'), _HIGH_NAMES, (0b100000000001, 0b011111111110)))
@example(ctx=FormalContext((), _HIGH_NAMES[:11], ()))
def test_export_matches_the_node_rendering_across_the_term_split(fmt, ctx):
    lat = build_gcl(ctx)
    assert _exported(lat, fmt) == _reference(lat, fmt)


@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
@settings(max_examples=30, deadline=None)
@given(ctx=hostile_contexts())
@example(
    ctx=FormalContext(
        ('o"1', "o\\2", "\u00f63", "\U0001f6424"),
        ('"', "\\\\", "\u00e9", "\U0001f642"),
        (0b0011, 0b1010, 0b0101, 0b1111),
    )
)
def test_fancy_export_matches_the_oracle_rendering_under_hostile_names(fmt, ctx):
    # quotes, backslashes and non-ASCII names at n_F <= 8: the reduced and
    # the plain bound are compared by their unescaped lengths, whatever
    # escaping the format then applies
    lat = build_gcl(ctx)
    assert _fancy(lat, _PRETTY_BLOCK_LIMIT)
    assert _exported(lat, fmt) == _reference(lat, fmt)


def _export_peak(n_f: int, m: int, fmt: str) -> tuple[int, int]:
    """(tracemalloc peak, characters written) of a plain export of n_f
    blocks over m attributes, all ASCII, so characters are bytes."""
    rows = tuple((7 * i + 3) % (1 << m) for i in range(n_f))
    ctx = FormalContext(
        tuple(f"g{i}" for i in range(n_f)), tuple(f"m{j}" for j in range(m)), rows
    )
    lat = build_gcl(ctx)
    assert lat.partition.n_f == n_f
    sink = _CountingSink()
    tracemalloc.start()
    try:
        export_lattice(lat, fmt, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, sink.size


@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
def test_export_memory_stays_far_below_its_output(fmt):
    # 10 blocks over 6 attributes, past the pretty limit: 1024 nodes whose
    # plain bounds give 2-5 MB of output.  No node is built, so the
    # lattice's node cache adds nothing to the peak
    peak, size = _export_peak(10, 6, fmt)
    assert size > 2 * 10**6
    assert peak < size / 4, f"peak {peak} B for {size} B written"


@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
def test_export_memory_stays_far_below_one_wide_bound(fmt):
    # 1 block over 16 attributes: 2 nodes, one of whose bounds holds
    # 2^16 - 1 terms, most of the output; it is written in runs
    peak, size = _export_peak(1, 16, fmt)
    assert size > 2 * 10**6
    assert peak < size / 4, f"peak {peak} B for {size} B written"


@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
def test_wide_export_holds_one_bounds_selectors_at_a_time(monkeypatch, fmt):
    # 1 block over 12 attributes, past the term split: each of a node's
    # bounds and id lists comes in runs, and each picks its terms by a
    # selector string of one byte per minterm up to its top one (2^12
    # bytes here, 1 MB at m 20).  A part makes its selectors when its runs
    # are first written, so at no write are two of them alive; building a
    # node's parts first held both bounds' (and json's id lists') at once
    m = 12
    lat = build_gcl(FormalContext(("g1",), tuple(f"m{j}" for j in range(m)), (5,)))
    original, live, most = exprs._selectors, [], []

    class Selectors(bytes):
        def __del__(self):
            live.remove(len(self))

    def tracked(table):
        sel = Selectors(original(table))
        live.append(len(sel))
        return sel

    monkeypatch.setattr(exprs, "_selectors", tracked)
    monkeypatch.setattr(cli, "_selectors", tracked)

    class Out:
        def write(self, text):
            most.append(sum(size > 1 << m - 1 for size in live))

    export_lattice(lat, fmt, Out())
    assert max(most) == 1 and not live


# 1.5 times the 3.3 MB peak of the renderer that built one dict per concept
# and joined its fields; a batch of 1,024 concepts holds the whole output
_CLASSICAL_EXPORT_PEAK = 5 * 10**6


def test_classical_export_streams_one_concept_at_a_time():
    # RSL of 20,000 objects over 10 attributes: 1,024 concepts and 337 MB
    # of json, the largest concept about 340 KB of names
    lat = build_rsl(random_context(1, 20_000, 10, 0.5))
    sink = _CountingSink()
    tracemalloc.start()
    try:
        export_lattice(lat, "json", sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(lat.concepts) == 1024 and sink.size > 300 * 10**6
    assert peak < _CLASSICAL_EXPORT_PEAK, f"peak {peak} B for {sink.size} B written"


# ---------------------------------------------------------------------------
# the reduced path's structure: per node, a selection and a join
#
# A reduced bound is picked from one member table per context and mode, whose
# members are rendered when it is built.  No expression is built, folded or
# rendered per node, and the table is built once per mode and export.

_EXPR_ROUTES = ("expr_to_str", "to_canonical", "canonical_to_str", "canonical_to_expr")


def _eight_blocks():
    rows = (0b000001, 0b010110, 0b100011, 0b111000, 0b001101, 0b110101, 0b011011, 0b101110)
    rows += rows[:3]
    names = [f"g{i}" for i in range(len(rows))]
    return FormalContext(tuple(names), ("a", 'b"', "c\\", "d", "é", "f"), rows)


@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
def test_fancy_export_builds_no_expression_per_node(monkeypatch, fmt):
    ctx = _eight_blocks()
    lat = build_gcl(ctx)
    assert lat.partition.n_f == 8 and _fancy(lat, _PRETTY_BLOCK_LIMIT)
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for home, name in [(exprs, name) for name in _EXPR_ROUTES] + [
        (irreducibles, "simplified_intent")
    ]:
        original = getattr(home, name)
        for module in (exprs, cli, irreducibles, lattice):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted(name, original))
    for name in ("literals", "conjunction", "disjunction", "describe"):
        method = getattr(irreducibles.LiteralSet, name)
        monkeypatch.setattr(irreducibles.LiteralSet, name, counted(name, method))
    classes = irreducibles._all_classes
    monkeypatch.setattr(irreducibles, "_all_classes", counted("_all_classes", classes))
    irreducibles._members.cache_clear()
    escape = {"text": None, "json": "_json_escape", "dot": "_dot_escape"}[fmt]
    escaped = []
    if escape:
        original = getattr(cli, escape)
        monkeypatch.setattr(cli, escape, lambda text: escaped.append(text) or original(text))
    try:
        _exported(lat, fmt)
    finally:
        irreducibles._members.cache_clear()

    # one member table per mode the format prints (dot prints grsp only)
    sides = ("conjunction",) if fmt == "dot" else ("conjunction", "disjunction")
    assert calls == ["_all_classes"] * len(sides)
    if escape:
        # one escape per name, per plain term string and per member, and
        # none per node; the kind "gcl" is escaped by json alone
        members = sum(len(irreducibles._members(ctx, side).texts) for side in sides)
        names = ctx.n_objects + (ctx.n_attributes + 1 if fmt == "json" else 0)
        tables = [t for mode in ("dnf", "cnf") for t in exprs._term_tables(ctx.attributes, mode)]
        terms = sum(map(len, tables))
        assert len(escaped) <= names + terms + members
