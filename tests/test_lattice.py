import re
import tracemalloc
from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from strategies import contexts, wide_contexts
from gcl import (
    BitSet,
    CanonicalForm,
    CapExceeded,
    FormalContext,
    NotAGeneralExtent,
    build_gcl,
    contextual_constants,
    dagger,
    equivalent_class_membership,
    extent_family,
    general_concept,
    join,
    leq,
    meet,
    parse_expr,
    random_context,
    recover_classical,
)
from gcl.classical import build_fcl
from gcl import lattice
from gcl.context import BlockPartition, block_set_of, blocks
from gcl.oracle import _hasse


def node(lat, *names):
    return lat.node_of(lat.context.object_set(names))


# ---------------------------------------------------------------------------
# worked example

def test_shape(t1):
    lat = build_gcl(t1)
    assert len(lat.nodes) == 8
    assert len(lat.hasse_edges) == 12
    # nodes are built when read: equal by value, not the same object
    assert lat.inf == lat.nodes[0] and lat.inf.block_set == 0
    assert lat.sup == lat.nodes[-1] and lat.sup.block_set == 0b111
    assert lat.inf.extent == BitSet.empty(3)
    assert lat.sup.extent == BitSet.full(3)


def test_node_index_is_block_set(t1):
    lat = build_gcl(t1)
    for ks, n in enumerate(lat.nodes):
        assert n.block_set == ks
    # block k covers exactly the k-th object here: three singleton blocks
    assert node(lat, "g1", "g3").block_set == 0b101


def test_bounds_of_singleton(t1):
    lat = build_gcl(t1)
    n1 = node(lat, "g1")
    assert n1.gfcp.ids() == [1]
    assert n1.grsp.ids() == [0, 1]


def test_constants(t1):
    zero, one = contextual_constants(t1)
    assert zero.ids() == [0]
    assert one.ids() == [1, 2, 3]
    lat = build_gcl(t1)
    assert lat.zero_rho == zero
    assert lat.one_eta == one
    assert ~zero == one


def test_constants_with_unrealized_rows():
    ctx = FormalContext.from_table(("g1",), ("a", "b"), ("XX",))
    zero, one = contextual_constants(ctx)
    assert zero.ids() == [0, 1, 2]
    assert one.ids() == [3]


def test_hasse_edges_differ_in_one_block(t1):
    lat = build_gcl(t1)
    for lo, hi in lat.hasse_edges:
        assert lo < hi
        diff = lo ^ hi
        assert diff.bit_count() == 1
        assert lo & diff == 0


def test_extent_family(t1):
    fam = extent_family(t1)
    assert len(fam) == 8
    assert fam[0] == BitSet.empty(3)
    assert fam[-1] == BitSet.full(3)
    have = {xs.bits for xs in fam}
    for a in have:
        assert a ^ 0b111 in have
        for b in have:
            assert a | b in have and a & b in have


def test_general_concept_matches_lattice(t1):
    lat = build_gcl(t1)
    xs = t1.object_set(["g1", "g2"])
    assert general_concept(t1, xs) == lat.node_of(xs)


def test_non_general_extent_rejected():
    ctx = FormalContext.from_table(("g1", "g2", "g3"), ("a", "b"), ("X.", "X.", ".X"))
    lat = build_gcl(ctx)
    assert len(lat.nodes) == 4  # two blocks only
    with pytest.raises(NotAGeneralExtent, match="g1"):
        lat.node_of(ctx.object_set(["g1"]))
    with pytest.raises(NotAGeneralExtent):
        general_concept(ctx, ctx.object_set(["g2", "g3"]))


# ---------------------------------------------------------------------------
# operations

def test_meet_join(t1):
    lat = build_gcl(t1)
    a, b = node(lat, "g1"), node(lat, "g2")
    assert meet(lat, a, b) == lat.inf
    assert join(lat, a, b) == node(lat, "g1", "g2")
    ab = node(lat, "g1", "g2")
    bc = node(lat, "g2", "g3")
    assert meet(lat, ab, bc) == node(lat, "g2")
    assert join(lat, ab, bc) == lat.sup
    assert (meet(lat, ab, bc).block_set, join(lat, ab, bc).block_set) == (0b010, 0b111)


def test_leq_matches_extent_inclusion(t1):
    lat = build_gcl(t1)
    for a in lat.nodes:
        for b in lat.nodes:
            assert leq(a, b) == a.extent.issubset(b.extent)


def test_leq_rejects_foreign_concepts(t1):
    other = FormalContext.from_table(("h1", "h2"), ("a",), ("X", "."))
    with pytest.raises(ValueError, match="different contexts"):
        leq(build_gcl(t1).inf, build_gcl(other).inf)


def test_dagger(t1):
    lat = build_gcl(t1)
    a = node(lat, "g1")
    img = dagger(lat, a)
    assert img.extent == t1.object_set(["g2", "g3"])
    assert img.grsp == ~a.gfcp
    assert img.gfcp == ~a.grsp
    assert dagger(lat, img) == a
    assert dagger(lat, lat.inf) == lat.sup
    assert (img.block_set, dagger(lat, img).block_set) == (0b110, 0b001)


def test_class_membership(t1):
    xs = t1.object_set(["g1"])
    assert equivalent_class_membership(t1, parse_expr("a & !b", t1.attributes), xs)
    assert not equivalent_class_membership(t1, parse_expr("a", t1.attributes), xs)


# ---------------------------------------------------------------------------
# caps and degenerate contexts

def test_node_cap():
    # 21 blocks: a node is still read by its block set, but walking all
    # 2^21 nodes or covers is refused
    objs = tuple(f"g{i}" for i in range(21))
    ctx = FormalContext(objs, ("a", "b", "c", "d", "e"), tuple(range(21)))
    lat = build_gcl(ctx)
    assert lat.node_of(ctx.object_set(["g3"])).gfcp.ids() == [3]
    message = re.escape("21 blocks exceed the node cap of 20 (the lattice would need 2^21 nodes)")
    with pytest.raises(CapExceeded, match=message):
        extent_family(ctx)
    with pytest.raises(CapExceeded, match=message):
        list(lat.nodes)
    with pytest.raises(CapExceeded, match=message):
        list(lat.hasse_edges)
    # equality and hashing iterate, so they are refused too
    with pytest.raises(CapExceeded, match=message):
        lat.nodes == build_gcl(ctx).nodes
    with pytest.raises(CapExceeded, match=message):
        hash(lat.hasse_edges)


def test_lattices_compare_and_hash_by_context_and_partition(monkeypatch):
    # 197 blocks, far past the node cap: a lattice is its context and
    # partition, so equality and hashing walk neither nodes nor covers
    ctx = random_context(1, 200, 12, 0.5)
    first = build_gcl(ctx)
    blocks.cache_clear()  # so the second build partitions anew
    second = build_gcl(FormalContext(ctx.objects, ctx.attributes, ctx.rows))
    assert first.partition.n_f == 197 and second.partition is not first.partition

    def never(*args):
        raise AssertionError("the cube was walked")

    monkeypatch.setattr(lattice._View, "__iter__", never)
    monkeypatch.setattr(BlockPartition, "walk", never)
    assert first == second and hash(first) == hash(second)
    assert first != build_gcl(random_context(2, 200, 12, 0.5))


def test_canonical_cap():
    ctx = FormalContext(("g1",), tuple(f"m{j}" for j in range(21)), (0,))
    with pytest.raises(CapExceeded, match="21 attributes"):
        build_gcl(ctx)


def test_empty_context():
    lat = build_gcl(FormalContext((), (), ()))
    assert len(lat.nodes) == 1
    assert lat.hasse_edges == ()
    assert lat.sup == lat.inf and lat.sup.block_set == 0
    assert lat.zero_rho.ids() == [0]
    assert lat.one_eta.ids() == []


def test_no_attributes():
    lat = build_gcl(FormalContext(("g1", "g2"), (), (0, 0)))
    assert len(lat.nodes) == 2  # one block: everything or nothing
    assert lat.sup.grsp.ids() == [0]
    assert lat.inf.grsp.ids() == []


def test_built_node_holds_no_table(t1):
    # a node is its block set: the extent and bounds are computed when
    # read, so a node holds no extent or 2^m-bit table, and all nodes
    # share one partition
    lat = build_gcl(t1)
    for n in lat.nodes:
        assert set(vars(n)) == {"block_set", "partition"}
        assert n.partition is lat.partition


def _bounds_match_the_block_rows(ctx):
    lat = build_gcl(ctx)
    part, m = lat.partition, ctx.n_attributes
    for ks, n in enumerate(lat.nodes):
        rows = part.row_table(ks)
        assert n.gfcp == CanonicalForm(m, rows)
        assert n.grsp == CanonicalForm(m, rows | lat.zero_rho.table)


@given(contexts(max_objects=8, max_attributes=5))
def test_bounds_are_computed_from_the_block_rows(ctx):
    _bounds_match_the_block_rows(ctx)


def test_bounds_are_computed_from_the_block_rows_at_eight_blocks():
    ctx = random_context(0, 8, 5, 0.5)
    assert blocks(ctx).n_f == 8
    _bounds_match_the_block_rows(ctx)


# ---------------------------------------------------------------------------
# properties

@given(contexts())
def test_counts(ctx):
    lat = build_gcl(ctx)
    nf = lat.partition.n_f
    assert len(lat.nodes) == 1 << nf
    expected_edges = nf * (1 << (nf - 1)) if nf else 0
    assert len(lat.hasse_edges) == expected_edges


@given(contexts())
def test_bounds_split_at_the_constants(ctx):
    # grsp = gfcp plus the whole unrealized region, disjointly
    lat = build_gcl(ctx)
    for n in lat.nodes:
        assert n.gfcp.table & lat.zero_rho.table == 0
        assert n.gfcp.table | lat.zero_rho.table == n.grsp.table


@given(contexts())
def test_extents_are_block_unions(ctx):
    lat = build_gcl(ctx)
    for n in lat.nodes:
        bits = 0
        for k in range(lat.partition.n_f):
            if n.block_set >> k & 1:
                bits |= lat.partition.extents[k]
        assert n.extent.bits == bits


@given(contexts())
def test_lazy_views_match_brute_force(ctx):
    lat = build_gcl(ctx)
    part = blocks(ctx)
    exts = lat.partition.extents
    for ks in range(1 << lat.partition.n_f):
        xs = BitSet(sum(e for k, e in enumerate(exts) if ks >> k & 1), ctx.n_objects)
        assert part.union(ks) == xs.bits
        assert block_set_of(ctx, xs) == ks
        n = lat.node_of(xs)
        assert n == lat.nodes[ks]
        assert n.block_set == ks
        assert n == general_concept(ctx, xs)
    n_nodes = len(lat.nodes)
    assert lat.nodes[-n_nodes] == lat.nodes[0]
    assert lat.nodes[-n_nodes].block_set == 0
    with pytest.raises(IndexError):
        lat.nodes[n_nodes]
    assert lat.hasse_edges == _hasse([n.extent.bits for n in lat.nodes])
    with pytest.raises(TypeError):  # the cover view is iterated, never indexed
        lat.hasse_edges[0]


def test_one_node_of_a_large_lattice_stays_small():
    # 20 objects with distinct rows: 20 blocks, 2^20 nodes, 2^20-bit tables
    ctx = FormalContext(
        tuple(f"g{i}" for i in range(20)),
        tuple(f"m{j}" for j in range(20)),
        tuple(range(1, 21)),
    )
    tracemalloc.start()
    try:
        lat = build_gcl(ctx)
        n = lat.node_of(ctx.object_set(["g0", "g7", "g19"]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n.gfcp.ids() == [1, 8, 20]
    assert peak < 100 * 2**20


def _retained(work):
    """Bytes still allocated after work() returns, of what it allocated."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        work()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_building_at_two_thousand_blocks_keeps_no_table_per_block():
    # 2,000 distinct rows over 20 attributes: the row tables are 2^20-bit
    # ints, and a partition that kept one per block peaked at 74 MB here
    rows = tuple((i * 524287 + 12345) % (1 << 20) for i in range(2000))
    ctx = FormalContext(
        tuple(f"g{i}" for i in range(2000)), tuple(f"m{j}" for j in range(20)), rows
    )
    tracemalloc.start()
    try:
        lat = build_gcl(ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lat.partition.n_f == 2000
    assert lat.one_eta.table == sum(1 << r for r in rows)
    assert peak < 8 * 2**20


def test_walking_the_cube_keeps_no_node():
    # 14 blocks: 2^14 nodes, which a lattice that kept every node it
    # handed out held at about 300 bytes each (about 5 MB)
    ctx = FormalContext(
        tuple(f"g{i}" for i in range(28)),
        tuple(f"m{j}" for j in range(6)),
        (0, 1, 3, 6, 12, 24, 48, 63, 21, 42, 17, 34, 9, 50) * 2,
    )
    lat = build_gcl(ctx)
    assert lat.partition.n_f == 14
    # the column masks are cached per context; fill them first
    fcl = build_fcl(ctx)
    assert _retained(lambda: deque(lat.nodes, maxlen=0)) < 64 * 2**10
    fresh = build_gcl(ctx)
    assert _retained(lambda: recover_classical(fresh, "fcl")) < 64 * 2**10
    assert recover_classical(fresh, "fcl") == fcl


@given(wide_contexts(), st.data())
def test_nodes_are_reached_by_block_set_at_any_size(ctx, data):
    # 63 to 200 blocks: 2^n_F nodes are more than len() can count, yet a
    # node, meet, join or conjugate is read by its block set.  Expected
    # extents and tables are computed here from the rows alone: the node
    # on a set of distinct rows has the objects with those rows as its
    # extent, those rows as gfcp, and gfcp plus every minterm that is no
    # row as grsp.
    lat = build_gcl(ctx)
    distinct = sorted(set(ctx.rows))
    assert lat.partition.n_f == len(distinct)
    empty = ((1 << (1 << ctx.n_attributes)) - 1) ^ sum(1 << r for r in distinct)

    def expected(rows):
        gfcp = sum(1 << r for r in rows)
        return sum(1 << i for i, r in enumerate(ctx.rows) if r in rows), gfcp, gfcp | empty

    def at(rows):
        node = lat.node_of(BitSet(expected(rows)[0], ctx.n_objects))
        assert (node.extent.bits, node.gfcp.table, node.grsp.table) == expected(rows)
        return node

    def drawn_rows():
        mask = data.draw(st.integers(0, (1 << len(distinct)) - 1))
        return {r for k, r in enumerate(distinct) if mask >> k & 1}

    r1, r2 = drawn_rows(), drawn_rows()
    a, b = at(r1), at(r2)
    assert meet(lat, a, b) == at(r1 & r2)
    assert join(lat, a, b) == at(r1 | r2)
    assert dagger(lat, a) == at(set(distinct) - r1)
    assert lat.sup == at(set(distinct))
    assert lat.inf == at(set())
    assert dagger(lat, a).block_set == a.block_set ^ ((1 << len(distinct)) - 1)
