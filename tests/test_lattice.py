import tracemalloc

import pytest
from hypothesis import given

from strategies import contexts
from gcl import (
    BitSet,
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
)
from gcl.context import block_set_of, blocks
from gcl.oracle import _hasse


def node(lat, *names):
    return lat.node_of(lat.context.object_set(names))


# ---------------------------------------------------------------------------
# worked example

def test_shape(t1):
    lat = build_gcl(t1)
    assert len(lat.nodes) == 8
    assert len(lat.hasse_edges) == 12
    assert lat.inf is lat.nodes[0]
    assert lat.sup is lat.nodes[-1]
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
    assert meet(lat, a, b) is lat.inf
    assert join(lat, a, b) is node(lat, "g1", "g2")
    ab = node(lat, "g1", "g2")
    bc = node(lat, "g2", "g3")
    assert meet(lat, ab, bc) is node(lat, "g2")
    assert join(lat, ab, bc) is lat.sup


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
    assert dagger(lat, img) is a
    assert dagger(lat, lat.inf) is lat.sup


def test_class_membership(t1):
    xs = t1.object_set(["g1"])
    assert equivalent_class_membership(t1, parse_expr("a & !b", t1.attributes), xs)
    assert not equivalent_class_membership(t1, parse_expr("a", t1.attributes), xs)


# ---------------------------------------------------------------------------
# caps and degenerate contexts

def test_node_cap(t1):
    objs = tuple(f"g{i}" for i in range(21))
    ctx = FormalContext(objs, ("a", "b", "c", "d", "e"), tuple(range(21)))
    with pytest.raises(CapExceeded, match="21 blocks"):
        build_gcl(ctx)
    with pytest.raises(CapExceeded, match="21 blocks exceed the node cap of 20"):
        extent_family(ctx)
    with pytest.raises(CapExceeded, match="3 blocks exceed"):
        build_gcl(t1, node_cap=2)
    assert len(build_gcl(t1, node_cap=3).nodes) == 8


def test_canonical_cap():
    ctx = FormalContext(("g1",), tuple(f"m{j}" for j in range(21)), (0,))
    with pytest.raises(CapExceeded, match="21 attributes"):
        build_gcl(ctx)


def test_empty_context():
    lat = build_gcl(FormalContext((), (), ()))
    assert len(lat.nodes) == 1
    assert lat.hasse_edges == ()
    assert lat.sup is lat.inf
    assert lat.zero_rho.ids() == [0]
    assert lat.one_eta.ids() == []


def test_no_attributes():
    lat = build_gcl(FormalContext(("g1", "g2"), (), (0, 0)))
    assert len(lat.nodes) == 2  # one block: everything or nothing
    assert lat.sup.grsp.ids() == [0]
    assert lat.inf.grsp.ids() == []


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
                bits |= lat.partition.blocks[k].extent.bits
        assert n.extent.bits == bits


@given(contexts())
def test_lazy_views_match_brute_force(ctx):
    lat = build_gcl(ctx)
    part = blocks(ctx)
    exts = [b.extent.bits for b in lat.partition.blocks]
    for ks in range(1 << lat.partition.n_f):
        xs = BitSet(sum(e for k, e in enumerate(exts) if ks >> k & 1), ctx.n_objects)
        assert part.union(ks) == xs.bits
        assert block_set_of(ctx, xs) == ks
        n = lat.node_of(xs)
        assert n is lat.nodes[ks]
        assert n.block_set == ks
        assert n == general_concept(ctx, xs)
    edges = lat.hasse_edges
    assert edges == _hasse([n.extent.bits for n in lat.nodes])
    assert [edges[i] for i in range(len(edges))] == list(edges)
    assert [edges[i] for i in range(-len(edges), 0)] == list(edges)
    assert edges[1:-1:2] == tuple(edges)[1:-1:2]
    with pytest.raises(IndexError):
        edges[len(edges)]


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
