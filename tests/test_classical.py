"""Formal-concept and rough-set lattices, built directly and recovered."""

import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import eager_classical
from strategies import contexts
from gcl import (
    BitSet,
    ClassicalLattice,
    FclConcept,
    FormalContext,
    RslConcept,
    box_of,
    build_fcl,
    build_gcl,
    build_rsl,
    extent_of,
    intent_of,
    random_context,
    recover_classical,
)
from gcl.context import blocks
from gcl.oracle import _hasse


def pairs(lat):
    return [(sorted(c.extent), sorted(c.intent)) for c in lat.concepts]


def test_fcl_worked(t1):
    lat = build_fcl(t1)
    assert lat.kind == "fcl"
    assert pairs(lat) == [
        ([1], [0, 1]),
        ([0, 1], [0]),
        ([1, 2], [1]),
        ([0, 1, 2], []),
    ]
    assert lat.hasse_edges == ((0, 1), (0, 2), (1, 3), (2, 3))
    assert lat.inf == FclConcept(BitSet(0b010, 3), BitSet(0b11, 2))
    assert lat.sup == FclConcept(BitSet(0b111, 3), BitSet(0b00, 2))


def test_rsl_worked(t1):
    lat = build_rsl(t1)
    assert lat.kind == "rsl"
    assert pairs(lat) == [
        ([], []),
        ([0, 1], [0]),
        ([1, 2], [1]),
        ([0, 1, 2], [0, 1]),
    ]
    assert lat.hasse_edges == ((0, 1), (0, 2), (1, 3), (2, 3))
    assert lat.inf == RslConcept(BitSet(0b000, 3), BitSet(0b00, 2))
    assert lat.sup == RslConcept(BitSet(0b111, 3), BitSet(0b11, 2))


def test_kind_validation(t1):
    with pytest.raises(ValueError, match="unknown lattice kind"):
        ClassicalLattice("galois", t1, (), ())
    with pytest.raises(ValueError, match="unknown lattice kind"):
        recover_classical(build_gcl(t1), "galois")


def test_no_attribute_context():
    ctx = FormalContext(("g1", "g2"), (), (0, 0))
    fcl = build_fcl(ctx)
    rsl = build_rsl(ctx)
    assert pairs(fcl) == [([0, 1], [])]
    assert pairs(rsl) == [([], [])]
    assert fcl.hasse_edges == () and rsl.hasse_edges == ()


def test_no_object_context():
    ctx = FormalContext((), ("a", "b"), ())
    assert pairs(build_fcl(ctx)) == [([], [0, 1])]
    assert pairs(build_rsl(ctx)) == [([], [0, 1])]


def test_unreachable_objects():
    # g2 has an empty row, so no column union ever reaches it
    ctx = FormalContext.from_table(("g1", "g2"), ("a", "b"), ("X.", ".."))
    rsl = build_rsl(ctx)
    assert pairs(rsl) == [([], [1]), ([0], [0, 1])]
    assert sorted(rsl.sup.extent) == [0]
    fcl = build_fcl(ctx)
    assert pairs(fcl) == [([], [0, 1]), ([0], [0]), ([0, 1], [])]


def test_recover_matches_direct_build(t1):
    lat = build_gcl(t1)
    for kind, direct in (("fcl", build_fcl(t1)), ("rsl", build_rsl(t1))):
        got = recover_classical(lat, kind)
        assert got.concepts == direct.concepts
        assert got.hasse_edges == direct.hasse_edges


def test_rsl_covers_ascend_where_the_columns_reach_them_out_of_order():
    # from the empty set column a reaches {g1, g2} (concept 2) before
    # column b reaches {g3} (concept 1): Lindig's test finds the bottom's
    # covers in column order, and its list of uppers must still ascend
    ctx = FormalContext.from_table(("g1", "g2", "g3"), ("a", "b"), ("X.", "X.", ".X"))
    lat = build_rsl(ctx)
    assert pairs(lat) == [([], []), ([2], [1]), ([0, 1], [0]), ([0, 1, 2], [0, 1])]
    assert lat.hasse_edges.uppers() == [[1, 2], [3], [3], []]
    assert list(lat.hasse_edges) == [(0, 1), (0, 2), (1, 3), (2, 3)]
    assert recover_classical(build_gcl(ctx), "rsl").hasse_edges.uppers() == [[1, 2], [3], [3], []]


def test_edges_are_covers(t1):
    for lat in (build_fcl(t1), build_rsl(t1)):
        ext = [c.extent for c in lat.concepts]
        for lo, hi in lat.hasse_edges:
            assert ext[lo].issubset(ext[hi]) and ext[lo] != ext[hi]
            assert not any(
                e != ext[lo] and e != ext[hi]
                and ext[lo].issubset(e) and e.issubset(ext[hi])
                for e in ext
            )


@given(contexts())
@settings(max_examples=60, deadline=None)
def test_fcl_concepts_are_galois_fixpoints(ctx):
    lat = build_fcl(ctx)
    assert sorted(lat.sup.extent) == list(range(ctx.n_objects))
    for c in lat.concepts:
        assert intent_of(ctx, c.extent) == c.intent
        assert extent_of(ctx, c.intent) == c.extent


@given(contexts())
@settings(max_examples=60, deadline=None)
def test_rsl_concepts_reconstruct(ctx):
    lat = build_rsl(ctx)
    assert len(lat.inf.extent) == 0
    for c in lat.concepts:
        assert box_of(ctx, c.extent) == c.intent
        rebuilt = 0
        for j in c.intent:
            rebuilt |= ctx.cols[j]
        assert rebuilt == c.extent.bits


@given(contexts())
@settings(max_examples=40, deadline=None)
def test_recover_agrees_everywhere(ctx):
    lat = build_gcl(ctx)
    assert recover_classical(lat, "fcl").concepts == build_fcl(ctx).concepts
    assert recover_classical(lat, "rsl").concepts == build_rsl(ctx).concepts


def _repeated(ctx, times):
    """ctx with every object repeated: the same blocks, each times as large."""
    return FormalContext(
        tuple(f"{name}.{k}" for k in range(times) for name in ctx.objects),
        ctx.attributes,
        ctx.rows * times,
    )


@pytest.mark.parametrize(
    "ctx, n_f",
    [
        (random_context(3, 12, 8, 0.5), 12),
        (random_context(1, 14, 10, 0.5), 14),
        (random_context(1, 16, 12, 0.5), 16),
        # duplicate rows: 48 objects over 13 blocks, and 40 over all 16 rows of 4
        (_repeated(random_context(1, 16, 6, 0.5), 3), 13),
        (random_context(1, 40, 4, 0.5), 16),
        # no attributes: every object has the empty row
        (random_context(1, 5, 0, 0.5), 1),
    ],
    ids=["nf12", "nf14", "nf16", "nf13-dup", "nf16-dup", "m0"],
)
def test_recover_agrees_past_the_oracle_gate(ctx, n_f):
    # the oracle's classical-route-equality stops at 10 blocks; recovery
    # reads every block set through the partition at any size the node
    # cap admits, and must give the direct lattices, covers included
    assert blocks(ctx).n_f == n_f
    lat = build_gcl(ctx)
    assert recover_classical(lat, "fcl") == build_fcl(ctx)
    assert recover_classical(lat, "rsl") == build_rsl(ctx)


# the 37-46 KB that recovery peaked at when it mapped each block set on its
# own, plus twice the walk's low table of 16 row tables of 8 KB; a walk split
# into two halves of 6 blocks holds 64 such tables and peaks at 555 KB
_RECOVER_PEAK = 46_000 + 2 * 16 * 8192


@pytest.mark.parametrize("kind", ["fcl", "rsl"])
def test_recovery_holds_few_row_tables(kind):
    # 12 blocks over 16 attributes, each row near 2^16, so that every row
    # table of a block set takes about 8 KB
    rows = tuple((1 << 16) - 1 - 4099 * i for i in range(12))
    ctx = FormalContext(tuple(f"g{i}" for i in range(12)), tuple(f"m{j}" for j in range(16)), rows)
    lat = build_gcl(ctx)
    recover_classical(lat, kind)  # the attribute tables are cached
    tracemalloc.start()
    try:
        recovered = recover_classical(lat, kind)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert recovered == (build_fcl if kind == "fcl" else build_rsl)(ctx)
    assert peak < _RECOVER_PEAK, f"peak {peak} B"


def swept_extents(ctx, kind):
    """Every intersection (fcl) or union (rsl) of columns, by 2^m subsets."""
    found = set()
    for ys in range(1 << ctx.n_attributes):
        bits = (1 << ctx.n_objects) - 1 if kind == "fcl" else 0
        for j, col in enumerate(ctx.cols):
            if ys >> j & 1:
                bits = bits & col if kind == "fcl" else bits | col
        found.add(bits)
    return sorted(found, key=lambda b: (b.bit_count(), b))


@given(
    st.one_of(
        contexts(max_objects=8, max_attributes=6),
        # wide: far more attributes than objects
        contexts(max_objects=5, max_attributes=12),
        # duplicate-heavy: many objects over few distinct rows
        contexts(min_objects=12, max_objects=12, min_attributes=2, max_attributes=3),
    )
)
@example(FormalContext(("g1", "g2", "g3"), (), (0, 0, 0)))
@example(FormalContext((), ("a", "b", "c"), ()))
@example(FormalContext((), (), ()))
@example(FormalContext(("g1", "g2"), tuple(f"m{j}" for j in range(12)), (0x5A3, 0xF0F)))
@example(FormalContext(tuple(f"g{i}" for i in range(12)), ("a", "b"), (1, 2, 3, 0) * 3))
@settings(max_examples=120, deadline=None)
def test_closure_and_covers_match_brute_force(ctx):
    lat = build_gcl(ctx)
    for kind, build in (("fcl", build_fcl), ("rsl", build_rsl)):
        direct = build(ctx)
        ext = [c.extent.bits for c in direct.concepts]
        assert ext == swept_extents(ctx, kind)
        assert direct.hasse_edges == _hasse(ext)
        recovered = recover_classical(lat, kind)
        assert recovered.hasse_edges == _hasse([c.extent.bits for c in recovered.concepts])


@given(contexts(max_objects=30, max_attributes=16, max_rows=12))
@example(FormalContext((), (), ()))
@example(FormalContext(("g1", "g2"), (), (0, 0)))
@example(FormalContext((), tuple(f"m{j}" for j in range(16)), ()))
@example(FormalContext(tuple(f"g{i}" for i in range(30)), ("a", "b", "c"), (5, 3, 5) * 10))
@settings(max_examples=60, deadline=None)
def test_int_path_matches_the_operators_and_the_other_routes(ctx):
    # past the oracle's gates: up to 30 objects, 16 attributes and 12 blocks.
    # Intents come from the closure step and covers from counts over ints;
    # both must agree with the derivation operators, the brute-force covers
    # and the recovery from the general lattice, which reads its intents off
    # the nodes' bounds
    lat = build_gcl(ctx)
    for kind, build, derive in (("fcl", build_fcl, intent_of), ("rsl", build_rsl, box_of)):
        direct = build(ctx)
        assert [c.intent for c in direct.concepts] == [
            derive(ctx, c.extent) for c in direct.concepts
        ]
        assert direct.hasse_edges == _hasse([c.extent.bits for c in direct.concepts])
        recovered = recover_classical(lat, kind)
        assert recovered.concepts == direct.concepts
        assert recovered.hasse_edges == direct.hasse_edges


def _eager(ctx, kind):
    """The eager reference lattice: swept extents, intents from the
    derivation operators."""
    derive = intent_of if kind == "fcl" else box_of
    found = [(x, derive(ctx, BitSet(x, ctx.n_objects)).bits) for x in swept_extents(ctx, kind)]
    return eager_classical(kind, ctx, found)


@given(
    st.one_of(
        contexts(max_objects=8, max_attributes=6),
        # duplicate rows: many objects over few distinct rows
        contexts(min_objects=6, max_objects=12, max_attributes=4, max_rows=3),
    )
)
@example(FormalContext((), ("a", "b"), ()))
@example(FormalContext(("g1", "g2"), (), (0, 0)))
@example(FormalContext((), (), ()))
@example(FormalContext(("g1", "g2", "g3", "g4"), ("a", "b"), (1, 2, 1, 2)))
@settings(max_examples=80, deadline=None)
def test_views_equal_the_eager_records_and_sorted_pairs(ctx):
    # the concepts and covers of every route read like the tuples the
    # lattice once stored: length, truth, indexing from either end,
    # repeated iteration, equality both ways and the hash
    lat = build_gcl(ctx)
    for kind, build in (("fcl", build_fcl), ("rsl", build_rsl)):
        concepts, edges = _eager(ctx, kind)
        for got in (build(ctx), recover_classical(lat, kind)):
            for view, want in ((got.concepts, concepts), (got.hasse_edges, edges)):
                assert len(view) == len(want) and bool(view) == bool(want)
                assert list(view) == list(want) == list(view)
                assert view == want and want == view
                assert not view != want and not want != view
                assert view != want + (None,) and (want[:-1] != view) == bool(want)
                assert view != list(want) and list(want) != view
                assert hash(view) == hash(want)
            n = len(concepts)
            assert [got.concepts[i] for i in range(-n, n)] == list(concepts) * 2
            for i in (n, -n - 1):
                with pytest.raises(IndexError):
                    got.concepts[i]
            assert (got.inf, got.sup) == (concepts[0], concepts[-1])
            flat = [(lo, hi) for lo, his in enumerate(got.hasse_edges.uppers()) for hi in his]
            assert flat == list(edges)
            eager = ClassicalLattice(kind, ctx, concepts, edges)
            assert got == eager and eager == got and hash(got) == hash(eager)
