"""Irreducible literal-set classes, quotients, and reduced intents."""

import random
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import member_block_sets, reference_keeps
from strategies import contexts, wide_contexts
from gcl import (
    BOTTOM,
    TOP,
    And,
    BitSet,
    CapExceeded,
    FormalContext,
    IrredClass,
    LiteralSet,
    NotAGeneralExtent,
    Or,
    eval_contextual,
    expr_to_str,
    irreducible_conjunctions,
    irreducible_disjunctions,
    is_member,
    quotient_class,
    conj,
    disj,
    simplified_intent,
    to_canonical,
)
from gcl.context import block_set_of, blocks, random_context
from gcl.irreducibles import (
    _MODES,
    _all_classes,
    _class_block_sets,
    _keeps,
    _leave_one_out,
    _members,
)
from gcl.lattice import build_gcl
from gcl.oracle import _class_scan, _reference_intent


def lits(pos, neg, width=2):
    return LiteralSet(BitSet(pos, width), BitSet(neg, width))


def describe_all(cls, attributes):
    return tuple(m.describe(attributes) for m in cls.members)


# --- LiteralSet ---


def test_literal_set_basics():
    s = lits(0b01, 0b10)
    assert s.size == 2
    assert s.is_consistent()
    assert s.literals() == [(0, True), (1, False)]
    assert s.describe(("a", "b")) == "{a, !b}"
    assert s.flipped() == lits(0b10, 0b01)
    assert s.flipped().flipped() == s


def test_literal_set_inconsistent():
    s = lits(0b01, 0b01)
    assert not s.is_consistent()
    # positive pick comes before the negative one for the same attribute
    assert s.literals() == [(0, True), (0, False)]
    assert s.describe(("a", "b")) == "{a, !a}"


def test_literal_set_width_mismatch():
    with pytest.raises(ValueError, match="different widths"):
        LiteralSet(BitSet(0, 2), BitSet(0, 3))


def test_literal_set_subset():
    small = lits(0b01, 0b00)
    big = lits(0b01, 0b10)
    assert small.issubset(big)
    assert not big.issubset(small)
    assert lits(0b00, 0b10).issubset(big)
    assert not lits(0b10, 0b00).issubset(big)


def test_literal_set_exprs(t1):
    s = lits(0b01, 0b10)
    assert expr_to_str(s.conjunction(), t1.attributes) == "a & !b"
    assert expr_to_str(s.disjunction(), t1.attributes) == "a | !b"
    empty = lits(0, 0)
    assert expr_to_str(empty.conjunction(), t1.attributes) == "1"
    assert expr_to_str(empty.disjunction(), t1.attributes) == "0"


def test_irred_class_mode_validation():
    with pytest.raises(ValueError, match="unknown mode"):
        IrredClass(BitSet(0, 2), "both", ())


# --- class enumeration on the worked three-object context ---

CONJ_CLASSES = {
    0b000: ("{!a, !b}", "{a, !a}", "{b, !b}"),
    0b001: ("{!b}",),
    0b010: ("{a, b}",),
    0b011: ("{a}",),
    0b100: ("{!a}",),
    0b101: (),
    0b110: ("{b}",),
    0b111: ("{}",),
}

DISJ_CLASSES = {
    0b000: ("{}",),
    0b001: ("{!b}",),
    0b010: (),
    0b011: ("{a}",),
    0b100: ("{!a}",),
    0b101: ("{!a, !b}",),
    0b110: ("{b}",),
    0b111: ("{a, !a}", "{b, !b}", "{a, b}"),
}


@pytest.mark.parametrize("bits,expected", sorted(CONJ_CLASSES.items()))
def test_conjunction_classes(t1, bits, expected):
    cls = irreducible_conjunctions(t1, BitSet(bits, 3))
    assert cls.mode == "conjunction"
    assert cls.target == BitSet(bits, 3)
    assert describe_all(cls, t1.attributes) == expected


@pytest.mark.parametrize("bits,expected", sorted(DISJ_CLASSES.items()))
def test_disjunction_classes(t1, bits, expected):
    cls = irreducible_disjunctions(t1, BitSet(bits, 3))
    assert cls.mode == "disjunction"
    assert describe_all(cls, t1.attributes) == expected


def test_class_width_check(t1):
    with pytest.raises(ValueError, match="width 2"):
        irreducible_conjunctions(t1, BitSet(0, 2))


def test_negation_swap_worked(t1):
    # flipping every member of a conjunction class lands on the disjunction
    # class of the complementary extent, and vice versa
    for bits in range(8):
        xs = BitSet(bits, 3)
        conj_flipped = {
            m.flipped() for m in irreducible_conjunctions(t1, xs).members
        }
        disj_members = set(irreducible_disjunctions(t1, ~xs).members)
        assert conj_flipped == disj_members


# --- membership checks ---


def test_is_member_accepts(t1):
    assert is_member(t1, lits(0b01, 0), BitSet(0b011, 3), "conjunction")
    assert is_member(t1, lits(0b11, 0), BitSet(0b010, 3), "conjunction")
    assert is_member(t1, lits(0b01, 0), BitSet(0b011, 3), "disjunction")


def test_is_member_vacuous(t1):
    # sets with at most one pick are never reducible
    assert is_member(t1, lits(0, 0), BitSet(0b111, 3), "conjunction")
    assert is_member(t1, lits(0, 0), BitSet(0b000, 3), "disjunction")
    assert is_member(t1, lits(0, 0b10), BitSet(0b001, 3), "conjunction")


def test_is_member_wrong_extent(t1):
    assert not is_member(t1, lits(0b01, 0), BitSet(0b001, 3), "conjunction")


def test_is_member_reducible(t1):
    # a & !b describes {g1} but !b alone already does
    assert not is_member(t1, lits(0b01, 0b10), BitSet(0b001, 3), "conjunction")


def test_is_member_mode_validation(t1):
    with pytest.raises(ValueError, match="unknown mode"):
        is_member(t1, lits(0, 0), BitSet(0, 3), "meet")


# --- quotients ---


def test_quotient_same_class_is_identity(t1):
    cls = irreducible_disjunctions(t1, BitSet(0b111, 3))
    assert quotient_class(cls, cls).members == cls.members


def test_quotient_drops_factoring_members(t1):
    g2 = irreducible_conjunctions(t1, BitSet(0b010, 3))
    g12 = irreducible_conjunctions(t1, BitSet(0b011, 3))
    assert quotient_class(g2, g12).members == ()


def test_quotient_partial_drop(t1):
    top = irreducible_disjunctions(t1, BitSet(0b111, 3))
    g12 = irreducible_disjunctions(t1, BitSet(0b011, 3))
    q = quotient_class(top, g12)
    assert describe_all(q, t1.attributes) == ("{b, !b}",)


def test_quotient_ignores_empty_divisor(t1):
    # the empty literal set never divides anything out
    top = irreducible_conjunctions(t1, BitSet(0b111, 3))
    assert top.members == (lits(0, 0),)
    other = irreducible_conjunctions(t1, BitSet(0b001, 3))
    assert quotient_class(other, top).members == other.members


def test_quotient_mode_mismatch(t1):
    c = irreducible_conjunctions(t1, BitSet(0, 3))
    d = irreducible_disjunctions(t1, BitSet(0, 3))
    with pytest.raises(ValueError, match="mode mismatch"):
        quotient_class(c, d)


# --- reduced intents ---


@pytest.mark.parametrize(
    "bits,mode,text,ids",
    [
        (0b001, "grsp_dnf", "!b", [0, 1]),
        (0b000, "grsp_dnf", "!a & !b", [0]),
        (0b111, "grsp_dnf", "1", [0, 1, 2, 3]),
        (0b001, "gfcp_cnf", "!b & a", [1]),
        (0b111, "gfcp_cnf", "a | b", [1, 2, 3]),
        (0b000, "gfcp_cnf", "0", []),
    ],
)
def test_simplified_intent_worked(t1, bits, mode, text, ids):
    expr = simplified_intent(t1, BitSet(bits, 3), mode)
    assert expr_to_str(expr, t1.attributes) == text
    assert to_canonical(expr, 2).ids() == ids


def test_simplified_intent_matches_bounds(t1):
    lat = build_gcl(t1)
    for node in lat.nodes:
        dnf = simplified_intent(t1, node.extent, "grsp_dnf")
        cnf = simplified_intent(t1, node.extent, "gfcp_cnf")
        assert to_canonical(dnf, 2) == node.grsp
        assert to_canonical(cnf, 2) == node.gfcp
        assert eval_contextual(t1, dnf) == node.extent
        assert eval_contextual(t1, cnf) == node.extent


def test_simplified_intent_rejects_non_block_union():
    ctx = FormalContext.from_table(
        ("g1", "g2", "g3"), ("a", "b"), ("X.", "X.", ".X")
    )
    xs = BitSet(0b001, 3)
    with pytest.raises(NotAGeneralExtent, match="not a union of blocks") as raised:
        simplified_intent(ctx, xs, "grsp_dnf")
    with pytest.raises(NotAGeneralExtent) as by_node:
        build_gcl(ctx).node_of(xs)
    assert str(raised.value) == str(by_node.value) == "{g1} is not a union of blocks"


def test_simplified_intent_mode_validation(t1):
    with pytest.raises(ValueError, match="unknown mode"):
        simplified_intent(t1, BitSet(0, 3), "dnf")


def test_simplified_intent_width_check(t1):
    with pytest.raises(ValueError, match="width 4"):
        simplified_intent(t1, BitSet(0, 4), "grsp_dnf")


# --- caps ---


def test_attribute_cap():
    wide = FormalContext(("g1",), tuple(f"m{j}" for j in range(11)), (0,))
    with pytest.raises(CapExceeded, match="11 attributes exceed the irreducibles cap of 10"):
        irreducible_conjunctions(wide, BitSet(0, 1))
    with pytest.raises(CapExceeded, match="11 attributes exceed the irreducibles cap of 10"):
        simplified_intent(wide, BitSet(0, 1), "grsp_dnf")
    with pytest.raises(CapExceeded, match="11 attributes"):
        irreducible_disjunctions(wide, BitSet(0, 1))


# --- properties ---


@given(contexts(max_objects=4, max_attributes=3))
@settings(max_examples=40, deadline=None)
def test_members_pass_the_checker(ctx):
    for bits in range(1 << ctx.n_objects):
        xs = BitSet(bits, ctx.n_objects)
        for mode, enum in (
            ("conjunction", irreducible_conjunctions),
            ("disjunction", irreducible_disjunctions),
        ):
            for m in enum(ctx, xs).members:
                assert is_member(ctx, m, xs, mode)


@given(contexts(max_objects=4, max_attributes=3))
@settings(max_examples=40, deadline=None)
def test_flip_duality(ctx):
    for bits in range(1 << ctx.n_objects):
        xs = BitSet(bits, ctx.n_objects)
        flipped = {m.flipped() for m in irreducible_conjunctions(ctx, xs).members}
        assert flipped == set(irreducible_disjunctions(ctx, ~xs).members)


def table(objects, attributes, rows):
    return FormalContext.from_table(
        tuple(f"g{i + 1}" for i in range(objects)),
        tuple(f"m{j + 1}" for j in range(attributes)),
        rows,
    )


@given(contexts(max_objects=8, max_attributes=5))
@settings(max_examples=60, deadline=None)
@example(table(3, 3, ("XX.", "X.X", "X..")))  # m1 is constant true
@example(table(3, 3, (".X.", "..X", ".XX")))  # m1 is constant false
@example(table(4, 3, ("XX.", "..X", "XXX", "...")))  # m1 and m2 are equal
@example(table(0, 3, ()))
@example(table(4, 0, ("", "", "", "")))
@example(table(0, 0, ()))
def test_level_wise_classes_match_the_scan(ctx):
    # the empty set and every single literal are members whatever their
    # extent, even when a literal's extent is that of the empty set; both
    # routes hold each member as its 2m-bit mask, in class order
    m = ctx.n_attributes
    half = (1 << m) - 1
    for mode in ("conjunction", "disjunction"):
        classes = _all_classes(ctx, mode)
        assert classes == _class_scan(ctx, mode)
        for keys in classes.values():
            assert type(keys) is tuple and all(type(key) is int for key in keys)
            assert list(keys) == sorted(keys, key=lambda k: (k.bit_count(), k & half, k >> m))


@given(contexts(max_objects=6, max_attributes=4))  # so n_F <= 6
@settings(max_examples=40, deadline=None)
@example(table(3, 2, ("XX", "X.", "X.")))
@example(table(0, 2, ()))
@example(table(2, 0, ("", "")))
def test_simplified_intent_matches_the_reference_walk(ctx):
    for node in build_gcl(ctx).nodes:
        for mode in ("grsp_dnf", "gfcp_cnf"):
            fast = simplified_intent(ctx, node.extent, mode)
            slow = _reference_intent(ctx, node.extent, mode)
            assert expr_to_str(fast, ctx.attributes) == expr_to_str(slow, ctx.attributes)


@given(contexts(max_objects=6, max_attributes=4))
@settings(max_examples=40, deadline=None)
@example(table(0, 2, ()))
@example(table(3, 0, ("", "", "")))
@example(table(4, 2, ("XX", "X.", ".X", "..")))  # all 2^m rows realised
@example(table(3, 3, ("XX.", "X.X", "X..")))  # m1 is constant true
def test_reduced_bound_has_no_constant_term(ctx):
    m = ctx.n_attributes
    full = (1 << (1 << m)) - 1
    for node in build_gcl(ctx).nodes:
        for mode, bound, outer in (
            ("grsp_dnf", node.grsp, Or),
            ("gfcp_cnf", node.gfcp, And),
        ):
            expr = simplified_intent(ctx, node.extent, mode)
            assert to_canonical(expr, m).table == bound.table
            if expr in (TOP, BOTTOM):
                # the sum (product) of no terms, or the absorbing empty set
                assert bound.table in (0, full)
                continue
            terms = expr.children if isinstance(expr, outer) else (expr,)
            for term in terms:
                assert 0 < to_canonical(term, m).table < full, expr_to_str(term, ctx.attributes)


def distinct_rows(seed, n_f, m):
    """A context of exactly n_f blocks over m attributes, some rows repeated."""
    rng = random.Random(seed)
    rows = rng.sample(range(1 << m), n_f)
    rows += rng.choices(rows, k=3)
    rng.shuffle(rows)
    return FormalContext(
        tuple(f"g{i + 1}" for i in range(len(rows))),
        tuple(f"m{j + 1}" for j in range(m)),
        tuple(rows),
    )


@pytest.mark.parametrize(
    "seed, n_f, m", [(7, 7, 5), (8, 8, 4), (9, 9, 5), (10, 10, 4), (11, 11, 4), (12, 12, 4)]
)
def test_simplified_intent_matches_the_reference_walk_past_six_blocks(seed, n_f, m):
    # exports reduce bounds up to 8 blocks and inspect up to 12; the
    # reference walks 3^n_F block-set pairs, so past 8 blocks only the
    # nodes of one block, of all blocks but one and of all blocks are read
    ctx = distinct_rows(seed, n_f, m)
    lat = build_gcl(ctx)
    assert lat.partition.n_f == n_f
    full = (1 << n_f) - 1
    for ks in range(full + 1) if n_f <= 8 else (1, full ^ 1, full):
        xs = lat.nodes[ks].extent
        for mode in ("grsp_dnf", "gfcp_cnf"):
            fast = simplified_intent(ctx, xs, mode)
            slow = _reference_intent(ctx, xs, mode)
            assert expr_to_str(fast, ctx.attributes) == expr_to_str(slow, ctx.attributes)


def test_simplified_intent_is_one_pass_over_the_members_at_thirty_blocks():
    # the public call reads no table over all 2^n_F block sets: at 30
    # blocks it is the members' leave-one-out test by extents, term for term
    ctx = distinct_rows(13, 30, 5)
    part = blocks(ctx)
    assert part.n_f == 30
    lat = build_gcl(ctx)
    full = (1 << 30) - 1
    m = ctx.n_attributes
    half = (1 << m) - 1
    for ks in (0, 1, full ^ 1, random.Random(13).getrandbits(30), full):
        xs = BitSet(part.union(ks), ctx.n_objects)
        x = xs.bits
        node = lat.node_of(xs)
        for mode, side, bound, absorbed, combine, term in (
            ("grsp_dnf", "conjunction", node.grsp, full, disj, LiteralSet.conjunction),
            ("gfcp_cnf", "disjunction", node.gfcp, 0, conj, LiteralSet.disjunction),
        ):
            expr = simplified_intent(ctx, xs, mode)
            assert to_canonical(expr, ctx.n_attributes) == bound
            if ks == absorbed:
                assert expr == (TOP if side == "conjunction" else BOTTOM)
                continue
            inside = (lambda e: e & ~x == 0) if side == "conjunction" else (lambda e: x & ~e == 0)
            classes = _all_classes(ctx, side)
            order = sorted(classes, key=lambda e: block_set_of(ctx, BitSet(e, ctx.n_objects)))
            expected = combine(
                term(mu)
                for e in order
                if inside(e)
                for mu in (lits(key & half, key >> m, m) for key in classes[e])
                if mu.size and mu.is_consistent()
                and not any(map(inside, _leave_one_out(ctx, mu, side)))
            )
            assert expr == expected


@given(
    st.one_of(
        contexts(max_objects=10, max_attributes=5),
        contexts(max_objects=10, max_attributes=5, max_rows=3),  # duplicate rows
    )
)
@settings(max_examples=100, deadline=None)
@example(table(0, 3, ()))
@example(table(4, 0, ("", "", "", "")))
@example(table(0, 0, ()))
@example(table(5, 2, ("XX", "X.", "XX", ".X", "X.")))
@example(table(10, 4, ("XXXX", "XXX.", "XX.X", "X.XX", ".XXX", "XX..", "X..X", "..XX", "X...", "....")))
# m1 & ... & m7 has seven leave-one-out subsets, so its slot is 16 bits
@example(table(8, 7, ("X" * 7, *("X" * i + "." + "X" * (6 - i) for i in range(7)))))
def test_cut_masks_keep_the_members_of_the_per_member_rule(ctx):
    # n_F <= 10: every block set, both modes, against the block sets
    # folded one member at a time; _keeps stops at the last member kept
    n_f = blocks(ctx).n_f
    for mode in _MODES:
        table = _members(ctx, mode)
        members = member_block_sets(ctx, mode)
        for ks in range(1 << n_f):
            want = reference_keeps(mode, members, ks).rstrip(b"\0")
            assert _keeps(table, ks) == want, (mode, ks)


def test_keeps_reads_every_block_set_of_twelve_blocks_in_little_cpu():
    ctx = random_context(1, 12, 10, 0.5)
    tables = [_members(ctx, mode) for mode in _MODES]
    assert blocks(ctx).n_f == 12
    assert [len(table.sets) for table in tables] == [1031, 1031]
    start = time.process_time()
    for table in tables:
        for ks in range(1 << 12):
            _keeps(table, ks)
    assert time.process_time() - start < 0.5


def test_classes_hold_members_as_masks():
    # both modes' classes of 36 blocks and 3,416 members: as LiteralSet
    # records of two BitSets each they kept 1,178 KB, as masks 390 KB
    ctx = random_context(1, 40, 8, 0.5)
    assert ctx.cols and blocks(ctx).n_f == 36  # built before tracing
    _all_classes.cache_clear()
    tracemalloc.start()
    try:
        classes = [_all_classes(ctx, mode) for mode in _MODES]
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sum(len(keys) for by_ext in classes for keys in by_ext.values()) == 3416
    assert kept < 640 * 1024


@given(wide_contexts(min_blocks=40, max_blocks=80))
@settings(max_examples=15, deadline=None)
def test_class_block_sets_are_those_of_the_extents(ctx):
    # each class's block set is folded from its first member's literals in
    # n_F-bit ints; at 40 or more blocks it is still block_set_of its extent
    assert blocks(ctx).n_f >= 40
    for mode in _MODES:
        classes = _all_classes(ctx, mode)
        got = _class_block_sets(ctx, classes, mode)
        assert got == {ext: block_set_of(ctx, BitSet(ext, ctx.n_objects)) for ext in classes}
