"""The independent checker: law suite, composite-attribute sweep, rng."""

import hashlib
import json
import time
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gcl.oracle as oracle
from strategies import contexts, hostile_contexts
from gcl import (
    BitSet,
    CanonicalForm,
    CapExceeded,
    ClassicalLattice,
    FormalContext,
    GeneralConcept,
    LawResult,
    OracleReport,
    blocks,
    build_gcl,
    context_digest,
    context_to_cxt,
    enumerate_mstar,
    random_context,
    verify_laws,
)
from gcl.irreducibles import _all_classes
from gcl.oracle import _CLASS_SCAN_CAP, _class_scan, _up_sets

T1_CXT = "B\n\n3\n2\n\ng1\ng2\ng3\na\nb\nX.\nXX\n.X\n"

ALL_LAWS = (
    "triple-application",
    "operator-monotonicity",
    "complement-duality",
    "rough-set-conjugates",
    "column-extent-in-both",
    "concept-reconstruction",
    "extent-fixpoint",
    "extent-family-closure",
    "canonical-census",
    "intrinsic-order-soundness",
    "conjugation-involution",
    "bound-recursion",
    "block-cover-decomposition",
    "single-block-bounds",
    "constants-decomposition",
    "order-criterion-agreement",
    "classical-route-equality",
    "literal-own-class",
    "negation-swap",
)


# --- law suite ---


def test_all_laws_run_and_pass(t1):
    rep = verify_laws(t1)
    assert tuple(r.law for r in rep.laws) == ALL_LAWS
    assert rep.all_passed
    assert rep.failures() == []
    assert all(r.witness is None for r in rep.laws)
    assert rep.n_objects == 3 and rep.n_attributes == 2
    _assert_notes_are_the_skips(rep)


def _assert_notes_are_the_skips(rep):
    # a note says why a law did not run, and nothing else
    ran = {r.law for r in rep.laws}
    assert [note.partition(":")[0] for note in rep.notes] == [
        f"skipped {law}" for law in ALL_LAWS if law not in ran
    ]


def test_big_context_skips_census():
    ctx = random_context(7, 5, 4, 0.5)
    rep = verify_laws(ctx)
    names = {r.law for r in rep.laws}
    assert "canonical-census" not in names
    assert "intrinsic-order-soundness" not in names
    assert names == set(ALL_LAWS) - {"canonical-census", "intrinsic-order-soundness"}
    assert any(n.startswith("skipped canonical-census") for n in rep.notes)
    _assert_notes_are_the_skips(rep)
    assert rep.all_passed


def test_wide_context_runs_every_node_law():
    # 3 x 20: each bound is a 2^20-bit table, so evaluating one must read
    # the few rows, not walk the table's set bits one at a time
    ctx = random_context(5, 3, 20, 0.5)
    rep = verify_laws(ctx)
    assert {r.law for r in rep.laws} == {
        "extent-fixpoint",
        "extent-family-closure",
        "conjugation-involution",
        "bound-recursion",
        "block-cover-decomposition",
        "single-block-bounds",
        "order-criterion-agreement",
        "classical-route-equality",
        "literal-own-class",
    }
    assert rep.all_passed


def test_order_law_is_skipped_past_its_size_gate():
    # n_F 8, m 20: comparing all 4^8 pairs of 2^20-bit tables took minutes
    ctx = random_context(11, 8, 20, 0.5)
    assert blocks(ctx).n_f == 8
    start = time.process_time()
    rep = verify_laws(ctx)
    assert time.process_time() - start < 2.0
    assert "order-criterion-agreement" not in {r.law for r in rep.laws}
    assert (
        "skipped order-criterion-agreement: needs 2 * blocks + attributes "
        "at most 32, has 36"
    ) in rep.notes
    assert rep.all_passed


def _forged(node, **fields):
    """A stand-in for node that stores its bounds, with fields replaced: a
    GeneralConcept computes its bounds, so it cannot carry a wrong one."""
    kept = dict(block_set=node.block_set, extent=node.extent, grsp=node.grsp, gfcp=node.gfcp)
    return SimpleNamespace(**{**kept, **fields})


def _forged_lattice(lat, **derived):
    """A lattice over lat's context and partition whose derived fields
    (nodes, hasse_edges, ...) are replaced: a GclLattice derives them on
    first read and keeps them, so the forged ones are kept in their place."""
    forged = type(lat)(lat.context, lat.partition)
    vars(forged).update(derived)
    return forged


def test_corrupted_bound_is_caught(t1):
    lat = build_gcl(t1)
    nodes = list(lat.nodes)
    nodes[1] = _forged(nodes[1], grsp=CanonicalForm(2, 0b1111))
    rep = verify_laws(
        t1,
        _forged_lattice(lat, nodes=tuple(nodes)),
    )
    assert not rep.all_passed
    bad = {r.law for r in rep.failures()}
    assert "extent-fixpoint" in bad
    assert all(r.witness for r in rep.failures())


def test_corrupted_edge_is_caught(t1):
    lat = build_gcl(t1)
    rep = verify_laws(
        t1,
        _forged_lattice(lat, hasse_edges=tuple(lat.hasse_edges)[:-1]),
    )
    assert not rep.all_passed


def _flip_minterm(lat, field, block_set, minterm):
    nodes = list(lat.nodes)
    node = nodes[block_set]
    table = getattr(node, field).table ^ 1 << minterm
    nodes[block_set] = _forged(node, **{field: CanonicalForm(lat.context.n_attributes, table)})
    return _forged_lattice(lat, nodes=tuple(nodes))


def _grsp_gains_a_row(monkeypatch, lat):
    # the node of every block but block 0 takes block 0's row: its grsp
    # becomes the top's
    row = lat.partition.rows[0]
    return _flip_minterm(lat, "grsp", len(lat.nodes) - 2, row)


def _gfcp_loses_its_row(monkeypatch, lat):
    # block 0's own node drops its row: its gfcp becomes the bottom's
    return _flip_minterm(lat, "gfcp", 1, lat.partition.rows[0])


def _edge_dropped(monkeypatch, lat):
    return _forged_lattice(lat, hasse_edges=tuple(lat.hasse_edges)[1:])


def _intent_not_antitone(monkeypatch, lat):
    real = oracle.intent_of

    def intent_of(ctx, xs):
        # the empty set should derive all of M
        return BitSet(0, ctx.n_attributes) if not xs.bits else real(ctx, xs)

    monkeypatch.setattr(oracle, "intent_of", intent_of)
    return lat


def _scan_misses_a_member(monkeypatch, lat):
    real = oracle._class_scan

    def class_scan(ctx, mode):
        classes = dict(real(ctx, mode))
        ext = max(classes)
        classes[ext] = classes[ext][:-1]
        return classes

    monkeypatch.setattr(oracle, "_class_scan", class_scan)
    return lat


@pytest.mark.parametrize(
    "corrupt, laws",
    [
        (_intent_not_antitone, {"operator-monotonicity"}),
        (
            _grsp_gains_a_row,
            {"order-criterion-agreement", "bound-recursion", "conjugation-involution"},
        ),
        (
            _gfcp_loses_its_row,
            {"order-criterion-agreement", "bound-recursion", "conjugation-involution"},
        ),
        (_edge_dropped, {"extent-family-closure"}),
        (_scan_misses_a_member, {"negation-swap"}),
    ],
)
def test_each_sweep_law_catches_its_fault(t1, monkeypatch, corrupt, laws):
    assert blocks(t1).n_f == 3
    rep = verify_laws(t1, corrupt(monkeypatch, build_gcl(t1)))
    witnesses = {r.law: r.witness for r in rep.failures()}
    assert laws <= set(witnesses)
    assert all(witnesses[law] for law in laws)


def _box_of_empty_is_m(real):
    # the empty set boxes to the attributes with an empty column, none in t1
    return lambda ctx, xs: real(ctx, xs) if xs.bits else BitSet(3, 2)


def _diamond_of_g_is_empty(real):
    return lambda ctx, xs: BitSet(0, 2) if xs.bits == 0b111 else real(ctx, xs)


def _approx_box_of_a_is_empty(real):
    return lambda ctx, ys: BitSet(0, 3) if ys.bits == 0b01 else real(ctx, ys)


def _extent_of_ab_is_empty(real):
    return lambda ctx, ys: BitSet(0, 3) if ys.bits == 0b11 else real(ctx, ys)


def _without_column_a(real):
    # the lattice loses the concept whose extent is column a, {g1, g2}
    def build(ctx):
        lat = real(ctx)
        kept = tuple(c for c in lat.concepts if c.extent.bits != ctx.cols[0])
        return ClassicalLattice(lat.kind, lat.context, kept, lat.hasse_edges)

    return build


def _recovered_without_the_bottom(real):
    def recover(lat, kind):
        got = real(lat, kind)
        return ClassicalLattice(got.kind, got.context, tuple(got.concepts)[1:], got.hasse_edges)

    return recover


def _recovered_without_a_cover(real):
    def recover(lat, kind):
        got = real(lat, kind)
        return ClassicalLattice(got.kind, got.context, got.concepts, tuple(got.hasse_edges)[1:])

    return recover


def _never_a_member(real):
    return lambda *args: False


def _never_a_disjunction_member(real):
    return lambda ctx, lits, target, mode: mode == "conjunction" and real(ctx, lits, target, mode)


@pytest.mark.parametrize(
    "name, broken, law, witness",
    [
        ("box_of", _box_of_empty_is_m, "triple-application",
         "X={g1}: box-diamond-box differs from box"),
        ("diamond_of", _diamond_of_g_is_empty, "triple-application",
         "X={g2}: diamond-box-diamond differs from diamond"),
        ("box_of", _box_of_empty_is_m, "complement-duality",
         "X={}: box differs from complemented diamond"),
        ("approx_box", _approx_box_of_a_is_empty, "complement-duality",
         "Y=0x1: box differs from complemented diamond"),
        ("diamond_of", _diamond_of_g_is_empty, "rough-set-conjugates",
         "X={}: complement pair is not diamond-closed"),
        ("approx_box", _approx_box_of_a_is_empty, "rough-set-conjugates",
         "X={g2, g3}: complement pair is not box-closed"),
        ("build_fcl", _without_column_a, "column-extent-in-both",
         "column a missing from the intersection lattice"),
        ("build_rsl", _without_column_a, "column-extent-in-both",
         "column a missing from the union lattice"),
        ("extent_of", _extent_of_ab_is_empty, "concept-reconstruction",
         "X={g2}: intent does not derive the extent"),
        ("box_of", _box_of_empty_is_m, "concept-reconstruction",
         "X={}: extent does not box to the intent"),
        ("build_fcl", _without_column_a, "classical-route-equality",
         "fcl: direct cover relation differs from the brute-force covers"),
        ("recover_classical", _recovered_without_the_bottom, "classical-route-equality",
         "fcl: recovered concepts differ from the direct build"),
        ("recover_classical", _recovered_without_a_cover, "classical-route-equality",
         "fcl: recovered cover relation differs from the direct build"),
        ("is_member", _never_a_member, "literal-own-class",
         "literal a missing from the conjunction class of its extent"),
        ("is_member", _never_a_disjunction_member, "literal-own-class",
         "literal a missing from the disjunction class of its extent"),
    ],
)
def test_each_law_fails_with_its_witness(t1, monkeypatch, name, broken, law, witness):
    # each law reads the broken name through gcl.oracle and names the
    # first thing it finds wrong
    monkeypatch.setattr(oracle, name, broken(getattr(oracle, name)))
    witnesses = {r.law: r.witness for r in verify_laws(t1).failures()}
    assert witnesses[law] == witness


def _broken_at(real, value: int, width: int, at: int):
    """real, but giving BitSet(value, width) for the one argument whose
    bits are at."""
    return lambda ctx, s: BitSet(value, width) if s.bits == at else real(ctx, s)


# the attribute-side (Y=) witnesses, reached once every object-side check
# has passed: each breaker moves one entry of a table the law reads over
# attribute sets.  In t1 every attribute set is closed, so the idempotence
# witness needs a context where b is in no row
@pytest.mark.parametrize(
    "rows, name, value, width, at, law, witness",
    [
        (None, "diamond_of", 0b01, 2, 0b000, "triple-application",
         "Y=0x0: box-diamond-box differs from box"),
        (None, "box_of", 0b00, 2, 0b011, "triple-application",
         "Y=0x1: diamond-box-diamond differs from diamond"),
        ((0b00, 0b01), "intent_of", 0b00, 2, 0b00, "triple-application",
         "Y=0x2: derivation not idempotent after three steps"),
        (None, "extent_of", 0b000, 3, 0b00, "operator-monotonicity",
         "Y1=0x0 <= Y2=0x1: derivation not antitone"),
        (None, "approx_box", 0b010, 3, 0b00, "operator-monotonicity",
         "Y1=0x0 <= Y2=0x1: box not monotone"),
        (None, "approx_diamond", 0b001, 3, 0b00, "operator-monotonicity",
         "Y1=0x0 <= Y2=0x2: diamond not monotone"),
        (None, "approx_box", 0b000, 3, 0b10, "complement-duality",
         "Y=0x1: diamond differs from complemented box"),
    ],
)
def test_each_attribute_side_witness_is_reached(
    t1, monkeypatch, rows, name, value, width, at, law, witness
):
    ctx = t1 if rows is None else FormalContext(("g1", "g2"), ("a", "b"), rows)
    monkeypatch.setattr(oracle, name, _broken_at(getattr(oracle, name), value, width, at))
    witnesses = {r.law: r.witness for r in verify_laws(ctx).failures()}
    assert witnesses[law] == witness


@pytest.mark.parametrize(
    "field, ks, witness",
    [
        ("grsp", 0b010110, "grsp is not the union below"),
        ("gfcp", 0b001010, "gfcp is not the intersection above"),
    ],
)
def test_one_wrong_bound_fails_bound_recursion_at_its_node(field, ks, witness):
    # n_F 6: each node's union below (intersection above) is folded from
    # the block sets one block smaller (larger), so one wrong table must
    # still be named at its own node, the first that fails.  The bound of
    # ks gains the row of block 0, which lies outside ks
    ctx = random_context(4, 6, 4, 0.5)
    lat = build_gcl(ctx)
    assert lat.partition.n_f == 6
    forged = _flip_minterm(lat, field, ks, lat.partition.rows[0])
    witnesses = {r.law: r.witness for r in verify_laws(ctx, forged).failures()}
    names = ", ".join(ctx.object_names(lat.nodes[ks].extent))
    assert witnesses["bound-recursion"] == f"X={{{names}}}: {witness}"


_WIDE_BITS = (0, 1, 5, 1 << 19, (1 << 20) - 1)
# a 2^20-bit table with every bit set except those the keys choose from
_WIDE_FILL = ((1 << (1 << 20)) - 1) ^ sum(1 << b for b in _WIDE_BITS)


@given(st.lists(st.frozensets(st.sampled_from(_WIDE_BITS)), max_size=10), st.booleans())
@example([], False)
@example([frozenset()], False)
@example([frozenset({5})], True)
@example([frozenset(), frozenset({1, 5}), frozenset(), frozenset({1, 5})], False)
@example([frozenset({(1 << 20) - 1}), frozenset(), frozenset(_WIDE_BITS)], True)
@settings(max_examples=60, deadline=None)
def test_up_sets_match_the_pairwise_order(picks, wide):
    keys = [(_WIDE_FILL if wide else 0) | sum(1 << b for b in bits) for bits in picks]
    expected = [sum(1 << j for j, b in enumerate(keys) if a & ~b == 0) for a in keys]
    assert _up_sets(keys) == expected


def test_class_scan_at_its_cap_is_one_sweep():
    # the scan used to refold each of the 4^8 signed sets: 1.1 s
    ctx = random_context(1, 10, _CLASS_SCAN_CAP, 0.5)
    _class_scan.cache_clear()
    start = time.process_time()
    for mode in ("conjunction", "disjunction"):
        _class_scan(ctx, mode)
    assert time.process_time() - start < 0.5


def test_laws_at_the_family_cap_stay_cheap():
    # n_F 10, m 8: the pairwise laws and the class scan took 2.0 s
    ctx = random_context(1, 10, 8, 0.5)
    assert blocks(ctx).n_f == 10
    _class_scan.cache_clear()
    _all_classes.cache_clear()
    start = time.process_time()
    rep = verify_laws(ctx)
    assert time.process_time() - start < 1.0
    assert len(rep.laws) == 17
    assert rep.all_passed


def test_report_as_dict_round_trips(t1):
    rep = verify_laws(t1)
    d = rep.as_dict(t1)
    assert d["passed"] is True
    assert d["digest"] == rep.digest
    assert [e["law"] for e in d["laws"]] == list(ALL_LAWS)
    assert "classes" not in d
    json.dumps(d)


# --- composite-attribute sweep ---


def test_sweep_worked(t1):
    rep = enumerate_mstar(t1)
    assert rep.all_passed
    assert [r.law for r in rep.laws] == [
        "census-partition",
        "census-extent-family",
        "census-class-extremes",
    ]
    rows = [
        (sorted(c.extent), c.size, c.min_form.ids(), c.max_form.ids())
        for c in rep.classes
    ]
    assert rows == [
        ([], 2, [], [0]),
        ([0], 2, [1], [0, 1]),
        ([1], 2, [3], [0, 3]),
        ([2], 2, [2], [0, 2]),
        ([0, 1], 2, [1, 3], [0, 1, 3]),
        ([0, 2], 2, [1, 2], [0, 1, 2]),
        ([1, 2], 2, [2, 3], [0, 2, 3]),
        ([0, 1, 2], 2, [1, 2, 3], [0, 1, 2, 3]),
    ]
    assert sum(c.size for c in rep.classes) == 16
    d = rep.as_dict(t1)
    assert d["classes"][1] == {
        "extent": ["g1"],
        "size": 2,
        "min": [1],
        "max": [0, 1],
    }


def test_both_census_routes_name_the_same_witness(t1, monkeypatch):
    # one node's gfcp gains minterm 0, which no row realizes: the census
    # law of verify and the sweep's class-extremes check share one check
    real = GeneralConcept.gfcp

    def gfcp(node):
        form = real.fget(node)
        return CanonicalForm(form.m_count, form.table ^ 1) if node.block_set == 1 else form

    monkeypatch.setattr(GeneralConcept, "gfcp", property(gfcp))
    census = {r.law: r for r in verify_laws(t1).laws}["canonical-census"]
    sweep = {r.law: r for r in enumerate_mstar(t1).laws}
    assert not census.passed and not sweep["census-class-extremes"].passed
    assert census.witness == sweep["census-class-extremes"].witness
    assert census.witness == "X={g1}: class minimum differs from gfcp"
    assert sweep["census-partition"].passed and sweep["census-extent-family"].passed


def test_sweep_class_count_matches_nodes():
    ctx = random_context(3, 6, 3, 0.5)
    rep = enumerate_mstar(ctx)
    assert rep.all_passed
    assert len(rep.classes) == len(build_gcl(ctx).nodes)
    assert sum(c.size for c in rep.classes) == 1 << (1 << 3)


def test_sweep_caps():
    wide = FormalContext(("g1",), tuple(f"m{j}" for j in range(5)), (0,))
    with pytest.raises(CapExceeded, match="5 attributes exceed the sweep cap"):
        enumerate_mstar(wide)
    tall = FormalContext(tuple(f"g{i}" for i in range(17)), ("a",), (0,) * 17)
    with pytest.raises(CapExceeded, match="17 objects exceed the sweep cap"):
        enumerate_mstar(tall)


# --- digests ---


def test_digest_is_sha256_of_serialization(t1):
    assert context_digest(t1) == hashlib.sha256(T1_CXT.encode()).hexdigest()
    assert context_to_cxt(t1) == T1_CXT


@given(hostile_contexts())
@settings(max_examples=60, deadline=None)
def test_digest_is_sha256_for_any_names(ctx):
    # built-in SHA-256, not hashlib's OpenSSL one, with the same digest
    assert context_digest(ctx) == hashlib.sha256(context_to_cxt(ctx).encode()).hexdigest()


@pytest.mark.parametrize("stray", ["past n_F", "negative"])
def test_block_set_outside_the_blocks_fails_conjugation(stray):
    # dagger indexes the nodes by the complemented block set: one past n_F
    # used to raise IndexError out of verify_laws, and bound-recursion
    # indexes them by submask
    ctx = random_context(3, 5, 3, 0.5)
    lat = build_gcl(ctx)
    n_f = lat.partition.n_f
    nodes = list(lat.nodes)
    bad = nodes[2].block_set | 1 << n_f if stray == "past n_F" else -1
    nodes[2] = _forged(nodes[2], block_set=bad)
    forged = _forged_lattice(lat, nodes=tuple(nodes))
    rep = verify_laws(ctx, forged)
    witnesses = {r.law: r.witness for r in rep.failures()}
    witness = f"block set 0x{bad:x} lies outside the {n_f} blocks"
    assert witnesses["conjugation-involution"] == witness
    assert witnesses["bound-recursion"] == witness


def _always_bottom(lat, a):
    return lat.inf


def _swaps_two_images(lat, a):
    # the bottom and {g1} trade conjugates: neither is then mapped back
    real = lat.nodes[a.block_set ^ 0b111]
    return {0b000: lat.nodes[0b110], 0b001: lat.sup}.get(a.block_set, real)


@pytest.mark.parametrize(
    "broken, witness",
    [
        # the bottom is its own image under this map, so it fails first on
        # its extent
        (_always_bottom, "X={}: conjugate extent is not the complement"),
        (_swaps_two_images, "X={}: conjugation is not an involution"),
    ],
)
def test_conjugation_catches_a_broken_dagger(t1, monkeypatch, broken, witness):
    # nodes are built when read, so the law finds each image by its block
    # set and compares nodes by value
    monkeypatch.setattr(oracle, "dagger", broken)
    witnesses = {r.law: r.witness for r in verify_laws(t1).failures()}
    assert witnesses == {"conjugation-involution": witness}


def test_family_closed_under_complement_only_fails_closure():
    # eight distinct extents over g1..g4, closed under complement, but
    # {g1} | {g2} is missing: four object classes for three blocks
    ctx = FormalContext.from_table(("g1", "g2", "g3", "g4"), ("a", "b"), ("X.", ".X", "XX", "XX"))
    lat = build_gcl(ctx)
    assert lat.partition.n_f == 3
    half = (0b0000, 0b0001, 0b0010, 0b0100)
    family = half + tuple(0b1111 ^ bits for bits in half)
    nodes = [_forged(node, extent=BitSet(bits, 4)) for node, bits in zip(lat.nodes, family)]
    forged = _forged_lattice(lat, nodes=tuple(nodes))
    witnesses = {r.law: r.witness for r in verify_laws(ctx, forged).failures()}
    assert witnesses["extent-family-closure"] == "family not closed: 4 object classes for 3 blocks"


def test_digest_distinguishes_contexts(t1):
    other = FormalContext.from_table(("g1", "g2", "g3"), ("a", "b"), ("X.", "XX", "XX"))
    assert context_digest(other) != context_digest(t1)
    assert context_digest(t1) == context_digest(t1)


# --- reproducible random contexts ---


def test_random_context_is_deterministic():
    a = random_context(42, 6, 4, 0.5)
    b = random_context(42, 6, 4, 0.5)
    assert a == b
    assert random_context(43, 6, 4, 0.5) != a


def test_random_context_golden(tmp_path):
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden" / "random_seed1_4x3.cxt"
    assert context_to_cxt(random_context(1, 4, 3, 0.5)) == golden.read_text()


def test_random_context_names_and_shape():
    ctx = random_context(9, 3, 2, 0.5)
    assert ctx.objects == ("g1", "g2", "g3")
    assert ctx.attributes == ("m1", "m2")


def test_random_context_density_extremes():
    assert random_context(5, 4, 3, 0.0).rows == (0, 0, 0, 0)
    assert random_context(5, 4, 3, 1.0).rows == (7, 7, 7, 7)


def test_random_context_rejects_bad_arguments():
    with pytest.raises(ValueError, match="outside"):
        random_context(1, 2, 2, -0.1)
    with pytest.raises(ValueError, match="outside"):
        random_context(1, 2, 2, 1.5)
    with pytest.raises(ValueError, match="negative"):
        random_context(1, -1, 2, 0.5)


@given(st.integers(0, 2**64 - 1), st.floats(0.0, 1.0, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_random_context_density_bounds(seed, density):
    ctx = random_context(seed, 5, 3, density)
    assert all(0 <= row < 8 for row in ctx.rows)


# --- canary over random inputs ---


@given(contexts(max_objects=5, max_attributes=3))
@settings(max_examples=25, deadline=None)
def test_laws_hold_on_random_contexts(ctx):
    rep = verify_laws(ctx)
    assert rep.all_passed, [r.witness for r in rep.failures()]
