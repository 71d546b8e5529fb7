from itertools import compress
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strategies import contexts
from gcl import exprs
from gcl import (
    BOTTOM,
    BitSet,
    CanonicalForm,
    CapExceeded,
    Minterm,
    Not,
    ParseError,
    TOP,
    Var,
    atoms_coatoms,
    canonical_to_expr,
    canonical_to_str,
    conj,
    disj,
    eval_contextual,
    expr_to_str,
    intrinsic_compare,
    literal,
    parse_expr,
    to_canonical,
)

AB = ("a", "b")
ABC = ("a", "b", "c")


def canon(text, attrs):
    return to_canonical(parse_expr(text, attrs), len(attrs))


# ---------------------------------------------------------------------------
# AST and evaluation

def test_combinators():
    assert conj([]) is TOP
    assert disj([]) is BOTTOM
    v = Var(0)
    assert conj([v]) is v
    assert disj([v]) is v
    assert literal(1, False) == Not(Var(1))


def test_eval_contextual(t1):
    def ext(text):
        return eval_contextual(t1, parse_expr(text, AB))

    assert ext("a & !b") == t1.object_set(["g1"])
    assert ext("!a & b") == t1.object_set(["g3"])
    assert ext("a | b") == BitSet.full(3)
    assert ext("!(a | b)") == BitSet.empty(3)
    assert ext("1") == BitSet.full(3)
    assert ext("0") == BitSet.empty(3)


def test_eval_rejects_out_of_range_variable(t1):
    with pytest.raises(ValueError, match="out of range"):
        eval_contextual(t1, Var(5))


# ---------------------------------------------------------------------------
# canonical forms

def test_canonical_of_literals():
    assert canon("a", AB).ids() == [1, 3]
    assert canon("!a", AB).ids() == [0, 2]
    assert canon("a & !b", AB).ids() == [1]
    assert canon("a | b", AB).ids() == [1, 2, 3]
    assert canon("1", AB).ids() == [0, 1, 2, 3]
    assert canon("0", AB).ids() == []


def test_minterm_id_encoding():
    # attribute 0 is the least significant bit of the id
    m = Minterm(2, 2)
    assert m.polarity == BitSet.of([1], 2)
    assert expr_to_str(m.conjunction(), AB) == "!a & b"
    assert to_canonical(m.conjunction(), 2).ids() == [2]
    assert expr_to_str(Minterm(0, 0).conjunction(), ()) == "1"


def test_canonical_form_basics():
    cf = CanonicalForm.of(2, [0, 3])
    assert cf.table == 0b1001
    assert cf.minterms == frozenset({0, 3})
    assert len(cf) == 2
    assert (~cf).ids() == [1, 2]
    assert (cf & CanonicalForm.of(2, [3])).ids() == [3]
    assert (cf | CanonicalForm.of(2, [1])).ids() == [0, 1, 3]
    assert cf.issubset(CanonicalForm.of(2, [0, 1, 3]))
    assert CanonicalForm.of(2, []).is_zero()
    assert CanonicalForm.of(2, range(4)).is_one()
    with pytest.raises(ValueError):
        CanonicalForm.of(2, [4])
    with pytest.raises(ValueError):
        CanonicalForm.of(1, [0]) & CanonicalForm.of(2, [0])
    for m in (0, 1, 2, 5):
        assert CanonicalForm(m, (1 << (1 << m)) - 1).is_one()
        with pytest.raises(ValueError):
            CanonicalForm(m, 1 << (1 << m))
        with pytest.raises(ValueError):
            CanonicalForm(m, -1)


def test_census_of_forms_is_double_exponential():
    # 2^(2^m) distinct canonical forms over m attributes
    for m in range(3):
        assert len({CanonicalForm(m, t) for t in range(1 << (1 << m))}) == 1 << (1 << m)


@pytest.mark.parametrize("mode", ["dnf", "cnf"])
def test_canonical_expr_round_trip_all_tables_m2(mode):
    for table in range(16):
        cf = CanonicalForm(2, table)
        assert to_canonical(canonical_to_expr(cf, mode), 2) == cf


def test_cnf_of_near_full_form():
    cf = CanonicalForm.of(2, [0, 1, 2])
    e = canonical_to_expr(cf, "cnf")
    assert expr_to_str(e, AB) == "!a | !b"
    assert to_canonical(e, 2) == cf


def test_canonical_to_expr_degenerate():
    assert canonical_to_expr(CanonicalForm(2, 0), "dnf") is BOTTOM
    assert canonical_to_expr(CanonicalForm(2, 15), "cnf") is TOP
    with pytest.raises(ValueError, match="unknown mode"):
        canonical_to_expr(CanonicalForm(2, 0), "nnf")


@given(st.integers(0, 3), st.integers(0, 255))
def test_canonical_round_trip_random_tables(m, table):
    table &= (1 << (1 << m)) - 1
    cf = CanonicalForm(m, table)
    for mode in ("dnf", "cnf"):
        assert to_canonical(canonical_to_expr(cf, mode), m) == cf


def test_cap_guard():
    with pytest.raises(CapExceeded, match="21 attributes"):
        to_canonical(TOP, 21)
    assert to_canonical(TOP, 20).is_one()


# ---------------------------------------------------------------------------
# atoms, coatoms, intrinsic order

def test_atoms_coatoms_pairing():
    atoms, coatoms = atoms_coatoms(3)
    assert len(atoms) == 8 and len(coatoms) == 8
    assert [a.id for a in atoms] == list(range(8))
    for a, c in zip(atoms, coatoms):
        at = to_canonical(a.conjunction(), 3)
        ct = to_canonical(c, 3)
        assert len(at) == 1
        assert ~at == ct  # each coatom is the negated atom


def test_intrinsic_compare():
    a, b = Var(0), Var(1)
    assert intrinsic_compare(a, a, 2) == "equal"
    assert intrinsic_compare(conj([a, b]), a, 2) == "less"
    assert intrinsic_compare(disj([a, b]), a, 2) == "greater"
    assert intrinsic_compare(a, b, 2) == "incomparable"
    assert intrinsic_compare(conj([a, Not(a)]), BOTTOM, 1) == "equal"


# ---------------------------------------------------------------------------
# surface syntax

def test_parser_precedence():
    assert canon("a | b & c", ABC) == canon("a | (b & c)", ABC)
    assert canon("a | b & c", ABC) != canon("(a | b) & c", ABC)
    assert canon("!a & b", AB) != canon("!(a & b)", AB)
    assert canon("!!a", AB) == canon("a", AB)
    assert canon("a&b|!c", ABC) == canon("(a & b) | !c", ABC)


def test_parser_constants_yield_to_attribute_names():
    ctx_attrs = ("1", "x")
    assert parse_expr("1", ctx_attrs) == Var(0)
    assert parse_expr("1", AB) is TOP


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "unexpected end"),
        ("a &", "unexpected end"),
        ("(a | b", r"expected '\)'"),
        ("a b", "unexpected 'b'"),
        ("a & z", "unknown attribute 'z'"),
        ("&a", "unexpected '&'"),
    ],
)
def test_parser_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_expr(text, AB)


def test_parser_error_reports_column():
    for text, column in (("a & z", 5), ("zz & a", 1), ("  zz & a", 3)):
        with pytest.raises(ParseError, match=f"at column {column}$"):
            parse_expr(text, AB)


@given(st.integers(0, 3), st.integers(0, 255))
def test_print_parse_round_trip(m, table):
    table &= (1 << (1 << m)) - 1
    attrs = ABC[:m] if m <= 3 else ABC
    cf = CanonicalForm(m, table)
    for mode in ("dnf", "cnf"):
        e = canonical_to_expr(cf, mode)
        text = expr_to_str(e, attrs)
        assert canonical_to_str(cf, mode, attrs) == text
        assert to_canonical(parse_expr(text, attrs), m) == cf


# two name sets of every width up to 12: a table cache keyed on the width
# alone would render the second set with the first one's names
NAME_SETS = (tuple(f"m{j}" for j in range(12)), tuple(f"attr_{j}!" for j in range(12)))


@st.composite
def bound_forms(draw):
    """Canonical forms over 0-12 attributes, across the 10-attribute split
    of the literal-term tables: random, near-full and sparse tables."""
    m = draw(st.integers(0, 12))
    size = 1 << m
    full = (1 << size) - 1
    flips = sum(1 << t for t in draw(st.sets(st.integers(0, size - 1), max_size=4)))
    table = draw(st.sampled_from([draw(st.integers(0, full)), full ^ flips, flips]))
    return CanonicalForm(m, table)


@settings(deadline=None)
@given(bound_forms())
@example(CanonicalForm(11, (1 << (1 << 11)) - 1))
@example(CanonicalForm(12, 1 << 4095))
@example(CanonicalForm(1, 0b01))
def test_canonical_to_str_matches_the_expression_route(cf):
    for mode in ("dnf", "cnf"):
        expr = canonical_to_expr(cf, mode)
        for names in NAME_SETS:
            expected = expr_to_str(expr, names)
            for attrs in (list(names[:cf.m_count]), names[:cf.m_count]):
                assert canonical_to_str(cf, mode, attrs) == expected


def _at_width(w, make, *args, **kwargs):
    """make(*args, **kwargs) with w attributes in its low table, whatever
    the node count; _term_tables is called past its cache, which keys on
    the node count."""
    with mock.patch.object(exprs, "_low_width", lambda m, nodes: w):
        return getattr(make, "__wrapped__", make)(*args, **kwargs)


@settings(deadline=None)
@given(bound_forms())
@example(CanonicalForm(0, 1))
@example(CanonicalForm(1, 0b01))
@example(CanonicalForm(10, (1 << 1024) - 1))
@example(CanonicalForm(12, 1 << 4095))
def test_term_length_is_the_length_of_the_plain_text(cf):
    # the reduced-bound path compares lengths without building the text,
    # at every low-table width w: one string where the low table spans all
    # m attributes, runs of at most 2^w terms otherwise
    m = cf.m_count
    for mode in ("dnf", "cnf"):
        table = cf.table if mode == "dnf" else (~cf).table
        selectors = exprs._selectors(table)
        for names in NAME_SETS:
            text = canonical_to_str(cf, mode, names)
            for w in range(m + 1):
                low, high = _at_width(w, exprs._term_tables, names[:m], mode)
                assert (len(low), len(high)) == (1 << w, 1 << m - w)
                lengths = [list(map(len, t)) for t in (low, high)]
                assert exprs._term_length(table, selectors, m, mode, *lengths) == len(text)
                got = exprs._term_text(m, mode, low, high)(table)
                assert isinstance(got, str) or w < m
                assert (got if isinstance(got, str) else "".join(got)) == text


@given(bound_forms())
@example(CanonicalForm(12, 1 << 4095))
@example(CanonicalForm(11, 0))
def test_id_runs_list_the_set_bits_at_every_width(cf):
    m, table = cf.m_count, cf.table
    expected = "<" + ", ".join(map(str, cf.ids())) + ">"

    def whole(ids, selectors):
        return "<" + ", ".join(compress(ids, selectors)) + ">"

    for w in range(m + 1):
        got = _at_width(w, exprs._id_runs, m, ", ", "<", ">", whole)(table)
        assert isinstance(got, str) or table.bit_length() > 1 << w
        assert (got if isinstance(got, str) else "".join(got)) == expected


def test_one_node_tables_are_square_roots():
    # a one-node render picks its terms from tables of 2^ceil(m/2) and
    # 2^floor(m/2) strings; a render of more nodes keeps 2^min(m, 10) low
    # terms, so up to m 10 its bound is one string
    for m in range(13):
        names = NAME_SETS[0][:m]
        for mode in ("dnf", "cnf"):
            low, high = exprs._term_tables(names, mode, 1)
            assert (len(low), len(high)) == (1 << (m + 1) // 2, 1 << m // 2)
            for nodes in (None, 2, 1 << 9):
                low, high = exprs._term_tables(names, mode, nodes)
                assert (len(low), len(high)) == (1 << min(m, 10), 1 << m - min(m, 10))
        # selectors are shared only where the parts are one string
        for nodes, one_string in ((1, m <= 1), (1 << 9, m <= 10)):
            shared = exprs._shared_selectors(m, nodes)(5)
            assert shared == (exprs._selectors(5) if one_string else None)


def test_canonical_to_str_needs_a_name_per_attribute():
    with pytest.raises(IndexError, match="1 attribute names for 2 attributes"):
        canonical_to_str(CanonicalForm(2, 0b0110), "dnf", ["a"])


@given(bound_forms())
@example(CanonicalForm(0, 0))
@example(CanonicalForm(12, 0))
@example(CanonicalForm(12, (1 << (1 << 12)) - 1))
def test_ids_lists_the_set_bits(cf):
    m, table = cf.m_count, cf.table
    assert cf.ids() == [t for t in range(1 << m) if table >> t & 1]


def test_literal_term_tables_stay_small_at_twenty_attributes():
    # a bound over 20 attributes picks its terms from two cached tables of
    # at most 2^10 strings each, never from one table of all 2^20 terms
    names = tuple(f"a{j}" for j in range(20))
    sparse = 1 | 1 << 777 | 1 << 1_048_575
    full = (1 << (1 << 20)) - 1
    for mode, table in (("dnf", sparse), ("cnf", full ^ sparse)):
        cf = CanonicalForm(20, table)
        text = canonical_to_str(cf, mode, names)
        assert text == expr_to_str(canonical_to_expr(cf, mode), names)
        hits = exprs._term_tables.cache_info().hits
        low, high = exprs._term_tables(names, mode)
        assert exprs._term_tables.cache_info().hits == hits + 1
        assert len(low) <= 1 << 10 and len(high) <= 1 << 10


@given(contexts(max_objects=5, max_attributes=3))
def test_eval_agrees_with_canonical_atoms(ctx):
    # evaluating an expression equals the union of its minterm extents
    m = ctx.n_attributes
    atom_ext = [0] * (1 << m)
    for i, row in enumerate(ctx.rows):
        atom_ext[row] |= 1 << i
    for table in range(min(1 << (1 << m), 64)):
        cf = CanonicalForm(m, table)
        expected = 0
        for t in cf.ids():
            expected |= atom_ext[t]
        e = canonical_to_expr(cf, "dnf")
        assert eval_contextual(ctx, e).bits == expected
