import csv
import io

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from strategies import contexts, contexts_with_subset, hostile_contexts
from gcl import (
    BitSet,
    FormalContext,
    ParseError,
    approx_box,
    approx_diamond,
    blocks,
    box_of,
    context_to_cxt,
    diamond_of,
    extent_of,
    intent_of,
    parse_context,
    random_context,
)

T1_CXT = "B\n\n3\n2\n\ng1\ng2\ng3\na\nb\nX.\nXX\n.X\n"

T1_CSV = ",a,b\ng1,1,0\ng2,1,1\ng3,0,1\n"


def obj(ctx, *names):
    return ctx.object_set(names)


def attr(ctx, *names):
    return ctx.attribute_set(names)


# ---------------------------------------------------------------------------
# construction and parsing

def test_from_table(t1):
    assert t1.n_objects == 3
    assert t1.n_attributes == 2
    assert t1.rows == (0b01, 0b11, 0b10)
    assert t1.cols == (0b011, 0b110)
    assert t1.incidence("g1", "a")
    assert not t1.incidence("g1", "b")


def test_from_table_accepts_10_notation():
    ctx = FormalContext.from_table(("g1",), ("a", "b"), ("10",))
    assert ctx.rows == (0b01,)


@pytest.mark.parametrize("name", ["g\n1", "g\r", "\r\n", "\n"])
def test_validation_rejects_line_breaks_in_names(name):
    # cxt keeps one name per line, and so do the text and dot exports
    with pytest.raises(ValueError, match="object name .* contains a line break"):
        FormalContext((name,), ("a",), (0,))
    with pytest.raises(ValueError, match="attribute name .* contains a line break"):
        FormalContext(("g1",), (name,), (0,))


def test_validation_rejects_bad_shapes():
    with pytest.raises(ValueError, match="duplicate object"):
        FormalContext(("g1", "g1"), ("a",), (0, 1))
    with pytest.raises(ValueError, match="duplicate attribute"):
        FormalContext(("g1",), ("a", "a"), (0,))
    with pytest.raises(ValueError):
        FormalContext(("g1",), ("a",), (0, 1))
    with pytest.raises(ValueError):
        FormalContext(("g1",), ("a",), (2,))
    with pytest.raises(ValueError):
        FormalContext(("",), ("a",), (0,))


def test_parse_cxt(t1):
    assert parse_context(T1_CXT, "cxt") == t1


def test_parse_cxt_blank_before_names_is_optional(t1):
    squeezed = T1_CXT.replace("3\n2\n\ng1", "3\n2\ng1")
    assert parse_context(squeezed, "cxt") == t1


def test_parse_cxt_tolerates_trailing_blank_lines(t1):
    assert parse_context(T1_CXT + "\n  \n", "cxt") == t1


def test_parse_csv(t1):
    assert parse_context(T1_CSV, "csv") == t1


def test_parse_csv_x_dot_cells(t1):
    text = ",a,b\ng1,X,.\ng2,X,X\ng3,.,X\n"
    assert parse_context(text, "csv") == t1


@pytest.mark.parametrize("fmt,text", [("cxt", T1_CXT), ("csv", T1_CSV)])
def test_parse_strips_byte_order_mark(t1, fmt, text):
    assert parse_context("\ufeff" + text, fmt) == t1


@pytest.mark.parametrize("fmt,text", [("cxt", T1_CXT), ("csv", T1_CSV)])
def test_parse_accepts_crlf_line_ends(t1, fmt, text):
    assert parse_context(text.replace("\n", "\r\n"), fmt) == t1


def test_unknown_format():
    with pytest.raises(ValueError, match="unknown context format"):
        parse_context("", "xml")


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        # lines are 1-based, as for an empty csv
        ("", 1, "unexpected end of file, expected header 'B'"),
        ("\n", 1, "expected header 'B', got ''"),
        ("Z\n", 1, "expected header 'B'"),
        ("B\nleftover\n", 2, "blank line"),
        ("B\n\nmany\n2\n", 3, "object count"),
        ("B\n\n1\n-2\n", 4, "negative"),
        ("B\n\n1\n1\n\ng1\na\n", 7, "matrix row"),
        ("B\n\n1\n2\n\ng1\na\nb\nX\n", 9, "1 cells, expected 2"),
        ("B\n\n1\n1\n\ng1\na\nY\n", 8, "bad matrix cell"),
        ("B\n\n1\n1\n\ng1\na\nX\nextra\n", 9, "trailing content"),
    ],
)
def test_parse_cxt_errors(text, line, fragment):
    with pytest.raises(ParseError) as err:
        parse_context(text, "cxt")
    assert err.value.line == line
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty csv"),
        ("a,b\n", "empty cell"),
        (",a\ng1,2\n", "bad csv cell"),
        (",a,b\ng1,1\n", "1 cells, expected 2"),
        (",a,a\ng1,1,0\n", "duplicate attribute"),
        (',a,"b\nc"\n"g\n1",X,.\ng2,.,X\n', r"object name 'g\\n1' contains a line break"),
        (',"a\r"\ng1,X\n', r"attribute name 'a\\r' contains a line break"),
    ],
)
def test_parse_csv_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_context(text, "csv")


def test_csv_errors_report_the_line_not_the_record():
    # the quoted header name spans lines 1-2, so the bad cell sits on line 3
    with pytest.raises(ParseError, match="bad csv cell 'Z'") as err:
        parse_context(',"a\nb",c\ng1,1,Z\n', "csv")
    assert err.value.line == 3
    with pytest.raises(ParseError, match="row has 1 cells") as err:
        parse_context(',a,b\n"g\n1",1,0\n\ng2,1\n', "csv")
    assert err.value.line == 5


def test_oversized_csv_field_is_a_parse_error():
    # past the csv module's field limit of 131,072 characters
    with pytest.raises(ParseError, match="field larger than field limit") as err:
        parse_context(",a\ng1," + "1" * 200_000 + "\n", "csv")
    assert err.value.line == 2
    with pytest.raises(ParseError, match="field larger than field limit") as err:
        parse_context("," + "a" * 200_000 + "\n", "csv")
    assert err.value.line == 1


def test_cxt_round_trip_bytes(t1):
    assert context_to_cxt(t1) == T1_CXT


@given(contexts())
def test_cxt_round_trip_identity(ctx):
    assert parse_context(context_to_cxt(ctx), "cxt") == ctx


def _csv_text(ctx, cells):
    out = io.StringIO()
    writer = csv.writer(out)  # quotes where needed, ends lines with CRLF
    writer.writerow(["", *ctx.attributes])
    for name, row in zip(ctx.objects, ctx.rows):
        writer.writerow([name, *(cells[(row >> j) & 1] for j in range(ctx.n_attributes))])
    return out.getvalue()


@given(hostile_contexts(), st.booleans(), st.booleans(), st.sampled_from([".X", "01"]))
@example(FormalContext(("g,1", '"g2"'), (" a ", "b\u00e9"), (1, 2)), True, True, "01")
@example(FormalContext((), (), ()), False, False, ".X")
def test_parse_round_trip_hostile_names(ctx, bom, crlf, cells):
    lead = "\ufeff" if bom else ""
    cxt = context_to_cxt(ctx)
    if crlf:
        cxt = cxt.replace("\n", "\r\n")
    assert parse_context(lead + cxt, "cxt") == ctx
    text = _csv_text(ctx, cells)
    if not crlf:
        text = text.replace("\r\n", "\n")
    assert parse_context(lead + text, "csv") == ctx


def test_name_lookups(t1):
    assert obj(t1, "g1", "g3") == BitSet.of([0, 2], 3)
    assert t1.object_names(BitSet.of([0, 2], 3)) == ["g1", "g3"]
    assert attr(t1, "b") == BitSet.of([1], 2)
    assert t1.attribute_names(BitSet.full(2)) == ["a", "b"]
    with pytest.raises(KeyError):
        obj(t1, "g9")
    with pytest.raises(KeyError):
        attr(t1, "z")


# ---------------------------------------------------------------------------
# derivation and approximation operators

def test_derivation(t1):
    assert intent_of(t1, obj(t1, "g1")) == attr(t1, "a")
    assert intent_of(t1, obj(t1, "g1", "g3")) == attr(t1)
    assert intent_of(t1, obj(t1)) == BitSet.full(2)
    assert extent_of(t1, attr(t1, "a")) == obj(t1, "g1", "g2")
    assert extent_of(t1, attr(t1, "a", "b")) == obj(t1, "g2")
    assert extent_of(t1, attr(t1)) == BitSet.full(3)


def test_box_and_diamond(t1):
    assert box_of(t1, obj(t1, "g1")) == attr(t1)
    assert box_of(t1, obj(t1, "g1", "g2")) == attr(t1, "a")
    assert box_of(t1, BitSet.full(3)) == BitSet.full(2)
    assert diamond_of(t1, obj(t1, "g1")) == attr(t1, "a")
    assert diamond_of(t1, obj(t1, "g3")) == attr(t1, "b")
    assert diamond_of(t1, obj(t1)) == attr(t1)


def test_approximations(t1):
    assert approx_box(t1, attr(t1, "a")) == obj(t1, "g1")
    assert approx_box(t1, BitSet.full(2)) == BitSet.full(3)
    assert approx_box(t1, attr(t1)) == obj(t1)
    assert approx_diamond(t1, attr(t1, "a")) == obj(t1, "g1", "g2")
    assert approx_diamond(t1, attr(t1)) == obj(t1)


def test_operator_width_checks(t1):
    with pytest.raises(ValueError):
        intent_of(t1, BitSet.empty(4))
    with pytest.raises(ValueError):
        extent_of(t1, BitSet.empty(3))


@given(contexts_with_subset())
@example((FormalContext(("g1", "g2"), (), (0, 0)), BitSet(0b11, 2)))
@example((FormalContext(("g1", "g2"), ("a", "b"), (0b01, 0b11)), BitSet(0, 2)))
@example((FormalContext((), ("a", "b"), ()), BitSet(0, 0)))
def test_intent_of_is_the_and_of_member_rows(pair):
    ctx, xs = pair
    bits = (1 << ctx.n_attributes) - 1
    for i in xs:
        bits &= ctx.rows[i]
    assert intent_of(ctx, xs) == BitSet(bits, ctx.n_attributes)


@given(contexts_with_subset())
def test_derivation_galois(pair):
    ctx, xs = pair
    ys = intent_of(ctx, xs)
    assert xs.issubset(extent_of(ctx, ys))
    assert intent_of(ctx, extent_of(ctx, ys)) == ys


@given(contexts_with_subset())
def test_box_diamond_complement(pair):
    ctx, xs = pair
    assert diamond_of(ctx, xs) == ~box_of(ctx, ~xs)


# ---------------------------------------------------------------------------
# blocks

def test_blocks_worked_example(t1):
    part = blocks(t1)
    assert part.n_f == 3
    assert part.extents == (0b001, 0b010, 0b100)
    assert part.rows == (0b01, 0b11, 0b10)
    assert (part.n_objects, part.n_attributes) == (3, 2)


def test_blocks_group_equal_rows_in_first_seen_order():
    ctx = FormalContext.from_table(
        ("g1", "g2", "g3", "g4"), ("a", "b"), ("X.", ".X", "X.", "X.")
    )
    part = blocks(ctx)
    assert part.n_f == 2
    assert part.extents[0] == ctx.object_set(["g1", "g3", "g4"]).bits
    assert part.extents[1] == ctx.object_set(["g2"]).bits
    assert part.rows == (0b01, 0b10)


@given(st.one_of(contexts(), contexts(max_objects=12, max_attributes=5, max_rows=3)))
@example(FormalContext((), ("m1", "m2"), ()))
@example(FormalContext(("g1", "g2", "g3"), (), (0, 0, 0)))
def test_blocks_partition_objects(ctx):
    part = blocks(ctx)
    assert (part.n_objects, part.n_attributes) == (ctx.n_objects, ctx.n_attributes)
    assert len(part.extents) == len(part.rows) == part.n_f
    seen = 0
    for extent in part.extents:
        assert extent
        assert not seen & extent
        seen |= extent
    assert seen == (1 << ctx.n_objects) - 1
    # distinct rows, in the order their first objects come
    assert list(part.rows) == list(dict.fromkeys(ctx.rows))
    for i, row in enumerate(ctx.rows):
        assert part.extents[part.rows.index(row)] >> i & 1
    assert part.n_f <= min(ctx.n_objects, 1 << ctx.n_attributes)


@given(st.one_of(contexts(max_objects=9, max_attributes=5), contexts(max_objects=12, max_rows=3)))
@example(FormalContext((), ("m1", "m2"), ()))
@example(FormalContext(("g1", "g2", "g3"), (), (0, 0, 0)))
@example(FormalContext(("g1", "g2"), ("m1", "m2"), (0b10, 0b10)))
@example(
    FormalContext.from_table(
        [f"g{i}" for i in range(8)],
        ["a", "b", "c"],
        ["XX.", "X.X", ".XX", "...", "XXX", "X..", "XX.", "..."],
    )
)
@example(random_context(12, 20, 4, 0.5))  # 15 blocks
def test_walk_gives_the_union_and_row_table_of_every_block_set(ctx):
    # no objects (n_F 0), no attributes and one block, duplicate rows, and
    # n_F on both sides of the walk's low table
    part = blocks(ctx)
    want = [(part.union(ks), part.row_table(ks)) for ks in range(1 << part.n_f)]
    assert list(part.walk()) == want


def test_blocks_builds_no_bitset(monkeypatch):
    # the partition is two int tuples: no record or BitSet per block
    ctx = random_context(1, 5000, 20, 0.5)

    def refuse(*args):
        raise AssertionError("blocks() built a BitSet")

    monkeypatch.setattr("gcl.context.BitSet", refuse)
    part = blocks.__wrapped__(ctx)  # past the cache, so it partitions here
    assert part.n_f == len(set(ctx.rows))
