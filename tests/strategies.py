"""Hypothesis strategies for random contexts, shared by the test modules."""

from hypothesis import strategies as st

from gcl import BitSet, FormalContext


@st.composite
def contexts(
    draw,
    max_objects: int = 6,
    max_attributes: int = 4,
    min_objects: int = 0,
    min_attributes: int = 0,
    max_rows: int | None = None,
):
    """Contexts of random rows; with max_rows, the rows are drawn from a
    pool of at most that many, so most objects repeat a row."""
    n = draw(st.integers(min_objects, max_objects))
    m = draw(st.integers(min_attributes, max_attributes))
    row = st.integers(0, (1 << m) - 1)
    if max_rows is not None:
        row = st.sampled_from(draw(st.lists(row, min_size=1, max_size=max_rows)))
    rows = draw(st.lists(row, min_size=n, max_size=n))
    return FormalContext(
        tuple(f"g{i + 1}" for i in range(n)),
        tuple(f"m{j + 1}" for j in range(m)),
        tuple(rows),
    )


@st.composite
def wide_contexts(draw, min_blocks: int = 63, max_blocks: int = 200):
    """Contexts of min_blocks to max_blocks distinct rows over 8 to 10
    attributes, some rows repeated, in shuffled order."""
    m = draw(st.integers(8, 10))
    distinct = draw(
        st.lists(
            st.integers(0, (1 << m) - 1), min_size=min_blocks, max_size=max_blocks, unique=True
        )
    )
    repeated = draw(st.lists(st.sampled_from(distinct), max_size=20))
    rows = draw(st.permutations(distinct + repeated))
    return FormalContext(
        tuple(f"g{i + 1}" for i in range(len(rows))),
        tuple(f"m{j + 1}" for j in range(m)),
        tuple(rows),
    )


@st.composite
def contexts_with_subset(draw, **kwargs):
    ctx = draw(contexts(**kwargs))
    bits = draw(st.integers(0, (1 << ctx.n_objects) - 1))
    return ctx, BitSet(bits, ctx.n_objects)


# names a spreadsheet or another tool may well produce: separators, quotes,
# blanks at either end, backslashes, non-ASCII letters and a stray byte
# order mark; only line breaks are left out, since a context refuses them
HOSTILE_NAMES = st.one_of(
    st.sampled_from(
        ["a,b", '"q"', "a\\b", "'", " lead", "trail ", " ", ";", "\t", "é", "漢字", "🙂", "\ufeffx", "X", "."]
    ),
    st.text(st.characters(blacklist_characters="\r\n", blacklist_categories=("Cs",)), min_size=1),
)


@st.composite
def hostile_contexts(draw):
    names = draw(st.lists(HOSTILE_NAMES, unique=True, max_size=9))
    m = draw(st.integers(0, min(4, len(names))))
    attributes, objects = names[:m], names[m:]
    rows = draw(
        st.lists(st.integers(0, (1 << m) - 1), min_size=len(objects), max_size=len(objects))
    )
    return FormalContext(tuple(objects), tuple(attributes), tuple(rows))
