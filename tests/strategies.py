"""Hypothesis strategies for random contexts, shared by the test modules."""

from hypothesis import strategies as st

from gcl import BitSet, FormalContext


@st.composite
def contexts(draw, max_objects: int = 6, max_attributes: int = 4):
    n = draw(st.integers(0, max_objects))
    m = draw(st.integers(0, max_attributes))
    rows = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=n, max_size=n))
    return FormalContext(
        tuple(f"g{i + 1}" for i in range(n)),
        tuple(f"m{j + 1}" for j in range(m)),
        tuple(rows),
    )


@st.composite
def contexts_with_subset(draw, **kwargs):
    ctx = draw(contexts(**kwargs))
    bits = draw(st.integers(0, (1 << ctx.n_objects) - 1))
    return ctx, BitSet(bits, ctx.n_objects)
