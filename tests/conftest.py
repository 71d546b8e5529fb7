import pytest

from gcl import FormalContext

T1_ROWS = ("X.", "XX", ".X")


@pytest.fixture
def t1() -> FormalContext:
    """Three objects over {a, b} with rows 10 / 11 / 01."""
    return FormalContext.from_table(("g1", "g2", "g3"), ("a", "b"), T1_ROWS)
