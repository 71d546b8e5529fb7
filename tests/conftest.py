import pytest

from gcl import FormalContext

T1_ROWS = ("X.", "XX", ".X")


@pytest.fixture
def t1() -> FormalContext:
    """Three objects over {a, b} with rows 10 / 11 / 01."""
    return FormalContext.from_table(("g1", "g2", "g3"), ("a", "b"), T1_ROWS)


@pytest.fixture
def thirteen_blocks_path(tmp_path):
    """A cxt of 13 objects with distinct rows over 4 attributes: 13 blocks,
    past the inspect limit of reduced bounds."""
    rows = "".join(f"{k:04b}\n".replace("0", ".").replace("1", "X") for k in range(13))
    names = "".join(f"g{k + 1}\n" for k in range(13))
    path = tmp_path / "c13.cxt"
    path.write_text(f"B\n\n13\n4\n\n{names}a\nb\nc\nd\n{rows}")
    return path
