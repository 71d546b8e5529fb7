import pytest

from gcl import BitSet


def test_constructors():
    assert BitSet.empty(4).bits == 0
    assert BitSet.full(4).bits == 0b1111
    assert BitSet.of([0, 2], 3).bits == 0b101
    assert BitSet.of([], 0).bits == 0


def test_bits_must_fit_width():
    with pytest.raises(ValueError):
        BitSet(0b100, 2)
    with pytest.raises(ValueError):
        BitSet(-1, 2)
    with pytest.raises(ValueError):
        BitSet.of([3], 3)
    for width in (0, 1, 5, 64):
        assert BitSet((1 << width) - 1, width).is_full()
        with pytest.raises(ValueError):
            BitSet(1 << width, width)
        with pytest.raises(ValueError):
            BitSet(-1, width)


def test_set_operations():
    a = BitSet.of([0, 1], 4)
    b = BitSet.of([1, 2], 4)
    assert (a & b) == BitSet.of([1], 4)
    assert (a | b) == BitSet.of([0, 1, 2], 4)
    assert ~a == BitSet.of([2, 3], 4)
    assert ~BitSet.empty(4) == BitSet.full(4)


def test_width_mismatch_rejected():
    with pytest.raises(ValueError):
        BitSet.empty(3) & BitSet.empty(4)


def test_membership_iteration_len():
    s = BitSet.of([0, 3], 5)
    assert 0 in s and 3 in s and 1 not in s
    assert 7 not in s
    assert list(s) == [0, 3]
    assert len(s) == 2
    assert bool(s)
    assert not BitSet.empty(5)


def test_subset_disjoint_full():
    a = BitSet.of([1], 3)
    b = BitSet.of([1, 2], 3)
    assert a.issubset(b)
    assert not b.issubset(a)
    assert a.isdisjoint(BitSet.of([0], 3))
    assert not a.isdisjoint(b)
    assert BitSet.full(3).is_full()
    assert BitSet.full(0).is_full()
    assert not BitSet.of([1], 3).is_full()
