"""Unit and property tests for the BitVector oracle of tests/oracles.py."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tests.oracles import BitVector, popcount


class TestPopcount:
    def test_zero(self):
        assert popcount(0) == 0

    def test_small_values(self):
        assert popcount(0b1011) == 3

    def test_large_value(self):
        assert popcount((1 << 200) - 1) == 200

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            popcount(-1)


class TestConstruction:
    def test_zeros_has_no_bits(self):
        vector = BitVector.zeros(16)
        assert vector.count() == 0
        assert vector.is_zero()
        assert not vector

    def test_ones_has_all_bits(self):
        vector = BitVector.ones(16)
        assert vector.count() == 16
        assert all(vector.get(i) for i in range(16))

    def test_ones_width_zero(self):
        assert BitVector.ones(0).count() == 0

    def test_from_indices(self):
        vector = BitVector.from_indices(8, [0, 3, 7])
        assert vector.count() == 3
        assert vector.get(0) and vector.get(3) and vector.get(7)
        assert not vector.get(1)

    def test_from_indices_out_of_range(self):
        with pytest.raises(ValueError):
            BitVector.from_indices(4, [4])

    def test_from_bool_array(self):
        flags = np.array([True, False, True, True])
        vector = BitVector.from_bool_array(flags)
        assert vector.width == 4
        assert list(vector.indices()) == [0, 2, 3]

    def test_from_bool_array_rejects_matrix(self):
        with pytest.raises(ValueError):
            BitVector.from_bool_array(np.zeros((2, 2), dtype=bool))

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            BitVector(-1)

    def test_bits_beyond_width_rejected(self):
        with pytest.raises(ValueError):
            BitVector(2, 0b100)


class TestOperations:
    def test_and(self):
        a = BitVector.from_indices(8, [0, 1, 2])
        b = BitVector.from_indices(8, [1, 2, 3])
        assert list((a & b).indices()) == [1, 2]

    def test_or(self):
        a = BitVector.from_indices(8, [0, 1])
        b = BitVector.from_indices(8, [3])
        assert list((a | b).indices()) == [0, 1, 3]

    def test_xor(self):
        a = BitVector.from_indices(8, [0, 1])
        b = BitVector.from_indices(8, [1, 2])
        assert list((a ^ b).indices()) == [0, 2]

    def test_width_mismatch_raises(self):
        with pytest.raises(ValueError):
            BitVector.zeros(4) & BitVector.zeros(8)

    def test_type_mismatch_raises(self):
        with pytest.raises(TypeError):
            BitVector.zeros(4) & 3  # type: ignore[operator]

    def test_with_bit(self):
        vector = BitVector.zeros(8).with_bit(5)
        assert vector.get(5)
        assert vector.count() == 1

    def test_with_bit_out_of_range(self):
        with pytest.raises(IndexError):
            BitVector.zeros(8).with_bit(8)

    def test_get_out_of_range(self):
        with pytest.raises(IndexError):
            BitVector.zeros(8).get(-1)

    def test_equality_and_hash(self):
        a = BitVector.from_indices(8, [1, 2])
        b = BitVector.from_indices(8, [1, 2])
        c = BitVector.from_indices(9, [1, 2])
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        assert a != "not a vector"

    def test_len_and_repr(self):
        vector = BitVector.from_indices(10, [0])
        assert len(vector) == 10
        assert "width=10" in repr(vector)

    def test_round_trip_bool_array(self):
        flags = np.array([True, False, False, True, True])
        assert np.array_equal(BitVector.from_bool_array(flags).to_bool_array(), flags)


@given(st.lists(st.booleans(), min_size=1, max_size=80), st.lists(st.booleans(), min_size=1, max_size=80))
def test_and_count_matches_numpy(flags_a, flags_b):
    """Popcount of AND equals numpy's count of elementwise AND (same width)."""
    width = min(len(flags_a), len(flags_b))
    a = np.array(flags_a[:width], dtype=bool)
    b = np.array(flags_b[:width], dtype=bool)
    vector = BitVector.from_bool_array(a) & BitVector.from_bool_array(b)
    assert vector.count() == int((a & b).sum())


@given(st.lists(st.booleans(), min_size=1, max_size=80))
def test_or_with_zero_is_identity(flags):
    arr = np.array(flags, dtype=bool)
    vector = BitVector.from_bool_array(arr)
    assert (vector | BitVector.zeros(vector.width)) == vector
    assert (vector & BitVector.ones(vector.width)) == vector


@given(st.lists(st.booleans(), min_size=1, max_size=80))
def test_count_equals_sum(flags):
    arr = np.array(flags, dtype=bool)
    assert BitVector.from_bool_array(arr).count() == int(arr.sum())
