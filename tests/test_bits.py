import pytest
from hypothesis import given, settings, strategies as st

from recordkit.bits import Bits, pack, transpose, unpack


def test_pack_and_index():
    b = Bits.from_iterable([1, 0, 1, 1])
    assert b.value == 0b1101
    assert len(b) == 4
    assert [b[i] for i in range(4)] == [1, 0, 1, 1]
    assert list(b) == [1, 0, 1, 1]
    assert b.to01() == "1011"


def test_from_str_roundtrip():
    b = Bits.from_str("0110")
    assert b.to01() == "0110"


def test_ops():
    a = Bits.from_str("1100")
    b = Bits.from_str("1010")
    assert (a ^ b).to01() == "0110"
    assert (a & b).to01() == "1000"
    assert (a | b).to01() == "1110"
    assert (~a).to01() == "0011"
    assert a.count() == 2
    assert a.fraction() == 0.5


def test_accuracy():
    a = Bits.from_str("1111")
    assert a.accuracy(Bits.from_str("1111")) == 1.0
    assert a.accuracy(Bits.from_str("0000")) == 0.0
    assert a.accuracy(Bits.from_str("1100")) == 0.5


def test_length_mismatch():
    with pytest.raises(ValueError):
        Bits.from_str("11") ^ Bits.from_str("111")


def test_bad_bits():
    with pytest.raises(ValueError):
        Bits.from_iterable([0, 2])
    with pytest.raises(ValueError):
        Bits(4, 2)  # value wider than declared
    with pytest.raises(ValueError):
        Bits(0, -1)


def test_zeros_ones():
    assert Bits.zeros(5).count() == 0
    assert Bits.ones(5).count() == 5
    assert Bits.ones(0).n == 0


# Test-only references: one shift per bit, the obvious way.

def _naive_pack(bits):
    value = 0
    for i, b in enumerate(bits):
        value |= b << i
    return value


def _naive_unpack(value, n):
    return [(value >> i) & 1 for i in range(n)]


def _naive_transpose(stream, count, width):
    cols = [0] * width
    for c in range(count):
        for i in range(width):
            cols[i] |= ((stream >> (c * width + i)) & 1) << c
    return tuple(cols)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 1), max_size=200))
def test_pack_unpack_match_shift_loops(bits):
    value = pack(bits)
    assert value == _naive_pack(bits)
    assert unpack(value, len(bits)) == bits == _naive_unpack(value, len(bits))
    assert Bits.from_iterable(bits) == Bits(value, len(bits))
    assert list(Bits(value, len(bits))) == bits


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 200), st.integers(0, 12), st.data())
def test_transpose_matches_shift_loop(count, width, data):
    stream = data.draw(st.integers(0, (1 << (count * width)) - 1))
    cols = transpose(stream, count, width)
    assert cols == _naive_transpose(stream, count, width)
    assert all(0 <= c < 1 << count for c in cols)


def test_unpack_reads_only_the_low_bits():
    assert unpack(0b1011, 2) == [1, 1]
    assert unpack(0, 0) == [] and unpack(5, 0) == []
    assert pack([]) == 0


@pytest.mark.parametrize("bits, bad", [([0, 2], "2"), ([1, "1"], "'1'"),
                                       ([0, None], "None")])
def test_pack_names_the_bad_element(bits, bad):
    with pytest.raises(ValueError, match="bit sequence contains %s" % bad):
        pack(bits)
