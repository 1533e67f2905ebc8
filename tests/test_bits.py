import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from recordkit.bits import pack, transpose, unpack
from recordkit.rng import RngSpec, packed_bits


def test_pack_and_index():
    value = pack([1, 0, 1, 1])
    assert value == 0b1101
    assert unpack(value, 4) == bytes([1, 0, 1, 1])


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
    assert list(unpack(value, len(bits))) == bits \
        == _naive_unpack(value, len(bits))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 200), st.integers(0, 20), st.integers(0, 1 << 80),
       st.data())
def test_transpose_matches_shift_loop(count, width, high, data):
    """Stream bits at and above count*width (high) are ignored. Widths past
    8 read lanes beyond index 8 and counts off a multiple of 8 end on a
    partial 8-cycle block."""
    low = data.draw(st.integers(0, (1 << (count * width)) - 1))
    stream = low | high << (count * width)
    cols = transpose(stream, count, width)
    assert cols == _naive_transpose(stream, count, width)
    assert cols == transpose(low, count, width)
    assert len(cols) == width and all(0 <= c < 1 << count for c in cols)


@pytest.mark.parametrize("stream", [0, 1, 0b1011, (1 << 200) - 1])
@pytest.mark.parametrize("width", [0, 1, 3])
def test_transpose_of_zero_cycles_is_empty_columns(stream, width):
    assert transpose(stream, 0, width) == (0,) * width


@pytest.mark.parametrize("width", [1, 2, 8, 9])
def test_transpose_peak_memory_is_a_few_streams(width):
    """2x10^5 cycles: the tracemalloc peak stays within 6 times the
    stream's bytes (no per-bit text is built)."""
    count = 200000
    stream = packed_bits(RngSpec(3), count * width)
    tracemalloc.start()
    try:
        cols = transpose(stream, count, width)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cols) == width
    nbytes = (count * width + 7) // 8
    assert peak <= 6 * nbytes, (peak, nbytes)


def test_unpack_reads_only_the_low_bits():
    assert unpack(0b1011, 2) == bytes([1, 1])
    assert unpack(0, 0) == b"" and unpack(5, 0) == b""
    assert pack([]) == 0


@pytest.mark.parametrize("bits, bad", [([0, 2], "2"), ([1, "1"], "'1'"),
                                       ([0, None], "None")])
def test_pack_names_the_bad_element(bits, bad):
    with pytest.raises(ValueError, match="bit sequence contains %s" % bad):
        pack(bits)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 1), max_size=200),
       st.sampled_from([list, bytes, bytearray,
                        lambda b: tuple(map(bool, b)),
                        lambda b: (x for x in b)]))
def test_pack_takes_any_bit_iterable(bits, kind):
    assert pack(kind(bits)) == _naive_pack(bits)
    assert type(unpack(pack(bits), len(bits))) is bytes


@pytest.mark.parametrize("bits, bad", [([1, 0.0], "0.0"), ([1.0], "1.0"),
                                       ([0, 48], "48"), ([256], "256"),
                                       ([-1], "-1"), (b"\0\1\2", "2")])
def test_pack_rejects_every_non_bit(bits, bad):
    """Floats are not bits, and no byte other than 0 and 1 reads as one."""
    with pytest.raises(ValueError, match="bit sequence contains %s" % bad):
        pack(bits)
