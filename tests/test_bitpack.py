"""Bit-packing core round-trip properties (no Ray needed)."""

import numpy as np
import pytest

from arcade_ray.bitpack import bits_needed, pack_bits, packed_nbytes, unpack_bits


@pytest.mark.parametrize("width", [0, 1, 3, 7, 8, 9, 13, 16, 31, 32, 33, 63, 64])
@pytest.mark.parametrize("n", [0, 1, 5, 255, 256, 1000])
def test_pack_roundtrip(width, n):
    rng = np.random.default_rng(42 + width * 1000 + n)
    if width == 0:
        vals = np.zeros(n, dtype=np.uint64)
    elif width == 64:
        vals = rng.integers(0, 1 << 63, size=n, dtype=np.uint64) * 2 + rng.integers(0, 2, size=n, dtype=np.uint64)
    else:
        vals = rng.integers(0, 1 << width, size=n, dtype=np.uint64)
    data = pack_bits(vals, width)
    assert len(data) == packed_nbytes(n, width)
    out = unpack_bits(data, width, n)
    np.testing.assert_array_equal(out, vals)


def test_bits_needed():
    assert bits_needed(0) == 0
    assert bits_needed(1) == 1
    assert bits_needed(255) == 8
    assert bits_needed(256) == 9
    assert bits_needed(65535) == 16
    assert bits_needed(65536) == 17  # the reference's ==65536 bug zone (SURVEY.md §1.3)
    assert bits_needed(2**31 - 1) == 31


def test_overflow_rejected():
    with pytest.raises(ValueError):
        pack_bits(np.array([8], dtype=np.uint64), 3)


def test_chunk_boundary():
    # cross the internal _CHUNK boundary
    n = (1 << 18) + 17
    vals = (np.arange(n, dtype=np.uint64) * 2654435761) % (1 << 13)
    out = unpack_bits(pack_bits(vals, 13), 13, n)
    np.testing.assert_array_equal(out, vals)


@pytest.mark.parametrize("width", [1, 3, 8, 13, 16, 33, 64])
def test_truncated_payload_raises(kernel_mode, width):
    """A payload shorter than count values raises in every decode
    entry point, for byte-aligned and unaligned widths alike (it used
    to zero-fill the missing values for unaligned widths)."""
    from arcade_ray.bitpack import match_packed, unpack_gather

    vals = np.arange(100, dtype=np.uint64) % (1 << min(width, 7))
    data = pack_bits(vals, width)
    short = data[:10]
    with pytest.raises(ValueError, match="truncated"):
        unpack_bits(short, width, 100)
    with pytest.raises(ValueError, match="truncated"):
        unpack_bits(data[:-1], width, 100, ref=5, dtype=np.int32)
    with pytest.raises(ValueError, match="truncated"):
        match_packed(short, width, 100, 1)
    with pytest.raises(ValueError, match="truncated"):
        unpack_gather(short, width, 100, np.arange(128, dtype=np.int64))
    # exactly packed_nbytes is enough, and extra bytes are ignored
    np.testing.assert_array_equal(unpack_bits(data, width, 100), vals)
    np.testing.assert_array_equal(unpack_bits(data + b"\xff" * 9, width, 100),
                                  vals)

