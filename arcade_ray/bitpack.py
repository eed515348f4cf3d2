"""Bit-packing core: pack non-negative integers into ``width``-bit
little-endian codes.

This is the engine's replacement for the reference's byte-aligned
1/2/4-byte dictionary codes (src/writer.cpp:198-252): at equal
dictionary content a ``width``-bit code buffer is strictly <= the
reference's byte-aligned buffer, which underwrites the
"<= reference compressed size" criterion (SURVEY.md §7.3 item 2).

All functions are pure numpy — unit-testable without Ray.
"""

from __future__ import annotations

import math

import numpy as np

# Values per chunk, for the bit-matrix expansion of pack_bits (width 1
# and small streams) and of unpack_bits; a multiple of 8 so each chunk's
# packed bits end on a byte boundary and chunks concatenate.
_CHUNK = 1 << 18
# pack_bits packs a uint64 word at a time from this many payload bits
# up (below it the n x width bit matrix is cheaper: the word packer pays
# a fixed cost per lane), in chunks of _WORD_CHUNK values that stay in
# cache (a multiple of 64, so every chunk is whole words).
_WORD_MIN_BITS = 1 << 17
_WORD_CHUNK = 1 << 17


def bits_needed(max_value: int) -> int:
    """Bits required to represent values in [0, max_value]; 0 for max 0."""
    if max_value < 0:
        raise ValueError("bits_needed requires a non-negative max")
    return int(max_value).bit_length()


def pack_bits(values: np.ndarray, width: int) -> bytes:
    """Pack ``values`` (non-negative, < 2**width) into a little-endian
    bitstream of ``width`` bits per value. width == 0 → empty payload
    (a constant/zero run — the reference's broken "constant chunk"
    path src/process.cpp:472-478, implemented properly)."""
    if width < 0 or width > 64:
        raise ValueError(f"width out of range: {width}")
    if width == 0:
        return b""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    if width < 64 and len(v) and int(v.max()) >> width:
        raise ValueError("value does not fit in width")
    if width in (8, 16, 32, 64):
        # byte-aligned fast path: a narrowing cast IS the packing
        np_t = {8: np.uint8, 16: np.uint16, 32: np.uint32, 64: np.uint64}[width]
        return v.astype(np_t).tobytes()
    if width == 1 or len(v) * width < _WORD_MIN_BITS:
        shifts = np.arange(width, dtype=np.uint64)
        parts = []
        for s in range(0, len(v), _CHUNK):
            chunk = v[s : s + _CHUNK]
            bits = ((chunk[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)
            parts.append(np.packbits(bits, bitorder="little").tobytes())
        return b"".join(parts)
    return b"".join(_pack_words(v[s : s + _WORD_CHUNK], width)
                    for s in range(0, len(v), _WORD_CHUNK))


def _pack_words(v: np.ndarray, width: int) -> bytes:
    """Word-at-a-time packing. The layout repeats every ``lanes``
    values (``lanes * width`` bits = ``words`` whole uint64 words), so
    lane k of every period lands at the same word and shift: one
    shift-or over all periods per lane, plus one for the part that
    spills into the next word."""
    n = len(v)
    g = math.gcd(width, 64)
    lanes, words = 64 // g, width // g
    periods = -(-n // lanes)
    padded = np.zeros(periods * lanes, dtype=np.uint64)
    padded[:n] = v
    by_lane = np.ascontiguousarray(padded.reshape(periods, lanes).T)
    out = np.zeros((words + 1, periods), dtype=np.uint64)
    tmp = np.empty(periods, dtype=np.uint64)
    for k in range(lanes):
        j, s = divmod(k * width, 64)
        np.left_shift(by_lane[k], np.uint64(s), out=tmp)
        out[j] |= tmp
        if s + width > 64:
            np.right_shift(by_lane[k], np.uint64(64 - s), out=tmp)
            out[j + 1] |= tmp
    packed = np.ascontiguousarray(out[:words].T).astype("<u8", copy=False)
    return packed.tobytes()[: packed_nbytes(n, width)]


def unpack_bits(data: bytes, width: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`; returns uint64 array of ``count``."""
    if width == 0:
        return np.zeros(count, dtype=np.uint64)
    if width in (8, 16, 32, 64):
        np_t = {8: np.uint8, 16: np.uint16, 32: np.uint32, 64: np.uint64}[width]
        return np.frombuffer(data, dtype=np_t, count=count).astype(np.uint64)
    raw = np.frombuffer(data, dtype=np.uint8)
    out = np.empty(count, dtype=np.uint64)
    for s in range(0, count, _CHUNK):
        n = min(_CHUNK, count - s)
        byte_lo = s * width // 8
        byte_hi = (s + n) * width + 7 >> 3
        bits = np.unpackbits(
            raw[byte_lo:byte_hi], count=n * width, bitorder="little"
        ).reshape(n, width)
        acc = np.zeros(n, dtype=np.uint64)
        for j in range(width):
            acc |= bits[:, j].astype(np.uint64) << np.uint64(j)
        out[s : s + n] = acc
    return out


def packed_nbytes(count: int, width: int) -> int:
    return (count * width + 7) // 8
