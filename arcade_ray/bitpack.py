"""Bit-packing core: pack non-negative integers into ``width``-bit
little-endian codes.

This is the engine's replacement for the reference's byte-aligned
1/2/4-byte dictionary codes (src/writer.cpp:198-252): at equal
dictionary content a ``width``-bit code buffer is strictly <= the
reference's byte-aligned buffer, which underwrites the
"<= reference compressed size" criterion (SURVEY.md §7.3 item 2).

Packing is numpy. The decode side (unpack, unpack fused with a
frame-of-reference add or a dictionary gather, run expansion, and the
equality compare on packed codes) runs in the C kernels of
codecs/native.py when they are available, and in numpy otherwise; the
two give identical results. Unit-testable without Ray.
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
_MASK = (1 << 64) - 1
# widths whose codes are whole machine integers, as pack_bits writes them
_ALIGNED = {8: np.dtype(np.uint8), 16: np.dtype(np.uint16),
            32: np.dtype(np.uint32), 64: np.dtype(np.uint64)}


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


def _check_payload(data, width: int, count: int) -> None:
    if width < 0 or width > 64:
        raise ValueError(f"width out of range: {width}")
    need = packed_nbytes(count, width)
    if len(data) < need:
        raise ValueError(
            f"truncated bit-packed payload: {count} values of {width} bits "
            f"need {need} bytes, got {len(data)}")


def _native():
    from .codecs.native import get_lib

    return get_lib() is not None


def as_dtype(u: np.ndarray, dtype) -> np.ndarray:
    """Integer values -> ``dtype``. 64-bit input converts by two's
    complement truncation, as the native kernels write: a view for
    8-byte types, else an int64 -> ``dtype`` astype. Narrower input
    widens with its sign."""
    dtype = np.dtype(dtype)
    if u.dtype == dtype:
        return u
    if u.itemsize != 8:
        return u.astype(dtype)
    if dtype.itemsize == 8:
        return u.view(dtype)
    return u.view(np.int64).astype(dtype)


def unpack_bits(data, width: int, count: int, ref: int = 0,
                dtype=np.uint64) -> np.ndarray:
    """Inverse of :func:`pack_bits`: ``count`` values, each plus ``ref``
    (mod 2**64, the frame-of-reference add), as ``dtype`` (narrower
    types keep the low bytes). ``data`` is any bytes-like object; a
    payload shorter than ``count`` values raises ValueError."""
    _check_payload(data, width, count)
    if width in _ALIGNED and not ref & _MASK:
        # byte-aligned codes: one numpy cast is the unpack, and its
        # vectorised loop beats the kernel's bit extraction
        return np.frombuffer(data, dtype=_ALIGNED[width],
                             count=count).astype(dtype)
    if width and _native():
        from .codecs.native import unpack_native

        return unpack_native(data, width, count, ref & _MASK,
                             np.dtype(dtype))
    u = _unpack_numpy(data, width, count)
    if ref & _MASK:
        u += np.uint64(ref & _MASK)
    return as_dtype(u, dtype)


def _unpack_numpy(data, width: int, count: int) -> np.ndarray:
    if width == 0:
        return np.zeros(count, dtype=np.uint64)
    if width in _ALIGNED:
        return np.frombuffer(data, dtype=_ALIGNED[width],
                             count=count).astype(np.uint64)
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


def unpack_gather(data, width: int, count: int,
                  table: np.ndarray) -> np.ndarray:
    """``table[code]`` for each of ``count`` width-bit codes, in
    ``table``'s dtype, without materializing the codes when the native
    kernel is available. A code past the table raises IndexError."""
    _check_payload(data, width, count)
    if width == 0:
        if count and not len(table):
            raise IndexError("dictionary code 0 is out of range for 0 entries")
        return np.full(count, table[0] if count else 0, dtype=table.dtype)
    if _native():
        from .codecs.native import unpack_gather_native

        return unpack_gather_native(data, width, count, table)
    return table[_unpack_numpy(data, width, count).astype(np.int64)]


def match_packed(data, width: int, count: int, code: int) -> np.ndarray:
    """Ascending int64 positions of the width-bit codes equal to
    ``code``, compared on the packed stream (the native kernel never
    builds the code array)."""
    _check_payload(data, width, count)
    if code < 0 or code >> width:
        return np.empty(0, dtype=np.int64)
    if width and _native():
        from .codecs.native import match_eq_native

        return match_eq_native(data, width, count, code)
    return np.flatnonzero(_unpack_numpy(data, width, count) == np.uint64(code))


def run_lengths(lens_m1: np.ndarray, n: int) -> np.ndarray:
    """Stored RLE lengths (length - 1, uint64) -> int64 lengths; they
    must add up to exactly ``n`` rows."""
    lens_m1 = np.asarray(lens_m1, dtype=np.uint64)
    # max first: it bounds the sum, so the int64 total cannot wrap
    if (len(lens_m1) and int(lens_m1.max()) >= n) or \
            int(lens_m1.sum()) + len(lens_m1) != n:
        raise ValueError(f"RLE runs do not add up to {n} rows")
    return lens_m1.astype(np.int64) + 1


def expand_runs(vals: np.ndarray, lens_m1: np.ndarray, n: int) -> np.ndarray:
    """RLE expansion: ``vals[k]`` repeated ``lens_m1[k] + 1`` times, in
    ``vals``' dtype. The runs must add up to exactly ``n`` rows."""
    if _native():
        from .codecs.native import rle_expand_native

        return rle_expand_native(vals, lens_m1, n)
    return np.repeat(vals, run_lengths(lens_m1, n))


def packed_nbytes(count: int, width: int) -> int:
    return (count * width + 7) // 8
