"""FSST — Fast Static Symbol Table string compression, from scratch.

Implements the published algorithm's core (Boncz, Neumann, Leis:
"FSST: Fast Random Access String Compression", VLDB 2020; see
PAPERS.md): a static table of up to 255 symbols of 1..8 bytes, built by
a few generations of greedy gain maximization over a sample
(gain = frequency x symbol length), plus an escape code (255) for bytes
not covered. Correctness target is byte-exact round-trip, not matching
the canonical FSST bitstream (SURVEY.md §7.3 item 1).

The reference engine has no FSST — its string palette is
dict/plain/snappy (src/writer.cpp:63-187); FSST is part of the widened
palette mandated by BASELINE.json:north_star.

Table training is vectorised numpy: each generation re-encodes the
sample, tallies unit and adjacent-pair gains with two bincounts over
integer keys (a string of <= 8 bytes is a uint64 plus a length) and
keeps the 255 best. Streams are encoded by the native C kernel (true
greedy, codecs/native.py) or, without a compiler, by the block-parallel
numpy walk (fsst_vec.py); ``compress_scalar``'s per-byte greedy loop is
the reference both are checked against. The cost model encodes a full
stream only when FSST wins on estimated bytes.
"""

from __future__ import annotations

import numpy as np

from ..constants import (
    FSST_ESCAPE,
    FSST_GENERATIONS,
    FSST_MAX_SYMBOL_LEN,
    FSST_MAX_SYMBOLS,
    FSST_SAMPLE_BYTES,
)


def _encode_with(table: dict[bytes, int], maxlen_by_first: bytes, data: bytes) -> bytearray:
    """Greedy longest-match encode of ``data`` with ``table``."""
    out = bytearray()
    pos, n = 0, len(data)
    append = out.append
    while pos < n:
        first = data[pos]
        best_len = min(maxlen_by_first[first], n - pos)
        code = None
        while best_len > 0:
            code = table.get(data[pos : pos + best_len])
            if code is not None:
                break
            best_len -= 1
        if code is None:
            append(FSST_ESCAPE)
            append(first)
            pos += 1
        else:
            append(code)
            pos += best_len
    return out


def _maxlen_table(symbols: list[bytes]) -> bytes:
    m = bytearray(256)
    for s in symbols:
        if len(s) > m[s[0]]:
            m[s[0]] = len(s)
    return bytes(m)


def _parse_codes(encoded: bytes):
    """Vectorized parse of an FSST stream into its unit sequence:
    int16 codes where symbol c -> c and an escaped literal b -> 256+b.

    The escape-swallow recurrence (a 255 consumes the NEXT byte) is
    resolved without a walk: a position is swallowed iff the count of
    contiguous 255 bytes immediately before it is ODD (the run head is
    always a unit start — its predecessor is not 255 — and escapes
    alternate escape/literal from there)."""
    s = np.frombuffer(encoded, dtype=np.uint8)
    n = len(s)
    idx = np.arange(n, dtype=np.int64)
    last_non = np.where(s != FSST_ESCAPE, idx, np.int64(-1))
    np.maximum.accumulate(last_non, out=last_non)
    prev_non = np.empty(n, dtype=np.int64)
    prev_non[0] = -1
    prev_non[1:] = last_non[:-1]
    start = ((idx - prev_non - 1) & 1) == 0
    pos = np.flatnonzero(start)
    codes = s[pos].astype(np.int16)
    esc = codes == FSST_ESCAPE
    # a trailing escape with no literal byte cannot occur in a valid
    # stream; guard the gather anyway
    lit_pos = np.minimum(pos[esc] + 1, n - 1)
    codes[esc] = 256 + s[lit_pos].astype(np.int16)
    return codes


def _unit_words(symbols: list[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """Every unit of an encoded stream as (big-endian value, length):
    code c < 256 is symbols[c], code 256 + b the escaped byte b. A
    string of <= 8 bytes is identified by its value AND its length
    (b"a" and b"\\0a" share the value 0x61)."""
    val = np.empty(512, dtype=np.uint64)
    val[256:] = np.arange(256, dtype=np.uint64)
    ln = np.ones(512, dtype=np.int64)
    k = len(symbols)
    if k:
        ln[:k] = np.fromiter(map(len, symbols), dtype=np.int64, count=k)
        val[:k] = np.frombuffer(
            b"".join(s.rjust(8, b"\0") for s in symbols), dtype=">u8")
    return val, ln


def _tally_gains(encoded: bytes, symbols: list[bytes]):
    """gain(sym) = occurrences x len over the encoded sample, plus the
    same for every adjacent-unit concatenation <= FSST_MAX_SYMBOL_LEN:
    one bincount for units, one over packed pair keys for pairs.
    -> (value, length, gain, first) per distinct candidate string,
    where ``first`` ranks its first appearance in the tally order
    (units by code, then pairs by (left, right) code)."""
    codes = _parse_codes(encoded)
    uval, ulen = _unit_words(symbols)
    cnt = np.bincount(codes, minlength=512)
    units = np.flatnonzero(cnt)
    vals, lens, counts = [uval[units]], [ulen[units]], [cnt[units]]
    if len(codes) > 1:
        ln = ulen[codes]
        ok = (ln[:-1] + ln[1:]) <= FSST_MAX_SYMBOL_LEN
        # pair keys over the codes present, renumbered densely in code
        # order (keys keep their (left, right) order in fewer bins)
        m = len(units)
        dense = np.zeros(512, dtype=np.int64)
        dense[units] = np.arange(m)
        d = dense[codes]
        pcnt = np.bincount((d[:-1] * m + d[1:])[ok], minlength=0)
        keys = np.flatnonzero(pcnt)
        left, right = units[keys // m], units[keys % m]
        shift = (8 * ulen[right]).astype(np.uint64)
        vals.append((uval[left] << shift) | uval[right])
        lens.append(ulen[left] + ulen[right])
        counts.append(pcnt[keys])
    val, ln = np.concatenate(vals), np.concatenate(lens)
    gain = np.concatenate(counts) * ln
    # one candidate per distinct string (two splits of one string, or
    # a pair spelling a unit, add up); a stable sort keeps each
    # group's first appearance at its head
    order = np.lexsort((val, ln))
    val, ln = val[order], ln[order]
    head = np.ones(len(order), dtype=bool)
    head[1:] = (val[1:] != val[:-1]) | (ln[1:] != ln[:-1])
    starts = np.flatnonzero(head)
    return (val[starts], ln[starts], np.add.reduceat(gain[order], starts),
            order[starts])


def _top_symbols(val: np.ndarray, ln: np.ndarray, gain: np.ndarray,
                 first: np.ndarray) -> list[bytes]:
    """The FSST_MAX_SYMBOLS best candidates: gain descending, ties by
    first appearance (collections.Counter.most_common's order)."""
    top = np.lexsort((first, -gain))[:FSST_MAX_SYMBOLS]
    return [int(v).to_bytes(int(n), "big") for v, n in zip(val[top], ln[top])]


def build_symbol_table(sample: bytes) -> list[bytes]:
    """Iterative greedy construction: start from the most frequent
    single bytes, then repeatedly re-encode the sample and promote the
    highest-gain symbols and concatenations of adjacent symbols."""
    sample = sample[:FSST_SAMPLE_BYTES]
    if not sample:
        return []
    from .fsst_vec import encode_stream

    byte, first, count = np.unique(np.frombuffer(sample, dtype=np.uint8),
                                   return_index=True, return_counts=True)
    symbols = _top_symbols(byte.astype(np.uint64), np.ones_like(first),
                           count, first)
    for _ in range(FSST_GENERATIONS):
        encoded = encode_stream(sample, symbols)
        symbols = _top_symbols(*_tally_gains(encoded, symbols))
    return symbols


def serialize_table(symbols: list[bytes]) -> bytes:
    parts = [bytes([len(symbols)])]
    for s in symbols:
        parts.append(bytes([len(s)]))
        parts.append(s)
    return b"".join(parts)


def deserialize_table(blob: bytes) -> tuple[list[bytes], int]:
    count = blob[0]
    symbols, pos = [], 1
    for _ in range(count):
        ln = blob[pos]
        symbols.append(blob[pos + 1 : pos + 1 + ln])
        pos += 1 + ln
    return symbols, pos


def compress(data: bytes, symbols: list[bytes] | None = None) -> tuple[bytes, bytes]:
    """-> (serialized symbol table, compressed stream). The encode is
    the vectorized block-parallel greedy walk (fsst_vec.py)."""
    from .fsst_vec import encode_stream

    if symbols is None:
        symbols = build_symbol_table(data)
    return serialize_table(symbols), encode_stream(data, symbols)


def compress_scalar(data: bytes, symbols: list[bytes] | None = None) -> tuple[bytes, bytes]:
    """Reference per-byte encoder (used to cross-check fsst_vec)."""
    if symbols is None:
        symbols = build_symbol_table(data)
    table = {s: i for i, s in enumerate(symbols)}
    maxlen = _maxlen_table(symbols)
    return serialize_table(symbols), bytes(_encode_with(table, maxlen, data))


def decompress(table_blob: bytes, stream: bytes) -> bytes:
    symbols, _ = deserialize_table(table_blob)
    if len(stream) >= 4096:
        from .native import decode_native

        dec = decode_native(stream, symbols)
        if dec is not None:
            return dec
    out = []
    i, n = 0, len(stream)
    while i < n:
        c = stream[i]
        if c == FSST_ESCAPE:
            out.append(stream[i + 1 : i + 2])
            i += 2
        else:
            out.append(symbols[c])
            i += 1
    return b"".join(out)


def estimate_plan(data: bytes) -> tuple[float, int, list[bytes], bytes | None]:
    """Sample-compress -> (ratio, table bytes, symbol table, stream).
    The table is built ONCE here and reusable for the full encode (the
    sample IS the table-build input, so rebuilding yields the same
    table). When the sample is all of ``data``, ``stream`` is its
    finished encoding, else None."""
    sample = data[:FSST_SAMPLE_BYTES]
    if not sample:
        return 1.0, 1, [], None
    symbols = build_symbol_table(sample)
    tbl, enc = compress(sample, symbols)
    stream = enc if len(sample) == len(data) else None
    return len(enc) / len(sample), len(tbl), symbols, stream
