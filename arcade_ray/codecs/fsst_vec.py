"""Vectorized FSST encoder.

Same symbol-table semantics as fsst.py (greedy longest match, escape
byte 255) but the greedy walk is vectorized: the stream is cut into
independent blocks of ``BLOCK`` bytes, and ONE cursor per block
advances in lock-step numpy iterations (cursor count = #blocks, not
#bytes). A symbol never spans a block boundary — a negligible
compression loss (a couple of bytes per block) that makes the walk
data-parallel. Decode is unchanged: the emitted stream is a valid
FSST stream.

Per segment the 8-byte big-endian windows are materialized ONCE as a
contiguous uint64 array (one unaligned strided read + byteswap — two
memory passes), so each lock-step iteration does ONE gather at the
live cursors instead of eight; the 2/1-byte LUT probes shift the same
words. Segments are BLOCK-aligned (blocks are independent, so
per-segment processing is byte-identical to whole-stream) and bound
the window buffer at 8 x SEG bytes regardless of stream size.

Matching stays LAZY — computed only at the cursor positions each
iteration, never per byte: the greedy walk skips ~symbol length bytes
per step, so a full-stream match table does ~5x the necessary work
(measured; the round-2 known gap). All length>=3 symbols resolve in
ONE searchsorted over their sorted 3-byte prefixes (every long symbol
that prefixes a window shares its top 3 bytes), then a flat
candidate-expansion compare picks the longest member per cursor —
replacing the per-length tier loop (5-6 binary searches per
iteration; the round-3 known gap). Lengths 2/1 resolve through direct
65536/256-entry LUT gathers. The end-of-stream length guard is
evaluated only when a live cursor is within 8 bytes of the end.

BLOCK is small (512) on purpose: the walk runs one numpy iteration
per emitted unit of the LONGEST block (worst case BLOCK iterations);
a small block keeps the iteration count low while widening the
(cheap) per-iteration cursor vectors.
"""

from __future__ import annotations

import numpy as np

from ..constants import FSST_ESCAPE

BLOCK = 512
SEG = BLOCK * 16384  # 8 MB segments -> 64 MB window buffer, bounded
_HASH_MULS = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F,
                       0xFF51AFD7ED558CCD, 0x2545F4914F6CDD1D],
                      dtype=np.uint64)


class _Matcher:
    """Greedy longest-match lookup vectorized over cursor positions."""

    def __init__(self, symbols: list[bytes]):
        k = len(symbols)
        lens = np.fromiter(map(len, symbols), dtype=np.int64, count=k)
        # symbols left-aligned in big-endian words: the top byte is the
        # first symbol byte, as in the 8-byte windows they match against
        left = np.frombuffer(b"".join(s.ljust(8, b"\0") for s in symbols),
                             dtype=">u8").astype(np.uint64)
        codes = np.arange(k, dtype=np.int64)
        self.lut1 = np.full(256, -1, dtype=np.int16)
        self.lut2 = np.full(65536, -1, dtype=np.int16)
        one, two = lens == 1, lens == 2
        self.lut1[(left[one] >> np.uint64(56)).astype(np.int64)] = codes[one]
        at2 = (left[two] >> np.uint64(48)).astype(np.int64)
        self.lut2[at2] = codes[two]
        self.has2 = bool(len(at2))
        # fused short-code table over the FIRST TWO bytes (the real
        # FSST's shortCodes idea): one gather yields the best <=2-byte
        # match (code -1 never escapes the matcher: a zero length
        # routes the cursor to the escape path)
        self.s_code = np.repeat(self.lut1, 256)
        self.s_len = (self.s_code >= 0).astype(np.int8)
        self.s_code[at2] = codes[two]
        self.s_len[at2] = 2
        long_ = np.flatnonzero(lens >= 3)
        if not len(long_):
            self.p3 = None
            return
        # length>=3 symbols grouped by their 3-byte prefix, groups in
        # prefix order, longest first within a group -> the first
        # candidate hit per cursor IS the greedy longest match
        prefix = left[long_] >> np.uint64(40)
        order = long_[np.lexsort((long_, -lens[long_], prefix))]
        self.p3, counts = np.unique(prefix, return_counts=True)
        self.g_off = np.zeros(len(self.p3) + 1, dtype=np.int64)
        np.cumsum(counts, out=self.g_off[1:])
        self.m_len = lens[order]
        self.m_shift = (8 * (8 - self.m_len)).astype(np.uint64)
        self.m_cmp = left[order] >> self.m_shift
        self.m_code = order.astype(np.uint8)
        # has_long marks the 2-byte prefixes owning any longer symbol,
        # so only that cursor subset enters the group search
        self.has_long = np.zeros(65536, dtype=bool)
        self.has_long[(self.p3 >> np.uint64(8)).astype(np.int64)] = True
        # collision-free multiplicative hash over the (<=253) 3-byte
        # prefixes: H(v3) = (v3 * K) >> (64 - bits). Equality against
        # p3 is re-checked at lookup anyway, so the hash only needs to
        # be collision-free among the table's OWN keys — a few K tries
        # over growing table sizes always lands (256 keys in <= 2^16
        # slots). Turns the per-iteration searchsorted (7 binary-search
        # passes) into one multiply + shift + gather. Every (bits, K)
        # pair is tried in one batch; the first collision-free one in
        # (bits, K) order wins.
        self.h_bits = None
        n_keys = len(self.p3)
        bits = np.arange(max(8, int(np.ceil(np.log2(n_keys))) + 2), 17)
        if not len(bits):  # pragma: no cover - at most 253 keys
            return
        shifts = (64 - bits).astype(np.uint64)
        prod = self.p3[None, :] * _HASH_MULS[:, None]
        h = np.sort(prod[None, :, :] >> shifts[:, None, None], axis=2)
        clean = ~(h[:, :, 1:] == h[:, :, :-1]).any(axis=2)
        if not clean.any():  # pragma: no cover - hash always lands
            return
        b_i, m_i = divmod(int(np.argmax(clean.ravel())), len(_HASH_MULS))
        nbits = int(bits[b_i])
        self.h_bits = shifts[b_i]
        self.h_mul = _HASH_MULS[m_i]
        h = ((self.p3 * self.h_mul) >> self.h_bits).astype(np.int64)
        self.h_slot = np.zeros(1 << nbits, dtype=np.int64)
        # sentinel > any 24-bit prefix: empty slots never match
        # (v3 == 0 is a legal prefix of zero bytes)
        self.h_key = np.full(1 << nbits, 1 << 63, dtype=np.uint64)
        self.h_slot[h] = np.arange(n_keys, dtype=np.int64)
        self.h_key[h] = self.p3

    def match(self, v8: np.ndarray, c_glob: np.ndarray, n: int,
              guard: bool):
        """Longest match for the 8-byte windows ``v8`` (gathered at
        the live cursors) ignoring block bounds (callers clamp).
        ``guard`` is True only when some cursor sits within 8 bytes of
        the stream end — then matches running past ``n`` are rejected
        (shorter lengths still try) via the slow path:
        -> (match_len int64, match_code uint8)."""
        if guard:
            return self._match_guarded(v8, c_glob, n)
        w2 = (v8 >> np.uint64(48)).astype(np.int64)
        ml = self.s_len[w2].astype(np.int64)
        # a -1 code only ever pairs with length 0 -> the escape path
        # overwrites it; uint8 wrap is harmless
        mc = self.s_code[w2].astype(np.uint8)
        if self.p3 is not None:
            li = np.flatnonzero(self.has_long[w2])
            if len(li):
                sel_rows, sel = self._long_match(v8[li])
                if len(sel):
                    rows = li[sel_rows]
                    ml[rows] = self.m_len[sel]
                    mc[rows] = self.m_code[sel]
        return ml, mc

    def _long_match(self, v8: np.ndarray):
        """Greedy longest length>=3 match over windows already known
        to share a 2-byte prefix with some long symbol. One
        searchsorted over the sorted 3-byte prefixes, then a flat
        candidate expansion; members are ordered longest-first so the
        first hit per cursor is the greedy winner.
        -> (row indices into v8, member indices)."""
        v3 = v8 >> np.uint64(40)
        if self.h_bits is not None:
            h = ((v3 * self.h_mul) >> self.h_bits).astype(np.int64)
            ing = np.flatnonzero(self.h_key[h] == v3)
            idx = self.h_slot[h]
        else:  # pragma: no cover - hash construction always lands
            idx = np.minimum(np.searchsorted(self.p3, v3),
                             len(self.p3) - 1)
            ing = np.flatnonzero(self.p3[idx] == v3)
        if not len(ing):
            return ing, ing
        off = self.g_off[idx[ing]]
        cnt = self.g_off[idx[ing] + 1] - off
        total = int(cnt.sum())
        rep = np.repeat(np.arange(len(ing), dtype=np.int64), cnt)
        compact = np.concatenate(
            [[0], np.cumsum(cnt[:-1])]).astype(np.int64)
        mi = (np.arange(total, dtype=np.int64)
              - np.repeat(compact, cnt) + np.repeat(off, cnt))
        hit = (v8[ing][rep] >> self.m_shift[mi]) == self.m_cmp[mi]
        hj = np.flatnonzero(hit)
        if not len(hj):
            return hj, hj
        cur = rep[hj]  # ascending; first hit = longest
        first = np.concatenate([[0], np.flatnonzero(np.diff(cur)) + 1])
        return ing[cur[first]], mi[hj[first]]

    def _match_guarded(self, v8: np.ndarray, c_glob: np.ndarray, n: int):
        """Stream-end variant: every candidate length is checked
        against the remaining bytes; shorter lengths still try when a
        longer match would run past ``n``."""
        m = len(v8)
        ml = np.zeros(m, dtype=np.int64)
        mc = np.zeros(m, dtype=np.uint8)
        if self.p3 is not None:
            v3 = v8 >> np.uint64(40)
            idx = np.minimum(np.searchsorted(self.p3, v3),
                             len(self.p3) - 1)
            ing = np.flatnonzero(self.p3[idx] == v3)
            if len(ing):
                off = self.g_off[idx[ing]]
                cnt = self.g_off[idx[ing] + 1] - off
                total = int(cnt.sum())
                rep = np.repeat(np.arange(len(ing), dtype=np.int64), cnt)
                compact = np.concatenate(
                    [[0], np.cumsum(cnt[:-1])]).astype(np.int64)
                mi = (np.arange(total, dtype=np.int64)
                      - np.repeat(compact, cnt) + np.repeat(off, cnt))
                hit = (v8[ing][rep] >> self.m_shift[mi]) == self.m_cmp[mi]
                hit &= c_glob[ing][rep] + self.m_len[mi] <= n
                hj = np.flatnonzero(hit)
                if len(hj):
                    cur = rep[hj]  # ascending; first hit = longest
                    first = np.concatenate(
                        [[0], np.flatnonzero(np.diff(cur)) + 1])
                    sel = mi[hj[first]]
                    rows = ing[cur[first]]
                    ml[rows] = self.m_len[sel]
                    mc[rows] = self.m_code[sel]
        if self.has2:
            un = np.flatnonzero(ml == 0)
            w2 = (v8[un] >> np.uint64(48)).astype(np.int64)
            got = self.lut2[w2]
            hit = (got >= 0) & (c_glob[un] + 2 <= n)
            pos = un[hit]
            ml[pos] = 2
            mc[pos] = got[hit].astype(np.uint8)
        un = np.flatnonzero(ml == 0)
        got = self.lut1[(v8[un] >> np.uint64(56)).astype(np.int64)]
        hit = got >= 0
        pos = un[hit]
        ml[pos] = 1
        mc[pos] = got[hit].astype(np.uint8)
        return ml, mc


def _window_words(arr: np.ndarray, s0: int, s1: int) -> np.ndarray:
    """Big-endian 8-byte windows for every position in [s0, s1),
    zero-padded past the stream end. Built from ALIGNED uint64 words
    (one SIMD byteswap) composed per phase: position i = 8q + r gets
    (A[q] << 8r) | (A[q+1] >> (64-8r)) — 8 sliced shift-or passes, no
    per-position gathers, no unaligned element walk (an unaligned
    strided byteswap measured 10x slower)."""
    seg_len = s1 - s0
    nq = seg_len // 8 + 3
    buf = np.zeros(nq * 8, dtype=np.uint8)
    avail = min(seg_len + 8, len(arr) - s0, nq * 8)
    buf[:avail] = arr[s0: s0 + avail]
    words = buf.view(np.uint64).byteswap()
    v8 = np.empty(seg_len, dtype=np.uint64)
    head = v8[0::8]
    head[:] = words[: len(head)]
    for r in range(1, 8):
        part = v8[r::8]
        cnt = len(part)
        sh = np.uint64(8 * r)
        rs = np.uint64(64 - 8 * r)
        part[:] = (words[:cnt] << sh) | (words[1: cnt + 1] >> rs)
    return v8


def encode_stream(data: bytes, symbols: list[bytes]) -> bytes:
    """Vectorized greedy encode (block-parallel cursors, lazy match).

    Emission is a direct scatter: each block owns a 2*BLOCK slice of a
    preallocated output area (worst case: every byte escapes to two),
    and each lock-step iteration writes the emitted code — plus the
    escaped literal, where applicable — straight at the block's output
    cursor. No per-iteration emit lists, no final lexsort: the old
    sort-assembled path spent ~60% of wall time re-ordering what the
    cursors already knew."""
    arr = np.frombuffer(data, dtype=np.uint8)
    n = len(arr)
    if n == 0:
        return b""
    matcher = _Matcher(symbols)
    if n >= 4096:  # C kernel wins once table build amortizes
        from .native import encode_native

        enc = encode_native(data, matcher)
        if enc is not None:
            return enc
    if n <= SEG:
        return _encode_segment(arr, 0, n, n, matcher)
    return b"".join(_encode_segment(arr, s0, min(s0 + SEG, n), n, matcher)
                    for s0 in range(0, n, SEG))


def _encode_segment(arr: np.ndarray, s0: int, s1: int, n: int,
                    matcher: _Matcher) -> bytes:
    v8_all = _window_words(arr, s0, s1)
    starts = np.arange(s0, s1, BLOCK, dtype=np.int64)
    ends = np.minimum(starts + BLOCK, s1)
    n_blocks = len(starts)

    out = np.empty(2 * BLOCK * n_blocks, dtype=np.uint8)
    obase = np.arange(n_blocks, dtype=np.int64) * (2 * BLOCK)
    olen = np.zeros(n_blocks, dtype=np.int64)

    # compacted per-alive-block state (filtered in place each round);
    # cursors stay ascending, so the end-guard is one tail check
    blk = np.arange(n_blocks, dtype=np.int64)
    c = starts.copy()
    e = ends.copy()
    o = obase.copy()
    while len(c):
        guard = bool(c[-1] + 8 > n)
        ml, mc = matcher.match(v8_all[c - s0], c, n, guard)
        # clamp matches that would cross this block's end -> escape
        ml[c + ml > e] = 0
        esc = ml == 0
        code = mc.copy()
        code[esc] = FSST_ESCAPE
        out[o] = code
        ei = np.flatnonzero(esc)
        out[o[ei] + 1] = arr[c[ei]]
        c = c + ml + esc
        o = o + 1 + esc
        done = c >= e
        if done.any():
            di = np.flatnonzero(done)
            olen[blk[di]] = o[di] - obase[blk[di]]
            keep = np.flatnonzero(~done)
            blk, c, e, o = blk[keep], c[keep], e[keep], o[keep]

    # compact the per-block slices into one contiguous stream
    return out.reshape(n_blocks, 2 * BLOCK)[
        np.arange(2 * BLOCK) < olen[:, None]].tobytes()
