"""Optional native (C) kernels for the sequential hot loops of encode
and decode.

Three kinds of loop are compiled here, because numpy cannot express
them without a large intermediate:

- FSST encode walk and decode expansion: byte-cursor loops (fsst_vec.py
  gets to ~25 MB/s with block-parallel cursors; the real FSST runs GB/s
  in C, VLDB 2020 §6). The encode kernel reuses fsst_vec._Matcher's
  tables (the fused 2-byte short-code table and the hashed 3-byte
  prefix groups), so both encoders share one greedy-match definition;
  the C walk is TRUE greedy (no block clamping), so its output is never
  larger than the numpy walk's and decodes through the same format.
- Fixed-width code loops of the read path (bitpack.py): bit-unpack
  with a fused frame-of-reference add, unpack fused with a dictionary
  gather, run expansion for RLE, and an equality compare on packed
  codes that returns match positions without building the code array
  (ARCADE's code-domain compare, SIGMOD 2021). numpy's path for these
  builds an n x width bit matrix. Each kernel writes the caller's
  output dtype (the column's Arrow storage type), so no int64 copy sits
  between the payload and the Arrow buffer.
- The row gather of list columns (exchange.take_rows): one memcpy per
  row's span of values, where numpy first expands the spans into one
  index per value.

The kernels are compiled with the system compiler ON FIRST USE; the
shared object is cached under the temp dir keyed by a source hash and
loaded via ctypes. Strictly optional: any failure (no compiler,
sandboxed temp dir, load error, big-endian host) returns None and
every caller falls back to its numpy path, which gives bit-identical
results. Setting ARCADE_NO_NATIVE=1 forces the fallback (used by tests
to exercise both paths).

ctypes releases the GIL for the call, so decoder tasks and encoder
actors overlap.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sys
import tempfile

import numpy as np

_C_SOURCE = r"""
#include <stdint.h>
#include <string.h>

/* Greedy longest-match FSST encode (escape byte 255).
   Tables are fsst_vec._Matcher's: s_len/s_code fuse the best <=2-byte
   match per 2-byte window; length>=3 symbols live in hashed 3-byte
   prefix groups ordered longest-first (first hit = greedy winner).
   out must hold 2*n bytes (worst case: every byte escapes).
   Returns the emitted length. */
int64_t fsst_encode(
    const uint8_t* data, int64_t n,
    const int8_t* s_len, const int16_t* s_code,
    const int16_t* lut1,
    const uint8_t* has_long, int64_t have_long,
    uint64_t h_mul, uint64_t h_shift,
    const uint64_t* h_key, const int64_t* h_slot,
    const int64_t* g_off,
    const uint64_t* m_cmp, const uint64_t* m_shiftv,
    const int64_t* m_len, const uint8_t* m_code,
    uint8_t* out)
{
    int64_t pos = 0, opos = 0;
    while (pos < n) {
        uint64_t v8;
        if (pos + 8 <= n) {
            uint64_t w;
            memcpy(&w, data + pos, 8);
            v8 = __builtin_bswap64(w);
        } else {
            v8 = 0;
            for (int64_t i = 0; i < n - pos; i++)
                v8 |= ((uint64_t)data[pos + i]) << (56 - 8 * i);
        }
        uint32_t w2 = (uint32_t)(v8 >> 48);
        if (have_long && has_long[w2]) {
            uint64_t v3 = v8 >> 40;
            uint64_t h = (v3 * h_mul) >> h_shift;
            if (h_key[h] == v3) {
                int64_t slot = h_slot[h];
                int64_t hi = g_off[slot + 1];
                int matched = 0;
                for (int64_t mi = g_off[slot]; mi < hi; mi++) {
                    if ((v8 >> m_shiftv[mi]) == m_cmp[mi]
                            && pos + m_len[mi] <= n) {
                        out[opos++] = m_code[mi];
                        pos += m_len[mi];
                        matched = 1;
                        break;
                    }
                }
                if (matched) continue;
            }
        }
        int l = s_len[w2];
        if (l == 2 && pos + 2 <= n) {
            out[opos++] = (uint8_t)s_code[w2];
            pos += 2;
        } else {
            /* 1-byte match (also the 2-byte-at-stream-end fallback) */
            int16_t c1 = lut1[v8 >> 56];
            if (c1 >= 0) {
                out[opos++] = (uint8_t)c1;
            } else {
                out[opos++] = 255;
                out[opos++] = data[pos];
            }
            pos += 1;
        }
    }
    return opos;
}

/* FSST decode: sym_data is 256 symbols padded to 8 bytes each.
   out must hold 8*n + 8 bytes (unconditional 8-byte symbol copies). */
int64_t fsst_decode(
    const uint8_t* stream, int64_t n,
    const uint8_t* sym_data, const int64_t* sym_len,
    uint8_t* out)
{
    int64_t i = 0, o = 0;
    while (i < n) {
        uint8_t c = stream[i];
        if (c == 255) {
            if (i + 1 >= n) break;  /* truncated dangling escape */
            out[o++] = stream[i + 1];
            i += 2;
        } else {
            memcpy(out + o, sym_data + ((int64_t)c << 3), 8);
            o += sym_len[c];
            i += 1;
        }
    }
    return o;
}

/* ---- fixed-width code kernels (bitpack.py layout) -------------------
   Value i is bits [i*width, (i+1)*width) of the LSB-first stream,
   1 <= width <= 64. The caller checks nbytes >= ceil(count*width/8).
   Values whose 9-byte window lies inside the buffer take an unaligned
   8-byte load (plus the 9th byte when the value straddles it); the
   tail is assembled byte by byte, so nothing past nbytes is read. */

static inline uint64_t bits_tail(const uint8_t* d, int64_t nbytes,
                                 int64_t bit, int64_t width)
{
    int64_t p = bit >> 3;
    int s = (int)(bit & 7);
    uint64_t w = 0;
    for (int64_t k = 0; k < 8 && p + k < nbytes; k++)
        w |= (uint64_t)d[p + k] << (8 * k);
    uint64_t v = w >> s;
    if (s + width > 64 && p + 8 < nbytes)
        v |= (uint64_t)d[p + 8] << (64 - s);
    return v;
}

/* Runs BODY once per value with `i` (index) and `v` (value) bound. */
#define FOR_EACH_VALUE(...)                                              \
    do {                                                                 \
        uint64_t mask_ = width == 64 ? ~(uint64_t)0                      \
                                     : (((uint64_t)1 << width) - 1);     \
        int64_t fast_ = nbytes >= 9 ? (nbytes - 9) * 8 / width + 1 : 0;  \
        if (fast_ > count) fast_ = count;                                \
        int64_t i = 0, bit_ = 0;                                         \
        for (; i < fast_; i++, bit_ += width) {                          \
            int64_t p_ = bit_ >> 3;                                      \
            int s_ = (int)(bit_ & 7);                                    \
            uint64_t w_;                                                 \
            memcpy(&w_, data + p_, 8);                                   \
            uint64_t v = w_ >> s_;                                       \
            if (s_ + width > 64)                                         \
                v |= (uint64_t)data[p_ + 8] << (64 - s_);                \
            v &= mask_;                                                  \
            __VA_ARGS__                                                  \
        }                                                                \
        for (; i < count; i++, bit_ += width) {                          \
            uint64_t v = bits_tail(data, nbytes, bit_, width) & mask_;   \
            __VA_ARGS__                                                  \
        }                                                                \
    } while (0)

/* out[i] = (value_i + ref) truncated to `size` bytes (1, 2, 4 or 8):
   bit-pack (ref 0) and frame-of-reference decode. */
void arc_unpack(const uint8_t* data, int64_t nbytes, int64_t width,
                int64_t count, uint64_t ref, void* out, int64_t size)
{
    switch (size) {
    case 1: { uint8_t* o = out; FOR_EACH_VALUE(o[i] = (uint8_t)(v + ref);); break; }
    case 2: { uint16_t* o = out; FOR_EACH_VALUE(o[i] = (uint16_t)(v + ref);); break; }
    case 4: { uint32_t* o = out; FOR_EACH_VALUE(o[i] = (uint32_t)(v + ref);); break; }
    default: { uint64_t* o = out; FOR_EACH_VALUE(o[i] = v + ref;); break; }
    }
}

/* out[i] = table[value_i], entries of `size` bytes. Returns -1, or the
   index of the first value >= d (nothing past it is written). */
int64_t arc_unpack_gather(const uint8_t* data, int64_t nbytes,
                          int64_t width, int64_t count,
                          const void* table, int64_t d,
                          void* out, int64_t size)
{
    uint64_t ud = (uint64_t)d;
    switch (size) {
    case 1: { const uint8_t* t = table; uint8_t* o = out;
              FOR_EACH_VALUE(if (v >= ud) return i; o[i] = t[v];); break; }
    case 2: { const uint16_t* t = table; uint16_t* o = out;
              FOR_EACH_VALUE(if (v >= ud) return i; o[i] = t[v];); break; }
    case 4: { const uint32_t* t = table; uint32_t* o = out;
              FOR_EACH_VALUE(if (v >= ud) return i; o[i] = t[v];); break; }
    default: { const uint64_t* t = table; uint64_t* o = out;
               FOR_EACH_VALUE(if (v >= ud) return i; o[i] = t[v];); break; }
    }
    return -1;
}

/* Positions i with value_i == code, ascending, into idx (room for
   count). Returns the number of matches. */
int64_t arc_match_eq(const uint8_t* data, int64_t nbytes, int64_t width,
                     int64_t count, uint64_t code, int64_t* idx)
{
    int64_t m = 0;
    FOR_EACH_VALUE(idx[m] = i; m += (v == code););
    return m;
}

/* Run k repeats vals[k] (entries of `size` bytes) lens_m1[k] + 1
   times. Returns the number of values written, or -1 when the runs
   would overflow n (nothing past n is written). */
#define RLE_EXPAND(T)                                                    \
    do {                                                                 \
        const T* v_ = vals;                                              \
        T* o_ = out;                                                     \
        for (int64_t k = 0; k < r; k++) {                                \
            if (lens_m1[k] >= (uint64_t)(n - pos))                       \
                return -1;                                               \
            int64_t end = pos + (int64_t)lens_m1[k] + 1;                 \
            for (; pos < end; pos++)                                     \
                o_[pos] = v_[k];                                         \
        }                                                                \
    } while (0)

int64_t arc_rle_expand(const void* vals, const uint64_t* lens_m1,
                       int64_t r, void* out, int64_t n, int64_t size)
{
    int64_t pos = 0;
    switch (size) {
    case 1: RLE_EXPAND(uint8_t); break;
    case 2: RLE_EXPAND(uint16_t); break;
    case 4: RLE_EXPAND(uint32_t); break;
    default: RLE_EXPAND(uint64_t); break;
    }
    return pos;
}

/* Copy n byte spans back to back into out: span i is len[i] bytes at
   address src[i]. The row gather of list columns (gather_lists). */
void arc_gather_spans(const int64_t* src, const int64_t* len, int64_t n,
                      uint8_t* out)
{
    for (int64_t i = 0; i < n; i++) {
        memcpy(out, (const void*)(intptr_t)src[i], (size_t)len[i]);
        out += len[i];
    }
}
"""

_lib = None
_tried = False


def _compile() -> str | None:
    """Compile the kernel into a per-user cache dir; atomic publish so
    concurrent Ray workers race safely (first rename wins)."""
    tag = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    cache = os.path.join(
        tempfile.gettempdir(), f"arcade_native-{os.getuid()}")
    so_path = os.path.join(
        cache, f"kernels-{tag}-{sys.implementation.name}.so")
    os.makedirs(cache, mode=0o700, exist_ok=True)
    st = os.stat(cache)
    if st.st_uid != os.getuid() or (st.st_mode & 0o022):
        # predictable path under world-writable /tmp: refuse to load
        # (or write) anything from a dir another user could own or
        # write to — .so planting would execute in every worker
        return None
    if os.path.exists(so_path):
        return so_path
    src = os.path.join(cache, f"kernels-{tag}.c")
    with open(src, "w") as f:
        f.write(_C_SOURCE)
    tmp = so_path + f".tmp.{os.getpid()}"
    for cc in ("cc", "gcc", "clang"):
        try:
            subprocess.run(
                [cc, "-O2", "-shared", "-fPIC", "-o", tmp, src],
                check=True, capture_output=True, timeout=120)
            os.replace(tmp, so_path)
            return so_path
        except (OSError, subprocess.SubprocessError):
            continue
    return None


def get_lib():
    """-> ctypes CDLL with typed signatures, or None (fallback)."""
    global _lib, _tried
    if _tried:
        return _lib
    _tried = True
    if os.environ.get("ARCADE_NO_NATIVE") or sys.byteorder != "little":
        return None  # the kernels load words little-endian
    try:
        so_path = _compile()
        if so_path is None:
            return None
        lib = ctypes.CDLL(so_path)
        p = ctypes.POINTER
        u8, i8 = p(ctypes.c_uint8), p(ctypes.c_int8)
        i16, i64, u64 = p(ctypes.c_int16), p(ctypes.c_int64), p(ctypes.c_uint64)
        lib.fsst_encode.restype = ctypes.c_int64
        lib.fsst_encode.argtypes = [
            u8, ctypes.c_int64, i8, i16, i16, u8, ctypes.c_int64,
            ctypes.c_uint64, ctypes.c_uint64, u64, i64, i64,
            u64, u64, i64, u8, u8]
        lib.fsst_decode.restype = ctypes.c_int64
        lib.fsst_decode.argtypes = [u8, ctypes.c_int64, u8, i64, u8]
        vp, c64, cu64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_uint64
        lib.arc_unpack.restype = None
        lib.arc_unpack.argtypes = [vp, c64, c64, c64, cu64, vp, c64]
        lib.arc_unpack_gather.restype = c64
        lib.arc_unpack_gather.argtypes = [vp, c64, c64, c64, vp, c64, vp, c64]
        lib.arc_match_eq.restype = c64
        lib.arc_match_eq.argtypes = [vp, c64, c64, c64, cu64, vp]
        lib.arc_rle_expand.restype = c64
        lib.arc_rle_expand.argtypes = [vp, vp, c64, vp, c64, c64]
        lib.arc_gather_spans.restype = None
        lib.arc_gather_spans.argtypes = [vp, vp, c64, vp]
        _lib = lib
    except Exception:
        _lib = None
    return _lib


def _ptr(a: np.ndarray, ctype):
    return a.ctypes.data_as(ctypes.POINTER(ctype))


def encode_native(data: bytes, matcher) -> bytes | None:
    """True-greedy encode via the C kernel; None -> caller falls back."""
    lib = get_lib()
    if lib is None:
        return None
    n = len(data)
    if n == 0:
        return b""
    if matcher.p3 is not None and matcher.h_bits is None:
        return None  # hash construction failed (never observed)
    arr = np.frombuffer(data, dtype=np.uint8)
    out = np.empty(2 * n, dtype=np.uint8)
    if matcher.p3 is not None:
        args = (matcher.has_long.view(np.uint8), 1,
                int(matcher.h_mul), int(matcher.h_bits),
                matcher.h_key, matcher.h_slot, matcher.g_off,
                matcher.m_cmp, matcher.m_shift, matcher.m_len,
                matcher.m_code)
    else:
        z64 = np.zeros(1, dtype=np.uint64)
        zi = np.zeros(2, dtype=np.int64)
        zu = np.zeros(65536, dtype=np.uint8)
        args = (zu, 0, 0, 63, z64, zi, zi, z64,
                z64, zi, zu)
    (has_long, have_long, h_mul, h_shift, h_key, h_slot, g_off,
     m_cmp, m_shift, m_len, m_code) = args
    olen = lib.fsst_encode(
        _ptr(arr, ctypes.c_uint8), n,
        _ptr(matcher.s_len, ctypes.c_int8),
        _ptr(matcher.s_code, ctypes.c_int16),
        _ptr(matcher.lut1, ctypes.c_int16),
        _ptr(has_long, ctypes.c_uint8), have_long,
        h_mul, h_shift,
        _ptr(h_key, ctypes.c_uint64), _ptr(h_slot, ctypes.c_int64),
        _ptr(g_off, ctypes.c_int64),
        _ptr(m_cmp, ctypes.c_uint64), _ptr(m_shift, ctypes.c_uint64),
        _ptr(m_len, ctypes.c_int64), _ptr(m_code, ctypes.c_uint8),
        _ptr(out, ctypes.c_uint8))
    return out[:olen].tobytes()


def decode_native(stream: bytes, symbols: list[bytes]) -> bytes | None:
    """Decode via the C kernel; None -> caller falls back."""
    lib = get_lib()
    if lib is None:
        return None
    n = len(stream)
    if n == 0:
        return b""
    sym_data = np.zeros(256 * 8, dtype=np.uint8)
    sym_len = np.zeros(256, dtype=np.int64)
    for i, s in enumerate(symbols):
        sym_data[i * 8: i * 8 + len(s)] = np.frombuffer(s, dtype=np.uint8)
        sym_len[i] = len(s)
    arr = np.frombuffer(stream, dtype=np.uint8)
    out = np.empty(8 * n + 8, dtype=np.uint8)
    olen = lib.fsst_decode(
        _ptr(arr, ctypes.c_uint8), n,
        _ptr(sym_data, ctypes.c_uint8), _ptr(sym_len, ctypes.c_int64),
        _ptr(out, ctypes.c_uint8))
    return out[:olen].tobytes()


# --- fixed-width code kernels ------------------------------------------------
# bitpack.py validates widths, payload lengths and the uint64 range of
# ref/code before calling these; each returns None when the kernel is
# unavailable (the caller falls back to numpy).


def _addr(buf) -> int:
    """Address of a bytes-like object's first byte (no copy)."""
    return np.frombuffer(buf, dtype=np.uint8).ctypes.data


def unpack_native(data, width: int, count: int, ref: int,
                  dtype: np.dtype) -> np.ndarray | None:
    """(value + ref) mod 2**64 of each width-bit code, truncated to
    ``dtype``; ``ref`` is given as a uint64."""
    lib = get_lib()
    if lib is None:
        return None
    out = np.empty(count, dtype=dtype)
    lib.arc_unpack(_addr(data), len(data), width, count, ref,
                   out.ctypes.data, out.itemsize)
    return out


def unpack_gather_native(data, width: int, count: int,
                         table: np.ndarray) -> np.ndarray | None:
    """table[code] for each width-bit code, in ``table``'s dtype."""
    lib = get_lib()
    if lib is None:
        return None
    table = np.ascontiguousarray(table)
    out = np.empty(count, dtype=table.dtype)
    bad = lib.arc_unpack_gather(_addr(data), len(data), width, count,
                                table.ctypes.data, len(table),
                                out.ctypes.data, out.itemsize)
    if bad >= 0:
        raise IndexError(
            f"dictionary code at row {bad} is out of range for "
            f"{len(table)} entries")
    return out


def match_eq_native(data, width: int, count: int,
                    code: int) -> np.ndarray | None:
    """Ascending positions of the width-bit codes equal to ``code``."""
    lib = get_lib()
    if lib is None:
        return None
    # only the slots up to the match count are ever written, so the
    # untouched rest of a large buffer is never paged in
    idx = np.empty(count, dtype=np.int64)
    m = lib.arc_match_eq(_addr(data), len(data), width, count,
                         code, idx.ctypes.data)
    return idx[:m].copy()


def rle_expand_native(vals: np.ndarray, lens_m1: np.ndarray,
                      n: int) -> np.ndarray | None:
    """vals[k] repeated lens_m1[k] + 1 times, in ``vals``' dtype; the
    runs must add up to exactly ``n``."""
    lib = get_lib()
    if lib is None:
        return None
    vals = np.ascontiguousarray(vals)
    lens_m1 = np.ascontiguousarray(lens_m1, dtype=np.uint64)
    out = np.empty(n, dtype=vals.dtype)
    got = lib.arc_rle_expand(vals.ctypes.data, lens_m1.ctypes.data,
                             len(vals), out.ctypes.data, n, out.itemsize)
    if got != n:
        raise ValueError(f"RLE runs do not add up to {n} rows")
    return out


# --- list-column row gather --------------------------------------------------


def _list_spans(chunks, wb: int, native: bool):
    """Per row of the list arrays ``chunks``: where its values start
    and how many there are. ``native``: the start is an address (the
    child's data buffer + (child offset + list offset) * wb, as list
    offsets index the child from the child's own offset); else it is
    an index into the chunks' values laid end to end, returned too."""
    import pyarrow as pa

    starts, lens, views, base = [], [], [], 0
    for ch in chunks:
        odt = np.int64 if pa.types.is_large_list(ch.type) else np.int32
        off = np.frombuffer(ch.buffers()[1], dtype=odt, count=len(ch) + 1,
                            offset=ch.offset * np.dtype(odt).itemsize) \
            .astype(np.int64)
        child = ch.values
        data = child.buffers()[1] or pa.py_buffer(b"")  # None: no values
        lens.append(np.diff(off))
        if native:
            starts.append(data.address + (child.offset + off[:-1]) * wb)
            continue
        lo, hi = child.offset + off[0], child.offset + off[-1]
        views.append(np.frombuffer(data, dtype=f"V{wb}", count=hi)[lo:])
        starts.append(base + off[:-1] - off[0])
        base += hi - lo
    flat = None if native else np.concatenate(views or [np.empty(0, f"V{wb}")])
    return np.concatenate(starts), np.concatenate(lens), flat


def gather_lists(col, idx: np.ndarray):
    """Rows ``idx`` (int64) of a list or large_list column (an Array or
    a ChunkedArray) whose values are fixed-width, with no null at
    either level, as one array of the column's type. Each row's values
    are one contiguous span, copied whole: by the C kernel, or by numpy
    over the same spans (``column._ranges``), with identical output;
    Arrow's ``take`` moves list values one at a time. None when the
    column is not such a list: the caller then takes it with Arrow."""
    import pyarrow as pa

    t = col.type
    if not (pa.types.is_list(t) or pa.types.is_large_list(t)):
        return None
    vt = t.value_type
    if not (pa.types.is_integer(vt) or pa.types.is_floating(vt)
            or pa.types.is_temporal(vt)) or vt.bit_width % 8:
        return None
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    if any(ch.null_count or ch.values.null_count for ch in chunks):
        return None
    odt = np.int64 if pa.types.is_large_list(t) else np.int32
    wb = vt.bit_width // 8
    lib = get_lib()
    starts, lens, flat = _list_spans(chunks, wb, lib is not None)
    starts, lens = starts[idx], lens[idx]
    offsets = np.zeros(len(idx) + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    total = int(offsets[-1])
    if total > np.iinfo(odt).max:
        return None  # too many values for the offset type: Arrow raises
    if lib is not None:
        out = np.empty(total * wb, dtype=np.uint8)
        nbytes = lens * wb  # named: it must outlive the call
        lib.arc_gather_spans(starts.ctypes.data, nbytes.ctypes.data,
                             len(idx), out.ctypes.data)
    else:
        from ..column import _ranges

        some = lens > 0
        out = flat[_ranges(starts[some], lens[some])].view(np.uint8)
    values = pa.Array.from_buffers(vt, total, [None, pa.py_buffer(out)])
    return pa.Array.from_buffers(
        t, len(idx), [None, pa.py_buffer(offsets.astype(odt))],
        children=[values])
