"""Integer-stream codecs: plain, bit-pack, frame-of-reference, RLE,
dictionary (+bit-packed codes), general-purpose snappy fallback.

Selection is greedy min-estimated-bytes — the same spirit as the
reference's explicit byte-cost comparison between dictionary layouts
(src/writer.cpp:132-160), generalized per SURVEY.md §2.2: estimates are
exact closed-form byte counts (sample-based only for snappy), the
minimum wins, and the reference's distinct-ratio gate for dictionaries
(> 0.80 -> no dict, src/writer.cpp:63) carries over as
``PLAIN_DISTINCT_RATIO``.

All values travel as int64 (see streams.py); ``tag`` carries the
original arrow type so plain encoding uses the native width.
Arithmetic is done in uint64 with two's-complement wraparound so any
int64 min/max range is handled without overflow.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..bitpack import bits_needed, pack_bits, packed_nbytes, unpack_bits
from ..constants import ESTIMATE_SAMPLE_BYTES, PLAIN_DISTINCT_RATIO
from ..profile import IntProfile, profile_int

_MASK = 0xFFFFFFFFFFFFFFFF

_ITEMSIZE = {"i8": 1, "i16": 2, "i32": 4, "i64": 8, "u32": 4, "u64": 8,
             "ts_us": 8, "ts_ns": 8, "date32": 4, "f32": 4, "f64": 8}

_NP_OF_TAG = {"i8": np.int8, "i16": np.int16, "i32": np.int32, "i64": np.int64,
              "u32": np.uint32, "u64": np.uint64, "ts_us": np.int64,
              "ts_ns": np.int64, "date32": np.int32, "f32": np.uint32,
              "f64": np.uint64}


def _u(vals: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(vals, dtype=np.int64).view(np.uint64)


def _sub(vals: np.ndarray, ref: int) -> np.ndarray:
    """(vals - ref) in uint64 wraparound; exact for any int64 ref."""
    return _u(vals) - np.uint64(ref & _MASK)


def _add(offs: np.ndarray, ref: int) -> np.ndarray:
    return (offs + np.uint64(ref & _MASK)).view(np.int64)


# --- plain ------------------------------------------------------------------

def _plain_est(p: IntProfile, tag: str) -> int:
    return p.n * _ITEMSIZE[tag]


def _plain_enc(vals: np.ndarray, p: IntProfile, tag: str):
    np_t = _NP_OF_TAG[tag]
    v = np.ascontiguousarray(vals, dtype=np.int64)
    if np.dtype(np_t).itemsize == 8:
        payload = v.tobytes()  # same bytes regardless of signedness
    else:
        payload = v.view(np.uint64).astype(np_t, casting="unsafe").tobytes() \
            if np.dtype(np_t).kind == "u" else v.astype(np_t, casting="unsafe").tobytes()
    return payload, {"t": tag}


def _plain_dec(payload: bytes, meta: dict, n: int) -> np.ndarray:
    np_t = _NP_OF_TAG[meta["t"]]
    raw = np.frombuffer(payload, dtype=np_t, count=n)
    if np.dtype(np_t).itemsize == 8:
        return raw.view(np.int64)
    return raw.astype(np.int64)


# --- bit-pack (non-negative values, width from max) -------------------------

def _bitpack_est(p: IntProfile, tag: str):
    if p.n == 0 or p.vmin < 0:
        return None
    return packed_nbytes(p.n, bits_needed(p.vmax))


def _bitpack_enc(vals: np.ndarray, p: IntProfile, tag: str):
    w = bits_needed(p.vmax)
    return pack_bits(_u(vals), w), {"w": w}


def _bitpack_dec(payload: bytes, meta: dict, n: int) -> np.ndarray:
    return unpack_bits(payload, meta["w"], n).view(np.int64)


# --- frame-of-reference -----------------------------------------------------

def _for_est(p: IntProfile, tag: str):
    if p.n == 0:
        return None
    return packed_nbytes(p.n, bits_needed(p.vmax - p.vmin)) + 8


def _for_enc(vals: np.ndarray, p: IntProfile, tag: str):
    w = bits_needed(p.vmax - p.vmin)
    return pack_bits(_sub(vals, p.vmin), w), {"ref": p.vmin, "w": w}


def _for_dec(payload: bytes, meta: dict, n: int) -> np.ndarray:
    return _add(unpack_bits(payload, meta["w"], n), meta["ref"])


# --- delta (FoR over successive diffs) --------------------------------------
# Sorted/near-sorted streams (ids, timestamps) have tiny diffs even when
# the absolute range is wide — FoR/bitpack can't see that. Classic
# columnar delta encoding: first value + bit-packed (diff - dmin).

def _delta_est(p: IntProfile, tag: str):
    if p.n < 2 or p.dmin is None:
        return None
    return packed_nbytes(p.n - 1, bits_needed(p.dmax - p.dmin)) + 16


def _delta_enc(vals: np.ndarray, p: IntProfile, tag: str):
    if p.n < 2:  # degenerate: header-only payload
        first = int(vals[0]) if p.n else 0
        return b"", {"f": first, "ref": 0, "w": 0}
    u = _u(vals)
    d = u[1:] - u[:-1]  # uint64 wraparound diffs: exact mod 2^64
    if p.dmin is None:
        # extreme span (profile skipped diff stats): full-width diffs —
        # never chosen by the cost model (est None) but must round-trip
        # when invoked directly
        return pack_bits(d, 64), {"f": int(vals[0]), "ref": 0, "w": 64}
    w = bits_needed(p.dmax - p.dmin)
    return pack_bits(d - np.uint64(p.dmin & _MASK), w), {
        "f": int(vals[0]), "ref": p.dmin, "w": w,
    }


def _delta_dec(payload: bytes, meta: dict, n: int) -> np.ndarray:
    out = np.empty(n, dtype=np.uint64)
    if n == 0:
        return out.view(np.int64)
    first = np.uint64(meta["f"] & _MASK)
    out[0] = first
    if n > 1:
        d = unpack_bits(payload, meta["w"], n - 1) + np.uint64(meta["ref"] & _MASK)
        np.cumsum(d, out=out[1:])  # uint64 wraparound: exact mod 2^64
        out[1:] += first
    return out.view(np.int64)


# --- RLE --------------------------------------------------------------------

def _rle_widths(p: IntProfile) -> tuple[int, int, int]:
    r = p.n_runs
    wv = bits_needed(p.vmax - p.vmin)
    # longest run - 1 <= n - r; exact max computed at encode
    wl = bits_needed(max(p.n - r, 0))
    return r, wv, wl


def _rle_est(p: IntProfile, tag: str):
    if p.n == 0:
        return None
    r, wv, wl = _rle_widths(p)
    return packed_nbytes(r, wv) + packed_nbytes(r, wl) + 16


def _rle_enc(vals: np.ndarray, p: IntProfile, tag: str):
    starts = p.run_starts
    run_vals = vals[starts]
    run_lens = np.diff(np.append(starts, p.n))
    wv = bits_needed(p.vmax - p.vmin)
    wl = bits_needed(int(run_lens.max()) - 1) if len(run_lens) else 0
    payload = pack_bits(_sub(run_vals, p.vmin), wv) + pack_bits(
        (run_lens - 1).astype(np.uint64), wl
    )
    return payload, {"ref": p.vmin, "wv": wv, "wl": wl, "r": int(p.n_runs)}


def _rle_dec(payload: bytes, meta: dict, n: int) -> np.ndarray:
    r, wv, wl = meta["r"], meta["wv"], meta["wl"]
    vb = packed_nbytes(r, wv)
    run_vals = _add(unpack_bits(payload[:vb], wv, r), meta["ref"])
    run_lens = unpack_bits(payload[vb:], wl, r).astype(np.int64) + 1
    return np.repeat(run_vals, run_lens)


# --- dictionary (sorted dict stored delta+bit-packed; codes bit-packed) -----

def _dict_deltas(uvals: np.ndarray) -> np.ndarray:
    """Deltas of the sorted dict in uint64 wraparound (exact even when
    the value range exceeds int64)."""
    u = np.ascontiguousarray(uvals, dtype=np.int64).view(np.uint64)
    return u[1:] - u[:-1]


def _dict_est(p: IntProfile, tag: str):
    if p.n == 0 or p.n_distinct == 0:
        return None
    if p.distinct_ratio > PLAIN_DISTINCT_RATIO:  # reference gate src/writer.cpp:63
        return None
    d = p.n_distinct
    deltas = _dict_deltas(p.unique) if d > 1 else np.empty(0, np.uint64)
    wd = bits_needed(int(deltas.max())) if len(deltas) else 0
    wc = bits_needed(d - 1)
    return packed_nbytes(d - 1, wd) + packed_nbytes(p.n, wc) + 24


def _dict_codes(uvals: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Position of each value in the sorted distinct set ``uvals``
    (which holds every value), by hash lookup: a binary search costs
    log2(d) passes over the stream."""
    return pc.index_in(vals, value_set=pa.array(uvals)).to_numpy() \
        .astype(np.uint64)


def _dict_enc(vals: np.ndarray, p: IntProfile, tag: str):
    uvals = p.unique
    d = len(uvals)
    codes = _dict_codes(uvals, vals)
    deltas = _dict_deltas(uvals) if d > 1 else np.empty(0, np.uint64)
    wd = bits_needed(int(deltas.max())) if len(deltas) else 0
    wc = bits_needed(d - 1)
    payload = pack_bits(deltas, wd) + pack_bits(codes, wc)
    return payload, {"first": int(uvals[0]), "wd": wd, "wc": wc, "d": d}


def _dict_dec(payload: bytes, meta: dict, n: int) -> np.ndarray:
    d, wd, wc = meta["d"], meta["wd"], meta["wc"]
    db = packed_nbytes(d - 1, wd)
    deltas = unpack_bits(payload[:db], wd, d - 1)
    uvals = np.empty(d, dtype=np.uint64)
    uvals[0] = np.uint64(meta["first"] & _MASK)
    if d > 1:
        np.cumsum(deltas, out=uvals[1:])
        uvals[1:] += uvals[0]
    codes = unpack_bits(payload[db:], wc, n).astype(np.int64)
    return uvals.view(np.int64)[codes]


# --- ALP: decimal-scaled floats ---------------------------------------------
# Adaptive Lossless floating-Point (Afroozeh et al., SIGMOD'23 — public
# paper): most real-world doubles are decimal-scaled (prices, rates,
# quantities). Find the smallest exponent e such that
# round(v * 10^e) / 10^e reproduces v BIT-IDENTICALLY, encode the scaled
# int64 stream with the existing int palette (FoR/bit-pack/dict/delta),
# and patch the few values that fail (NaN, inf, -0.0, true reals) as
# positional exceptions carrying raw bit patterns. A 2-decimal price
# column drops from 64 raw bits to ~bits_needed(range*100). Floats
# otherwise travel as high-entropy bit patterns (streams.py:71-74) that
# none of the closed-form codecs compress.

_ALP_MAX_EXP = {"f64": 14, "f32": 6}
_ALP_EXC_RATIO = 0.05  # viable only when <=5% of values need patching


def _alp_floats64(vals: np.ndarray, tag: str) -> np.ndarray:
    """Bit-pattern int64 stream -> the original floats, as float64."""
    if tag == "f32":
        return vals.astype(np.uint32).view(np.float32).astype(np.float64)
    return np.ascontiguousarray(vals).view(np.float64)


def _alp_recon_bits(ints: np.ndarray, e: int, tag: str) -> np.ndarray:
    """The exact decode expression: scaled ints -> float -> bit-pattern
    int64 stream. Encode-side exactness is verified against THIS, so
    decode is bit-identical by construction."""
    f = ints.astype(np.float64) / (10.0 ** e)
    if tag == "f32":
        return f.astype(np.float32).view(np.uint32).astype(np.int64)
    return f.view(np.int64)


def _alp_scale(fd: np.ndarray, e: int) -> tuple[np.ndarray, np.ndarray]:
    """(scaled int64, finite-and-in-range mask) for exponent e."""
    with np.errstate(invalid="ignore", over="ignore"):
        i = np.rint(fd * (10.0 ** e))
    finite = np.isfinite(i) & (np.abs(i) < float(1 << 62))
    ints = np.where(finite, i, 0.0).astype(np.int64)
    return ints, finite


def _alp_build(vals: np.ndarray, p: IntProfile, tag: str):
    """Try ALP on a float bit-pattern stream. Returns
    (payload, meta) or None when no exponent reproduces >=95% of the
    values bit-identically."""
    n = p.n
    if n < 16 or tag not in _ALP_MAX_EXP:
        return None
    fd = _alp_floats64(vals, tag)
    # exponent choice on a bounded sample: smallest e that makes >=95%
    # of the sample exact under the decode expression
    sample_idx = slice(None) if n <= 1024 else slice(0, None, n // 1024)
    fs, vs = fd[sample_idx], vals[sample_idx]
    exp = None
    for e in range(_ALP_MAX_EXP[tag] + 1):
        ints, finite = _alp_scale(fs, e)
        ok = finite & (_alp_recon_bits(ints, e, tag) == vs)
        if np.count_nonzero(ok) >= 0.95 * len(vs):
            exp = e
            break
    if exp is None:
        return None
    ints, finite = _alp_scale(fd, exp)
    ok = finite & (_alp_recon_bits(ints, exp, tag) == vals)
    exc = np.flatnonzero(~ok)
    if len(exc) > _ALP_EXC_RATIO * n:
        return None
    if len(exc):
        # keep the inner stream's range tight: park exceptions on a
        # value the stream already contains
        fill = ints[ok.argmax()] if ok.any() else 0
        ints[exc] = fill
    ic, ipay, im = choose_int_codec(ints, profile_int(ints), "i64")
    xw = bits_needed(n - 1) if len(exc) else 0
    idx_pay = pack_bits(exc.astype(np.uint64), xw)
    if tag == "f32":
        raw = vals[exc].astype(np.uint32).tobytes()
    else:
        raw = np.ascontiguousarray(vals[exc]).tobytes()
    payload = ipay + idx_pay + raw
    meta = {"e": exp, "ic": ic, "im": im, "ib": len(ipay),
            "nx": len(exc), "xw": xw, "t": tag}
    return payload, meta


def _alp_enc(vals: np.ndarray, p: IntProfile, tag: str):
    built = _alp_build(vals, p, tag)
    if built is None:
        raise ValueError("alp: stream is not decimal-scaled")
    return built


def _alp_dec(payload: bytes, meta: dict, n: int) -> np.ndarray:
    ib, tag = meta["ib"], meta["t"]
    ints = decode_int(meta["ic"], payload[:ib], meta["im"], n)
    out = _alp_recon_bits(ints, meta["e"], tag)
    nx = meta["nx"]
    if nx:
        xw = meta["xw"]
        xb = packed_nbytes(nx, xw)
        idx = unpack_bits(payload[ib:ib + xb], xw, nx).astype(np.int64)
        raw = payload[ib + xb:]
        if tag == "f32":
            pats = np.frombuffer(raw, dtype=np.uint32, count=nx).astype(np.int64)
        else:
            pats = np.frombuffer(raw, dtype=np.int64, count=nx)
        out = np.ascontiguousarray(out)
        out[idx] = pats
    return out


# --- general-purpose fallback over plain bytes ------------------------------
# zstd(1) strictly beats snappy on ratio at comparable speed (measured:
# tokens 0.30 vs 0.46, ~360 vs ~450 MB/s); snappy kept for decode of
# older files (meta "c").

_snappy = pa.Codec("snappy")
_zstd = pa.Codec("zstd", 1)
_GP = {"snappy": _snappy, "zstd": _zstd}


def _no_est(p: IntProfile, tag: str):
    """gp and alp need the values: choose_int_codec sample-compresses
    (gp) or builds the stream outright (alp)."""
    return None


def _gp_enc(vals: np.ndarray, p: IntProfile, tag: str):
    plain, _ = _plain_enc(vals, p, tag)
    return _zstd.compress(plain).to_pybytes(), {
        "t": tag, "n0": len(plain), "c": "zstd"
    }


def _gp_dec(payload: bytes, meta: dict, n: int) -> np.ndarray:
    codec = _GP[meta.get("c", "snappy")]
    plain = codec.decompress(payload, meta["n0"])
    return _plain_dec(plain, meta, n)


INT_CODECS = {
    "plain": (_plain_est, _plain_enc, _plain_dec),
    "bitpack": (_bitpack_est, _bitpack_enc, _bitpack_dec),
    "for": (_for_est, _for_enc, _for_dec),
    "delta": (_delta_est, _delta_enc, _delta_dec),
    "rle": (_rle_est, _rle_enc, _rle_dec),
    "dict": (_dict_est, _dict_enc, _dict_dec),
    "gp": (_no_est, _gp_enc, _gp_dec),
    "alp": (_no_est, _alp_enc, _alp_dec),
}


def choose_int_codec(vals: np.ndarray, p: IntProfile, tag: str,
                     try_gp: bool = True) -> tuple[str, bytes, dict]:
    """Greedy min-estimated-bytes selection over the int palette."""
    plain_est = _plain_est(p, tag)
    best_name, best_est = "plain", plain_est
    for name, (est_fn, _, _) in INT_CODECS.items():
        if name in ("plain", "gp"):
            continue  # plain is the baseline; gp is sample-estimated below
        est = est_fn(p, tag)
        if est is not None and est < best_est:
            best_name, best_est = name, est
    # speed tiebreak: non-byte-aligned bit-packing pays a heavy
    # pack/unpack cost — not worth it for < 5% size over plain
    if best_name in ("bitpack", "for", "delta") and best_est > 0.95 * plain_est:
        best_name, best_est = "plain", plain_est
    if try_gp and p.n * _ITEMSIZE[tag] >= 4096:
        # sample-compress to estimate zstd on the plain bytes
        plain_sample = vals[: max(1, ESTIMATE_SAMPLE_BYTES // 8)]
        sp, _ = _plain_enc(plain_sample, p, tag)
        ratio = len(_zstd.compress(sp)) / max(1, len(sp))
        gp_est = int(ratio * p.n * _ITEMSIZE[tag]) + 16
        if gp_est < best_est:
            best_name, best_est = "gp", gp_est
    payload = meta = None
    if tag in _ALP_MAX_EXP:
        # decimal-scaled float probe — actual bytes, not an estimate
        # (the sample gate inside _alp_build bails fast on true reals)
        alp = _alp_build(vals, p, tag)
        if alp is not None and len(alp[0]) + 32 < 0.95 * best_est:
            best_name = "alp"
            payload, meta = alp
    if payload is None:
        payload, meta = INT_CODECS[best_name][1](vals, p, tag)
        # estimates are exact for the closed-form codecs; snappy may
        # disappoint on the full stream — fall back if it actually lost.
        if best_name == "gp" and len(payload) >= _plain_est(p, tag):
            best_name = "plain"
            payload, meta = _plain_enc(vals, p, tag)
    if try_gp and best_name != "gp" and len(payload) >= 4096:
        # pack-then-zstd: entropy-code the residue the lightweight
        # codec leaves behind (bit-packed streams still carry value
        # correlations zstd finds). Measured, kept only on a real win.
        comp = _zstd.compress(payload).to_pybytes()
        if len(comp) + 16 < len(payload):
            meta = dict(meta, _zw=len(payload))
            payload = comp
    return best_name, payload, meta


def decode_int(codec: str, payload: bytes, meta: dict, n: int) -> np.ndarray:
    if "_zw" in meta:
        payload = _zstd.decompress(payload, meta["_zw"]).to_pybytes()
        meta = {k: v for k, v in meta.items() if k != "_zw"}
    return INT_CODECS[codec][2](payload, meta, n)
