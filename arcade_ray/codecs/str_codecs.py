"""String-stream codecs: plain, dictionary (sorted dict + bit-packed or
RLE codes), FSST, general-purpose snappy fallback.

Mirrors the reference's string palette — plain / dictionary / snappy
(src/writer.cpp:63-187) — widened with FSST and RLE-coded dictionary
codes, with greedy min-estimated-bytes selection (SURVEY.md §2.2). The
dictionary is stored sorted (reference sorts at src/writer.cpp:57-58)
so equi-filters can binary-search the literal and range-prune.

A string stream is (lengths: int64 numpy, data: bytes) — see streams.py.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..bitpack import bits_needed, pack_bits, packed_nbytes, unpack_bits
from ..constants import PLAIN_DISTINCT_RATIO
from ..profile import StrProfile, profile_str
from . import fsst

_snappy = pa.Codec("snappy")
_zstd = pa.Codec("zstd", 1)  # gp codec: strictly better ratio than snappy
_GP = {"snappy": _snappy, "zstd": _zstd}

# FSST must beat the gp codec by this factor to be chosen when only
# the pure-numpy encoder is available (~20 MB/s against ~300 MB/s for
# zstd-1; a near-tie is not worth it). With the native kernel (~200
# MB/s, codecs/native.py) FSST contests at parity — it additionally
# buys random access. (Encode speeds of 2 MB doc-id and word-text
# streams, one core of an Intel Xeon cloud VM.)
FSST_WIN_FACTOR = 0.9

_native_ok: bool | None = None


def _fsst_fast() -> bool:
    """Whether the native kernel is available HERE. Parity-contesting
    FSST assumes a homogeneous fleet: the choice is baked into the
    stored file, so a reader without a compiler falls back to the
    ~MB/s Python decode. On a heterogeneous fleet set
    ARCADE_NO_NATIVE=1 at encode time to keep the conservative
    FSST_WIN_FACTOR gate."""
    global _native_ok
    if _native_ok is None:
        from .native import get_lib

        _native_ok = get_lib() is not None
    return _native_ok


# --- value-set encoders (shared by plain columns and dict payloads) ---------

def encode_str_values(lengths: np.ndarray, data: bytes) -> tuple[str, bytes, dict]:
    """Encode a set/stream of strings standalone (no dictionary):
    choose among plain / gp(snappy) / fsst by estimated bytes."""
    wl = bits_needed(int(lengths.max())) if len(lengths) else 0
    len_payload = pack_bits(lengths.view(np.uint64), wl)

    comp = None
    if len(data) >= 512:
        # zstd-1 runs at hundreds of MB/s — measure the real size
        comp = _zstd.compress(data).to_pybytes()
        if len(comp) >= len(data):
            comp = None
    best_data_bytes = len(comp) if comp is not None else len(data)

    gp_struggled = comp is None or len(comp) > 0.4 * len(data)
    if len(data) >= 512 and (gp_struggled or _fsst_fast()):
        # sample-estimate first; pay for the full encode only on a
        # projected win (a clear one when only the numpy encoder is
        # available — it is ~10x slower than zstd)
        win = 1.0 if _fsst_fast() else FSST_WIN_FACTOR
        ratio, tbl_bytes, symbols, stream = fsst.estimate_plan(data)
        fsst_est = int(ratio * len(data)) + tbl_bytes
        if fsst_est < best_data_bytes * win:
            if stream is None:
                tbl, stream = fsst.compress(data, symbols)
            else:  # the estimate already encoded all of data
                tbl = fsst.serialize_table(symbols)
            if len(tbl) + len(stream) < best_data_bytes:
                return "fsst", len_payload + tbl + stream, {
                    "wl": wl, "n": len(lengths), "tl": len(tbl)
                }
    if comp is not None:
        return "gp", len_payload + comp, {"wl": wl, "n": len(lengths),
                                          "n0": len(data), "c": "zstd"}
    return "plain", len_payload + data, {"wl": wl, "n": len(lengths)}


def decode_str_values(codec: str, payload: bytes, meta: dict) -> tuple[np.ndarray, bytes]:
    n, wl = meta["n"], meta["wl"]
    nb = packed_nbytes(n, wl)
    lengths = unpack_bits(payload[:nb], wl, n).view(np.int64)
    rest = payload[nb:]
    if codec == "plain":
        return lengths, rest
    if codec == "gp":
        gp = _GP[meta.get("c", "snappy")]
        return lengths, gp.decompress(rest, meta["n0"]).to_pybytes()
    if codec == "fsst":
        tl = meta["tl"]
        return lengths, fsst.decompress(rest[:tl], rest[tl:])
    raise KeyError(codec)


# --- code-array encoders (dictionary codes: bit-pack vs RLE) ----------------

def encode_codes(codes: np.ndarray, d: int) -> tuple[str, bytes, dict]:
    """codes in [0, d); pick bit-pack or RLE by exact byte count."""
    n = len(codes)
    wc = bits_needed(max(d - 1, 0))
    bp_bytes = packed_nbytes(n, wc)
    # run structure
    if n:
        change = np.empty(n, dtype=bool)
        change[0] = True
        np.not_equal(codes[1:], codes[:-1], out=change[1:])
        starts = np.flatnonzero(change)
        r = len(starts)
        run_lens = np.diff(np.append(starts, n))
        wlr = bits_needed(int(run_lens.max()) - 1) if r else 0
        rle_bytes = packed_nbytes(r, wc) + packed_nbytes(r, wlr) + 8
    else:
        r, rle_bytes = 0, 1 << 30
    if rle_bytes < bp_bytes:
        payload = pack_bits(codes[starts].astype(np.uint64), wc) + pack_bits(
            (run_lens - 1).astype(np.uint64), wlr
        )
        return "rle", payload, {"wc": wc, "wl": wlr, "r": r, "n": n}
    return "bitpack", pack_bits(codes.astype(np.uint64), wc), {"wc": wc, "n": n}


def decode_codes(codec: str, payload: bytes, meta: dict) -> np.ndarray:
    n, wc = meta["n"], meta["wc"]
    if codec == "bitpack":
        return unpack_bits(payload, wc, n).view(np.int64)
    r, wl = meta["r"], meta["wl"]
    vb = packed_nbytes(r, wc)
    run_vals = unpack_bits(payload[:vb], wc, r).view(np.int64)
    run_lens = unpack_bits(payload[vb:], wl, r).astype(np.int64) + 1
    return np.repeat(run_vals, run_lens)


# --- full string-stream codecs ----------------------------------------------

def _dict_enc(lengths: np.ndarray, data: bytes, p: StrProfile):
    vcodec, vpayload, vmeta = encode_str_values(p.unique_lengths, p.unique_data)
    ccodec, cpayload, cmeta = encode_codes(p.codes, p.n_distinct)
    payload = vpayload + cpayload
    meta = {"d": p.n_distinct, "vcodec": vcodec, "vmeta": vmeta,
            "vlen": len(vpayload), "ccodec": ccodec, "cmeta": cmeta}
    return payload, meta


def _dict_dec(payload: bytes, meta: dict, n: int) -> tuple[np.ndarray, bytes]:
    vlen = meta["vlen"]
    u_lengths, u_data = decode_str_values(meta["vcodec"], payload[:vlen], meta["vmeta"])
    codes = decode_codes(meta["ccodec"], payload[vlen:], meta["cmeta"])
    # gather: out lengths + data via offsets
    u_offsets = np.empty(len(u_lengths) + 1, dtype=np.int64)
    u_offsets[0] = 0
    np.cumsum(u_lengths, out=u_offsets[1:])
    return gather_strings(u_offsets, u_data, codes)


def gather_strings(u_offsets: np.ndarray, u_data: bytes,
                   codes: np.ndarray) -> tuple[np.ndarray, bytes]:
    """Vectorized gather of strings[codes] from a concatenated pool via
    Arrow take (zero-copy pool, C++ gather)."""
    pool = pa.LargeBinaryArray.from_buffers(
        pa.large_binary(), len(u_offsets) - 1,
        [None, pa.py_buffer(u_offsets.tobytes()), pa.py_buffer(u_data)],
    )
    taken = pool.take(pa.array(codes, type=pa.int64()))
    from ..streams import str_stream_from_arrow

    lengths, data, _ = str_stream_from_arrow(taken)
    return lengths, data


def choose_str_codec(lengths: np.ndarray, data: bytes,
                     p: StrProfile | None = None) -> tuple[str, bytes, dict]:
    """Greedy min-bytes over {plain, gp, fsst, dict[+rle codes]} with the
    reference's distinct-ratio gate for dictionaries."""
    if p is None:
        p = profile_str(lengths, data)
    name, payload, meta = encode_str_values(lengths, data)
    if p.n and p.distinct_ratio <= PLAIN_DISTINCT_RATIO:
        dpayload, dmeta = _dict_enc(lengths, data, p)
        if len(dpayload) < len(payload):
            return "dict", dpayload, dmeta
    return name, payload, meta


def decode_str(codec: str, payload: bytes, meta: dict, n: int) -> tuple[np.ndarray, bytes]:
    """-> (lengths, data)."""
    if codec == "dict":
        return _dict_dec(payload, meta, n)
    return decode_str_values(codec, payload, meta)


STR_CODECS = ("plain", "gp", "fsst", "dict")
