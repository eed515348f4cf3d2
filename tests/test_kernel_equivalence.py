"""Kernels against their straightforward counterparts.

Write path: each oracle below is the plain implementation the engine
used before its kernel was vectorised: the ``collections.Counter`` FSST
table build, the n x width bit-matrix ``pack_bits`` and the
binary-search dictionary codes, the sort-based stream profile with
eager run starts, and Arrow's ``take`` for the list-column row gather.
The fast kernels must give exactly the same output, because every one
of them decides stored bytes (the gather decides which rows a
partition holds, in which order).

Read path: the C decode kernels (bit-unpack with a FoR add, the fused
dictionary gather, RLE expansion and the packed-code compare) must give
the same arrays, dtypes and errors as the numpy fallback.
"""

from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pyarrow as pa
import pytest

from arcade_ray.bitpack import (
    expand_runs,
    match_packed,
    pack_bits,
    unpack_bits,
    unpack_gather,
)
from arcade_ray.codecs import fsst
from arcade_ray.codecs.fsst_vec import encode_stream
from arcade_ray.codecs.int_codecs import _dict_codes
from arcade_ray.constants import (
    FSST_GENERATIONS,
    FSST_MAX_SYMBOL_LEN,
    FSST_MAX_SYMBOLS,
    FSST_SAMPLE_BYTES,
)

# --- oracles ----------------------------------------------------------------


def _oracle_gains(encoded: bytes, symbols: list[bytes]) -> Counter:
    codes = fsst._parse_codes(encoded)
    sym_len = np.ones(512, dtype=np.int64)
    for c, sym in enumerate(symbols):
        sym_len[c] = len(sym)

    def unit_bytes(c: int) -> bytes:
        return symbols[c] if c < 256 else bytes([c - 256])

    gains: Counter[bytes] = Counter()
    cnt = np.bincount(codes, minlength=512)
    for c in np.flatnonzero(cnt):
        b = unit_bytes(int(c))
        gains[b] += int(cnt[c]) * len(b)
    if len(codes) > 1:
        ln = sym_len[codes]
        ok = (ln[:-1] + ln[1:]) <= FSST_MAX_SYMBOL_LEN
        pk = codes[:-1].astype(np.int64) * 512 + codes[1:]
        pcnt = np.bincount(pk[ok], minlength=0)
        for key in np.flatnonzero(pcnt):
            cat = unit_bytes(int(key) // 512) + unit_bytes(int(key) % 512)
            gains[cat] += int(pcnt[key]) * len(cat)
    return gains


def _oracle_symbol_table(sample: bytes) -> list[bytes]:
    sample = sample[:FSST_SAMPLE_BYTES]
    if not sample:
        return []
    symbols = [bytes([b]) for b, _ in
               Counter(sample).most_common(FSST_MAX_SYMBOLS)]
    for _ in range(FSST_GENERATIONS):
        gains = _oracle_gains(encode_stream(sample, symbols), symbols)
        symbols = [s for s, _ in gains.most_common(FSST_MAX_SYMBOLS)]
    return symbols


def _oracle_pack_bits(values: np.ndarray, width: int) -> bytes:
    if width == 0:
        return b""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    shifts = np.arange(width, dtype=np.uint64)
    parts = []
    for s in range(0, len(v), 8192):
        chunk = v[s:s + 8192]
        bits = ((chunk[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)
        parts.append(np.packbits(bits, bitorder="little").tobytes())
    return b"".join(parts)


def _oracle_dict_codes(uvals: np.ndarray, vals: np.ndarray) -> np.ndarray:
    return np.searchsorted(uvals, vals).astype(np.uint64)


# --- FSST symbol tables -----------------------------------------------------


def _fsst_inputs() -> dict[str, bytes]:
    rng = np.random.default_rng(11)
    ids = np.sort(rng.choice(4_000_000, 6000, replace=False))
    doc_ids = b"".join(f"src-007:{i:012d}".encode() for i in ids)
    words = [b"the", b"of", b"and", b"compression", b"string", b"column",
             b"symbol", b"table", b"scan", b"fast", b"random", b"access"]
    text = b" ".join(words[i] for i in rng.zipf(1.4, 12000) % len(words))
    binary = rng.integers(0, 256, 50_000, dtype=np.uint8).tobytes()
    return {
        "doc_id": doc_ids,
        "word_text": text,
        "random_binary": binary,
        "repetitive": b"abcabcab" * 6000,
        "zeros": bytes(9000),
        "small_doc_id": doc_ids[:4000],
        "small_text": text[:1500],
        "small_binary": binary[:700],
        "one_byte": b"q",
        "big_text": text[:40_000],  # >= 32 KiB: training sees the sample
    }


@pytest.mark.parametrize("name", sorted(_fsst_inputs()))
def test_symbol_table_matches_counter_oracle(kernel_mode, name):
    data = _fsst_inputs()[name]
    assert fsst.build_symbol_table(data) == _oracle_symbol_table(data)


def test_fsst_inputs_cover_sample_sizes():
    sizes = [len(d) for d in _fsst_inputs().values()]
    assert min(sizes) < 4096 and max(sizes) >= FSST_SAMPLE_BYTES


def test_symbol_table_tie_order():
    """Equal gains keep first-appearance order, and two splits of one
    string ("ab" + "c", "a" + "bc") add up as one candidate."""
    data = b"abcabdxyz" * 40 + bytes(range(256))
    assert fsst.build_symbol_table(data) == _oracle_symbol_table(data)


def test_estimate_reuses_whole_stream_encoding(monkeypatch):
    """A stream no longer than the FSST sample is encoded once: the
    estimate's encoding is the stored stream."""
    from arcade_ray.codecs import str_codecs

    rng = np.random.default_rng(3)
    vocab = [bytes(rng.integers(97, 123, 4, dtype=np.uint8))
             for _ in range(200)]
    strings = [b"".join(vocab[j] for j in rng.integers(0, 200, 3))
               for _ in range(2000)]
    data = b"".join(strings)
    assert len(data) <= FSST_SAMPLE_BYTES
    lengths = np.array([len(s) for s in strings], dtype=np.int64)
    calls = []
    real = fsst.compress
    monkeypatch.setattr(fsst, "compress",
                        lambda d, s=None: calls.append(len(d)) or real(d, s))
    codec, payload, meta = str_codecs.encode_str_values(lengths, data)
    assert codec == "fsst"
    assert calls == [len(data)]
    tbl, stream = real(data, fsst.build_symbol_table(data))
    assert payload.endswith(tbl + stream) and meta["tl"] == len(tbl)
    back_lengths, back = str_codecs.decode_str_values(codec, payload, meta)
    assert back == data and np.array_equal(back_lengths, lengths)


# --- bit packing ------------------------------------------------------------

PACK_COUNTS = (0, 1, 63, 64, 65, 1000, (1 << 18) + 17)


@pytest.mark.parametrize("width", range(1, 65))
def test_pack_bits_matches_bit_matrix(width):
    rng = np.random.default_rng(width)
    for n in PACK_COUNTS:
        if width == 64:
            vals = rng.integers(0, 1 << 63, n, dtype=np.uint64) \
                * np.uint64(2) + rng.integers(0, 2, n, dtype=np.uint64)
        else:
            vals = rng.integers(0, 1 << width, n, dtype=np.uint64)
        if n > 1:
            vals[-1] = np.uint64((1 << width) - 1)  # every bit set
        assert pack_bits(vals, width) == _oracle_pack_bits(vals, width), n


# --- dictionary codes -------------------------------------------------------


@pytest.mark.parametrize("d,span", [(1, 1), (2, 10), (257, 2**31),
                                    (5000, 2**40), (60, 2**62)])
def test_dict_codes_match_binary_search(d, span):
    rng = np.random.default_rng(d)
    uvals = np.unique(rng.integers(-span, span, d))
    vals = uvals[rng.integers(0, len(uvals), 100_000)]
    assert np.array_equal(_dict_codes(uvals, vals),
                          _oracle_dict_codes(uvals, vals))


def test_dict_codes_257_values_with_int32_max():
    """The hot-source token stream: 256 narrow values plus 2**31 - 1."""
    rng = np.random.default_rng(257)
    vals = rng.integers(0, 256, 300_000)
    vals[::997] = 2**31 - 1
    uvals = np.unique(vals)
    assert len(uvals) == 257
    assert np.array_equal(_dict_codes(uvals, vals),
                          _oracle_dict_codes(uvals, vals))


# --- read path: native decode kernels against the numpy fallback -----------


def _both(monkeypatch, fn):
    """(fn() with the C kernels, fn() with the numpy fallback); each
    side is a value or the type of the exception it raised."""
    import arcade_ray.codecs.native as nat

    monkeypatch.delenv("ARCADE_NO_NATIVE", raising=False)
    monkeypatch.setattr(nat, "_tried", False)
    monkeypatch.setattr(nat, "_lib", None)
    if nat.get_lib() is None:
        pytest.skip("no C compiler in this environment")

    def run():
        try:
            return fn()
        except (ValueError, IndexError) as e:
            return type(e)

    native = run()
    with monkeypatch.context() as m:
        m.setattr(nat, "_lib", None)
        m.setattr(nat, "_tried", True)
        fallback = run()
    return native, fallback


def _same(a, b) -> bool:
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and \
            np.array_equal(a, b)
    return a == b


def _values(rng, width: int, n: int) -> np.ndarray:
    if width == 64:
        vals = rng.integers(0, 1 << 63, n, dtype=np.uint64) \
            * np.uint64(2) + rng.integers(0, 2, n, dtype=np.uint64)
    else:
        vals = rng.integers(0, 1 << width, n, dtype=np.uint64)
    if n > 1:
        vals[-1] = np.uint64((1 << width) - 1)  # every bit set
    return vals


def _dirty_padding(data: bytes, n: int, width: int) -> bytes:
    """Set the unused high bits of the last byte: decoders must ignore
    them."""
    used = n * width % 8
    if not data or used == 0:
        return data
    return data[:-1] + bytes([data[-1] | (0xFF << used) & 0xFF])


@pytest.mark.parametrize("width", range(1, 65))
def test_unpack_native_matches_numpy(monkeypatch, width):
    rng = np.random.default_rng(1000 + width)
    ref = int(rng.integers(-2**40, 2**40))
    for n in PACK_COUNTS:
        vals = _values(rng, width, n)
        data = _dirty_padding(pack_bits(vals, width), n, width)
        for kw in ({}, {"dtype": np.int64}, {"ref": ref, "dtype": np.int32},
                   {"ref": -1, "dtype": np.uint16}, {"ref": 3, "dtype": np.int8}):
            native, fallback = _both(
                monkeypatch, lambda: unpack_bits(data, width, n, **kw))
            assert _same(native, fallback), (n, kw)
        assert np.array_equal(unpack_bits(data, width, n), vals), n


@pytest.mark.parametrize("d", [1, 2, 257, 65537])
def test_dict_decode_native_matches_numpy(monkeypatch, d):
    from arcade_ray.codecs.int_codecs import INT_CODECS, decode_int
    from arcade_ray.profile import profile_int

    rng = np.random.default_rng(d)
    uvals = np.unique(rng.integers(-2**31, 2**31 - 1, d + d // 4))[:d]
    vals = uvals[rng.integers(0, len(uvals), 200_003)]
    vals[:len(uvals)] = uvals  # every entry used
    payload, meta = INT_CODECS["dict"][1](vals, profile_int(vals), "i32")
    assert meta["d"] == d
    for dtype in (np.int64, np.int32):
        native, fallback = _both(
            monkeypatch,
            lambda: decode_int("dict", payload, meta, len(vals), dtype))
        assert _same(native, fallback)
        assert np.array_equal(native, vals.astype(dtype))
    # a code past the dictionary raises in both modes
    table = np.arange(d, dtype=np.int32)
    codes = pack_bits(np.array([0, d], dtype=np.uint64), max(1, d.bit_length()))
    native, fallback = _both(
        monkeypatch,
        lambda: unpack_gather(codes, max(1, d.bit_length()), 2, table))
    assert native is fallback is IndexError


@pytest.mark.parametrize("codec", ["bitpack", "for", "rle", "delta"])
@pytest.mark.parametrize("tag", ["i64", "i32", "i16", "u32", "ts_us",
                                 "date32", "f32", "f64"])
def test_int_decode_native_matches_numpy(monkeypatch, codec, tag):
    """FoR, bit-pack and RLE payloads decode to the same storage-dtype
    arrays in both modes, and to what int_stream_to_arrow made of the
    int64 stream."""
    from arcade_ray.codecs.int_codecs import INT_CODECS, decode_int
    from arcade_ray.profile import profile_int
    from arcade_ray.streams import STORAGE_DTYPES, int_stream_to_arrow

    rng = np.random.default_rng(len(codec) * 100 + len(tag))
    n = 70_001
    if tag in ("f32", "f64"):  # IEEE bit patterns, kept non-negative
        lo, hi = (1 << 30, 1 << 31) if tag == "f32" else (1 << 60, 1 << 61)
    elif tag == "i16":
        lo, hi = -30_000, 30_000
    elif tag in ("i32", "date32"):
        lo, hi = -2**31, 2**31 - 1
    else:
        lo, hi = 0 if tag == "u32" else -2**40, 2**32 - 1
    vals = rng.integers(lo, hi, n)
    if codec == "bitpack":
        vals = vals - vals.min()
    if codec == "rle":
        vals = np.repeat(vals[: n // 50], 50)[:n]
        vals = np.concatenate([vals, vals[:n - len(vals)]])
    if codec == "delta":
        vals = np.sort(vals)
    if tag in ("f32", "f64") and codec in ("for", "rle", "delta"):
        vals = np.abs(vals)
    p = profile_int(vals)
    payload, meta = INT_CODECS[codec][1](vals, p, tag)
    st = STORAGE_DTYPES[tag]
    for dtype in (np.int64, st):
        native, fallback = _both(
            monkeypatch, lambda: decode_int(codec, payload, meta, n, dtype))
        assert _same(native, fallback)
    assert np.array_equal(decode_int(codec, payload, meta, n), vals)
    typed = int_stream_to_arrow(decode_int(codec, payload, meta, n, st), tag)
    want = int_stream_to_arrow(vals, tag)
    assert typed.type == want.type and len(typed) == len(want)
    # value buffers compared as bytes (float NaN patterns are not equal)
    assert typed.buffers()[1] == want.buffers()[1]


def test_rle_runs_must_add_up(monkeypatch):
    vals = np.array([5, 7, 9], dtype=np.int32)
    for lens_m1, n in (([1, 0, 2], 6), ([1, 0, 2], 7), ([2**63, 0, 0], 3),
                       ([], 0), ([], 1), ([0], 1)):
        v = vals[:len(lens_m1)]
        native, fallback = _both(
            monkeypatch,
            lambda: expand_runs(v, np.array(lens_m1, dtype=np.uint64), n))
        assert _same(native, fallback), (lens_m1, n)
    assert _both(monkeypatch, lambda: expand_runs(
        vals, np.array([1, 0, 2], np.uint64), 7))[0] is ValueError


@pytest.mark.parametrize("width", [1, 2, 3, 7, 8, 9, 13, 16, 31, 33, 57,
                                   58, 63, 64])
def test_match_packed_native_matches_numpy(monkeypatch, width):
    rng = np.random.default_rng(width)
    for n in PACK_COUNTS:
        vals = _values(rng, min(width, 3) if width < 60 else width, n)
        data = _dirty_padding(pack_bits(vals, width), n, width)
        probes = [0, 1, int(vals[0]) if n else 2, (1 << width) - 1]
        if width < 64:
            probes.append(1 << width)  # cannot occur
        for code in probes:
            native, fallback = _both(
                monkeypatch, lambda: match_packed(data, width, n, code))
            assert _same(native, fallback), (n, code)
            assert native.dtype == np.int64
            assert np.array_equal(native,
                                  np.flatnonzero(vals == np.uint64(code)))


@pytest.mark.parametrize("n_runs", [0, 1, 40, 3000])
def test_match_codes_native_matches_numpy(monkeypatch, n_runs):
    """String dictionary codes, bit-packed and RLE: the packed compare
    returns what decoding the codes and comparing gives."""
    from arcade_ray.codecs.str_codecs import (decode_codes, encode_codes,
                                              match_codes)

    rng = np.random.default_rng(n_runs)
    d = 300
    lens = rng.integers(1, 60, n_runs)
    codes = np.repeat(rng.integers(0, d, n_runs), lens)
    for c in (codes, rng.integers(0, d, len(codes))):
        codec, payload, meta = encode_codes(c, d)
        for code in (0, int(c[0]) if len(c) else 5, d - 1, d + 5):
            native, fallback = _both(
                monkeypatch, lambda: match_codes(codec, payload, meta, code))
            assert _same(native, fallback), (codec, code)
            want = np.flatnonzero(decode_codes(codec, payload, meta) == code)
            assert np.array_equal(native, want), (codec, code)
    if n_runs > 1:
        assert encode_codes(codes, d)[0] == "rle"


def test_kernels_never_touch_memory_past_their_buffers():
    """Each payload, dictionary and output buffer is placed so that it
    ends at a page the process may not touch: any access past its end
    faults. Runs in a child process so a fault fails this test instead
    of the session."""
    script = r"""
import ctypes, mmap, sys
import numpy as np
from arcade_ray.bitpack import (match_packed, pack_bits, unpack_bits,
                                unpack_gather)
from arcade_ray.codecs.native import get_lib
lib = get_lib()
if lib is None:
    sys.exit(3)
page = mmap.PAGESIZE
buf = mmap.mmap(-1, 4 * page)  # rw, guard, rw, guard
addr = ctypes.addressof(ctypes.c_char.from_buffer(buf))
libc = ctypes.CDLL(None)
libc.mprotect.argtypes = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int]
assert libc.mprotect(addr + page, page, 0) == 0
assert libc.mprotect(addr + 3 * page, page, 0) == 0
def at_page_end(data, k=0):
    end = (2 * k + 1) * page
    buf[end - len(data):end] = data
    return memoryview(buf)[end - len(data):end], addr + end - len(data)
rng = np.random.default_rng(5)
for width in range(1, 65):
    for n in (1, 2, 7, 8, 9, 15, 100, 321):
        hi = 1 << min(width, 63)
        vals = rng.integers(0, hi, n, dtype=np.uint64)
        view, _ = at_page_end(pack_bits(vals, width))
        assert np.array_equal(unpack_bits(view, width, n), vals)
        assert np.array_equal(unpack_bits(view, width, n, ref=1,
                                          dtype=np.int32),
                              (vals + np.uint64(1)).astype(np.int32))
        got = match_packed(view, width, n, int(vals[-1]))
        assert got[-1] == n - 1
        if width <= 16:
            table = np.arange(1 << width, dtype=np.int64)
            assert np.array_equal(unpack_gather(view, width, n, table), vals)
        view.release()
# the span gather reads and writes exactly the spans' bytes
src, at = at_page_end(bytes(range(40)))
_, out = at_page_end(bytes(25), 1)
starts = np.array([at + 30, at, at + 35], dtype=np.int64)
lens = np.array([10, 10, 5], dtype=np.int64)
lib.arc_gather_spans(starts.ctypes.data, lens.ctypes.data, 3, out)
assert buf[out - addr:out - addr + 25] == \
    bytes(range(30, 40)) + bytes(range(10)) + bytes(range(35, 40))
src.release()
# a code past a dictionary that ends at a guard page is reported, not read
codes, _ = at_page_end(pack_bits(np.array([0, 2, 5], dtype=np.uint64), 3))
_, table = at_page_end(np.arange(3, dtype=np.int32).tobytes(), 1)
out = np.empty(3, dtype=np.int32)
assert lib.arc_unpack_gather(np.frombuffer(codes, np.uint8).ctypes.data, 2,
                             3, 3, table, 3, out.ctypes.data, 4) == 2
codes.release()
# runs longer than the output stop before writing past it
_, out = at_page_end(bytes(12), 1)
vals = np.array([7, 8], dtype=np.int32)
for lens in ([5, 0], [1, 1], [0, 2**62]):
    lens = np.array(lens, dtype=np.uint64)
    got = lib.arc_rle_expand(vals.ctypes.data, lens.ctypes.data, 2, out, 3, 4)
    assert got == -1, (lens, got)
lens = np.array([1, 0], dtype=np.uint64)
assert lib.arc_rle_expand(vals.ctypes.data, lens.ctypes.data, 2, out, 3, 4) == 3
print("ok")
"""
    env = dict(os.environ)
    env.pop("ARCADE_NO_NATIVE", None)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = root + os.pathsep + env.get("PYTHONPATH", "")
    r = subprocess.run([sys.executable, "-c", script], env=env,
                       capture_output=True, text=True, timeout=300)
    if r.returncode == 3:
        pytest.skip("no C compiler in this environment")
    assert r.returncode == 0 and r.stdout.strip() == "ok", \
        (r.returncode, r.stderr[-2000:])


def test_decode_and_query_suites_without_native():
    """The partition round-trip and query-operator suites pass on the
    numpy fallback too. They run in a child pytest with
    ARCADE_NO_NATIVE=1, in its own Ray session, so its Ray workers
    decode without the kernels as well."""
    import arcade_ray.codecs.native as nat

    if os.environ.get("ARCADE_NO_NATIVE") or nat.get_lib() is None:
        pytest.skip("this session already runs on the numpy fallback")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, ARCADE_NO_NATIVE="1")
    r = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_partition_roundtrip.py", "tests/test_query_ops.py"],
        cwd=root, env=env, capture_output=True, text=True, timeout=1200)
    tail = r.stdout[-3000:]
    # judge by the summary line: a Ray teardown hiccup after the summary
    # can still set a non-zero exit code
    summary = [ln for ln in r.stdout.splitlines() if " passed" in ln]
    assert summary and "failed" not in summary[-1] and \
        "error" not in summary[-1], tail


# --- list-column row gather against Arrow's take -----------------------------

LIST_TYPES = [pa.list_(pa.int32()), pa.list_(pa.int64()),
              pa.list_(pa.float32()), pa.large_list(pa.int32())]


def _list_array(typ, lens, seed: int, child_offset: int = 0):
    """A list array of ``typ`` with rows of ``lens`` values; its values
    are a slice at ``child_offset`` of a larger array."""
    rng = np.random.default_rng(seed)
    total = int(np.sum(lens))
    vt = typ.value_type
    if pa.types.is_floating(vt):
        raw = rng.standard_normal(total + child_offset + 3)
    else:
        raw = rng.integers(-2**31, 2**31, total + child_offset + 3)
    values = pa.array(raw, type=vt).slice(child_offset, total)
    large = pa.types.is_large_list(typ)
    cls = pa.LargeListArray if large else pa.ListArray
    offs = pa.array(np.concatenate([[0], np.cumsum(lens)]),
                    pa.int64() if large else pa.int32())
    return cls.from_arrays(offs, values)


def _list_columns(typ):
    rng = np.random.default_rng(7)
    lens = rng.integers(0, 40, 300)
    lens[::7] = 0  # empty lists
    whole = _list_array(typ, lens, 1)
    no_values = pa.Array.from_buffers(  # empty lists, no value buffer
        typ, 3, [None, pa.py_buffer(bytes(
            4 * (8 if pa.types.is_large_list(typ) else 4)))],
        children=[pa.Array.from_buffers(typ.value_type, 0, [None, None])])
    return {
        "whole": whole,
        "sliced": whole.slice(37, 200),
        "child_offset": _list_array(typ, lens[:100], 2, child_offset=11),
        "chunked": pa.chunked_array([whole.slice(0, 50), no_values,
                                     whole.slice(120), whole.slice(0, 0)]),
        "no_values": no_values,
        "zero_rows": whole.slice(300),
    }


def _indices(n: int) -> dict:
    rng = np.random.default_rng(n)
    return {"permutation": rng.permutation(n), "reversed": np.arange(n)[::-1],
            "repeated": rng.integers(0, n, 2 * n) if n else np.arange(0),
            "none": np.arange(0)}


@pytest.mark.parametrize("typ", LIST_TYPES, ids=str)
def test_list_gather_matches_arrow_take(kernel_mode, typ):
    """``exchange.take_rows`` equals ``pa.Table.take`` on list columns
    of every fixed-width kind, sliced parents and children, chunked
    columns, empty lists and zero rows; the list gather (not Arrow)
    moves the list column."""
    from arcade_ray.codecs.native import gather_lists
    from arcade_ray.exchange import take_rows

    for name, col in _list_columns(typ).items():
        n = len(col)
        table = pa.table({"tokens": col,
                          "row": pa.array(np.arange(n), pa.int64())})
        for how, idx in _indices(n).items():
            idx = np.asarray(idx, dtype=np.int64)
            want = table.take(pa.array(idx, pa.int64()))
            got = take_rows(table, idx)
            assert got.schema == want.schema, (name, how)
            assert got.equals(want), (name, how)
            direct = gather_lists(col, idx)
            assert direct is not None and direct.type == col.type
            assert direct.equals(want["tokens"].combine_chunks()), (name, how)


@pytest.mark.parametrize("rows", [
    [[1, 2], None, [], [3, 4, 5], None],       # null lists
    [[1, None], [2], [], [None, None, 3]],     # null values
], ids=["null_lists", "null_values"])
def test_list_gather_nulls_fall_back(kernel_mode, rows):
    """Nulls at either level leave the column to Arrow's take, which
    keeps the validity."""
    from arcade_ray.codecs.native import gather_lists
    from arcade_ray.exchange import take_rows

    col = pa.array(rows, pa.list_(pa.int32()))
    idx = np.array([3, 0, 1, 2, 1][:len(rows)], dtype=np.int64)
    assert gather_lists(col, idx) is None
    table = pa.table({"tokens": col})
    got = take_rows(table, idx)
    assert got.equals(table.take(pa.array(idx)))
    assert got["tokens"].to_pylist() == [rows[i] for i in idx]


# --- profiling against the eager, sort-based profile ------------------------


def _golden_lists_stream() -> np.ndarray:
    """The token stream of the golden ``lists`` table: 256 narrow values
    and 2**31 - 1 at every 997th position, 257 distinct values."""
    from test_golden_bytes import _tables

    return _tables()["lists"]["tokens"].combine_chunks().values \
        .to_numpy().astype(np.int64)


def _profile_streams() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(31)
    wide = rng.integers(-(1 << 40), 1 << 40, 8000)
    return {
        "golden_lists": _golden_lists_stream(),
        "random": rng.integers(0, 2**31 - 1, 200_000),
        "wide_8000": wide[rng.integers(0, len(wide), 200_000)],
        "runs": np.repeat(rng.integers(0, 2**40, 3000),
                          rng.integers(1, 60, 3000)),
        "int64_extremes": rng.choice(np.array([-2**63, -1, 0, 2**63 - 1]),
                                     5000),
        "one": np.array([2**31 - 1]),
    }


def _oracle_profile(vals: np.ndarray):
    change = np.empty(len(vals), dtype=bool)
    change[:1] = True
    np.not_equal(vals[1:], vals[:-1], out=change[1:])
    return np.unique(vals), np.flatnonzero(change)


@pytest.mark.parametrize("name", sorted(_profile_streams()))
def test_profile_matches_sort_unique(name):
    """profile_int's distinct set and run count, whichever of hash or
    sort finds the set, equal the sort-based eager profile's; hash and
    sort agree on the stream themselves."""
    from arcade_ray.profile import hash_unique, profile_int

    vals = _profile_streams()[name]
    unique, starts = _oracle_profile(vals)
    p = profile_int(vals)
    assert np.array_equal(p.unique, unique) and p.unique.dtype == np.int64
    assert p.n_distinct == len(unique)
    assert p.n_runs == len(starts)
    assert np.array_equal(hash_unique(vals), unique)


def test_profile_hashes_the_golden_stream(monkeypatch):
    """The 257-value stream takes the hash path, a high-cardinality
    stream the sort."""
    import arcade_ray.profile as prof

    hashed = []
    real = prof.hash_unique
    monkeypatch.setattr(prof, "hash_unique",
                        lambda v: hashed.append(len(v)) or real(v))
    streams = _profile_streams()
    prof.profile_int(streams["golden_lists"])
    assert hashed == [len(streams["golden_lists"])]
    prof.profile_int(streams["random"])
    assert len(hashed) == 1


@pytest.mark.parametrize("name", ["golden_lists", "runs", "int64_extremes"])
def test_rle_lazy_run_starts(name):
    """RLE builds its run starts when it is encoded: the same starts as
    the eager profile built, one per counted run, and the same
    stream back."""
    from arcade_ray.codecs.int_codecs import INT_CODECS, decode_int
    from arcade_ray.profile import profile_int, run_starts

    vals = _profile_streams()[name]
    _, eager = _oracle_profile(vals)
    assert np.array_equal(run_starts(vals), eager)
    p = profile_int(vals)
    assert p.n_runs == len(eager)
    payload, meta = INT_CODECS["rle"][1](vals, p, "i64")
    assert meta["r"] == len(eager)
    assert np.array_equal(decode_int("rle", payload, meta, len(vals)), vals)
