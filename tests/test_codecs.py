"""Codec round-trip and cost-model tests (no Ray needed).

Covers SURVEY.md §5.2 items 1-2: bit-identical round trips on edge
shapes including the reference's dictionary-width bug zone
(255/256/65535/65536/65537 distincts, src/writer.cpp:198-252), and
constructed inputs whose winning codec is known analytically.
"""

import numpy as np
import pytest

from arcade_ray.codecs import fsst
from arcade_ray.codecs.int_codecs import INT_CODECS, choose_int_codec, decode_int
from arcade_ray.codecs.str_codecs import choose_str_codec, decode_str
from arcade_ray.profile import profile_int, profile_str
from arcade_ray.streams import str_stream_from_arrow, str_stream_to_arrow

RNG = np.random.default_rng(42)


def roundtrip_int(vals, tag="i64", expect=None):
    vals = np.asarray(vals, dtype=np.int64)
    p = profile_int(vals)
    name, payload, meta = choose_int_codec(vals, p, tag)
    out = decode_int(name, payload, meta, len(vals))
    np.testing.assert_array_equal(out, vals)
    if expect is not None:
        assert name == expect, f"expected {expect}, cost model chose {name}"
    return name, len(payload)


INT_CASES = [
    np.array([], dtype=np.int64),
    np.array([7]),
    np.zeros(1000, dtype=np.int64),
    np.full(1000, -5),
    np.arange(65537),
    np.array([0, 2**31 - 1, -(2**31), 1, 1, 1]),
    np.array([-(2**63), 2**63 - 1, 0]),          # full int64 range
    RNG.integers(0, 256, 5000),
    RNG.integers(50_000, 51_024, 5000),
    np.repeat(RNG.integers(0, 100, 50), RNG.integers(1, 64, 50)),
]


@pytest.mark.parametrize("vals", INT_CASES, ids=range(len(INT_CASES)))
def test_int_roundtrip_all_codecs(vals):
    vals = np.asarray(vals, dtype=np.int64)
    p = profile_int(vals)
    for name, (est, enc, dec) in INT_CODECS.items():
        if name == "alp":
            continue  # float-tag only (raises on int streams); TestAlp covers it
        if name == "gp" and len(vals) == 0:
            continue
        if name in ("bitpack",) and len(vals) and vals.min() < 0:
            continue
        if name == "dict" and len(vals) == 0:
            continue
        payload, meta = enc(vals, p, "i64")
        out = dec(payload, meta, len(vals))
        np.testing.assert_array_equal(out, vals)


def test_int_estimates_exact():
    """Closed-form estimates equal actual payload bytes (snappy exempt)."""
    for vals in INT_CASES:
        vals = np.asarray(vals, dtype=np.int64)
        if not len(vals):
            continue
        p = profile_int(vals)
        for name in ("plain", "bitpack", "for", "rle", "dict"):
            est_fn, enc_fn, _ = INT_CODECS[name]
            est = est_fn(p, "i64")
            if est is None:
                continue
            payload, _ = enc_fn(vals, p, "i64")
            assert len(payload) <= est, (name, len(payload), est)


class TestCostModel:
    def test_all_equal_constant(self):
        # all-equal: FoR degenerates to a width-0 constant chunk (the
        # reference's broken constant path src/process.cpp:472-478 done
        # properly) — 0 payload bytes beats RLE's one run.
        name, nbytes = roundtrip_int(np.full(10_000, 123456))
        assert name in ("for", "rle")
        assert nbytes <= 16

    def test_runs_rle(self):
        vals = np.repeat(RNG.integers(0, 1000, 200), 50)
        roundtrip_int(vals, expect="rle")

    def test_narrow_bitpack(self):
        vals = RNG.integers(0, 256, 65535)
        name, nbytes = roundtrip_int(vals)
        assert name in ("bitpack", "for")
        assert nbytes <= 65535  # 8 bits/value

    def test_clustered_for(self):
        vals = RNG.integers(5_000_000, 5_000_000 + 1024, 65535)
        name, nbytes = roundtrip_int(vals, expect="for")
        assert nbytes <= 65535 * 10 // 8 + 16

    def test_zipf_dict(self):
        # values sparse over a huge range, few distincts -> dict
        base = RNG.integers(0, 2**60, 300)
        vals = base[RNG.integers(0, 300, 65535)]
        roundtrip_int(vals, expect="dict")

    def test_random_wide(self):
        vals = RNG.integers(0, 2**31, 65535).astype(np.int64)
        name, nbytes = roundtrip_int(vals, "i32")
        assert nbytes <= 65535 * 4  # never worse than plain int32

    def test_plain_gate_mirrors_reference(self):
        """distinct/rows > 0.80 -> dict not considered (src/writer.cpp:63)."""
        from arcade_ray.codecs.int_codecs import _dict_est

        vals = np.arange(1000) * 1000  # all distinct
        assert _dict_est(profile_int(vals), "i64") is None


# --- string codecs ----------------------------------------------------------

def mkstr(values):
    import pyarrow as pa

    arr = pa.array(values, type=pa.string())
    lengths, data, _ = str_stream_from_arrow(arr)
    return lengths, data


def roundtrip_str(values, expect=None):
    lengths, data = mkstr(values)
    name, payload, meta = choose_str_codec(lengths, data)
    out_lengths, out_data = decode_str(name, payload, meta, len(lengths))
    arr = str_stream_to_arrow(out_lengths, out_data, "str")
    assert arr.to_pylist() == values
    if expect:
        assert name == expect, f"expected {expect}, got {name}"
    return name, len(payload)


STR_CASES = [
    [],
    [""],
    ["", "", ""],
    ["a"],
    ["hello world"] * 1000,
    [f"src-{i % 7:03d}" for i in range(5000)],
    [f"doc:{i:012d}" for i in range(2000)],          # all distinct, shared prefix
    ["α", "β", "ΑΒΓαβγ", "", "x" * 10000],
    [chr(i % 1114000) for i in range(0, 5000, 7)],
]


@pytest.mark.parametrize("vals", STR_CASES, ids=range(len(STR_CASES)))
def test_str_roundtrip(vals):
    roundtrip_str(vals)


@pytest.mark.parametrize("d", [255, 256, 65535, 65536, 65537])
def test_dict_width_boundaries(d):
    """The reference mis-handles ==65536 dict entries
    (src/writer.cpp:198,217,235 — no branch); we must be exact. Forces
    the dict codec (the cost model may legitimately prefer snappy on
    this synthetic shape)."""
    from arcade_ray.codecs.str_codecs import _dict_dec, _dict_enc

    values = [f"v{i:06d}" for i in range(d)] * 2
    lengths, data = mkstr(values)
    p = profile_str(lengths, data)
    payload, meta = _dict_enc(lengths, data, p)
    out_lengths, out_data = _dict_dec(payload, meta, len(lengths))
    arr = str_stream_to_arrow(out_lengths, out_data, "str")
    assert arr.to_pylist() == values


def test_low_cardinality_dict_rle():
    values = ["R"] * 30000 + ["A"] * 20000 + ["N"] * 10000
    name, nbytes = roundtrip_str(values, expect="dict")
    assert nbytes < 200  # runs collapse


def test_fsst_roundtrip_direct():
    data = ("the quick brown fox jumps over the lazy dog " * 500).encode()
    tbl, enc = fsst.compress(data)
    assert fsst.decompress(tbl, enc) == data
    assert len(enc) + len(tbl) < len(data) * 0.55


def test_fsst_binary_safe():
    data = bytes(RNG.integers(0, 256, 4096, dtype=np.uint8))
    tbl, enc = fsst.compress(data)
    assert fsst.decompress(tbl, enc) == data


def test_fsst_empty():
    tbl, enc = fsst.compress(b"")
    assert fsst.decompress(tbl, enc) == b""


class TestDeltaCodec:
    def test_sorted_ids_choose_delta(self):
        import numpy as np

        from arcade_ray.codecs.int_codecs import choose_int_codec, decode_int
        from arcade_ray.profile import profile_int

        vals = (10**10 + np.cumsum(
            np.random.default_rng(1).integers(0, 4, 50_000))).astype(np.int64)
        p = profile_int(vals)
        codec, payload, meta = choose_int_codec(vals, p, "i64")
        assert codec == "delta"
        assert len(payload) < 0.05 * 8 * len(vals)  # 2-bit diffs vs 8 B plain
        assert np.array_equal(decode_int(codec, payload, meta, len(vals)), vals)

    def test_random_values_reject_delta(self):
        import numpy as np

        from arcade_ray.codecs.int_codecs import choose_int_codec
        from arcade_ray.profile import profile_int

        vals = np.random.default_rng(2).integers(0, 2**40, 10_000).astype(np.int64)
        p = profile_int(vals)
        codec, _, _ = choose_int_codec(vals, p, "i64")
        assert codec != "delta"

    def test_delta_extreme_span_roundtrip(self):
        import numpy as np

        from arcade_ray.codecs.int_codecs import INT_CODECS
        from arcade_ray.profile import profile_int

        vals = np.array([-(2**63), 2**63 - 1, 0, -1], dtype=np.int64)
        p = profile_int(vals)
        assert p.dmin is None  # span too wide for diff stats
        _, enc, dec = INT_CODECS["delta"]
        payload, meta = enc(vals, p, "i64")
        assert np.array_equal(dec(payload, meta, len(vals)), vals)


def test_fsst_vec_throughput_microbench():
    """Guard the lazy-match walk's throughput (round-2 known gap: the
    old full-stream match precompute measured ~5 MB/s on this corpus
    shape; the lazy walk with sort-assembled emission 15-23 MB/s; the
    scatter-emission rewrite + per-segment window precompute +
    short-code table + hashed 3-byte-prefix groups measured 1.43x
    that in an interleaved A/B — 24-26 MB/s on the sf0.1 text sample,
    byte-identical output). The floor is deliberately far below
    measurement — the host is multi-tenant — but catches an
    accidental return to per-byte or full-precompute behavior."""
    import time

    import numpy as np

    from arcade_ray.codecs import fsst_vec
    from arcade_ray.codecs.fsst import (build_symbol_table, decompress,
                                        serialize_table)

    rng = np.random.default_rng(0)
    words = [b"the", b"quick", b"brown", b"fox", b"jumps", b"over",
             b"machine", b"learning", b"data", b"pipeline", b"tokens"]
    data = b" ".join(words[rng.integers(0, len(words))]
                     for _ in range(200_000))
    symbols = build_symbol_table(data[:65536])
    fsst_vec.encode_stream(data[:65536], symbols)  # warm
    t0 = time.perf_counter()
    enc = fsst_vec.encode_stream(data, symbols)
    mbps = len(data) / 1e6 / (time.perf_counter() - t0)
    assert decompress(serialize_table(symbols), enc) == data
    assert len(enc) < 0.3 * len(data)  # compresses word-heavy text
    assert mbps > 2.0, f"FSST vec walk regressed to {mbps:.1f} MB/s"


def fsst_scalar_encode(data: bytes, symbols: list[bytes]) -> bytes:
    """Reference FSST encoder: a per-byte greedy longest-match walk,
    writing (FSST_ESCAPE, byte) where no symbol matches."""
    from arcade_ray.constants import FSST_ESCAPE

    table = {s: i for i, s in enumerate(symbols)}
    maxlen = bytearray(256)
    for s in symbols:
        maxlen[s[0]] = max(maxlen[s[0]], len(s))
    out = bytearray()
    pos, n = 0, len(data)
    while pos < n:
        ln = min(maxlen[data[pos]], n - pos)
        while ln and data[pos:pos + ln] not in table:
            ln -= 1
        if ln:
            out.append(table[data[pos:pos + ln]])
        else:
            out += bytes((FSST_ESCAPE, data[pos]))
            ln = 1
        pos += ln
    return bytes(out)


class TestFsstNative:
    """C kernel (codecs/native.py): true-greedy parity with the scalar
    reference encoder, fallback equivalence, binary safety."""

    def _reset(self, monkeypatch, disable: bool):
        import arcade_ray.codecs.native as nat

        if disable:
            monkeypatch.setenv("ARCADE_NO_NATIVE", "1")
        else:
            monkeypatch.delenv("ARCADE_NO_NATIVE", raising=False)
        monkeypatch.setattr(nat, "_tried", False)
        monkeypatch.setattr(nat, "_lib", None)
        return nat

    def test_native_matches_scalar_greedy(self, monkeypatch):
        nat = self._reset(monkeypatch, disable=False)
        if nat.get_lib() is None:
            pytest.skip("no C compiler in this environment")
        from arcade_ray.codecs.fsst import build_symbol_table
        from arcade_ray.codecs.fsst_vec import _Matcher

        rng = np.random.default_rng(7)
        words = [b"alpha", b"beta", b"gamma", b"delta", b"epsilon", b"zeta"]
        data = b"-".join(words[rng.integers(0, len(words))]
                         for _ in range(20_000))
        symbols = build_symbol_table(data[:32768])
        enc = nat.encode_native(data, _Matcher(symbols))
        # true greedy: byte-identical to the scalar walk
        assert enc == fsst_scalar_encode(data, symbols)

    def test_native_binary_fuzz_roundtrip(self, monkeypatch):
        nat = self._reset(monkeypatch, disable=False)
        if nat.get_lib() is None:
            pytest.skip("no C compiler in this environment")
        from arcade_ray.codecs.fsst import (build_symbol_table, decompress,
                                            serialize_table)
        from arcade_ray.codecs.fsst_vec import _Matcher

        for seed in range(8):
            rng = np.random.default_rng(seed)
            raw = rng.integers(0, 256, int(rng.integers(1, 9000)),
                               dtype=np.uint8).tobytes()
            symbols = build_symbol_table(raw[:8192])
            enc = nat.encode_native(raw, _Matcher(symbols))
            assert enc == fsst_scalar_encode(raw, symbols), seed
            assert decompress(serialize_table(symbols), enc) == raw, seed

    def test_numpy_fallback_still_roundtrips(self, monkeypatch):
        """With the kernel disabled, the block-parallel numpy walk and
        the Python decode loop carry the full path."""
        self._reset(monkeypatch, disable=True)
        from arcade_ray.codecs.fsst import compress, decompress

        data = (b"fallback path exercise " * 800)[:17_001]
        tbl, enc = compress(data)
        assert decompress(tbl, enc) == data

    def test_decode_native_matches_python(self, monkeypatch):
        nat = self._reset(monkeypatch, disable=False)
        if nat.get_lib() is None:
            pytest.skip("no C compiler in this environment")
        from arcade_ray.codecs.fsst import build_symbol_table, compress

        data = (b"the quick brown fox jumps over the lazy dog " * 400)
        symbols = build_symbol_table(data[:16384])
        tbl, enc = compress(data, symbols)
        got = nat.decode_native(enc, symbols)
        assert got == data

    def test_decode_truncated_dangling_escape(self, monkeypatch):
        """A corrupted stream whose last byte is the escape (255) must
        not read past the buffer: C and Python decodes both drop the
        dangling escape."""
        nat = self._reset(monkeypatch, disable=False)
        from arcade_ray.codecs.fsst import build_symbol_table, compress

        data = (b"dangling escape corpus " * 400)
        symbols = build_symbol_table(data[:8192])
        _, enc = compress(data, symbols)
        bad = enc[:5000] + b"\xff"  # truncate + dangling escape
        # python fallback
        monkeypatch.setenv("ARCADE_NO_NATIVE", "1")
        monkeypatch.setattr(nat, "_tried", False)
        monkeypatch.setattr(nat, "_lib", None)
        from arcade_ray.codecs.fsst import decompress, serialize_table
        py = decompress(serialize_table(symbols), bad)
        monkeypatch.delenv("ARCADE_NO_NATIVE")
        monkeypatch.setattr(nat, "_tried", False)
        monkeypatch.setattr(nat, "_lib", None)
        if nat.get_lib() is None:
            pytest.skip("no C compiler in this environment")
        cd = nat.decode_native(bad, symbols)
        assert cd == py


class TestAlp:
    """ALP decimal-float codec (Afroozeh et al., SIGMOD'23 pattern):
    scale-to-int when bit-identical, patch exceptions."""

    @staticmethod
    def _stream(f, typ="f64"):
        import pyarrow as pa

        from arcade_ray.streams import int_stream_from_arrow

        t = pa.float64() if typ == "f64" else pa.float32()
        return int_stream_from_arrow(pa.array(f, type=t))

    def _roundtrip(self, f, typ="f64"):
        vals, tag = self._stream(f, typ)
        p = profile_int(vals)
        name, pay, meta = choose_int_codec(vals, p, tag)
        out = decode_int(name, pay, meta, p.n)
        np.testing.assert_array_equal(out, vals)
        return name, len(pay), p

    def test_two_decimal_prices_choose_alp(self):
        rng = np.random.default_rng(11)
        prices = np.round(rng.uniform(900.0, 105000.0, 20000), 2)
        name, nbytes, p = self._roundtrip(prices)
        assert name == "alp"
        assert nbytes < 0.5 * p.n * 8  # far below plain float64

    def test_exceptions_patched_bit_identical(self):
        rng = np.random.default_rng(13)
        f = np.round(rng.uniform(0.0, 100.0, 5000), 2)
        f[::71] = np.nan          # quiet NaN
        f[3] = np.inf
        f[4] = -np.inf
        f[5] = -0.0               # sign lost by round-trip through int 0
        f[6] = np.pi              # true real
        name, _, _ = self._roundtrip(f)
        assert name == "alp"

    def test_true_reals_rejected(self):
        rng = np.random.default_rng(17)
        name, _, _ = self._roundtrip(rng.standard_normal(20000))
        assert name != "alp"

    def test_f32_decimal(self):
        rng = np.random.default_rng(19)
        f = np.round(rng.uniform(0, 500, 20000), 2).astype(np.float32)
        name, nbytes, p = self._roundtrip(f, "f32")
        assert name == "alp"
        assert nbytes < 0.8 * p.n * 4

    def test_f32_random_rejected(self):
        rng = np.random.default_rng(23)
        name, _, _ = self._roundtrip(
            rng.standard_normal(20000).astype(np.float32), "f32")
        assert name != "alp"

    def test_integer_valued_doubles(self):
        rng = np.random.default_rng(29)
        f = rng.integers(0, 10**9, 20000).astype(np.float64)
        name, nbytes, p = self._roundtrip(f)
        # e=0 viable; alp or dict/gp may win on bytes — whatever is
        # chosen must round-trip (asserted in _roundtrip) and beat plain
        assert nbytes < p.n * 8

    def test_all_exceptional_rejected(self):
        f = np.full(2000, np.nan)
        name, _, _ = self._roundtrip(f)
        assert name != "alp"

    def test_direct_enc_raises_on_nondecimal(self):
        vals, tag = self._stream(np.random.default_rng(31).standard_normal(1000))
        with pytest.raises(ValueError):
            INT_CODECS["alp"][1](vals, profile_int(vals), tag)

    def test_hypothesis_style_sweep(self):
        rng = np.random.default_rng(37)
        for e in (0, 1, 2, 4, 7):
            for n in (16, 17, 1023, 1024, 5000):
                f = np.round(rng.uniform(-1000, 1000, n), e)
                k = rng.integers(0, n, max(1, n // 100))
                f[k] = rng.standard_normal(len(k)) * 1e-7  # sparse reals
                self._roundtrip(f)
