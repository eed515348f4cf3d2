"""Write-path kernels against their straightforward predecessors.

Each oracle below is the plain implementation the engine used before
its kernel was vectorised: the ``collections.Counter`` FSST table
build, the n x width bit-matrix ``pack_bits`` and the binary-search
dictionary codes. The fast kernels must give exactly the same output,
because every one of them decides stored bytes.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from arcade_ray.bitpack import pack_bits
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


@pytest.fixture(params=["native", "numpy"])
def fsst_mode(request, monkeypatch):
    import arcade_ray.codecs.native as nat

    if request.param == "numpy":
        monkeypatch.setenv("ARCADE_NO_NATIVE", "1")
    else:
        monkeypatch.delenv("ARCADE_NO_NATIVE", raising=False)
    monkeypatch.setattr(nat, "_tried", False)
    monkeypatch.setattr(nat, "_lib", None)
    if request.param == "native" and nat.get_lib() is None:
        pytest.skip("no C compiler in this environment")
    return request.param


@pytest.mark.parametrize("name", sorted(_fsst_inputs()))
def test_symbol_table_matches_counter_oracle(fsst_mode, name):
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
