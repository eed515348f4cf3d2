"""Span decode of ``list<int>`` chunks under a row selection.

``ColumnDecoder.decode(desc, payload, sel)`` decodes every list length,
then only the values from the first selected row's offset to the end of
the last selected row (``int_codecs.decode_int_span``), and takes the
selected rows out of that span. Its result must equal a full decode
followed by ``take``, for every codec, width and selection shape, with
the C kernels and with the numpy fallback (ARCADE_NO_NATIVE=1).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from arcade_ray.codecs import int_codecs
from arcade_ray.codecs.int_codecs import INT_CODECS
from arcade_ray.column import ColumnDecoder
from arcade_ray.profile import profile_int

N_ROWS = 97
# "zw:<codec>": the codec's payload wrapped in zstd (meta ``_zw``), the
# pack-then-zstd form choose_int_codec writes when it saves bytes
CODECS = ["plain", "bitpack", "for", "dict", "rle", "delta", "gp",
          "zw:for", "zw:dict"]


def _values(rng, codec: str, width: int, n: int) -> np.ndarray:
    """``n`` int64 values of ``width`` bits (two's complement at 64),
    shaped so ``codec`` applies: runs for rle, a small pool for dict."""
    def draw(k):
        if width == 0:
            return np.zeros(k, dtype=np.int64)
        u = rng.integers(0, 1 << 63, k, dtype=np.uint64) \
            >> np.uint64(63 - min(width, 63))
        if width == 64:
            u = u * np.uint64(2) + rng.integers(0, 2, k, dtype=np.uint64)
        return u.view(np.int64)

    if codec == "dict":
        pool = np.unique(draw(min(1 << min(width, 20), 5 * width + 1)))
        return pool[rng.integers(0, len(pool), n)]
    if codec == "rle":
        return np.repeat(draw(-(-n // 5)), 5)[:n]
    return draw(n)


def _chunk(codec: str, width: int, seed: int):
    """-> (desc, payload, lengths) of one ``list<int64>`` chunk whose
    values stream is encoded with ``codec`` (``zw:`` = zstd-wrapped)."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(0, 9, N_ROWS).astype(np.int64)
    lengths[rng.integers(0, N_ROWS, 12)] = 0  # empty lists
    lengths[0] = 3
    lengths[-1] = 5
    name = codec.split(":")[-1]
    vals = _values(rng, name, width, int(lengths.sum()))
    lpay, lmeta = INT_CODECS["plain"][1](lengths, profile_int(lengths), "i64")
    vpay, vmeta = INT_CODECS[name][1](vals, profile_int(vals), "i64")
    if codec.startswith("zw:"):
        vmeta = dict(vmeta, _zw=len(vpay))
        vpay = pa.Codec("zstd", 1).compress(vpay).to_pybytes()
    desc = {"lengths": {"codec": "plain", "meta": lmeta, "n": N_ROWS},
            "values": {"codec": name, "meta": vmeta, "n": len(vals)},
            "vlen": len(lpay)}
    return desc, lpay + vpay, lengths


def _selections(lengths: np.ndarray, rng) -> dict[str, np.ndarray]:
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    off8 = [i for i in range(1, N_ROWS - 1)
            if offsets[i] % 8 and lengths[i]]
    empty = [i for i in range(N_ROWS) if not lengths[i]]
    scattered = np.unique(rng.integers(1, N_ROWS, 15))
    if offsets[scattered[0]] % 8 == 0:
        scattered = np.concatenate([[off8[0]], scattered[scattered > off8[0]]])
    return {
        "one_row": np.array([off8[len(off8) // 2]]),
        "scattered": scattered,
        "first_row": np.array([0]),
        "last_row": np.array([N_ROWS - 1]),
        "empty_list": np.array([empty[0]]),
        "from_empty_list": np.array([empty[-1], N_ROWS - 1]),
        "all_rows": np.arange(N_ROWS),
    }


@pytest.mark.parametrize("codec", CODECS)
def test_span_decode_equals_full_decode_and_take(kernel_mode, codec):
    dec = ColumnDecoder({"kind": "list", "tag": "list", "elem_tag": "i64"})
    for width in range(65):
        if codec == "bitpack" and width == 64:
            continue  # bitpack holds non-negative int64 values only
        desc, payload, lengths = _chunk(codec, width, seed=width)
        full = dec.decode(desc, payload)
        assert full.type == pa.list_(pa.int64())
        sels = _selections(lengths, np.random.default_rng(width + 1))
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        assert offsets[sels["one_row"][0]] % 8
        assert offsets[sels["scattered"][0]] % 8
        for what, sel in sels.items():
            got = dec.decode(desc, payload, sel=sel)
            want = full.take(pa.array(sel, type=pa.int64()))
            assert got.type == want.type, (width, what)
            assert got.equals(want), (width, what)


@pytest.mark.parametrize("tag", ["i32", "u32", "i16"])
def test_span_decode_narrow_element_types(kernel_mode, tag):
    """Narrow element types: the plain span starts at ``start * itemsize``
    bytes, and FoR/dict write the storage dtype directly."""
    from arcade_ray.streams import tag_type

    rng = np.random.default_rng(7)
    lengths = rng.integers(0, 6, N_ROWS).astype(np.int64)
    lo, hi = (0, 60_000) if tag == "u32" else (-3000, 3000)
    vals = rng.integers(lo, hi, int(lengths.sum()))
    dec = ColumnDecoder({"kind": "list", "tag": "list", "elem_tag": tag})
    lpay, lmeta = INT_CODECS["plain"][1](lengths, profile_int(lengths), "i64")
    for codec in ("plain", "for", "dict"):
        v = vals if codec != "dict" else vals % 37
        vpay, vmeta = INT_CODECS[codec][1](v, profile_int(v), tag)
        desc = {"lengths": {"codec": "plain", "meta": lmeta, "n": N_ROWS},
                "values": {"codec": codec, "meta": vmeta, "n": len(v)},
                "vlen": len(lpay)}
        full = dec.decode(desc, lpay + vpay)
        assert full.type == pa.list_(tag_type(tag))
        for sel in _selections(lengths, rng).values():
            got = dec.decode(desc, lpay + vpay, sel=sel)
            assert got.equals(full.take(pa.array(sel, type=pa.int64()))), \
                (codec, sel)


def test_span_decode_unpacks_only_the_span(monkeypatch):
    """A one-row selection in a bit-packed chunk unpacks that row's
    values plus at most 7 before them, not the whole stream."""
    counts = []
    real = int_codecs.unpack_bits

    def spy(data, width, count, *a, **k):
        counts.append(count)
        return real(data, width, count, *a, **k)

    monkeypatch.setattr(int_codecs, "unpack_bits", spy)
    desc, payload, lengths = _chunk("bitpack", 13, seed=5)
    sel = _selections(lengths, np.random.default_rng(6))["one_row"]
    dec = ColumnDecoder({"kind": "list", "tag": "list", "elem_tag": "i64"})
    got = dec.decode(desc, payload, sel=sel)
    assert counts == [int(lengths[sel[0]]) + int(lengths[:sel[0]].sum()) % 8]
    assert desc["values"]["n"] > 100
    assert got.equals(dec.decode(desc, payload).take(pa.array(sel)))
