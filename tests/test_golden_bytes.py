"""Golden bytes: ``encode_partition`` output pinned on fixed seeded tables.

The write-path kernels (FSST table training, dictionary codes, bit
packing) may be rewritten for speed, but never for output: every
partition file must stay byte-identical. The tables below reach every
integer codec (plain, bitpack, for, delta, rle, dict, gp, alp and
pack-then-zstd) and every string path (plain, gp, fsst; local and diff
dictionaries with bit-packed and RLE codes). The expected sizes and
CRCs are literals, so a kernel change that moves a single byte fails.

FSST streams differ between the native C encoder (true greedy) and the
numpy fallback (block-parallel greedy), and the FSST gate differs too
(``str_codecs.FSST_WIN_FACTOR``), so each table is pinned twice.
"""

from __future__ import annotations

import functools
import zlib

import numpy as np
import pyarrow as pa
import pytest

from arcade_ray.format import encode_partition, read_header

# table -> (enc_bytes, payload crc32, whole-file crc32)
GOLDEN = {
    "native": {
        "dicts": (81872, 2583812016, 4139366035),
        "ints": (96845, 460302475, 373620751),
        "lists": (346193, 3288480490, 1385484271),
        "medium": (8566, 3977729688, 4132275806),
        "small": (2252, 2794321948, 1666435370),
        "strings": (77046, 1017881164, 1439502705),
    },
    "numpy": {
        "dicts": (81872, 2583812016, 4139366035),
        "ints": (96845, 460302475, 373620751),
        "lists": (346193, 3288480490, 1385484271),
        "medium": (8569, 151871830, 4274024594),
        "small": (2252, 2794321948, 1666435370),
        "strings": (76924, 3302549148, 445362436),
    },
}

REQUIRED_PATHS = {
    "int:plain", "int:bitpack", "int:for", "int:delta", "int:rle",
    "int:dict", "int:gp", "int:alp", "int:zw",
    "str:plain", "str:gp", "str:fsst",
    "str:local", "str:diff", "codes:bitpack", "codes:rle",
}


def _concat_words(rng, vocab, n, lo, hi):
    idx = rng.integers(0, len(vocab), size=(n, hi))
    k = rng.integers(lo, hi + 1, size=n)
    return ["".join(vocab[j] for j in idx[i, :k[i]]) for i in range(n)]


@functools.lru_cache(maxsize=None)
def _tables() -> dict[str, pa.Table]:
    rng = np.random.default_rng(20261017)
    n = 6000
    tiled = rng.integers(0, 1 << 40, 100)
    out = {}
    out["ints"] = pa.table({
        "i_plain": rng.integers(-(1 << 62), 1 << 62, n),
        "i_bitpack": rng.integers(0, 1000, n),
        "i_for": rng.integers(10**12, 10**12 + 1000, n),
        "i_delta": 10**15 + np.cumsum(rng.integers(1, 100, n)),
        "i_rle": np.repeat(rng.integers(-(1 << 40), 1 << 40, n // 50), 50),
        "i_dict": rng.choice(rng.integers(-(1 << 50), 1 << 50, 60), n),
        "i_gp": np.tile(tiled, n // 100),
        "i_zw": pa.array(np.clip(np.round(np.exp(rng.normal(5, 1, n))),
                                 1, 8192).astype(np.int32)),
        "f_alp": np.round(rng.uniform(0, 1000, n), 2),
    })
    # 200 random 4-letter tokens: FSST codes a token per byte, zstd-1
    # cannot (matches are too short, letters too many)
    vocab = [bytes(rng.integers(97, 123, 4, dtype=np.uint8)).decode()
             for _ in range(200)]
    out["strings"] = pa.table({
        "s_plain": [bytes(rng.integers(0, 256, int(rng.integers(0, 12)),
                                       dtype=np.uint8)) for _ in range(n)],
        "s_gp": [f"doc-{i:08d}" for i in range(n)],
        "s_fsst": _concat_words(rng, vocab, n, 2, 6),  # > FSST sample
    })
    pairs = rng.choice(1600, 450, replace=False)  # < 4096 B, all distinct
    out["small"] = pa.table(
        {"s_small": [vocab[p // 40] + vocab[p % 40] for p in pairs]})
    out["medium"] = pa.table(  # <= FSST sample: estimate sees it all
        {"s_fsst_medium": _concat_words(rng, vocab, 2000, 1, 4)})
    rows = 70_000  # two row chunks: a local then a diff dictionary
    labels = [f"label-{i:04d}" for i in range(400)]
    d_bitpack = [labels[j] for j in rng.integers(0, 300, rows)]
    d_bitpack[-10:] = labels[390:400]
    d_rle = [labels[j] for j in np.sort(rng.integers(0, 400, rows))]
    out["dicts"] = pa.table({"d_bitpack": d_bitpack, "d_rle": d_rle})
    lens = rng.integers(0, 200, 3000)
    flat = rng.integers(0, 256, int(lens.sum()))
    flat[::997] = 2**31 - 1  # 257 distinct values spanning 2^31
    offs = np.concatenate([[0], np.cumsum(lens)])
    out["lists"] = pa.table({
        "tokens": pa.ListArray.from_arrays(pa.array(offs, pa.int32()),
                                           pa.array(flat, pa.int32())),
        "n_tok": pa.array(lens, pa.int32()),
    })
    return out


@pytest.fixture(params=["native", "numpy"])
def fsst_mode(request, monkeypatch):
    import arcade_ray.codecs.native as nat
    import arcade_ray.codecs.str_codecs as sc

    if request.param == "numpy":
        monkeypatch.setenv("ARCADE_NO_NATIVE", "1")
    else:
        monkeypatch.delenv("ARCADE_NO_NATIVE", raising=False)
    monkeypatch.setattr(nat, "_tried", False)
    monkeypatch.setattr(nat, "_lib", None)
    monkeypatch.setattr(sc, "_native_ok", None)
    if request.param == "native" and nat.get_lib() is None:
        pytest.skip("no C compiler in this environment")
    return request.param


def _paths(blob: bytes) -> set[str]:
    """Codec paths a partition file took, as REQUIRED_PATHS labels."""
    header, _ = read_header(blob)
    seen = set()
    for cm in header["columns"].values():
        for ch in cm["chunks"]:
            descs = [ch["lengths"], ch["values"]] if cm["kind"] == "list" \
                else [ch]
            for d in descs:
                if "mode" not in d:
                    seen.add(f"int:{d['codec']}")
                    if "_zw" in d["meta"]:
                        seen.add("int:zw")
                elif d["mode"] == "plain":
                    seen.add(f"str:{d['codec']}")
                else:
                    seen |= {f"str:{d['mode']}", f"str:{d['vcodec']}",
                             f"codes:{d['ccodec']}"}
    return seen


@pytest.mark.parametrize("name", sorted(_tables()))
def test_golden_bytes(fsst_mode, name):
    blob, row = encode_partition(_tables()[name], name)
    got = (row["enc_bytes"], row["crc32"], zlib.crc32(blob))
    assert got == GOLDEN[fsst_mode][name]


def test_golden_tables_cover_every_codec_path(fsst_mode):
    seen = set()
    for name, table in _tables().items():
        seen |= _paths(encode_partition(table, name)[0])
    assert REQUIRED_PATHS <= seen, REQUIRED_PATHS - seen
