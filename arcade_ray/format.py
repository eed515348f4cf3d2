"""Per-partition encoded segment file + manifest rows.

File layout (our analogue of the reference's DIFF format, SURVEY.md
§1.2, redesigned: self-describing JSON header instead of fseek
back-patched binary indexes (src/writer.cpp:419-493), because the
header is written once after all chunks are encoded in memory):

    MAGIC ("ARCR1\\n") | uint32 header_len | header JSON | payload

The header carries, per column per chunk, the codec id, codec meta,
payload offset/size and zone-map min/max — the role of the reference's
``struct D`` + block/column indexes + minmax sections (src/process.h:5-20,
src/writer.cpp:55-61). The manifest (one row per partition) is the
checkpoint, the pruning index and the metrics record in one
(SURVEY.md §7.0): committed via atomic rename, a partition whose
manifest row exists is done and is skipped on resume.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from typing import Any

import numpy as np
import pyarrow as pa

from .column import (
    encode_column_chunk,
    make_column_decoder,
    make_column_encoder,
)
from .constants import BLOCK_ROWS, FORMAT_VERSION, MAGIC
from .streams import type_tag

DEFAULT_VALUES_PER_CHUNK = 4_000_000  # cap flattened list values per chunk


def chunk_boundaries(table: pa.Table, rows_per_chunk: int = BLOCK_ROWS,
                     values_per_chunk: int = DEFAULT_VALUES_PER_CHUNK) -> list[tuple[int, int]]:
    """Row-chunk boundaries: <= rows_per_chunk rows AND <= values_per_chunk
    flattened list elements per chunk (token-aware sizing, SURVEY.md
    §7.3 item 5)."""
    n = table.num_rows
    if n == 0:
        return []
    list_cols = [f.name for f in table.schema
                 if pa.types.is_list(f.type) or pa.types.is_large_list(f.type)]
    if not list_cols:
        return [(s, min(rows_per_chunk, n - s)) for s in range(0, n, rows_per_chunk)]
    # total list lengths per row across list columns
    import pyarrow.compute as pc

    tot = np.zeros(n, dtype=np.int64)
    for c in list_cols:
        lv = pc.fill_null(pc.list_value_length(table[c]), 0)
        tot += lv.combine_chunks().to_numpy(zero_copy_only=False).astype(np.int64)
    csum = np.cumsum(tot)
    bounds = []
    start = 0
    while start < n:
        base = int(csum[start - 1]) if start else 0
        by_values = int(np.searchsorted(csum, base + values_per_chunk, side="right"))
        end = min(n, start + rows_per_chunk, max(start + 1, by_values))
        bounds.append((start, end - start))
        start = end
    return bounds


def encode_partition(table: pa.Table, part_key: str) -> tuple[bytes, dict[str, Any]]:
    """Encode one partition table -> (file bytes, manifest row dict).

    Pure (no I/O): callable from any Ray task. The manifest row carries
    per-column codec/size stats and zone maps for pruning."""
    t0 = time.perf_counter()
    bounds = chunk_boundaries(table)
    states = {}
    for f in table.schema:
        states[f.name] = make_column_encoder(f.type)
    for start, nrows in bounds:
        sub = table.slice(start, nrows)
        for name in table.schema.names:
            arr = sub[name].combine_chunks()
            encode_column_chunk(states[name], arr)

    # assemble payload; record offsets into descriptors
    payload_parts: list[bytes] = []
    offset = 0
    columns_meta: dict[str, Any] = {}
    sketches: dict[str, Any] = {}
    for name, st in states.items():
        enc = st.enc
        sk = getattr(enc, "sketch", None)
        if sk is not None and len(sk):
            from .sketches import kmv_estimate, serialize

            sketches[name] = {"kmv": serialize(sk),
                              "distinct_est": kmv_estimate(sk, 64)}
        acc = getattr(enc, "bloom_acc", None)
        if acc:
            from .sketches import bloom_build

            bloom = bloom_build(np.concatenate(acc))
            if bloom is not None:
                sketches.setdefault(name, {})["bloom"] = bloom
        if name in sketches:
            from .hashing import HASH_VERSION

            sketches[name]["hv"] = HASH_VERSION
        if st.qs_acc:
            from .sketches import QS_K_PART, qs_merge, qs_serialize

            qs = qs_merge(st.qs_acc, k=QS_K_PART)
            if qs is not None:
                ser = qs_serialize(qs)
                ser["kind"] = "f" if st.tag in ("f32", "f64") else (
                    "u" if st.tag == "u64" else "i")
                sketches.setdefault(name, {})["qs"] = ser
    for name, st in states.items():
        chunk_descs = []
        for desc, payload in zip(st.chunks, st.payloads):
            d = dict(desc)
            d["off"] = offset
            d["nb"] = len(payload)
            payload_parts.append(payload)
            offset += len(payload)
            chunk_descs.append(d)
        columns_meta[name] = {
            "kind": st.kind, "tag": st.tag, "elem_tag": st.elem_tag,
            "chunks": chunk_descs,
        }
    header = {
        "version": FORMAT_VERSION,
        "part_key": part_key,
        "rows": table.num_rows,
        "chunk_rows": [[int(s), int(r)] for s, r in bounds],
        "columns": columns_meta,
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode()
    payload = b"".join(payload_parts)
    blob = MAGIC + len(header_bytes).to_bytes(4, "little") + header_bytes + payload

    raw_bytes = sum(_arrow_bytes(col) for col in table.columns)
    manifest = {
        "part_key": part_key,
        "rows": int(table.num_rows),
        "raw_bytes": int(raw_bytes),
        "enc_bytes": len(blob),
        "header_bytes": len(header_bytes),
        "n_chunks": len(bounds),
        "encode_s": round(time.perf_counter() - t0, 4),
        "crc32": zlib.crc32(payload) & 0xFFFFFFFF,
        "col_stats": json.dumps(_column_stats(columns_meta, sketches)),
    }
    return blob, manifest


def _arrow_bytes(col) -> int:
    """The Arrow size of a column's values (an Array or ChunkedArray),
    as Arrow's ``take`` lays them out: one chunk, every array with a
    validity bitmap, n offsets per var-width or list array (as
    ``nbytes`` counts them). A function of the values alone, so a
    partition's ``raw_bytes`` does not depend on how its rows were
    chunked, sliced or moved."""
    import pyarrow.compute as pc

    t, n = col.type, len(col)
    size = (n + 7) // 8
    large = (pa.types.is_large_list(t) or pa.types.is_large_string(t)
             or pa.types.is_large_binary(t))
    if pa.types.is_list(t) or pa.types.is_large_list(t):
        return size + (8 if large else 4) * n + _arrow_bytes(
            pc.list_flatten(col))
    if (pa.types.is_string(t) or pa.types.is_binary(t)
            or pa.types.is_large_string(t) or pa.types.is_large_binary(t)):
        chars = pc.sum(pc.binary_length(col)).as_py() if n else 0
        return size + (8 if large else 4) * n + int(chars or 0)
    return size + (n * t.bit_width + 7) // 8


def _column_stats(columns_meta: dict, sketches: dict | None = None) -> dict:
    """Per-column codec histogram + global zone map + KMV distinct
    sketch for the manifest (sketches merge across partitions for
    planning — shared-dictionary overlap tests without a shuffle)."""
    out = {}
    for name, cm in columns_meta.items():
        codecs: dict[str, int] = {}
        vmin = vmax = None
        nulls = 0
        unbounded = False  # any non-empty chunk without zone values
        # valid-only bounds (SQL MIN/MAX skip nulls; the stored zone
        # covers the null placeholder). Aggregated from chunk vmin/vmax
        # on null-bearing chunks and plain min/max on null-free ones.
        wmin = wmax = None
        w_unbounded = False
        for ch in cm["chunks"]:
            ch_nulls = int(ch.get("nulls") or 0)
            nulls += ch_nulls
            if ch_nulls and cm["kind"] != "list":
                if "vmin" not in ch:
                    w_unbounded = True  # float kind / zone-cap overflow
                elif ch["vmin"] is not None:
                    wmin = ch["vmin"] if wmin is None \
                        else min(wmin, ch["vmin"])
                    wmax = ch["vmax"] if wmax is None \
                        else max(wmax, ch["vmax"])
            if cm["kind"] == "list":
                v = ch["values"]
                # string values streams carry mode (local/diff) instead
                # of a codec id outside plain chunks
                cid = v.get("codec") if v.get("mode") in (None, "plain") \
                    else v["mode"]
                cid = cid if cid is not None else v.get("mode", "plain")
                lo, hi = v.get("min"), v.get("max")
                n = v.get("n", 0)
            elif cm["kind"] == "str":
                cid = ch["mode"] if ch["mode"] != "plain" else ch.get("codec", "plain")
                lo, hi = ch.get("min"), ch.get("max")
                n = ch.get("n", 0)
            else:
                cid = ch["codec"]
                lo, hi = ch.get("min"), ch.get("max")
                n = ch.get("n", 0)
            codecs[cid] = codecs.get(cid, 0) + 1
            # a non-empty chunk with a missing bound (e.g. a string
            # longer than MAX_ZONE_STR, or non-UTF-8) makes the whole
            # partition unbounded on that side — aggregating only the
            # bounded chunks would let the manifest wrongly prune rows
            # living in the unbounded ones
            if n and (lo is None or hi is None):
                unbounded = True
            if lo is not None:
                vmin = lo if vmin is None else min(vmin, lo)
            if hi is not None:
                vmax = hi if vmax is None else max(vmax, hi)
            if not ch_nulls:  # null-free chunk: stored zone IS valid-only
                if n and (lo is None or hi is None):
                    w_unbounded = True
                elif lo is not None:
                    wmin = lo if wmin is None else min(wmin, lo)
                    wmax = hi if wmax is None else max(wmax, hi)
        if unbounded:
            vmin = vmax = None
        out[name] = {"codecs": codecs, "min": vmin, "max": vmax,
                     "nulls": nulls}
        if nulls and cm["kind"] != "list":
            # present only for null-bearing columns: stats_meta's exact
            # null-skipping MIN/MAX (None+bounded=False -> all-null)
            out[name]["vmin"], out[name]["vmax"] = \
                (None, None) if w_unbounded else (wmin, wmax)
            out[name]["vbounded"] = not w_unbounded
        if sketches and name in sketches:
            out[name].update(sketches[name])
    return out


def read_header(blob_or_path) -> tuple[dict, int]:
    """-> (header dict, payload base offset)."""
    if isinstance(blob_or_path, (str, os.PathLike)):
        with open(blob_or_path, "rb") as f:
            head = f.read(len(MAGIC) + 4)
            if head[: len(MAGIC)] != MAGIC:
                raise ValueError(f"bad magic in {blob_or_path}")
            hlen = int.from_bytes(head[len(MAGIC):], "little")
            header = json.loads(f.read(hlen))
        return header, len(MAGIC) + 4 + hlen
    blob = blob_or_path
    if blob[: len(MAGIC)] != MAGIC:
        raise ValueError("bad magic")
    hlen = int.from_bytes(blob[len(MAGIC): len(MAGIC) + 4], "little")
    header = json.loads(blob[len(MAGIC) + 4: len(MAGIC) + 4 + hlen])
    return header, len(MAGIC) + 4 + hlen


def read_exact(f, n: int, what: str = "chunk") -> bytes:
    """Strict read: a short read means a truncated/corrupt segment —
    fail loudly instead of silently decoding partial data."""
    data = f.read(n)
    if len(data) != n:
        raise ValueError(
            f"truncated segment: expected {n} bytes for {what}, got {len(data)}"
        )
    return data


def decode_partition(path: str, columns: list[str] | None = None,
                     chunk_mask: list[bool] | None = None,
                     row_sel: list | None = None) -> pa.Table:
    """Decode a partition file back to an Arrow table.

    ``columns`` prunes decode to the projection (reference retcols,
    src/reader.cpp:151); ``chunk_mask`` skips chunks (zone-map pruning)
    — shared-dict columns still consume the *dict segments* of skipped
    chunks (cheap, range-read only), mirroring the reference's lazy
    previndex dict walk (src/process.cpp:88-131). ``row_sel`` (per
    chunk, ascending in-chunk indices or None) materializes only the
    selected rows of kept chunks — the fused filter-projection gather."""
    header, base = read_header(path)
    want = columns or list(header["columns"].keys())
    arrays: dict[str, pa.Array] = {}
    with open(path, "rb") as f:
        for name in want:
            cm = header["columns"][name]
            dec = make_column_decoder(cm)
            parts = []
            for i, ch in enumerate(cm["chunks"]):
                if chunk_mask is None or chunk_mask[i]:
                    f.seek(base + ch["off"])
                    sel = None if row_sel is None else row_sel[i]
                    arr = dec.decode(ch, read_exact(f, ch["nb"], name),
                                     sel=sel)
                    parts.append(arr)
                else:
                    lo, hi = dec.advance_range(ch)
                    if hi > lo:
                        f.seek(base + ch["off"] + lo)
                        dec.advance(ch, read_exact(f, hi - lo, name))
            if len(parts) == 1:
                arrays[name] = parts[0]  # concat_arrays would copy it
            elif parts:
                arrays[name] = pa.concat_arrays(
                    [p.cast(parts[0].type) for p in parts])
            else:
                arrays[name] = _empty_array(cm)
    return pa.table({n: arrays[n] for n in want})


def _empty_array(cm: dict) -> pa.Array:
    from .streams import tag_type

    if cm["kind"] == "list":
        return pa.array([], type=pa.list_(tag_type(cm["elem_tag"])))
    return pa.array([], type=tag_type(cm["tag"]))
