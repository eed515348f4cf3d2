"""Column encoders/decoders: per-partition, chunked, adaptive.

This is the engine's translation of the reference's per-chunk adaptive
encoder ``compress_batch`` (src/writer.cpp:48-376) and its read-side
counterparts (src/process.cpp). A partition is encoded by ONE task, in
row chunks (default 65,535 rows — the reference's BLOCKSIZE,
src/arcade.h:25); all cross-chunk dictionary state lives inside that
task, which is what makes partitions embarrassingly parallel
(SURVEY.md §4.1 "central re-design decision").

String columns implement the reference's three-way adaptive choice per
chunk (SURVEY.md §2.2):

- plain   when distinct/rows > PLAIN_DISTINCT_RATIO (src/writer.cpp:63)
- diff    (differential/global dictionary): append only new values to a
          dictionary shared across chunks (src/writer.cpp:167-253)
- local   dictionary epoch reset, forced by the memory budget / empty
          dict / diff-ratio > DICT_RESET_RATIO (src/writer.cpp:113-121)
          or won via the projected byte-cost comparison
          (src/writer.cpp:132-160)

Codes are bit-packed (width = bits(dict_size-1)) instead of the
reference's byte-aligned 1/2/4 widths (src/writer.cpp:198-252) —
strictly smaller at equal dictionary content. Every chunk records a
zone map (min/max) for filter-time skipping, mirroring the reference's
minmax sections (src/writer.cpp:55-61).

Int/float/temporal columns use chunk-local greedy min-bytes codec
selection over {plain, bitpack, FoR, RLE, dict, snappy}. List columns
(tokens) decompose into a lengths int stream plus a flattened values
stream, chunk-aligned on rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .bitpack import bits_needed, packed_nbytes
from .codecs.int_codecs import choose_int_codec, decode_int, decode_int_span
from .codecs.str_codecs import (
    decode_codes,
    decode_str_values,
    encode_codes,
    encode_str_values,
    gather_strings,
)
from .constants import (
    BLOCK_ROWS,
    DICT_MEMORY_BUDGET,
    DICT_RESET_RATIO,
    PLAIN_DISTINCT_RATIO,
)
from .profile import profile_int
from .streams import (
    STORAGE_DTYPES,
    int_stream_from_arrow,
    int_stream_to_arrow,
    str_stream_from_arrow,
    str_stream_to_arrow,
    type_tag,
)

MAX_ZONE_STR = 128  # zone-map strings longer than this are dropped


def _bloom_push(acc: list | None, h: np.ndarray) -> list | None:
    """Accumulate distinct hashes for the partition Bloom filter,
    giving up (-> None) once the column is clearly too wide to filter
    — bounds memory to ~2 MB per column."""
    from .sketches import BLOOM_MAX_DISTINCT

    if acc is None:
        return None
    acc.append(h)
    if sum(len(a) for a in acc) > 8 * BLOOM_MAX_DISTINCT:
        return None
    return acc


@dataclass
class SegmentOut:
    """One encoded stream-chunk, before file assembly."""

    payload: bytes
    desc: dict[str, Any]  # JSON-able descriptor (codec, meta, stats, ...)


# --------------------------------------------------------------------------
# int columns
# --------------------------------------------------------------------------

class IntColumnEncoder:
    def __init__(self, tag: str):
        self.tag = tag
        self.sketch = np.empty(0, dtype=np.uint64)  # KMV of value hashes
        # per-chunk distinct-hash arrays for the partition Bloom filter
        # (None = opted out: list-element streams, float tags, or the
        # column proved too wide — see _bloom_push)
        self.bloom_acc: list[np.ndarray] | None = \
            [] if tag not in ("f32", "f64") else None

    def encode_chunk(self, vals: np.ndarray) -> SegmentOut:
        p = profile_int(vals)
        from .hashing import hash_ints
        from .sketches import kmv_merge

        if p.n_distinct:
            h = hash_ints(p.unique)
            self.sketch = kmv_merge(self.sketch, h, k=64)
            self.bloom_acc = _bloom_push(self.bloom_acc, h)
        codec, payload, meta = choose_int_codec(vals, p, self.tag)
        desc = {
            "codec": codec,
            "meta": meta,
            "n": int(p.n),
            "min": int(p.vmin),
            "max": int(p.vmax),
        }
        return SegmentOut(payload, desc)


def decode_int_chunk(desc: dict, payload: bytes,
                     tag: str | None = None) -> np.ndarray:
    """int64 values, or with ``tag`` the tag's storage dtype (what
    int_stream_to_arrow wraps without a copy)."""
    dtype = np.int64 if tag is None else STORAGE_DTYPES[tag]
    return decode_int(desc["codec"], payload, desc["meta"], desc["n"], dtype)


# --------------------------------------------------------------------------
# string columns — the ARCADE adaptive state machine
# --------------------------------------------------------------------------

class StringColumnEncoder:
    """Holds the shared (differential) dictionary across chunks of one
    partition — the Ray-scoped analogue of the reference writer's
    globaldict/lookup threaded through compress_batch
    (src/writer.cpp:382-399)."""

    def __init__(self, tag: str):
        self.tag = tag
        self.dict_arr: pa.Array | None = None  # append-ordered accumulated dict
        self.dict_bytes = 0
        self.epoch = 0          # chunk index where the current dict epoch began
        self.chunk_idx = 0
        self.sketch = np.empty(0, dtype=np.uint64)  # KMV of value hashes
        self.bloom_acc: list[np.ndarray] | None = []

    def _update_sketch(self, distinct: pa.Array) -> None:
        from .hashing import hash_strings
        from .sketches import kmv_merge

        lengths, data, _ = str_stream_from_arrow(distinct)
        h = hash_strings(lengths, data)
        self.sketch = kmv_merge(self.sketch, h, k=64)
        self.bloom_acc = _bloom_push(self.bloom_acc, h)

    def _reset(self, at_chunk: int) -> None:
        self.dict_arr = None
        self.dict_bytes = 0
        self.epoch = at_chunk

    def encode_chunk(self, arr: pa.Array) -> SegmentOut:
        idx = self.chunk_idx
        self.chunk_idx += 1
        n = len(arr)
        if arr.null_count:
            raise ValueError("nulls not supported in v1")
        bin_arr = arr.cast(pa.large_binary())
        distinct = pc.unique(bin_arr)
        d_chunk = len(distinct)
        if d_chunk:
            self._update_sketch(distinct)
        zmin = zmax = None
        if n:
            mm = pc.min_max(bin_arr)
            try:
                lo = mm["min"].as_py().decode("utf-8")
                hi = mm["max"].as_py().decode("utf-8")
                if len(lo) <= MAX_ZONE_STR and len(hi) <= MAX_ZONE_STR:
                    zmin, zmax = lo, hi
            except UnicodeDecodeError:
                pass

        # 1. plain gate — distinct/rows > 0.80 ⇒ no dictionary; the
        #    reference also clears all dict state here (src/writer.cpp:63-83).
        if n == 0 or d_chunk / n > PLAIN_DISTINCT_RATIO:
            self._reset(idx + 1)
            lengths, data, _ = str_stream_from_arrow(bin_arr)
            codec, payload, meta = encode_str_values(lengths, data)
            desc = {"mode": "plain", "codec": codec, "meta": meta, "n": n,
                    "min": zmin, "max": zmax, "epoch": idx}
            return SegmentOut(payload, desc)

        sorted_distinct = pc.sort_indices(distinct)
        sorted_distinct = distinct.take(sorted_distinct)

        # 2. diff = chunk distincts not yet in the shared dict
        if self.dict_arr is not None and len(self.dict_arr):
            in_dict = pc.is_in(sorted_distinct, value_set=self.dict_arr)
            new_vals = sorted_distinct.filter(pc.invert(in_dict))
        else:
            new_vals = sorted_distinct
        d_new = len(new_vals)
        new_bytes = int(pc.sum(pc.binary_length(new_vals)).as_py() or 0) + 16 * d_new

        # 3. forced local-dict epoch reset (src/writer.cpp:113-121)
        force_local = (
            self.dict_arr is None
            or self.dict_bytes > DICT_MEMORY_BUDGET
            or (d_chunk > 0 and d_new / d_chunk > DICT_RESET_RATIO)
        )

        use_local = force_local
        if not force_local:
            # 4. projected byte-cost comparison (src/writer.cpp:132-160):
            # compare codes+dict bytes for "grow the shared dict" vs
            # "reset to a chunk-local dict", projecting the code-width
            # penalty over the future chunks the remaining budget allows.
            d_global_after = len(self.dict_arr) + d_new
            w_diff = bits_needed(max(d_global_after - 1, 0))
            w_local = bits_needed(max(d_chunk - 1, 0))
            size_diff = new_bytes + packed_nbytes(n, w_diff)
            local_bytes = int(pc.sum(pc.binary_length(sorted_distinct)).as_py() or 0) + 16 * d_chunk
            size_local = local_bytes + packed_nbytes(n, w_local)
            pblocks = max(
                (DICT_MEMORY_BUDGET - self.dict_bytes) // max(new_bytes, 1), 0
            )
            proj_diff = size_diff + pblocks * packed_nbytes(BLOCK_ROWS, w_diff)
            proj_local = size_local + pblocks * (
                packed_nbytes(BLOCK_ROWS, w_local) + new_bytes
            )
            use_local = proj_local < proj_diff

        if use_local:
            # local dictionary; epoch reset (reference diff==1,
            # src/writer.cpp:255-265,286-371)
            self._reset(idx)
            self.dict_arr = sorted_distinct
            self.dict_bytes = int(pc.sum(pc.binary_length(sorted_distinct)).as_py() or 0) + 16 * d_chunk
            dict_segment = sorted_distinct
            mode = "local"
        else:
            self.dict_arr = (
                pa.concat_arrays([self.dict_arr.cast(pa.large_binary()), new_vals.cast(pa.large_binary())])
                if d_new
                else self.dict_arr
            )
            self.dict_bytes += new_bytes
            dict_segment = new_vals
            mode = "diff"

        codes = pc.index_in(bin_arr, value_set=self.dict_arr)
        codes_np = codes.to_numpy(zero_copy_only=False).astype(np.int64)
        d_total = len(self.dict_arr)
        ccodec, cpayload, cmeta = encode_codes(codes_np, d_total)

        dl, dd, _ = str_stream_from_arrow(dict_segment)
        vcodec, vpayload, vmeta = encode_str_values(dl, dd)

        payload = vpayload + cpayload
        desc = {
            "mode": mode, "n": n, "epoch": self.epoch,
            "d_new": len(dict_segment), "d_total": d_total,
            "vcodec": vcodec, "vmeta": vmeta, "vlen": len(vpayload),
            "ccodec": ccodec, "cmeta": cmeta,
            "min": zmin, "max": zmax,
        }
        return SegmentOut(payload, desc)


class StringColumnDecoder:
    """Streaming decode: walk chunks in order, growing the dict exactly
    as the encoder did (reference scan_page's growing globaldict,
    src/process.cpp:458-471)."""

    def __init__(self, tag: str = "str"):
        self.tag = tag
        self.u_lengths: np.ndarray | None = None
        self.u_data: bytes = b""

    def advance_dict(self, desc: dict, dict_payload: bytes) -> None:
        """Update dictionary state for a chunk whose rows are skipped
        (zone-map pruning): only the dict segment is consumed — the
        analogue of the reference's lazy dict-page walk on skipped
        blocks (src/process.cpp:88-131)."""
        if desc["mode"] == "plain":
            self.u_lengths, self.u_data = None, b""
            return
        dl, dd = decode_str_values(desc["vcodec"], dict_payload[: desc["vlen"]],
                                   desc["vmeta"])
        if desc["mode"] == "local" or self.u_lengths is None:
            self.u_lengths, self.u_data = dl, dd
        else:
            self.u_lengths = np.concatenate([self.u_lengths, dl])
            self.u_data = self.u_data + dd

    def decode_chunk(self, desc: dict, payload: bytes,
                     sel: np.ndarray | None = None) -> pa.Array:
        """``sel``: optional ascending in-chunk row indices — only
        those rows materialize (dictionary chunks gather exactly the
        selected codes; the reference's partial materialization,
        src/process.cpp:4-180, done vectorized)."""
        n = desc["n"]
        if desc["mode"] == "plain":
            self.u_lengths, self.u_data = None, b""
            lengths, data = decode_str_values(desc["codec"], payload, desc["meta"])
            arr = str_stream_to_arrow(lengths, data, self.tag)
            return arr.take(pa.array(sel, type=pa.int64())) if sel is not None else arr
        vlen = desc["vlen"]
        self.advance_dict(desc, payload)
        codes = decode_codes(desc["ccodec"], payload[vlen:], desc["cmeta"])
        if sel is not None:
            codes = codes[sel]
        u_offsets = np.empty(len(self.u_lengths) + 1, dtype=np.int64)
        u_offsets[0] = 0
        np.cumsum(self.u_lengths, out=u_offsets[1:])
        lengths, data = gather_strings(u_offsets, self.u_data, codes)
        return str_stream_to_arrow(lengths, data, self.tag)


# --------------------------------------------------------------------------
# column-level encode/decode dispatch
# --------------------------------------------------------------------------

def column_kind(t: pa.DataType) -> str:
    if pa.types.is_string(t) or pa.types.is_large_string(t) or pa.types.is_binary(t):
        return "str"
    if pa.types.is_list(t) or pa.types.is_large_list(t):
        return "list"
    return "int"  # ints, floats (bit patterns), timestamps, dates


@dataclass
class ColumnEncoderState:
    kind: str
    tag: str
    elem_tag: str | None = None  # list element tag
    enc: Any = None
    len_enc: Any = None
    chunks: list[dict] = field(default_factory=list)
    payloads: list[bytes] = field(default_factory=list)
    # per-chunk mergeable quantile summaries (scalar numeric columns
    # only) -> one compacted partition summary in the manifest, so
    # percentile queries can answer from metadata with a certified
    # rank-error bound and ZERO data scan (sketches.py::qs_*)
    qs_acc: list | None = None


def make_column_encoder(t: pa.DataType) -> ColumnEncoderState:
    kind = column_kind(t)
    if kind == "str":
        tag = type_tag(t)
        return ColumnEncoderState(kind, tag, enc=StringColumnEncoder(tag))
    if kind == "list":
        elem = t.value_type
        elem_kind = column_kind(elem)
        elem_tag = type_tag(elem)
        if elem_kind == "str":
            # list<string> (multi-tag metadata): lengths int stream +
            # flattened values through the adaptive string encoder —
            # the dictionary state machine applies unchanged to the
            # flattened element stream
            st = ColumnEncoderState(
                kind, "list", elem_tag=elem_tag,
                enc=StringColumnEncoder(elem_tag),
                len_enc=IntColumnEncoder("i64"),
            )
        else:
            st = ColumnEncoderState(
                kind, "list", elem_tag=elem_tag,
                enc=IntColumnEncoder(elem_tag),
                len_enc=IntColumnEncoder("i64"),
            )
        # no partition Bloom over list ELEMENT values: equality pruning
        # applies to scalar columns only, and element streams are wide
        st.enc.bloom_acc = None
        st.len_enc.bloom_acc = None
        return st
    tag = type_tag(t)
    return ColumnEncoderState(kind, tag, enc=IntColumnEncoder(tag),
                              qs_acc=[])


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    if not len(starts):
        return np.empty(0, dtype=np.int64)
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.ones(total, dtype=np.int64)
    ends = np.cumsum(lens)
    out[0] = starts[0]
    out[ends[:-1]] = starts[1:] - (starts[:-1] + lens[:-1]) + 1
    return np.cumsum(out)


def _strip_nulls(state: ColumnEncoderState, arr: pa.Array) -> tuple[pa.Array, bytes, int]:
    """-> (null-free filled array, validity bitmap bytes, n_nulls).
    Nulls travel as an LSB-first packed validity bitmap appended to the
    chunk payload; codecs always see defined (zero/empty) values."""
    n_nulls = arr.null_count
    if not n_nulls:
        return arr, b"", 0
    valid = arr.is_valid().to_numpy(zero_copy_only=False)
    vbytes = np.packbits(valid, bitorder="little").tobytes()
    if state.kind == "str":
        filled = pc.fill_null(arr, "")
    elif state.kind == "list":
        larr = arr.cast(pa.large_list(arr.type.value_type)) \
            if not pa.types.is_large_list(arr.type) else arr
        child = larr.values
        offsets = np.frombuffer(larr.buffers()[1], dtype=np.int64,
                                count=len(larr) + 1, offset=larr.offset * 8)
        lengths = np.where(valid, np.diff(offsets), 0).astype(np.int64)
        pos = _ranges(offsets[:-1][valid & (lengths > 0)],
                      lengths[valid & (lengths > 0)])
        new_vals = child.take(pa.array(pos, type=pa.int64()))
        new_offsets = np.empty(len(larr) + 1, dtype=np.int64)
        new_offsets[0] = 0
        np.cumsum(lengths, out=new_offsets[1:])
        filled = pa.LargeListArray.from_arrays(
            pa.array(new_offsets, type=pa.int64()), new_vals
        ).cast(arr.type if pa.types.is_list(arr.type) else larr.type)
    else:
        filled = pc.fill_null(arr, pa.scalar(0, type=arr.type))
    return filled, vbytes, n_nulls


def _add_valid_zone(state: ColumnEncoderState, desc: dict,
                    arr: pa.Array) -> None:
    """Valid-only zone bounds for a null-bearing chunk. The stored
    chunk min/max cover the null PLACEHOLDER (0 / ''), which is
    correct for code-domain pruning of the stored stream but wrong
    for SQL MIN/MAX (which skip nulls) — so null-bearing chunks carry
    separate ``vmin``/``vmax`` over the valid values. Keys are absent
    on float/list kinds (not meta-statable) and on pre-vmin files;
    explicit None marks an all-null chunk (contributes nothing)."""
    if state.kind == "list" or state.tag in ("f32", "f64"):
        return
    valid = arr.drop_null()
    if len(valid) == 0:
        desc["vmin"] = desc["vmax"] = None
        return
    if state.kind == "str":
        mm = pc.min_max(valid.cast(pa.large_binary()))
        try:
            lo = mm["min"].as_py().decode("utf-8")
            hi = mm["max"].as_py().decode("utf-8")
        except UnicodeDecodeError:
            return  # unbounded: key stays absent
        if len(lo) <= MAX_ZONE_STR and len(hi) <= MAX_ZONE_STR:
            desc["vmin"], desc["vmax"] = lo, hi
        return
    vals, _ = int_stream_from_arrow(valid)
    desc["vmin"] = int(vals.min())
    desc["vmax"] = int(vals.max())


def encode_column_chunk(state: ColumnEncoderState, arr: pa.Array) -> None:
    """Encode one row-chunk of a column; appends descriptor + payload.
    Null slots are carried as a validity bitmap appended to the chunk
    payload (desc keys ``vb``/``nulls``) plus valid-only zone bounds
    (``vmin``/``vmax``) for exact meta-only MIN/MAX."""
    arr_orig = arr
    arr, vbytes, n_nulls = _strip_nulls(state, arr)
    if state.qs_acc is not None:
        from .sketches import order_key_from_stream, qs_build

        valid = arr_orig.drop_null() if n_nulls else arr
        if len(valid):
            vals, _ = int_stream_from_arrow(valid)
            state.qs_acc.append(
                qs_build(order_key_from_stream(vals, state.tag)))
    _encode_column_chunk_nonnull(state, arr)
    if n_nulls:
        desc = state.chunks[-1]
        desc["vb"] = len(vbytes)
        desc["nulls"] = int(n_nulls)
        state.payloads[-1] = state.payloads[-1] + vbytes
        _add_valid_zone(state, desc, arr_orig)


def _encode_column_chunk_nonnull(state: ColumnEncoderState, arr: pa.Array) -> None:
    if state.kind == "str":
        seg = state.enc.encode_chunk(arr)
        state.chunks.append(seg.desc)
        state.payloads.append(seg.payload)
        return
    if state.kind == "list":
        larr = arr.cast(pa.large_list(arr.type.value_type)) \
            if not pa.types.is_large_list(arr.type) else arr
        offsets = np.frombuffer(
            larr.buffers()[1], dtype=np.int64, count=len(larr) + 1,
            offset=larr.offset * 8,
        )
        lengths = np.diff(offsets).astype(np.int64)
        flat = larr.flatten()
        len_seg = state.len_enc.encode_chunk(lengths)
        if isinstance(state.enc, StringColumnEncoder):
            val_seg = state.enc.encode_chunk(flat)
        else:
            vals, _ = int_stream_from_arrow(flat)
            val_seg = state.enc.encode_chunk(vals)
        state.chunks.append({"lengths": len_seg.desc, "values": val_seg.desc,
                             "vlen": len(len_seg.payload)})
        state.payloads.append(len_seg.payload + val_seg.payload)
        return
    vals, _ = int_stream_from_arrow(arr)
    seg = state.enc.encode_chunk(vals)
    state.chunks.append(seg.desc)
    state.payloads.append(seg.payload)


class ColumnDecoder:
    """Stateful per-column decoder; chunks MUST be visited in order for
    shared-dict string columns. ``decode`` materializes a chunk;
    ``advance`` consumes only dictionary state for skipped chunks and
    returns the byte range [lo, hi) of the payload it needs (relative
    to the chunk payload) — (0, 0) when nothing is needed."""

    def __init__(self, col_meta: dict):
        self.kind = col_meta["kind"]
        self.tag = col_meta["tag"]
        self.elem_tag = col_meta.get("elem_tag")
        self.list_str = (self.kind == "list" and self.elem_tag in
                         ("str", "large_str", "bin", "large_bin"))
        if self.kind == "str":
            self._str = StringColumnDecoder(self.tag)
        elif self.list_str:
            self._str = StringColumnDecoder(self.elem_tag)
        else:
            self._str = None

    def advance_range(self, desc: dict) -> tuple[int, int]:
        if self.kind == "str" and desc["mode"] in ("local", "diff"):
            return 0, desc["vlen"]
        if self.list_str and desc["values"]["mode"] in ("local", "diff"):
            # values stream starts after the lengths payload; its dict
            # segment is its first vlen bytes
            return desc["vlen"], desc["vlen"] + desc["values"]["vlen"]
        return 0, 0

    def advance(self, desc: dict, dict_payload: bytes) -> None:
        if self.kind == "str":
            self._str.advance_dict(desc, dict_payload)
        elif self.list_str:
            self._str.advance_dict(desc["values"], dict_payload)

    def decode(self, desc: dict, payload: bytes,
               sel: "np.ndarray | None" = None) -> pa.Array:
        """``sel``: ascending in-chunk row indices to materialize
        (None = all rows). Null-bearing chunks decode fully then take
        (validity bitmaps don't subset cheaply); dictionary string
        chunks gather only the selected codes; ``list<int>`` chunks
        decode all lengths, then only the span of values from the
        first selected row's to the end of the last's
        (:func:`~arcade_ray.codecs.int_codecs.decode_int_span`), and
        take the selected rows out of it."""
        vb = desc.get("vb", 0)
        validity = payload[-vb:] if vb else b""
        if vb:
            payload = payload[:-vb]
            arr = self._decode_nonnull(desc, payload)
            arr = _apply_validity(arr, validity, desc["nulls"])
            return arr.take(pa.array(sel, type=pa.int64())) if sel is not None else arr
        return self._decode_nonnull(desc, payload, sel)

    def _decode_nonnull(self, desc: dict, payload: bytes,
                        sel: "np.ndarray | None" = None) -> pa.Array:
        if self.kind == "str":
            return self._str.decode_chunk(desc, payload, sel)
        if self.kind != "list":
            out = int_stream_to_arrow(
                decode_int_chunk(desc, payload, self.tag), self.tag)
        else:
            out, sel = self._decode_list(desc, payload, sel)
        return out.take(pa.array(sel, type=pa.int64())) \
            if sel is not None else out

    def _decode_list(self, desc: dict, payload: bytes, sel):
        """-> (list array, ``sel`` rebased onto it): all rows, or for
        ``list<int>`` under ``sel`` the rows sel[0]..sel[-1] only."""
        from .streams import tag_type

        vlen = desc["vlen"]
        mv = memoryview(payload)
        lengths = decode_int_chunk(desc["lengths"], mv[:vlen])
        offsets = np.empty(len(lengths) + 1, dtype=np.int64)
        offsets[0] = 0
        np.cumsum(lengths, out=offsets[1:])
        if self.list_str:
            elem = self._str.decode_chunk(desc["values"], payload[vlen:])
        else:
            vd = desc["values"]
            if sel is None:
                vals = decode_int_chunk(vd, mv[vlen:], self.elem_tag)
            else:
                sel = np.asarray(sel, dtype=np.int64)
                first, last = (int(sel[0]), int(sel[-1]) + 1) \
                    if len(sel) else (0, 0)
                offsets = offsets[first:last + 1]
                lo, hi = int(offsets[0]), int(offsets[-1])
                vals = decode_int_span(
                    vd["codec"], mv[vlen:], vd["meta"], vd["n"], lo, hi,
                    STORAGE_DTYPES[self.elem_tag])
                offsets = offsets - lo
                sel = sel - first
            elem = int_stream_to_arrow(vals, self.elem_tag)
        out = pa.LargeListArray.from_arrays(
            pa.array(offsets, type=pa.int64()), elem)
        return out.cast(pa.list_(tag_type(self.elem_tag))), sel


def _apply_validity(arr: pa.Array, validity: bytes, n_nulls: int) -> pa.Array:
    """Rebuild ``arr`` with the LSB-first validity bitmap attached."""
    n = len(arr)
    vbuf = pa.py_buffer(validity)
    t = arr.type
    if pa.types.is_list(t) or pa.types.is_large_list(t):
        larr = arr.cast(pa.large_list(t.value_type)) \
            if not pa.types.is_large_list(t) else arr
        rebuilt = pa.LargeListArray.from_buffers(
            larr.type, n, [vbuf, larr.buffers()[1]],
            null_count=n_nulls, children=[larr.values],
        )
        return rebuilt.cast(t)
    if pa.types.is_string(t) or pa.types.is_large_string(t) or \
            pa.types.is_binary(t) or pa.types.is_large_binary(t):
        bufs = arr.buffers()
        return pa.Array.from_buffers(t, n, [vbuf, bufs[1], bufs[2]],
                                     null_count=n_nulls)
    bufs = arr.buffers()
    return pa.Array.from_buffers(t, n, [vbuf, bufs[1]], null_count=n_nulls)


def make_column_decoder(col_meta: dict) -> ColumnDecoder:
    return ColumnDecoder(col_meta)
