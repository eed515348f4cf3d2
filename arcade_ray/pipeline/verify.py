"""Distributed round-trip verification (north-star: "a decode pipeline
round-trips every partition and asserts bit-identical token-array
equality").

Both sides reduce to an order- and partition-insensitive fingerprint:
every row hashes to a uint64 (id column x token payload x remaining
columns), and the dataset fingerprint is the wrapping SUM of row
hashes. Input shards and encoded partitions are fingerprinted in Ray
tasks over contiguous groups of them (``decode.gather_partitions``);
equality of the two sums certifies multiset equality of rows
(collision probability ~2^-64 per run) with no shuffle and no row
alignment — the scalable form of a full join-based compare. A
per-partition report lists row/hash totals for lineage.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..hashing import hash_column, hash_ints, hash_strings
from ..streams import int_stream_from_arrow, str_stream_from_arrow
from .decode import gather_partitions
from .encode import read_manifest


def table_fingerprint(table: pa.Table, columns: list[str] | None = None) -> tuple[int, int]:
    """-> (row_count, uint64 fingerprint). Row hash mixes every
    column's per-row hash with a column-index multiplier; list columns
    hash their flattened payload with a per-row polynomial."""
    cols = columns or table.column_names
    n = table.num_rows
    acc = np.zeros(n, dtype=np.uint64)
    for ci, name in enumerate(sorted(cols)):
        col = table[name]
        h = _column_row_hashes(col)
        acc += h * np.uint64(2 * ci + 1)
    acc = hash_ints(acc.view(np.int64))
    return n, int(acc.sum(dtype=np.uint64))


def _column_row_hashes(col: pa.ChunkedArray) -> np.ndarray:
    t = col.type
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    null_mask = None
    if arr.null_count:
        null_mask = pc.is_null(arr).to_numpy(zero_copy_only=False)
    if pa.types.is_list(t) or pa.types.is_large_list(t):
        larr = arr.cast(pa.large_list(t.value_type)) \
            if not pa.types.is_large_list(t) else arr
        offsets = np.frombuffer(larr.buffers()[1], dtype=np.int64,
                                count=len(larr) + 1, offset=larr.offset * 8)
        lengths = np.diff(offsets)
        flat = larr.flatten()
        if pa.types.is_floating(t.value_type):
            vals, _ = int_stream_from_arrow(flat)
        else:
            vals, _ = int_stream_from_arrow(flat)
        vh = hash_ints(vals)
        # per-row polynomial over element hashes (order-sensitive within
        # the list): sum(h_i * 31^pos) via segmented weights
        out = np.zeros(len(larr), dtype=np.uint64)
        if len(flat):
            starts = offsets[:-1] - offsets[0]
            local = np.arange(int(lengths.sum()), dtype=np.int64) - np.repeat(
                starts, lengths)
            max_len = int(lengths.max()) if len(lengths) else 0
            pow31 = np.empty(max(max_len, 1), dtype=np.uint64)
            pow31[0] = 1
            if max_len > 1:
                np.multiply.accumulate(
                    np.full(max_len - 1, 31, dtype=np.uint64), out=pow31[1:])
            terms = vh * pow31[local]
            terms = np.append(terms, np.uint64(0))
            sums = np.add.reduceat(terms, np.minimum(starts, len(terms) - 1))
            sums = np.where(lengths == 0, np.uint64(0), sums)
            out = sums
        out = out ^ hash_ints(lengths)
    elif pa.types.is_string(t) or pa.types.is_large_string(t) or \
            pa.types.is_binary(t) or pa.types.is_large_binary(t):
        if arr.null_count:
            arr = pc.fill_null(arr, "")
        lengths, data, _ = str_stream_from_arrow(arr)
        out = hash_strings(lengths, data)
    else:
        if arr.null_count:
            arr = pc.fill_null(arr, pa.scalar(0, type=t))
        vals, _ = int_stream_from_arrow(arr)
        out = hash_ints(vals)
    if null_mask is not None:
        out = np.where(null_mask, np.uint64(0xDEAD00FEED), out)
    return out


def verify_roundtrip(out_dir: str, input_paths, columns: list[str] | None = None) -> dict:
    """Fingerprint the encoded dataset, then the input; returns
    {"match": bool, rows/fingerprints per side, per-partition report}.
    Each side runs in :func:`gather_partitions` tasks, one per
    contiguous group of partitions or input shards."""
    import glob as _glob
    import os

    import pyarrow.parquet as pq

    from ..format import decode_partition

    if isinstance(input_paths, str):
        if os.path.isdir(input_paths):
            input_paths = sorted(_glob.glob(os.path.join(input_paths, "*.parquet")))
        else:
            input_paths = [input_paths]

    def fp_partition(row: dict):
        path = row["path"]
        try:
            t = decode_partition(path, columns=columns)
            n, h = table_fingerprint(t, columns)
            return {"path": path, "rows": n, "fingerprint": h, "error": None}
        except Exception as e:  # corrupt segment = verification failure
            return {"path": path, "rows": -1, "fingerprint": 0,
                    "error": f"{type(e).__name__}: {e}"}

    def fp_input(row: dict):
        path = row["path"]
        t = pq.read_table(path, columns=columns)
        n, h = table_fingerprint(t, columns)
        return {"path": path, "rows": n, "fingerprint": h}

    enc_rows = gather_partitions(read_manifest(out_dir).row_dicts(),
                                 fp_partition)
    in_rows = gather_partitions([{"path": p} for p in input_paths],
                                fp_input)
    mask = np.uint64(0xFFFFFFFFFFFFFFFF)
    enc_fp = int(np.sum(np.array([r["fingerprint"] for r in enc_rows],
                                 dtype=np.uint64), dtype=np.uint64) & mask)
    in_fp = int(np.sum(np.array([r["fingerprint"] for r in in_rows],
                                dtype=np.uint64), dtype=np.uint64) & mask)
    enc_n = sum(r["rows"] for r in enc_rows)
    in_n = sum(r["rows"] for r in in_rows)
    errors = [r for r in enc_rows if r.get("error")]
    return {
        "match": not errors and enc_fp == in_fp and enc_n == in_n,
        "errors": errors,
        "rows_encoded": enc_n, "rows_input": in_n,
        "fingerprint_encoded": enc_fp, "fingerprint_input": in_fp,
        "partitions": enc_rows,
    }
