"""Arrow <-> numpy stream normalization.

The encoder decomposes every Arrow column into one or two *streams*:

- int stream:    ``np.int64`` values + the original arrow type tag
                 (int32/int64/timestamp[us]/... and float32/float64 via
                 their IEEE bit patterns — bit-exact, order-agnostic).
- string stream: ``(lengths: np.int64, data: bytes)`` — utf8 payload.
- list<T>:       lengths int stream + a values stream of T.

The reference is string-only (README.md:27-29); the typed model is part
of the Ray/Arrow redesign (SURVEY.md §1.4). No nulls supported in v1 —
the corpus and testdata are null-free; a validity-bitmap stream is the
documented extension point.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .bitpack import as_dtype

# arrow type tag <-> pyarrow type
_TYPE_TAGS = {
    "i8": pa.int8(),
    "i16": pa.int16(),
    "i32": pa.int32(),
    "i64": pa.int64(),
    "u32": pa.uint32(),
    "u64": pa.uint64(),
    "ts_us": pa.timestamp("us"),
    "ts_ns": pa.timestamp("ns"),
    "date32": pa.date32(),
    "f32": pa.float32(),
    "f64": pa.float64(),
    "str": pa.string(),
    "large_str": pa.large_string(),
    "bin": pa.binary(),
    "large_bin": pa.large_binary(),
}
_TAG_OF = {str(v): k for k, v in _TYPE_TAGS.items()}

# numpy dtype whose bytes are the Arrow value buffer of each int-family
# tag (floats as their IEEE bit patterns)
STORAGE_DTYPES = {tag: np.dtype(t) for tag, t in {
    "i8": np.int8, "i16": np.int16, "i32": np.int32, "i64": np.int64,
    "u32": np.uint32, "u64": np.uint64, "ts_us": np.int64,
    "ts_ns": np.int64, "date32": np.int32, "f32": np.uint32,
    "f64": np.uint64}.items()}


def type_tag(t: pa.DataType) -> str:
    try:
        return _TAG_OF[str(t)]
    except KeyError:
        raise TypeError(f"unsupported column type: {t}") from None


def tag_type(tag: str) -> pa.DataType:
    return _TYPE_TAGS[tag]


def _no_nulls(arr: pa.ChunkedArray | pa.Array, name: str = "") -> None:
    if arr.null_count:
        raise ValueError(
            f"column {name!r} has nulls; validity streams not supported in v1"
        )


def int_stream_from_arrow(arr: pa.ChunkedArray | pa.Array) -> tuple[np.ndarray, str]:
    """Numeric/temporal Arrow array -> (int64 values, type tag).

    Floats are reinterpreted as their bit patterns (bit-exact round
    trip, incl. NaN payloads and -0.0)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    _no_nulls(arr)
    tag = type_tag(arr.type)
    np_arr = arr.to_numpy(zero_copy_only=False)
    if tag == "f32":
        vals = np_arr.view(np.uint32).astype(np.int64)
    elif tag == "f64":
        vals = np.ascontiguousarray(np_arr).view(np.int64)
    elif tag == "u64":
        vals = np.ascontiguousarray(np_arr).view(np.int64)
    else:
        vals = np_arr.astype(np.int64, copy=False)
    return np.ascontiguousarray(vals, dtype=np.int64), tag


def int_stream_to_arrow(vals: np.ndarray, tag: str) -> pa.Array:
    """int64 stream (or an array already in the tag's storage dtype, as
    the decoders write it) -> Arrow array, wrapping the buffer."""
    st = STORAGE_DTYPES[tag]
    if vals.dtype != st:
        vals = as_dtype(vals, st)
    vals = np.require(vals, requirements=["C", "A"])
    return pa.Array.from_buffers(tag_type(tag), len(vals),
                                 [None, pa.py_buffer(vals)])


def str_stream_from_arrow(arr: pa.ChunkedArray | pa.Array) -> tuple[np.ndarray, bytes, str]:
    """String/binary Arrow array -> (lengths int64, concatenated data, tag)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    _no_nulls(arr)
    tag = type_tag(arr.type)
    large = arr.cast(pa.large_binary())
    buffers = large.buffers()
    offsets = np.frombuffer(buffers[1], dtype=np.int64, count=len(arr) + 1,
                            offset=large.offset * 8)
    lo, hi = int(offsets[0]), int(offsets[-1])
    data = buffers[2].to_pybytes()[lo:hi] if buffers[2] is not None else b""
    lengths = np.diff(offsets).astype(np.int64)
    return lengths, data, tag


def str_stream_to_arrow(lengths: np.ndarray, data: bytes, tag: str = "str") -> pa.Array:
    offsets = np.empty(len(lengths) + 1, dtype=np.int64)
    offsets[0] = 0
    np.cumsum(lengths, out=offsets[1:])
    arr = pa.LargeBinaryArray.from_buffers(
        pa.large_binary(), len(lengths),
        [None, pa.py_buffer(offsets.tobytes()), pa.py_buffer(data)],
    )
    return arr.cast(tag_type(tag))
