"""Per-stream profiling: the statistics the cost model consumes.

Mirrors the role of the reference's per-block distinct/diff counting and
min/max zone-map construction (src/writer.cpp:55-61, 91) — generalized
to run counts and value ranges so the wider codec palette (RLE, FoR,
bit-pack) can be costed (SURVEY.md §2.2, last paragraph).

Profiles cache the expensive intermediate every stream needs (the
sorted distinct values: the sketches hash them, the dictionary codec
stores them); what only one codec needs, it builds when it is chosen.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class IntProfile:
    n: int
    vmin: int
    vmax: int
    n_distinct: int
    n_runs: int
    unique: np.ndarray          # sorted distinct values (int64)
    dmin: int | None = None     # min/max of successive diffs (None when
    dmax: int | None = None     # n < 2 or the span risks int64 overflow)

    @property
    def distinct_ratio(self) -> float:
        return self.n_distinct / self.n if self.n else 0.0


# values in the strided sample that picks how profile_int finds a wide
# stream's distinct set
UNIQUE_SAMPLE = 1024


def profile_int(vals: np.ndarray) -> IntProfile:
    """One stream's statistics. The run count comes from the diffs the
    delta codec needs anyway (a run starts wherever a diff is nonzero);
    the run starts themselves are built only if RLE is encoded
    (:func:`run_starts`)."""
    n = len(vals)
    if n == 0:
        return IntProfile(0, 0, 0, 0, 0, np.empty(0, np.int64))
    vmin, vmax = int(vals.min()), int(vals.max())
    span = vmax - vmin
    unique = _distinct(vals, vmin, span)
    dmin = dmax = None
    if n >= 2 and span < (1 << 62):
        # diff stats for the delta codec; skipped when the span could
        # overflow int64 diffs (e.g. float64 bit patterns)
        d = np.diff(vals)
        dmin, dmax = int(d.min()), int(d.max())
        n_runs = int(np.count_nonzero(d)) + 1
    else:
        n_runs = int(np.count_nonzero(vals[1:] != vals[:-1])) + 1
    return IntProfile(
        n=n,
        vmin=vmin,
        vmax=vmax,
        n_distinct=len(unique),
        n_runs=n_runs,
        unique=unique,
        dmin=dmin,
        dmax=dmax,
    )


def _distinct(vals: np.ndarray, vmin: int, span: int) -> np.ndarray:
    """The sorted distinct values. A narrow range counts them with a
    bincount, O(n + span). A wide one hashes them when a strided
    sample looks low-cardinality (few of its values occur once: the
    sample has met most of the set), and sorts the stream otherwise: a
    hash table over a high-cardinality stream costs several sorts."""
    n = len(vals)
    if span <= max(65536, 4 * n):
        counts = np.bincount((vals - vmin).astype(np.int64),
                             minlength=span + 1)
        return (np.flatnonzero(counts) + vmin).astype(np.int64)
    sample = vals[::max(1, n // UNIQUE_SAMPLE)]
    _, seen = np.unique(sample, return_counts=True)
    if np.count_nonzero(seen == 1) * 8 <= len(sample):
        return hash_unique(vals)
    return np.unique(vals)


def hash_unique(vals: np.ndarray) -> np.ndarray:
    """``np.unique(vals)`` by a hash pass, then a sort of the distinct
    values only."""
    import pyarrow as pa
    import pyarrow.compute as pc

    return np.sort(pc.unique(pa.array(vals, type=pa.int64())).to_numpy())


def run_starts(vals: np.ndarray) -> np.ndarray:
    """Indices where a new run of equal values begins (0 included)."""
    change = np.empty(len(vals), dtype=bool)
    change[:1] = True
    np.not_equal(vals[1:], vals[:-1], out=change[1:])
    return np.flatnonzero(change)


@dataclass
class StrProfile:
    n: int
    total_bytes: int
    max_len: int
    n_distinct: int
    n_runs: int
    # sorted distinct values as (lengths, data) plus, for code assignment,
    # the inverse mapping chunk value -> index in `unique` (int64).
    unique_lengths: np.ndarray
    unique_data: bytes
    codes: np.ndarray           # per-row index into the sorted distinct set
    distinct_bytes: int = field(default=0)

    @property
    def distinct_ratio(self) -> float:
        return self.n_distinct / self.n if self.n else 0.0


def profile_str(lengths: np.ndarray, data: bytes) -> StrProfile:
    """Profile a string stream. Uses Arrow's hash-based dictionary
    encoding (vectorized) to get distincts + per-row codes in one pass,
    then sorts the dictionary so it is range-prunable — mirroring the
    reference's sorted dictionaries (src/writer.cpp:57-58)."""
    import pyarrow.compute as pc

    from .streams import str_stream_to_arrow

    n = len(lengths)
    if n == 0:
        return StrProfile(0, 0, 0, 0, 0, np.empty(0, np.int64), b"",
                          np.empty(0, np.int64), 0)
    arr = str_stream_to_arrow(lengths, data, "bin")
    denc = arr.dictionary_encode()
    dict_arr = denc.dictionary
    raw_codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    order = pc.sort_indices(dict_arr).to_numpy(zero_copy_only=False).astype(np.int64)
    sorted_dict = dict_arr.take(pa_array_i64(order))
    # remap: raw code -> rank in sorted dict
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order), dtype=np.int64)
    codes = rank[raw_codes]
    from .streams import str_stream_from_arrow

    u_lengths, u_data, _ = str_stream_from_arrow(sorted_dict)
    n_runs = int(np.count_nonzero(np.diff(codes)) + 1)
    return StrProfile(
        n=n,
        total_bytes=len(data),
        max_len=int(lengths.max()) if n else 0,
        n_distinct=len(order),
        n_runs=n_runs,
        unique_lengths=u_lengths,
        unique_data=u_data,
        codes=codes,
        distinct_bytes=len(u_data),
    )


def pa_array_i64(a: np.ndarray):
    import pyarrow as pa

    return pa.array(a, type=pa.int64())
