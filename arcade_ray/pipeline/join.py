"""Broadcast hash join over encoded tables.

"Joins between compressed files" is the reference's most prominent
unchecked roadmap item (/root/reference/README.md Features list); its
literal->code resolution is the degenerate single-value form
(src/process.cpp:241-299). This is the general operator, Ray-Data
shaped:

- the BUILD side (the small table, e.g. customer) is decoded once,
  placed in the object store with ``ray.put``, and fetched once per
  probe task — zero-copy from shared memory for same-node tasks,
  shipped once per node on a cluster. It is never re-sent per batch.
- the PROBE side streams: one task per group of encoded partitions
  decodes only the projected columns (+ key), maps probe keys to build
  rows with a vectorized ``pc.index_in``, and gathers the build columns
  with ``take``.

No shuffle: the join moves only the build table (once) and the
matching output rows. The scale assumption — build side fits a worker
heap — is asserted loudly (``max_build_rows``); for two large tables
use :func:`copartition_join`, which co-partitions both sides on the
key through the fragment exchange (arcade_ray/exchange.py) and joins
bucket by bucket instead.
"""

from __future__ import annotations

import functools
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..format import decode_partition
from .decode import map_partitions
from .encode import load_manifest

DEFAULT_MAX_BUILD_ROWS = 50_000_000  # ~hundreds of MB of keys; guardrail


def null_safe_buckets(col, n_buckets: int) -> "np.ndarray":
    """Key-hash bucket ids with NULL keys routed to bucket 0: a NULL
    join key matches nothing (the Arrow join inside the bucket gives
    the SQL semantics), it only needs to land SOMEWHERE so outer
    joins can null-extend it. hash_column itself refuses null-bearing
    columns, which outer joins earlier in a chain routinely produce."""
    from ..hashing import hash_column

    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) \
        else col
    if arr.null_count:
        valid = pc.is_valid(arr).to_numpy(zero_copy_only=False)
        out = np.zeros(len(arr), dtype=np.int64)
        if valid.any():
            out[valid] = (hash_column(arr.drop_null())
                          % np.uint64(n_buckets)).astype(np.int64)
        return out
    return (hash_column(arr) % np.uint64(n_buckets)).astype(np.int64)


def shuffle_join(left_dir: str, right_dir: str, left_key: str,
                 right_key: str, left_cols: list[str],
                 right_cols: list[str], join_type: str = "inner",
                 num_partitions: int | None = None,
                 _native: bool = False):
    """Large-large join of two ENCODED datasets. This is now an ALIAS
    for :func:`copartition_join` (measured 8-25x faster at sf0.1: no
    sort comparisons, one data movement per side) — kept so existing
    callers and the CLI keep working with one public large-large join,
    and it is the fast one.

    ``_native=True`` (tests only) runs the original implementation:
    decoded scans into Ray Data's hash-partitioned ``Dataset.join`` —
    retained as a parity oracle for copartition_join, not a user path.

    Returns a streaming Dataset with columns left_cols + right_cols."""
    if not _native:
        # normalize the *_outer aliases both entry points accept
        jt = {"left_outer": "left", "right_outer": "right",
              "full_outer": "full"}.get(join_type, join_type)
        return copartition_join(left_dir, right_dir, left_key, right_key,
                                left_cols, right_cols, join_type=jt,
                                n_buckets=num_partitions)

    import ray

    from .query import scan

    # accept the same names broadcast_join uses; Ray's enum wants
    # *_outer forms
    join_type = {"left": "left_outer", "right": "right_outer",
                 "full": "full_outer"}.get(join_type, join_type)
    left_need = list(dict.fromkeys(left_cols + [left_key]))
    right_need = list(dict.fromkeys(right_cols + [right_key]))
    lds = scan(left_dir, columns=left_need)
    rds = scan(right_dir, columns=right_need)
    if num_partitions is None:
        num_partitions = max(8, int(ray.cluster_resources().get("CPU", 8)))
    out = lds.join(
        rds, join_type=join_type, num_partitions=num_partitions,
        on=(left_key,), right_on=(right_key,),
    )
    keep = list(dict.fromkeys(left_cols + right_cols))
    return out.map_batches(lambda b: b.select(keep), batch_format="pyarrow")


def copartition_join(left_dir: str, right_dir: str, left_key: str,
                     right_key: str, left_cols: list[str],
                     right_cols: list[str], join_type: str = "inner",
                     n_buckets: int | None = None,
                     mode: str | None = None,
                     salt=None, salt_factor: int = 8):
    """Hash CO-PARTITIONED join of two large ENCODED datasets: one
    split task per encoded partition per side decodes key+projection
    columns and fans rows out to per-key-hash bucket fragments
    (the fragment exchange, arcade_ray/exchange.py: object-store
    fragments, or Arrow-IPC shuffle files in ``mode="disk"``), then
    one task per bucket joins its two
    fragment sets with Arrow's vectorized hash join. One data
    movement per side, no sort comparisons, join parallelism =
    n_buckets; ``salt="auto"`` spreads hot left keys (see
    :func:`dataset_join`, which implements the exchange — this entry
    point pins ``strategy="copartition"`` so the exchange always
    runs, small build sides included).

    Returns a streaming Dataset with columns left_cols + right_cols."""
    return dataset_join(left_dir, right_dir, left_key, right_key,
                        left_cols, right_cols, join_type=join_type,
                        n_buckets=n_buckets, mode=mode,
                        strategy="copartition", salt=salt,
                        salt_factor=salt_factor)


def detect_hot_keys(paths: list[str], key: str, n_buckets: int,
                    sample_parts: int = 6, max_keys: int = 64,
                    min_share: float | None = None) -> pa.Array | None:
    """Sampled hot-key detection for the salted join: decode the KEY
    column of up to ``sample_parts`` partitions (one Ray task each —
    the text/payload columns never load), merge per-partition value
    counts, and return keys whose sampled row share exceeds
    ``min_share`` (default 2/n_buckets — twice a fair bucket's load).
    None when the sample shows no skew."""
    import ray

    if min_share is None:
        min_share = 2.0 / n_buckets
    take = paths[:: max(1, len(paths) // sample_parts)][:sample_parts]

    @ray.remote
    def part_counts(path: str):
        from .encode import _pin_arrow_threads

        _pin_arrow_threads()
        col = decode_partition(path, columns=[key])[key].combine_chunks()
        vc = col.value_counts()
        # ship only the partition's own top candidates
        order = pc.array_sort_indices(vc.field("counts"),
                                      order="descending")
        top = vc.take(order.slice(0, max_keys))
        return (top.field("values"), top.field("counts").cast(pa.int64()),
                len(col))

    got = ray.get([part_counts.remote(p) for p in take])
    total = sum(n for _, _, n in got)
    if total == 0:
        return None
    merged: dict = {}
    for vals, counts, _ in got:
        for v, c in zip(vals.to_pylist(), counts.to_pylist()):
            merged[v] = merged.get(v, 0) + c
    hot = [v for v, c in sorted(merged.items(), key=lambda kv: -kv[1])
           if c / total >= min_share][:max_keys]
    return pa.array(hot, type=got[0][0].type) if hot else None


def _salted_buckets(t: pa.Table, key: str, h: "np.ndarray",
                    hot: pa.Array | None, n_buckets: int, factor: int,
                    replicate: bool):
    """Apply hot-key salting to a split task's bucket assignment.

    Probe side (``replicate=False``): a hot key's rows cycle across
    ``factor`` salt buckets instead of crowding one. Build side
    (``replicate=True``): a hot key's rows are COPIED into all
    ``factor`` salt buckets so every probe fragment still sees every
    matching build row exactly once. Salt buckets are
    ``(h + j*step) % n_buckets`` — identical arithmetic on both sides.
    Returns (table, bucket assignment) — the table grows only on the
    replicate side, only by hot rows x (factor-1)."""
    import numpy as np

    if hot is None or len(hot) == 0:
        return t, h
    mask = pc.fill_null(
        pc.is_in(t[key], value_set=hot.cast(t[key].type)),
        False).to_numpy(zero_copy_only=False)
    idx = np.flatnonzero(mask)
    if not len(idx):
        return t, h
    step = max(1, n_buckets // factor)
    if not replicate:
        salt = np.arange(len(idx), dtype=np.int64) % factor
        h = h.copy()
        h[idx] = (h[idx] + salt * step) % n_buckets
        return t, h
    parts = [t]
    hs = [h]
    hot_rows = t.take(pa.array(idx))
    for j in range(1, factor):
        parts.append(hot_rows)
        hs.append((h[idx] + j * step) % n_buckets)
    return pa.concat_tables(parts), np.concatenate(hs)


def _typed_empty(path: str, columns: list[str]) -> pa.Table:
    """Zero-row table with the encoded dataset's column types (from
    the partition header) — the missing side of an outer-join bucket."""
    from ..format import read_header
    from .query import _col_type

    header, _ = read_header(path)
    return pa.table({c: pa.array([], type=_col_type(header["columns"][c]))
                     for c in columns})


def _empty_from_sidecar(out_dir: str, columns: list[str]) -> pa.Table:
    """Typed empty for a ZERO-PARTITION encoded dir via its
    _schema.arrows sidecar (no partition header exists to consult).
    Raises FileNotFoundError like scan() on pre-sidecar empty dirs."""
    from .encode import read_schema_sidecar

    sch = read_schema_sidecar(out_dir)
    if sch is None:
        raise FileNotFoundError(f"no committed partitions under {out_dir}")
    missing = [c for c in columns if c not in sch.names]
    if missing:
        raise KeyError(
            f"columns {missing} not in encoded schema {sch.names}")
    return pa.table({c: pa.array([], type=sch.field(c).type)
                     for c in columns})


def _side_empty(out_dir: str, paths: list[str],
                columns: list[str]) -> pa.Table:
    """Typed empty for one join side: partition header when any
    partition exists, else the schema sidecar."""
    return _typed_empty(paths[0], columns) if paths \
        else _empty_from_sidecar(out_dir, columns)


def _decode_all(out_dir: str, columns: list[str]) -> pa.Table:
    """Decode a (small) encoded dataset to one driver-side table via
    parallel per-partition tasks."""
    import ray

    paths = [r["path"] for r in load_manifest(out_dir).to_pylist()]

    @ray.remote
    def dec(path: str) -> pa.Table:
        from .encode import _pin_arrow_threads

        _pin_arrow_threads()
        return decode_partition(path, columns=columns)

    tables = ray.get([dec.remote(p) for p in paths])
    return pa.concat_tables(tables).combine_chunks()


def broadcast_join(probe_dir: str, build_dir: str, probe_key,
                   build_key, probe_cols: list[str],
                   build_cols: list[str], how: str = "inner",
                   max_build_rows: int = DEFAULT_MAX_BUILD_ROWS):
    """Join two ENCODED datasets on probe_key == build_key.

    ``probe_key`` / ``build_key``: a column name or a LIST of names
    (composite-key join; same length both sides). Returns a streaming
    Dataset with columns probe_cols + build_cols. ``how``: "inner"
    (drop probe rows with no match) or "left" (keep, build columns
    null). Build keys must be unique (hash-lookup join) — duplicates
    raise rather than silently dropping matches.

    Single-key probes use one vectorized ``pc.index_in`` + gather;
    composite keys use Arrow's native multi-key hash join per
    partition (the build-side hash table costs O(build) per task —
    the same class as index_in's per-call value-set hash)."""
    import ray

    if how not in ("inner", "left"):
        raise ValueError(f"how must be 'inner' or 'left', got {how!r}")
    probe_keys = [probe_key] if isinstance(probe_key, str) else list(probe_key)
    build_keys = [build_key] if isinstance(build_key, str) else list(build_key)
    if len(probe_keys) != len(build_keys):
        raise ValueError(
            f"key lists differ in length: {probe_keys} vs {build_keys}")

    # build side: an encoded dir, or an already-materialized (small)
    # table — e.g. the output of a decode-free aggregate
    if isinstance(build_dir, pa.Table):
        build = build_dir.select(list(dict.fromkeys(build_keys + build_cols)))
    else:
        build = _decode_all(build_dir, columns=list(
            dict.fromkeys(build_keys + build_cols)))
    if build.num_rows > max_build_rows:
        raise ValueError(
            f"build side has {build.num_rows} rows (> {max_build_rows}); "
            "broadcast join needs a small build side — co-partition both "
            "tables on the key instead"
        )
    from ..collect import group_aggregate

    n_unique = group_aggregate(build, build_keys, []).num_rows
    if n_unique != build.num_rows:
        raise ValueError(
            f"build key {build_keys} is not unique "
            f"({build.num_rows} rows, {n_unique} distinct)"
        )
    build_ref = ray.put(build)

    probe_rows = load_manifest(probe_dir).to_pylist()
    need = list(dict.fromkeys(probe_cols + probe_keys))
    out_cols = list(dict.fromkeys(probe_cols + build_cols))

    def probe(batch: pa.Table) -> pa.Table:
        b = ray.get(build_ref)  # shared-memory fetch, once per task
        outs = []
        for p in batch["path"]:
            t = decode_partition(p.as_py(), columns=need)
            if len(probe_keys) == 1:
                keys = b[build_keys[0]].combine_chunks()
                pos = pc.index_in(
                    t[probe_keys[0]].combine_chunks().cast(keys.type),
                    value_set=keys)
                if how == "inner":
                    hit = pc.is_valid(pos)
                    t = t.filter(hit)
                    pos = pos.filter(hit)
                cols = {c: t[c] for c in probe_cols}
                for c in build_cols:
                    cols[c] = b[c].take(pos)
                outs.append(pa.table(cols))
            else:
                joined = t.join(
                    b, keys=probe_keys, right_keys=build_keys,
                    join_type="inner" if how == "inner" else "left outer",
                )
                outs.append(joined.select(out_cols))
        return pa.concat_tables(outs)

    return map_partitions(probe_rows, probe)


def _as_key_array(keys) -> pa.ChunkedArray:
    """Coerce a key set (pa.Array/ChunkedArray, single-column pa.Table,
    or ray Dataset) to a deduplicated, null-free ChunkedArray."""
    if hasattr(keys, "iter_internal_ref_bundles"):  # ray.data.Dataset
        from ..collect import collect_arrow

        keys = collect_arrow(keys)
    if isinstance(keys, pa.Table):
        if keys.num_columns != 1:
            raise ValueError(
                f"key table must have exactly one column, got "
                f"{keys.column_names}"
            )
        keys = keys.column(0)
    if isinstance(keys, pa.Array):
        keys = pa.chunked_array([keys])
    return pa.chunked_array([pc.unique(pc.drop_null(keys.combine_chunks()))])


def semi_join(probe_dir: str, probe_key: str, probe_cols: list[str],
              keys, anti: bool = False,
              max_keys: int = DEFAULT_MAX_BUILD_ROWS):
    """SEMI (``anti=False``) / ANTI (``anti=True``) join: keep probe
    rows whose ``probe_key`` is / is not in the broadcast key set.
    Reference roadmap "Joins between compressed files" — the
    existence-only form, which never materializes build columns.

    ``keys`` may be a pa.Array/ChunkedArray, a one-column pa.Table, or
    a (small) ray Dataset — e.g. the output of ``equi_filter`` over
    the build table. It is deduplicated, broadcast once with
    ``ray.put``, and probed per partition with a vectorized
    ``pc.is_in`` — no shuffle, no build-column decode. For integer
    keys, SEMI prunes partitions whose manifest zone map cannot
    contain any key before any task spawns (ANTI reads everything by
    definition: non-matching rows survive). Scale assumption: the
    DISTINCT key set fits a worker heap (``max_keys`` guardrail); for
    large-large semi joins co-partition both sides instead.

    ANTI semantics are NOT EXISTS (null-safe): probe rows with a null
    key survive ANTI and never match SEMI."""
    import json

    import ray
    import ray.data as rd

    from ..format import read_header
    from .query import _manifest_prunable

    keyset = _as_key_array(keys)
    if len(keyset) > max_keys:
        raise ValueError(
            f"key set has {len(keyset)} entries (> {max_keys}); "
            "broadcast semi join needs a small key side — use "
            "semi_join_large (Bloom prefilter + co-partitioned exact "
            "verify) for huge key sides"
        )

    rows = load_manifest(probe_dir).to_pylist()
    if not rows:  # empty probe table: semi/anti of nothing is nothing
        return rd.from_arrow(_empty_from_sidecar(
            probe_dir, list(dict.fromkeys(probe_cols + [probe_key]))
        ).select(probe_cols))
    header0, _ = read_header(rows[0]["path"])
    known = list(header0["columns"])
    for c in [probe_key, *probe_cols]:
        if c not in known:
            raise KeyError(
                f"column {c!r} not in encoded dataset (columns: {known})"
            )

    survivors = rows
    if not anti and len(keyset) and _manifest_prunable(header0, probe_key) \
            and pa.types.is_integer(keyset.type):
        import bisect

        sorted_keys = sorted(keyset.to_pylist())
        survivors = []
        for r in rows:
            stats = json.loads(r["col_stats"]).get(probe_key, {})
            lo, hi = stats.get("min"), stats.get("max")
            if lo is not None and hi is not None:
                i = bisect.bisect_left(sorted_keys, lo)
                if i == len(sorted_keys) or sorted_keys[i] > hi:
                    continue  # no key can fall inside this partition
            survivors.append(r)

    need = list(dict.fromkeys(probe_cols + [probe_key]))
    if not survivors:
        return rd.from_arrow(_typed_empty(rows[0]["path"], probe_cols))
    keys_ref = ray.put(keyset)

    def probe(batch: pa.Table) -> pa.Table:
        ks = ray.get(keys_ref).combine_chunks()
        outs = []
        for p in batch["path"]:
            t = decode_partition(p.as_py(), columns=need)
            col = t[probe_key].combine_chunks().cast(ks.type)
            hit = pc.is_in(col, value_set=ks)
            if anti:
                # NOT EXISTS: nulls survive (is_in yields false there)
                hit = pc.invert(hit)
            outs.append(t.filter(hit).select(probe_cols))
        return pa.concat_tables(outs)

    return map_partitions(survivors, probe)


def semi_join_large(probe_dir: str, probe_key: str, probe_cols: list[str],
                    keys_ds, anti: bool = False,
                    bits_per_key: int = 12, n_buckets: int | None = None):
    """EXACT SEMI/ANTI join when the key side is TOO BIG to broadcast
    as a set (:func:`semi_join`'s guardrail case): a Bloom bitmap
    prefilter + a co-partitioned exact verify.

    1. The key Dataset builds a Bloom bitmap distributed: one partial
       bitmap per block (two bit positions per key from independent
       64-bit hashes), OR-merged in a binary task tree — the driver
       never holds the keys, only the final m-bit bitmap
       (``bits_per_key`` x #keys bits; 12 -> ~0.5% FP before verify).
    2. Probe partitions prefilter against the broadcast bitmap: bloom
       MISSES are definite non-members (resolved immediately — kept
       for ANTI, dropped for SEMI); only bloom HITS (true members +
       ~FP-rate false positives) continue.
    3. Exact verify: the surviving probe rows and the key rows
       co-partition by key hash into coarse buckets (one shuffle of
       the small surviving set + the keys); per bucket one vectorized
       ``pc.is_in`` settles membership exactly.

    Null keys: never match SEMI, survive ANTI (NOT EXISTS).

    Bitmap guardrail: the Bloom bitmap is broadcast whole (one plasma
    copy per node). Past ``ARCADE_BLOOM_MAX_BYTES`` (default 256 MiB
    ≈ 1.7e9 keys at 12 bits) the prefilter stops paying for itself as
    a broadcast object — the join DEGRADES GRACEFULLY to the exact
    co-partitioned verify alone: every non-null probe row ships
    through the key-hash exchange instead of only the bloom hits.
    Same results, one shuffle, no multi-GB broadcast."""
    import ray
    import ray.data as rd

    from ..hashing import hash_column
    from ..format import read_header

    if n_buckets is None:
        avail = int(ray.cluster_resources().get("CPU", 8)) \
            if ray.is_initialized() else 8
        n_buckets = max(8, 2 * avail)

    n_keys = max(int(keys_ds.count()), 1)
    m_bits = 1 << max(int(np.ceil(np.log2(n_keys * bits_per_key))), 10)
    m_mask = np.uint64(m_bits - 1)
    n_bytes = m_bits // 8
    use_bloom = n_bytes <= int(
        os.environ.get("ARCADE_BLOOM_MAX_BYTES", 1 << 28))

    def _positions(arr) -> tuple[np.ndarray, np.ndarray]:
        h = hash_column(arr)
        # two independent positions from one 64-bit hash (upper half
        # re-mixed): classic double hashing
        h2 = (h ^ (h >> np.uint64(33))) * np.uint64(0xFF51AFD7ED558CCD)
        return h & m_mask, h2 & m_mask

    def _bitmap_of(batch: pa.Table) -> pa.Table:
        key_col = batch.column_names[0]
        bm = np.zeros(n_bytes, dtype=np.uint8)
        p1, p2 = _positions(pc.drop_null(batch[key_col].combine_chunks()))
        for p in (p1, p2):
            np.bitwise_or.at(bm, (p >> np.uint64(3)).astype(np.int64),
                             np.uint8(1) << (p & np.uint64(7)).astype(np.uint8))
        return pa.table({"bm": pa.array([bm.tobytes()], type=pa.large_binary())})

    bloom_ref = None
    if use_bloom:
        partials = [ray.put(np.frombuffer(r["bm"], dtype=np.uint8))
                    for r in keys_ds.map_batches(
                        _bitmap_of, batch_format="pyarrow").take_all()]

        @ray.remote
        def _or(a, b):
            return np.bitwise_or(a, b)

        refs = partials
        while len(refs) > 1:
            nxt = [_or.remote(refs[i], refs[i + 1])
                   for i in range(0, len(refs) - 1, 2)]
            if len(refs) % 2:
                nxt.append(refs[-1])
            refs = nxt
        bloom_ref = refs[0]

    def _bloom_hit(col) -> np.ndarray:
        bm = ray.get(bloom_ref)
        p1, p2 = _positions(col)
        hit1 = (bm[(p1 >> np.uint64(3)).astype(np.int64)]
                >> (p1 & np.uint64(7)).astype(np.uint8)) & 1
        hit2 = (bm[(p2 >> np.uint64(3)).astype(np.int64)]
                >> (p2 & np.uint64(7)).astype(np.uint8)) & 1
        return (hit1 & hit2).astype(bool)

    rows = load_manifest(probe_dir).to_pylist()
    if not rows:  # empty probe table: semi/anti of nothing is nothing
        return rd.from_arrow(_empty_from_sidecar(
            probe_dir, list(dict.fromkeys(probe_cols + [probe_key]))
        ).select(probe_cols))
    header0, _ = read_header(rows[0]["path"])
    known = list(header0["columns"])
    for c in [probe_key, *probe_cols]:
        if c not in known:
            raise KeyError(
                f"column {c!r} not in encoded dataset (columns: {known})")
    need = list(dict.fromkeys(probe_cols + [probe_key]))

    def prefilter(batch: pa.Table) -> pa.Table:
        outs = []
        for p in batch["path"]:
            t = decode_partition(p.as_py(), columns=need)
            col = t[probe_key].combine_chunks()
            valid = pc.is_valid(col)
            hit = np.zeros(t.num_rows, dtype=bool)
            nn = col.drop_null()
            if len(nn):
                # no bloom (bitmap over the byte cap): every non-null
                # row pends into the exact co-partitioned verify
                hit[pc.is_valid(col).to_numpy(zero_copy_only=False)] = \
                    _bloom_hit(nn) if bloom_ref is not None else True
            if anti:
                # definite non-members (bloom miss or null) resolve NOW
                keep_now = t.filter(pa.array(~hit))
                pend = t.filter(pa.array(hit))
                outs.append(pa.table({
                    "_settled": pa.array([True] * keep_now.num_rows
                                         + [False] * pend.num_rows,
                                         type=pa.bool_()),
                    **{c: pa.concat_arrays([
                        keep_now[c].combine_chunks(),
                        pend[c].combine_chunks()]) for c in need},
                }))
            else:
                outs.append(pa.table({
                    "_settled": pa.array([False] * int(hit.sum()),
                                         type=pa.bool_()),
                    **{c: t.filter(pa.array(hit))[c] for c in need},
                }))
        return pa.concat_tables(outs)

    survivors = map_partitions(rows, prefilter)

    # exact verify: co-partition pending probe rows + keys by key hash
    def tag_probe(b: pa.Table) -> pa.Table:
        # hash only rows that still need verification: settled rows get
        # bucket -1, and null-key rows (already settled by prefilter —
        # bloom-miss for ANTI, dropped for SEMI) must never reach
        # hash_column, whose no-nulls guard would raise.
        col = b[probe_key].combine_chunks()
        settled = b["_settled"].to_numpy(zero_copy_only=False)
        todo = pc.is_valid(col).to_numpy(zero_copy_only=False) & ~settled
        bk = np.full(b.num_rows, -1, dtype=np.int64)
        if todo.any():
            bk[todo] = (hash_column(col.filter(pa.array(todo)))
                        % np.uint64(n_buckets)).astype(np.int64)
        return b.append_column("_jb", pa.array(bk))

    k_sch, s_sch = keys_ds.schema(), survivors.schema()
    if k_sch is None or s_sch is None:
        raise ValueError("semi_join_large over an empty dataset with no "
                         "schema (keys empty: %s, probe empty: %s)"
                         % (k_sch is None, s_sch is None))
    key_name = k_sch.names[0]
    probe_schema = {f.name: f.type for f in s_sch.base_schema}

    def tag_keys2(b: pa.Table) -> pa.Table:
        col = pc.drop_null(b[key_name].combine_chunks())
        bk = (hash_column(col) % np.uint64(n_buckets)).astype(np.int64)
        # column order mirrors the probe side exactly (same-schema
        # RefBundles let Ray Data dedup/union without a warning)
        cols = {"_settled": pa.array(np.zeros(len(col), dtype=bool))}
        for c in need:
            cols[c] = col.cast(probe_schema[c]) if c == probe_key \
                else pa.nulls(len(col), probe_schema[c])
        cols["_is_key"] = pa.array(np.ones(len(col), dtype=bool))
        t = pa.table(cols)
        return t.append_column("_jb", pa.array(bk))

    def mark_probe(b: pa.Table) -> pa.Table:
        return b.append_column(
            "_is_key", pa.array(np.zeros(b.num_rows, dtype=bool)))

    unified = survivors.map_batches(mark_probe, batch_format="pyarrow") \
        .map_batches(tag_probe, batch_format="pyarrow") \
        .union(keys_ds.map_batches(tag_keys2, batch_format="pyarrow"))

    empty_out = pa.table({c: pa.array([], type=probe_schema[c])
                          for c in probe_cols})

    def verify(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            # typed empty: Ray's sort hands schema-less blocks to
            # empty key ranges
            return empty_out
        settled = t.filter(t["_settled"])
        pend = t.filter(pc.and_(pc.invert(t["_settled"]),
                                pc.invert(t["_is_key"])))
        keys = t.filter(t["_is_key"])[probe_key].combine_chunks()
        member = pc.is_in(pend[probe_key].combine_chunks(), value_set=keys)
        keep = pc.invert(member) if anti else member
        return pa.concat_tables([
            settled.select(probe_cols),
            pend.filter(keep).select(probe_cols),
        ])

    return unified.groupby("_jb").map_groups(verify, batch_format="pyarrow")


# dataset_join: the shared bucket exchange --------------------------

BROADCAST_JOIN_BYTES = int(os.environ.get(
    "ARCADE_BROADCAST_JOIN_BYTES", str(256 << 20)))


def _keys_list(k) -> list[str]:
    return [k] if isinstance(k, str) else list(k)


def dataset_join(left, right, left_key, right_key,
                 left_cols: list[str], right_cols: list[str],
                 join_type: str = "inner", n_buckets: int | None = None,
                 mode: str | None = None, strategy: str | None = None,
                 left_types: dict | None = None,
                 salt=None, salt_factor: int = 8):
    """General join: each side is an ENCODED dir (str), the LEFT side
    may also be a streaming ``ray.data.Dataset`` (e.g. a previous
    join's output — the step that makes N-way chains possible without
    re-encoding intermediates), and the RIGHT side may be an
    in-memory ``pa.Table``. Reference roadmap "Joins between
    compressed files" (/root/reference/README.md), generalized.
    :func:`copartition_join` is this operator pinned to the exchange
    strategy for two encoded dirs.

    Strategy (auto unless ``strategy=`` forces one):

    - ``"broadcast"``: the right side is decoded once, ``ray.put``
      once, and every stream batch / decoded partition joins against
      it with Arrow's hash join — no barrier. Auto-chosen when the
      right side is an in-memory table or its manifest raw_bytes fit
      under ``BROADCAST_JOIN_BYTES`` AND the join preserves the left
      side (inner/left/semi/anti) — a per-batch join cannot track
      unmatched build rows for right/full outer.
    - ``"copartition"``: both sides fan out to per-key-hash bucket
      fragments (one split task per encoded partition or stream
      block; NULL keys bucket null-safely) and one Arrow join runs
      per bucket, through the fragment exchange
      (arcade_ray/exchange.py). ``mode`` is its sink: ``"objects"``,
      or ``"disk"`` for Arrow-IPC shuffle files (bounded object-store
      footprint); ``None`` applies the exchange's auto rule to both
      sides' manifest raw_bytes (a stream's metadata size).

    ``left_key`` / ``right_key`` may be a single column or a list
    (multi-equality ON): fragments bucket on the FIRST key pair (rows
    equal on all keys agree on key one, so co-partitioning stays
    correct) and the Arrow join matches on all of them.

    ``salt`` (skew handling, single-key inner/left exchanges): hot
    left keys spread across ``salt_factor`` salt buckets with the
    right side's matching rows replicated into each — every left row
    still meets each right row exactly once. ``salt="auto"`` samples
    an encoded-dir left side (:func:`detect_hot_keys`); pass an
    explicit key list otherwise.

    Returns a streaming Dataset with columns left_cols + right_cols
    (semi/anti: left_cols only)."""
    import ray
    import ray.data as rd

    from .encode import _pin_arrow_threads

    lkeys, rkeys = _keys_list(left_key), _keys_list(right_key)
    if len(lkeys) != len(rkeys) or not lkeys:
        raise ValueError("left/right key lists must be same-length, "
                         "non-empty")
    arrow_how = {"inner": "inner", "left": "left outer",
                 "right": "right outer", "full": "full outer",
                 "semi": "left semi", "anti": "left anti"
                 }.get(join_type)
    if arrow_how is None:
        raise ValueError(f"join_type must be inner/left/right/full/"
                         f"semi/anti, got {join_type!r}")
    if arrow_how in ("left semi", "left anti") and right_cols:
        raise ValueError("semi/anti joins emit LEFT columns only")
    coalesced = {lk for lk, rk in zip(lkeys, rkeys) if lk == rk}
    dup = sorted((set(left_cols) & set(right_cols)) - coalesced)
    if dup:
        raise ValueError(
            f"ambiguous output columns {dup} requested from BOTH "
            "sides; drop or rename one side's projection")
    # Arrow coalesces each key pair into one column named after the
    # left key; keep keys un-coalesced when the caller wants a right
    # key column under its own (different) name, so outer joins can
    # emit the SQL shape (right key null on left-only rows).
    coalesce = not any(rk in right_cols and rk != lk
                       for lk, rk in zip(lkeys, rkeys))
    left_need = list(dict.fromkeys(lkeys + list(left_cols)))
    right_need = list(dict.fromkeys(rkeys + list(right_cols)))
    keep = list(dict.fromkeys(list(left_cols) + list(right_cols))) \
        if arrow_how not in ("left semi", "left anti") \
        else list(dict.fromkeys(list(left_cols)))
    if n_buckets is None:
        n_buckets = max(16, int(ray.cluster_resources().get("CPU", 8)))

    left_is_dir = isinstance(left, str)
    right_is_mem = isinstance(right, pa.Table)
    if right_is_mem:
        missing = [c for c in right_need if c not in right.column_names]
        if missing:
            raise KeyError(f"columns {missing} not in right table")
        r_bytes = right.select(right_need).nbytes
        r_paths: list[str] = []
        r_empty = right.select(right_need).slice(0, 0)
    else:
        r_man = load_manifest(right)
        r_paths = [r["path"] for r in r_man.to_pylist()]
        r_bytes = int(pc.sum(r_man["raw_bytes"]).as_py() or 0)
        r_empty = _side_empty(right, r_paths, right_need)
    l_paths: list[str] = []
    l_bytes = 0
    if left_is_dir:
        l_man = load_manifest(left)
        l_paths = [r["path"] for r in l_man.to_pylist()]
        l_bytes = int(pc.sum(l_man["raw_bytes"]).as_py() or 0)
        l_empty = _side_empty(left, l_paths, left_need)

        # an EMPTY side (zero committed partitions / zero mem rows)
        # resolves without any exchange when both sides' emptiness is
        # knowable: inner/same-side-outer -> typed empty; the opposite
        # outer streams the surviving side with typed nulls
        r_known_empty = not r_paths if not right_is_mem \
            else right.num_rows == 0
        if not l_paths or r_known_empty:
            empty_out = pa.table({
                c: (l_empty[c] if c in l_empty.column_names
                    else r_empty[c]) for c in keep})
            if (not l_paths and r_known_empty) \
                    or (not l_paths and arrow_how in (
                        "inner", "left outer", "left semi",
                        "left anti")) \
                    or (r_known_empty and arrow_how in (
                        "inner", "right outer", "left semi")):
                return rd.from_arrow(empty_out)
            from .query import scan

            if not l_paths:
                live_cols = [c for c in right_cols if c in keep]
                live = rd.from_arrow(right.select(live_cols)) \
                    if right_is_mem else scan(right, columns=live_cols)
                absent = l_empty
            else:
                live = scan(left, columns=[c for c in left_cols
                                           if c in keep])
                absent = r_empty

            def pad(b: pa.Table) -> pa.Table:
                return pa.table({
                    c: (b[c] if c in b.column_names
                        else pa.nulls(b.num_rows, absent[c].type))
                    for c in keep})

            return live.map_batches(pad, batch_format="pyarrow")

    hot = None
    if salt is not None:
        if arrow_how not in ("inner", "left outer"):
            raise ValueError("salt= applies to inner/left joins only "
                             "(replicated build rows would duplicate "
                             "unmatched right/full-outer output)")
        if len(lkeys) > 1:
            raise ValueError("salt= needs a single join key")
        if isinstance(salt, str) and salt == "auto":
            if not left_is_dir:
                raise ValueError("salt='auto' samples an encoded-dir "
                                 "left side; pass explicit hot keys "
                                 "for a stream")
            if l_paths:
                hot = detect_hot_keys(l_paths, lkeys[0], n_buckets)
        else:
            hot = salt if isinstance(salt, pa.Array) \
                else pa.array(list(salt))

    _stream_preserving = ("inner", "left outer", "left semi",
                          "left anti")
    if strategy is None:
        strategy = "broadcast" \
            if (right_is_mem or r_bytes <= BROADCAST_JOIN_BYTES) \
            and arrow_how in _stream_preserving else "copartition"
    if strategy == "broadcast":
        if arrow_how not in _stream_preserving:
            raise ValueError(
                "broadcast dataset_join preserves only the streamed "
                "side: inner/left/semi/anti joins only")
        build = right.select(right_need) if right_is_mem \
            else (_decode_all(right, right_need) if r_paths else r_empty)
        ref = ray.put(build)

        def j(b: pa.Table) -> pa.Table:
            _pin_arrow_threads()
            t = b.select(left_need).join(
                ray.get(ref), keys=lkeys, right_keys=rkeys,
                join_type=arrow_how, coalesce_keys=coalesce)
            return t.select(keep)

        if left_is_dir:
            from .query import scan

            return scan(left, columns=left_need).map_batches(
                j, batch_format="pyarrow")
        out = left.map_batches(j, batch_format="pyarrow")
        # an EMPTY stream never invokes the UDF and would come back
        # schema-less; when the caller supplied the stream's column
        # types (``left_types``), seed a typed zero-row block (exact
        # Arrow-join output types) so downstream ops keep the SQL
        # shape without executing the stream to discover its schema.
        if left_types is not None \
                and all(c in left_types for c in left_need):
            seed_l = pa.table({c: pa.array([], type=left_types[c])
                               for c in left_need})
            seed = seed_l.join(
                build.slice(0, 0), keys=lkeys, right_keys=rkeys,
                join_type=arrow_how, coalesce_keys=coalesce).select(keep)
            out = rd.from_arrow(seed).union(out)
        return out
    if strategy != "copartition":
        raise ValueError(f"strategy must be broadcast/copartition, "
                         f"got {strategy!r}")

    from ..collect import iter_arrow_refs
    from ..exchange import auto_mode, dataset_bytes, read, stage

    if left_is_dir:
        l_srcs: list = l_paths
    else:
        mds = left.materialize()
        l_srcs = list(iter_arrow_refs(mds))
        l_bytes = dataset_bytes(mds) or 0
        if l_srcs:
            first = ray.get(l_srcs[0])
            missing = [c for c in left_need
                       if c not in first.column_names]
            if missing:
                raise KeyError(f"columns {missing} not in left stream "
                               f"(have {first.column_names})")
            l_empty = first.select(left_need).slice(0, 0)
        else:
            sch = mds.schema()
            names = list(sch.names)
            types = list(sch.types)
            missing = [c for c in left_need if c not in names]
            if missing:
                raise KeyError(f"columns {missing} not in left stream "
                               f"(have {names})")
            l_empty = pa.table({
                c: pa.array([], type=types[names.index(c)])
                for c in left_need})
    if mode is None:
        mode = auto_mode(l_bytes + r_bytes)

    def route(keys: list[str], cols: list[str], rep: bool, src):
        t = decode_partition(src, columns=cols) \
            if isinstance(src, str) else src.select(cols)
        h = null_safe_buckets(t[keys[0]], n_buckets)
        return _salted_buckets(t, keys[0], h, hot, n_buckets,
                               salt_factor, rep)

    l_stage = stage(functools.partial(route, lkeys, left_need, False),
                    l_srcs, n_buckets, mode, "joinL")
    r_srcs = ([right] if right.num_rows else []) if right_is_mem \
        else r_paths
    r_stage = stage(functools.partial(route, rkeys, right_need, True),
                    r_srcs, n_buckets, mode, "joinR")
    l_has = [p is not None for p in l_stage.parts]
    r_has = [p is not None for p in r_stage.parts]

    def fetch(b: int):
        lt = read(l_stage.parts[b])
        rt = read(r_stage.parts[b])
        return (lt if lt is not None else l_empty,
                rt if rt is not None else r_empty)

    if arrow_how in ("inner", "left semi"):
        live = [b for b in range(n_buckets) if l_has[b] and r_has[b]]
    elif arrow_how in ("left outer", "left anti"):
        live = [b for b in range(n_buckets) if l_has[b]]
    elif arrow_how == "right outer":
        live = [b for b in range(n_buckets) if r_has[b]]
    else:
        live = [b for b in range(n_buckets) if l_has[b] or r_has[b]]
    if not live:
        return rd.from_arrow(l_empty.join(
            r_empty, keys=lkeys, right_keys=rkeys,
            join_type=arrow_how, coalesce_keys=coalesce).select(keep))
    ds = rd.from_items([{"bucket": b} for b in live])

    def join_bucket(batch: pa.Table) -> pa.Table:
        _pin_arrow_threads()
        outs = []
        for bv in batch["bucket"]:
            b = bv.as_py()
            lt, rt = fetch(b)
            jn = lt.join(rt, keys=lkeys, right_keys=rkeys,
                         join_type=arrow_how, coalesce_keys=coalesce)
            outs.append(jn.select(keep))
        return pa.concat_tables(outs)

    return ds.map_batches(join_bucket, batch_format="pyarrow",
                          batch_size=1)
