"""Generic vectorized Dataset transforms (relational operators that
are one zero-copy Arrow kernel per batch — no shuffle, no state).

Reference parity: the reference engine has no UNNEST; this extends
the relational surface the way its roadmap extends filters/joins
(/root/reference/README.md Features list)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def explode_list(ds, list_col: str, keep: list[str] | None = None,
                 pos_col: str = "pos", val_col: str = "val"):
    """UNNEST a list column: one output row per element, with the
    element's 0-based position. ``keep`` columns replicate via one
    vectorized take (np.repeat of row indices) — no per-row Python.
    Row multiplication happens inside each batch, so the stage streams
    and the executor's backpressure bounds the fan-out's memory."""
    keep = list(keep or [])

    def ex(batch: pa.Table) -> pa.Table:
        arr = batch[list_col].combine_chunks()
        if not (pa.types.is_list(arr.type) or pa.types.is_large_list(arr.type)):
            raise TypeError(f"{list_col!r} is not a list column: {arr.type}")
        larr = arr.cast(pa.large_list(arr.type.value_type)) \
            if not pa.types.is_large_list(arr.type) else arr
        offsets = np.frombuffer(larr.buffers()[1], dtype=np.int64,
                                count=len(larr) + 1,
                                offset=larr.offset * 8)
        lengths = np.diff(offsets)
        if larr.null_count:
            valid = larr.is_valid().to_numpy(zero_copy_only=False)
            lengths = np.where(valid, lengths, 0)  # null lists emit no rows
        row_rep = np.repeat(np.arange(len(larr), dtype=np.int64), lengths)
        pos = (np.arange(len(row_rep), dtype=np.int64)
               - np.repeat(np.concatenate([[0], np.cumsum(lengths[:-1])]),
                           lengths))
        take = pa.array(row_rep, type=pa.int64())
        cols = {c: batch[c].combine_chunks().take(take) for c in keep}
        cols[pos_col] = pa.array(pos)
        if larr.null_count:
            flat_idx = np.repeat(offsets[:-1], lengths) + pos
            cols[val_col] = larr.values.take(
                pa.array(flat_idx, type=pa.int64()))
        else:
            cols[val_col] = larr.values.slice(offsets[0],
                                              offsets[-1] - offsets[0])
        return pa.table(cols)

    return ds.map_batches(ex, batch_format="pyarrow")


def group_stats(ds, key_col: str, val_col: str):
    """GROUP BY ``key_col`` -> COUNT/AVG/VAR_POP/STDDEV_POP of
    ``val_col`` with map-side pre-aggregation: each batch reduces to
    one tiny (key, n, sum, sumsq) partial via an in-batch Arrow
    group_by, so the groupby shuffle moves O(groups) rows per block,
    never data rows. The driver merges partials (moment sums are
    associative) and finishes the moments. Returns a pa.Table
    (key, n, avg_v, var_v, std_v) sorted by key.

    Nulls follow SQL: null values are excluded from every aggregate
    and n counts only non-null values (COUNT(val))."""
    import pyarrow.compute as pc

    def partial(batch: pa.Table) -> pa.Table:
        v = batch[val_col].combine_chunks().cast(pa.float64())
        t = pa.table({
            key_col: batch[key_col],
            "_v": v,
            "_v2": pc.multiply(v, v),
        })
        g = t.group_by(key_col).aggregate(
            [("_v", "count"), ("_v", "sum"), ("_v2", "sum")])
        return g.rename_columns([key_col, "n", "s1", "s2"])

    def premerge(b: pa.Table) -> pa.Table:
        # in-block partial merge (moment sums are associative)
        if b.num_rows == 0:
            return b
        g = b.group_by(key_col).aggregate(
            [("n", "sum"), ("s1", "sum"), ("s2", "sum")])
        return pa.table({key_col: g[key_col],
                         "n": g["n_sum"].cast(pa.int64()),
                         "s1": g["s1_sum"], "s2": g["s2_sum"]})

    from .pipeline.query import _tree_combine_partials

    merged: dict = {}
    partials = _tree_combine_partials(
        ds.map_batches(partial, batch_format="pyarrow"), premerge)
    for row in partials.take_all():
        k = row[key_col]
        n0, s10, s20 = merged.get(k, (0, 0.0, 0.0))
        merged[k] = (n0 + row["n"], s10 + (row["s1"] or 0.0),
                     s20 + (row["s2"] or 0.0))

    keys = sorted(merged, key=lambda x: (x is None, x))
    out = {key_col: [], "n": [], "avg_v": [], "var_v": [], "std_v": []}
    for k in keys:
        n, s1, s2 = merged[k]
        out[key_col].append(k)
        out["n"].append(n)
        if n == 0:
            out["avg_v"].append(None)
            out["var_v"].append(None)
            out["std_v"].append(None)
            continue
        mean = s1 / n
        var = max(s2 / n - mean * mean, 0.0)
        out["avg_v"].append(mean)
        out["var_v"].append(var)
        out["std_v"].append(var ** 0.5)
    return pa.table({
        key_col: pa.array(out[key_col]),
        "n": pa.array(out["n"], type=pa.int64()),
        "avg_v": pa.array(out["avg_v"], type=pa.float64()),
        "var_v": pa.array(out["var_v"], type=pa.float64()),
        "std_v": pa.array(out["std_v"], type=pa.float64()),
    })


def pack_sequences(ds, tokens_col: str = "tokens", max_len: int = 2048,
                   pad_id: int | None = None, seq_col: str = "input_ids",
                   drop_last: bool = False, shards: int | None = None):
    """Pack variable-length token sequences into fixed-length training
    examples: concatenate each batch's sequences and slice at
    ``max_len`` boundaries — the standard LLM pretraining packing
    step. Fully vectorized: one flatten + one reshape per batch, no
    per-document Python.

    Packing is per BATCH (each batch's tail chunk is shorter than
    ``max_len`` unless ``pad_id`` fills it, or is dropped with
    ``drop_last=True``), bounding the waste at (max_len-1) tokens per
    block. ``shards=N`` packs with CROSS-BATCH carry inside N shards
    instead — one packer per shard is the distributed-training
    convention: the dataset is repartitioned into N blocks and each
    block packs as ONE contiguous stream (exactly N tails total). Size
    N so a shard's tokens fit a worker's heap (e.g. total_tokens x
    4 B / ~1 GiB). Emits (seq_col list<int>, n_filled int64 — real
    tokens in the example, < max_len only on an unpadded or padded
    tail)."""
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")

    def pack(batch: pa.Table) -> pa.Table:
        arr = batch[tokens_col].combine_chunks()
        larr = arr.cast(pa.large_list(arr.type.value_type)) \
            if not pa.types.is_large_list(arr.type) else arr
        offsets = np.frombuffer(larr.buffers()[1], dtype=np.int64,
                                count=len(larr) + 1, offset=larr.offset * 8)
        flat = larr.values.slice(
            offsets[0], offsets[-1] - offsets[0]).to_numpy(
            zero_copy_only=False)
        total = len(flat)
        n_full, tail = divmod(total, max_len)
        n_out = n_full + (1 if tail and not drop_last else 0)
        out_t = pa.large_list(larr.type.value_type)
        if n_out == 0:
            return pa.table({
                seq_col: pa.array([], type=out_t),
                "n_filled": pa.array([], type=pa.int64()),
            })
        n_filled = np.full(n_out, max_len, dtype=np.int64)
        if tail and not drop_last:
            n_filled[-1] = tail
            if pad_id is not None:
                flat = np.concatenate([
                    flat[: n_out * max_len - (max_len - tail)],
                    np.full(max_len - tail, pad_id, dtype=flat.dtype)])
            else:
                flat = flat[: n_full * max_len + tail]
        else:
            flat = flat[: n_full * max_len]
        if pad_id is not None or not tail or drop_last:
            out_offsets = np.arange(n_out + 1, dtype=np.int64) * max_len
        else:
            out_offsets = np.minimum(
                np.arange(n_out + 1, dtype=np.int64) * max_len, total)
        vals = pa.array(flat, type=larr.type.value_type)
        seqs = pa.LargeListArray.from_arrays(
            pa.array(out_offsets, type=pa.int64()), vals)
        return pa.table({
            seq_col: seqs,
            "n_filled": pa.array(n_filled, type=pa.int64()),
        })

    if shards is not None:
        # one block per shard; batch_size=None = whole-block batches,
        # so each shard packs as one contiguous token stream
        return ds.repartition(shards).map_batches(
            pack, batch_format="pyarrow", batch_size=None)
    return ds.map_batches(pack, batch_format="pyarrow")


def stratified_sample(ds, key_col: str, n_per_group: int, id_col: str,
                      keep: list[str] | None = None):
    """Deterministic per-GROUP sample: the ``n_per_group`` rows with
    the smallest md5(id) per key — the reproducible class-balancing
    draw a training corpus wants (stable across runs, machines and
    partitionings; SQL-checkable via ORDER BY md5(id)). A NULL key is
    a group of its own. Stages ``ds`` when called.

    Scale shape: each batch first cuts itself to its own per-group
    top-n candidates (global winners are a subset of per-batch
    winners), so the key co-location (``exchange.by_key``) moves at
    most n rows per (block, group); one vectorized segment-rank pass
    per bucket then picks the global winners. No full sort, no
    per-key Python."""
    import hashlib

    import pyarrow.compute as pc

    from .exchange import by_key
    from .windows import key_codes

    if n_per_group < 1:
        raise ValueError(f"n_per_group must be >= 1, got {n_per_group}")
    keep = list(keep or [key_col, id_col])

    def _rank_cut(t: pa.Table) -> pa.Table:
        t = t.take(pc.sort_indices(t, sort_keys=[
            (key_col, "ascending"), ("_mk", "ascending"),
            (id_col, "ascending")]))
        codes = key_codes(t[key_col])
        n = len(codes)
        new_key = np.ones(n, dtype=bool)
        new_key[1:] = codes[1:] != codes[:-1]
        starts = np.flatnonzero(new_key)
        lens = np.diff(np.append(starts, n))
        rank = np.arange(n, dtype=np.int64) - np.repeat(starts, lens)
        return t.filter(pa.array(rank < n_per_group))

    def candidates(batch: pa.Table) -> pa.Table:
        md5s = [hashlib.md5(str(v).encode()).hexdigest()
                for v in batch[id_col].to_pylist()]
        t = batch.select(list(dict.fromkeys(keep + [key_col, id_col])))
        return _rank_cut(t.append_column(
            "_mk", pa.array(md5s, type=pa.string())))

    return by_key([ds], [key_col], lambda t: _rank_cut(t).select(keep),
                  maps=[candidates])


def mix_sources(ds, rates: dict, key_col: str = "source",
                id_col: str = "doc_id", modulus: int = 10_000):
    """Deterministic corpus MIXING: keep each row with its source's
    sampling rate — the reweighting step that balances a pretraining
    mixture (e.g. wiki at 1.0, crawl at 0.15). Inclusion is systematic
    (id % modulus < rate * modulus), so the mixture is reproducible
    across runs/machines/partitionings and SQL-checkable; rates > 1
    mean "keep all" (upsampling needs row duplication — see
    ``repeat`` in a follow-up op). Unlisted sources keep rate
    ``rates.get("*", 1.0)``. One vectorized pass, no shuffle."""
    import pyarrow.compute as pc

    default = float(rates.get("*", 1.0))
    thresholds = {k: min(max(float(v), 0.0), 1.0) * modulus
                  for k, v in rates.items() if k != "*"}

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].combine_chunks()
        if pa.types.is_integer(ids.type):
            mod = pc.subtract(ids, pc.multiply(
                pc.divide(ids, modulus), modulus))
            mod = mod.to_numpy(zero_copy_only=False)
        else:
            from .hashing import hash_column

            mod = (hash_column(ids) % np.uint64(modulus)).astype(np.int64)
        d = pc.dictionary_encode(batch[key_col].combine_chunks())
        per_code = np.array([thresholds.get(k, default * modulus)
                             for k in d.dictionary.to_pylist()])
        thr = per_code[d.indices.to_numpy(zero_copy_only=False)]
        return batch.filter(pa.array(mod < thr))

    return ds.map_batches(keep, batch_format="pyarrow")


def repeat_sources(ds, repeats: dict, key_col: str = "source",
                   id_col: str | None = None, modulus: int = 10_000):
    """Deterministic UPSAMPLING: emit each row ``repeats[source]``
    times (epoch counts — the other half of corpus mixing,
    complementing :func:`mix_sources` downsampling), with a ``rep``
    column (1-based copy index) so downstream shuffles can decorrelate
    copies. FRACTIONAL rates (e.g. 2.5) need ``id_col``: every row
    gets floor(rate) copies and a deterministic id-modulus slice gets
    one more — exactly the mixture-weight semantics of data-budget
    papers, reproducible across runs/partitionings. One vectorized
    np.repeat take per batch, no shuffle; fan-out happens in-batch so
    backpressure bounds memory. Unlisted sources default to
    ``repeats.get("*", 1)``."""
    import pyarrow.compute as pc

    default = float(repeats.get("*", 1))
    per_key = {k: max(float(v), 0.0) for k, v in repeats.items()
               if k != "*"}
    fractional = any(v != int(v) for v in
                     list(per_key.values()) + [default])
    if fractional and id_col is None:
        raise ValueError("fractional repeat rates need id_col for the "
                         "deterministic extra-copy slice")

    def rep(batch: pa.Table) -> pa.Table:
        d = pc.dictionary_encode(batch[key_col].combine_chunks())
        rates = np.array([per_key.get(k, default)
                          for k in d.dictionary.to_pylist()])
        per_row = rates[d.indices.to_numpy(zero_copy_only=False)]
        counts = np.floor(per_row).astype(np.int64)
        frac = per_row - counts
        if fractional:
            ids = batch[id_col].combine_chunks()
            if pa.types.is_integer(ids.type):
                mod = ids.to_numpy(zero_copy_only=False) % modulus
            else:
                from .hashing import hash_column

                mod = (hash_column(ids) % np.uint64(modulus)).astype(
                    np.int64)
            counts = counts + (mod < frac * modulus)
        take = pa.array(np.repeat(np.arange(batch.num_rows,
                                            dtype=np.int64), counts))
        out = batch.take(take)
        offs = np.concatenate([[0], np.cumsum(counts[:-1])]) \
            if len(counts) else np.zeros(0, dtype=np.int64)
        rep_idx = (np.arange(int(counts.sum()), dtype=np.int64)
                   - np.repeat(offs, counts) + 1)
        return out.append_column("rep", pa.array(rep_idx))

    return ds.map_batches(rep, batch_format="pyarrow")


def _group_segments(key_arr: "pa.ChunkedArray | pa.Array"):
    """Shared per-batch group segmentation for the sketch partials:
    dictionary-encode the key column (NULL keys become their own
    group — dictionary_encode surfaces them as null indices, which
    would otherwise crash the int cast), stable-sort by code, and
    return (order, segment bounds, group-key list aligned to
    segments). Used by group_approx_distinct and
    group_approx_percentiles so null handling stays in lockstep."""
    import pyarrow.compute as pc

    d = pc.dictionary_encode(
        key_arr.combine_chunks() if isinstance(key_arr, pa.ChunkedArray)
        else key_arr)
    pool = d.dictionary.to_pylist()
    idx = d.indices
    if idx.null_count:
        idx = pc.fill_null(idx, len(pool))
        pool = pool + [None]
    codes = idx.to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(codes, kind="stable")
    cs = codes[order]
    bounds = np.concatenate(
        [[0], np.flatnonzero(np.diff(cs)) + 1, [len(cs)]]) \
        if len(cs) else np.array([0])
    seg_keys = [pool[int(cs[int(bounds[j])])]
                for j in range(len(bounds) - 1)]
    return order, bounds, seg_keys


def group_approx_distinct(ds, key_col: str, val_col: str,
                          k: int = 256) -> pa.Table:
    """GROUP BY ``key_col`` -> approximate COUNT(DISTINCT ``val_col``)
    via mergeable KMV sketches: each batch reduces to one bottom-k
    hash sketch PER GROUP (a tiny (key, k x uint64) partial), the
    driver merges sketches per key — the shuffle-free path for
    distinct counts whose exact per-group sets would not fit anywhere
    (users per event type at 10^12 rows). Exact below k distincts;
    ~1/sqrt(k) relative error above. Returns (key, distinct_est)."""
    import pyarrow.compute as pc

    from .hashing import hash_column
    from .sketches import kmv_estimate, kmv_from_hashes, kmv_merge

    def partial(batch: pa.Table) -> pa.Table:
        order, bounds, seg_keys = _group_segments(batch[key_col])
        h = hash_column(batch[val_col].combine_chunks())
        hs = h[order]
        keys_out, sk_out = [], []
        for j in range(len(bounds) - 1):
            lo, hi = int(bounds[j]), int(bounds[j + 1])
            keys_out.append(seg_keys[j])
            sk_out.append(kmv_from_hashes(hs[lo:hi], k)
                          .astype(np.int64).tolist())
        return pa.table({
            key_col: pa.array(keys_out, type=pa.string()),
            "_sk": pa.array(sk_out, type=pa.list_(pa.int64())),
        })

    merged: dict = {}
    for row in ds.map_batches(partial, batch_format="pyarrow").take_all():
        sk = np.asarray(row["_sk"], dtype=np.int64).view(np.uint64)
        key = row[key_col]
        merged[key] = kmv_merge(merged[key], sk, k) \
            if key in merged else sk
    keys = sorted(merged, key=lambda x: (x is None, x or ""))
    return pa.table({
        key_col: pa.array(keys, type=pa.string()),
        "distinct_est": pa.array(
            [kmv_estimate(merged[kk], k) for kk in keys],
            type=pa.int64()),
    })


def group_approx_percentiles(ds, key_col: str, val_col: str,
                             ps: list[float], k: int = 128) -> pa.Table:
    """GROUP BY ``key_col`` -> approximate PERCENTILE_DISC of
    ``val_col`` via mergeable weighted quantile summaries
    (sketches.py::qs_*) — the percentile sibling of
    :func:`group_approx_distinct`, and the streaming, bounded-state
    alternative to the exact per-group (value, count) runs of
    query.py::group_int_percentiles (which needs an encoded layout
    and ships O(distinct values x groups) rows). Each batch reduces
    to one <= k-point summary PER GROUP (a tiny (key, values,
    weights, err) partial); the driver merges per key LOSSLESSLY, so
    each group's rank-error bound is the SUM of its partials'
    certified errors (<= n_group/(2k)) — returned per row, a
    guarantee not a guess.
    Works on floats/ints/timestamps (IEEE total-order keys). Null
    values are excluded per SQL aggregate semantics; float NaNs are
    VALUES at the top of the order (DuckDB's quantile sort order),
    not nulls; group cardinality
    bounds driver state at O(groups x k).

    Returns (key_col, p, val_col, rank_err_bound) in (key, p) order."""
    import pyarrow.compute as pc

    from .sketches import (order_key_from_stream, qs_build, qs_merge,
                           qs_query)
    from .streams import int_stream_from_arrow

    def partial(batch: pa.Table) -> pa.Table:
        col = batch[val_col].combine_chunks()
        valid = pc.is_valid(col).to_numpy(zero_copy_only=False) \
            if col.null_count else np.ones(len(col), dtype=bool)
        filled = pc.fill_null(col, pa.scalar(
            0.0 if pa.types.is_floating(col.type) else 0,
            type=col.type)) if col.null_count else col
        vals, tag = int_stream_from_arrow(filled)
        keys_u = order_key_from_stream(vals, tag)
        order, bounds, seg_keys = _group_segments(batch[key_col])
        ku, va = keys_u[order], valid[order]
        keys_out, v_out, w_out, e_out = [], [], [], []
        for j in range(len(bounds) - 1):
            lo, hi = int(bounds[j]), int(bounds[j + 1])
            seg = ku[lo:hi][va[lo:hi]]
            s = qs_build(seg, k)
            if s is None:
                continue
            keys_out.append(seg_keys[j])
            v_out.append(s["v"].astype(np.int64).tolist())
            w_out.append(s["w"].tolist())
            e_out.append(float(s["err"]))
        return pa.table({
            key_col: pa.array(keys_out, type=pa.string()),
            "_v": pa.array(v_out, type=pa.list_(pa.int64())),
            "_w": pa.array(w_out, type=pa.list_(pa.float64())),
            "_e": pa.array(e_out, type=pa.float64()),
        })

    # output value domain from the input schema (drives inversion —
    # uint64 keys are the raw values, NOT sign-shifted like signed ints)
    f = ds.schema().base_schema.field(val_col)
    is_float = pa.types.is_floating(f.type)
    kind = "f" if is_float else (
        "u" if pa.types.is_unsigned_integer(f.type)
        and f.type.bit_width == 64 else "i")
    from .pipeline.query import _order_key_inverse

    merged: dict = {}
    for row in ds.map_batches(partial, batch_format="pyarrow").take_all():
        s = {"v": np.asarray(row["_v"], dtype=np.int64).view(np.uint64),
             "w": np.asarray(row["_w"], dtype=np.float64),
             "err": float(row["_e"])}
        key = row[key_col]
        merged[key] = qs_merge([merged[key], s]) if key in merged else s
    keys = sorted(merged, key=lambda x: (x is None, x or ""))
    out_keys, out_p, out_v, out_e = [], [], [], []
    for kk in keys:
        m = merged[kk]
        for p in ps:
            out_keys.append(kk)
            out_p.append(float(p))
            out_v.append(_order_key_inverse(qs_query(m, float(p)), kind))
            out_e.append(float(m["err"]))
    out_t = pa.float64() if is_float else (
        pa.uint64() if kind == "u" else pa.int64())
    return pa.table({
        key_col: pa.array(out_keys, type=pa.string()),
        "p": pa.array(out_p, type=pa.float64()),
        val_col: pa.array(out_v, type=out_t),
        "rank_err_bound": pa.array(out_e, type=pa.float64()),
    })
