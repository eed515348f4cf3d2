"""Materialize small result Datasets to a single Arrow table.

Only for small results (aggregates, pair lists, top-k partials) — never
call this on a full-corpus Dataset; big outputs stream via
``write_parquet`` / ``iter_batches``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


SMALL_SIG_ROWS = 2_000_000  # below this, skip the Ray aggregate entirely


def unique_rows2(a, b):
    """Deduplicate (a[i], b[i]) pairs, returned sorted by (a, b) —
    lexsort + run-boundary mask. np.unique(axis=0) hits numpy's
    structured-void sort and measured ~10x slower at 10^6 pairs."""
    import numpy as np

    order = np.lexsort((b, a))
    a_s, b_s = a[order], b[order]
    keep = np.ones(len(a_s), dtype=bool)
    if len(a_s) > 1:
        keep[1:] = (a_s[1:] != a_s[:-1]) | (b_s[1:] != b_s[:-1])
    return a_s[keep], b_s[keep]


def _bucket_pairs(bk, ids, max_bucket: int):
    """In-bucket (id_a < id_b) pairs from (bucket key, id) rows, by a
    run-boundary scan over the rows sorted by key; buckets above
    ``max_bucket`` are degenerate collisions and are dropped rather
    than exploding O(m^2). Returns (a, b) arrays, or None."""
    order = np.lexsort((ids, bk))
    bk_s, ids_s = bk[order], ids[order]
    bounds = np.flatnonzero(np.diff(bk_s)) + 1
    starts = np.concatenate([[0], bounds])
    ends = np.concatenate([bounds, [len(bk_s)]])
    a_out, b_out = [], []
    for s, e in zip(starts.tolist(), ends.tolist()):
        u = np.unique(ids_s[s:e])
        m = len(u)
        if m < 2 or m > max_bucket:
            continue
        iu, ju = np.triu_indices(m, k=1)
        a_out.append(u[iu])
        b_out.append(u[ju])
    if not a_out:
        return None
    return np.concatenate(a_out), np.concatenate(b_out)


def hot_bucket_rows(sig_ds, key_col: str) -> pa.Table:
    """Signature rows living in buckets with >= 2 members, without a
    per-group map_groups pass (one Python call per bucket is ruinous
    when almost every bucket is a singleton).

    Size-adaptive: small signature sets (< SMALL_SIG_ROWS fixed-width
    rows) are collected whole — the Ray aggregate's all-to-all fixed
    cost dwarfs the work (the broadcast-vs-shuffle tradeoff joins
    make); the caller's run-boundary scan ignores the singleton rows.
    Large sets go through a vectorized groupby(key).count() and a
    map-side hot-key semi-join, so only hot rows ever collect.
    ``sig_ds`` must already be materialized (it is read twice)."""
    n = sig_ds.count()
    if n <= SMALL_SIG_ROWS:
        return collect_arrow(sig_ds)
    counts = sig_ds.groupby(key_col).count()

    def hot_only(batch: pa.Table) -> pa.Table:
        return batch.filter(pa.compute.greater_equal(batch["count()"], 2))

    hot = collect_arrow(counts.map_batches(hot_only, batch_format="pyarrow"))
    if hot.num_rows == 0:
        # sig_ds.count() > SMALL_SIG_ROWS here, so schema() is real
        return sig_ds.schema().base_schema.empty_table()
    hot_keys = hot[key_col].combine_chunks()

    def pick(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pa.compute.is_in(batch[key_col], value_set=hot_keys))

    return collect_arrow(sig_ds.map_batches(pick, batch_format="pyarrow"))


def bucket_candidate_pairs(sig_ds, id_col: str, key_col: str = "bk",
                           max_bucket: int = 4096,
                           attr_cols: list[str] | None = None):
    """Candidate (id_a, id_b) pairs from LSH bucket co-occurrence,
    without a per-group map_groups pass (which costs a Python call per
    bucket — ruinous when almost every bucket has one member).

    1. ``groupby(key).count()`` — a vectorized hash aggregate — finds
       the HOT buckets (>= 2 rows); almost all buckets are cold and
       never touch Python.
    2. hot keys semi-join (map-side ``is_in``) back onto the signature
       rows; only hot rows are collected (small by the LSH design).
    3. run-boundary scan over the sorted hot rows emits in-bucket
       pairs; buckets above ``max_bucket`` are degenerate collisions
       and are dropped rather than exploding O(m^2).

    Returns (pairs table with id_a < id_b deduped, dict of id ->
    attr value for each ``attr_cols`` taken from the hot rows)."""
    sig_ds = sig_ds.materialize()
    empty = pa.table({"id_a": pa.array([], pa.int64()),
                      "id_b": pa.array([], pa.int64())})
    rows = hot_bucket_rows(sig_ds, key_col)
    if rows.num_rows == 0:
        return empty, {c: {} for c in (attr_cols or [])}
    ids = rows[id_col].to_numpy(zero_copy_only=False)
    ab = _bucket_pairs(rows[key_col].to_numpy(zero_copy_only=False), ids,
                       max_bucket)
    if ab is None:
        pairs = empty
    else:
        ua, ub = unique_rows2(*ab)
        pairs = pa.table({"id_a": pa.array(ua, type=pa.int64()),
                          "id_b": pa.array(ub, type=pa.int64())})
    attrs = {}
    for c in (attr_cols or []):
        vals = rows[c].to_numpy(zero_copy_only=False)
        attrs[c] = dict(zip(ids.tolist(), vals.tolist()))
    return pairs, attrs


def _make_router(need_ref, id_col: str, payload_cols: list[str],
                 derive_fn=None):
    """Route pass shared by both verify paths: for each batch row that
    any verify bucket needs, optionally compute derived columns ONCE
    (``derive_fn`` on the unique candidate rows — e.g. a MinHash
    signature, so verify buckets never recompute it per replica), then
    replicate the row to every needing bucket with a ``_vb`` tag."""
    import ray

    def route(batch: pa.Table) -> pa.Table:
        nids, nbks = ray.get(need_ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        lo = np.searchsorted(nids, ids, side="left")
        hi = np.searchsorted(nids, ids, side="right")
        cnt = hi - lo
        rows = np.flatnonzero(cnt)
        sub = batch.select([id_col] + payload_cols)
        if len(rows) == 0:
            empty = sub.slice(0, 0)
            if derive_fn is not None:
                empty = derive_fn(empty)
            return empty.append_column("_vb", pa.array([], pa.int64()))
        # derived columns compute on the UNIQUE candidate rows, before
        # per-bucket replication
        u_tab = sub.take(pa.array(rows, type=pa.int64()))
        if derive_fn is not None:
            u_tab = derive_fn(u_tab)
        reps = cnt[rows]
        total = int(reps.sum())
        compact = np.concatenate([[0], np.cumsum(reps[:-1])]).astype(np.int64)
        pos = (np.arange(total, dtype=np.int64)
               - np.repeat(compact, reps) + np.repeat(lo[rows], reps))
        out = u_tab.take(pa.array(
            np.repeat(np.arange(len(rows), dtype=np.int64), reps),
            type=pa.int64()))
        return out.append_column("_vb", pa.array(nbks[pos], type=pa.int64()))

    return route


def _verify_buckets(n_buckets: int | None) -> int:
    from .exchange import avail_cpus

    return n_buckets or max(1, min(64, avail_cpus()))


def _route_vb(blocks: list):
    """Verify-exchange route: routed payload rows go to the bucket in
    their ``_vb`` tag."""
    import ray

    # Ray's union/map plumbing emits SCHEMALESS zero-row blocks that
    # pass through map_batches without calling the router — they carry
    # no rows and no _vb column
    tabs = [t for t in ray.get(list(blocks))
            if t.num_rows and "_vb" in t.column_names]
    if not tabs:
        return pa.table({}), np.empty(0, np.int64)
    t = pa.concat_tables(tabs)
    return t.drop_columns(["_vb"]), t["_vb"].to_numpy(zero_copy_only=False)


def _routed_blocks(routed, mode: str):
    """Split inputs of a routed payload Dataset: one block per split
    task, or in disk mode one ref bundle per split task, streamed off
    the executor so the routed payload never materializes in the object
    store all at once."""
    if mode == "disk":
        return (list(b.block_refs) for b in _ref_bundles(routed))
    return [[r] for r in iter_arrow_refs(routed)]


def distributed_pair_verify(ds, cand_tab: pa.Table, id_col: str,
                            payload_cols: list[str], verify_fn,
                            n_buckets: int | None = None,
                            derive_fn=None, as_refs: bool = False):
    """Exact-verify candidate (id_a, id_b) pairs WITHOUT materializing
    candidate payloads (texts/vectors) on the driver.

    1. pairs are bucketed by hash(id_a) into ~n_buckets verify buckets
       (driver-side work on fixed-width ids only; the pair table itself
       is small by LSH selectivity and ships once via ray.put);
    2. ONE streaming pass over the source routes each candidate row's
       payload to every bucket that needs it (payloads move once per
       needing bucket — bounded by the candidate set, never the
       corpus; non-candidate rows never leave the map side);
    3. the fragment exchange (arcade_ray/exchange.py, not Ray Data's
       sort-based groupby — a sort is wasted on ~cpu-count buckets and
       measured ~5 s of fixed cost at sf0.1): each routed block splits
       into per-bucket fragments, then one verify task per bucket reads
       its fragments and runs ``verify_fn(pairs, payload)`` — per-group
       Python cost is O(n_buckets), not O(pairs).

    ``verify_fn``: (pairs: Table[id_a, id_b], payload: Table[id_col,
    *payload_cols]) -> Table. Returns the concatenated verify outputs
    (small — the surviving pair rows).

    The exchange's auto rule picks the fragment sink from the SOURCE
    dataset's metadata size estimate (an upper bound on the routed
    payload; objects when the plan does not know its size)."""
    from .hashing import hash_ints

    n_buckets = _verify_buckets(n_buckets)
    ids_a = cand_tab["id_a"].to_numpy(zero_copy_only=False)
    ids_b = cand_tab["id_b"].to_numpy(zero_copy_only=False)
    bucket = (hash_ints(ids_a) % np.uint64(n_buckets)).astype(np.int64)
    # (id, bucket) need-list, sorted by id: an id's payload may serve
    # several buckets; the route pass replicates it per needing bucket
    need_ids, need_bks = unique_rows2(
        np.concatenate([ids_a, ids_b]), np.concatenate([bucket, bucket]))
    return _run_verify_exchange(
        ds, cand_tab.append_column("_vb", pa.array(bucket)),
        need_ids, need_bks, id_col, payload_cols, verify_fn,
        n_buckets, derive_fn, as_refs)


def distributed_group_verify(ds, memb_tab: pa.Table, id_col: str,
                             payload_cols: list[str], verify_fn,
                             group_hash, n_buckets: int | None = None,
                             derive_fn=None, as_refs: bool = False):
    """Exact-verify candidate GROUPS (e.g. exact-dedup hash runs)
    without materializing candidate payloads on the driver — the
    group-shaped sibling of :func:`distributed_pair_verify` (same
    sink rule).

    ``memb_tab``: one row per candidate group MEMBER (group key
    columns + ``id_col``); fixed-width, driver-held — never text.
    ``group_hash``: int64/uint64 numpy array, one value per memb_tab
    row, constant within a group — buckets are assigned on it so a
    group never splits across verify buckets. Each id belongs to
    exactly one group, so the need-list maps each id to ONE bucket.
    ``verify_fn(membs, payload) -> Table`` runs once per bucket with
    that bucket's member rows and their routed payloads."""
    n_buckets = _verify_buckets(n_buckets)
    bucket = (np.asarray(group_hash).astype(np.uint64)
              % np.uint64(n_buckets)).astype(np.int64)
    ids = memb_tab[id_col].to_numpy(zero_copy_only=False)
    need_ids, need_bks = unique_rows2(ids, bucket)
    return _run_verify_exchange(
        ds, memb_tab.append_column("_vb", pa.array(bucket)),
        need_ids, need_bks, id_col, payload_cols, verify_fn,
        n_buckets, derive_fn, as_refs)


def _run_verify_exchange(ds, tagged_tab: pa.Table, need_ids, need_bks,
                         id_col: str, payload_cols: list[str],
                         verify_fn, n_buckets: int, derive_fn,
                         as_refs: bool):
    """Shared core of the two verify shapes: route candidate payloads
    to their ``_vb`` buckets, then one verify task per bucket over (its
    tagged rows, its payloads)."""
    import ray

    from .exchange import auto_mode, dataset_bytes, run

    mode = auto_mode(dataset_bytes(ds))
    pairs_ref = ray.put(tagged_tab)
    need_ref = ray.put((need_ids, need_bks))
    routed = ds.map_batches(
        _make_router(need_ref, id_col, payload_cols, derive_fn),
        batch_format="pyarrow")

    def verify(b: int, payload: pa.Table):
        pairs = ray.get(pairs_ref)
        mine = pairs.filter(
            pa.compute.equal(pairs["_vb"], b)).drop_columns(["_vb"])
        return verify_fn(mine, payload)

    outs = run(_route_vb, _routed_blocks(routed, mode), verify, n_buckets,
               mode, "verify", as_refs=as_refs)
    return outs if as_refs else _concat_typed(outs)


def lsh_pairs_verify(ds, sig_ds, id_col: str, payload_cols: list[str],
                     verify_fn, key_col: str = "bk",
                     max_bucket: int = 4096,
                     n_buckets: int | None = None,
                     derive_fn=None, as_refs: bool = False):
    """Candidate generation + exact verify for an LSH signature
    dataset, size-adaptive:

    - below SMALL_SIG_ROWS: the driver-side candidate path
      (bucket_candidate_pairs) + distributed_pair_verify — the Ray
      aggregate's fixed cost dwarfs the work at small scale;
    - above it: FULLY DISTRIBUTED — candidate pairs are generated,
      bucketed and verified inside tasks; the driver only ever holds
      the hot KEY set and the (id, verify-bucket) need list, never the
      pair list (the round-3 documented bound, removed here).

    ``sig_ds`` need not be materialized; it is read once per path."""
    sig_ds = sig_ds.materialize()
    if sig_ds.count() <= SMALL_SIG_ROWS:
        cand, _ = bucket_candidate_pairs(sig_ds, id_col, key_col,
                                         max_bucket=max_bucket)
        if cand.num_rows == 0:
            return [] if as_refs else pa.table({})
        return distributed_pair_verify(ds, cand, id_col, payload_cols,
                                       verify_fn, n_buckets=n_buckets,
                                       derive_fn=derive_fn, as_refs=as_refs)
    return _distributed_candidate_verify(ds, sig_ds, id_col, payload_cols,
                                         verify_fn, key_col, max_bucket,
                                         n_buckets, derive_fn,
                                         as_refs=as_refs)


def _distributed_candidate_verify(ds, sig_ds, id_col: str,
                                  payload_cols: list[str], verify_fn,
                                  key_col: str, max_bucket: int,
                                  n_buckets: int | None,
                                  derive_fn=None, as_refs: bool = False):
    """The scale path of :func:`lsh_pairs_verify`:

    1. hot keys from a vectorized groupby(key).count() (the only
       all-to-all over the full signature set — fixed-width rows);
    2. hot signature rows filtered MAP-SIDE (hot key set broadcast
       once) and exchanged by coarse key bucket;
    3. one pair-generation split per coarse bucket: run-boundary triu
       pairs per key (max_bucket caps degenerate buckets), routed to
       verify buckets by hash(id_a) — the PAIR LIST never exists in
       one place; each split reports only its unique (id,
       verify-bucket) need partial;
    4. the payload route pass + per-bucket verify of
       distributed_pair_verify's shape, with pair fragments read by
       the verify task and deduped there (the same pair found by two
       bands lands in the same verify bucket — same id_a)."""
    import ray

    from .exchange import consume, read, stage
    from .hashing import hash_ints

    n_buckets = _verify_buckets(n_buckets)
    n_coarse = n_buckets

    counts = sig_ds.groupby(key_col).count()

    def hot_only(batch: pa.Table) -> pa.Table:
        return batch.filter(pa.compute.greater_equal(batch["count()"], 2))

    hot = collect_arrow(counts.map_batches(hot_only, batch_format="pyarrow"))
    if hot.num_rows == 0:
        return pa.table({})
    hot_ref = ray.put(hot[key_col].combine_chunks())

    def pick(batch: pa.Table) -> pa.Table:
        keys = ray.get(hot_ref)
        return batch.filter(pa.compute.is_in(batch[key_col],
                                             value_set=keys))

    hot_ds = sig_ds.map_batches(pick, batch_format="pyarrow")

    def route_coarse(tbl: pa.Table):
        bk = tbl[key_col].to_numpy(zero_copy_only=False)
        return tbl, (hash_ints(bk) % np.uint64(n_coarse)).astype(np.int64)

    def pairgen(part):
        t = read(part)
        ab = _bucket_pairs(t[key_col].to_numpy(zero_copy_only=False),
                           t[id_col].to_numpy(zero_copy_only=False),
                           max_bucket)
        a, b = ab if ab is not None else (np.empty(0, np.int64),) * 2
        vb = (hash_ints(a) % np.uint64(n_buckets)).astype(np.int64)
        pairs = pa.table({"id_a": pa.array(a, type=pa.int64()),
                          "id_b": pa.array(b, type=pa.int64())})
        return pairs, vb, unique_rows2(np.concatenate([a, b]),
                                       np.concatenate([vb, vb]))

    coarse = stage(route_coarse, iter_arrow_refs(hot_ds), n_coarse,
                   "objects", "coarse")
    pair_frags = stage(pairgen, [coarse.parts[c] for c in coarse.live()],
                       n_buckets, "objects", "pairs")
    need_ids, need_bks = unique_rows2(
        np.concatenate([n[0] for n in pair_frags.info]
                       or [np.empty(0, np.int64)]),
        np.concatenate([n[1] for n in pair_frags.info]
                       or [np.empty(0, np.int64)]))
    if len(need_ids) == 0:
        return pa.table({})
    need_ref = ray.put((need_ids, need_bks))
    routed = ds.map_batches(
        _make_router(need_ref, id_col, payload_cols, derive_fn),
        batch_format="pyarrow")
    pay_frags = stage(_route_vb, _routed_blocks(routed, "objects"),
                      n_buckets, "objects", "verify")

    def verify(b: int, payload: pa.Table, pt: pa.Table):
        ua, ub = unique_rows2(pt["id_a"].to_numpy(zero_copy_only=False),
                              pt["id_b"].to_numpy(zero_copy_only=False))
        pairs = pa.table({"id_a": pa.array(ua, type=pa.int64()),
                          "id_b": pa.array(ub, type=pa.int64())})
        return verify_fn(pairs, payload)

    live = [b for b in range(n_buckets)
            if pay_frags.parts[b] is not None
            and pair_frags.parts[b] is not None]
    outs = consume(verify, [pay_frags, pair_frags], live, as_refs)
    return outs if as_refs else _concat_typed(outs)


def _block_to_arrow(block) -> pa.Table:
    from ray.data.block import BlockAccessor

    if isinstance(block, pa.Table):
        return block
    return BlockAccessor.for_block(block).to_arrow()


def _ref_bundles(ds):
    """``ds``'s output ref bundles: the one place the engine reads them.

    A plan that is only a source whose output is already in the object
    store (``from_blocks``, ``from_items``, ``from_arrow``,
    ``from_pandas``, the ``InputData`` of a materialized Dataset)
    returns those bundles through Ray's ``SourceOperator.output_data()``
    hook, without starting a streaming executor: its start-up, polling
    and shutdown cost more than the rest of a one-block collect. Any
    other plan runs once, its bundles streaming off the executor."""
    from ray.data._internal.logical.interfaces import SourceOperator

    dag = ds._logical_plan.dag
    if isinstance(dag, SourceOperator):
        bundles = dag.output_data()
        if bundles is not None:
            return bundles
    return ds.iter_internal_ref_bundles()


def iter_arrow_refs(ds):
    """Yield refs to ``ds``'s blocks as Arrow tables, running its plan
    once, as the blocks stream off the executor. Blocks of a non-Arrow
    bundle (pandas UDF output) are converted by a task, so a payload
    never passes through the driver. An in-memory source (see
    :func:`_ref_bundles`) is read directly: no executor runs, so its
    ``ds.stats()`` describe no run.

    ``Dataset.to_arrow_refs()`` is not used: in Ray 2.49 it asks for the
    schema after iterating, and that runs the whole plan a second time
    under ``limit(1)`` (every UDF and shuffle upstream of it again)."""
    import ray

    convert = None
    for bundle in _ref_bundles(ds):
        if bundle.schema is None or isinstance(bundle.schema, pa.Schema):
            yield from bundle.block_refs
            continue
        if convert is None:
            convert = ray.remote(_block_to_arrow)
        for ref in bundle.block_refs:
            yield convert.remote(ref)


def collect_arrow(ds) -> pa.Table:
    """Concat a Dataset's blocks into one Arrow table. The caller's own
    ``ds`` runs once (so its ``stats()`` describe that run), and
    non-Arrow blocks are converted on the driver. An in-memory source
    (see :func:`_ref_bundles`, e.g. the driver-built result of a read
    pruned to one partition) is read directly: no executor runs, and
    its ``stats()`` describe no run.

    groupby/map_groups (and some map_batches paths) emit zero-row
    blocks with an EMPTY schema (0 columns); pa.concat_tables raises
    ArrowInvalid on the schema mismatch. Drop the schemaless empties;
    if no block carries a schema, return the first (empty) block."""
    import ray

    refs = [r for b in _ref_bundles(ds) for r in b.block_refs]
    return _concat_typed([_block_to_arrow(b) for b in ray.get(refs)])


def _concat_typed(tables: list) -> pa.Table:
    """Concat tables, dropping schemaless empties (the first table when
    none carries a schema)."""
    typed = [t for t in tables if t.num_columns > 0]
    if not typed:
        return tables[0] if tables else pa.table({})
    # empty pandas group outputs arrive null-typed (object dtype);
    # permissive promotion folds them into the real column types
    return pa.concat_tables(typed, promote_options="permissive")


def _fill_zero(col: pa.ChunkedArray | pa.Array):
    """A valid scalar of col's type used to fill null KEY slots before
    a multi-key group_by (the value never surfaces: a companion
    is-null column keeps filled rows in their own groups)."""
    import pyarrow.compute as pc

    t = col.type
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return pc.fill_null(col, "")
    if pa.types.is_binary(t) or pa.types.is_large_binary(t):
        return pc.fill_null(col, b"")
    if pa.types.is_boolean(t):
        return pc.fill_null(col, False)
    if pa.types.is_integer(t) or pa.types.is_floating(t) \
            or pa.types.is_decimal(t):
        return pc.fill_null(col, pa.scalar(0, type=t))
    if pa.types.is_temporal(t):
        return pc.fill_null(col, pa.scalar(0).cast(t))
    valid = col.drop_null()
    if len(valid):
        return pc.fill_null(col, valid[0])
    raise TypeError(f"cannot null-fill group key of type {t}")


def group_aggregate(t: pa.Table, keys: list[str], aggs: list) -> pa.Table:
    """``t.group_by(keys).aggregate(aggs)`` that is CORRECT for
    null-bearing key columns under MULTI-key grouping.

    pyarrow 16.1 has a row-encoder bug: a null key value in a
    multi-key group_by starts a fresh group roughly every 32 rows
    (single-key and all-non-null groupings are unaffected). Verified:
    grouping 400 rows of 4 distinct (string?, int) pairs returns 30
    groups. Workaround: fill null key slots with a type-appropriate
    constant and add a non-null boolean is-null companion per affected
    key (so filled rows can never merge with genuine constant values),
    group on the widened key set, then restore the nulls and drop the
    companions."""
    import pyarrow.compute as pc

    keys = list(keys)
    if len(keys) <= 1:
        return t.group_by(keys).aggregate(aggs)
    null_keys = [k for k in keys if t[k].null_count]
    if not null_keys:
        return t.group_by(keys).aggregate(aggs)
    comps = []
    t2 = t
    agg_over_null_key = {}  # original key col -> unfilled duplicate
    for k in null_keys:
        comp = f"__nullkey_{k}"
        while comp in t2.column_names:
            comp += "_"
        col = t2[k]
        # aggregates over a null-filled KEY column must still see the
        # real nulls (COUNT(k) counts valid values): aggregate an
        # unfilled duplicate instead and rename the output back
        if any(isinstance(a[0], str) and a[0] == k for a in aggs):
            dup = f"__aggsrc_{k}"
            while dup in t2.column_names:
                dup += "_"
            t2 = t2.append_column(dup, col)
            agg_over_null_key[k] = dup
        t2 = t2.append_column(comp, pc.is_null(col))
        t2 = t2.set_column(t2.column_names.index(k), k, _fill_zero(col))
        comps.append((k, comp))
    aggs2 = [(agg_over_null_key.get(a[0], a[0]),) + tuple(a[1:])
             if isinstance(a[0], str) else a for a in aggs]
    out = t2.group_by(keys + [c for _, c in comps]).aggregate(aggs2)
    if agg_over_null_key:
        ren = {f"{dup}_": f"{k}_"
               for k, dup in agg_over_null_key.items()}
        new_names = []
        for name in out.column_names:
            for dpre, kpre in ren.items():
                if name.startswith(dpre):
                    name = kpre + name[len(dpre):]
                    break
            new_names.append(name)
        out = out.rename_columns(new_names)
    for k, comp in comps:
        ki = out.column_names.index(k)
        restored = pc.if_else(out[comp],
                              pa.scalar(None, type=out[k].type), out[k])
        out = out.set_column(ki, k, restored)
    return out.drop_columns([c for _, c in comps])
