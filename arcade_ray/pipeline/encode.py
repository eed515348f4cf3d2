"""The encode pipeline — the engine's flagship write path.

    input -> planning pass: per-piece partial aggregates      (tiny barrier)
          -> split tasks: assign _pid, drop done partitions   (exchange route)
          -> fragment exchange (arcade_ray/exchange.py)       (the shuffle)
          -> one task per encode bucket: encode + commit
          -> manifest rows -> manifest.parquet

Design per SURVEY.md §7.0/§7.2: partition = dictionary scope; the
exchange is the ONE wide operation and doubles as the skew rebalance
(hot sources are hash-split by the plan). Each partition is encoded by
one task with all dictionary state task-local (SURVEY.md §4.1),
written atomically (tmp + rename), and committed by its manifest row —
which is the checkpoint: on resume, committed partitions are dropped
*before* the shuffle, so finished work is neither re-encoded nor
re-shuffled. :func:`encode_parquet` and :func:`encode_dataset` are thin
front ends over one driver (``_encode``); they differ only in how they
build split inputs and run the planning pass. Neither takes a sink
option: the exchange's auto rule picks the object store or disk from an
input size known before the run. ``tests/test_exchange_parity.py``
holds both sinks byte-identical to a ``groupby(_pid).map_groups``
reference encode that lives in the test.
"""

from __future__ import annotations

import collections
import functools
import json
import os
import threading
import urllib.parse

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..exchange import take_rows
from ..format import encode_partition
from ..planner import (assign_part_keys, build_plan, key_weights,
                       plan_from_totals)

MANIFEST_DIR = "manifest"
PARTS_DIR = "parts"


def _safe(key: str) -> str:
    return urllib.parse.quote(key, safe="#-_.")


def part_path(out_dir: str, part_key: str) -> str:
    return os.path.join(out_dir, PARTS_DIR, _safe(part_key) + ".arcr")


def _manifest_row_path(out_dir: str, part_key: str) -> str:
    return os.path.join(out_dir, MANIFEST_DIR, _safe(part_key) + ".json")


def committed_parts(out_dir: str) -> dict[str, dict]:
    """Scan per-partition manifest rows (the checkpoint/lineage log)."""
    mdir = os.path.join(out_dir, MANIFEST_DIR)
    if not os.path.isdir(mdir):
        return {}
    return _read_row_files(out_dir, [fn for fn in os.listdir(mdir)
                                     if fn.endswith(".json")])


def _read_row_files(out_dir: str, names: list[str]) -> dict[str, dict]:
    """part_key -> row of the manifest row files ``names``, minus the
    rows a surviving row ``replaces``. A file removed since it was
    listed is skipped: it is no longer committed."""
    mdir = os.path.join(out_dir, MANIFEST_DIR)
    out = {}
    for fn in names:
        try:
            with open(os.path.join(mdir, fn)) as f:
                row = json.load(f)
        except FileNotFoundError:
            continue
        # rebase: the partition file always lives at
        # part_path(out_dir, part_key), so encoded dirs stay
        # relocatable (copy/move/rsync) — a stored absolute
        # path from the original location must never win
        row["path"] = part_path(out_dir, row["part_key"])
        out[row["part_key"]] = row
    return _drop_replaced(out)


def commit_partition(out_dir: str, part_key: str, blob: bytes,
                     manifest_row: dict) -> dict:
    """Idempotent atomic commit: segment file first, manifest row last
    (manifest existence == committed, SURVEY.md §4.2 checkpoint row)."""
    ppath = part_path(out_dir, part_key)
    tmp = ppath + f".tmp.{os.getpid()}"
    with open(tmp, "wb") as f:
        f.write(blob)
    os.replace(tmp, ppath)
    manifest_row = dict(manifest_row)
    manifest_row["path"] = ppath
    # generation is an EXPLICIT lineage field ("" = base): part_key
    # prefixes are user data (a source value may itself contain '@'),
    # so readers must never re-parse the generation out of the key.
    manifest_row.setdefault("generation", "")
    mpath = _manifest_row_path(out_dir, part_key)
    tmp = mpath + f".tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(manifest_row, f)
    os.replace(tmp, mpath)
    return manifest_row


_MANIFEST_FIELDS = [
    ("part_key", pa.string()), ("path", pa.string()), ("rows", pa.int64()),
    ("raw_bytes", pa.int64()), ("enc_bytes", pa.int64()),
    ("header_bytes", pa.int64()), ("n_chunks", pa.int64()),
    ("encode_s", pa.float64()), ("crc32", pa.int64()),
    ("col_stats", pa.string()), ("replaces", pa.list_(pa.string())),
    ("generation", pa.string()),
]


def generation_of_row(row: dict) -> str:
    """Generation of a manifest row ("" = base). Prefers the explicit
    field; legacy rows (written before the field existed) fall back to
    parsing the part_key — ambiguous if the source value contains '@',
    which is exactly why the field is now explicit."""
    gen = row.get("generation")
    if gen is not None:
        return gen
    prefix = row["part_key"].split("#", 1)[0]
    return prefix.rsplit("@", 1)[1] if "@" in prefix else ""


def _manifest_schema_table(rows: list[dict]) -> pa.Table:
    schema = pa.schema(_MANIFEST_FIELDS)
    cols = {name: [r.get(name) for r in rows] for name, _ in _MANIFEST_FIELDS}
    return pa.table(cols, schema=schema)


def _drop_replaced(rows: dict[str, dict]) -> dict[str, dict]:
    """Compaction crash-safety: a partition superseded by a surviving
    row's ``replaces`` list is not part of the dataset even if its own
    manifest row still exists (see pipeline/compact.py)."""
    replaced: set[str] = set()
    for r in rows.values():
        replaced.update(r.get("replaces") or [])
    if not replaced:
        return rows
    return {k: r for k, r in rows.items() if k not in replaced}


def _range_plan_path(out_dir: str, generation: str | None) -> str:
    gen = f"@{generation}" if generation else ""
    return os.path.join(out_dir, f"range_plan{gen}.json")


def _save_range_plan(out_dir: str, generation: str | None, plan) -> None:
    """Persist the quantile boundaries next to the data (atomic
    tmp+rename): a resumed run MUST reuse the original cut points —
    re-sampling under a different input blocking would silently remap
    rows across already-committed partitions."""
    import json

    path = _range_plan_path(out_dir, generation)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump({"col": plan.col, "boundaries": list(plan.boundaries),
                   "weights": list(plan.weights)}, f)
    os.replace(tmp, path)


def _load_range_plan(out_dir: str, generation: str | None,
                     range_col: str | None = None, resume: bool = True):
    """Reload the persisted plan — only when resuming, and only if it
    was built for the SAME column (a stale plan for another column
    would silently bucket rows by the wrong values while sorting by
    the requested one)."""
    import json

    from ..planner import RangePlan

    if not resume:
        return None
    path = _range_plan_path(out_dir, generation)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        d = json.load(f)
    if range_col is not None and d["col"] != range_col:
        raise ValueError(
            f"{path} was built for range_partition_col={d['col']!r} but "
            f"{range_col!r} was requested; use a fresh out_dir (or a new "
            f"generation) to re-cluster on a different column")
    return RangePlan(tuple(d["boundaries"]), d["col"], tuple(d["weights"]))


def _apply_generation(pid_keys: list[str],
                      generation: str | None) -> list[str]:
    """Namespace partition keys as {src}@{generation}#{bucket} so an
    incremental APPEND never collides with (or gets skipped by) an
    earlier generation's resume state on the same key space."""
    if generation is None:
        return pid_keys
    if any(c in generation for c in "#@/"):
        raise ValueError(
            f"generation id must not contain #, @ or /: {generation!r}")
    return [f"{k.split('#', 1)[0]}@{generation}#{k.split('#', 1)[1]}"
            for k in pid_keys]


def encode_dataset(ds, out_dir: str, key_col: str = "source",
                   id_col: str = "doc_id", weight_col: str | None = "n_tok",
                   weight_cap: int | None = None, resume: bool = True,
                   sort_partitions_by: str | None = None,
                   generation: str | None = None,
                   range_partition_col: str | None = None,
                   zorder_cols: list[str] | None = None) -> pa.Table:
    """Run the full encode pipeline; returns the consolidated manifest
    table (one row per partition, including previously committed ones).

    ``zorder_cols`` (2-3 numeric/timestamp columns): Z-ORDERED
    clustered layout — a Morton key of the columns' quantile ranks is
    appended as an ordinary ``zorder`` int64 column (zorder.py), and
    the range-partition machinery clusters on it, so partitions cover
    small hyper-rectangles of the column space and the per-partition
    zone maps on EVERY listed column prune multi-predicate scans. The
    per-column boundaries persist in ``zorder_plan.json`` (resume
    reuses them).

    ``generation`` enables INCREMENTAL APPEND into an existing encoded
    dataset: partition keys become ``{src}@{generation}#{bucket}`` so a
    new batch of data never collides with — or gets silently skipped by
    — an earlier run's resume logic on the same key space. Each
    generation is itself resumable (re-run with the same id); readers
    see old + new through the one manifest; compaction groups within a
    generation.

    ``sort_partitions_by`` defaults to ``id_col`` for deterministic,
    resume-stable partition contents.

    The rebalance runs through the fragment exchange
    (``arcade_ray/exchange.py``); its auto rule picks the sink from the
    Dataset's metadata size estimate (the object store when the size
    is unknown).
    """
    from ..collect import iter_arrow_refs
    from ..exchange import auto_mode, avail_cpus, dataset_bytes

    mode = auto_mode(dataset_bytes(ds))
    if zorder_cols is not None:
        if range_partition_col is not None:
            raise ValueError(
                "zorder_cols and range_partition_col are exclusive "
                "(z-order IS a range layout on the Morton key)")
        from ..zorder import (ZORDER_COL, add_zorder_column,
                              build_zorder_plan, load_zorder_plan,
                              save_zorder_plan)

        zplan = load_zorder_plan(out_dir, zorder_cols) if resume else None
        if zplan is None:
            sch = ds.schema()
            missing = [c for c in zorder_cols
                       if c not in set(sch.names)]
            if missing:
                raise ValueError(f"zorder_cols {missing} not in input")
            if isinstance(sch.base_schema, pa.Schema):
                bad = [c for c in zorder_cols if not (
                    pa.types.is_integer(sch.base_schema.field(c).type)
                    or pa.types.is_floating(sch.base_schema.field(c).type)
                    or pa.types.is_timestamp(sch.base_schema.field(c).type)
                    or pa.types.is_date(sch.base_schema.field(c).type))]
                if bad:
                    raise ValueError(
                        f"zorder_cols must be numeric/timestamp "
                        f"columns; {bad} are not")
            zplan = build_zorder_plan(ds, list(zorder_cols))
            save_zorder_plan(out_dir, zplan)
        ds = add_zorder_column(ds, zplan)
        range_partition_col = ZORDER_COL
    in_sch = ds.schema()
    # pandas-backed datasets have a PandasBlockSchema (no pa.Schema to
    # record); empty-table scans of such dirs keep the legacy raise
    arrow_schema = in_sch.base_schema \
        if isinstance(in_sch.base_schema, pa.Schema) else None

    # planning pass reads only key+weight columns (projection pushdown
    # into the parquet read — never drag the token payload through the
    # planning aggregate)
    def key_plan(cols):
        return build_plan(ds.select_columns(cols), key_col, id_col,
                          weight_col, weight_cap)

    def range_parts(cols):
        def partial(batch: pa.Table) -> pa.Table:
            s, w = _range_partial(batch, range_partition_col, weight_col)
            return pa.table({"s": pa.array([s.tolist()]),
                             "w": pa.array([w], type=pa.int64())})

        parts = ds.select_columns(cols) \
            .map_batches(partial, batch_format="pyarrow").take_all()
        return [(np.asarray(r["s"]), int(r["w"])) for r in parts]

    def split_inputs():
        if mode == "disk":
            return _ref_groups(ds)
        return _group(list(iter_arrow_refs(ds)), max(16, avail_cpus()))

    return _encode(out_dir, set(in_sch.names), arrow_schema, key_plan,
                   range_parts, split_inputs, mode,
                   key_col=key_col, id_col=id_col, weight_col=weight_col,
                   weight_cap=weight_cap, resume=resume,
                   sort_partitions_by=sort_partitions_by,
                   generation=generation,
                   range_partition_col=range_partition_col,
                   zorder_cols=zorder_cols)


def _encode(out_dir: str, names: set, schema: pa.Schema | None, key_plan,
            range_parts, split_inputs, mode: str, *,
            key_col: str, id_col: str, weight_col: str | None,
            weight_cap: int | None, resume: bool,
            sort_partitions_by: str | None, generation: str | None,
            range_partition_col: str | None,
            zorder_cols: list[str] | None) -> pa.Table:
    """The encode driver behind both front ends. They supply the
    input's column names and Arrow schema (None: no schema sidecar),
    the planning pass — ``key_plan(cols) -> Plan`` and
    ``range_parts(cols) -> [(samples, weight)]``, one entry per input
    piece, both reading only ``cols`` — and ``split_inputs()``, the
    exchange's split inputs (never called when every partition is
    already committed). ``mode`` is the exchange sink."""
    from ..exchange import avail_cpus, run

    os.makedirs(os.path.join(out_dir, PARTS_DIR), exist_ok=True)
    os.makedirs(os.path.join(out_dir, MANIFEST_DIR), exist_ok=True)
    if range_partition_col is not None and sort_partitions_by is None:
        # clustered layout all the way down: rows inside each range
        # partition sort by the same column, so chunk zone maps nest
        # inside the partition's disjoint range
        sort_partitions_by = range_partition_col
    sort_by = id_col if sort_partitions_by is None else sort_partitions_by
    if generation:
        # appending into a relocated consolidated-only dir would
        # shadow the base rows (load_manifest prefers row files);
        # materialize them first
        ensure_row_files(out_dir)
    done = committed_parts(out_dir) if resume else {}
    _validate_columns(names, range_partition_col or key_col, id_col,
                      weight_col)
    if schema is not None:
        _write_schema_sidecar(out_dir, schema.remove_metadata(),
                              replace=not generation and not done)
    _write_encode_meta(out_dir, key_col, id_col, weight_col,
                       range_partition_col, zorder_cols)
    if range_partition_col is not None:
        plan = _range_plan(out_dir, range_partition_col, weight_col,
                           weight_cap, generation, resume, range_parts)
    else:
        plan = key_plan([key_col] + ([weight_col] if weight_col
                                     and weight_col != key_col else []))
    pid_keys = _apply_generation(plan.part_keys(), generation)
    done_pids = pa.array(
        [i for i, k in enumerate(pid_keys) if k in done], type=pa.int64()
    )

    from ..planner import RangePlan, assign_range_pids

    def assign(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            # schema-less empty blocks (Ray's union/map plumbing emits
            # them) carry no rows to route — and may not even have the
            # key column to route by
            return pa.table({"_pid": pa.array([], pa.int64())})
        out = assign_range_pids(batch, plan) if isinstance(plan, RangePlan) \
            else assign_part_keys(batch, plan)
        if len(done_pids):
            keep = pc.invert(pc.is_in(out["_pid"], value_set=done_pids))
            out = out.filter(keep)
        return out

    rows = list(done.values())
    # a resume of a finished run never reads the input
    if not all(k in done for k in pid_keys):
        # encode-bucket count: >= 32 for balance, scaling with the
        # cluster. Over-granular fan-out (buckets >> cores) measurably
        # HURTS: the per-object store/scheduler overhead outweighs the
        # parallelism.
        bucket_of_pid, n_buckets = _lpt_buckets(
            plan.pid_weights(), max(32, avail_cpus()))

        def route(items):
            table = assign(_read_split_inputs(items))
            return table, bucket_of_pid[
                table["_pid"].to_numpy(zero_copy_only=False)]

        encode = functools.partial(_encode_bucket, pid_keys, out_dir,
                                   sort_by, generation or "")
        for bucket_rows in run(route, split_inputs(), encode, n_buckets,
                               mode, "encode", parent=out_dir):
            rows.extend(bucket_rows)
    manifest = _manifest_schema_table(sorted(rows, key=lambda r: r["part_key"]))
    _write_consolidated(out_dir, manifest)
    return manifest


def _range_plan(out_dir: str, range_col: str, weight_col: str | None,
                weight_cap: int | None, generation: str | None,
                resume: bool, range_parts):
    """Load the persisted range plan, or build one from the front end's
    sampling pass and persist it."""
    plan = _load_range_plan(out_dir, generation, range_col, resume)
    if plan is None and generation is not None:
        # generation APPEND into an existing range-clustered dir:
        # reuse the BASE plan's cut points so new rows land in range
        # partitions matching the base layout (readers prune all
        # generations with one set of boundaries); copied under the
        # generation's plan path for resume stability
        plan = _load_range_plan(out_dir, None, range_col, resume)
        if plan is not None:
            _save_range_plan(out_dir, generation, plan)
    if plan is not None:
        return plan
    from ..planner import build_range_plan, part_cap

    parts = range_parts([range_col] + ([weight_col] if weight_col
                                       and weight_col != range_col else []))
    samples = [s for s, _ in parts if len(s)]
    plan = build_range_plan(
        np.concatenate(samples) if samples else np.empty(0),
        sum(w for _, w in parts), part_cap(weight_col, weight_cap),
        range_col)
    _save_range_plan(out_dir, generation, plan)
    return plan


def _range_partial(t: pa.Table, range_col: str, weight_col: str | None):
    """Range-planning partial of one input piece: (strided sample of
    the range column, weight)."""
    from ..planner import range_sample

    w = int(pc.sum(t[weight_col]).as_py() or 0) if weight_col \
        else t.num_rows
    return range_sample(t[range_col]), w


def _encode_bucket(pid_keys: list[str], out_dir: str, sort_by: str | None,
                   generation: str, b: int, table: pa.Table) -> list[dict]:
    """Exchange consumer: encode and commit every partition with rows
    in one bucket's table (the ``_pid`` column names the partitions;
    ``b`` is not needed)."""
    rows: list[dict] = []
    if table.num_rows == 0:
        return rows
    # rows in a stable (partition, sort_by) order, so each partition is
    # a zero-copy slice with a deterministic row order -> stable output
    if sort_by is not None and sort_by not in table.column_names:
        sort_by = None
    pids = table["_pid"].to_numpy(zero_copy_only=False)
    order = _partition_order(table, sort_by)
    if order is not None:
        table = take_rows(table, order)
        pids = pids[order]
    starts = np.flatnonzero(np.diff(pids, prepend=-1)).tolist()
    table = table.drop_columns(["_pid"])
    for lo, hi in zip(starts, starts[1:] + [len(pids)]):
        key = pid_keys[int(pids[lo])]
        blob, row = encode_partition(table.slice(lo, hi - lo), key)
        row["generation"] = generation
        rows.append(commit_partition(out_dir, key, blob, row))
    return rows


def _partition_order(table: pa.Table,
                     sort_by: str | None) -> np.ndarray | None:
    """The stable sort of a bucket's rows by (``_pid``, ``sort_by``),
    or None when it is the order the rows arrived in."""
    keys = [("_pid", "ascending")] + \
        ([(sort_by, "ascending")] if sort_by is not None else [])
    order = pc.sort_indices(table, sort_keys=keys).to_numpy()
    if (order == np.arange(len(order))).all():
        return None
    return order


def _read_piece(item, columns: list[str] | None = None) -> pa.Table:
    """One split input piece: a Dataset block ref, a parquet file, or a
    (path, row_group_lo, row_group_hi) range of one."""
    import pyarrow.parquet as pq
    import ray

    if isinstance(item, ray.ObjectRef):
        return ray.get(item)
    if isinstance(item, tuple):
        path, lo, hi = item
        return pq.ParquetFile(path).read_row_groups(list(range(lo, hi)),
                                                    columns=columns)
    return pq.read_table(item, columns=columns)


def _read_split_inputs(items: list) -> pa.Table:
    """One split task's input pieces as one Arrow table."""
    tables = [_read_piece(i) for i in items]
    # schema-less zero-row blocks (Ray union/map plumbing) would
    # poison the concat; rows are what gets routed, so drop them.
    # An ALL-empty group keeps one block — preferring a TYPED one, so
    # a schema-less empty never meets a typed empty in the concat
    nonempty = [t for t in tables if t.num_rows]
    if nonempty:
        tables = nonempty
    elif len(tables) > 1:
        typed = [t for t in tables if t.num_columns]
        tables = typed[:1] if typed else tables[:1]
    return pa.concat_tables(tables) if len(tables) > 1 else tables[0]


def _map_pieces(fn, group: list, columns: list[str]) -> list:
    """Planning task body: ``fn`` over each parquet piece of one split
    group, reading only ``columns``."""
    from ..exchange import pin_arrow_threads

    pin_arrow_threads()
    return [fn(_read_piece(item, columns)) for item in group]


def _ref_groups(ds, per: int = 4):
    """Block refs streamed off the executor in small groups — the
    input never materializes in the object store all at once."""
    from ..collect import iter_arrow_refs

    group: list = []
    for ref in iter_arrow_refs(ds):
        group.append(ref)
        if len(group) >= per:
            yield group
            group = []
    if group:
        yield group


def _group(items: list, n_groups: int) -> list[list]:
    n_groups = max(1, min(n_groups, len(items)))
    per = -(-len(items) // n_groups)
    return [items[i: i + per] for i in range(0, len(items), per)]


def _lpt_buckets(weights: list[int], n_buckets: int):
    """Longest-processing-time assignment of partitions to encode
    buckets -> (bucket_of_pid int64 array, n_buckets)."""
    import heapq

    n = len(weights)
    n_buckets = max(1, min(n_buckets, n))
    heap = [(0, b) for b in range(n_buckets)]
    heapq.heapify(heap)
    bucket_of = np.zeros(n, dtype=np.int64)
    for pid in sorted(range(n), key=lambda p: -weights[p]):
        load, b = heapq.heappop(heap)
        bucket_of[pid] = b
        heapq.heappush(heap, (load + weights[pid], b))
    return bucket_of, n_buckets


def _validate_columns(schema_names: set, key_col: str, id_col: str,
                      weight_col: str | None) -> None:
    missing = [c for c in (key_col, id_col, weight_col)
               if c and c not in schema_names]
    if missing:
        raise ValueError(
            f"column(s) {missing} not in input schema "
            f"(columns: {sorted(schema_names)}); pass key_col/id_col/"
            f"weight_col matching your table"
        )


def _write_consolidated(out_dir: str, manifest: pa.Table) -> None:
    import pyarrow.parquet as pq

    tmp = os.path.join(out_dir, f"manifest.parquet.tmp.{os.getpid()}")
    pq.write_table(manifest, tmp)
    os.replace(tmp, os.path.join(out_dir, "manifest.parquet"))


SCHEMA_SIDECAR = "_schema.arrows"


def _write_schema_sidecar(out_dir: str, schema: pa.Schema,
                          replace: bool = False) -> None:
    """Top-level input-schema record (schema-only Arrow IPC stream),
    written atomically. Lets a scan of a legitimately EMPTY encoded
    table (zero committed partitions — e.g. an empty input shard)
    answer with a TYPED empty dataset instead of raising; partition
    headers can't help because none exist.

    A generation append UNIONS with the recorded schema rather than
    replacing it: an INSERT carrying a column subset must not shrink
    the dir's visible schema, and schema evolution's added columns
    must widen it (first-seen field wins on a name collision — the
    read-time manifest merge governs actual decoding). A FRESH base
    encode passes ``replace=True`` and overwrites the sidecar outright
    — otherwise a full re-encode with a renamed/retyped column would
    keep phantom fields and stale types visible to DESCRIBE and
    typed-empty scans forever."""
    existing = None if replace else read_schema_sidecar(out_dir)
    if existing is not None:
        fields = list(existing)
        names = set(existing.names)
        for f in schema:
            if f.name not in names:
                fields.append(f)
        schema = pa.schema(fields)
    tmp = os.path.join(out_dir, f"{SCHEMA_SIDECAR}.tmp.{os.getpid()}")
    with pa.OSFile(tmp, "wb") as f:
        with pa.ipc.new_stream(f, schema):
            pass  # schema-only stream: header, no record batches
    os.replace(tmp, os.path.join(out_dir, SCHEMA_SIDECAR))


def read_schema_sidecar(out_dir: str) -> pa.Schema | None:
    """Input schema recorded at encode time, or None (pre-sidecar
    dirs)."""
    p = os.path.join(out_dir, SCHEMA_SIDECAR)
    if not os.path.exists(p):
        return None
    with pa.ipc.open_stream(p) as r:
        return r.schema


ENCODE_META = "_encode_meta.json"


def _write_encode_meta(out_dir: str, key_col: str, id_col: str,
                       weight_col: str | None,
                       range_partition_col: str | None = None,
                       zorder_cols: list[str] | None = None) -> None:
    """Layout record (partition key / id / weight columns plus any
    range/Z-order clustering), written atomically once per dir: SQL
    INSERT (generation append) and other writers re-derive the layout
    from it instead of guessing. A generation append with a DIFFERENT
    key column or clustering would silently interleave two
    partitioning schemes, so a LAYOUT mismatch raises. ``weight_col``
    is a partition-SIZING hint, not layout — appends may differ (e.g.
    an INSERT omitting the weight column) without harm, and the
    originally recorded value stands."""
    meta = {"key_col": key_col, "id_col": id_col,
            "weight_col": weight_col,
            "range_partition_col": range_partition_col,
            "zorder_cols": list(zorder_cols) if zorder_cols else None}
    layout_keys = ("key_col", "id_col", "range_partition_col",
                   "zorder_cols")
    p = os.path.join(out_dir, ENCODE_META)
    if os.path.exists(p):
        with open(p) as f:
            old = json.load(f)
        old_l = {k: old.get(k) for k in layout_keys}
        new_l = {k: meta[k] for k in layout_keys}
        if old_l != new_l:
            raise ValueError(
                f"encode layout mismatch for {out_dir}: recorded "
                f"{old_l}, requested {new_l} — appends must reuse the "
                "dir's partitioning columns")
        return
    tmp = f"{p}.tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(meta, f)
    os.replace(tmp, p)


def read_encode_meta(out_dir: str) -> dict | None:
    """{key_col, id_col, weight_col} recorded at encode time, or None
    (pre-meta dirs)."""
    p = os.path.join(out_dir, ENCODE_META)
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return json.load(f)


def clustering_kwargs(meta: dict) -> dict:
    """encode_dataset clustering arguments re-derived from a recorded
    _encode_meta.json, for generation APPENDS into clustered dirs (SQL
    INSERT / MERGE insert): a Z-order dir passes ``zorder_cols`` only
    (the Morton key re-derives per row from the persisted
    zorder_plan.json — meta's range_partition_col is the derived
    ZORDER_COL and must not be passed alongside), a range-clustered
    dir passes ``range_partition_col`` (the generation reuses the BASE
    range plan's cut points, see _range_plan_dataset)."""
    zc = meta.get("zorder_cols")
    if zc:
        return {"zorder_cols": list(zc)}
    rpc = meta.get("range_partition_col")
    if rpc:
        return {"range_partition_col": rpc}
    return {}


def cluster_input_cols(meta: dict) -> list[str]:
    """The INPUT columns an append into this dir must supply so its
    rows can be routed into the recorded clustered layout (Z-order
    source columns, or the range partition column)."""
    zc = meta.get("zorder_cols")
    if zc:
        return list(zc)
    rpc = meta.get("range_partition_col")
    return [rpc] if rpc else []


def encode_parquet(paths: list[str] | str, out_dir: str,
                   key_col: str = "source", id_col: str = "doc_id",
                   weight_col: str | None = "n_tok",
                   weight_cap: int | None = None, resume: bool = True,
                   sort_partitions_by: str | None = None,
                   generation: str | None = None,
                   range_partition_col: str | None = None,
                   zorder_cols: list[str] | None = None) -> pa.Table:
    """Parquet-source fast path of :func:`encode_dataset`: split tasks
    read the shards directly (no intermediate block materialization),
    and the planning pass reads only the key/weight columns per shard.
    One split task per file group, one encode task per bucket.

    The exchange's auto rule picks the fragment sink from the files'
    on-disk bytes: the object store below ARCADE_DISK_EXCHANGE_BYTES,
    the disk-staged, bounded-in-flight sink above it (uncompressed
    fragments of a giant input would otherwise only be survivable via
    object-store spilling).

    ``range_partition_col``: CLUSTERED layout — partitions cover
    disjoint quantile ranges of this (numeric/timestamp) column
    instead of hash buckets of ``key_col``, and rows inside each
    partition sort by it, so manifest zone maps prune range/point
    predicates on the column ACROSS partitions. Boundaries come from a
    sampled planning wave and persist in ``range_plan.json`` (resume
    reuses them; re-sampling under different input blocking would
    remap rows across committed partitions).

    ``zorder_cols``: Z-ORDERED clustered layout over 2-3 columns (see
    :func:`encode_dataset`); routed through the generic dataset path
    since the Morton key is a computed column."""
    import glob as _glob

    import pyarrow.parquet as pq
    import ray

    from ..exchange import auto_mode, avail_cpus

    if isinstance(paths, str):
        if os.path.isdir(paths):
            files = sorted(_glob.glob(os.path.join(paths, "*.parquet")))
        else:
            files = [paths]
    else:
        files = list(paths)
    if not files:
        raise FileNotFoundError(paths)
    if zorder_cols is not None:
        # z-order needs a computed clustering column — route through
        # the generic dataset path. range_partition_col forwards so
        # the exclusivity error still fires.
        from ..sources import read_parquet_clean

        return encode_dataset(
            read_parquet_clean(files), out_dir, key_col=key_col,
            id_col=id_col, weight_col=weight_col, weight_cap=weight_cap,
            resume=resume, sort_partitions_by=sort_partitions_by,
            generation=generation,
            range_partition_col=range_partition_col,
            zorder_cols=zorder_cols)
    mode = auto_mode(sum(os.path.getsize(f) for f in files))
    schema = pq.read_schema(files[0])
    # one split task per core: the split wave (parquet read + assign +
    # hash-partition) is the pipeline's other parallel phase — capping
    # it below the core count was the 8->32 scaling ceiling (the encode
    # bucket count already scales with the CPU count)
    n_splits = max(16, avail_cpus())
    if len(files) < n_splits:
        # few big files: split by parquet row-group ranges so the read
        # still parallelizes (one split task per range)
        items: list = []
        for f in files:
            n_rg = pq.ParquetFile(f).metadata.num_row_groups
            per_file = max(1, n_splits // len(files))
            step = max(1, -(-n_rg // per_file))
            for lo in range(0, n_rg, step):
                items.append((f, lo, min(n_rg, lo + step)))
        files = items
    groups = _group(files, n_splits)
    map_pieces = ray.remote(_map_pieces)

    def pieces(fn, cols):
        return [r for rs in ray.get([map_pieces.remote(fn, g, cols)
                                     for g in groups]) for r in rs]

    def key_plan(cols):
        totals: dict[str, int] = {}
        for t in pieces(functools.partial(key_weights, key_col=key_col,
                                          weight_col=weight_col), cols):
            for k, w in zip(t["k"].to_pylist(), t["w"].to_pylist()):
                totals[k] = totals.get(k, 0) + int(w)
        return plan_from_totals(totals, key_col, id_col, weight_col,
                                weight_cap)

    def range_parts(cols):
        return pieces(functools.partial(
            _range_partial, range_col=range_partition_col,
            weight_col=weight_col), cols)

    return _encode(out_dir, set(schema.names), schema, key_plan,
                   range_parts, lambda: groups, mode,
                   key_col=key_col, id_col=id_col, weight_col=weight_col,
                   weight_cap=weight_cap, resume=resume,
                   sort_partitions_by=sort_partitions_by,
                   generation=generation,
                   range_partition_col=range_partition_col,
                   zorder_cols=zorder_cols)


def ensure_row_files(out_dir: str) -> None:
    """Materialize per-partition manifest row files from the
    consolidated manifest.parquet for a relocated, CONSOLIDATED-ONLY
    dir. Appends commit new row files, and ``load_manifest`` prefers
    row files whenever any exist — so appending into a
    consolidated-only dir without this repair would silently shadow
    every base row. Idempotent; no-op when row files already exist."""
    if committed_parts(out_dir):
        return
    consolidated = os.path.join(out_dir, "manifest.parquet")
    if not os.path.exists(consolidated):
        return
    import pyarrow.parquet as pq

    os.makedirs(os.path.join(out_dir, MANIFEST_DIR), exist_ok=True)
    for r in pq.read_table(consolidated).to_pylist():
        r["path"] = part_path(out_dir, r["part_key"])
        p = _manifest_row_path(out_dir, r["part_key"])
        if os.path.exists(p):
            continue
        tmp = f"{p}.tmp.{os.getpid()}"
        with open(tmp, "w") as f:
            json.dump(r, f)
        os.replace(tmp, p)


def all_generations(out_dir: str) -> set[str]:
    """Every generation name that could collide with a fresh append —
    generation-name pickers (INSERT/MERGE) must scan THIS, not the
    filtered manifest. Three sources, each closing a reuse hazard:

    - raw manifest row files, INCLUDING rows currently shadowed by a
      ``replaces`` tombstone (crash window between a compaction's
      commit and its cleanup);
    - names parsed out of live ``replaces`` lists themselves (the
      replaced ROW may already be deleted while its tombstone
      survives a crash before tombstone cleanup — reusing that name
      would mint a part_key the tombstone silently filters from every
      scan). The prefix parse can over-extract when a source value
      contains '@' — harmless: the picker just skips to the next name;
    - the consolidated manifest.parquet fallback (a relocated dir may
      carry ONLY the consolidated file, the same state load_manifest
      supports — an empty row scan there must not report 'no
      generations')."""
    mdir = os.path.join(out_dir, MANIFEST_DIR)
    gens: set[str] = set()
    saw_rows = False
    if os.path.isdir(mdir):
        for fn in os.listdir(mdir):
            if fn.endswith(".json"):
                saw_rows = True
                with open(os.path.join(mdir, fn)) as f:
                    row = json.load(f)
                gens.add(generation_of_row(row))
                for key in row.get("replaces") or []:
                    prefix = key.split("#", 1)[0]
                    if "@" in prefix:
                        gens.add(prefix.rsplit("@", 1)[1])
    if not saw_rows:
        consolidated = os.path.join(out_dir, "manifest.parquet")
        if os.path.exists(consolidated):
            import pyarrow.parquet as pq

            # full read: legacy consolidated files may lack the
            # generation column (generation_of_row falls back to the
            # part_key parse) and the manifest is rows-of-partitions
            # small either way. Tombstoned names block here too.
            for r in pq.read_table(consolidated).to_pylist():
                gens.add(generation_of_row(r))
                for key in r.get("replaces") or []:
                    prefix = key.split("#", 1)[0]
                    if "@" in prefix:
                        gens.add(prefix.rsplit("@", 1)[1])
    return gens


class Manifest:
    """One encoded dir's committed manifest, parsed once: the table
    :func:`load_manifest` returns, its rows as dicts, and each row's
    ``col_stats`` parsed on first use. :func:`read_manifest` shares one
    per dir among all its readers until a row file changes, so it is
    read-only: :meth:`row_dicts` hands out copies, and ``stats`` must
    not be mutated."""

    def __init__(self, table: pa.Table):
        self.table = table
        self._rows = table.to_pylist()

    def row_dicts(self) -> list[dict]:
        """The rows in ``part_key`` order, as fresh dicts a caller may
        mutate (``replaces`` lists are copied too)."""
        out = [dict(r) for r in self._rows]
        for r in out:
            if r.get("replaces"):
                r["replaces"] = list(r["replaces"])
        return out

    @functools.cached_property
    def stats(self) -> list[dict | None]:
        """Each row's parsed ``col_stats`` (zone maps, null counts,
        Bloom filters, sketches; None for a row without any), in row
        order: the engine's one parse of ``col_stats``."""
        return [json.loads(r["col_stats"]) if r.get("col_stats") else None
                for r in self._rows]


_MANIFEST_CACHE_DIRS = 4
_manifest_cache: collections.OrderedDict = collections.OrderedDict()
_manifest_cache_lock = threading.Lock()


def _manifest_key(out_dir: str) -> tuple:
    """What the committed manifest of ``out_dir`` is read from, without
    opening a row file: (name, inode, size, mtime, ctime) of every row
    file, else the same stat of the consolidated ``manifest.parquet``;
    () when there is neither. Writers commit by ``os.replace`` and
    delete by ``os.remove``, so every commit, append, compaction and
    DML rewrite changes it."""
    entries = []
    try:
        with os.scandir(os.path.join(out_dir, MANIFEST_DIR)) as it:
            for e in it:
                if not e.name.endswith(".json"):
                    continue
                try:
                    st = e.stat()
                except FileNotFoundError:
                    continue  # removed since the listing
                entries.append((e.name, st.st_ino, st.st_size,
                                st.st_mtime_ns, st.st_ctime_ns))
    except (FileNotFoundError, NotADirectoryError):
        pass
    if entries:
        return ("rows", tuple(sorted(entries)))
    try:
        st = os.stat(os.path.join(out_dir, "manifest.parquet"))
    except FileNotFoundError:
        return ()
    return ("consolidated", st.st_ino, st.st_size, st.st_mtime_ns,
            st.st_ctime_ns)


def _manifest_table(out_dir: str, key: tuple) -> pa.Table:
    """The manifest table read from what ``key`` names (row files win
    over the consolidated file, see :func:`ensure_row_files`), paths
    rebased onto ``out_dir``."""
    if key and key[0] == "rows":
        rows = _read_row_files(out_dir, [e[0] for e in key[1]])
        return _manifest_schema_table(
            sorted(rows.values(), key=lambda r: r["part_key"]))
    if not key:
        return _manifest_schema_table([])
    import pyarrow.parquet as pq

    t = pq.read_table(os.path.join(out_dir, "manifest.parquet"))
    # same relocation rebase as committed_parts
    paths = pa.array([part_path(out_dir, k)
                      for k in t["part_key"].to_pylist()])
    return t.set_column(t.column_names.index("path"), "path", paths)


def read_manifest(out_dir: str) -> Manifest:
    """The committed manifest of ``out_dir``, parsed once and reused
    while :func:`_manifest_key` is unchanged: a repeated read opens no
    row file and parses no ``col_stats``. The last few dirs read are
    kept."""
    key = _manifest_key(out_dir)
    name = os.fspath(out_dir)
    with _manifest_cache_lock:
        hit = _manifest_cache.get(name)
        if hit is not None and hit[0] == key:
            _manifest_cache.move_to_end(name)
            return hit[1]
    # the key is taken before the rows are read: a commit in between
    # leaves a key that no longer matches, so the next read reloads
    m = Manifest(_manifest_table(out_dir, key))
    if key:
        with _manifest_cache_lock:
            _manifest_cache[name] = (key, m)
            _manifest_cache.move_to_end(name)
            while len(_manifest_cache) > _MANIFEST_CACHE_DIRS:
                _manifest_cache.popitem(last=False)
    return m


def load_manifest(out_dir: str) -> pa.Table:
    """Committed-partition manifest: the per-partition row files,
    sorted by ``part_key``, whenever any exist (commits, appends and
    compactions write them); else the consolidated ``manifest.parquet``.
    Paths are rebased onto ``out_dir`` either way. See
    :func:`ensure_row_files` for why row files win, and
    :func:`read_manifest` for the rows and parsed ``col_stats``."""
    return read_manifest(out_dir).table
