"""The engine's one fragment exchange: route rows to buckets, stage the
fragments, consume one bucket per task.

The encode rebalance, the co-partitioned join, the exact-verify
barriers in collect.py and every operator that co-locates rows by key
(:func:`by_key`: the window operators and the time joins in
windows.py, ``transforms.stratified_sample``, ``join.semi_join_large``,
``textops.dedup_against_index``, ``ann.semantic_dedup`` and the SQL
window pass) all run through here. A caller supplies a route function
(one split input -> its table plus a bucket id per row) and a consume
function (one bucket's table -> a result); everything between them
lives in this module, and :func:`key_buckets` is the one key hash.

Two fragment sinks:

- ``"objects"``: each split task ``ray.put``s ONE object, its rows in
  bucket order, from INSIDE the task (measured ~16x faster than the
  task-return path for large payloads), and returns only a
  ``(ref, lo, hi)`` handle per non-empty bucket. The object is one
  gather of the split's rows (:func:`take_rows`: a list column of
  fixed-width values moves a row's values as one span, ~14x Arrow's
  per-value list take), so it owns compact buffers. A consumer
  ``ray.get``s the split objects its bucket has rows in (a zero-copy
  map on one node) and copies only its own rows, once, when
  :func:`read` concatenates them; the encode consumer gathers them
  again only if they do not arrive in partition order. One put per split,
  not per (split, bucket): in a 1-CPU session encoding the perfbench
  corpus, 12 splits x 16 buckets of puts took 0.66 s of a 0.93 s
  split wave, against 0.13 s for one put per split. The whole routed
  input is live in the object store at the barrier; Ray spills past
  store capacity.

  The trade-off is cross-node bytes. A consumer on another node pulls
  each whole split object it reads, once per node, so cross-node
  traffic can grow to min(nodes, buckets) x the routed input, where
  per-bucket objects moved each row at most once. The layout is
  chosen for single-node sessions, the only ones this repo measures;
  a multi-node deployment that is network-bound should measure it.
- ``"disk"``: split tasks write the fragments as Arrow IPC files under
  ``shuffle_dir/b{bucket}/s{split}.arrow`` (the Spark shuffle-file
  pattern) and in-flight splits are bounded, so peak object-store use
  is O(in-flight splits) whatever the input size. On a multi-node
  cluster the shuffle dir must live on shared storage.

One auto rule (:func:`auto_mode`) picks the sink, and no public
function lets its caller override it: disk above
``DISK_EXCHANGE_BYTES`` (env ``ARCADE_DISK_EXCHANGE_BYTES``, default
8 GiB) of an input size known WITHOUT executing the input — manifest
``raw_bytes``, parquet file sizes, or a Dataset's metadata estimate
(:func:`dataset_bytes`); objects when the size is unknown. Every caller
applies the rule on the driver, so lowering the threshold sends a whole
run through the disk sink.
"""

from __future__ import annotations

import atexit
import functools
import os
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np
import pyarrow as pa

DISK_EXCHANGE_BYTES = int(os.environ.get(
    "ARCADE_DISK_EXCHANGE_BYTES", 8 * 1024 ** 3))

SHUFFLE_DIR = "_shuffle"


def auto_mode(nbytes: int | None) -> str:
    """The sink for an input of ``nbytes`` (None = unknown)."""
    return "disk" if nbytes and nbytes > DISK_EXCHANGE_BYTES else "objects"


def dataset_bytes(ds) -> int | None:
    """A Dataset's size from its plan metadata, or None when only
    execution would tell. ``Dataset.size_bytes()`` executes a lazy plan
    to find out, and the exchange would then execute it a second time."""
    try:
        return ds._logical_plan.dag.infer_metadata().size_bytes
    except AttributeError:
        return None


def avail_cpus() -> int:
    import ray

    if not ray.is_initialized():
        return 8
    return int(ray.cluster_resources().get("CPU", 8))


def pin_arrow_threads() -> None:
    """One Arrow compute thread per Ray task: each worker otherwise
    spins up a hardware-concurrency-sized pool, and N workers x N
    threads thrashes the node (measured 2-3x slowdown at 32 workers)."""
    try:
        if pa.cpu_count() != 1:
            pa.set_cpu_count(1)
            pa.set_io_thread_count(2)
    except Exception:
        pass


def put_buckets(buckets, n_buckets: int, take) -> list:
    """Stage one split's rows in ONE object, ``ray.put`` from inside
    the calling task: the rows in bucket order, input order within a
    bucket. ``take(idx)`` builds that object from the row indices
    ``idx`` (for a table, a ``take`` — the object then owns compact
    buffers; a slice view would serialize its whole parent block).
    Returns one ``(ref, lo, hi)`` handle per bucket, rows [lo, hi) of
    the object, None for empty buckets; :func:`fetch` reads them."""
    import ray

    order, spans = _bucket_order(buckets, n_buckets)
    if not len(order):
        return [None] * n_buckets
    ref = ray.put(take(order))
    return [None if sp is None else (ref, *sp) for sp in spans]


def fetch(handles) -> list:
    """The fragments behind ``(ref, lo, hi)`` handles from
    :func:`put_buckets`, in handle order: a zero-copy ``slice`` of a
    table, or ``x[lo:hi]`` views of a tuple of numpy arrays."""
    import ray

    objs = ray.get([h[0] for h in handles])
    return [tuple(x[lo:hi] for x in obj) if isinstance(obj, tuple)
            else obj.slice(lo, hi - lo)
            for obj, (_, lo, hi) in zip(objs, handles)]


def _bucket_order(buckets, n_buckets: int):
    """A stable argsort of the rows by bucket (input row order within a
    bucket), and each bucket's ``(lo, hi)`` range of it, None for
    empty buckets."""
    buckets = np.ascontiguousarray(buckets)
    order = np.argsort(buckets, kind="stable")
    bounds = np.searchsorted(buckets[order],
                             np.arange(n_buckets + 1)).tolist()
    return order, [(lo, hi) if hi > lo else None
                   for lo, hi in zip(bounds[:-1], bounds[1:])]


def take_rows(table: pa.Table, idx) -> pa.Table:
    """Rows ``idx`` of ``table`` (any chunking), in that order, as one
    chunk of compact buffers: the one row gather of the exchange and of
    the encode consumer's reorder. A list column of fixed-width values
    copies each row's values as one span (``codecs.native.
    gather_lists``); every other column goes through Arrow's take."""
    from .codecs.native import gather_lists

    idx = np.asarray(idx, dtype=np.int64)
    arrow_idx = None
    cols = []
    for col in table.columns:
        out = gather_lists(col, idx)
        if out is None:
            if arrow_idx is None:
                arrow_idx = pa.array(idx, type=pa.int64())
            out = col.take(arrow_idx)
        cols.append(out)
    return pa.Table.from_arrays(cols, schema=table.schema)


def _write_buckets(table: pa.Table, buckets, n_buckets: int,
                   shuffle_dir: str, split_id: int) -> list:
    """Disk sink: one Arrow IPC file per non-empty bucket (atomic
    rename). Returns each bucket's dir, None for empty buckets."""
    order, spans = _bucket_order(buckets, n_buckets)
    out = []
    for b, sp in enumerate(spans):
        if sp is None:
            out.append(None)
            continue
        frag = take_rows(table, order[sp[0]:sp[1]])
        d = os.path.join(shuffle_dir, f"b{b:05d}")
        os.makedirs(d, exist_ok=True)
        final = os.path.join(d, f"s{split_id:05d}.arrow")
        tmp = final + f".tmp.{os.getpid()}"
        with pa.OSFile(tmp, "wb") as sink:
            with pa.ipc.new_file(sink, frag.schema) as w:
                w.write_table(frag)
        os.replace(tmp, final)
        out.append(d)
    return out


def make_shuffle_dir(tag: str, parent: str | None = None) -> str:
    """A fresh shuffle directory for the disk sink: ``parent/_shuffle``
    (a stale copy from a killed run is removed first), or a new temp
    dir under ARCADE_SHUFFLE_ROOT (default system tmp) that is removed
    at interpreter exit as a backstop."""
    if parent is not None:
        d = os.path.join(parent, SHUFFLE_DIR)
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        return d
    root = os.environ.get("ARCADE_SHUFFLE_ROOT") or tempfile.gettempdir()
    d = tempfile.mkdtemp(prefix=f"arcade_{tag}_shuffle_", dir=root)
    atexit.register(shutil.rmtree, d, ignore_errors=True)
    return d


@dataclass
class Staged:
    """One exchange's staged fragments. ``parts[b]`` is bucket b's
    fragment handles in split order (objects) or its shuffle-file dir
    (disk), None when no split routed a row to b. ``info`` holds what
    each split's route reported beside its table, in split order."""

    parts: list
    info: list
    shuffle_dir: str | None = None

    def live(self) -> list[int]:
        return [b for b, p in enumerate(self.parts) if p is not None]

    def cleanup(self) -> None:
        if self.shuffle_dir is not None:
            shutil.rmtree(self.shuffle_dir, ignore_errors=True)


def read(part) -> pa.Table | None:
    """One bucket's fragments (a ``Staged.parts`` entry) as one table;
    runs inside the consuming task."""
    if part is None:
        return None
    if isinstance(part, str):
        tables = []
        for fn in sorted(os.listdir(part)):
            if fn.endswith(".arrow"):
                with pa.memory_map(os.path.join(part, fn)) as src:
                    tables.append(pa.ipc.open_file(src).read_all())
    else:
        tables = fetch(part)
    if not tables:
        return None
    return pa.concat_tables(tables).combine_chunks()


def _split(route, item, n_buckets: int, shuffle_dir: str | None,
           split_id: int):
    """Split task body: route one input, fan its rows out to the sink."""
    pin_arrow_threads()
    table, buckets, *info = route(item)
    if shuffle_dir is None:
        parts = put_buckets(buckets, n_buckets,
                            lambda idx: take_rows(table, idx))
    else:
        parts = _write_buckets(table, buckets, n_buckets, shuffle_dir,
                               split_id)
    return parts, (info[0] if info else None)


def stage(route, inputs, n_buckets: int, mode: str, tag: str,
          parent: str | None = None) -> Staged:
    """Run one split task per item of ``inputs`` (an iterable; the disk
    sink consumes it incrementally, so a streamed input never
    materializes whole). ``route(item)`` runs in the task and returns
    ``(table, buckets)`` — ``buckets`` an int array with one bucket id
    in [0, n_buckets) per row — or ``(table, buckets, info)`` to report
    something small back (``Staged.info``).

    A failed split raises here, before any bucket is consumed, so no
    consumer ever sees a bucket that misses a fragment; a disk stage
    then waits for its other in-flight splits and removes its dir."""
    import ray

    if mode not in ("objects", "disk"):
        raise ValueError(f"exchange mode must be objects/disk, got {mode!r}")
    split = ray.remote(_split)
    if mode == "objects":
        outs = ray.get([split.remote(route, item, n_buckets, None, 0)
                        for item in inputs])
        parts = [[o[0][b] for o in outs if o[0][b] is not None] or None
                 for b in range(n_buckets)]
        return Staged(parts, [o[1] for o in outs])
    sdir = make_shuffle_dir(tag, parent)
    max_inflight = max(4, avail_cpus())
    refs: list = []
    pending: list = []
    try:
        for si, item in enumerate(inputs):
            ref = split.remote(route, item, n_buckets, sdir, si)
            refs.append(ref)
            pending.append(ref)
            if len(pending) >= max_inflight:
                ready, pending = ray.wait(pending, num_returns=1)
                ray.get(ready)  # surface a failed split now
        outs = ray.get(refs)
    except BaseException:
        if pending:  # no writer may outlive the dir's removal
            ray.wait(pending, num_returns=len(pending))
        shutil.rmtree(sdir, ignore_errors=True)
        raise
    parts = [next((o[0][b] for o in outs if o[0][b] is not None), None)
             for b in range(n_buckets)]
    return Staged(parts, [o[1] for o in outs], sdir)


def _consume(fn, b: int, *parts):
    pin_arrow_threads()
    return fn(b, *[read(p) for p in parts])


def consume(fn, stages: list[Staged], buckets, as_refs: bool = False):
    """One task per bucket in ``buckets``: ``fn(b, *tables)`` with each
    stage's table for bucket b (None when that stage has none). Returns
    the results in bucket order, or their refs with ``as_refs``. The
    stages' shuffle dirs are removed once every task has finished,
    failed or not."""
    import ray

    task = ray.remote(_consume)
    refs: list = []
    try:
        refs = [task.remote(fn, b, *[s.parts[b] for s in stages])
                for b in buckets]
        return refs if as_refs else ray.get(refs)
    finally:
        on_disk = [s for s in stages if s.shuffle_dir is not None]
        if on_disk:
            if refs:
                ray.wait(refs, num_returns=len(refs), fetch_local=False)
            for s in on_disk:
                s.cleanup()


def run(route, inputs, fn, n_buckets: int, mode: str, tag: str,
        parent: str | None = None, as_refs: bool = False):
    """:func:`stage` then :func:`consume` over every non-empty bucket."""
    staged = stage(route, inputs, n_buckets, mode, tag, parent)
    return consume(fn, [staged], staged.live(), as_refs)


def key_buckets(table: pa.Table, keys: list[str], n_buckets: int):
    """The engine's one key hash: each row's bucket in [0, n_buckets)
    by the values of its ``keys`` columns. A NULL key goes to bucket 0
    (it forms its own group or matches nothing; it only has to land
    somewhere), a float key hashes its ``query.float_order_key`` so
    -0.0 meets 0.0 and every NaN meets every other, and several keys
    combine as ``b = (b * 31 + bucket(k)) % n_buckets`` from b = 0 (no
    key: every row in bucket 0)."""
    from .hashing import hash_column
    from .pipeline.query import float_order_key

    out = np.zeros(table.num_rows, dtype=np.int64)
    for k in keys:
        arr = table[k].combine_chunks()
        if pa.types.is_floating(arr.type):
            arr = float_order_key(arr)
        if arr.null_count:
            b = np.zeros(len(arr), dtype=np.int64)
            valid = arr.is_valid().to_numpy(zero_copy_only=False)
            if valid.any():
                b[valid] = (hash_column(arr.drop_null())
                            % np.uint64(n_buckets)).astype(np.int64)
        else:
            b = (hash_column(arr) % np.uint64(n_buckets)).astype(np.int64)
        out = (out * 31 + b) % n_buckets
    return out


def key_bucket_count() -> int:
    """Buckets of a :func:`by_key` exchange: about two per CPU, so a
    skewed bucket does not leave the others idle."""
    return max(8, 2 * avail_cpus())


def _route_keyed(keys: list[str], n_buckets: int, prep, table: pa.Table):
    """:func:`by_key` route: one block, mapped by ``prep``, to its key
    buckets, reporting ``(block has no rows, block schema)``, None for
    Ray's schema-less empty blocks."""
    if prep is not None and table.num_columns:
        table = prep(table)
    if table.num_rows == 0:
        return (table, np.empty(0, dtype=np.int64),
                (True, table.schema) if table.num_columns else None)
    return table, key_buckets(table, keys, n_buckets), (False, table.schema)


def _side_schema(info: list):
    """A staged side's schema: a block with rows has it (Ray passes an
    empty block around a map UDF, so an empty one may carry an
    upstream schema), else any typed empty block; None when neither
    ran."""
    known = [i for i in info if i is not None]
    return min(known, key=lambda i: i[0])[1] if known else None


def by_key(sides: list, keys: list[str], fn, maps: list | None = None):
    """Co-locate the rows of one or more Datasets by the hash of their
    ``keys`` columns (every side carries them under the same names)
    and return a lazy Dataset of ``fn(*tables)``, one call per bucket
    the FIRST side has rows in: each argument is that side's rows of
    the bucket, a zero-row table of the side's schema where it has
    none. An input whose first side has no rows gets ``fn`` over
    zero-row sides once, so the result keeps its schema; when a
    side's schema is unknown too (it sent only schema-less blocks),
    the result is one schema-less empty block.

    ``maps[i]``, when given, maps each block of side i before it is
    routed, in the split task, empty blocks included: a UDF that
    reshapes a side belongs here, not in a ``map_batches`` upstream,
    because Ray passes an empty block around a map UDF and the side's
    empty schema would miss the reshaping.

    The sides are staged (executed) here, when this is called, each
    block as it streams off its plan (``collect.iter_arrow_refs``),
    through the sink the auto rule picks from the sides' metadata
    sizes; ``fn`` runs when the result is consumed."""
    import ray.data as rd

    from .collect import iter_arrow_refs

    n_buckets = key_bucket_count()
    mode = auto_mode(sum(dataset_bytes(ds) or 0 for ds in sides))
    stages: list[Staged] = []
    try:
        for i, ds in enumerate(sides):
            route = functools.partial(_route_keyed, list(keys), n_buckets,
                                      maps[i] if maps else None)
            stages.append(stage(route, iter_arrow_refs(ds), n_buckets,
                                mode, f"key{i}"))
    except BaseException:
        for s in stages:
            s.cleanup()
        raise
    schemas = [_side_schema(s.info) for s in stages]
    live = stages[0].live()
    if not live or None in schemas:
        for s in stages:
            s.cleanup()
        if None in schemas:
            if live:
                raise ValueError(
                    f"by_key: side {schemas.index(None)} is empty with "
                    "no schema, so its rows cannot be typed")
            return rd.from_blocks([pa.table({})])
        return rd.from_blocks([fn(*[sch.empty_table()
                                    for sch in schemas])])
    parts = [s.parts for s in stages]

    def run_buckets(batch: pa.Table) -> pa.Table:
        pin_arrow_threads()
        outs = []
        for b in batch["bucket"].to_pylist():
            tables = [read(p[b]) for p in parts]
            outs.append(fn(*[t if t is not None else sch.empty_table()
                             for t, sch in zip(tables, schemas)]))
        return pa.concat_tables(outs)

    return rd.from_items([{"bucket": b} for b in live]).map_batches(
        run_buckets, batch_format="pyarrow", batch_size=1)
