"""The engine's one fragment exchange: route rows to buckets, stage the
fragments, consume one bucket per task.

The encode rebalance, the co-partitioned join and the exact-verify
barriers in collect.py all run through here. A caller supplies a route
function (one split input -> its table plus a bucket id per row) and a
consume function (one bucket's table -> a result); everything between
them lives in this module.

Two fragment sinks:

- ``"objects"``: each split task ``ray.put``s one compact fragment per
  non-empty bucket from INSIDE the task (measured ~16x faster than the
  task-return path for large payloads) and returns only the tiny ref
  list. The whole routed input is live in the object store at the
  barrier; Ray spills past store capacity.
- ``"disk"``: split tasks write the fragments as Arrow IPC files under
  ``shuffle_dir/b{bucket}/s{split}.arrow`` (the Spark shuffle-file
  pattern) and in-flight splits are bounded, so peak object-store use
  is O(in-flight splits) whatever the input size. On a multi-node
  cluster the shuffle dir must live on shared storage.

One auto rule (:func:`auto_mode`): disk above ``DISK_EXCHANGE_BYTES``
(env ``ARCADE_DISK_EXCHANGE_BYTES``, default 8 GiB) of an input size
known WITHOUT executing the input — manifest ``raw_bytes``, parquet
file sizes, or a Dataset's metadata estimate (:func:`dataset_bytes`);
objects when the size is unknown.
"""

from __future__ import annotations

import atexit
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
    """Fan rows out to one object per non-empty bucket, ``ray.put``
    from inside the calling task. ``take(idx)`` builds the fragment for
    the row indices ``idx`` (for a table, a ``take`` — each fragment
    then owns compact buffers; a slice view would serialize its whole
    parent block). Returns one ref per bucket, None for empty ones."""
    import ray

    return [None if idx is None else ray.put(take(idx))
            for idx in _bucket_rows(buckets, n_buckets)]


def _bucket_rows(buckets, n_buckets: int) -> list:
    """Row indices of each bucket (None for empty buckets), in input
    row order within a bucket."""
    buckets = np.ascontiguousarray(buckets)
    order = np.argsort(buckets, kind="stable")
    bounds = np.searchsorted(buckets[order], np.arange(n_buckets + 1))
    return [order[lo:hi] if hi > lo else None
            for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())]


def _take(table: pa.Table, idx) -> pa.Table:
    return table.take(pa.array(idx, type=pa.int64()))


def _write_buckets(table: pa.Table, buckets, n_buckets: int,
                   shuffle_dir: str, split_id: int) -> list:
    """Disk sink: one Arrow IPC file per non-empty bucket (atomic
    rename). Returns each bucket's dir, None for empty buckets."""
    out = []
    for b, idx in enumerate(_bucket_rows(buckets, n_buckets)):
        if idx is None:
            out.append(None)
            continue
        frag = _take(table, idx)
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
    fragment refs in split order (objects) or its shuffle-file dir
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
        import ray

        tables = ray.get(list(part))
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
                            lambda idx: _take(table, idx))
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
