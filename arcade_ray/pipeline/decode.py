"""Decode pipeline: manifest -> streaming partition-group decode tasks.

The Ray Data analogue of the reference's coroutine scan generator
(src/reader.cpp:146-195): a Dataset over manifest rows, each task
decodes one contiguous group of partition files back to Arrow
(optionally a projection) and the streaming executor
pipelines/backpressures the blocks downstream.

Every per-partition map in the engine runs through one of two helpers
that share the grouping rule of :func:`partition_tasks`:
:func:`map_partitions` streams a Dataset of one table per group (scans
and filters), and :func:`gather_partitions` returns one Python value per
partition to the driver (per-partition aggregates, DML rewrites,
verification fingerprints). A read that the rule gives one task (one
manifest row survives pruning) runs in the driver process instead
(:func:`in_process`): the task would do the same work, so no
parallelism is lost, and a point lookup or a pruned filter skips Ray
task dispatch (the reference serves them in process,
src/reader.cpp:69-143). Its result is a ``from_blocks`` Dataset, which
``collect.collect_arrow`` and ``collect.iter_arrow_refs`` read without
starting Ray Data's streaming executor (``collect._ref_bundles``).

Schema evolution: generations appended over time may carry DIFFERENT
column sets (a new metadata column added mid-corpus). The scan merges
read-time: the union schema is derived from the MANIFEST alone (the
col_stats keys record each partition's columns — no per-partition
header reads on the driver), missing columns decode as typed nulls,
and every emitted block has one uniform schema/column order.
"""

from __future__ import annotations

import pyarrow as pa

from ..format import decode_partition, read_header
from .encode import read_manifest, read_schema_sidecar


def _partition_colsets(m) -> dict[str, list[str]]:
    """path -> column names recorded at encode time (col_stats keys;
    codec histograms etc. ride along but keys ARE the column set) of
    the parsed manifest ``m`` (:func:`encode.read_manifest`)."""
    return {p: None if st is None else list(st)
            for p, st in zip(m.table["path"].to_pylist(), m.stats)}


def partition_tasks(rows: list[dict]) -> int:
    """Task count for a per-partition read over manifest ``rows``: two
    terms of Ray Data's own parallelism rule, a floor of 2x the
    cluster's CPUs and enough tasks that a task's share of the rows'
    ``raw_bytes`` stays within ``DataContext.target_max_block_size``,
    capped at one task per partition. Ray's 200-block floor is dropped:
    a task costs about as much CPU to dispatch (~25 ms) as an average
    partition takes to decode."""
    from ray.data import DataContext

    from ..exchange import avail_cpus

    if len(rows) <= 1:
        return 1
    raw = sum(int(r.get("raw_bytes") or 0) for r in rows)
    cap = DataContext.get_current().target_max_block_size
    by_size = -(-raw // cap) if cap else 0  # None: no block-size bound
    return max(1, min(len(rows), max(2 * avail_cpus(), by_size)))


def in_process(rows: list[dict]) -> bool:
    """Whether a read over the manifest ``rows`` runs in the driver
    process: when :func:`partition_tasks` gives it a single task."""
    return bool(rows) and partition_tasks(rows) == 1


def map_partitions(rows: list[dict], fn):
    """-> ray.data.Dataset of ``fn`` over contiguous groups of the
    manifest ``rows``, in manifest order, one task per group
    (:func:`partition_tasks`). ``fn`` gets a table with a ``path``
    column, one row per partition, and returns one table for the
    group. A single group (:func:`in_process`) runs ``fn`` now, on the
    driver, and the Dataset holds its one table."""
    import ray.data as rd

    paths = [r["path"] for r in rows]
    if in_process(rows):
        return rd.from_blocks([fn(pa.table({"path": paths}))])
    return rd.from_items(
        [{"path": p} for p in paths],
        override_num_blocks=partition_tasks(rows),
    ).map_batches(fn, batch_format="pyarrow", batch_size=None)


def _gather_group(fn, rows: list[dict]) -> list:
    from ..exchange import pin_arrow_threads

    pin_arrow_threads()
    return [fn(r) for r in rows]


def gather_partitions(rows: list[dict], fn) -> list:
    """-> ``[fn(row) for row in rows]`` in the order of ``rows``, run as
    one Ray task per contiguous group of the manifest ``rows`` (the
    groups of :func:`map_partitions`), or on the driver when there is
    one group (:func:`in_process`). ``fn`` ships once through the
    object store; rows reach ``fn`` without ``col_stats`` (the
    manifest's zone maps, Bloom filters and sketches, kilobytes per
    partition), which it can read from the partition header. A retried
    task re-runs its whole group, so ``fn`` must be safe to run twice
    on a row."""
    import ray

    slim = [{k: v for k, v in r.items() if k != "col_stats"} for r in rows]
    if not rows or in_process(rows):
        return [fn(r) for r in slim]
    n = partition_tasks(rows)
    size, extra = divmod(len(rows), n)
    task = ray.remote(_gather_group)
    fn_ref = ray.put(fn)
    refs, i = [], 0
    for g in range(n):
        j = i + size + (g < extra)
        refs.append(task.remote(fn_ref, slim[i:j]))
        i = j
    return [out for part in ray.get(refs) for out in part]


def decode_dataset(out_dir: str, columns: list[str] | None = None,
                   generation: str | None = None):
    """-> ray.data.Dataset of decoded rows (streaming, one task per
    group of partition files, :func:`map_partitions`; a one-partition
    scan decodes on the driver); each partition's rows keep their
    order. ``generation`` restricts the scan to one append
    generation's partitions ("" = the base generation, i.e. partitions
    written without a generation namespace). Heterogeneous partition
    schemas (columns added in later generations) merge read-time:
    missing columns come back as typed nulls."""
    import ray.data as rd

    from .encode import generation_of_row

    m = read_manifest(out_dir)
    rows = m.row_dicts()
    if generation is not None:
        # explicit manifest field ("" = base); legacy rows fall back to
        # key parsing inside generation_of_row
        rows = [r for r in rows if generation_of_row(r) == generation]
    if not rows:
        if generation is None:
            # legitimately empty table (e.g. an empty input shard):
            # answer with a TYPED empty dataset from the encode-time
            # schema sidecar. A requested generation that never
            # committed stays an error (likely a typo), as does a
            # pre-sidecar empty dir.
            sch = read_schema_sidecar(out_dir)
            if sch is not None:
                if columns:
                    missing = [c for c in columns if c not in sch.names]
                    if missing:
                        raise KeyError(
                            f"columns {missing} not in encoded schema "
                            f"{sch.names}")
                    sch = pa.schema([sch.field(c) for c in columns])
                return rd.from_blocks([sch.empty_table()])
        raise FileNotFoundError(
            f"no committed partitions under {out_dir}"
            + (f" for generation {generation!r}" if generation is not None
               else ""))

    colsets = _partition_colsets(m)
    keep_paths = [r["path"] for r in rows]
    part_rows = {r["path"]: int(r.get("rows") or 0) for r in rows}
    sets = {p: colsets.get(p) for p in keep_paths}
    uniform = len({tuple(s) for s in sets.values() if s is not None}) <= 1

    want = columns
    pad_types: dict[str, pa.DataType] = {}
    if not uniform or any(s is None for s in sets.values()):
        # union schema in first-seen manifest order
        union: list[str] = []
        for p in keep_paths:
            s = sets[p]
            if s is None:  # legacy manifest row: read its header once
                h, _ = read_header(p)
                s = sets[p] = list(h["columns"].keys())
            for c in s:
                if c not in union:
                    union.append(c)
        want = columns if columns is not None else union
        missing = [c for c in want if c not in union]
        if missing:
            raise KeyError(
                f"column(s) {missing} not in encoded dataset "
                f"(union columns: {union})")
        # resolve a pad type for every wanted column that is absent
        # somewhere: one header read per column, driver-side, bounded
        # by #columns not #partitions
        from .query import _col_type

        need_type = {c for c in want
                     if any(c not in sets[p] for p in keep_paths)}
        for p in keep_paths:
            if not need_type:
                break
            here = need_type & set(sets[p])
            if here:
                h, _ = read_header(p)
                for c in here:
                    pad_types[c] = _col_type(h["columns"][c])
                need_type -= here

    want_f, sets_f, rows_f = want, sets, part_rows

    def decode_batch(batch: pa.Table) -> pa.Table:
        tables = []
        for pv in batch["path"]:
            p = pv.as_py()
            if not pad_types:
                tables.append(decode_partition(p, columns=want_f))
                continue
            present = [c for c in want_f if c in sets_f[p]]
            if present:
                t = decode_partition(p, columns=present)
            else:  # no wanted column exists here: an all-null block
                n = rows_f[p]
                t = pa.table({want_f[0]: pa.nulls(n, pad_types[want_f[0]])})
            for c in want_f:
                if c not in t.column_names:
                    t = t.append_column(c, pa.nulls(t.num_rows,
                                                    pad_types[c]))
            tables.append(t.select(want_f))
        return pa.concat_tables(tables)

    return map_partitions(rows, decode_batch)
