"""Stateful streaming encode/decode actors.

``encode_streaming`` is the actor-pool counterpart of the batch
exchange in encode.py — the closest translation of the reference's
sequential write path (one ArcadeWriter instance carrying dictionary
state across consecutive blocks of one file, src/writer.cpp:379-496):

- each ``StreamingEncoderActor`` owns a stream of incoming Arrow
  blocks (routed round-robin by ref, so payloads never pass through
  the driver);
- rows buffer per source inside the actor; when a source's buffer
  reaches the token/row cap the actor encodes it as one partition
  (chunked internally at 65,535 rows with the full adaptive diff/local
  dictionary state machine) and commits it atomically;
- ``flush()`` commits the tails — the explicit end-of-stream hook that
  ``map_batches`` actors lack, which is why this stage drops to a raw
  Ray actor pool (documented Dataset-API gap).

Output partitions use the same segment format + manifest rows as the
batch path — one ``load_manifest``/``decode_dataset`` serves both.

``CachedDecoderActor`` is the read-side stateful stage: a bounded LRU
of decoded partition columns (the reference's never-evicted Caches,
src/cache.cpp:4-92 + the TODO at src/reader.cpp:65, done properly),
serving repeated point lookups without re-decoding hot partitions.
"""

from __future__ import annotations

import collections
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..constants import DEFAULT_PART_TOKEN_CAP
from ..format import decode_partition, encode_partition
from .encode import (
    _manifest_schema_table,
    _pin_arrow_threads,
    commit_partition,
    load_manifest,
)


class _StreamingEncoderState:
    """Plain-python actor body (unit-testable without Ray)."""

    def __init__(self, out_dir: str, actor_id: int, key_col: str = "source",
                 weight_col: str | None = "n_tok",
                 weight_cap: int = DEFAULT_PART_TOKEN_CAP):
        _pin_arrow_threads()
        self.out_dir = out_dir
        self.actor_id = actor_id
        self.key_col = key_col
        self.weight_col = weight_col
        self.weight_cap = weight_cap
        self.pending: dict[str, list[pa.Table]] = collections.defaultdict(list)
        self.pending_weight: dict[str, int] = collections.defaultdict(int)
        self.seq: dict[str, int] = collections.defaultdict(int)
        self.rows: list[dict] = []

    def _weight(self, table: pa.Table) -> int:
        if self.weight_col and self.weight_col in table.column_names:
            return int(pc.sum(table[self.weight_col]).as_py() or 0)
        return table.num_rows

    def _commit(self, source: str) -> None:
        tables = self.pending.pop(source, [])
        self.pending_weight.pop(source, 0)
        if not tables:
            return
        table = pa.concat_tables(tables).combine_chunks()
        key = f"{source}@a{self.actor_id:03d}#{self.seq[source]:04d}"
        self.seq[source] += 1
        blob, row = encode_partition(table, key)
        self.rows.append(commit_partition(self.out_dir, key, blob, row))

    def add(self, table: pa.Table) -> int:
        keys = table[self.key_col]
        if not pa.types.is_string(keys.type):
            keys = keys.cast(pa.string())
        keys = pc.fill_null(keys.combine_chunks(), "")  # null keys -> "" group
        for src in pc.unique(keys).to_pylist():
            sub = table.filter(pc.equal(keys, src))
            self.pending[src].append(sub)
            self.pending_weight[src] += self._weight(sub)
            if self.pending_weight[src] >= self.weight_cap:
                self._commit(src)
        return table.num_rows

    def flush(self) -> list[dict]:
        for src in list(self.pending):
            self._commit(src)
        out, self.rows = self.rows, []
        return out


def encode_streaming(ds, out_dir: str, key_col: str = "source",
                     weight_col: str | None = "n_tok",
                     weight_cap: int = DEFAULT_PART_TOKEN_CAP,
                     n_actors: int | None = None) -> pa.Table:
    """Streaming actor-pool encode of a Dataset; returns the manifest.
    Blocks are routed to actors BY REF (payloads go object store ->
    actor, never via the driver)."""
    import os

    import ray

    from ..collect import iter_arrow_refs
    from ..exchange import avail_cpus
    from .encode import MANIFEST_DIR, PARTS_DIR

    os.makedirs(os.path.join(out_dir, PARTS_DIR), exist_ok=True)
    os.makedirs(os.path.join(out_dir, MANIFEST_DIR), exist_ok=True)
    n = n_actors or max(1, min(8, avail_cpus() - 1))
    Actor = ray.remote(_StreamingEncoderState)
    actors = [
        Actor.remote(out_dir, i, key_col, weight_col, weight_cap)
        for i in range(n)
    ]
    adds = []
    for i, ref in enumerate(iter_arrow_refs(ds)):
        adds.append(actors[i % n].add.remote(ref))
    ray.get(adds)
    rows = [r for a in actors for r in ray.get(a.flush.remote())]
    manifest = _manifest_schema_table(sorted(rows, key=lambda r: r["part_key"]))
    import pyarrow.parquet as pq

    tmp = os.path.join(out_dir, f"manifest.parquet.tmp.{os.getpid()}")
    pq.write_table(manifest, tmp)
    os.replace(tmp, os.path.join(out_dir, "manifest.parquet"))
    return manifest


class CachedDecoderActor:
    """map_batches actor for repeated point lookups over an encoded
    dataset: decoded (partition, columns) tables live in a bounded LRU
    keyed by path — the reference's dict/offset caches (src/cache.cpp)
    with the eviction it never implemented."""

    def __init__(self, out_dir: str, columns: list[str] | None = None,
                 id_col: str = "doc_id", max_cached: int = 16):
        _pin_arrow_threads()
        self.columns = columns
        self.id_col = id_col
        self.max_cached = max_cached
        self.cache: collections.OrderedDict[str, pa.Table] = collections.OrderedDict()
        self.out_dir = out_dir
        self.manifest = load_manifest(out_dir).to_pylist()
        import json

        self.zones = []
        for m in self.manifest:
            stats = json.loads(m["col_stats"]).get(id_col, {})
            self.zones.append((stats.get("min"), stats.get("max")))
        self.hits = 0
        self.misses = 0

    def _partition(self, path: str) -> pa.Table:
        if path in self.cache:
            self.cache.move_to_end(path)
            self.hits += 1
            return self.cache[path]
        self.misses += 1
        want = self.columns
        if want is not None and self.id_col not in want:
            want = [self.id_col] + want
        t = decode_partition(path, columns=want)
        self.cache[path] = t
        while len(self.cache) > self.max_cached:
            self.cache.popitem(last=False)
        return t

    def __call__(self, batch: pa.Table) -> pa.Table:
        """batch: one column ``id`` of lookup keys -> matching rows."""
        wanted = batch["id"].combine_chunks()
        if len(wanted):
            mm = pc.min_max(wanted)
            qlo, qhi = mm["min"].as_py(), mm["max"].as_py()
        else:
            qlo = qhi = None
        outs = []
        for m, (zlo, zhi) in zip(self.manifest, self.zones):
            # manifest zone-map pruning before touching the partition
            if (qlo is not None and zlo is not None and zhi is not None
                    and (qhi < zlo or qlo > zhi)):
                continue
            t = self._partition(m["path"])
            mask = pc.is_in(t[self.id_col], value_set=wanted.cast(t[self.id_col].type))
            if pc.any(mask).as_py():
                outs.append(t.filter(mask))
        if not outs:
            if not self.manifest:  # zero-partition dir: sidecar types
                from .query import _sidecar_empty

                want = self.columns
                if want is None:
                    from .encode import read_schema_sidecar

                    sch = read_schema_sidecar(self.out_dir)
                    want = list(sch.names) if sch is not None \
                        else [self.id_col]
                return _sidecar_empty(self.out_dir, want)
            t = self._partition(self.manifest[0]["path"])
            return t.slice(0, 0)
        return pa.concat_tables(outs)


def lookup_service(out_dir: str, id_batches, columns: list[str] | None = None,
                   id_col: str = "doc_id", concurrency: int = 2):
    """Serve many point-lookup batches through the cached-decoder actor
    pool; ``id_batches`` is a Dataset with an ``id`` column."""
    return id_batches.map_batches(
        CachedDecoderActor, batch_format="pyarrow",
        fn_constructor_args=(out_dir, columns, id_col),
        concurrency=concurrency, batch_size=256,
    )
