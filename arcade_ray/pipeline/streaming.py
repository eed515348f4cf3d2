"""Stateful read-side actors.

``CachedDecoderActor`` is a read-side stateful stage: a bounded LRU
of decoded partition columns (the reference's never-evicted Caches,
src/cache.cpp:4-92 + the TODO at src/reader.cpp:65, done properly),
serving repeated point lookups without re-decoding hot partitions.
"""

from __future__ import annotations

import collections

import pyarrow as pa
import pyarrow.compute as pc

from ..format import decode_partition
from .encode import _pin_arrow_threads, load_manifest


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
