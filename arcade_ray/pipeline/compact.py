"""Partition compaction — merge undersized partitions per source.

Long 10^12-sequence runs and appended generations accumulate
small tail partitions; compaction re-encodes groups of them into
full-size partitions, improving dictionary sharing and read fan-out.

Crash safety via lineage: the replacement partition's manifest row
carries a ``replaces`` list of the part_keys it supersedes; the commit
order is (1) new segment+row committed, (2) old manifest rows deleted,
(3) old segment files deleted. ``load_manifest`` filters out any row
whose key appears in a surviving ``replaces`` list, so a crash at any
point leaves a consistent view (at worst orphan segment files, cleaned
on the next compaction)."""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pyarrow.compute as pc

from ..constants import DEFAULT_PART_TOKEN_CAP
from ..exchange import pin_arrow_threads
from ..format import decode_partition, encode_partition
from .decode import gather_partitions
from .encode import (
    _manifest_schema_table,
    _write_consolidated,
    commit_partition,
    generation_of_row,
    load_manifest,
    read_manifest,
)


def _source_of(part_key: str) -> str:
    for sep in ("#", "@"):
        if sep in part_key:
            return part_key.split(sep)[0]
    return part_key


def _compact_group(rows: list[dict], out_dir: str, new_key: str,
                   sort_by: str | None) -> dict:
    pin_arrow_threads()
    tables = [decode_partition(r["path"]) for r in rows]
    table = pa.concat_tables(tables, promote_options="default") \
        .combine_chunks()
    if sort_by and sort_by in table.column_names:
        table = table.take(pc.sort_indices(table[sort_by]))
    blob, row = encode_partition(table, new_key)
    row["replaces"] = [r["part_key"] for r in rows]
    # a single-generation group carries its generation forward so
    # generation-scoped scans still see the compacted partition; a
    # MIXED group (collapse_generations) folds into the base ("")
    gens = {generation_of_row(r) for r in rows}
    row["generation"] = gens.pop() if len(gens) == 1 else ""
    return commit_partition(out_dir, new_key, blob, row)


def _true_source(r: dict) -> str:
    """Partition's source value with any generation suffix stripped —
    uses the EXPLICIT generation field (source values may themselves
    contain '@', so suffix-stripping by the recorded generation is the
    only reliable parse)."""
    s = _source_of(r["part_key"])
    gen = generation_of_row(r)
    if gen and s.endswith("@" + gen):
        s = s[: -len(gen) - 1]
    return s


def compact(out_dir: str, weight_cap: int | None = None,
            small_fraction: float = 0.5, sort_by: str | None = "doc_id",
            collapse_generations: bool = False) -> pa.Table:
    """Compact partitions whose raw bytes < small_fraction x the
    largest sibling (same source), binning greedily up to the cap.
    Returns the new consolidated manifest.

    Range-partitioned tables (part keys ``range#NNNN``) compact like a
    single source: bins form by SIZE, so a merged partition may span
    non-adjacent value ranges. Zone maps are recomputed from the
    merged rows, so pruning stays CORRECT — it just widens to the
    union range (clustering degrades, never the answers).

    ``collapse_generations``: group by the TRUE source across append
    generations (each generation otherwise compacts only within
    itself — the tiny per-INSERT partitions can never merge). A mixed
    group folds into the base generation (""), so generation-scoped
    scans of collapsed appends go empty — the VACUUM trade, like
    OPTIMIZE in lakehouse formats; schemas widen via Arrow's promote
    (an append that omitted columns back-fills NULL)."""
    rows = read_manifest(out_dir).row_dicts()
    by_source: dict[str, list[dict]] = {}
    for r in rows:
        key = _true_source(r) if collapse_generations \
            else _source_of(r["part_key"])
        by_source.setdefault(key, []).append(r)

    jobs = []
    seq = 0
    for source, parts in sorted(by_source.items()):
        if len(parts) < 2:
            continue
        biggest = max(p["raw_bytes"] for p in parts)
        cap = int(weight_cap or max(biggest, 1))
        # smallness is relative to the explicit target size when given,
        # else to the largest sibling (tail-merge mode)
        threshold = small_fraction * (weight_cap if weight_cap else biggest)
        bins: list[list[dict]] = []
        if collapse_generations:
            # VACUUM folds EVERY generation partition (regardless of
            # its own size — a >=threshold append must still collapse,
            # or an UPDATE on a column it omitted can never succeed)
            # plus the small base tails into ONE bin per source,
            # seeded with the smallest base partition so schemas
            # back-fill NULL via promote. The bin is bounded by the
            # source's total bytes — VACUUM may rewrite up to the full
            # source once, the lakehouse-OPTIMIZE trade.
            gen_parts = [p for p in parts if generation_of_row(p)]
            small_base = [p for p in parts
                          if not generation_of_row(p)
                          and p["raw_bytes"] < threshold]
            base_rest = [p for p in parts
                         if not generation_of_row(p)
                         and p["raw_bytes"] >= threshold]
            group = gen_parts + small_base
            if group and base_rest:
                group = group + [min(base_rest,
                                     key=lambda p: p["raw_bytes"])]
            if len(group) >= 2:
                bins = [group]
        else:
            small = sorted(
                (p for p in parts if p["raw_bytes"] < threshold),
                key=lambda p: p["raw_bytes"])
            group = []
            size = 0
            for p in small:
                if group and size + p["raw_bytes"] > cap:
                    if len(group) >= 2:
                        bins.append(list(group))
                    group, size = [], 0
                group.append(p)
                size += p["raw_bytes"]
            if len(group) >= 2:
                bins.append(group)
        jobs.extend((source, b) for b in bins if len(b) >= 2)

    if not jobs:
        # still heal any stale tombstones a crashed earlier compaction
        # left behind — a no-op VACUUM must repair, not skip
        _clear_stale_tombstones(out_dir)
        return load_manifest(out_dir)

    import hashlib

    import ray

    task = ray.remote(_compact_group)
    refs = []
    for i, (source, group) in enumerate(jobs):
        # key derived from the replaced set: unique across compaction
        # generations (an index would collide with earlier '#cNNNN'
        # parts) and stable across retries of the same group
        digest = hashlib.md5(
            ",".join(sorted(p["part_key"] for p in group)).encode()
        ).hexdigest()[:8]
        # a single-generation group keeps its generation IN THE KEY:
        # under collapse_generations the group key is the true source,
        # and a bare '{source}#c..' key would later group with the
        # base under a PLAIN compact and silently fold the generation
        # (key-based grouping must stay consistent with the explicit
        # generation field)
        gens = {generation_of_row(p) for p in group}
        gen = gens.pop() if len(gens) == 1 else ""
        prefix = f"{source}@{gen}" if collapse_generations and gen \
            else source
        new_key = f"{prefix}#c{digest}"
        refs.append(task.remote(group, out_dir, new_key, sort_by))
    new_rows = ray.get(refs)

    # retire replaced partitions: manifest rows first, then files
    replaced = {k for r in new_rows for k in r.get("replaces", [])}
    from .encode import MANIFEST_DIR, _manifest_row_path

    for r in rows:
        if r["part_key"] in replaced:
            try:
                os.remove(_manifest_row_path(out_dir, r["part_key"]))
            except FileNotFoundError:
                pass
    for r in rows:
        if r["part_key"] in replaced:
            try:
                os.remove(r["path"])
            except FileNotFoundError:
                pass

    _clear_stale_tombstones(out_dir)
    manifest = load_manifest(out_dir)
    _write_consolidated(out_dir, manifest)
    return manifest


def _clear_stale_tombstones(out_dir: str) -> None:
    """Drop ``replaces`` entries whose target manifest row no longer
    exists. The tombstone is crash-safety for the window between
    new-row commit and old-row removal; once the old row is gone it is
    vestigial — and actively DANGEROUS: a later generation append that
    reuses a freed generation name can mint the SAME part_key, which
    the stale tombstone would silently filter out of every scan
    (caught by the DML-lifecycle fuzz: VACUUM then INSERT lost the
    inserted rows)."""
    from .encode import MANIFEST_DIR, _manifest_row_path

    mdir = os.path.join(out_dir, MANIFEST_DIR)
    if not os.path.isdir(mdir):
        return
    raw = []
    for fn in os.listdir(mdir):
        if fn.endswith(".json"):
            with open(os.path.join(mdir, fn)) as f:
                raw.append(json.load(f))
    live = {r["part_key"] for r in raw}
    for r in raw:
        reps = r.get("replaces") or []
        keep = [k for k in reps if k in live]
        if keep != reps:
            r["replaces"] = keep
            p = _manifest_row_path(out_dir, r["part_key"])
            tmp = f"{p}.tmp.{os.getpid()}"
            with open(tmp, "w") as f:
                json.dump(r, f)
            os.replace(tmp, p)


def delete_rows(out_dir: str, preds) -> dict:
    """Predicate DELETE with partition rewrite + lineage — the
    right-to-be-forgotten / decontamination path a training corpus
    needs (drop every row matching a compound predicate tree, same
    grammar as ``compound_filter``).

    Scale shape: manifest zone maps prune partitions that provably
    contain NO match (untouched, no task spawns). Candidate
    partitions run in :func:`gather_partitions` tasks: the decode-free
    per-chunk match indices decide; a no-match partition is left
    byte-identical, an all-match partition is retired outright, and a
    partial-match partition decodes once, filters, and re-encodes
    under a ``#dNNN`` key whose manifest row ``replaces`` the
    original — the same crash-safe
    commit order as compaction (new row committed before old row/file
    removal), so a crash mid-delete never loses surviving rows; at
    worst the delete re-runs on the original partition.

    Returns {"partitions": n, "pruned": n, "rewritten": n,
    "dropped": n, "rows_deleted": n}."""
    import hashlib

    import numpy as np

    from ..format import read_header
    from .query import _eval_match_idx, _normalize_pred, _zone_pruner

    tree = _normalize_pred(preds)
    m = read_manifest(out_dir)
    rows = m.row_dicts()
    if not rows:  # empty table: nothing to delete
        return {"partitions": 0, "pruned": 0, "rewritten": 0,
                "dropped": 0, "rows_deleted": 0}
    header0, _ = read_header(rows[0]["path"])

    candidates = []
    pruned = 0
    excluded = _zone_pruner(header0, tree)
    for r, stats in zip(rows, m.stats):
        if excluded(stats):
            pruned += 1
            continue
        candidates.append(r)

    def _delete_one(row: dict):
        header, base = read_header(row["path"])
        match_idx = _eval_match_idx(row["path"], header, base, tree)
        chunk_rows = [ch["n"] for ch in
                      next(iter(header["columns"].values()))["chunks"]]
        n_match = sum(0 if m is None else len(m) for m in match_idx)
        total = sum(chunk_rows)
        if n_match == 0:
            return ("untouched", row["part_key"], 0, None)
        if n_match == total:
            return ("dropped", row["part_key"], total, None)
        table = decode_partition(row["path"])
        keep = np.ones(total, dtype=bool)
        off = 0
        for nrows, m in zip(chunk_rows, match_idx):
            if m is not None and len(m):
                keep[off + np.asarray(m, dtype=np.int64)] = False
            off += nrows
        survivors = table.filter(pa.array(keep))
        digest = hashlib.md5(row["part_key"].encode()).hexdigest()[:8]
        new_key = f"{_source_of(row['part_key'])}#d{digest}"
        blob, new_row = encode_partition(survivors, new_key)
        new_row["replaces"] = [row["part_key"]]
        new_row["generation"] = generation_of_row(row)
        commit_partition(out_dir, new_key, blob, new_row)
        return ("rewritten", row["part_key"], n_match, new_key)

    results = gather_partitions(candidates, _delete_one)

    from .encode import _manifest_row_path

    by_key = {r["part_key"]: r for r in rows}
    rows_deleted = 0
    rewritten = dropped = 0
    for status, key, n_del, _new in results:
        rows_deleted += n_del
        if status == "untouched":
            continue
        if status == "rewritten":
            rewritten += 1
        else:
            dropped += 1
        try:
            os.remove(_manifest_row_path(out_dir, key))
        except FileNotFoundError:
            pass
        try:
            os.remove(by_key[key]["path"])
        except FileNotFoundError:
            pass

    manifest = load_manifest(out_dir)
    _write_consolidated(out_dir, manifest)
    return {"partitions": len(rows), "pruned": pruned,
            "rewritten": rewritten, "dropped": dropped,
            "rows_deleted": rows_deleted}


def update_rows(out_dir: str, preds, assignments: dict) -> dict:
    """Predicate UPDATE with partition rewrite + lineage: SET each
    ``assignments`` column to a constant (or to ``fn(table) ->
    Array`` for computed updates) on every row matching a compound
    predicate tree (same grammar as ``compound_filter`` /
    ``delete_rows``) — the relabel/redaction path of a managed
    corpus (e.g. SET lang = 'und' WHERE quality < t).

    Scale shape mirrors delete_rows: manifest zone maps prune
    partitions that provably contain no match; candidates run in
    :func:`gather_partitions` tasks; the decode-free match indices
    decide; a no-match partition stays byte-identical; a matching
    partition decodes once, applies the assignments through one
    vectorized if_else per column, and re-encodes under a ``#uNNN``
    key whose manifest row ``replaces`` the original (crash-safe
    commit order: new row lands before the old row/file is removed).

    Returns {"partitions": n, "pruned": n, "rewritten": n,
    "rows_updated": n}."""
    import hashlib

    import numpy as np

    from ..format import read_header
    from .query import _eval_match_idx, _normalize_pred, _zone_pruner

    tree = _normalize_pred(preds)
    m = read_manifest(out_dir)
    rows = m.row_dicts()
    if not rows:
        return {"partitions": 0, "pruned": 0, "rewritten": 0,
                "rows_updated": 0}
    header0, _ = read_header(rows[0]["path"])
    for col in assignments:
        if col not in header0["columns"]:
            raise KeyError(f"unknown column {col!r} in SET")

    candidates = []
    pruned = 0
    excluded = _zone_pruner(header0, tree)
    for r, stats in zip(rows, m.stats):
        if excluded(stats):
            pruned += 1
            continue
        # validate every CANDIDATE before any task commits (the
        # merge_rows rule): a generation appended without a SET
        # column must refuse up front, not KeyError mid-update after
        # siblings rewrote. Zone-pruned partitions are exempt — the
        # prune proves no row of theirs can be touched.
        missing = [c for c in assignments if c not in stats]
        if missing:
            raise KeyError(
                f"partition {r['part_key']!r} (generation "
                f"{generation_of_row(r)!r}) lacks column(s) {missing} "
                "— UPDATE refuses rather than half-apply")
        candidates.append(r)

    def _update_one(row: dict):
        header, base = read_header(row["path"])
        match_idx = _eval_match_idx(row["path"], header, base, tree)
        chunk_rows = [ch["n"] for ch in
                      next(iter(header["columns"].values()))["chunks"]]
        n_match = sum(0 if m is None else len(m) for m in match_idx)
        if n_match == 0:
            return ("untouched", row["part_key"], 0, None)
        total = sum(chunk_rows)
        table = decode_partition(row["path"])
        mask = np.zeros(total, dtype=bool)
        off = 0
        for nrows, m in zip(chunk_rows, match_idx):
            if m is not None and len(m):
                mask[off + np.asarray(m, dtype=np.int64)] = True
            off += nrows
        marr = pa.array(mask)
        for col, val in assignments.items():
            old = table[col].combine_chunks()
            new = val(table) if callable(val) \
                else pa.scalar(val, type=old.type)
            if not isinstance(new, (pa.Scalar,)):
                new = new.combine_chunks() \
                    if isinstance(new, pa.ChunkedArray) else new
                new = pc.cast(new, old.type)
            upd = pc.if_else(marr, new, old)
            table = table.set_column(
                table.column_names.index(col), col, upd)
        digest = hashlib.md5(
            (row["part_key"] + repr(sorted(assignments))).encode()
        ).hexdigest()[:8]
        new_key = f"{_source_of(row['part_key'])}#u{digest}"
        blob, new_row = encode_partition(table, new_key)
        new_row["replaces"] = [row["part_key"]]
        new_row["generation"] = generation_of_row(row)
        commit_partition(out_dir, new_key, blob, new_row)
        return ("rewritten", row["part_key"], n_match, new_key)

    results = gather_partitions(candidates, _update_one)

    from .encode import _manifest_row_path

    by_key = {r["part_key"]: r for r in rows}
    rows_updated = rewritten = 0
    for status, key, n_upd, _new in results:
        rows_updated += n_upd
        if status == "untouched":
            continue
        rewritten += 1
        try:
            os.remove(_manifest_row_path(out_dir, key))
        except FileNotFoundError:
            pass
        try:
            os.remove(by_key[key]["path"])
        except FileNotFoundError:
            pass

    manifest = load_manifest(out_dir)
    _write_consolidated(out_dir, manifest)
    return {"partitions": len(rows), "pruned": pruned,
            "rewritten": rewritten, "rows_updated": rows_updated}


def merge_rows(out_dir: str, key_col: str, src: pa.Table,
               set_cols: list[str], insert_unmatched: bool = True) -> dict:
    """Upsert (SQL MERGE INTO core): for each ``src`` row whose
    ``key_col`` matches a target row, SET every ``set_cols`` column to
    the src value (partition rewrite under ``replaces`` lineage, the
    update_rows shape); src rows matching nothing append as a fresh
    encode GENERATION (the INSERT shape) when ``insert_unmatched``.

    ``src`` is driver-resident by contract — an updates batch, bounded
    like the broadcast side of a join, shipped to the rewrite tasks
    once with the per-partition function (:func:`gather_partitions`).
    Duplicate keys in src raise (SQL MERGE's ambiguous-match rule).
    Matching is decode-free where possible: an ``("in", key_col,
    src_keys)`` predicate prunes partitions through zone maps + Bloom
    filters and selects match indices inside the survivors; only
    partitions with actual matches decode and rewrite.

    Returns {"partitions": n, "pruned": n, "rewritten": n,
    "rows_updated": n, "rows_inserted": n, "generation": str|None}."""
    import hashlib

    import numpy as np

    from ..format import read_header
    from .query import _eval_match_idx, _normalize_pred, _zone_pruner

    keys = src[key_col].combine_chunks() if src.num_rows else None
    if src.num_rows == 0:
        return {"partitions": 0, "pruned": 0, "rewritten": 0,
                "rows_updated": 0, "rows_inserted": 0, "generation": None}
    if pc.any(pc.is_null(keys)).as_py():
        raise ValueError("MERGE source has NULL keys")
    if pc.count_distinct(keys).as_py() != len(keys):
        raise ValueError(
            "MERGE source has duplicate keys — each target row may "
            "match at most one source row")
    m = read_manifest(out_dir)
    rows = m.row_dicts()
    header0 = None
    if rows:
        header0, _ = read_header(rows[0]["path"])
        for col in set_cols:
            if col not in header0["columns"]:
                raise KeyError(f"unknown column {col!r} in SET")
            if col == key_col:
                raise ValueError("MERGE cannot SET the match key")
    tree = _normalize_pred(("in", key_col, keys.to_pylist()))

    # clustered-dir pre-validation: an insert into a range-/Z-order-
    # clustered dir needs the clustering input columns in src to route
    # rows; fail BEFORE any partition rewrites commit (half-applied
    # MERGE otherwise)
    if insert_unmatched:
        from ..zorder import ZORDER_COL
        from .encode import cluster_input_cols, read_encode_meta

        meta0 = read_encode_meta(out_dir)
        if meta0 is not None:
            need = [c for c in cluster_input_cols(meta0)
                    if c != ZORDER_COL]
            missing_cl = [c for c in need
                          if c not in src.column_names]
            if missing_cl:
                raise ValueError(
                    f"MERGE insert into the clustered dir {out_dir} "
                    f"needs clustering column(s) {missing_cl} in the "
                    "source — refuse before any rewrite commits")

    candidates, pruned = [], 0
    excluded = _zone_pruner(header0, tree) if rows else None
    for r, stats in zip(rows, m.stats):
        # a partition lacking the MATCH KEY can't be zone-checked:
        # refuse before anything commits
        if key_col not in stats:
            raise KeyError(
                f"partition {r['part_key']!r} (generation "
                f"{generation_of_row(r)!r}) lacks the match key "
                f"{key_col!r} — MERGE refuses rather than guess")
        if excluded(stats):
            pruned += 1
            continue
        # validate every CANDIDATE before any task commits: a
        # generation appended without a SET column would otherwise
        # fail mid-merge after sibling partitions already rewrote
        # (half-applied MERGE). Zone-pruned partitions are exempt.
        missing = [c for c in set_cols if c not in stats]
        if missing:
            raise KeyError(
                f"partition {r['part_key']!r} (generation "
                f"{generation_of_row(r)!r}) lacks column(s) {missing} "
                "— MERGE refuses rather than half-apply")
        candidates.append(r)

    def _merge_one(row: dict):
        header, base = read_header(row["path"])
        match_idx = _eval_match_idx(row["path"], header, base, tree)
        n_match = sum(0 if m is None else len(m) for m in match_idx)
        if n_match == 0:
            return ("untouched", row["part_key"], 0, None)
        chunk_rows = [ch["n"] for ch in
                      next(iter(header["columns"].values()))["chunks"]]
        total = sum(chunk_rows)
        if not set_cols:
            # insert-only MERGE: no rewrite — decode just the key
            # column to report which src keys found a match
            kt = decode_partition(row["path"], columns=[key_col])
            mask = np.zeros(total, dtype=bool)
            off = 0
            for nrows, m in zip(chunk_rows, match_idx):
                if m is not None and len(m):
                    mask[off + np.asarray(m, dtype=np.int64)] = True
                off += nrows
            mk = kt[key_col].combine_chunks().filter(pa.array(mask))
            return ("untouched", row["part_key"], 0, mk)
        table = decode_partition(row["path"])
        # position of each target row's key in src (null = no match)
        pos = pc.index_in(table[key_col].combine_chunks(),
                          value_set=src[key_col].combine_chunks())
        pos_np = pos.to_numpy(zero_copy_only=False)
        hit = pos.is_valid().to_numpy(zero_copy_only=False)
        marr = pa.array(hit)
        take_idx = np.where(hit, pos_np, 0).astype(np.int64)
        matched_keys = table[key_col].combine_chunks().filter(marr)
        for col in set_cols:
            old = table[col].combine_chunks()
            new = pc.cast(src[col].combine_chunks()
                          .take(pa.array(take_idx)), old.type)
            upd = pc.if_else(marr, new, old)
            table = table.set_column(
                table.column_names.index(col), col, upd)
        digest = hashlib.md5(
            (row["part_key"] + repr(sorted(set_cols))).encode()
        ).hexdigest()[:8]
        new_key = f"{_source_of(row['part_key'])}#m{digest}"
        blob, new_row = encode_partition(table, new_key)
        new_row["replaces"] = [row["part_key"]]
        new_row["generation"] = generation_of_row(row)
        commit_partition(out_dir, new_key, blob, new_row)
        assert total == table.num_rows
        return ("rewritten", row["part_key"], int(hit.sum()),
                matched_keys)

    results = gather_partitions(candidates, _merge_one)

    from .encode import _manifest_row_path

    by_key = {r["part_key"]: r for r in rows}
    rows_updated = rewritten = 0
    matched: list = []
    for status, key, n_upd, mk in results:
        rows_updated += n_upd
        if mk is not None:
            matched.append(mk)
        if status == "untouched":
            continue
        rewritten += 1
        try:
            os.remove(_manifest_row_path(out_dir, key))
        except FileNotFoundError:
            pass
        try:
            os.remove(by_key[key]["path"])
        except FileNotFoundError:
            pass

    rows_inserted = 0
    gen = None
    if insert_unmatched:
        seen = pa.concat_arrays([m.combine_chunks() if
                                 isinstance(m, pa.ChunkedArray) else m
                                 for m in matched]) if matched \
            else pa.array([], type=keys.type)
        unmatched = src.filter(pc.invert(pc.fill_null(
            pc.is_in(src[key_col], value_set=seen), False)))
        if unmatched.num_rows:
            import ray.data as rd

            from ..zorder import ZORDER_COL
            from .encode import (clustering_kwargs, encode_dataset,
                                 read_encode_meta)

            meta = read_encode_meta(out_dir)
            if meta is None:
                raise ValueError(
                    "MERGE insert needs the dir's _encode_meta.json "
                    "(re-encode with a current version)")
            if meta.get("zorder_cols") \
                    and ZORDER_COL in unmatched.column_names:
                # the Morton key re-derives from the persisted plan
                unmatched = unmatched.drop_columns([ZORDER_COL])
            from .encode import all_generations

            existing = all_generations(out_dir)
            k = 0
            while f"mrg{k:04d}" in existing:
                k += 1
            gen = f"mrg{k:04d}"
            wc = meta.get("weight_col")
            man = encode_dataset(
                rd.from_arrow(unmatched), out_dir,
                key_col=meta["key_col"], id_col=meta["id_col"],
                weight_col=wc if wc in unmatched.column_names else None,
                generation=gen, **clustering_kwargs(meta))
            rows_inserted = sum(
                r["rows"] for r in man.to_pylist()
                if generation_of_row(r) == gen)

    manifest = load_manifest(out_dir)
    _write_consolidated(out_dir, manifest)
    return {"partitions": len(rows), "pruned": pruned,
            "rewritten": rewritten, "rows_updated": rows_updated,
            "rows_inserted": rows_inserted, "generation": gen}
