"""CLI — the Ray-native counterpart of the reference runner's
C/F/S/R commands (src/runner.cpp:151-178, README.md:101-108):

    python -m arcade_ray.cli compress  IN.parquet|dir OUT_DIR [opts]
    python -m arcade_ray.cli scan      OUT_DIR [--columns a,b] [--out d]
    python -m arcade_ray.cli filter    OUT_DIR COL VALUE [--project a,b]
    python -m arcade_ray.cli random-access OUT_DIR 1,5,99 [--columns a,b]
    python -m arcade_ray.cli stats     OUT_DIR

The CLI owns the Ray session (library code never calls ray.init).
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def _init_ray(num_cpus: int | None):
    import ray

    if not ray.is_initialized():
        kwargs = {"address": "local", "include_dashboard": False,
                  "logging_level": "ERROR"}
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)


def _cols(s: str | None) -> list[str] | None:
    return s.split(",") if s else None


def cmd_compress(args) -> None:
    t0 = time.perf_counter()
    kw = dict(
        key_col=args.key_col, id_col=args.id_col,
        weight_col=args.weight_col or None, weight_cap=args.cap,
        resume=not args.no_resume, generation=args.generation,
        range_partition_col=args.range_partition,
        zorder_cols=args.zorder.split(",") if args.zorder else None,
    )
    if args.format == "parquet":
        from .pipeline.encode import encode_parquet

        manifest = encode_parquet(args.input, args.out_dir, **kw)
    else:  # csv / jsonl via the token-parser sources
        from .pipeline.encode import encode_dataset
        from .sources import read_tokenized_csv, read_tokenized_jsonl

        ds = read_tokenized_csv(args.input) if args.format == "csv" \
            else read_tokenized_jsonl(args.input)
        manifest = encode_dataset(ds, args.out_dir, **kw)
    dt = time.perf_counter() - t0
    rows = sum(manifest["rows"].to_pylist())
    enc = sum(manifest["enc_bytes"].to_pylist())
    raw = sum(manifest["raw_bytes"].to_pylist())
    print(f"Compressed {rows} rows into {manifest.num_rows} partitions "
          f"({enc} B, ratio {enc / max(raw, 1):.3f}) in {dt:.2f} s")


def cmd_scan(args) -> None:
    from .pipeline.query import scan

    t0 = time.perf_counter()
    ds = scan(args.out_dir, columns=_cols(args.columns))
    if args.out:
        # --partition-by: hive-partitioned output dirs (one directory
        # per key value) so a downstream consumer can skip finished
        # partitions on its own resume
        ds.write_parquet(args.out, partition_cols=_cols(args.partition_by))
        print(f"Scanned -> {args.out} in {time.perf_counter() - t0:.2f} s")
        if args.stats:
            print(ds.stats())
    else:
        n = 0
        for batch in ds.iter_batches(batch_format="pyarrow"):
            n += batch.num_rows
            if args.show and n <= args.show:
                print(batch.slice(0, min(args.show, batch.num_rows)).to_pandas())
        print(f"Returned {n} rows in {time.perf_counter() - t0:.2f} s")
        if args.stats:
            print(ds.stats())


def _load_header(out_dir: str) -> dict | None:
    from .format import read_header
    from .pipeline.encode import load_manifest

    m = load_manifest(out_dir)
    if not m.num_rows:
        return None
    header, _ = read_header(m["path"][0].as_py())
    return header


def _coerce_with_header(header: dict | None, column: str, raw: str):
    """Coerce a CLI literal using the target column's type tag from
    the encoded header (a bare int() try left float columns compared as
    strings)."""
    cm = (header or {}).get("columns", {}).get(column)
    if cm is None or cm["kind"] == "str":
        return raw  # unknown columns error helpfully in equi_filter
    if cm.get("tag") in ("f32", "f64"):
        return float(raw)
    return int(raw)


def _coerce_literal(out_dir: str, column: str, raw: str):
    return _coerce_with_header(_load_header(out_dir), column, raw)


def cmd_filter(args) -> None:
    from .pipeline.query import equi_filter

    try:
        value: object = _coerce_literal(args.out_dir, args.column, args.value)
    except ValueError:
        sys.exit(f"error: literal {args.value!r} does not parse as the "
                 f"type of column {args.column!r}")
    project = _cols(args.project) or [args.column]
    t0 = time.perf_counter()
    try:
        ds = equi_filter(args.out_dir, args.column, value, project=project)
    except KeyError as e:
        sys.exit(f"error: {e.args[0]}")
    from .collect import collect_arrow

    out = collect_arrow(ds)
    print(f"Returned {out.num_rows} rows in {time.perf_counter() - t0:.2f} s")
    if args.show:
        print(out.slice(0, args.show).to_pandas())


def cmd_random_access(args) -> None:
    from .pipeline.query import random_access

    try:
        ids = [int(x) for x in args.row_ids.split(",")]
    except ValueError:
        sys.exit(f"error: row ids must be comma-separated integers, got {args.row_ids!r}")
    t0 = time.perf_counter()
    out = random_access(args.out_dir, ids, columns=_cols(args.columns))
    print(f"Returned {out.num_rows} rows in {time.perf_counter() - t0:.2f} s")
    if args.show:
        print(out.slice(0, args.show).to_pandas())


def cmd_recluster(args) -> None:
    """Re-layout an existing encoded dataset (the OPTIMIZE ... ZORDER
    BY analog): stream-decode it and re-encode into a NEW directory
    under a z-order / range-clustered / hash layout. The source stays
    untouched (swap directories once the new manifest is complete —
    the resumable way to re-cluster a live dataset)."""
    from .pipeline.encode import encode_dataset
    from .pipeline.query import scan

    t0 = time.perf_counter()
    ds = scan(args.out_dir)
    if "zorder" in ds.schema().names:
        # a previously z-ordered layout stores its Morton key; drop it
        # so the new layout computes its own
        ds = ds.drop_columns(["zorder"])
    m = encode_dataset(
        ds, args.new_dir, key_col=args.key_col, id_col=args.id_col,
        weight_col=args.weight_col or None, weight_cap=args.cap,
        range_partition_col=args.range_partition,
        zorder_cols=args.zorder.split(",") if args.zorder else None,
    )
    rows = sum(m["rows"].to_pylist())
    enc = sum(m["enc_bytes"].to_pylist())
    print(f"Reclustered {rows} rows into {m.num_rows} partitions "
          f"({enc} B) -> {args.new_dir} "
          f"in {time.perf_counter() - t0:.2f} s")


def cmd_compact(args) -> None:
    from .pipeline.compact import compact
    from .pipeline.encode import load_manifest

    before = load_manifest(args.out_dir).num_rows
    t0 = time.perf_counter()
    m = compact(args.out_dir, weight_cap=args.cap)
    print(f"Compacted {before} -> {m.num_rows} partitions "
          f"in {time.perf_counter() - t0:.2f} s")


def cmd_verify(args) -> None:
    from .pipeline.verify import verify_roundtrip

    t0 = time.perf_counter()
    report = verify_roundtrip(args.out_dir, args.input)
    status = "MATCH" if report["match"] else "MISMATCH"
    print(f"{status}: {report['rows_encoded']} encoded rows vs "
          f"{report['rows_input']} input rows "
          f"(fingerprints {report['fingerprint_encoded']:#x} / "
          f"{report['fingerprint_input']:#x}) in {time.perf_counter() - t0:.2f} s")
    for e in report.get("errors", []):
        print(f"  partition error: {e['path']}: {e['error']}")
    if not report["match"]:
        sys.exit(1)


def cmd_stats(args) -> None:
    from .pipeline.encode import read_manifest

    pm = read_manifest(args.out_dir)
    m = pm.table
    rows = sum(m["rows"].to_pylist())
    enc = sum(m["enc_bytes"].to_pylist())
    raw = sum(m["raw_bytes"].to_pylist())
    print(json.dumps({
        "partitions": m.num_rows, "rows": rows, "enc_bytes": enc,
        "raw_bytes": raw, "ratio": round(enc / max(raw, 1), 4),
        "codecs": _codec_histogram(pm),
        "distinct_est": _distinct_estimates(pm),
        "quantiles_est": _quantile_estimates(pm),
    }, indent=2))


def _quantile_estimates(manifest) -> dict:
    """Approximate per-column p50/p90/p99 from the manifest's
    mergeable quantile summaries — no data bytes read; the summaries
    carry a certified rank-error bound (reported as err_pct of rows).
    Values print in the uint64 ORDER-KEY domain's inverse: ints and
    epoch timestamps as ints, floats as floats."""
    from .pipeline.query import _order_key_inverse
    from .sketches import qs_deserialize, qs_merge, qs_query

    acc: dict[str, list] = {}
    kinds: dict[str, str] = {}
    covered: dict[str, int] = {}
    n_rows_of = manifest.table["rows"].to_pylist()
    total_rows = sum(n_rows_of)
    for cs, n_rows in zip(manifest.stats, n_rows_of):
        for col, st in cs.items():
            if "qs" in st:
                acc.setdefault(col, []).append(qs_deserialize(st["qs"]))
                kinds[col] = st["qs"].get("kind", "i")
                covered[col] = covered.get(col, 0) + int(n_rows)
    out = {}
    for col, parts in sorted(acc.items()):
        m = qs_merge(parts)
        total = float(m["w"].sum())
        vals = {p: _order_key_inverse(qs_query(m, p), kinds[col])
                for p in (0.5, 0.9, 0.99)}
        out[col] = {f"p{int(p * 100)}": v for p, v in vals.items()}
        out[col]["err_pct"] = round(100.0 * m["err"] / max(total, 1), 3)
        # partitions encoded before the sketch existed carry no
        # summary — flag the gap instead of passing a subset estimate
        # off as table-wide (sketch_percentiles raises on this state)
        if total_rows and covered[col] < total_rows:
            out[col]["rows_covered_pct"] = round(
                100.0 * covered[col] / total_rows, 1)
    return out


def _distinct_estimates(manifest) -> dict:
    """Global per-column approximate distinct counts from the
    manifest's mergeable KMV sketches — no data bytes read; exact
    below the sketch size k."""
    from .sketches import MANIFEST_K, deserialize, kmv_estimate, kmv_merge

    merged: dict = {}
    for cs in manifest.stats:
        for col, st in cs.items():
            if "kmv" not in st:
                continue
            sk = deserialize(st["kmv"])
            merged[col] = sk if col not in merged \
                else kmv_merge(merged[col], sk, k=MANIFEST_K)
    return {c: int(kmv_estimate(sk, k=MANIFEST_K))
            for c, sk in sorted(merged.items())}


def _codec_histogram(manifest) -> dict:
    out: dict[str, int] = {}
    for cs in manifest.stats:
        for col, st in cs.items():
            for codec, n in st["codecs"].items():
                out[codec] = out.get(codec, 0) + n
    return out


def cmd_join(args) -> None:
    from .collect import collect_arrow
    from .pipeline.join import broadcast_join, copartition_join, shuffle_join

    # "k" joins on the same column name both sides; "pk=bk" differs
    probe_key, _, build_key = args.on.partition("=")
    build_key = build_key or probe_key
    probe_cols = _cols(args.probe_cols)
    build_cols = _cols(args.build_cols)
    t0 = time.perf_counter()
    if args.copartition:
        ds = copartition_join(args.probe_dir, args.build_dir, probe_key,
                              build_key, probe_cols, build_cols,
                              join_type=args.how)
    elif args.shuffle:
        ds = shuffle_join(args.probe_dir, args.build_dir, probe_key,
                          build_key, probe_cols, build_cols,
                          join_type=args.how)
    else:
        ds = broadcast_join(args.probe_dir, args.build_dir, probe_key,
                            build_key, probe_cols, build_cols, how=args.how)
    if args.out:
        ds.write_parquet(args.out)
        print(f"Joined -> {args.out} in {time.perf_counter() - t0:.2f} s")
        return
    out = collect_arrow(ds)
    print(f"Returned {out.num_rows} rows in {time.perf_counter() - t0:.2f} s")
    if args.show:
        print(out.slice(0, args.show).to_pandas())


def _build_preds(args, header) -> list[tuple]:
    preds: list[tuple] = []

    def _bad(kind: str, spec: str, why: str) -> None:
        sys.exit(f"error: --{kind} {spec!r}: {why}")

    for spec in args.eq:
        col, sep, val = spec.partition("=")
        if not sep:
            _bad("eq", spec, "expected col=value")
        try:
            preds.append(("eq", col, _coerce_with_header(header, col, val)))
        except ValueError:
            _bad("eq", spec, "literal does not parse as the column's type")
    for spec in args.between:
        col, sep, rng = spec.partition("=")
        if not sep or "," not in rng:
            _bad("between", spec, "expected col=lo,hi")
        lo, hi = rng.split(",", 1)
        try:
            preds.append(("between", col,
                          _coerce_with_header(header, col, lo),
                          _coerce_with_header(header, col, hi)))
        except ValueError:
            _bad("between", spec,
                 "a bound does not parse as the column's type")
    for spec in args.neq:
        col, sep, val = spec.partition("=")
        if not sep:
            _bad("neq", spec, "expected col=value")
        try:
            preds.append(("not",
                          ("eq", col, _coerce_with_header(header, col, val))))
        except ValueError:
            _bad("neq", spec, "literal does not parse as the column's type")
    for col in getattr(args, "isnull", []) or []:
        preds.append(("isnull", col))
    for col in getattr(args, "notnull", []) or []:
        preds.append(("notnull", col))
    if not preds:
        sys.exit("error: pass at least one --eq/--neq/--between/--isnull/"
                 "--notnull predicate")
    return preds


def cmd_compound_filter(args) -> None:
    from .collect import collect_arrow
    from .pipeline.query import compound_filter

    header = _load_header(args.out_dir)  # once, not per predicate bound
    preds = _build_preds(args, header)
    tree = ("or", preds) if args.any else preds
    t0 = time.perf_counter()
    try:
        out = collect_arrow(compound_filter(args.out_dir, tree,
                                            project=_cols(args.project)))
    except KeyError as e:
        sys.exit(f"error: {e.args[0]}")
    print(f"Returned {out.num_rows} rows in {time.perf_counter() - t0:.2f} s")
    if args.show:
        print(out.slice(0, args.show).to_pandas())


def cmd_update(args) -> None:
    from .collect import collect_arrow
    from .pipeline.compact import update_rows
    from .pipeline.query import compound_filter

    header = _load_header(args.out_dir)
    preds = _build_preds(args, header)
    tree = ("or", preds) if args.any else preds
    assignments = {}
    for a in args.set:
        col, _, raw = a.partition("=")
        if not _:
            sys.exit(f"error: --set needs col=value, got {a!r}")
        val: object = raw
        try:
            val = int(raw)
        except ValueError:
            try:
                val = float(raw)
            except ValueError:
                pass
        assignments[col] = val
    if not args.force:
        cols = sorted({p[1] if p[0] != "not" else p[1][1] for p in preds})
        try:
            n = collect_arrow(compound_filter(
                args.out_dir, tree, project=cols[:1])).num_rows
        except KeyError as e:
            sys.exit(f"error: {e.args[0]}")
        print(f"DRY RUN: {n} rows match; pass --force to update them")
        return
    t0 = time.perf_counter()
    try:
        info = update_rows(args.out_dir, tree, assignments)
    except KeyError as e:
        sys.exit(f"error: {e.args[0]}")
    print(f"Updated {info['rows_updated']} rows in "
          f"{time.perf_counter() - t0:.2f} s "
          f"({info['rewritten']} partitions rewritten, "
          f"{info['pruned']} zone-pruned)")


def cmd_delete(args) -> None:
    from .collect import collect_arrow
    from .pipeline.compact import delete_rows
    from .pipeline.query import compound_filter

    header = _load_header(args.out_dir)
    preds = _build_preds(args, header)
    tree = ("or", preds) if args.any else preds
    if not args.force:
        cols = sorted({p[1] if p[0] != "not" else p[1][1] for p in preds})
        try:
            n = collect_arrow(compound_filter(
                args.out_dir, tree, project=cols[:1])).num_rows
        except KeyError as e:
            sys.exit(f"error: {e.args[0]}")
        print(f"DRY RUN: {n} rows match; pass --force to delete them")
        return
    t0 = time.perf_counter()
    try:
        info = delete_rows(args.out_dir, tree)
    except KeyError as e:
        sys.exit(f"error: {e.args[0]}")
    print(f"Deleted {info['rows_deleted']} rows in "
          f"{time.perf_counter() - t0:.2f} s "
          f"({info['rewritten']} partitions rewritten, "
          f"{info['dropped']} dropped, {info['pruned']} zone-pruned)")


def cmd_group_agg(args) -> None:
    from .pipeline.query import dict_group_aggregate

    t0 = time.perf_counter()
    out = dict_group_aggregate(args.out_dir, args.key_col, args.value_col)
    print(f"{out.num_rows} groups in {time.perf_counter() - t0:.2f} s")
    print(out.to_pandas())


def cmd_dedup(args) -> None:
    """Exact near-line dedup over a parquet corpus (hash-only shuffle;
    survivors stream to parquet)."""
    from .sources import read_parquet_clean
    from .textops import exact_dedup

    t0 = time.perf_counter()
    ds = read_parquet_clean(args.input,
                            columns=[args.id_col, args.text_col])
    out = exact_dedup(ds, text_col=args.text_col, id_col=args.id_col)
    out.write_parquet(args.out)
    import pyarrow.dataset as pads

    n = pads.dataset(args.out).count_rows()
    print(f"Deduped -> {args.out}: {n} survivors "
          f"in {time.perf_counter() - t0:.2f} s")


def cmd_decontaminate(args) -> None:
    """Drop training docs sharing a word n-gram with an eval corpus
    (benchmark decontamination; survivors stream to parquet)."""
    from .sources import read_parquet_clean
    from .textops import decontaminate

    t0 = time.perf_counter()
    ds = read_parquet_clean(args.input,
                            columns=[args.id_col, args.text_col])
    ev = read_parquet_clean(args.eval,
                            columns=[args.eval_text_col])
    out = decontaminate(ds, ev, n=args.ngram, text_col=args.text_col,
                        id_col=args.id_col,
                        eval_text_col=args.eval_text_col)
    out.write_parquet(args.out)
    import pyarrow.dataset as pads

    n = pads.dataset(args.out).count_rows()
    print(f"Decontaminated -> {args.out}: {n} survivors "
          f"in {time.perf_counter() - t0:.2f} s")


def cmd_search(args) -> None:
    """Okapi BM25 ranked keyword retrieval: top-k docs for a query."""
    from .sources import read_parquet_clean
    from .textops import bm25_scores

    t0 = time.perf_counter()
    terms = [t for t in args.query.lower().split() if t]
    ds = read_parquet_clean(args.input,
                            columns=[args.id_col, args.text_col])
    scored = bm25_scores(ds, terms, text_col=args.text_col,
                         id_col=args.id_col)
    import pyarrow.compute as pc

    from .collect import collect_arrow

    t = collect_arrow(scored)
    order = pc.sort_indices(t, sort_keys=[("score", "descending"),
                                          (args.id_col, "ascending")])
    top = t.take(order).slice(0, args.k)
    print(top.to_pandas().to_string(index=False))
    print(f"{t.num_rows} matching docs, top {min(args.k, t.num_rows)} "
          f"shown in {time.perf_counter() - t0:.2f} s")


def cmd_vocab(args) -> None:
    """Build a frequency-ranked word vocabulary and (optionally)
    tokenize the corpus with it."""
    from .sources import read_parquet_clean
    from .textops import build_vocab, tokenize_with_vocab

    t0 = time.perf_counter()
    ds = read_parquet_clean(args.input,
                            columns=[args.id_col, args.text_col])
    vocab = build_vocab(ds, max_size=args.size, text_col=args.text_col)
    import pyarrow.parquet as pq

    pq.write_table(vocab, args.out)
    msg = f"Vocab -> {args.out}: {vocab.num_rows} words"
    if args.tokens_out:
        tok = tokenize_with_vocab(ds, vocab, text_col=args.text_col,
                                  id_col=args.id_col)
        tok.write_parquet(args.tokens_out)
        import pyarrow.dataset as pads

        n = pads.dataset(args.tokens_out).count_rows()
        msg += f"; tokenized {n} docs -> {args.tokens_out}"
    print(f"{msg} in {time.perf_counter() - t0:.2f} s")


def cmd_passage_dedup(args) -> None:
    """Drop docs dominated by corpus-duplicated word n-grams
    (substring/passage-level dedup gate)."""
    from .sources import read_parquet_clean
    from .textops import drop_dup_passages

    t0 = time.perf_counter()
    ds = read_parquet_clean(args.input,
                            columns=[args.id_col, args.text_col])
    out = drop_dup_passages(ds, n=args.ngram, max_frac=args.max_frac,
                            text_col=args.text_col, id_col=args.id_col)
    out.write_parquet(args.out)
    import pyarrow.dataset as pads

    n = pads.dataset(args.out).count_rows()
    print(f"Passage-deduped -> {args.out}: {n} survivors "
          f"in {time.perf_counter() - t0:.2f} s")


def cmd_semdedup(args) -> None:
    """SemDeDup: drop embedding rows whose cosine to a kept member of
    the same k-means cluster is >= threshold; write survivors."""
    from .ann import semantic_dedup
    from .sources import read_parquet_clean

    t0 = time.perf_counter()
    ds = read_parquet_clean(args.input,
                            columns=[args.id_col, args.vec_col])
    decisions = semantic_dedup(ds, threshold=args.threshold, k=args.k,
                               id_col=args.id_col, vec_col=args.vec_col)
    import pyarrow.compute as _pc

    def survivors(t):
        keep = t.filter(_pc.invert(t["is_dup"]))
        return keep.select([args.id_col, "cluster", "centroid_sim"])

    out = decisions.map_batches(survivors, batch_format="pyarrow")
    out.write_parquet(args.out)
    import pyarrow.dataset as pads

    n = pads.dataset(args.out).count_rows()
    print(f"SemDeDup -> {args.out}: {n} survivors "
          f"(threshold={args.threshold}, k={args.k}) "
          f"in {time.perf_counter() - t0:.2f} s")


def cmd_tfidf(args) -> None:
    """Hashed TF-IDF document vectors -> parquet (dense list<float32>
    embeddings ready for semdedup / ANN, or sparse (id,bucket,w))."""
    from .sources import read_parquet_clean
    from .textops import tfidf_sparse

    t0 = time.perf_counter()
    ds = read_parquet_clean(args.input,
                            columns=[args.id_col, args.text_col])
    out = tfidf_sparse(ds, dim=args.dim, text_col=args.text_col,
                       id_col=args.id_col, dense=not args.sparse)
    out.write_parquet(args.out)
    import pyarrow.dataset as pads

    n = pads.dataset(args.out).count_rows()
    kind = "sparse rows" if args.sparse else "dense vectors"
    print(f"TF-IDF -> {args.out}: {n} {kind} (dim={args.dim}) "
          f"in {time.perf_counter() - t0:.2f} s")


def cmd_pack(args) -> None:
    """Pack token sequences into fixed-length training examples."""
    from .sources import read_parquet_clean
    from .transforms import pack_sequences

    t0 = time.perf_counter()
    ds = read_parquet_clean(args.input, columns=[args.tokens_col])
    out = pack_sequences(ds, tokens_col=args.tokens_col,
                         max_len=args.max_len, pad_id=args.pad_id,
                         drop_last=args.drop_last, shards=args.shards)
    out.write_parquet(args.out)
    import pyarrow.dataset as pads

    n = pads.dataset(args.out).count_rows()
    print(f"Packed -> {args.out}: {n} examples of max_len={args.max_len} "
          f"in {time.perf_counter() - t0:.2f} s")


def cmd_sql(args) -> None:
    """Run a SQL query against encoded dirs: --table name=dir pairs
    bind the query's table names. Aggregates print; row streams print
    a preview or write parquet with --out."""
    from .sql import sql_query

    if (args.query is None) == (args.file is None):
        raise SystemExit("sql needs exactly one of: a query string, "
                         "or --file script.sql")
    tables = {}
    for spec in args.table:
        name, _, d = spec.partition("=")
        if not d:
            raise SystemExit(f"--table needs name=dir, got {spec!r}")
        tables[name] = d
    if args.file:
        if args.explain or args.out or args.encode_out:
            # --explain must never EXECUTE (scripts carry destructive
            # DML), and --out/--encode-out are single-result flags
            raise SystemExit(
                "--file is incompatible with --explain/--out/"
                "--encode-out; run those per-statement")
        # script mode: statements share ONE session catalog, so CTAS
        # registrations feed later statements; each result prints a
        # compact summary (row streams show a bounded preview — a
        # LIMIT-style early stop, never a full execution)
        from .sql import run_script

        with open(args.file) as f:
            script = f.read()
        t0 = time.perf_counter()
        for stmt, res in run_script(script, tables,
                                    workspace=args.workspace):
            head = " ".join(stmt.split())[:72]
            import pyarrow as pa

            if isinstance(res, pa.Table):
                print(f"-- {head}")
                print(res.to_pandas().to_string(max_rows=args.show))
            else:
                rows = res.limit(args.show).take(args.show)
                print(f"-- {head}\n[row stream; first {len(rows)}]")
                if rows:
                    import pandas as _pd

                    print(_pd.DataFrame(rows).to_string(
                        max_rows=args.show))
        print(f"script done in {time.perf_counter() - t0:.2f} s")
        return
    if args.explain:
        from .sql import explain_sql

        print(explain_sql(args.query, tables))
        return
    if args.encode_out and not args.key_col:
        raise SystemExit("--encode-out needs --key-col")
    t0 = time.perf_counter()
    res = sql_query(args.query, tables, workspace=args.workspace)
    import pyarrow as pa

    if args.encode_out:
        # CTAS-shaped round trip: the SQL result writes back as an
        # ENCODED dataset (same adaptive per-column compression)
        import ray.data as rd

        from .pipeline import encode_dataset

        ds = res if not isinstance(res, pa.Table) else rd.from_arrow(res)
        man = encode_dataset(ds, args.encode_out, key_col=args.key_col,
                             id_col=args.id_col, weight_col=None)
        print(f"Encoded {man.num_rows} partitions -> {args.encode_out} "
              f"in {time.perf_counter() - t0:.2f} s")
        return
    if isinstance(res, pa.Table):
        print(res.to_pandas().to_string(max_rows=args.show))
        print(f"{res.num_rows} rows in {time.perf_counter() - t0:.2f} s")
    elif args.out:
        res.write_parquet(args.out)
        print(f"-> {args.out} in {time.perf_counter() - t0:.2f} s")
    else:
        n = 0
        for batch in res.iter_batches(batch_format="pyarrow"):
            if n < args.show:
                print(batch.slice(0, args.show - n).to_pandas())
            n += batch.num_rows
        print(f"{n} rows in {time.perf_counter() - t0:.2f} s")


def main(argv=None) -> None:
    p = argparse.ArgumentParser(prog="arcade_ray")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("compress")
    c.add_argument("input")
    c.add_argument("out_dir")
    c.add_argument("--key-col", default="source")
    c.add_argument("--id-col", default="doc_id")
    c.add_argument("--weight-col", default="n_tok")
    c.add_argument("--cap", type=int, default=None)
    c.add_argument("--no-resume", action="store_true")
    c.add_argument("--generation", default=None,
                   help="append namespace: encode this input as a new "
                        "generation alongside existing partitions")
    c.add_argument("--format", default="parquet",
                   choices=["parquet", "csv", "jsonl"],
                   help="input format; csv parses a delimited token "
                   "column, jsonl expects native list-typed tokens")
    c.add_argument("--zorder", default=None, metavar="COL,COL[,COL]",
                   help="Z-ORDER clustered layout: cluster partitions "
                   "on the Morton key of 2-3 numeric/timestamp columns "
                   "so zone maps prune multi-column predicates")
    c.add_argument("--range-partition", default=None, metavar="COL",
                   help="clustered layout: partition by quantile RANGES "
                        "of this numeric/timestamp column (disjoint zone "
                        "maps -> cross-partition pruning) instead of "
                        "hashing --key-col")
    c.set_defaults(fn=cmd_compress)

    s = sub.add_parser("scan")
    s.add_argument("out_dir")
    s.add_argument("--columns")
    s.add_argument("--out")
    s.add_argument("--partition-by", help="hive-partition output by these columns")
    s.add_argument("--stats", action="store_true",
                   help="print ds.stats() after the scan")
    s.add_argument("--show", type=int, default=0)
    s.set_defaults(fn=cmd_scan)

    f = sub.add_parser("filter")
    f.add_argument("out_dir")
    f.add_argument("column")
    f.add_argument("value")
    f.add_argument("--project")
    f.add_argument("--show", type=int, default=0)
    f.set_defaults(fn=cmd_filter)

    r = sub.add_parser("random-access")
    r.add_argument("out_dir")
    r.add_argument("row_ids")
    r.add_argument("--columns")
    r.add_argument("--show", type=int, default=0)
    r.set_defaults(fn=cmd_random_access)

    st = sub.add_parser("stats")
    st.add_argument("out_dir")
    st.set_defaults(fn=cmd_stats)

    vf = sub.add_parser("verify")
    vf.add_argument("out_dir")
    vf.add_argument("input", help="original parquet file/dir to compare against")
    vf.set_defaults(fn=cmd_verify)

    cp = sub.add_parser("compact")
    cp.add_argument("out_dir")
    cp.add_argument("--cap", type=int, default=None,
                    help="target raw bytes per compacted partition")
    cp.set_defaults(fn=cmd_compact)

    rc = sub.add_parser("recluster", help="re-encode an encoded dir "
                        "into a NEW dir under a different layout "
                        "(z-order / range / hash)")
    rc.add_argument("out_dir", help="source encoded dir (read-only)")
    rc.add_argument("new_dir", help="destination encoded dir")
    rc.add_argument("--zorder", default=None, metavar="COL,COL[,COL]")
    rc.add_argument("--range-partition", default=None, metavar="COL")
    rc.add_argument("--key-col", default="source")
    rc.add_argument("--id-col", default="doc_id")
    rc.add_argument("--weight-col", default=None)
    rc.add_argument("--cap", type=int, default=None)
    rc.set_defaults(fn=cmd_recluster)

    jn = sub.add_parser("join", help="broadcast hash join of two encoded dirs")
    jn.add_argument("probe_dir")
    jn.add_argument("build_dir")
    jn.add_argument("--on", required=True,
                    help="probe_key=build_key, e.g. o_custkey=c_custkey")
    jn.add_argument("--probe-cols", required=True)
    jn.add_argument("--build-cols", required=True)
    jn.add_argument("--how", default="inner", choices=["inner", "left"])
    jn.add_argument("--shuffle", action="store_true",
                    help="hash-shuffle join (both sides large)")
    jn.add_argument("--copartition", action="store_true",
                    help="co-partitioned exchange join (both sides "
                         "large; no sort shuffle)")
    jn.add_argument("--out")
    jn.add_argument("--show", type=int, default=0)
    jn.set_defaults(fn=cmd_join)

    cf = sub.add_parser("compound-filter",
                        help="AND/OR/NOT of eq/range predicates over "
                             "encoded data")
    cf.add_argument("out_dir")
    cf.add_argument("--eq", action="append", default=[],
                    help="col=value (repeatable)")
    cf.add_argument("--neq", action="append", default=[],
                    help="col=value negated equality (repeatable)")
    cf.add_argument("--between", action="append", default=[],
                    help="col=lo,hi (repeatable)")
    cf.add_argument("--isnull", action="append", default=[],
                    help="col IS NULL (repeatable; reads only the "
                         "validity bitmaps)")
    cf.add_argument("--notnull", action="append", default=[],
                    help="col IS NOT NULL (repeatable)")
    cf.add_argument("--any", action="store_true",
                    help="OR the predicates instead of ANDing them")
    cf.add_argument("--project", required=True)
    cf.add_argument("--show", type=int, default=0)
    cf.set_defaults(fn=cmd_compound_filter)

    dl = sub.add_parser("delete",
                        help="predicate DELETE with partition rewrite + "
                             "lineage (dry run unless --force)")
    dl.add_argument("out_dir")
    dl.add_argument("--eq", action="append", default=[],
                    help="col=value (repeatable)")
    dl.add_argument("--neq", action="append", default=[],
                    help="col=value negated equality (repeatable)")
    dl.add_argument("--between", action="append", default=[],
                    help="col=lo,hi (repeatable)")
    dl.add_argument("--any", action="store_true",
                    help="OR the predicates instead of ANDing them")
    dl.add_argument("--force", action="store_true",
                    help="actually delete (default: dry-run count)")
    dl.set_defaults(fn=cmd_delete)

    up = sub.add_parser("update",
                        help="predicate UPDATE (SET col=value) with "
                             "partition rewrite + lineage (dry run "
                             "unless --force)")
    up.add_argument("out_dir")
    up.add_argument("--set", action="append", default=[], required=True,
                    help="col=value assignment (repeatable; value "
                         "parsed as int/float when it looks numeric)")
    up.add_argument("--eq", action="append", default=[],
                    help="col=value (repeatable)")
    up.add_argument("--neq", action="append", default=[],
                    help="col=value negated equality (repeatable)")
    up.add_argument("--between", action="append", default=[],
                    help="col=lo,hi (repeatable)")
    up.add_argument("--any", action="store_true",
                    help="OR the predicates instead of ANDing them")
    up.add_argument("--force", action="store_true",
                    help="actually update (default: dry-run count)")
    up.set_defaults(fn=cmd_update)

    ga = sub.add_parser("group-agg",
                        help="decode-free GROUP BY key -> sum/min/max/count")
    ga.add_argument("out_dir")
    ga.add_argument("key_col")
    ga.add_argument("value_col")
    ga.set_defaults(fn=cmd_group_agg)

    dd = sub.add_parser("dedup", help="exact dedup of a parquet corpus "
                        "(hash-only shuffle) -> parquet survivors")
    dd.add_argument("input")
    dd.add_argument("out")
    dd.add_argument("--text-col", default="text")
    dd.add_argument("--id-col", default="doc_id")
    dd.set_defaults(fn=cmd_dedup)

    dc = sub.add_parser("decontaminate", help="drop docs sharing a "
                        "word n-gram with an eval corpus -> parquet "
                        "survivors")
    dc.add_argument("input")
    dc.add_argument("eval", help="parquet file/dir of eval documents")
    dc.add_argument("out")
    dc.add_argument("--ngram", type=int, default=13,
                    help="overlap width in words (13 = GPT-3/PaLM "
                    "convention)")
    dc.add_argument("--text-col", default="text")
    dc.add_argument("--id-col", default="doc_id")
    dc.add_argument("--eval-text-col", default="text")
    dc.set_defaults(fn=cmd_decontaminate)

    se = sub.add_parser("search", help="BM25 ranked keyword retrieval "
                        "over a parquet corpus")
    se.add_argument("input")
    se.add_argument("query", help="space-separated query terms")
    se.add_argument("-k", type=int, default=10)
    se.add_argument("--text-col", default="text")
    se.add_argument("--id-col", default="doc_id")
    se.set_defaults(fn=cmd_search)

    vb = sub.add_parser("vocab", help="build a frequency-ranked word "
                        "vocabulary (and optionally tokenize)")
    vb.add_argument("input")
    vb.add_argument("out", help="vocabulary parquet file")
    vb.add_argument("--size", type=int, default=32768)
    vb.add_argument("--tokens-out", default=None,
                    help="also tokenize the corpus -> parquet dir")
    vb.add_argument("--text-col", default="text")
    vb.add_argument("--id-col", default="doc_id")
    vb.set_defaults(fn=cmd_vocab)

    pdd = sub.add_parser("passage-dedup", help="drop docs dominated by "
                         "corpus-duplicated word n-grams")
    pdd.add_argument("input")
    pdd.add_argument("out")
    pdd.add_argument("--ngram", type=int, default=13)
    pdd.add_argument("--max-frac", type=float, default=0.5)
    pdd.add_argument("--text-col", default="text")
    pdd.add_argument("--id-col", default="doc_id")
    pdd.set_defaults(fn=cmd_passage_dedup)

    sd = sub.add_parser("semdedup", help="semantic dedup over an "
                        "embedding column (SemDeDup) -> parquet")
    sd.add_argument("input")
    sd.add_argument("out")
    sd.add_argument("--threshold", type=float, default=0.95)
    sd.add_argument("-k", type=int, default=16,
                    help="k-means clusters (pick ~N/target_cluster_size)")
    sd.add_argument("--vec-col", default="embedding")
    sd.add_argument("--id-col", default="vec_id")
    sd.set_defaults(fn=cmd_semdedup)

    tf = sub.add_parser("tfidf", help="hashed TF-IDF document vectors "
                        "-> parquet (dense by default)")
    tf.add_argument("input")
    tf.add_argument("out")
    tf.add_argument("--dim", type=int, default=256)
    tf.add_argument("--sparse", action="store_true",
                    help="emit (id, bucket, w) rows instead of vectors")
    tf.add_argument("--text-col", default="text")
    tf.add_argument("--id-col", default="doc_id")
    tf.set_defaults(fn=cmd_tfidf)

    pk = sub.add_parser("pack", help="pack token sequences into "
                        "fixed-length training examples -> parquet")
    pk.add_argument("input")
    pk.add_argument("out")
    pk.add_argument("--tokens-col", default="tokens")
    pk.add_argument("--max-len", type=int, default=2048)
    pk.add_argument("--pad-id", type=int, default=None)
    pk.add_argument("--drop-last", action="store_true")
    pk.add_argument("--shards", type=int, default=None,
                    help="cross-batch carry inside N shards "
                    "(exactly N tails)")
    pk.set_defaults(fn=cmd_pack)

    sq = sub.add_parser("sql", help="run a SQL subset against encoded "
                        "dirs (parsed by DuckDB, executed by the "
                        "engine's zone-pruned operators)")
    sq.add_argument("query", nargs="?", default=None)
    sq.add_argument("--file", help="run a multi-statement .sql script "
                    "(shared session catalog; ';' separated, -- "
                    "comments)")
    sq.add_argument("--table", action="append", required=True,
                    metavar="NAME=DIR",
                    help="bind a table name to an encoded dir "
                    "(repeatable)")
    sq.add_argument("--out", help="write row-stream results to parquet")
    sq.add_argument("--encode-out", help="write the result as an "
                    "ENCODED dataset (CREATE TABLE AS shape); needs "
                    "--key-col")
    sq.add_argument("--key-col", help="partition key column for "
                    "--encode-out")
    sq.add_argument("--id-col", default="doc_id",
                    help="id column for --encode-out (default doc_id)")
    sq.add_argument("--workspace", help="directory CREATE TABLE AS "
                    "statements encode new tables under (and DROP "
                    "TABLE may delete from)")
    sq.add_argument("--show", type=int, default=20)
    sq.add_argument("--explain", action="store_true",
                    help="print the compiled plan (operator routing + "
                    "partition pruning) without executing")
    sq.set_defaults(fn=cmd_sql)

    args = p.parse_args(argv)
    needs_ray = args.cmd != "stats"
    if needs_ray:
        _init_ray(args.num_cpus)
    try:
        args.fn(args)
    finally:
        if needs_ray:
            import ray

            ray.shutdown()


if __name__ == "__main__":
    main()
