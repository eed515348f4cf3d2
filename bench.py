#!/usr/bin/env python
"""Benchmark harness (driver contract + BASELINE.md procedure).

Headline: encode throughput (tokens/sec) and compressed bytes/token on
the pre-tokenized synthetic corpus (FIXTURES.md 'bench' scale) through
the full pipeline (read parquet -> plan -> rebalance shuffle ->
adaptive encode -> atomic commit). Secondary queries time the decode
round trip and the operator surface over $GRAFT_SF_DIR tables.

Prints ONE JSON line:
  {"metric": ..., "value": <headline seconds>, "unit": "sec",
   "queries": {...}, "sf": ..., "num_cpus": N,
   "tokens_per_s": ..., "bytes_per_token": ...}

--scaling: runs the headline twice in fresh processes at
RAY_GRAFT_CPUS=8 and 32 (the sandbox stand-in for N vs 4N nodes,
BASELINE.md §3) and reports throughputs + scaling efficiency.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = "/tmp/arcade_bench"
CORPUS_ROWS = int(os.environ.get("ARCADE_BENCH_ROWS", "500000"))
CORPUS_SOURCES = 64


CORPUS_FILES = 32  # parallel read shards — one read task per file


def ensure_corpus() -> tuple[str, int]:
    """Deterministic bench corpus (seed 42) as a directory of parquet
    shards (parallel read); cached."""
    os.makedirs(BENCH_DIR, exist_ok=True)
    path = os.path.join(BENCH_DIR, f"corpus-{CORPUS_ROWS}")
    meta = path + ".meta.json"
    if os.path.isdir(path) and os.path.exists(meta):
        with open(meta) as f:
            return path, json.load(f)["n_tokens"]
    import pyarrow.parquet as pq

    from arcade_ray.corpus import generate_corpus

    table = generate_corpus(CORPUS_ROWS, CORPUS_SOURCES, seed=42)
    n_tokens = int(sum(table["n_tok"].to_pandas()))
    tmp = path + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    per = -(-table.num_rows // CORPUS_FILES)
    for i in range(CORPUS_FILES):
        part = table.slice(i * per, per)
        if part.num_rows:
            pq.write_table(part, os.path.join(tmp, f"part-{i:04d}.parquet"),
                           row_group_size=16384)
    os.replace(tmp, path)
    with open(meta, "w") as f:
        json.dump({"n_tokens": n_tokens, "rows": CORPUS_ROWS}, f)
    return path, n_tokens


def run_bench(num_cpus: int, sf_dir: str) -> dict:
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus,
                 include_dashboard=False, logging_level="ERROR")
    import ray.data as rd
    from ray.data import DataContext

    from arcade_ray.sources import read_parquet_clean

    DataContext.get_current().enable_progress_bars = False

    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)
    import pyarrow as pa

    from arcade_ray.pipeline import decode_dataset, encode_dataset
    from arcade_ray.pipeline.encode import encode_parquet
    from arcade_ray.pipeline.query import equi_filter, scan

    corpus_path, n_tokens = ensure_corpus()
    # warm page cache AND all workers with a full untimed run so the
    # timed run measures steady-state compute+exchange, not cold disk
    # or worker startup
    read_parquet_clean(corpus_path).count()
    enc_dir = os.path.join(BENCH_DIR, f"enc-{num_cpus}")
    shutil.rmtree(enc_dir, ignore_errors=True)
    encode_parquet(corpus_path, enc_dir)

    queries: dict[str, float] = {}
    # output rows of the entries that record them, next to their times
    query_rows: dict[str, int] = {}

    def _best_of(fn, n: int = 2, setup=None) -> float:
        """min-of-n timing: the sandbox host is multi-tenant — a single
        run measures host noise as much as the pipeline (BENCH_r03's
        2-3x uniform inflation); min-per-config is the BASELINE.md §5
        protocol."""
        best = None
        for _ in range(n):
            if setup is not None:
                setup()
            t0 = time.perf_counter()
            fn()
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        return round(best, 3)

    # headline: full encode pipeline, fresh output dir each iteration,
    # timed FIRST (before the operator-surface queries can contend) and
    # best-of-5 after the full untimed warm run above (host steal is
    # bimodal and can persist across 3 back-to-back runs — BASELINE §5)
    t_encode = None
    n_head = int(os.environ.get(
        "ARCADE_BENCH_HEADLINE_REPS",
        # scaling children already take min across interleaved
        # replicates — 2 in-process iterations suffice there
        "2" if os.environ.get("ARCADE_BENCH_HEADLINE_ONLY") else "5"))
    for _ in range(n_head):
        shutil.rmtree(enc_dir, ignore_errors=True)
        t0 = time.perf_counter()
        manifest = encode_parquet(corpus_path, enc_dir)
        dt = time.perf_counter() - t0
        t_encode = dt if t_encode is None else min(t_encode, dt)
    enc_bytes = sum(manifest["enc_bytes"].to_pylist())
    raw_bytes = sum(manifest["raw_bytes"].to_pylist())
    queries["encode_corpus"] = round(t_encode, 3)

    flt = None
    if not os.environ.get("ARCADE_BENCH_HEADLINE_ONLY"):
        # decode round trip (streaming consume)
        def _dec():
            n = decode_dataset(enc_dir).count()
            assert n == CORPUS_ROWS, (n, CORPUS_ROWS)

        queries["decode_corpus"] = _best_of(_dec)

        # equi-filter on encoded corpus (code-domain compare + zone maps)
        def _flt():
            nonlocal flt
            flt = equi_filter(enc_dir, "source", "src-003",
                              project=["source", "doc_id", "n_tok"]).count()

        queries["equi_filter_encoded"] = _best_of(_flt)

    # operator surface over $GRAFT_SF_DIR tables (skipped in --scaling
    # children: the scaling criterion measures the headline pipeline)
    if os.path.isdir(sf_dir) and not os.environ.get("ARCADE_BENCH_HEADLINE_ONLY"):
        from ray.data.aggregate import Count, Sum

        queries["plan_stats"] = _best_of(
            lambda: read_parquet_clean(
                os.path.join(sf_dir, "documents.parquet"),
                columns=["source", "n_chars"])
            .groupby("source").aggregate(
                Count(alias_name="n_rows"),
                Sum("n_chars", alias_name="sum_chars")).to_pandas())

        doc_enc = os.path.join(BENCH_DIR, f"docs-{num_cpus}")
        queries["encode_documents"] = _best_of(
            lambda: encode_parquet(
                os.path.join(sf_dir, "documents.parquet"), doc_enc,
                key_col="source", id_col="doc_id", weight_col="n_chars",
                weight_cap=2_000_000),
            setup=lambda: shutil.rmtree(doc_enc, ignore_errors=True))

        # broadcast hash join over two encoded tables
        from arcade_ray.pipeline.join import broadcast_join

        o_enc = os.path.join(BENCH_DIR, f"ord-{num_cpus}")
        c_enc = os.path.join(BENCH_DIR, f"cust-{num_cpus}")
        for d, tbl, key, idc in ((o_enc, "orders", "o_orderpriority", "o_orderkey"),
                                 (c_enc, "customer", "c_mktsegment", "c_custkey")):
            shutil.rmtree(d, ignore_errors=True)
            encode_parquet(os.path.join(sf_dir, f"{tbl}.parquet"), d,
                           key_col=key, id_col=idc, weight_col=None)
        queries["join_encoded"] = _best_of(
            lambda: broadcast_join(
                o_enc, c_enc, probe_key="o_custkey", build_key="c_custkey",
                probe_cols=["o_orderkey", "o_custkey"],
                build_cols=["c_mktsegment"]).count())

        # compound predicate over encoded documents
        from arcade_ray.pipeline.query import compound_filter

        queries["compound_filter"] = _best_of(
            lambda: compound_filter(
                doc_enc, [("eq", "lang", "en"),
                          ("between", "n_chars", 100, 200)],
                project=["doc_id", "lang", "n_chars"]).count())

        # dedup operators over raw documents (hash-only shuffles)
        from arcade_ray.textops import (exact_dedup, minhash_lsh_pairs,
                                        simhash_pairs)

        docs = read_parquet_clean(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text"])
        queries["exact_dedup"] = _best_of(lambda: exact_dedup(docs).count())
        queries["minhash_pairs"] = _best_of(
            lambda: minhash_lsh_pairs(docs, jaccard_threshold=0.7).count())
        queries["simhash_pairs"] = _best_of(
            lambda: simhash_pairs(docs, max_hamming=3).count())

        # gap-based session windows over the events stream table
        from arcade_ray.windows import session_windows

        ev = read_parquet_clean(os.path.join(sf_dir, "events.parquet"),
                             columns=["user_id", "ts"])
        queries["session_windows"] = _best_of(
            lambda: session_windows(ev, key_col="user_id", ts_col="ts",
                                    gap_s=1800.0).count())

        # co-partitioned exchange join, both sides large (lineitem x
        # orders). shuffle_join is now an alias for this path (the
        # Ray-native sort-shuffle variant is a test-only parity oracle)
        from arcade_ray.pipeline.join import copartition_join

        li_enc = os.path.join(BENCH_DIR, f"li-{num_cpus}")
        shutil.rmtree(li_enc, ignore_errors=True)
        encode_parquet(os.path.join(sf_dir, "lineitem.parquet"), li_enc,
                       key_col="l_returnflag", id_col="l_orderkey",
                       weight_col=None)
        jkw = dict(left_key="l_orderkey", right_key="o_orderkey",
                   left_cols=["l_orderkey", "l_quantity"],
                   right_cols=["o_orderpriority"])
        queries["copartition_join"] = _best_of(
            lambda: copartition_join(li_enc, o_enc, **jkw).count())

        # composed TPC-H-Q3-shape pipeline over three encoded tables
        # (customer filter -> semi-join orders -> date filter ->
        # semi-join lineitem -> partial sums -> groupby -> top-k)
        from arcade_ray.entry_queries import CACHE_ROOT, q_q3_revenue_topk

        if not os.path.isdir(CACHE_ROOT):
            # first run encodes all three tables into the cache; report
            # it separately so the warm number measures the pipeline
            t0 = time.perf_counter()
            q_q3_revenue_topk(sf_dir)
            queries["q3_pipeline_cold"] = round(time.perf_counter() - t0, 3)

        def _q3():
            q3 = q_q3_revenue_topk(sf_dir)
            assert q3.num_rows == 20, q3.num_rows

        queries["q3_pipeline"] = _best_of(_q3)

        # per-key window frames over the events stream
        from arcade_ray.windows import frame_aggs

        ev_v = read_parquet_clean(os.path.join(sf_dir, "events.parquet"),
                               columns=["event_id", "user_id", "ts",
                                        "value"])
        queries["window_frames"] = _best_of(
            lambda: frame_aggs(ev_v, tie_col="event_id", window=4).count())

        # zero-scan percentiles from the corpus manifest alone
        from arcade_ray.pipeline.query import sketch_percentiles

        queries["sketch_percentiles"] = _best_of(
            lambda: sketch_percentiles(enc_dir, "n_tok",
                                       [0.5, 0.9, 0.99]).num_rows)

        # token-sequence stats straight off the ENCODED corpus: scan
        # projects only the tokens column, unigram partials are
        # vocab-sized (tokenops.py)
        from arcade_ray.pipeline.query import scan
        from arcade_ray.tokenops import token_unigram_stats

        def _uni():
            t = token_unigram_stats(scan(enc_dir, columns=["tokens"]))
            assert t.num_rows > 0

        queries["token_unigram_encoded"] = _best_of(_uni)

        # SemDeDup over the embeddings table (cluster-keyed shuffle +
        # within-cluster greedy cosine drop)
        from arcade_ray.ann import semantic_dedup

        emb = read_parquet_clean(
            os.path.join(sf_dir, "embeddings.parquet"),
            columns=["vec_id", "embedding"])
        queries["semantic_dedup"] = _best_of(
            lambda: semantic_dedup(emb, threshold=0.95, k=8).count())

        # the composed end-to-end LLM-data cleaning flagship
        # (jobs/clean_job.py): PII scrub -> normalize -> quality gate
        # -> repetition gate -> passage-dup gate -> exact dedup ->
        # vocab build + tokenize -> pack -> write. Timed once (it IS
        # the composition of already-best-of'd stages); clean_job's
        # own report line goes to stderr so the bench contract (one
        # JSON line on stdout) holds. The sf0.1 documents draw on 31
        # distinct words, so every document shares its trigrams with
        # other documents and the corpus top-100 list holds every word:
        # a passage-dup or top-word gate below 1.0 drops every document.
        # At 1.0 both stages still run and keep all documents.
        import contextlib
        import importlib.util as _ilu
        import tempfile

        spec = _ilu.spec_from_file_location(
            "clean_job", os.path.join(os.path.dirname(
                os.path.abspath(__file__)), "jobs", "clean_job.py"))
        clean_mod = _ilu.module_from_spec(spec)
        spec.loader.exec_module(clean_mod)
        clean_out = os.path.join(
            tempfile.mkdtemp(prefix="arcade_clean_"), "out")
        argv_save = sys.argv
        sys.argv = ["clean_job", "--input",
                    os.path.join(sf_dir, "documents.parquet"),
                    "--out", clean_out, "--max-len", "1024",
                    "--max-passage-dup", "1.0",
                    "--max-top-frac", "1.0"]
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sys.stderr):
                clean_mod.main()
        finally:
            sys.argv = argv_save
        queries["clean_pipeline"] = round(time.perf_counter() - t0, 3)
        import pyarrow.parquet as pq

        query_rows["clean_pipeline"] = sum(
            pq.read_metadata(os.path.join(clean_out, f)).num_rows
            for f in os.listdir(clean_out) if f.endswith(".parquet")) \
            if os.path.isdir(clean_out) else 0
        shutil.rmtree(os.path.dirname(clean_out), ignore_errors=True)
        if not query_rows["clean_pipeline"]:
            raise RuntimeError("clean_pipeline wrote 0 packed examples: "
                               "its gates dropped every document")

    return {
        "metric": "corpus encode wall-clock (tokens/s headline)",
        "value": round(t_encode, 3),
        "unit": "sec",
        "queries": queries,
        "query_rows": query_rows,
        "sf": sf_dir,
        "num_cpus": num_cpus,
        "rows": CORPUS_ROWS,
        "n_tokens": n_tokens,
        "tokens_per_s": round(n_tokens / t_encode),
        "bytes_per_token": round(enc_bytes / n_tokens, 4),
        "raw_bytes": raw_bytes,
        "enc_bytes": enc_bytes,
        "compression_ratio": round(enc_bytes / raw_bytes, 4),
        "filter_matches": flt,
    }


def run_child(ncpu: int) -> dict:
    env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
               ARCADE_BENCH_HEADLINE_ONLY="1")
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__)], env=env,
        capture_output=True, text=True, check=True, cwd=os.path.dirname(os.path.abspath(__file__)),
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def main() -> None:
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    if "--scaling" in sys.argv:
        # scaling runs use a larger corpus by default so compute
        # dominates fixed pipeline latency (BASELINE.md §3)
        os.environ.setdefault("ARCADE_BENCH_ROWS", "2000000")
        global CORPUS_ROWS
        CORPUS_ROWS = int(os.environ["ARCADE_BENCH_ROWS"])
        ensure_corpus()  # generate once, outside both timed runs
        # N vs 4N CPUs in fresh processes (BASELINE.md §3). Default 2/8:
        # the sandbox host is multi-tenant and >8-worker runs see
        # bimodal CPU steal; 2 vs 8 isolates OUR scaling behavior.
        lo = int(os.environ.get("ARCADE_SCALE_LO", "2"))
        hi = int(os.environ.get("ARCADE_SCALE_HI", str(4 * lo)))
        reps = int(os.environ.get("ARCADE_SCALE_REPS", "1"))
        lo_times, hi_times = [], []
        r_lo = r_hi = None
        for _ in range(reps):
            # interleaved lo/hi runs: multi-tenant host noise hits both
            # configs alike; min-per-config approximates the quiet host
            r_lo = run_child(lo)
            lo_times.append(r_lo["value"])
            time.sleep(6)  # let the previous Ray cluster fully tear down
            r_hi = run_child(hi)
            hi_times.append(r_hi["value"])
            time.sleep(6)
        t_lo, t_hi = min(lo_times), min(hi_times)
        eff = (t_lo / t_hi) / (hi / lo)
        per_rep = [round((tl / th) / (hi / lo), 3)
                   for tl, th in zip(lo_times, hi_times)]
        print(json.dumps({
            f"sec_{lo}": t_lo, f"sec_{hi}": t_hi,
            f"tokens_per_s_{lo}": round(r_lo["n_tokens"] / t_lo),
            f"tokens_per_s_{hi}": round(r_hi["n_tokens"] / t_hi),
            "cpus_lo": lo, "cpus_hi": hi, "reps": reps,
            "scaling_efficiency": round(eff, 3),
            "per_rep_efficiency": per_rep,
            f"times_{lo}": [round(t, 2) for t in lo_times],
            f"times_{hi}": [round(t, 2) for t in hi_times],
            "n_tokens": r_lo["n_tokens"],
        }))
        return
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    result = run_bench(num_cpus, sf_dir)
    print(json.dumps(result))
    import ray

    ray.shutdown()


if __name__ == "__main__":
    main()
