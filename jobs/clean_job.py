#!/usr/bin/env python
"""`ray job submit`-compatible corpus-CLEANING job: the end-to-end
training-data pipeline a user of this engine runs before pretraining,
composed from the engine's own operators, all streaming:

    read_parquet
      -> redact_pii            (email/IP/phone scrub, Arrow RE2 kernels)
      -> normalize_text        (trim/collapse/lowercase, Arrow kernels)
      -> quality filter        (TextAnalyzer actor pool: lang/quality)
      -> repetition gate       (Gopher repeated-trigram fraction)
      -> passage-dup gate      (--max-passage-dup: cross-doc duplicated
                                trigram fraction, Lee et al. 2022 signal)
      -> exact_dedup           (hash-only shuffle, map-side anti-join)
      -> decontaminate         (13-gram overlap vs --eval benchmark)
      -> build_vocab + tokenize (deterministic word-id vocabulary)
      -> pack_sequences        (fixed-length training examples)
      -> write_parquet         (partitioned shards, resumable output)

On a cluster:

    ray job submit --working-dir . -- \
        python jobs/clean_job.py --input s3://bucket/docs/ \
        --out /mnt/shared/clean --max-len 2048 --min-quality 0.3

In this sandbox the same script runs against the local session. Every
stage is a lazy Dataset transform — the streaming executor pipelines
them with backpressure; nothing materializes except dedup's loser id
set (broadcast once)."""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--input", required=True, help="parquet file/dir of docs")
    p.add_argument("--out", required=True)
    p.add_argument("--text-col", default="text")
    p.add_argument("--id-col", default="doc_id")
    p.add_argument("--max-len", type=int, default=2048)
    p.add_argument("--max-punct", type=float, default=0.3,
                   help="drop docs with punct_ratio above this")
    p.add_argument("--max-dup-frac", type=float, default=0.75,
                   help="drop docs whose repeated-trigram fraction "
                   "exceeds this (Gopher-style repetition gate)")
    p.add_argument("--vocab-size", type=int, default=32768,
                   help="word-vocabulary size for tokenization (0=OOV)")
    p.add_argument("--max-passage-dup", type=float, default=None,
                   help="drop docs whose corpus-duplicated trigram "
                   "fraction exceeds this (substring-dedup gate)")
    p.add_argument("--max-top-frac", type=float, default=None,
                   help="when set, drop docs whose fraction of words "
                   "inside the corpus top-100 word list exceeds this "
                   "(Gopher top-word-fraction boilerplate gate; costs "
                   "one extra pruned-column pass to count words)")
    p.add_argument("--eval", default=None,
                   help="parquet file/dir of eval docs; when given, "
                   "training docs sharing a 13-gram are dropped")
    args = p.parse_args()

    import pyarrow as pa
    import pyarrow.compute as pc
    import ray
    import ray.data as rd

    if not ray.is_initialized():  # inside a Ray Job this attaches
        ray.init()

    from arcade_ray.sources import read_parquet_clean
    from arcade_ray.textops import (analyze_text, decontaminate,
                                    exact_dedup, normalize_text,
                                    redact_pii, repetition_scores)
    from arcade_ray.transforms import pack_sequences

    t0 = time.time()
    # a bare read_parquet counts from the Parquet footers (Ray answers
    # count() from metadata) instead of running the read-and-strip plan
    n_in = rd.read_parquet(args.input, columns=[args.id_col]).count()
    ds = read_parquet_clean(args.input, columns=[args.id_col, args.text_col])

    ds = redact_pii(ds, text_col=args.text_col)
    ds = normalize_text(ds, text_col=args.text_col, out_col="text",
                        keep=[args.id_col])

    # quality gate: the analyzer actor pool scores each batch
    # (punct/stopword ratios etc.); the filter runs IN the same
    # streamed pass — no id materialization, no second read
    def gate(b: pa.Table) -> pa.Table:
        keep = pc.less_equal(b["punct_ratio"],
                             pa.scalar(args.max_punct, type=pa.float64()))
        return b.filter(keep).select([args.id_col, "text"])

    ds = analyze_text(ds).map_batches(gate, batch_format="pyarrow")

    # repetition gate: join the per-doc dup_frac back in the same
    # streamed pass (the scores stage emits id+text-aligned batches)
    def rep_gate(b: pa.Table) -> pa.Table:
        keep = pc.less_equal(b["dup_frac"],
                             pa.scalar(args.max_dup_frac,
                                       type=pa.float64()))
        return b.filter(keep).select([args.id_col, "text"])

    ds = repetition_scores(
        ds, n=3, text_col="text", id_col=args.id_col,
        keep=["text"]).map_batches(rep_gate, batch_format="pyarrow")

    if args.max_top_frac is not None:
        # boilerplate gate: corpus top-100 words from one pruned-column
        # counting pass; the list broadcasts once. The counting pass
        # applies the SAME redact+normalize transforms as the gated
        # stream — counting raw text would fill the top list with
        # mixed-case / whitespace-glued tokens the normalized docs can
        # never match, silently understating every top_frac
        from arcade_ray.textops import top_word_fraction, word_counts_sep

        wc_ds = normalize_text(
            redact_pii(
                read_parquet_clean(args.input,
                                   columns=[args.id_col, args.text_col]),
                text_col=args.text_col),
            text_col=args.text_col, out_col="text", keep=[])
        wc = word_counts_sep(wc_ds, text_col="text")
        order = pc.sort_indices(wc, sort_keys=[("n", "descending"),
                                               ("word", "ascending")])
        top = wc.take(order).slice(0, 100)["word"].to_pylist()

        def top_gate(b: pa.Table) -> pa.Table:
            keep = pc.less_equal(b["top_frac"],
                                 pa.scalar(args.max_top_frac,
                                           type=pa.float64()))
            return b.filter(keep).select([args.id_col, "text"])

        ds = top_word_fraction(
            ds, top, text_col="text", id_col=args.id_col,
            keep=["text"]).map_batches(top_gate, batch_format="pyarrow")

    if args.max_passage_dup is not None:
        # substring-level (cross-doc) duplication gate: drop docs whose
        # corpus-duplicated trigram-position fraction exceeds the bound
        from arcade_ray.textops import drop_dup_passages

        ds = drop_dup_passages(ds, n=3, max_frac=args.max_passage_dup,
                               text_col="text", id_col=args.id_col)

    ds = exact_dedup(ds, text_col="text", id_col=args.id_col)
    if args.eval:
        ev = read_parquet_clean(args.eval, columns=[args.text_col])
        ds = decontaminate(ds, ev, n=13, text_col="text",
                           id_col=args.id_col,
                           eval_text_col=args.text_col)

    # vocabulary tokenization (id 0 = OOV). Python's salted hash() is
    # NOT usable here: each Ray worker process has its own seed, so the
    # same word would map to different ids in different tasks. The
    # cleaned stream is materialized once (spillable) because the
    # vocab-count pass and the tokenize pass both consume it.
    from arcade_ray.textops import build_vocab, tokenize_with_vocab

    ds = ds.materialize()
    vocab = build_vocab(ds, max_size=args.vocab_size, text_col="text")
    tok = tokenize_with_vocab(ds, vocab, text_col="text",
                              id_col=args.id_col)
    packed = pack_sequences(
        tok.map_batches(lambda b: b.select(["tokens"]),
                        batch_format="pyarrow"),
        max_len=args.max_len)
    packed.write_parquet(args.out)

    # a fully-filtered corpus writes nothing — report 0, don't crash
    n_examples = read_parquet_clean(args.out).count() \
        if os.path.isdir(args.out) else 0
    print({"input_docs": n_in, "examples": n_examples,
           "max_len": args.max_len, "out": args.out,
           "wall_s": round(time.time() - t0, 2)})
    return 0


if __name__ == "__main__":
    sys.exit(main())
