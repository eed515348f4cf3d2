"""Per-layer metrics for the traced run.

Every traced run reports every layer metric, whatever its workload:
after the workload's own traced loop it runs fixed probes on the same
seed. Layers are named after the program's modules; each value comes
from spans taken around calls into that module's public functions, or
from Ray Data's own Dataset stats.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from . import inputs
from .trace import duration
from .workloads import Curate, Join, Scan, Setup, encoded_size, token_digest

REPS = 3
QUERY_PROBE_OPS = 15  # traced operations per type, on top of the curate loop's
CORPUS_COLUMNS = ("doc_id", "tokens", "n_tok", "source")
QUERY_OPS = ("lookup", "equi_filter", "random_access")


def _metric_table() -> dict[str, tuple[str, str]]:
    """name -> (unit, better). The list BENCHMARK.json's per_layer holds."""
    m: dict[str, tuple[str, str]] = {}
    for s in inputs.INT_STREAMS + inputs.STR_STREAMS:
        m[f"codecs.encode_mb_s.{s}"] = ("MB/s", "higher")
        m[f"codecs.decode_mb_s.{s}"] = ("MB/s", "higher")
        m[f"codecs.bytes_per_value.{s}"] = ("B", "lower")
    m["profile.int_mb_s"] = ("MB/s", "higher")
    m["profile.str_mb_s"] = ("MB/s", "higher")
    for c in CORPUS_COLUMNS:
        m[f"format.encode_partition_s.{c}"] = ("s", "lower")
        m[f"format.decode_partition_s.{c}"] = ("s", "lower")
        m[f"format.enc_bytes.{c}"] = ("B", "lower")
    m["planner.build_plan_s"] = ("s", "lower")
    m["encode.wall_s"] = ("s", "lower")
    m["encode.partition_cpu_s"] = ("s", "lower")
    m["encode.outside_partition_s"] = ("s", "lower")
    m["encode.partitions"] = ("count", "lower")
    m["encode.part_skew"] = ("ratio", "lower")
    m["encode.bytes_per_token"] = ("B", "lower")
    m["scan.wall_s"] = ("s", "lower")
    m["scan.decode_partition_cpu_s"] = ("s", "lower")
    m["scan.outside_decode_s"] = ("s", "lower")
    m["query.load_manifest_ms"] = ("ms", "lower")
    for op in QUERY_OPS:
        m[f"query.{op}.ms_p50"] = ("ms", "lower")
        m[f"query.{op}.ms_p90"] = ("ms", "lower")
        m[f"query.{op}.partitions_touched"] = ("count", "lower")
        m[f"query.{op}.rows_out"] = ("count", "higher")
    for op in ("lookup", "equi_filter"):
        m[f"query.{op}.dispatch_ms"] = ("ms", "lower")
    m["join.copartition.wall_s"] = ("s", "lower")
    m["join.copartition.split_s"] = ("s", "lower")
    m["join.copartition.collect_s"] = ("s", "lower")
    m["join.copartition.operators"] = ("count", "lower")
    m["join.copartition.ops_wall_s"] = ("s", "lower")
    m["join.copartition.slowest_op_wall_s"] = ("s", "lower")
    m["join.copartition.rows_out"] = ("count", "higher")
    m["join.q3.wall_s"] = ("s", "lower")
    m["trace.op_ms_p50"] = ("ms", "lower")
    m["trace.op_cpu_ms_p50"] = ("ms", "lower")
    return m


METRICS = _metric_table()


def _timed(tr, name: str, fn, reps: int = REPS, **attrs):
    """Run ``fn`` ``reps`` times, each inside a span; -> (median s, out)."""
    took, out = [], None
    for _ in range(reps):
        with tr.span(name, **attrs):
            t0 = time.perf_counter()
            out = fn()
            took.append(time.perf_counter() - t0)
    return statistics.median(took), out


def _p(xs: list[float], q: int) -> float:
    """q-th percentile (statistics' inclusive method)."""
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def codecs_probe(ctx, out: dict) -> None:
    from arcade_ray.codecs.int_codecs import choose_int_codec, decode_int
    from arcade_ray.codecs.str_codecs import choose_str_codec, decode_str
    from arcade_ray.profile import profile_int, profile_str

    tr = ctx.tracer
    prof_s, prof_b = 0.0, 0
    for s in inputs.INT_STREAMS:
        v = inputs.int_stream(s, ctx.seed)
        raw = 4 * len(v)  # int32 tokens
        t, p = _timed(tr, "profile.profile_int", lambda: profile_int(v), stream=s)
        prof_s, prof_b = prof_s + t, prof_b + raw
        t_enc, (codec, payload, meta) = _timed(
            tr, "codecs.choose_int_codec", lambda: choose_int_codec(v, p, "i32"), stream=s)
        t_dec, back = _timed(tr, "codecs.decode_int",
                             lambda: decode_int(codec, payload, meta, len(v)), stream=s)
        ctx.check(np.array_equal(back, v), f"int codec {codec} round trip on {s}")
        out[f"codecs.encode_mb_s.{s}"] = raw / t_enc / 1e6
        out[f"codecs.decode_mb_s.{s}"] = raw / t_dec / 1e6
        out[f"codecs.bytes_per_value.{s}"] = len(payload) / len(v)
    out["profile.int_mb_s"] = prof_b / prof_s / 1e6
    prof_s, prof_b = 0.0, 0
    for s in inputs.STR_STREAMS:
        lengths, data = inputs.str_stream(s, ctx.seed)
        t, p = _timed(tr, "profile.profile_str", lambda: profile_str(lengths, data), stream=s)
        prof_s, prof_b = prof_s + t, prof_b + len(data)
        t_enc, (codec, payload, meta) = _timed(
            tr, "codecs.choose_str_codec", lambda: choose_str_codec(lengths, data, p), stream=s)
        t_dec, (bl, bd) = _timed(tr, "codecs.decode_str",
                                 lambda: decode_str(codec, payload, meta, len(lengths)), stream=s)
        ctx.check(np.array_equal(bl, lengths) and bytes(bd) == data,
                  f"str codec {codec} round trip on {s}")
        out[f"codecs.encode_mb_s.{s}"] = len(data) / t_enc / 1e6
        out[f"codecs.decode_mb_s.{s}"] = len(data) / t_dec / 1e6
        out[f"codecs.bytes_per_value.{s}"] = len(payload) / len(lengths)
    out["profile.str_mb_s"] = prof_b / prof_s / 1e6


def format_probe(ctx, out: dict) -> None:
    """encode_partition / decode_partition column by column over the
    corpus split by source, as the pipeline partitions it."""
    from arcade_ray.format import decode_partition, encode_partition

    tr = ctx.tracer
    table = inputs.corpus_table(ctx.seed).sort_by([("source", "ascending"),
                                                   ("doc_id", "ascending")])
    src = table["source"].to_numpy(zero_copy_only=False)
    cuts = [0, *np.flatnonzero(src[1:] != src[:-1]) + 1, len(src)]
    path = ctx.path("format_probe.arcr")
    for col in CORPUS_COLUMNS:
        enc_s = dec_s = 0.0
        nbytes, ok = 0, True
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            part = table.select([col]).slice(lo, hi - lo)
            with tr.span("format.encode_partition", column=col):
                t0 = time.perf_counter()
                blob, _ = encode_partition(part, str(src[lo]))
                enc_s += time.perf_counter() - t0
            nbytes += len(blob)
            with open(path, "wb") as f:
                f.write(blob)
            with tr.span("format.decode_partition", column=col):
                t0 = time.perf_counter()
                back = decode_partition(path, columns=[col])
                dec_s += time.perf_counter() - t0
            ok = ok and back.equals(part)
        ctx.check(ok, f"format round trip of {col}")
        out[f"format.encode_partition_s.{col}"] = enc_s
        out[f"format.decode_partition_s.{col}"] = dec_s
        out[f"format.enc_bytes.{col}"] = nbytes
    os.remove(path)


def planner_probe(ctx, corpus_dir: str, n_tokens: int, out: dict) -> None:
    from arcade_ray.planner import build_plan
    from arcade_ray.sources import read_parquet_clean

    t, plan = _timed(ctx.tracer, "planner.build_plan",
                     lambda: build_plan(read_parquet_clean(corpus_dir), "source",
                                        "doc_id", "n_tok"), reps=2)
    ctx.check(sum(plan.source_weights.values()) == n_tokens, "build_plan weights")
    out["planner.build_plan_s"] = t


def encode_metrics(ctx, enc_dir: str, n_tokens: int, cpus: int, out: dict) -> None:
    spans = [s for s in ctx.tracer.spans
             if s["name"] == "pipeline.encode.encode_parquet" and "manifest" in s["attrs"]]
    wall = [duration(s) for s in spans]
    cpu = [sum(s["attrs"]["manifest"]["encode_s"]) for s in spans]
    raw = spans[-1]["attrs"]["manifest"]["raw_bytes"]
    out["encode.wall_s"] = statistics.median(wall)
    out["encode.partition_cpu_s"] = statistics.median(cpu)
    out["encode.outside_partition_s"] = statistics.median(
        w - c / cpus for w, c in zip(wall, cpu))
    out["encode.partitions"] = len(raw)
    out["encode.part_skew"] = max(raw) / (sum(raw) / len(raw))
    out["encode.bytes_per_token"] = encoded_size(enc_dir) / n_tokens


def scan_metrics(ctx, out: dict) -> None:
    spans = [s for s in ctx.tracer.spans
             if s["name"] == "pipeline.query.scan" and "operators" in s["attrs"]]
    wall = [duration(s) for s in spans]
    udf = [sum(o["udf_s"] for o in s["attrs"]["operators"]) for s in spans]
    out["scan.wall_s"] = statistics.median(wall)
    out["scan.decode_partition_cpu_s"] = statistics.median(udf)
    out["scan.outside_decode_s"] = statistics.median(w - u for w, u in zip(wall, udf))


def query_metrics(ctx, cur: Curate, out: dict) -> None:
    from arcade_ray.pipeline.encode import load_manifest

    t, _ = _timed(ctx.tracer, "pipeline.encode.load_manifest",
                  lambda: load_manifest(cur.enc), reps=5)
    out["query.load_manifest_ms"] = t * 1e3
    for op in QUERY_OPS:
        spans = [s for s in ctx.tracer.spans if s["name"] == f"curate.{op}"]
        ms = [duration(s) * 1e3 for s in spans]
        out[f"query.{op}.ms_p50"] = statistics.median(ms)
        out[f"query.{op}.ms_p90"] = _p(ms, 90)
        out[f"query.{op}.rows_out"] = statistics.median(s["attrs"]["rows_out"] for s in spans)
        out[f"query.{op}.partitions_touched"] = statistics.median(
            s["attrs"]["partitions"] for s in spans)
        if op != "random_access":
            out[f"query.{op}.dispatch_ms"] = statistics.median(
                (duration(s) - sum(o["wall_s"] for o in s["attrs"]["operators"])) * 1e3
                for s in spans)


def join_metrics(ctx, out: dict) -> None:
    spans = ctx.tracer.spans
    rounds = [s for s in spans if s["name"] == "join.round"]

    def med_child(name):
        """Median duration of the round's child span ``name``."""
        return statistics.median(duration(c) for r in rounds for c in spans
                                 if c["parent"] == r["id"] and c["name"] == name)

    def med(xs):
        return statistics.median(list(xs))

    ops = [r["attrs"]["operators"] for r in rounds]
    out["join.copartition.wall_s"] = med(r["attrs"]["join_s"] for r in rounds)
    out["join.copartition.split_s"] = med_child("pipeline.join.copartition_join")
    out["join.copartition.collect_s"] = med_child("collect.collect_arrow")
    out["join.copartition.operators"] = med(len(o) for o in ops)
    out["join.copartition.ops_wall_s"] = med(sum(x["wall_s"] for x in o) for o in ops)
    out["join.copartition.slowest_op_wall_s"] = med(max(x["wall_s"] for x in o) for o in ops)
    out["join.copartition.rows_out"] = med(r["attrs"]["rows_out"] for r in rounds)
    out["join.q3.wall_s"] = med(r["attrs"]["q3_s"] for r in rounds)


def collect(ctx, wl, loop: list[tuple[float, float]], cpus: int) -> dict:
    """Run the fixed probes and return every per-layer metric; ``loop``
    holds the (wall s, CPU s) of the traced loop's operations."""
    out: dict = {"trace.op_ms_p50": statistics.median(w for w, _ in loop) * 1e3,
                 "trace.op_cpu_ms_p50": statistics.median(c for _, c in loop) * 1e3}
    codecs_probe(ctx, out)
    format_probe(ctx, out)

    probe = ctx.sub("probe")
    if isinstance(wl, Curate):
        cur = wl
    else:
        cur = Curate(probe)
        cur.setup(Setup(probe.session_cpu, repeats=1))
    for _ in range(len(QUERY_OPS) * QUERY_PROBE_OPS):
        cur.op()
    digest = token_digest(inputs.corpus_table(ctx.seed)["tokens"])
    n_tokens = digest[0]
    planner_probe(ctx, cur.corpus_dir, n_tokens, out)
    encode_metrics(ctx, cur.enc, n_tokens, cpus, out)
    if not isinstance(wl, Scan):
        sc = Scan(probe)
        sc.enc, sc.expect = cur.enc, digest
        for _ in range(2):
            sc.op()
    scan_metrics(ctx, out)
    query_metrics(ctx, cur, out)
    if not isinstance(wl, Join):
        Join(probe).setup(Setup(probe.session_cpu, repeats=1))  # its warm-up round is traced
    join_metrics(ctx, out)
    missing = set(METRICS) - set(out)
    if missing:
        raise RuntimeError(f"layer metrics not produced: {sorted(missing)}")
    return {k: out[k] for k in METRICS}
