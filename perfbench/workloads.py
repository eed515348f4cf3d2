"""The four workloads: set-up, one closed-loop operation, oracle checks.

One client issues one operation at a time. Every operation's result is
checked against an oracle computed from the raw inputs (pyarrow,
numpy or DuckDB), outside the timed region; an operation that fails or
returns a wrong or empty result is counted as failed and its time is
not used.

Every operation is timed twice: wall-clock seconds, and CPU seconds of
the driver plus the Ray session's processes (``Timed``). Workload
operations (the unit of ``op_cpu_ms_p50`` and the wall-clock figures):
  ingest  one ``encode_parquet`` of the corpus into a fresh directory
  scan    one full decode pass over the encoded corpus (``scan``)
  curate  one ``lookup``, ``equi_filter`` or ``random_access`` call
  join    one ``copartition_join`` followed by one Q3 top-k query
"""

from __future__ import annotations

import contextlib
import os
import shutil
import statistics
import time
import traceback

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import inputs
from .teardown import log
from .trace import Tracer

MIN_OPS = 3
MAX_CONSECUTIVE_ERRORS = 5
CURATE_PLAN = 600     # pre-generated curate operations, reused cyclically
RA_IDS = 4            # row ids per random_access call
HOT_SOURCES = 2       # equi_filter alternates these largest sources with the smaller half


class Timed:
    """Wall and CPU seconds of a block, ``with Timed(ctx.session_cpu) as
    t: ...``, then ``t.wall`` and ``t.cpu``: the driver's CPU time plus
    that of the session whose clock is given (see ``Ctx``). The session
    clock is read outside the wall and the driver's CPU intervals, so
    reading it counts in neither."""

    def __init__(self, session_cpu):
        self.session_cpu = session_cpu

    def __enter__(self):
        self.s0 = self.session_cpu()
        self.d0 = time.process_time()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self.t0
        driver = time.process_time() - self.d0
        self.cpu = driver + self.session_cpu() - self.s0


class Setup:
    """Named set-up phases, each timed as wall and CPU seconds (see
    ``Timed``); ``repeat`` runs a phase ``repeats`` times and keeps the
    medians."""

    def __init__(self, session_cpu, repeats: int = 3):
        self.session_cpu, self.repeats = session_cpu, repeats
        self.wall: dict[str, float] = {}
        self.cpu: dict[str, float] = {}

    def add(self, name: str, wall: float, cpu: float) -> None:
        self.wall[name] = self.wall.get(name, 0.0) + wall
        self.cpu[name] = self.cpu.get(name, 0.0) + cpu

    @contextlib.contextmanager
    def phase(self, name: str):
        with Timed(self.session_cpu) as t:
            yield
        self.add(name, t.wall, t.cpu)

    def repeat(self, name: str, fn):
        took, out = [], None
        for _ in range(self.repeats):
            with Timed(self.session_cpu) as t:
                out = fn()
            took.append(t)
        self.add(name, statistics.median(t.wall for t in took),
                 statistics.median(t.cpu for t in took))
        return out

    def cpu_total(self) -> float:
        return sum(self.cpu.values())


class Tally:
    """Checked operations and failures, shared by a run's contexts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0


class Ctx:
    """One run's settings and shared state. ``session_cpu`` is a clock
    of the CPU seconds used by the Ray session's processes, the driver
    excluded."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 tracer: Tracer, work: str, session_cpu, inject: str = "",
                 tally: Tally | None = None):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.tracer, self.work, self.inject = tracer, work, inject
        self.tally = tally or Tally()
        self.session_cpu = session_cpu

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def sub(self, name: str) -> "Ctx":
        """Same run, tracer and tally; its own scratch directory."""
        return Ctx(self.workload, self.seed, self.seconds, self.tracer,
                   self.path(name), self.session_cpu, self.inject, self.tally)

    def check(self, ok: bool, what: str, new_op: bool = True) -> bool:
        """Count one checked operation (or, with ``new_op=False``, a
        later check of an operation already counted)."""
        self.tally.attempted += new_op
        if not ok:
            self.tally.failed += 1
            log(f"wrong result: {what}")
        return ok

    def error(self) -> None:
        """An operation that raised."""
        self.tally.attempted += 1
        self.tally.failed += 1


def token_digest(col) -> tuple[int, int]:
    """(token count, order-free digest) of a list<int32> column: each
    token is mixed with its position in its row, then summed."""
    n, h = 0, 0
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    for chunk in chunks:
        vals = pc.list_flatten(chunk).to_numpy(zero_copy_only=False)
        lens = pc.list_value_length(chunk).to_numpy(zero_copy_only=False)
        lens = lens.astype(np.int64)
        starts = np.repeat(np.cumsum(lens) - lens, lens)
        pos = (np.arange(len(vals), dtype=np.int64) - starts).astype(np.uint64)
        x = vals.view(np.uint32).astype(np.uint64) | (pos << np.uint64(32))
        x *= np.uint64(0x9E3779B97F4A7C15)
        x ^= x >> np.uint64(29)
        h = (h + int(x.sum(dtype=np.uint64))) % (1 << 64)
        n += len(vals)
    return n, h


def encoded_size(out_dir: str) -> int:
    """Bytes of the committed partition files (read from disk)."""
    from arcade_ray.pipeline.encode import load_manifest

    return sum(os.path.getsize(p) for p in load_manifest(out_dir)["path"].to_pylist())


def ds_operators(ds) -> list[dict]:
    """Per-operator numbers from Ray Data's own stats of an executed
    Dataset: name, task wall time, UDF time, output rows."""
    out = []

    def walk(summary):
        for parent in summary.parents:
            walk(parent)
        for op in summary.operators_stats:
            out.append({
                "name": op.operator_name,
                "wall_s": (op.wall_time or {}).get("sum", 0.0),
                "udf_s": (op.udf_time or {}).get("sum", 0.0),
                "rows_out": int((op.output_num_rows or {}).get("sum", 0)),
            })

    walk(ds._get_stats_summary())
    return out


class Workload:
    """Base: subclasses fill ``setup``, ``op`` (-> [(wall s, CPU s,
    result correct)]) and ``finish`` (checks that need the whole run)."""

    raw_bytes = 0
    enc_dirs: list[str] = []

    def __init__(self, ctx: Ctx):
        self.ctx = ctx
        self.tr = ctx.tracer

    def setup(self, setup: Setup) -> None:
        raise NotImplementedError

    def op(self) -> list[tuple[float, float, bool]]:
        raise NotImplementedError

    def finish(self) -> None:
        pass

    def bytes_per_raw_byte(self) -> float:
        return sum(encoded_size(d) for d in self.enc_dirs) / self.raw_bytes

    # shared corpus set-up ---------------------------------------------------
    def _corpus_inputs(self, setup: Setup) -> pa.Table:
        def make():
            t = inputs.corpus_table(self.ctx.seed)
            inputs.write_corpus(t, self.corpus_dir)
            return t

        self.corpus_dir = self.ctx.path("corpus")
        table = setup.repeat("inputs", make)
        self.rows = table.num_rows
        self.raw_bytes = table.nbytes
        return table

    def _pre_encode(self, setup: Setup) -> str:
        from arcade_ray.pipeline.encode import encode_parquet

        enc = self.ctx.path("enc")
        with setup.phase("pre_encode"), \
                self.tr.span("pipeline.encode.encode_parquet") as a:
            m = encode_parquet(self.corpus_dir, enc)
        a["manifest"] = m.select(["rows", "raw_bytes", "encode_s"]).to_pydict()
        self.enc_dirs = [enc]
        return enc


class Ingest(Workload):
    def setup(self, setup):
        from arcade_ray.pipeline.encode import encode_parquet

        self._corpus_inputs(setup)
        self.enc = self.ctx.path("enc")
        self.enc_dirs = [self.enc]
        warm = self.ctx.path("warm")
        first_shard = sorted(os.listdir(self.corpus_dir))[0]
        with setup.phase("warm_up"):
            encode_parquet(os.path.join(self.corpus_dir, first_shard), warm)
        shutil.rmtree(warm)
        self.first = None

    def op(self):
        from arcade_ray.pipeline.encode import encode_parquet

        shutil.rmtree(self.enc, ignore_errors=True)  # a rerun would resume
        with Timed(self.ctx.session_cpu) as t, \
                self.tr.span("pipeline.encode.encode_parquet") as a:
            m = encode_parquet(self.corpus_dir, self.enc)
        a["manifest"] = m.select(["rows", "raw_bytes", "encode_s"]).to_pydict()
        # every encode must commit the same partitions; the last one is
        # checked end to end in finish()
        layout = sorted(zip(m["part_key"].to_pylist(), m["crc32"].to_pylist()))
        if self.first is None:
            self.first = layout
        ok = self.ctx.check(
            sum(m["rows"].to_pylist()) == self.rows and layout == self.first
            and all(b > 0 for b in m["enc_bytes"].to_pylist()),
            "encode_parquet manifest")
        return [(t.wall, t.cpu, ok)]

    def finish(self):
        from arcade_ray.collect import collect_arrow
        from arcade_ray.pipeline.decode import decode_dataset
        from arcade_ray.pipeline.verify import table_fingerprint

        want = inputs.corpus_table(self.ctx.seed)
        got = collect_arrow(decode_dataset(self.enc)).select(want.column_names)
        if self.ctx.inject == "oracle":
            want = want.slice(1)
        same = (table_fingerprint(got) == table_fingerprint(want)
                and got.sort_by("doc_id").equals(want.sort_by("doc_id")))
        self.ctx.check(same, "ingest round trip of the last encode", new_op=False)


class Scan(Workload):
    def setup(self, setup):
        table = self._corpus_inputs(setup)
        self.expect = token_digest(table["tokens"])
        del table
        self.enc = self._pre_encode(setup)
        with setup.phase("warm_up"):
            self.op()
        if self.ctx.inject == "oracle":
            self.expect = (self.expect[0], self.expect[1] ^ 1)

    def op(self):
        from arcade_ray.pipeline.query import scan

        with Timed(self.ctx.session_cpu) as t, self.tr.span("pipeline.query.scan") as a:
            ds = scan(self.enc, columns=["tokens"])
            batches = list(ds.iter_batches(batch_format="pyarrow",
                                           batch_size=None))
        if self.tr.enabled:
            a["operators"] = ds_operators(ds)
        got = token_digest(pa.chunked_array(
            [c for b in batches for c in b["tokens"].chunks],
            type=pa.list_(pa.int32())))
        ok = self.ctx.check(got == self.expect and got[0] > 0,
                            f"scan digest {got} != {self.expect}")
        return [(t.wall, t.cpu, ok)]


class Curate(Workload):
    """Seeded closed loop of lookup / equi_filter / random_access."""

    def setup(self, setup):
        from arcade_ray.format import decode_partition
        from arcade_ray.pipeline.encode import load_manifest

        table = self._corpus_inputs(setup)
        self.enc = self._pre_encode(setup)
        rng = np.random.default_rng([self.ctx.seed, 7])
        n = table.num_rows
        # the engine's global row order: partitions in manifest order
        manifest = load_manifest(self.enc)
        order = pa.concat_arrays([
            decode_partition(p, columns=["doc_id"])["doc_id"].combine_chunks()
            for p in manifest["path"].to_pylist()])
        self.part_ends = np.cumsum(manifest["rows"].to_numpy())
        counts = table.group_by("source").aggregate([("source", "count")])
        ranked = counts.sort_by([("source_count", "descending"), ("source", "ascending")])
        names = ranked["source"].to_pylist()
        hot, cold = names[:HOT_SOURCES], names[len(names) // 2:]
        # lookups walk the rows sorted by source with a seeded Weyl
        # sequence, so every run hits each source in proportion to its
        # rows (latency depends on the partition a row lives in)
        by_src = table.sort_by([("source", "ascending"), ("doc_id", "ascending")])
        docs = by_src["doc_id"].combine_chunks()
        u0 = float(rng.random())
        self.plan = []  # (kind, argument, expected)
        for i in range(CURATE_PLAN):
            kind = ("lookup", "equi_filter", "random_access")[i % 3]
            if kind == "lookup":
                r = int((u0 + i * 0.6180339887498949) % 1.0 * n)
                self.plan.append((kind, docs[r].as_py(),
                                  (by_src["n_tok"][r].as_py(),
                                   token_digest(by_src["tokens"].slice(r, 1)))))
            elif kind == "equi_filter":
                pool = hot if (i // 3) % 2 == 0 else cold
                self.plan.append((kind, pool[(i // 6) % len(pool)], None))
            else:
                ids = sorted({int(x) for x in rng.integers(0, n, RA_IDS)})
                self.plan.append((kind, ids, order.take(pa.array(ids)).to_pylist()))
        by_source = {}
        for s in set(hot + cold):
            sel = table.filter(pc.equal(table["source"], s))
            by_source[s] = (sorted(sel["doc_id"].to_pylist()),
                            int(pc.sum(sel["n_tok"]).as_py()))
        self.by_source = by_source
        self.n_tok_of = dict(zip(docs.to_pylist(), by_src["n_tok"].to_pylist()))
        if self.ctx.inject == "oracle":
            for s in hot:
                ids, n_tok = self.by_source[s]
                self.by_source[s] = (ids, n_tok + 1)
        del table, by_src, docs, order
        self.i = 0
        with setup.phase("warm_up"):
            for _ in range(6):
                self.op()

    def run_one(self, kind, arg):
        """-> (Timed, result table)."""
        from arcade_ray.collect import collect_arrow
        from arcade_ray.pipeline.query import equi_filter, lookup, random_access

        with Timed(self.ctx.session_cpu) as t, self.tr.span(f"curate.{kind}") as a:
            if kind == "lookup":
                with self.tr.span("pipeline.query.lookup"):
                    ds = lookup(self.enc, "doc_id", [arg],
                                columns=["doc_id", "n_tok", "tokens"])
            elif kind == "equi_filter":
                with self.tr.span("pipeline.query.equi_filter"):
                    ds = equi_filter(self.enc, "source", arg,
                                     project=["doc_id", "n_tok"])
            else:
                ds = None
                with self.tr.span("pipeline.query.random_access"):
                    out = random_access(self.enc, arg, columns=["doc_id", "n_tok"])
            if ds is not None:
                with self.tr.span("collect.collect_arrow"):
                    out = collect_arrow(ds)
        if self.tr.enabled:
            a["rows_out"] = out.num_rows
            if ds is None:
                parts = np.searchsorted(self.part_ends, arg, side="right")
                a["partitions"] = len(np.unique(parts))
            else:
                a["operators"] = ops = ds_operators(ds)
                a["partitions"] = sum(o["rows_out"] for o in ops
                                      if o["name"].startswith("FromItems"))
        return t, out

    def verify(self, kind, arg, expect, out) -> bool:
        if kind == "lookup":
            return (out.num_rows == 1 and out["doc_id"][0].as_py() == arg
                    and (out["n_tok"][0].as_py(), token_digest(out["tokens"])) == expect)
        if kind == "equi_filter":
            ids, n_tok = self.by_source[arg]
            return (out.num_rows == len(ids) > 0
                    and sorted(out["doc_id"].to_pylist()) == ids
                    and int(pc.sum(out["n_tok"]).as_py()) == n_tok)
        got = out.sort_by("row_id")
        return (got["row_id"].to_pylist() == arg
                and got["doc_id"].to_pylist() == expect
                and got["n_tok"].to_pylist() == [self.n_tok_of[d] for d in expect])

    def op(self):
        kind, arg, expect = self.plan[self.i % len(self.plan)]
        self.i += 1
        t, out = self.run_one(kind, arg)
        return [(t.wall, t.cpu, self.ctx.check(self.verify(kind, arg, expect, out),
                                               f"{kind}({arg})"))]


# Q3-style top-20 revenue; ranks by the unrounded sum, ties on l_orderkey
Q3_SQL = (
    "SELECT l_orderkey, round(revenue, 2) FROM ("
    "SELECT l_orderkey, sum(l_extendedprice * (1 - l_discount)) AS revenue "
    "FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
    "JOIN customer ON o_custkey = c_custkey "
    "WHERE c_mktsegment = 'BUILDING' AND o_orderdate < TIMESTAMP '1998-01-01' "
    "GROUP BY l_orderkey ORDER BY revenue DESC, l_orderkey LIMIT 20)")


class Join(Workload):
    LEFT_COLS = ["l_orderkey", "l_quantity"]
    RIGHT_COLS = ["o_orderpriority"]

    def setup(self, setup):
        from arcade_ray import entry_queries as eq

        self.sf = self.ctx.path("sf")

        def make():
            t = inputs.tpch_tables(self.ctx.seed)
            inputs.write_tpch(t, self.sf)
            return t

        tables = setup.repeat("inputs", make)
        self.raw_bytes = sum(t.nbytes for t in tables.values())
        del tables
        with setup.phase("pre_encode"):
            self.enc_dirs = [eq.encoded_dir(self.sf, t)
                             for t in ("customer", "orders", "lineitem")]
        self.lineitem, self.orders = self.enc_dirs[2], self.enc_dirs[1]
        self.expect = self._oracle()
        with setup.phase("warm_up"):
            self.op()

    def _oracle(self):
        import duckdb

        con = duckdb.connect()
        try:
            for t in ("customer", "orders", "lineitem"):
                con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                            f"read_parquet('{os.path.join(self.sf, t)}.parquet')")
            join = con.execute(
                "SELECT count(*), sum(l_orderkey), sum(l_quantity) FROM lineitem "
                "JOIN orders ON l_orderkey = o_orderkey").fetchone()
            by_prio = dict(con.execute(
                "SELECT o_orderpriority, count(*) FROM lineitem JOIN orders "
                "ON l_orderkey = o_orderkey GROUP BY 1").fetchall())
            q3 = con.execute(Q3_SQL).fetchall()
        finally:
            con.close()
        if self.ctx.inject == "oracle":
            join = (join[0] + 1,) + tuple(join[1:])
        return join, by_prio, q3

    def op(self):
        from arcade_ray import entry_queries as eq
        from arcade_ray.collect import collect_arrow
        from arcade_ray.pipeline.join import copartition_join

        with Timed(self.ctx.session_cpu) as t, self.tr.span("join.round") as a:
            t0 = time.perf_counter()
            with self.tr.span("pipeline.join.copartition_join"):
                ds = copartition_join(self.lineitem, self.orders, left_key="l_orderkey",
                                      right_key="o_orderkey",
                                      left_cols=self.LEFT_COLS,
                                      right_cols=self.RIGHT_COLS)
            with self.tr.span("collect.collect_arrow"):
                joined = collect_arrow(ds)
            t1 = time.perf_counter()
            with self.tr.span("entry_queries.q_q3_revenue_topk"):
                top = eq.q_q3_revenue_topk(self.sf)
            a.update(join_s=t1 - t0, q3_s=time.perf_counter() - t1,
                     rows_out=joined.num_rows)
        if self.tr.enabled:
            a["operators"] = ds_operators(ds)
        (n, ksum, qsum), by_prio, q3 = self.expect
        ok_join = self.ctx.check(
            joined.num_rows == n > 0
            and pc.sum(joined["l_orderkey"]).as_py() == ksum
            and pc.sum(joined["l_quantity"]).as_py() == qsum
            and {r["values"]: r["counts"] for r in
                 joined["o_orderpriority"].value_counts().to_pylist()} == by_prio,
            "copartition_join vs DuckDB")
        got = list(zip(top["l_orderkey"].to_pylist(), top["revenue"].to_pylist()))
        ok_q3 = self.ctx.check(
            len(got) == len(q3) == 20
            and all(a[0] == b[0] and abs(a[1] - b[1]) <= 0.011
                    for a, b in zip(got, q3)),
            "q3 top-20 vs DuckDB")
        return [(t.wall, t.cpu, ok_join and ok_q3)]


WORKLOADS = {"ingest": Ingest, "scan": Scan, "curate": Curate, "join": Join}


def measure(ctx: Ctx, wl: Workload) -> list[tuple[float, float]]:
    """Closed loop: start operations until ``ctx.seconds`` have passed
    and at least MIN_OPS ran; -> (wall s, CPU s) of the correct ones (of
    all, if none was: the run is then reported as failed anyway)."""
    done: list[tuple[float, float, bool]] = []
    errors = 0
    t_start = time.perf_counter()
    while len(done) < MIN_OPS or time.perf_counter() - t_start < ctx.seconds:
        if ctx.inject == "crash" and time.perf_counter() - t_start > ctx.seconds / 2:
            os._exit(3)  # self-test: die without shutting anything down
        try:
            done.extend(wl.op())
            errors = 0
        except Exception:
            traceback.print_exc()
            ctx.error()
            errors += 1
            if errors >= MAX_CONSECUTIVE_ERRORS:
                raise
    return ([(w, c) for w, c, ok in done if ok]
            or [(w, c) for w, c, _ in done])
