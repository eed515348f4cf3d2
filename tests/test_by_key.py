"""The keyed exchange (``exchange.by_key``): every operator that
co-locates rows by key answers like DuckDB (or its existing oracle)
at one bucket and at many, through both fragment sinks, with NULL
keys in the data. A NULL key follows SQL: it forms its own group in a
window and never matches in a join."""

import math

import numpy as np
import pyarrow as pa
import pytest

from arcade_ray.collect import collect_arrow
from arcade_ray.pipeline import encode_dataset


def _user_ids(rng, n):
    return pa.array([None if u == 0 else f"u{u}"
                     for u in rng.integers(0, 12, n)], type=pa.string())


def _ts(seconds):
    return pa.array((np.asarray(seconds, dtype=np.int64) * 1_000_000)
                    .astype("datetime64[us]"))


def _tables():
    rng = np.random.default_rng(5)
    n, m = 600, 150
    ev = pa.table({
        "event_id": pa.array(np.arange(n), type=pa.int64()),
        "user_id": _user_ids(rng, n),
        "ts": _ts(rng.integers(0, 20_000, n)),  # ts ties across events
        "value": pa.array(np.round(rng.standard_normal(n) * 10, 2)),
    })
    # unique quote times: the backward as-of match is unambiguous
    qt = pa.table({
        "user_id": _user_ids(rng, m),
        "ts": _ts(rng.choice(20_000, size=m, replace=False)),
        "price": pa.array(np.round(rng.random(m) * 100, 2)),
    })
    users = [None] + [f"u{u}" for u in range(1, 12)]
    seq = []  # non-overlapping intervals per key (range_join)
    for u in users:
        t = 0
        for _ in range(4):
            lo = t + int(rng.integers(1, 3000))
            seq.append((u, lo, lo + int(rng.integers(1, 2000))))
            t = seq[-1][2]
    ivs = pa.table({"user_id": pa.array([s[0] for s in seq], pa.string()),
                    "lo": _ts([s[1] for s in seq]),
                    "hi": _ts([s[2] for s in seq])})
    lo = rng.integers(0, 20_000, 80)
    ivo = pa.table({  # overlapping intervals (interval_join)
        "user_id": _user_ids(rng, 80),
        "lo": _ts(lo), "hi": _ts(lo + rng.integers(0, 4000, 80)),
        "rid": pa.array(np.arange(80), type=pa.int64()),
    })
    pr = pa.table({
        "pid": pa.array(np.arange(400), type=pa.int64()),
        "k": pa.array([None if i % 9 == 0 else int(v) for i, v in
                       enumerate(rng.integers(0, 60, 400))], pa.int64()),
        "grp": pa.array([f"g{i % 3}" for i in range(400)]),
    })
    keys = pa.table({"k": pa.array(
        [None] + list(range(0, 60, 3)), type=pa.int64())})
    base = pa.table({"doc_id": pa.array(np.arange(100), type=pa.int64()),
                     "text": pa.array([f"doc {i}" for i in range(100)])})
    texts = rng.integers(50, 180, 150)  # half seen before, repeats
    nb = pa.table({
        "doc_id": pa.array(np.arange(1000, 1150), type=pa.int64()),
        "text": pa.array([f"doc {i}" for i in texts]),
    })
    # SemDeDup: three clusters of 30, plus five planted near-clones
    centers = rng.standard_normal((3, 16)) * 4
    vecs = [centers[b] + rng.standard_normal(16) * 0.9
            for b in range(3) for _ in range(30)]
    vecs += [centers[0] + 0.05 + rng.standard_normal(16) * 1e-3
             for _ in range(5)]
    emb = pa.table({
        "vec_id": pa.array(np.arange(len(vecs)), pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs],
                              pa.list_(pa.float32()))})
    return dict(ev=ev, qt=qt, ivs=ivs, ivo=ivo, pr=pr, keys=keys,
                base=base, nb=nb, emb=emb)


_W = "PARTITION BY user_id ORDER BY ts, event_id"
ORACLE = {
    "session_windows":
        "WITH g AS (SELECT user_id, ts, CASE WHEN lag(ts) OVER w IS NULL "
        "OR epoch(ts) - epoch(lag(ts) OVER w) > 1800 THEN 1 ELSE 0 END "
        "AS brk FROM ev WINDOW w AS (PARTITION BY user_id ORDER BY ts)), "
        "s AS (SELECT user_id, ts, SUM(brk) OVER (PARTITION BY user_id "
        "ORDER BY ts ROWS UNBOUNDED PRECEDING) AS sid FROM g) "
        "SELECT user_id, MIN(ts) AS session_start, MAX(ts) AS "
        "session_end, COUNT(*) AS n_events FROM s GROUP BY user_id, sid",
    "ranked_gaps":
        f"SELECT event_id, user_id, ts, row_number() OVER ({_W}) AS rn, "
        f"epoch_us(ts) - epoch_us(lag(ts) OVER ({_W})) AS gap_us FROM ev",
    "frame_aggs":
        f"SELECT event_id, SUM(value) OVER ({_W} ROWS BETWEEN UNBOUNDED "
        f"PRECEDING AND CURRENT ROW) AS running_sum, AVG(value) OVER "
        f"({_W} ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS moving_avg "
        "FROM ev",
    "asof_join":
        "SELECT e.event_id, q.price FROM ev e ASOF LEFT JOIN qt q "
        "ON e.user_id = q.user_id AND e.ts >= q.ts",
    "range_join":
        "SELECT e.event_id, s.lo FROM ev e JOIN ivs s ON e.user_id = "
        "s.user_id AND e.ts BETWEEN s.lo AND s.hi",
    "interval_join":
        "SELECT e.event_id, s.rid FROM ev e JOIN ivo s ON e.user_id = "
        "s.user_id AND e.ts BETWEEN s.lo AND s.hi",
    "stratified_sample":
        "SELECT user_id, event_id FROM (SELECT user_id, event_id, "
        "row_number() OVER (PARTITION BY user_id ORDER BY "
        "md5(CAST(event_id AS VARCHAR)), event_id) AS rn FROM ev) "
        "WHERE rn <= 3",
    "semi_join_large": "SELECT pid FROM pr WHERE k IN (SELECT k FROM keys)",
    "anti_join_large":
        "SELECT pid FROM pr WHERE NOT EXISTS (SELECT 1 FROM keys "
        "WHERE keys.k = pr.k)",
    "dedup_against_index":
        "SELECT min(doc_id) AS doc_id FROM nb WHERE text NOT IN "
        "(SELECT text FROM base) GROUP BY text",
    "sql_window":
        f"SELECT event_id, user_id, ROW_NUMBER() OVER ({_W}) AS rn, "
        f"LAG(value) OVER ({_W}) AS lv, SUM(value) OVER ({_W}) AS rs, "
        f"AVG(value) OVER ({_W}) AS ra FROM ev",
    "sql_asof":
        "SELECT e.event_id, q.price FROM ev e ASOF LEFT JOIN qt q "
        "ON e.user_id = q.user_id AND e.ts >= q.ts",
}


@pytest.fixture(scope="module")
def keyed(ray_session, tmp_path_factory):
    import duckdb
    import ray.data as rd

    from arcade_ray.textops import build_dedup_index

    tables = _tables()
    con = duckdb.connect()
    for k, t in tables.items():
        if k != "emb":
            con.register(k, t)
    oracle = {k: con.execute(q).arrow() for k, q in ORACLE.items()}
    con.close()
    base = tmp_path_factory.mktemp("keyed")
    p_dir = str(base / "probe")
    encode_dataset(rd.from_arrow(tables["pr"]), p_dir, key_col="grp",
                   id_col="pid", weight_col=None)
    idx = str(base / "sigidx")
    build_dedup_index(rd.from_arrow(tables["base"]), idx)
    return tables, oracle, p_dir, idx


def _same(mine: pa.Table, want: pa.Table, what: str):
    """Same rows, compared column by column after sorting both on all
    of ``want``'s non-float columns; floats to a relative 1e-9."""
    assert mine.num_rows == want.num_rows, (what, mine.num_rows,
                                            want.num_rows)
    cols = want.column_names
    mine = mine.select(cols)
    keys = [(c, "ascending") for c in cols
            if not pa.types.is_floating(want[c].type)] \
        or [(c, "ascending") for c in cols]
    mine, want = mine.sort_by(keys), want.sort_by(keys)
    for c in cols:
        a, b = mine[c].to_pylist(), want[c].to_pylist()
        if pa.types.is_floating(want[c].type):
            assert all((x is None and y is None) or (
                x is not None and y is not None
                and math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-9))
                for x, y in zip(a, b)), (what, c)
        else:
            assert a == b, (what, c)


def _run_all(tables, p_dir, idx):
    import ray.data as rd

    from arcade_ray.pipeline.join import semi_join_large
    from arcade_ray.sql import sql_query
    from arcade_ray.textops import dedup_against_index
    from arcade_ray.transforms import stratified_sample
    from arcade_ray.windows import (asof_join, frame_aggs, interval_join,
                                    range_join, ranked_gaps,
                                    session_windows)

    def ds(name):
        return rd.from_arrow(tables[name]).repartition(3)

    out = {
        "session_windows": session_windows(ds("ev")),
        "ranked_gaps": ranked_gaps(ds("ev"), tie_col="event_id",
                                   keep=["event_id", "user_id", "ts"]),
        "frame_aggs": frame_aggs(ds("ev"), tie_col="event_id",
                                 keep=["event_id"], window=3),
        "asof_join": asof_join(ds("ev"), ds("qt"), left_cols=["event_id"],
                               right_cols=["price"]),
        "range_join": range_join(ds("ev"), ds("ivs"), lo_col="lo",
                                 hi_col="hi", left_cols=["event_id"]),
        "interval_join": interval_join(ds("ev"), ds("ivo"), lo_col="lo",
                                       hi_col="hi", left_cols=["event_id"],
                                       right_cols=["rid"]),
        "stratified_sample": stratified_sample(
            ds("ev"), key_col="user_id", n_per_group=3, id_col="event_id"),
        "semi_join_large": semi_join_large(p_dir, "k", ["pid"],
                                           ds("keys")),
        "anti_join_large": semi_join_large(p_dir, "k", ["pid"],
                                           ds("keys"), anti=True),
        "dedup_against_index": dedup_against_index(ds("nb"), idx),
    }
    for name in ("sql_window", "sql_asof"):
        out[name] = sql_query(ORACLE[name], dict(tables))
    return {k: _arrow(v) for k, v in out.items()}


def _arrow(x) -> pa.Table:
    return x if isinstance(x, pa.Table) else collect_arrow(x)


@pytest.mark.parametrize("mode", ["objects", "disk"])
@pytest.mark.parametrize("n_buckets", [1, 7])
def test_keyed_operators_any_bucket_count_and_sink(keyed, sink,
                                                   monkeypatch, n_buckets,
                                                   mode):
    """Every keyed operator (NULL keys in the data) matches its oracle
    with every row in one bucket and spread over several, through
    either sink; the disk sink really ran. SemDeDup keeps its planted-
    clone contract: five near-identical vectors collapse to one."""
    import ray.data as rd

    import arcade_ray.exchange as ex
    from arcade_ray.ann import semantic_dedup

    tables, oracle, p_dir, idx = keyed
    monkeypatch.setattr(ex, "key_bucket_count", lambda: n_buckets)
    tags = sink(mode)
    got = _run_all(tables, p_dir, idx)
    for name, want in oracle.items():
        _same(got[name], want, name)
    sem = collect_arrow(semantic_dedup(
        rd.from_arrow(tables["emb"]).repartition(3), threshold=0.999,
        k=3, sample_size=200, seed=1))
    dup = set(sem.filter(sem["is_dup"])["vec_id"].to_pylist())
    assert sem.num_rows == 95 and len(dup) == 4 and dup < set(range(90, 95))
    assert bool(tags) == (mode == "disk")


def test_sql_null_keys_follow_duckdb(keyed):
    """SQL over NULL keys answers like DuckDB: an ASOF LEFT JOIN keeps
    a NULL-key row with NULL right columns (a NULL key never matches),
    and ROW_NUMBER / LAG / SUM / AVG window a NULL PARTITION BY key as
    one partition of its own."""
    from arcade_ray.sql import sql_query

    tables, oracle, _, _ = keyed
    assert tables["ev"]["user_id"].null_count > 0
    for name in ("sql_asof", "sql_window"):
        _same(_arrow(sql_query(ORACLE[name], dict(tables))), oracle[name],
              name)
    nulls = _arrow(sql_query(
        "SELECT e.event_id, q.price FROM ev e ASOF LEFT JOIN qt q "
        "ON e.user_id = q.user_id AND e.ts >= q.ts "
        "WHERE e.user_id IS NULL", dict(tables)))
    assert nulls.num_rows > 0 and nulls["price"].null_count \
        == nulls.num_rows


def test_by_key_empty_input_keeps_schema(ray_session):
    """An input with no rows still gets ``fn`` once, over zero-row
    typed sides, so the result is typed."""
    import ray.data as rd

    from arcade_ray.windows import ranked_gaps, session_windows

    t = _tables()["ev"].slice(0, 0)
    s = collect_arrow(session_windows(rd.from_arrow(t)))
    assert s.num_rows == 0 and s.column_names == [
        "user_id", "session_start", "session_end", "n_events"]
    r = collect_arrow(ranked_gaps(rd.from_arrow(t)))
    assert r.schema.field("rn").type == pa.int64()
