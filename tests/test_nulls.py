"""Null/validity-bitmap round trips across every column kind, plus
null-safe query behavior."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from arcade_ray.format import decode_partition, encode_partition


def make_nullable_table(n=2000, seed=4):
    rng = np.random.default_rng(seed)
    null_at = rng.random(n) < 0.15

    doc_id = [None if null_at[i] and i % 3 == 0 else f"d{i:06d}" for i in range(n)]
    source = [None if null_at[i] else f"s{i % 5}" for i in range(n)]
    n_tok = [None if null_at[i] and i % 2 == 0 else int(rng.integers(0, 1000))
             for i in range(n)]
    value = [None if null_at[i] else float(rng.standard_normal()) for i in range(n)]
    tokens = [None if null_at[i] and i % 4 == 0
              else rng.integers(0, 100, int(rng.integers(0, 8))).tolist()
              for i in range(n)]
    return pa.table({
        "doc_id": pa.array(doc_id, type=pa.string()),
        "source": pa.array(source, type=pa.string()),
        "n_tok": pa.array(n_tok, type=pa.int32()),
        "value": pa.array(value, type=pa.float64()),
        "tokens": pa.array(tokens, type=pa.list_(pa.int32())),
    })


def roundtrip(table, tmp_path, name="p"):
    blob, manifest = encode_partition(table, name)
    path = str(tmp_path / f"{name}.arcr")
    with open(path, "wb") as f:
        f.write(blob)
    out = decode_partition(path)
    for col in table.schema.names:
        a = out[col].combine_chunks()
        b = table[col].combine_chunks()
        assert a.null_count == b.null_count, col
        assert a.equals(b), col
    return path


def test_nullable_roundtrip(tmp_path):
    roundtrip(make_nullable_table(), tmp_path)


def test_all_null_column(tmp_path):
    t = pa.table({
        "doc_id": pa.array([f"d{i}" for i in range(50)]),
        "x": pa.array([None] * 50, type=pa.int64()),
        "s": pa.array([None] * 50, type=pa.string()),
    })
    roundtrip(t, tmp_path, "allnull")


def test_null_filter_semantics(tmp_path):
    """Equality filter never matches null slots (SQL semantics)."""
    from arcade_ray.pipeline.query import filter_partition

    t = pa.table({
        "doc_id": pa.array([f"d{i}" for i in range(100)]),
        "k": pa.array([None if i % 7 == 0 else i % 3 for i in range(100)],
                      type=pa.int64()),
        "s": pa.array([None if i % 5 == 0 else f"v{i % 4}" for i in range(100)],
                      type=pa.string()),
    })
    path = roundtrip(t, tmp_path, "nf")
    got = filter_partition(path, [("eq", "k", 0)], ["k", "doc_id"])
    expect = t.filter(pc.fill_null(pc.equal(t["k"], 0), False))
    assert got.num_rows == expect.num_rows
    got_s = filter_partition(path, [("eq", "s", "v0")], ["s", "doc_id"])
    expect_s = t.filter(pc.fill_null(pc.equal(t["s"], "v0"), False))
    assert set(got_s["doc_id"].to_pylist()) == set(expect_s["doc_id"].to_pylist())


def test_null_filter_plain_mode_and_empty_literal(tmp_path):
    """(a) high-cardinality (plain-encoded) string column with nulls:
    equality filter must not match null slots; (b) dict-mode column:
    filtering for '' must not match nulls (nulls encode as '' in the
    dictionary — the decode path must win)."""
    from arcade_ray.pipeline.query import filter_partition

    n = 1000
    plain_col = [None if i % 9 == 0 else f"unique-{i:05d}" for i in range(n)]
    dict_col = [None if i % 7 == 0 else ("" if i % 5 == 0 else f"v{i % 3}")
                for i in range(n)]
    t = pa.table({
        "doc_id": pa.array([f"d{i}" for i in range(n)]),
        "p": pa.array(plain_col, type=pa.string()),
        "k": pa.array(dict_col, type=pa.string()),
    })
    path = roundtrip(t, tmp_path, "pm")
    got = filter_partition(path, [("eq", "p", "unique-00018")],
                           ["p", "doc_id"])
    assert got.num_rows == 0  # index 18 is a null slot (18 % 9 == 0)
    got2 = filter_partition(path, [("eq", "p", "unique-00017")],
                            ["p", "doc_id"])
    assert got2.num_rows == 1
    # empty-string literal on the null-bearing dict column
    got3 = filter_partition(path, [("eq", "k", "")], ["k", "doc_id"])
    expect3 = t.filter(pc.fill_null(pc.equal(t["k"], ""), False))
    assert got3.num_rows == expect3.num_rows
    assert set(got3["doc_id"].to_pylist()) == set(expect3["doc_id"].to_pylist())


def test_null_partition_key_not_dropped(ray_session, tmp_path):
    """Rows with a NULL partition key must survive the exchange
    (grouped under the '' partition) and round-trip with their null."""
    import ray
    import ray.data as rd

    from arcade_ray.pipeline import decode_dataset, encode_dataset

    n = 400
    t = pa.table({
        "doc_id": pa.array([f"d{i:04d}" for i in range(n)]),
        "source": pa.array(
            [None if i % 10 == 0 else f"s{i % 3}" for i in range(n)],
            type=pa.string()),
        "n_tok": pa.array([1] * n, type=pa.int32()),
        "tokens": pa.array([[j] for j in range(n)], type=pa.list_(pa.int32())),
    })
    out_dir = str(tmp_path / "enc")
    manifest = encode_dataset(rd.from_arrow(t), out_dir)
    assert sum(manifest["rows"].to_pylist()) == n
    out = pa.concat_tables(ray.get(decode_dataset(out_dir).to_arrow_refs()))
    assert out.num_rows == n
    assert out["source"].combine_chunks().null_count == n // 10


def test_nulls_multichunk(tmp_path, monkeypatch):
    import arcade_ray.format as fmt

    orig = fmt.chunk_boundaries
    monkeypatch.setattr(
        fmt, "chunk_boundaries",
        lambda t, rows_per_chunk=300, values_per_chunk=fmt.DEFAULT_VALUES_PER_CHUNK:
        orig(t, 300, values_per_chunk),
    )
    roundtrip(make_nullable_table(1500, seed=9), tmp_path, "mc")


def test_dict_group_aggregate_nulls_vs_duckdb(ray_session, tmp_path):
    """Decode-free grouped aggregates over NULL-bearing key and value
    columns: null keys form their own group (SQL GROUP BY), null
    values are skipped by SUM/MIN/MAX (NULL when a group has no valid
    value), n_rows is COUNT(*). Oracle: DuckDB over the same rows."""
    import duckdb
    import pandas as pd
    import pyarrow.parquet as pq
    import ray.data as rd

    from arcade_ray.pipeline import encode_dataset
    from arcade_ray.pipeline.query import dict_group_aggregate

    rng = np.random.default_rng(9)
    n = 3000
    src = [None if rng.random() < 0.1 else f"s{int(i) % 4}"
           for i in rng.integers(0, 4, n)]
    val = [None if rng.random() < 0.15 else int(v)
           for v in rng.integers(-50, 1000, n)]
    # one group whose values are ALL null -> SUM/MIN/MAX must be NULL
    src += ["only-nulls"] * 3
    val += [None] * 3
    t = pa.table({
        "doc_id": pa.array(range(len(src)), type=pa.int64()),
        "source": pa.array(src, type=pa.string()),
        "v": pa.array(val, type=pa.int64()),
    })
    out_dir = str(tmp_path / "enc")
    encode_dataset(rd.from_arrow(t), out_dir, key_col="doc_id",
                   weight_col=None)
    got = dict_group_aggregate(out_dir, "source", "v").to_pandas()
    got = got.sort_values("source", ignore_index=True, na_position="last")

    pq.write_table(t, str(tmp_path / "t.parquet"))
    exp = duckdb.sql(
        f"SELECT source, CAST(SUM(v) AS BIGINT) AS sum_v, "
        f"MIN(v) AS min_v, MAX(v) AS max_v, COUNT(*) AS n_rows "
        f"FROM read_parquet('{tmp_path}/t.parquet') GROUP BY source "
        f"ORDER BY source NULLS LAST"
    ).fetchdf()
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


@pytest.fixture()
def nullable_enc(ray_session, tmp_path):
    """Encoded dataset + parquet twin of a null-bearing table: null
    keys, null values, an all-null-values group, plus a genuine ''
    value (which must never be confused with the '' null placeholder
    in the dictionary)."""
    import duckdb
    import pyarrow.parquet as pq
    import ray.data as rd

    from arcade_ray.pipeline import encode_dataset

    rng = np.random.default_rng(21)
    n = 2500
    src = [None if rng.random() < 0.12 else
           ("" if rng.random() < 0.05 else f"s{int(rng.integers(0, 4))}")
           for _ in range(n)]
    sv = [None if rng.random() < 0.2 else f"v{int(rng.integers(0, 6))}"
          for _ in range(n)]
    val = rng.integers(-100, 100, n)
    src += ["only-nulls"] * 3
    sv += [None] * 3
    val = val.tolist() + [1, 2, 3]
    t = pa.table({
        "doc_id": pa.array(range(len(src)), type=pa.int64()),
        "source": pa.array(src, type=pa.string()),
        "sval": pa.array(sv, type=pa.string()),
        "v": pa.array(val, type=pa.int64()),
    })
    out_dir = str(tmp_path / "enc")
    encode_dataset(rd.from_arrow(t), out_dir, key_col="doc_id",
                   weight_col=None)
    pq_path = str(tmp_path / "t.parquet")
    pq.write_table(t, pq_path)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW t AS SELECT * FROM read_parquet('{pq_path}')")
    return out_dir, t, con


def test_dict_value_counts_nulls_vs_duckdb(nullable_enc):
    import pandas as pd

    from arcade_ray.pipeline.query import dict_value_counts

    out_dir, t, con = nullable_enc
    got = dict_value_counts(out_dir, "source").to_pandas()
    exp = con.execute(
        "SELECT source, COUNT(*) AS n_rows FROM t GROUP BY source "
        "ORDER BY source NULLS LAST").fetchdf()
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_dict_distinct_values_nulls_vs_duckdb(nullable_enc):
    from arcade_ray.pipeline.query import dict_distinct_values

    out_dir, t, con = nullable_enc
    got = dict_distinct_values(out_dir, "source")["source"].to_pylist()
    exp = [r[0] for r in con.execute(
        "SELECT DISTINCT source FROM t ORDER BY source NULLS LAST"
    ).fetchall()]
    assert got == exp
    assert None in got and "" in got  # real '' survives, NULL distinct


def test_dict_group_distinct_nulls_vs_duckdb(nullable_enc):
    import pandas as pd

    from arcade_ray.pipeline.query import dict_group_distinct

    out_dir, t, con = nullable_enc
    got = dict_group_distinct(out_dir, "source", "sval").to_pandas()
    exp = con.execute(
        "SELECT source, COUNT(DISTINCT sval) AS n_distinct FROM t "
        "GROUP BY source ORDER BY source NULLS LAST").fetchdf()
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    # the all-null-values group is present with 0 distinct
    assert got.loc[got["source"] == "only-nulls", "n_distinct"] \
        .iloc[0] == 0


def test_dict_group_topk_nulls_vs_duckdb(nullable_enc):
    import pandas as pd

    from arcade_ray.pipeline.query import dict_group_topk

    out_dir, t, con = nullable_enc
    got = dict_group_topk(out_dir, "source", "v", "doc_id", 3).to_pandas()
    got = got.sort_values(["source", "v", "doc_id"],
                          ascending=[True, False, True],
                          ignore_index=True, na_position="last")
    exp = con.execute(
        "SELECT source, doc_id, v FROM t "
        "QUALIFY row_number() OVER (PARTITION BY source "
        "ORDER BY v DESC, doc_id) <= 3 "
        "ORDER BY source NULLS LAST, v DESC, doc_id").fetchdf()
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_not_predicate_nulls_vs_duckdb(nullable_enc):
    from arcade_ray.pipeline.query import compound_filter

    out_dir, t, con = nullable_enc
    got = compound_filter(out_dir, ("not", ("eq", "source", "s1")),
                          ["doc_id", "source"]).to_pandas()
    exp = con.execute(
        "SELECT doc_id FROM t WHERE NOT (source = 's1')").fetchdf()
    assert sorted(got["doc_id"].tolist()) == sorted(exp["doc_id"].tolist())
    # NOT over a null-free column still complements against all rows
    got2 = compound_filter(out_dir, ("not", ("between", "doc_id", 0, 99)),
                           ["doc_id"]).to_pandas()
    exp2 = con.execute(
        "SELECT doc_id FROM t WHERE NOT (doc_id BETWEEN 0 AND 99)"
    ).fetchdf()
    assert sorted(got2["doc_id"].tolist()) == sorted(exp2["doc_id"].tolist())
    # NOT over a compound child on null-bearing columns: full 3VL
    got3 = compound_filter(out_dir, ("not", ("or", [
        ("eq", "source", "s1"), ("eq", "sval", "v0")])),
        ["doc_id"]).to_pandas()
    exp3 = con.execute(
        "SELECT doc_id FROM t WHERE NOT (source = 's1' OR sval = 'v0')"
    ).fetchdf()
    assert sorted(got3["doc_id"].tolist()) == sorted(exp3["doc_id"].tolist())


def test_compound_3vl_fuzz_vs_duckdb(nullable_enc):
    """Random predicate trees over null-bearing columns vs DuckDB:
    Kleene AND/OR/NOT propagation must match SQL WHERE exactly."""
    from arcade_ray.pipeline.query import compound_filter

    out_dir, t, con = nullable_enc
    leaves = [
        (("eq", "source", "s1"), "source = 's1'"),
        (("eq", "sval", "v0"), "sval = 'v0'"),
        (("between", "v", -50, 20), "v BETWEEN -50 AND 20"),
        (("isnull", "source"), "source IS NULL"),
        (("notnull", "sval"), "sval IS NOT NULL"),
        (("prefix", "sval", "v"), "sval LIKE 'v%'"),
    ]
    rng = np.random.default_rng(31)

    def gen(depth):
        if depth == 0 or rng.random() < 0.35:
            return leaves[int(rng.integers(0, len(leaves)))]
        op = ("and", "or", "not")[int(rng.integers(0, 3))]
        if op == "not":
            p, s = gen(depth - 1)
            return ("not", p), f"NOT ({s})"
        k = int(rng.integers(2, 4))
        subs = [gen(depth - 1) for _ in range(k)]
        glue = " AND " if op == "and" else " OR "
        return ((op, [p for p, _ in subs]),
                "(" + glue.join(s for _, s in subs) + ")")

    for _ in range(25):
        pred, sql = gen(3)
        got = compound_filter(out_dir, pred, ["doc_id"]).to_pandas()
        got_ids = sorted(got["doc_id"].tolist()) if len(got) else []
        exp = con.execute(f"SELECT doc_id FROM t WHERE {sql}").fetchdf()
        assert got_ids == sorted(exp["doc_id"].tolist()), sql


def test_isnull_notnull_predicates_vs_duckdb(nullable_enc):
    from arcade_ray.pipeline.query import compound_filter

    out_dir, t, con = nullable_enc

    def ids(preds):
        df = compound_filter(out_dir, preds, ["doc_id"]).to_pandas()
        return sorted(df["doc_id"].tolist()) if len(df) else []

    exp_null = sorted(r[0] for r in con.execute(
        "SELECT doc_id FROM t WHERE source IS NULL").fetchall())
    exp_nn = sorted(r[0] for r in con.execute(
        "SELECT doc_id FROM t WHERE source IS NOT NULL").fetchall())
    assert ids(("isnull", "source")) == exp_null
    assert ids(("notnull", "source")) == exp_nn
    # composition: IS NULL OR eq; NOT(IS NULL) == IS NOT NULL
    exp_or = sorted(r[0] for r in con.execute(
        "SELECT doc_id FROM t WHERE source IS NULL OR source = 's2'"
    ).fetchall())
    assert ids(("or", [("isnull", "source"),
                       ("eq", "source", "s2")])) == exp_or
    assert ids(("not", ("isnull", "source"))) == exp_nn
    # isnull over a null-FREE column: zone stats prune every partition
    assert ids(("isnull", "doc_id")) == []


def test_encode_parquet_null_partition_key(ray_session, tmp_path):
    """encode_parquet (the parquet fast path) must group null partition
    keys under '' exactly like encode_dataset's planner — round 4
    regression: the planning partial kept None keys and
    sorted(part_keys) crashed."""
    import pyarrow.parquet as pq

    from arcade_ray.pipeline.decode import decode_dataset
    from arcade_ray.pipeline.encode import encode_parquet

    t = pa.table({
        "doc_id": pa.array([f"d{i}" for i in range(300)], pa.string()),
        "source": pa.array([None if i % 7 == 0 else f"s{i % 3}"
                            for i in range(300)], pa.string()),
        "n_tok": pa.array([2] * 300, pa.int32()),
        "tokens": pa.array([[1, 2]] * 300, pa.list_(pa.int32())),
    })
    src = str(tmp_path / "c.parquet")
    pq.write_table(t, src)
    out = str(tmp_path / "enc")
    encode_parquet(src, out)
    dec = decode_dataset(out).to_pandas()
    assert len(dec) == 300
    assert dec["source"].isna().sum() == sum(
        1 for i in range(300) if i % 7 == 0)


def test_stats_meta_nulls_vs_duckdb(ray_session, tmp_path):
    """Exact meta-only MIN/MAX over null-bearing columns: the stored
    zone covers the 0/'' fill placeholder, so a placeholder-polluted
    answer would be min=0 / min='' here — the valid-only vmin/vmax
    must match DuckDB's null-skipping MIN/MAX instead."""
    import duckdb
    import pyarrow.parquet as pq
    import ray.data as rd

    from arcade_ray.pipeline import encode_dataset
    from arcade_ray.pipeline.query import stats_meta

    rng = np.random.default_rng(5)
    n = 3000
    nt = [None if rng.random() < 0.2 else int(rng.integers(50, 5000))
          for _ in range(n)]
    nm = [None if rng.random() < 0.15 else f"k{int(rng.integers(10, 99))}"
          for _ in range(n)]
    t = pa.table({
        "doc_id": pa.array([f"d{i:05d}" for i in range(n)]),
        "grp": pa.array([f"g{i % 4}" for i in range(n)]),
        "n_tok": pa.array(nt, type=pa.int64()),
        "name": pa.array(nm, type=pa.string()),
        "allnull": pa.array([None] * n, type=pa.int64()),
    })
    out_dir = str(tmp_path / "enc")
    encode_dataset(rd.from_arrow(t), out_dir, key_col="grp",
                   weight_col=None)
    pq_path = str(tmp_path / "t.parquet")
    pq.write_table(t, pq_path)
    con = duckdb.connect()
    lo_i, hi_i, lo_s, hi_s, cnt = con.execute(
        f"SELECT min(n_tok), max(n_tok), min(name), max(name), count(*) "
        f"FROM read_parquet('{pq_path}')").fetchone()

    s = stats_meta(out_dir, ["n_tok", "name"])
    assert s["rows"] == cnt
    assert s["n_tok"] == {"min": lo_i, "max": hi_i}  # NOT the 0 placeholder
    assert s["name"] == {"min": lo_s, "max": hi_s}   # NOT the '' placeholder

    # an all-null column has SQL-NULL MIN/MAX — explicit None bounds
    s2 = stats_meta(out_dir, ["allnull"])
    assert s2["allnull"] == {"min": None, "max": None}
    assert s2["rows"] == cnt


def test_group_int_percentiles_nulls_vs_duckdb(ray_session, tmp_path):
    """NULL keys group (last), null values are skipped, an
    all-null-values group emits NULL percentiles — vs DuckDB
    quantile_disc. (The old guard refused null-bearing columns.)"""
    import duckdb
    import pyarrow.parquet as pq
    import ray.data as rd

    from arcade_ray.pipeline import encode_dataset
    from arcade_ray.pipeline.query import group_int_percentiles

    rng = np.random.default_rng(13)
    n = 4000
    key = [None if rng.random() < 0.1 else f"g{int(rng.integers(0, 5))}"
           for _ in range(n)]
    val = [None if rng.random() < 0.25 else int(rng.integers(-50, 200))
           for _ in range(n)]
    key += ["void"] * 4          # a group whose values are ALL null
    val += [None] * 4
    t = pa.table({
        "doc_id": pa.array(range(len(key)), type=pa.int64()),
        "grp": pa.array(key, type=pa.string()),
        "v": pa.array(val, type=pa.int64()),
    })
    out_dir = str(tmp_path / "enc")
    encode_dataset(rd.from_arrow(t), out_dir, key_col="doc_id",
                   weight_col=None)
    pq_path = str(tmp_path / "t.parquet")
    pq.write_table(t, pq_path)

    got = group_int_percentiles(out_dir, "grp", "v", [0.25, 0.5, 0.9]) \
        .to_pandas()
    con = duckdb.connect()
    want = con.execute(
        f"SELECT grp, quantile_disc(v, 0.25) AS p25, "
        f"quantile_disc(v, 0.5) AS p50, quantile_disc(v, 0.9) AS p90 "
        f"FROM read_parquet('{pq_path}') GROUP BY grp "
        f"ORDER BY grp NULLS LAST").df()
    import pandas as pd

    pd.testing.assert_frame_equal(
        got.astype({"p25": "float64", "p50": "float64", "p90": "float64"}),
        want.astype({"p25": "float64", "p50": "float64", "p90": "float64"}))


def test_dict_group_topk_null_values_vs_duckdb(ray_session, tmp_path):
    """Top-k per group with null-bearing VALUE and ID columns: DESC
    values nulls-last, ASC ids nulls-last (DuckDB default ordering);
    a group with fewer than k non-null values fills from null rows."""
    import duckdb
    import pyarrow.parquet as pq
    import ray.data as rd

    from arcade_ray.pipeline import encode_dataset
    from arcade_ray.pipeline.query import dict_group_topk

    rng = np.random.default_rng(23)
    n = 3000
    grp = [None if rng.random() < 0.08 else f"g{int(rng.integers(0, 6))}"
           for _ in range(n)]
    # unique non-null values -> deterministic top-k (no tie ambiguity)
    vv = rng.permutation(n * 3)[:n].astype(np.int64)
    val = [None if rng.random() < 0.3 else int(vv[i]) for i in range(n)]
    did = [None if rng.random() < 0.05 else f"d{i:05d}" for i in range(n)]
    t = pa.table({
        "rid": pa.array(range(n), type=pa.int64()),
        "grp": pa.array(grp, type=pa.string()),
        "v": pa.array(val, type=pa.int64()),
        "doc": pa.array(did, type=pa.string()),
    })
    out_dir = str(tmp_path / "enc")
    encode_dataset(rd.from_arrow(t), out_dir, key_col="rid",
                   id_col="rid", weight_col=None)
    pq_path = str(tmp_path / "t.parquet")
    pq.write_table(t, pq_path)

    got = dict_group_topk(out_dir, "grp", "v", "doc", 4).to_pandas()
    con = duckdb.connect()
    want = con.execute(
        f"SELECT grp, doc, v FROM read_parquet('{pq_path}') "
        f"QUALIFY row_number() OVER (PARTITION BY grp "
        f"ORDER BY v DESC NULLS LAST, doc ASC NULLS LAST) <= 4").df()
    import pandas as pd

    key = ["grp", "v", "doc"]
    g = got.sort_values(key, ignore_index=True).astype({"v": "float64"})
    w = want.sort_values(key, ignore_index=True).astype({"v": "float64"})
    pd.testing.assert_frame_equal(g[key], w[key])
