"""SQL frontend (arcade_ray/sql.py): every query runs twice — once
compiled onto the engine's operators over the ENCODED dir, once in
DuckDB over the raw arrow table — and must agree on rows, schema and
values. Covers filters (all leaf kinds incl. 3VL over nulls),
decode-free and streamed GROUP BY, HAVING, ORDER/LIMIT top-k, both
join kinds, and the unsupported-construct contract."""

import os
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from arcade_ray.sql import SqlUnsupported, sql_query


def _mk_docs(n=4000, seed=11):
    rng = np.random.default_rng(seed)
    langs = np.array(["en", "fr", "de", "es", None], dtype=object)
    src = np.array([f"src-{i}" for i in range(6)])
    return pa.table({
        "doc_id": pa.array([f"d{i:07d}" for i in range(n)]),
        "source": pa.array(src[rng.integers(0, 6, n)]),
        "lang": pa.array(langs[rng.integers(0, 5, n)].tolist(),
                         type=pa.string()),
        "n_chars": pa.array(rng.integers(0, 5000, n), type=pa.int64()),
        "score": pa.array(np.round(rng.random(n), 6),
                          type=pa.float64()),
        # ~18 months of microsecond timestamps starting 2024-01-01
        "ts": pa.array(
            1704067200_000_000
            + rng.integers(0, 46_000_000, n) * np.int64(1_000_000)
            + rng.integers(0, 1_000_000, n),
            type=pa.timestamp("us")),
    })


def _mk_meta(seed=12):
    rng = np.random.default_rng(seed)
    return pa.table({
        "source": pa.array([f"src-{i}" for i in range(8)]),
        "region": pa.array([f"r{i % 3}" for i in range(8)]),
        "weight": pa.array(rng.integers(1, 100, 8), type=pa.int64()),
    })


def _mk_reg():
    return pa.table({
        "region": pa.array(["r0", "r1", "r2", "r9"]),
        "zone": pa.array(["z-a", "z-b", "z-a", "z-c"]),
        "cap": pa.array([10, 20, 30, 40], type=pa.int64()),
    })


@pytest.fixture(scope="module")
def sqlenv(ray_session, tmp_path_factory):
    import duckdb

    from arcade_ray.pipeline.encode import encode_parquet

    base = tmp_path_factory.mktemp("sql")
    docs, meta, reg = _mk_docs(), _mk_meta(), _mk_reg()
    tables = {}
    for name, t, key, idc in (("docs", docs, "source", "doc_id"),
                              ("meta", meta, "region", "source"),
                              ("reg", reg, "zone", "region")):
        p = str(base / f"{name}.parquet")
        pq.write_table(t, p)
        out = str(base / f"enc_{name}")
        encode_parquet(p, out, key_col=key, id_col=idc, weight_col=None)
        tables[name] = out
    con = duckdb.connect()
    con.register("docs", docs)
    con.register("meta", meta)
    con.register("reg", reg)
    yield tables, con
    con.close()


def check(sqlenv, q, ordered=None):
    tables, con = sqlenv
    mine = sql_query(q, tables)
    if not isinstance(mine, pa.Table):
        from arcade_ray.collect import collect_arrow

        mine = collect_arrow(mine)
    oracle = con.execute(q).arrow()
    if ordered is None:
        ordered = "ORDER" in q.upper()
    assert set(mine.column_names) == set(oracle.column_names), \
        (mine.column_names, oracle.column_names)
    if not ordered:
        keys = [(c, "ascending") for c in sorted(mine.column_names)]
        mine = mine.sort_by(keys)
        oracle = oracle.sort_by(keys)
    assert mine.num_rows == oracle.num_rows, \
        (q, mine.num_rows, oracle.num_rows)
    for c in oracle.column_names:
        assert mine[c].to_pylist() == oracle[c].to_pylist(), (q, c)
    return mine


# --- row queries ----------------------------------------------------------

def test_filter_eq_and_range(sqlenv):
    check(sqlenv, "SELECT doc_id, n_chars FROM docs "
                  "WHERE lang = 'en' AND n_chars > 2500")


def test_filter_or_in_like(sqlenv):
    check(sqlenv, "SELECT doc_id FROM docs WHERE source LIKE 'src-1%' "
                  "OR lang IN ('fr', 'de')")


def test_filter_not_between_null(sqlenv):
    check(sqlenv, "SELECT doc_id FROM docs WHERE NOT (n_chars BETWEEN "
                  "100 AND 4000) AND lang IS NOT NULL")


def test_filter_is_null_3vl(sqlenv):
    # lang IS NULL rows must survive; lang <> 'en' must drop them
    check(sqlenv, "SELECT doc_id FROM docs WHERE lang IS NULL")
    check(sqlenv, "SELECT doc_id FROM docs WHERE lang <> 'en'")


def test_filter_not_like_general_pattern(sqlenv):
    check(sqlenv, "SELECT doc_id FROM docs WHERE doc_id LIKE 'd00003_5'")
    check(sqlenv, "SELECT doc_id FROM docs WHERE source NOT LIKE '%-3' "
                  "AND lang = 'es'")


def test_float_compare(sqlenv):
    check(sqlenv, "SELECT doc_id FROM docs WHERE score >= 0.9")
    check(sqlenv, "SELECT doc_id FROM docs WHERE score < 0.05")


def test_order_limit_topk(sqlenv):
    check(sqlenv, "SELECT doc_id, n_chars FROM docs WHERE lang = 'fr' "
                  "ORDER BY n_chars DESC, doc_id LIMIT 9")


def test_order_limit_offset(sqlenv):
    check(sqlenv, "SELECT doc_id, n_chars FROM docs "
                  "ORDER BY n_chars, doc_id LIMIT 5 OFFSET 7")


def test_empty_result(sqlenv):
    t = check(sqlenv, "SELECT doc_id FROM docs WHERE source = 'nope'")
    assert t.num_rows == 0


def test_select_star_stream(sqlenv):
    tables, con = sqlenv
    ds = sql_query("SELECT * FROM docs WHERE source = 'src-2'", tables)
    import ray.data as rd

    assert isinstance(ds, rd.Dataset)  # lazy row stream
    n = con.execute(
        "SELECT count(*) FROM docs WHERE source = 'src-2'").fetchone()[0]
    assert ds.count() == n


# --- aggregates -----------------------------------------------------------

def test_group_agg_decode_free(sqlenv):
    # no WHERE + single string key + one int column: served by
    # dict_group_aggregate (keys never materialize per row)
    check(sqlenv, "SELECT source, CAST(SUM(n_chars) AS BIGINT) AS s, "
                  "COUNT(*) AS n, CAST(MIN(n_chars) AS BIGINT) AS mn, "
                  "CAST(MAX(n_chars) AS BIGINT) AS mx "
                  "FROM docs GROUP BY source ORDER BY source")


def test_group_agg_filtered(sqlenv):
    check(sqlenv, "SELECT lang, COUNT(*) AS n FROM docs "
                  "WHERE n_chars >= 1000 GROUP BY lang ORDER BY lang")


def test_group_avg_having(sqlenv):
    check(sqlenv, "SELECT source, CAST(AVG(n_chars) AS DOUBLE) AS ac "
                  "FROM docs GROUP BY source "
                  "HAVING COUNT(*) > 400 ORDER BY source")


def test_group_count_col_vs_star(sqlenv):
    # COUNT(lang) skips nulls, COUNT(*) does not
    check(sqlenv, "SELECT source, COUNT(lang) AS cl, COUNT(*) AS n "
                  "FROM docs GROUP BY source ORDER BY source")


def test_global_aggregate(sqlenv):
    check(sqlenv, "SELECT COUNT(*) AS n, CAST(MIN(n_chars) AS BIGINT) "
                  "AS mn, CAST(MAX(n_chars) AS BIGINT) AS mx FROM docs "
                  "WHERE lang = 'de'")


def test_composite_group_keys(sqlenv):
    check(sqlenv, "SELECT lang, source, COUNT(*) AS n FROM docs "
                  "GROUP BY lang, source ORDER BY n DESC, lang, source "
                  "LIMIT 10")


def test_agg_arithmetic(sqlenv):
    check(sqlenv, "SELECT source, CAST(SUM(n_chars) AS BIGINT) / "
                  "COUNT(*) AS ratio FROM docs GROUP BY source "
                  "ORDER BY source")


def check_close(sqlenv, q, rel=1e-9):
    """Like check() but float columns compare with relative tolerance:
    the engine's two-pass variance / partial-sum order differs from
    DuckDB's streaming kernels in the low bits by design."""
    import math

    tables, con = sqlenv
    mine = sql_query(q, tables)
    if not isinstance(mine, pa.Table):
        from arcade_ray.collect import collect_arrow

        mine = collect_arrow(mine)
    oracle = con.execute(q).arrow()
    assert set(mine.column_names) == set(oracle.column_names)
    if "ORDER" not in q.upper():
        keys = [(c, "ascending") for c in sorted(mine.column_names)]
        mine, oracle = mine.sort_by(keys), oracle.sort_by(keys)
    assert mine.num_rows == oracle.num_rows
    for c in oracle.column_names:
        a, b = mine[c].to_pylist(), oracle[c].to_pylist()
        if pa.types.is_floating(oracle.schema.field(c).type):
            for x, y in zip(a, b):
                if x is None or y is None:
                    assert x == y, (q, c, x, y)
                else:
                    assert math.isclose(x, y, rel_tol=rel,
                                        abs_tol=1e-12), (q, c, x, y)
        else:
            assert a == b, (q, c)


def test_variance_stddev_grouped(sqlenv):
    check_close(sqlenv,
                "SELECT source, VAR_POP(n_chars) AS vp, "
                "VAR_SAMP(n_chars) AS vs, STDDEV(n_chars) AS sd, "
                "STDDEV_POP(score) AS sp FROM docs GROUP BY source "
                "ORDER BY source")


def test_variance_single_row_groups(sqlenv):
    # doc_id groups have one row: VAR_SAMP NULL, VAR_POP 0
    check_close(sqlenv,
                "SELECT doc_id, VAR_SAMP(n_chars) AS vs, "
                "VAR_POP(n_chars) AS vp FROM docs "
                "WHERE n_chars > 4980 GROUP BY doc_id ORDER BY doc_id")


def test_variance_global_and_having(sqlenv):
    check_close(sqlenv,
                "SELECT VARIANCE(n_chars) AS v, STDDEV_SAMP(score) "
                "AS s FROM docs WHERE lang = 'en'")
    check_close(sqlenv,
                "SELECT source, STDDEV(n_chars) AS sd FROM docs "
                "GROUP BY source HAVING STDDEV(n_chars) > 1400 "
                "ORDER BY source")


def test_bool_and_or(sqlenv):
    check(sqlenv,
          "SELECT source, BOOL_AND(n_chars > 100) AS ba, "
          "BOOL_OR(n_chars > 4900) AS bo FROM docs GROUP BY source "
          "ORDER BY source")
    # over a null-bearing operand: lang IS NULL rows contribute NULL,
    # which BOOL_AND/OR skip
    check(sqlenv,
          "SELECT BOOL_AND(lang <> 'zz') AS ba, "
          "BOOL_OR(lang = 'fr') AS bo FROM docs")


def test_median_quantiles(sqlenv):
    check(sqlenv,
          "SELECT source, MEDIAN(n_chars) AS med FROM docs "
          "GROUP BY source ORDER BY source")
    check(sqlenv,
          "SELECT source, QUANTILE_CONT(n_chars, 0.9) AS q90, "
          "QUANTILE_DISC(n_chars, 0.25) AS q25 FROM docs "
          "GROUP BY source ORDER BY source")
    check(sqlenv,
          "SELECT MEDIAN(n_chars) AS med, "
          "QUANTILE_DISC(lang, 0.5) AS ml FROM docs")
    # composite keys + WHERE + a quantile over floats
    check_close(sqlenv,
                "SELECT source, lang, MEDIAN(score) AS ms FROM docs "
                "WHERE n_chars > 1000 GROUP BY source, lang "
                "ORDER BY source, lang NULLS FIRST")


def test_quantiles_of_one_column_stream_once(sqlenv, monkeypatch):
    """Every quantile over one column is selected from one weighted
    histogram: three quantile atoms over n_chars stream the table
    once."""
    import arcade_ray.sql as sqlmod

    streams = []
    real = sqlmod._TableSource.stream

    def spy(self, cols):
        streams.append(list(cols))
        return real(self, cols)

    monkeypatch.setattr(sqlmod._TableSource, "stream", spy)
    check(sqlenv,
          "SELECT source, QUANTILE_DISC(n_chars, 0.5) AS q50, "
          "QUANTILE_DISC(n_chars, 0.9) AS q90, "
          "QUANTILE_CONT(n_chars, 0.99) AS q99 FROM docs "
          "GROUP BY source ORDER BY source")
    assert streams == [["source", "n_chars"]]


def test_group_rollup_cube_sets(sqlenv):
    # null-bearing lang: real-NULL groups and subtotal NULL markers
    # coexist as distinct rows, matching SQL
    check(sqlenv, "SELECT source, lang, COUNT(*) AS n, "
                  "CAST(SUM(n_chars) AS BIGINT) AS s FROM docs "
                  "GROUP BY ROLLUP (source, lang) "
                  "ORDER BY source NULLS FIRST, lang NULLS FIRST, n, s")
    check(sqlenv, "SELECT source, lang, COUNT(*) AS n FROM docs "
                  "GROUP BY CUBE (source, lang) "
                  "ORDER BY source NULLS FIRST, lang NULLS FIRST, n")
    check(sqlenv, "SELECT source, lang, COUNT(*) AS n FROM docs "
                  "WHERE n_chars > 2000 "
                  "GROUP BY GROUPING SETS ((source), (lang), ()) "
                  "ORDER BY source NULLS FIRST, lang NULLS FIRST, n")


# --- joins ----------------------------------------------------------------

def test_inner_join_rows(sqlenv):
    check(sqlenv, "SELECT doc_id, region FROM docs "
                  "JOIN meta ON docs.source = meta.source "
                  "WHERE n_chars > 4500")


def test_left_join_rows(sqlenv):
    check(sqlenv, "SELECT doc_id, region FROM docs d "
                  "LEFT JOIN meta m ON d.source = m.source "
                  "ORDER BY doc_id LIMIT 11")


def test_join_aggregate(sqlenv):
    check(sqlenv, "SELECT region, COUNT(*) AS n, "
                  "CAST(SUM(n_chars) AS BIGINT) AS s FROM docs "
                  "JOIN meta ON docs.source = meta.source "
                  "GROUP BY region ORDER BY region")


def test_join_where_on_both_sides(sqlenv):
    check(sqlenv, "SELECT doc_id, weight FROM docs "
                  "JOIN meta ON docs.source = meta.source "
                  "WHERE weight > 30 AND lang = 'en' AND n_chars < 500")


def test_three_way_join(sqlenv):
    check(sqlenv, "SELECT doc_id, m.region, zone FROM docs d "
                  "JOIN meta m ON d.source = m.source "
                  "JOIN reg r ON m.region = r.region "
                  "WHERE n_chars > 4500")


def test_three_way_join_aggregate(sqlenv):
    check(sqlenv, "SELECT zone, COUNT(*) AS n, "
                  "CAST(SUM(n_chars) AS BIGINT) AS s FROM docs d "
                  "JOIN meta m ON d.source = m.source "
                  "JOIN reg r ON m.region = r.region "
                  "GROUP BY zone ORDER BY zone")


def test_three_way_left_join_chain(sqlenv):
    # second hop LEFT: docs->meta matched rows keep NULL zone when
    # the region is missing from reg
    check(sqlenv, "SELECT doc_id, m.region, zone FROM docs d "
                  "JOIN meta m ON d.source = m.source "
                  "LEFT JOIN reg r ON m.region = r.region "
                  "WHERE n_chars > 4800")


def test_right_nested_join_commutes(sqlenv):
    # A JOIN (B JOIN C) flattens by commuting the top join
    check(sqlenv, "SELECT doc_id, zone FROM docs d "
                  "JOIN (meta m JOIN reg r ON m.region = r.region) "
                  "ON d.source = m.source WHERE n_chars > 4700")


def test_join_using(sqlenv):
    check(sqlenv, "SELECT doc_id, region FROM docs JOIN meta "
                  "USING (source) WHERE n_chars > 4600")
    check(sqlenv, "SELECT doc_id, zone FROM docs JOIN meta "
                  "USING (source) JOIN reg USING (region) "
                  "WHERE n_chars > 4600")


def test_join_multi_equality_on(sqlenv):
    # self-join via a column-renaming CTE: AND of equalities
    check(sqlenv, "WITH m2 AS (SELECT region AS rg, weight AS wt, "
                  "source AS src2 FROM meta) "
                  "SELECT source, src2 FROM meta m1 JOIN m2 "
                  "ON m1.region = m2.rg AND m1.weight = m2.wt "
                  "ORDER BY source, src2")


def test_four_way_join(sqlenv):
    # fourth table is a renamed CTE (mem side of dataset_join)
    check(sqlenv, "WITH reg2 AS (SELECT zone AS zone2, cap AS cap2 "
                  "FROM reg) "
                  "SELECT zone, CAST(SUM(cap2) AS BIGINT) AS s "
                  "FROM docs d "
                  "JOIN meta m ON d.source = m.source "
                  "JOIN reg r ON m.region = r.region "
                  "JOIN reg2 ON r.zone = reg2.zone2 "
                  "GROUP BY zone ORDER BY zone")


def test_bushy_join_self_join_side_refused(sqlenv):
    # bushy trees fold their right subtree to a driver table, but a
    # SELF-join inside it still has ambiguous bare output names
    tables, _ = sqlenv
    with pytest.raises((SqlUnsupported, KeyError)):
        sql_query("SELECT 1 AS x FROM (docs d JOIN meta m ON "
                  "d.source = m.source) JOIN (reg r1 JOIN reg r2 ON "
                  "r1.region = r2.region) ON m.region = r1.region",
                  tables)


# --- DISTINCT and subqueries ---------------------------------------------

def test_select_distinct(sqlenv):
    check(sqlenv, "SELECT DISTINCT source FROM docs ORDER BY source")
    check(sqlenv, "SELECT DISTINCT lang, source FROM docs "
                  "WHERE n_chars > 2000 ORDER BY lang, source")


def test_in_subquery_semi_join(sqlenv):
    check(sqlenv, "SELECT doc_id FROM docs WHERE source IN "
                  "(SELECT source FROM meta WHERE weight > 50)")


def test_not_in_subquery(sqlenv):
    # meta.source has no nulls -> anti-join semantics
    check(sqlenv, "SELECT doc_id FROM docs WHERE source NOT IN "
                  "(SELECT source FROM meta WHERE weight > 50)")


def test_not_in_subquery_null_poisoning(sqlenv):
    # lang contains NULLs: SQL says NOT IN yields zero rows
    q = ("SELECT doc_id FROM docs WHERE lang NOT IN "
         "(SELECT lang FROM docs WHERE n_chars > 4900)")
    t = check(sqlenv, q)
    assert t.num_rows == 0  # the subquery set contains NULL


def test_scalar_subquery_compare(sqlenv):
    check(sqlenv, "SELECT doc_id FROM docs WHERE n_chars > "
                  "(SELECT MAX(n_chars) - 50 FROM docs)")


def test_count_distinct(sqlenv):
    check(sqlenv, "SELECT source, COUNT(DISTINCT lang) AS nl, "
                  "COUNT(*) AS n FROM docs GROUP BY source "
                  "ORDER BY source")
    check(sqlenv, "SELECT COUNT(DISTINCT source) AS ns FROM docs "
                  "WHERE n_chars > 2500")
    check(sqlenv, "SELECT lang, COUNT(DISTINCT source) AS ns FROM docs "
                  "GROUP BY lang HAVING COUNT(DISTINCT source) > 5 "
                  "ORDER BY lang")


# --- window functions -----------------------------------------------------

def test_window_row_number_lag(sqlenv):
    check(sqlenv,
          "SELECT doc_id, source, "
          "ROW_NUMBER() OVER (PARTITION BY source ORDER BY n_chars, "
          "doc_id) AS rn, "
          "LAG(n_chars, 1) OVER (PARTITION BY source ORDER BY n_chars, "
          "doc_id) AS prev "
          "FROM docs WHERE n_chars > 4000", ordered=False)


def test_window_rank_dense_rank(sqlenv):
    check(sqlenv,
          "SELECT doc_id, "
          "RANK() OVER (PARTITION BY lang ORDER BY n_chars) AS r, "
          "DENSE_RANK() OVER (PARTITION BY lang ORDER BY n_chars) AS dr "
          "FROM docs WHERE lang IS NOT NULL AND n_chars < 300",
          ordered=False)


def test_window_running_sum_avg(sqlenv):
    check(sqlenv,
          "SELECT doc_id, "
          "CAST(SUM(n_chars) OVER (PARTITION BY source ORDER BY "
          "n_chars, doc_id) AS BIGINT) AS rs, "
          "COUNT(*) OVER (PARTITION BY source ORDER BY n_chars, "
          "doc_id) AS rc "
          "FROM docs WHERE n_chars BETWEEN 1000 AND 1200",
          ordered=False)


def test_window_running_sum_range_peers(sqlenv):
    # ties on the order key share the frame end (RANGE semantics)
    check(sqlenv,
          "SELECT doc_id, CAST(SUM(n_chars) OVER (PARTITION BY source "
          "ORDER BY lang) AS BIGINT) AS rs FROM docs "
          "WHERE n_chars < 400 AND lang IS NOT NULL", ordered=False)


def test_window_lead_default_topk(sqlenv):
    check(sqlenv,
          "SELECT doc_id, LEAD(doc_id, 2) OVER (PARTITION BY source "
          "ORDER BY doc_id) AS nxt FROM docs WHERE n_chars > 4500 "
          "ORDER BY doc_id LIMIT 13")


def test_window_global_order(sqlenv):
    check(sqlenv,
          "SELECT doc_id, ROW_NUMBER() OVER (ORDER BY n_chars DESC, "
          "doc_id) AS rn FROM docs WHERE n_chars > 4800",
          ordered=False)


def test_window_first_last_value(sqlenv):
    # default frame: first_value = partition head; last_value = last
    # PEER row (SQL's RANGE-frame surprise, exercised by the n_chars
    # tie groups DuckDB resolves identically)
    check(sqlenv,
          "SELECT doc_id, "
          "FIRST_VALUE(doc_id) OVER (PARTITION BY source ORDER BY "
          "n_chars, doc_id) AS fv, "
          "LAST_VALUE(n_chars) OVER (PARTITION BY source ORDER BY "
          "n_chars, doc_id) AS lv FROM docs WHERE n_chars < 200",
          ordered=False)


def test_window_first_last_rows_frame(sqlenv):
    check(sqlenv,
          "SELECT doc_id, "
          "FIRST_VALUE(n_chars) OVER (PARTITION BY source ORDER BY "
          "doc_id ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS fv, "
          "LAST_VALUE(n_chars) OVER (PARTITION BY source ORDER BY "
          "doc_id ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS lv "
          "FROM docs WHERE n_chars > 4500", ordered=False)


def test_window_nth_value(sqlenv):
    check(sqlenv,
          "SELECT doc_id, NTH_VALUE(doc_id, 3) OVER (PARTITION BY "
          "source ORDER BY n_chars, doc_id) AS third "
          "FROM docs WHERE n_chars < 300", ordered=False)


def test_window_ntile(sqlenv):
    check(sqlenv,
          "SELECT doc_id, NTILE(4) OVER (PARTITION BY source ORDER "
          "BY n_chars, doc_id) AS quartile "
          "FROM docs WHERE n_chars < 400", ordered=False)
    # more tiles than rows: each row gets its own tile
    check(sqlenv,
          "SELECT doc_id, NTILE(50) OVER (PARTITION BY source ORDER "
          "BY doc_id) AS tile FROM docs WHERE n_chars > 4900",
          ordered=False)


def test_window_percent_rank_cume_dist(sqlenv):
    check(sqlenv,
          "SELECT doc_id, "
          "PERCENT_RANK() OVER (PARTITION BY source ORDER BY "
          "n_chars) AS pr, "
          "CUME_DIST() OVER (PARTITION BY source ORDER BY n_chars) "
          "AS cd FROM docs WHERE n_chars < 250", ordered=False)


def test_window_ntile_in_qualify(sqlenv):
    check(sqlenv,
          "SELECT doc_id, source FROM docs WHERE n_chars < 500 "
          "QUALIFY NTILE(10) OVER (PARTITION BY source ORDER BY "
          "n_chars, doc_id) = 1", ordered=False)


# --- explain --------------------------------------------------------------

def test_explain_routes(sqlenv):
    from arcade_ray.sql import explain_sql

    tables, _ = sqlenv
    p = explain_sql("SELECT source, COUNT(*) n FROM docs "
                    "GROUP BY source", tables)
    assert "DECODE-FREE" in p
    p = explain_sql("SELECT source, COUNT(*) n FROM docs "
                    "WHERE lang = 'en' GROUP BY source", tables)
    assert "streamed per-batch partial aggregation" in p
    p = explain_sql("SELECT doc_id FROM docs WHERE source = 'src-1'",
                    tables)
    assert "compound_filter tree" in p and "pruning" in p
    p = explain_sql("SELECT doc_id, region FROM docs "
                    "JOIN meta ON docs.source = meta.source", tables)
    assert "dataset_join" in p and "copartition" in p
    p = explain_sql("SELECT doc_id FROM docs ORDER BY n_chars LIMIT 3",
                    tables)
    assert "partial top-k" in p


def test_approx_count_distinct(sqlenv):
    tables, con = sqlenv
    # global + unfiltered: answered from manifest KMV sketches alone;
    # grouped + filtered: streamed per-group sketches. Contract: exact
    # below k=256 distincts, else within 10% (KMV k=256 noise band)
    for q, gq in (
        ("SELECT approx_count_distinct(source) AS d FROM docs",
         "SELECT COUNT(DISTINCT source) AS d FROM docs"),
        ("SELECT approx_count_distinct(doc_id) AS d FROM docs "
         "WHERE n_chars > 2500",
         "SELECT COUNT(DISTINCT doc_id) AS d FROM docs "
         "WHERE n_chars > 2500"),
        ("SELECT lang, approx_count_distinct(n_chars) AS d FROM docs "
         "GROUP BY lang ORDER BY lang NULLS FIRST",
         "SELECT lang, COUNT(DISTINCT n_chars) AS d FROM docs "
         "GROUP BY lang ORDER BY lang NULLS FIRST"),
    ):
        mine = sql_query(q, tables)
        exact = con.execute(gq).arrow()
        assert mine.num_rows == exact.num_rows
        for m, e in zip(mine["d"].to_pylist(), exact["d"].to_pylist()):
            if e <= 256:
                assert m == e, (q, m, e)
            else:
                assert abs(m - e) / e < 0.10, (q, m, e)


def test_exists_folding(sqlenv):
    check(sqlenv, "SELECT doc_id FROM docs WHERE lang = 'en' AND "
                  "EXISTS (SELECT 1 FROM meta WHERE weight > 50)")
    check(sqlenv, "SELECT doc_id FROM docs WHERE lang = 'en' AND "
                  "EXISTS (SELECT 1 FROM meta WHERE weight > 5000)")
    check(sqlenv, "SELECT doc_id FROM docs WHERE lang = 'de' AND "
                  "NOT EXISTS (SELECT 1 FROM meta WHERE weight > 5000)")


def test_correlated_exists(sqlenv):
    # semi-join lowering: subquery WHERE carries the correlation
    check(sqlenv, "SELECT doc_id FROM docs d WHERE EXISTS "
                  "(SELECT 1 FROM meta m WHERE m.source = d.source "
                  "AND m.weight > 50) AND n_chars > 4000")
    # bare inner column name, qualified outer
    check(sqlenv, "SELECT doc_id FROM docs d WHERE EXISTS "
                  "(SELECT 1 FROM meta WHERE source = d.source)")


def test_correlated_not_exists(sqlenv):
    check(sqlenv, "SELECT doc_id FROM docs d WHERE NOT EXISTS "
                  "(SELECT 1 FROM meta m WHERE m.source = d.source "
                  "AND m.weight > 50) AND n_chars > 4500")
    # NULL outer key: lang has NULLs; NOT EXISTS must KEEP them
    check(sqlenv, "SELECT doc_id, lang FROM docs d WHERE NOT EXISTS "
                  "(SELECT 1 FROM docs i WHERE i.lang = d.lang "
                  "AND i.n_chars > 4995)")


def test_window_partition_by_nullable_key(sqlenv):
    # lang has NULLs: NULL keys form one partition group (SQL
    # grouping semantics), bucketed null-safely
    check(sqlenv, "SELECT doc_id, lang, ROW_NUMBER() OVER (PARTITION "
                  "BY lang ORDER BY n_chars DESC, doc_id) AS rn "
                  "FROM docs WHERE n_chars > 4900", ordered=False)


def test_scalar_subquery_in_select(sqlenv):
    check(sqlenv, "SELECT doc_id, (SELECT MAX(weight) FROM meta) AS "
                  "mw FROM docs WHERE n_chars > 4900")
    check(sqlenv, "SELECT source, COUNT(*) AS n, "
                  "(SELECT COUNT(*) FROM meta) AS m FROM docs "
                  "GROUP BY source ORDER BY source")
    # arithmetic over the folded constant
    check(sqlenv, "SELECT doc_id, n_chars - (SELECT MIN(n_chars) "
                  "FROM docs) AS rel FROM docs WHERE n_chars > 4950")


def test_window_over_group_by(sqlenv):
    # rank groups by their aggregate: agg runs first, windows over
    # the O(groups) result
    check(sqlenv, "SELECT source, CAST(SUM(n_chars) AS BIGINT) AS s, "
                  "RANK() OVER (ORDER BY SUM(n_chars) DESC) AS r "
                  "FROM docs GROUP BY source", ordered=False)
    check(sqlenv, "SELECT lang, COUNT(*) AS n, ROW_NUMBER() OVER "
                  "(ORDER BY COUNT(*) DESC, lang) AS rn FROM docs "
                  "WHERE n_chars > 1000 GROUP BY lang "
                  "HAVING COUNT(*) > 10 ORDER BY rn", ordered=True)


def test_qualify_over_group_by(sqlenv):
    # top source per region by document count
    check(sqlenv, "SELECT region, source, COUNT(*) AS n FROM docs "
                  "JOIN meta USING (source) "
                  "GROUP BY region, source "
                  "QUALIFY ROW_NUMBER() OVER (PARTITION BY region "
                  "ORDER BY COUNT(*) DESC, source) = 1", ordered=False)


def test_distinct_on(sqlenv):
    check(sqlenv, "SELECT DISTINCT ON (source) source, doc_id, "
                  "n_chars FROM docs ORDER BY source, n_chars DESC, "
                  "doc_id")
    # with WHERE and DESC tie-break
    check(sqlenv, "SELECT DISTINCT ON (lang) lang, doc_id FROM docs "
                  "WHERE n_chars > 4000 ORDER BY lang, doc_id DESC")


def test_distinct_on_without_tiebreak_raises(sqlenv):
    tables, _ = sqlenv
    with pytest.raises(SqlUnsupported, match="DISTINCT ON"):
        sql_query("SELECT DISTINCT ON (source) source, doc_id "
                  "FROM docs", tables)


def test_rows_frames(sqlenv):
    check(sqlenv, "SELECT doc_id, CAST(SUM(n_chars) OVER (PARTITION "
                  "BY source ORDER BY doc_id ROWS BETWEEN 3 PRECEDING "
                  "AND CURRENT ROW) AS BIGINT) AS s3 FROM docs "
                  "WHERE n_chars > 4600", ordered=False)
    check(sqlenv, "SELECT doc_id, AVG(score) OVER (PARTITION BY "
                  "source ORDER BY doc_id ROWS BETWEEN 2 PRECEDING "
                  "AND 2 FOLLOWING) AS ma FROM docs "
                  "WHERE n_chars > 4700", ordered=False)
    check(sqlenv, "SELECT doc_id, COUNT(lang) OVER (PARTITION BY "
                  "source ORDER BY doc_id ROWS UNBOUNDED PRECEDING) "
                  "AS c FROM docs WHERE n_chars > 4800", ordered=False)
    check(sqlenv, "SELECT doc_id, CAST(MAX(n_chars) OVER (PARTITION "
                  "BY source ORDER BY doc_id ROWS BETWEEN 2 PRECEDING "
                  "AND CURRENT ROW) AS BIGINT) AS m FROM docs "
                  "WHERE n_chars > 4600", ordered=False)


def test_running_min_max(sqlenv):
    check(sqlenv, "SELECT doc_id, MAX(n_chars) OVER (PARTITION BY "
                  "source ORDER BY doc_id) AS mx, MIN(score) OVER "
                  "(PARTITION BY source ORDER BY doc_id) AS mn "
                  "FROM docs WHERE n_chars > 4700", ordered=False)
    # null-bearing value column: lang has NULLs -> skip unsupported
    # strings; use n_chars with a null-injecting CASE via score ties
    check(sqlenv, "SELECT doc_id, MIN(n_chars) OVER (PARTITION BY "
                  "lang ORDER BY doc_id) AS mn FROM docs "
                  "WHERE n_chars > 4850", ordered=False)


def test_qualify_on_select_alias(sqlenv):
    check(sqlenv, "SELECT doc_id, ROW_NUMBER() OVER (PARTITION BY "
                  "source ORDER BY n_chars DESC, doc_id) AS rn "
                  "FROM docs QUALIFY rn <= 3", ordered=False)


def test_qualify_inline_window(sqlenv):
    # no window in the select list at all: QUALIFY computes its own
    check(sqlenv, "SELECT doc_id, source FROM docs "
                  "QUALIFY ROW_NUMBER() OVER (PARTITION BY source "
                  "ORDER BY n_chars DESC, doc_id) = 1", ordered=False)


def test_qualify_mixed_with_where(sqlenv):
    check(sqlenv, "SELECT doc_id, lang, RANK() OVER (PARTITION BY "
                  "lang ORDER BY n_chars DESC, doc_id) AS r FROM docs "
                  "WHERE n_chars > 3000 QUALIFY r <= 2 AND "
                  "lang IS NOT NULL", ordered=False)


def test_correlated_exists_complex_raises(sqlenv):
    tables, _ = sqlenv
    # non-equality correlation can't decorrelate to a semi-join, and
    # the residual expression path has no subquery support — refused
    with pytest.raises(SqlUnsupported, match="correlat|SUBQUERY"):
        sql_query("SELECT doc_id FROM docs d WHERE EXISTS "
                  "(SELECT 1 FROM meta m WHERE m.weight > d.n_chars)",
                  tables)


def test_union_all_stream(sqlenv):
    tables, con = sqlenv
    q = ("SELECT doc_id FROM docs WHERE n_chars > 4900 UNION ALL "
         "SELECT doc_id FROM docs WHERE n_chars < 100")
    res = sql_query(q, tables)
    from arcade_ray.collect import collect_arrow

    t = collect_arrow(res).sort_by("doc_id")
    o = con.execute(q).arrow().sort_by("doc_id")
    assert t.to_pylist() == o.to_pylist()


def test_union_distinct(sqlenv):
    tables, con = sqlenv
    q = ("SELECT source FROM docs WHERE n_chars > 4000 UNION "
         "SELECT source FROM meta")
    t = sql_query(q, tables).sort_by("source")
    o = con.execute(q).arrow().sort_by("source")
    assert t.to_pylist() == o.to_pylist()


# --- review-finding regressions -------------------------------------------

def test_select_star_with_limit_and_order(sqlenv):
    tables, con = sqlenv
    t = sql_query("SELECT * FROM docs ORDER BY doc_id LIMIT 5", tables)
    o = con.execute("SELECT * FROM docs ORDER BY doc_id LIMIT 5").arrow()
    assert t.column_names == o.column_names
    assert t.to_pylist() == o.to_pylist()
    t2 = sql_query("SELECT * FROM docs LIMIT 4", tables)
    assert t2.num_rows == 4 and t2.column_names == o.column_names


def test_null_literal_comparisons(sqlenv):
    check(sqlenv, "SELECT doc_id FROM docs WHERE n_chars >= NULL")
    check(sqlenv, "SELECT doc_id FROM docs WHERE lang = NULL")
    check(sqlenv, "SELECT doc_id FROM docs "
                  "WHERE n_chars BETWEEN NULL AND 100")
    # DuckDB folds NOT(x = NULL) to x <> NULL (still never-true);
    # a NULL literal under a REAL NOT rides the residual expression
    # path (Kleene NOT over UNKNOWN) — same rows as DuckDB
    check(sqlenv, "SELECT doc_id FROM docs WHERE NOT (lang = NULL)")
    check(sqlenv, "SELECT doc_id FROM docs WHERE NOT (lang = NULL "
                  "AND n_chars > 1)")


def test_in_list_with_null(sqlenv):
    check(sqlenv, "SELECT doc_id FROM docs WHERE lang IN ('en', NULL)")
    check(sqlenv, "SELECT doc_id FROM docs "
                  "WHERE lang NOT IN ('en', NULL)")
    check(sqlenv, "SELECT doc_id FROM docs WHERE lang IN (NULL)")


def test_order_by_ordinal(sqlenv):
    check(sqlenv, "SELECT source, COUNT(*) AS n FROM docs "
                  "GROUP BY source ORDER BY 2 DESC, 1")
    check(sqlenv, "SELECT doc_id, n_chars FROM docs "
                  "WHERE n_chars > 4900 ORDER BY 2 DESC, 1 LIMIT 6")


def test_order_by_aggregate_not_selected(sqlenv):
    check(sqlenv, "SELECT source FROM docs GROUP BY source "
                  "ORDER BY SUM(n_chars) DESC")
    with pytest.raises(SqlUnsupported):
        sql_query("SELECT doc_id FROM docs ORDER BY SUM(n_chars)",
                  sqlenv[0])


def test_window_negative_offset_lag(sqlenv):
    # LAG(x, -1) == LEAD(x, 1): must not read across partition ends
    check(sqlenv,
          "SELECT doc_id, LAG(n_chars, -1) OVER (PARTITION BY source "
          "ORDER BY doc_id) AS nxt FROM docs WHERE n_chars > 4500",
          ordered=False)


def test_explain_window(sqlenv):
    from arcade_ray.sql import explain_sql

    tables, _ = sqlenv
    p = explain_sql("SELECT doc_id, ROW_NUMBER() OVER (PARTITION BY "
                    "source ORDER BY doc_id) rn FROM docs", tables)
    assert "window functions" in p


def test_row_order_without_limit_distributed(sqlenv):
    tables, con = sqlenv
    res = sql_query("SELECT doc_id, n_chars FROM docs "
                    "WHERE n_chars > 4800 ORDER BY doc_id", tables)
    import ray.data as rd

    assert isinstance(res, rd.Dataset)  # stays a lazy sorted stream
    from arcade_ray.collect import collect_arrow

    t = collect_arrow(res)
    o = con.execute("SELECT doc_id, n_chars FROM docs "
                    "WHERE n_chars > 4800 ORDER BY doc_id").arrow()
    assert t.to_pylist() == o.to_pylist()


# --- contract -------------------------------------------------------------

def test_unsupported_constructs_raise(sqlenv):
    tables, _ = sqlenv
    for q in (
        "SELECT source FROM docs QUALIFY row_number() OVER () = 1",
        "SELECT doc_id FROM docs USING SAMPLE 10%",
        "SELECT d1.doc_id FROM docs d1 JOIN docs d2 ON d1.doc_id = "
        "d2.doc_id JOIN meta ON d1.source = meta.source",
    ):
        with pytest.raises((SqlUnsupported, KeyError)):
            sql_query(q, tables)


def test_unknown_table_and_column(sqlenv):
    tables, _ = sqlenv
    with pytest.raises(KeyError):
        sql_query("SELECT x FROM nope", tables)
    with pytest.raises(KeyError):
        sql_query("SELECT nosuch FROM docs WHERE nosuch = 1", tables)


# --- scalar expressions / CASE / CTEs --------------------------------------

def test_case_when_row(sqlenv):
    check(sqlenv, "SELECT doc_id, CASE WHEN n_chars > 2500 THEN 'long' "
                  "WHEN n_chars > 500 THEN 'mid' ELSE 'short' END AS bucket "
                  "FROM docs WHERE lang = 'en'")


def test_case_base_operand(sqlenv):
    check(sqlenv, "SELECT doc_id, CASE lang WHEN 'en' THEN 1 WHEN 'fr' "
                  "THEN 2 ELSE 0 END AS lc FROM docs WHERE n_chars > 4500")


def test_case_no_else_is_null(sqlenv):
    check(sqlenv, "SELECT doc_id, CASE WHEN score > 0.5 THEN 'hi' END "
                  "AS hs FROM docs WHERE n_chars < 200")


def test_case_over_aggregates(sqlenv):
    check(sqlenv, "SELECT source, CASE WHEN SUM(n_chars) > 800000 THEN "
                  "'big' ELSE 'small' END AS sz FROM docs GROUP BY source")


def test_coalesce_nullif(sqlenv):
    check(sqlenv, "SELECT doc_id, coalesce(lang, 'und') AS l2, "
                  "nullif(source, 'src-0') AS s2 FROM docs "
                  "WHERE n_chars > 4800")


def test_string_functions_row(sqlenv):
    check(sqlenv, "SELECT doc_id, upper(source) AS us, "
                  "length(doc_id) AS n, substr(doc_id, 2, 3) AS mid, "
                  "source || '/' || coalesce(lang, '?') AS tag "
                  "FROM docs WHERE n_chars > 4900")


def test_arith_row_projection(sqlenv):
    check(sqlenv, "SELECT doc_id, n_chars * 2 + 1 AS x, "
                  "n_chars / 100 AS frac, n_chars % 7 AS m "
                  "FROM docs WHERE n_chars > 4900")


def test_computed_projection_order_limit(sqlenv):
    check(sqlenv, "SELECT doc_id, n_chars - 2500 AS delta FROM docs "
                  "WHERE lang = 'fr' ORDER BY n_chars DESC, doc_id "
                  "LIMIT 8")


def test_order_by_computed_alias(sqlenv):
    check(sqlenv, "SELECT doc_id, n_chars % 97 AS h FROM docs "
                  "WHERE lang = 'de' ORDER BY h DESC, doc_id LIMIT 11")


def test_order_by_expression_topk(sqlenv):
    check(sqlenv, "SELECT doc_id FROM docs WHERE lang = 'es' "
                  "ORDER BY n_chars % 1000 DESC, doc_id LIMIT 7")


def test_from_less_select(sqlenv):
    check(sqlenv, "SELECT 1 + 2 AS three, 'x' || 'y' AS s, "
                  "upper('ab') AS u", ordered=True)


def test_cte_basic(sqlenv):
    check(sqlenv, "WITH en AS (SELECT source, n_chars FROM docs "
                  "WHERE lang = 'en') SELECT source, COUNT(*) AS n, "
                  "SUM(n_chars) AS s FROM en GROUP BY source")


def test_cte_chained(sqlenv):
    check(sqlenv, "WITH a AS (SELECT source, n_chars FROM docs "
                  "WHERE n_chars > 1000), "
                  "b AS (SELECT source, COUNT(*) AS n FROM a "
                  "GROUP BY source) "
                  "SELECT source, n FROM b WHERE n > 100 "
                  "ORDER BY n DESC, source")


def test_cte_join_encoded_right_mem(sqlenv):
    # CTE (mem) joins an encoded table: mem side broadcast
    check(sqlenv, "WITH agg AS (SELECT source, COUNT(*) AS n FROM docs "
                  "GROUP BY source) "
                  "SELECT m.region, SUM(agg.n) AS tot FROM agg "
                  "JOIN meta m ON agg.source = m.source "
                  "GROUP BY m.region")


def test_cte_join_left_outer_encoded_preserved(sqlenv):
    # encoded LEFT JOIN cte: streamed side preserved, mem side null-pads
    check(sqlenv, "WITH big AS (SELECT source, COUNT(*) AS n FROM docs "
                  "WHERE n_chars > 4000 GROUP BY source) "
                  "SELECT d.doc_id, big.n FROM docs d LEFT JOIN big "
                  "ON d.source = big.source WHERE d.n_chars > 4900")


def test_cte_window_over_mem(sqlenv):
    check(sqlenv, "WITH f AS (SELECT source, doc_id, n_chars FROM docs "
                  "WHERE n_chars > 4800) "
                  "SELECT doc_id, ROW_NUMBER() OVER (PARTITION BY source "
                  "ORDER BY n_chars DESC, doc_id) AS rn FROM f",
          ordered=False)


def test_cte_self_reference_raises(sqlenv):
    tables, _ = sqlenv
    with pytest.raises((SqlUnsupported, KeyError)):
        sql_query("WITH x AS (SELECT doc_id FROM x) SELECT * FROM x",
                  tables)


def test_case_in_where_on_mem(sqlenv):
    check(sqlenv, "WITH f AS (SELECT doc_id, n_chars, lang FROM docs "
                  "WHERE n_chars > 4000) "
                  "SELECT doc_id FROM f WHERE CASE WHEN lang = 'en' "
                  "THEN n_chars > 4900 ELSE n_chars > 4980 END")


def test_semi_anti_join_sql(sqlenv):
    check(sqlenv, "SELECT doc_id, n_chars FROM docs SEMI JOIN meta "
                  "ON docs.source = meta.source WHERE n_chars > 4800")
    check(sqlenv, "WITH m AS (SELECT source AS msrc FROM meta "
                  "WHERE weight > 50) "
                  "SELECT doc_id FROM docs ANTI JOIN m "
                  "ON docs.source = m.msrc WHERE n_chars > 4800")


def test_semi_join_chain_sql(sqlenv):
    # semi gate at the end of a chain; the gated table's columns are
    # unavailable downstream
    check(sqlenv, "SELECT doc_id, region FROM docs "
                  "JOIN meta ON docs.source = meta.source "
                  "SEMI JOIN reg ON meta.region = reg.region "
                  "WHERE n_chars > 4900")
    tables, _ = sqlenv
    with pytest.raises((SqlUnsupported, KeyError)):
        sql_query("SELECT doc_id, r.zone FROM docs "
                  "JOIN meta ON docs.source = meta.source "
                  "SEMI JOIN reg r ON meta.region = r.region", tables)


def test_derived_table(sqlenv):
    check(sqlenv, "SELECT source, n FROM (SELECT source, COUNT(*) AS "
                  "n FROM docs GROUP BY source) t WHERE n > 600 "
                  "ORDER BY source")
    # column aliases
    check(sqlenv, "SELECT a, b FROM (SELECT source, COUNT(*) FROM "
                  "docs GROUP BY source) t(a, b) ORDER BY a")


def test_derived_table_in_join(sqlenv):
    check(sqlenv, "SELECT doc_id, n FROM docs JOIN "
                  "(SELECT source AS s2, COUNT(*) AS n FROM docs "
                  "GROUP BY source) agg ON docs.source = agg.s2 "
                  "WHERE n_chars > 4900")


def test_intersect_except(sqlenv):
    check(sqlenv, "SELECT source FROM docs WHERE n_chars > 4000 "
                  "INTERSECT SELECT source FROM meta WHERE weight > 30 "
                  "ORDER BY source")
    check(sqlenv, "SELECT source FROM meta EXCEPT "
                  "SELECT source FROM docs ORDER BY source")
    # NULL keys: lang has NULLs on both sides; NULL INTERSECT NULL
    # keeps one NULL row (set-op null equality)
    check(sqlenv, "SELECT lang FROM docs WHERE n_chars > 4500 "
                  "INTERSECT SELECT lang FROM docs WHERE n_chars < 500 "
                  "ORDER BY lang NULLS FIRST")


def test_intersect_except_all(sqlenv):
    check(sqlenv, "SELECT source FROM docs WHERE n_chars > 4900 "
                  "INTERSECT ALL SELECT source FROM docs "
                  "WHERE n_chars > 4850 ORDER BY source")
    check(sqlenv, "SELECT source FROM docs WHERE n_chars > 4850 "
                  "EXCEPT ALL SELECT source FROM docs "
                  "WHERE n_chars > 4900 ORDER BY source")


# --- review regressions (round-4 session 2) -------------------------------

def test_outer_join_coalesced_key_chain(sqlenv):
    # after docs LEFT JOIN meta USING(source), bare 'source' is the
    # PRESERVED side's values — joining it onward matches DuckDB
    check(sqlenv, "SELECT doc_id, source FROM docs "
                  "LEFT JOIN meta USING (source) "
                  "JOIN meta m2 ON source = m2.source "
                  "WHERE n_chars > 4900")
    # the null-extended side's key is coalesced away: refuse loudly
    # instead of silently joining on the preserved side's values
    tables, _ = sqlenv
    with pytest.raises(SqlUnsupported, match="null-extended"):
        sql_query("SELECT doc_id FROM docs d "
                  "LEFT JOIN meta m ON d.source = m.source "
                  "JOIN meta m2 ON m.source = m2.source", tables)


def test_rows_unbounded_following(sqlenv):
    check(sqlenv, "SELECT doc_id, CAST(SUM(n_chars) OVER (PARTITION "
                  "BY source ORDER BY doc_id ROWS BETWEEN UNBOUNDED "
                  "PRECEDING AND 1 FOLLOWING) AS BIGINT) AS s "
                  "FROM docs WHERE n_chars > 4800", ordered=False)
    check(sqlenv, "SELECT doc_id, MAX(n_chars) OVER (PARTITION BY "
                  "source ORDER BY doc_id ROWS BETWEEN UNBOUNDED "
                  "PRECEDING AND 2 FOLLOWING) AS m FROM docs "
                  "WHERE n_chars > 4800", ordered=False)
    # float frame sums: DuckDB's segment-tree evaluation order can
    # differ at the ULP from sequential accumulation — compare rounded
    check(sqlenv, "SELECT doc_id, ROUND(AVG(score) OVER (PARTITION "
                  "BY source ORDER BY doc_id ROWS BETWEEN UNBOUNDED "
                  "PRECEDING AND 1 FOLLOWING), 4) AS a FROM docs "
                  "WHERE n_chars > 4850", ordered=False)


def test_window_over_group_order_by_aggregate(sqlenv):
    # ORDER BY references an aggregate: projected alias reused
    check(sqlenv, "SELECT source, CAST(SUM(n_chars) AS BIGINT) AS s, "
                  "ROW_NUMBER() OVER (ORDER BY source) AS rn FROM docs "
                  "GROUP BY source ORDER BY SUM(n_chars) DESC LIMIT 4",
          ordered=True)
    # ...and an aggregate NOT in the select list at all
    check(sqlenv, "SELECT source, ROW_NUMBER() OVER (ORDER BY source) "
                  "AS rn FROM docs GROUP BY source "
                  "ORDER BY SUM(n_chars) DESC LIMIT 3", ordered=True)


def test_setop_order_by_ordinal(sqlenv):
    check(sqlenv, "SELECT source FROM docs WHERE n_chars > 4900 "
                  "UNION SELECT source FROM meta ORDER BY 1")
    check(sqlenv, "SELECT source FROM docs INTERSECT "
                  "SELECT source FROM meta ORDER BY 1 LIMIT 3")


def test_qualify_without_window_raises(sqlenv):
    tables, _ = sqlenv
    with pytest.raises(SqlUnsupported, match="QUALIFY"):
        sql_query("SELECT doc_id FROM docs QUALIFY n_chars > 1",
                  tables)


def test_intersect_type_promotion(sqlenv):
    check(sqlenv, "SELECT CAST(n_chars AS INTEGER) AS x FROM docs "
                  "WHERE n_chars < 50 INTERSECT "
                  "SELECT n_chars AS x FROM docs WHERE n_chars < 30 "
                  "ORDER BY x")


def test_correlated_exists_limit(sqlenv):
    # LIMIT 0 makes the subquery constant-empty: EXISTS false for all
    check(sqlenv, "SELECT doc_id FROM docs d WHERE EXISTS "
                  "(SELECT 1 FROM meta m WHERE m.source = d.source "
                  "LIMIT 0) AND n_chars > 4900")
    # LIMIT >= 1 never changes existence
    check(sqlenv, "SELECT doc_id FROM docs d WHERE EXISTS "
                  "(SELECT 1 FROM meta m WHERE m.source = d.source "
                  "LIMIT 1) AND n_chars > 4900")
    tables, _ = sqlenv
    # OFFSET changes existence semantics: the predicate compiler
    # refuses it, and the residual expression path can't express
    # subqueries either — still a loud driver-side refusal
    with pytest.raises(SqlUnsupported, match="OFFSET|SUBQUERY"):
        sql_query("SELECT doc_id FROM docs d WHERE EXISTS "
                  "(SELECT 1 FROM meta m WHERE m.source = d.source "
                  "LIMIT 1 OFFSET 1)", tables)


def test_distinct_aggregates(sqlenv):
    check(sqlenv, "SELECT source, CAST(SUM(DISTINCT n_chars) AS "
                  "BIGINT) AS sd, COUNT(DISTINCT n_chars) AS cd "
                  "FROM docs GROUP BY source ORDER BY source")
    check(sqlenv, "SELECT source, AVG(DISTINCT n_chars) AS ad "
                  "FROM docs WHERE n_chars > 4000 GROUP BY source "
                  "ORDER BY source")
    # MIN/MAX(DISTINCT x) == MIN/MAX(x)
    check(sqlenv, "SELECT CAST(MIN(DISTINCT n_chars) AS BIGINT) AS mn, "
                  "CAST(MAX(DISTINCT n_chars) AS BIGINT) AS mx, "
                  "CAST(SUM(DISTINCT n_chars) AS BIGINT) AS sd "
                  "FROM docs WHERE lang = 'de'")
    # null-bearing value column: nulls excluded, all-null group NULL
    check(sqlenv, "SELECT source, CAST(SUM(DISTINCT n_chars) AS "
                  "BIGINT) AS sd FROM docs WHERE lang IS NULL "
                  "GROUP BY source ORDER BY source")


# --- aggregate FILTER clauses and expression arguments ---------------------

def test_agg_filter_grouped(sqlenv):
    check(sqlenv, "SELECT source, "
                  "CAST(SUM(n_chars) FILTER (WHERE lang = 'en') AS "
                  "BIGINT) AS s_en, "
                  "COUNT(*) FILTER (WHERE score > 0.5) AS c_hi "
                  "FROM docs GROUP BY source ORDER BY source")


def test_agg_filter_global_and_where(sqlenv):
    check(sqlenv, "SELECT CAST(SUM(n_chars) FILTER (WHERE lang = 'fr')"
                  " AS BIGINT) AS s FROM docs")
    # FILTER composes with WHERE (WHERE prunes first, then FILTER)
    check(sqlenv, "SELECT COUNT(*) FILTER (WHERE lang IS NULL) AS cn, "
                  "COUNT(*) AS c FROM docs WHERE n_chars > 2500")


def test_agg_filter_min_max_avg(sqlenv):
    check(sqlenv, "SELECT source, "
                  "CAST(MIN(n_chars) FILTER (WHERE score < 0.2) AS "
                  "BIGINT) AS mn, "
                  "MAX(score) FILTER (WHERE lang IS NULL) AS mx, "
                  "AVG(n_chars) FILTER (WHERE lang IN ('en','fr')) "
                  "AS a FROM docs GROUP BY source ORDER BY source")


def test_agg_expression_args(sqlenv):
    check(sqlenv, "SELECT source, "
                  "CAST(SUM(n_chars * 2 + 1) AS BIGINT) AS s2, "
                  "AVG(n_chars * score) AS axs "
                  "FROM docs GROUP BY source ORDER BY source")
    check(sqlenv, "SELECT source, COUNT(CASE WHEN lang = 'en' THEN 1 "
                  "END) AS c_en FROM docs GROUP BY source "
                  "ORDER BY source")


def test_agg_expr_having_and_order(sqlenv):
    # the same SUM(expr) atom in SELECT, HAVING and ORDER BY folds
    # onto ONE hidden derived column
    check(sqlenv, "SELECT source, CAST(SUM(n_chars * 2) AS BIGINT) "
                  "AS s FROM docs GROUP BY source "
                  "HAVING SUM(n_chars * 2) > 2000000 ORDER BY s DESC")


def test_agg_distinct_over_expression(sqlenv):
    check(sqlenv, "SELECT source, COUNT(DISTINCT n_chars % 10) AS cd "
                  "FROM docs GROUP BY source ORDER BY source")
    check(sqlenv, "SELECT CAST(SUM(DISTINCT n_chars // 1000) FILTER "
                  "(WHERE lang = 'en') AS BIGINT) AS sd FROM docs")


# --- GROUP BY expressions / aliases / ordinals ------------------------------

def test_group_by_expression(sqlenv):
    check(sqlenv, "SELECT n_chars % 10 AS b, COUNT(*) AS c FROM docs "
                  "GROUP BY n_chars % 10 ORDER BY b")
    check(sqlenv, "SELECT substr(source, 1, 5) AS p, COUNT(*) AS c "
                  "FROM docs GROUP BY substr(source, 1, 5) ORDER BY p")


def test_group_by_alias_and_ordinal(sqlenv):
    check(sqlenv, "SELECT n_chars % 10 AS b, COUNT(*) AS c FROM docs "
                  "GROUP BY b ORDER BY b")
    check(sqlenv, "SELECT n_chars % 10 AS b, COUNT(*) AS c FROM docs "
                  "GROUP BY 1 ORDER BY b")
    # alias of a plain column + ordinal pointing at a plain column
    check(sqlenv, "SELECT source AS s, COUNT(*) AS c FROM docs "
                  "GROUP BY s ORDER BY s")
    check(sqlenv, "SELECT source, COUNT(*) AS c FROM docs "
                  "GROUP BY 1 ORDER BY source")


def test_group_by_expr_in_having_and_select(sqlenv):
    # the same expression in SELECT, GROUP BY and HAVING folds onto
    # ONE hidden key column; unaliased output keeps DuckDB's name
    check(sqlenv, "SELECT n_chars % 7 AS b, CAST(SUM(n_chars) AS "
                  "BIGINT) AS s FROM docs GROUP BY n_chars % 7 "
                  "HAVING SUM(n_chars) > 100000 ORDER BY b")
    check(sqlenv, "SELECT n_chars % 10, COUNT(*) AS c FROM docs "
                  "GROUP BY n_chars % 10 ORDER BY c DESC, 1")


def test_group_by_case_expression(sqlenv):
    check(sqlenv, "SELECT CASE WHEN n_chars > 2500 THEN 'hi' ELSE "
                  "'lo' END AS band, COUNT(*) AS c, "
                  "COUNT(DISTINCT source) AS cd FROM docs "
                  "GROUP BY band ORDER BY band")


def test_group_by_expr_mixed_and_nulls(sqlenv):
    # expression key + plain key; null-bearing lang flows through the
    # hidden column with SQL GROUP BY null semantics
    check(sqlenv, "SELECT n_chars % 3 AS a, lang, COUNT(*) AS c "
                  "FROM docs GROUP BY n_chars % 3, lang "
                  "ORDER BY a, lang NULLS LAST")
    check(sqlenv, "SELECT coalesce(lang, '??') AS l2, COUNT(*) AS c "
                  "FROM docs GROUP BY coalesce(lang, '??') "
                  "ORDER BY l2")


def test_group_by_expr_with_filter_and_where(sqlenv):
    check(sqlenv, "SELECT n_chars % 5 AS b, COUNT(*) FILTER "
                  "(WHERE lang = 'en') AS c0 FROM docs "
                  "WHERE n_chars > 50 GROUP BY n_chars % 5 ORDER BY b")
    # aggregate argument referencing the hidden group key column
    check(sqlenv, "SELECT n_chars % 4 AS b, CAST(SUM((n_chars % 4) * "
                  "n_chars) AS BIGINT) AS s FROM docs "
                  "GROUP BY n_chars % 4 ORDER BY b")


def test_group_by_keys_only_expression(sqlenv):
    check(sqlenv, "SELECT n_chars % 4 AS b FROM docs "
                  "GROUP BY n_chars % 4 ORDER BY b")


# --- bushy join trees -------------------------------------------------------

def test_bushy_join_mem_tables(ray_session):
    import duckdb

    a = pa.table({"k": [1, 2, 3, 4], "x": [10, 20, 30, 40]})
    b = pa.table({"k": [1, 2, 3, 5], "y": ["p", "q", "r", "s"]})
    c = pa.table({"j": [10, 20, 30, 99], "z": ["A", "B", "C", "D"]})
    d = pa.table({"j": [10, 20, 99], "w": [7, 8, 9]})
    tables = {"a": a, "b": b, "c": c, "d": d}
    con = duckdb.connect()
    for n, t in tables.items():
        con.register(n, t)
    for q in (
        "SELECT a.k, y, z, w FROM (a JOIN b ON a.k = b.k) JOIN "
        "(c JOIN d ON c.j = d.j) ON a.x = c.j ORDER BY a.k",
        "SELECT a.k, y, z FROM (a JOIN b ON a.k = b.k) LEFT JOIN "
        "(c JOIN d ON c.j = d.j) ON a.x = c.j ORDER BY a.k",
        "SELECT count(*) AS n FROM (a JOIN b ON a.k = b.k) JOIN "
        "(c LEFT JOIN d ON c.j = d.j) ON a.x = c.j",
    ):
        mine = sql_query(q, tables)
        if not isinstance(mine, pa.Table):
            from arcade_ray.collect import collect_arrow

            mine = collect_arrow(mine)
        ref = con.sql(q).arrow()
        assert mine.schema.names == ref.schema.names
        assert mine.to_pydict() == ref.to_pydict(), q
    con.close()


def test_bushy_join_encoded(sqlenv):
    # left side: two encoded tables; right side: encoded x derived —
    # the right subtree folds to a driver table answering for both
    # its aliases (reg and zz)
    check(sqlenv, "SELECT zone, COUNT(*) AS c "
                  "FROM (docs JOIN meta ON docs.source = meta.source) "
                  "JOIN (reg JOIN (SELECT 'z-a' AS zn, 1 AS boost "
                  "UNION ALL SELECT 'z-b', 2) zz ON reg.zone = zz.zn) "
                  "ON meta.region = reg.region "
                  "GROUP BY zone ORDER BY zone")


def test_bushy_join_duplicate_alias_refused(sqlenv):
    tables, _ = sqlenv
    with pytest.raises((SqlUnsupported, KeyError)):
        sql_query("SELECT 1 FROM (docs JOIN meta ON docs.source = "
                  "meta.source) JOIN (docs JOIN reg ON 1=1) "
                  "ON meta.region = reg.region", tables)


def test_union_positional_names(sqlenv):
    # set operations are positional: the first side names the output
    check(sqlenv, "SELECT 'z-a' AS zn, 1 AS boost "
                  "UNION ALL SELECT 'z-b', 2 ORDER BY zn")
    check(sqlenv, "SELECT source AS s FROM docs WHERE lang = 'en' "
                  "UNION SELECT source FROM docs WHERE lang = 'fr' "
                  "ORDER BY s")


# --- NULLS FIRST in row-stream ordering -------------------------------------

def test_nulls_first_stream_topk(sqlenv):
    check(sqlenv, "SELECT doc_id, lang, n_chars FROM docs "
                  "WHERE n_chars > 4500 "
                  "ORDER BY lang NULLS FIRST, n_chars DESC, doc_id "
                  "LIMIT 30")
    check(sqlenv, "SELECT doc_id, lang FROM docs WHERE n_chars < 100 "
                  "ORDER BY lang DESC NULLS FIRST, doc_id "
                  "LIMIT 12 OFFSET 3")


def test_nulls_first_distributed_sort(sqlenv):
    # no LIMIT -> Ray's distributed sort with hidden is-null keys
    check(sqlenv, "SELECT doc_id, lang FROM docs WHERE n_chars > 4800 "
                  "ORDER BY lang NULLS FIRST, doc_id", ordered=True)


def test_nulls_first_mixed_with_default(sqlenv):
    check(sqlenv, "SELECT doc_id, lang, score FROM docs "
                  "WHERE n_chars > 4700 "
                  "ORDER BY lang NULLS FIRST, score DESC, doc_id "
                  "LIMIT 20")


def test_grouping_function(sqlenv):
    check(sqlenv, "SELECT source, lang, GROUPING(source) AS gs, "
                  "GROUPING(lang) AS gl, COUNT(*) AS n FROM docs "
                  "GROUP BY ROLLUP (source, lang) "
                  "ORDER BY gs, gl, source NULLS FIRST, "
                  "lang NULLS FIRST")
    # CUBE + HAVING over the flag: keep only the per-source subtotals
    check(sqlenv, "SELECT source, lang, COUNT(*) AS n FROM docs "
                  "GROUP BY CUBE (source, lang) "
                  "HAVING GROUPING(lang) = 1 AND GROUPING(source) = 0 "
                  "ORDER BY source")
    # plain GROUP BY: GROUPING is the constant 0
    check(sqlenv, "SELECT source, GROUPING(source) AS g, COUNT(*) AS n "
                  "FROM docs GROUP BY source ORDER BY source")


# --- ASOF JOIN ---------------------------------------------------------------

@pytest.fixture(scope="module")
def asofenv(ray_session):
    import duckdb

    rng = np.random.default_rng(7)
    n, m = 5000, 800
    ev = pa.table({
        "user_id": pa.array(rng.integers(0, 50, n), type=pa.int64()),
        "ts": pa.array(rng.integers(0, 100000, n), type=pa.int64()),
        "val": pa.array(rng.random(n).round(4), type=pa.float64()),
    })
    # unique (user_id, qts) pairs: the backward match is unambiguous
    qts = rng.choice(100000, size=m, replace=False)
    qt = pa.table({
        "user_id": pa.array(rng.integers(0, 50, m), type=pa.int64()),
        "qts": pa.array(qts, type=pa.int64()),
        "price": pa.array((rng.random(m) * 100).round(2),
                          type=pa.float64()),
    })
    tables = {"ev": ev, "qt": qt}
    con = duckdb.connect()
    for k, t in tables.items():
        con.register(k, t)
    yield tables, con
    con.close()


def test_asof_join_inner_and_left(asofenv):
    for q in (
        "SELECT e.user_id, e.ts, q.qts, q.price FROM ev e ASOF JOIN "
        "qt q ON e.user_id = q.user_id AND e.ts >= q.qts "
        "ORDER BY e.user_id, e.ts, e.val",
        "SELECT e.user_id, e.ts, q.qts, q.price FROM ev e ASOF LEFT "
        "JOIN qt q ON e.user_id = q.user_id AND e.ts >= q.qts "
        "ORDER BY e.user_id, e.ts, e.val",
        # flipped operand order, WHERE + aggregation over the join
        "SELECT e.user_id, COUNT(*) AS n, CAST(SUM(q.price) AS "
        "DOUBLE) AS sp FROM ev e ASOF JOIN qt q ON e.user_id = "
        "q.user_id AND q.qts <= e.ts WHERE e.val > 0.5 "
        "GROUP BY e.user_id ORDER BY e.user_id",
    ):
        check(asofenv, q)


def test_asof_join_name_collision_suffix(asofenv):
    tables, con = asofenv
    # qt.ts would collide if both sides named it ts: rename via CTE
    q = ("WITH qq AS (SELECT user_id, qts AS ts, price FROM qt) "
         "SELECT e.user_id, e.ts, qq.ts AS rts, price FROM ev e "
         "ASOF JOIN qq ON e.user_id = qq.user_id AND e.ts >= qq.ts "
         "ORDER BY e.user_id, e.ts, e.val")
    mine = sql_query(q, tables)
    if not isinstance(mine, pa.Table):
        from arcade_ray.collect import collect_arrow

        mine = collect_arrow(mine)
    ref = con.sql(q).arrow()
    assert mine.schema.names == ref.schema.names
    assert mine.to_pydict() == ref.to_pydict()


def test_asof_join_nested_in_chain(asofenv):
    tables, con = asofenv
    tables = dict(tables)
    lab = pa.table({"user_id": pa.array(list(range(50)),
                                        type=pa.int64()),
                    "grp": pa.array([f"g{i % 4}" for i in range(50)])})
    tables["lab"] = lab
    con.register("lab", lab)
    q = ("SELECT grp, COUNT(*) AS n FROM (ev e ASOF JOIN qt q ON "
         "e.user_id = q.user_id AND e.ts >= q.qts) JOIN lab ON "
         "e.user_id = lab.user_id GROUP BY grp ORDER BY grp")
    mine = sql_query(q, tables)
    if not isinstance(mine, pa.Table):
        from arcade_ray.collect import collect_arrow

        mine = collect_arrow(mine)
    ref = con.sql(q).arrow()
    assert mine.to_pydict() == ref.to_pydict()


def test_asof_join_refusals(asofenv):
    """Strict and forward ASOF are SUPPORTED since round 5 (see
    test_asof_all_directions); only genuinely unsupported shapes
    refuse."""
    tables, _ = asofenv
    for q in (
        # right join key is coalesced away
        "SELECT q.user_id FROM ev e ASOF JOIN qt q ON e.user_id = "
        "q.user_id AND e.ts >= q.qts",
        # not-equal is no ASOF inequality
        "SELECT e.ts FROM ev e ASOF JOIN qt q ON e.user_id = "
        "q.user_id AND e.ts <> q.qts",
    ):
        with pytest.raises(SqlUnsupported):
            sql_query(q, tables)


def test_rows_frame_min_max(sqlenv):
    check(sqlenv, "SELECT doc_id, CAST(MIN(n_chars) OVER (PARTITION "
                  "BY source ORDER BY doc_id ROWS BETWEEN 3 PRECEDING "
                  "AND CURRENT ROW) AS BIGINT) AS m3, "
                  "CAST(MAX(n_chars) OVER (PARTITION BY source "
                  "ORDER BY doc_id ROWS BETWEEN 2 PRECEDING AND "
                  "2 FOLLOWING) AS BIGINT) AS x22 "
                  "FROM docs WHERE n_chars > 4000 "
                  "ORDER BY doc_id LIMIT 200")
    # floats + null-bearing column through a bounded frame
    check(sqlenv, "SELECT doc_id, MAX(score) OVER (PARTITION BY lang "
                  "ORDER BY doc_id ROWS BETWEEN 5 PRECEDING AND "
                  "CURRENT ROW) AS mx FROM docs WHERE n_chars < 200 "
                  "ORDER BY doc_id LIMIT 150")


# --- datetime functions ----------------------------------------------------

def test_date_trunc_group_by(sqlenv):
    check(sqlenv, "SELECT date_trunc('month', ts) AS mon, COUNT(*) AS n, "
                  "SUM(n_chars) AS chars FROM docs GROUP BY mon "
                  "ORDER BY mon")
    # AVG over ints: sum and count are exact, so the quotient is
    # reproducible regardless of distributed summation order
    check(sqlenv, "SELECT date_trunc('week', ts) AS wk, AVG(n_chars) "
                  "AS s FROM docs GROUP BY wk ORDER BY wk LIMIT 10")


def test_date_trunc_select_units(sqlenv):
    check(sqlenv, "SELECT doc_id, date_trunc('day', ts) AS d, "
                  "date_trunc('hour', ts) AS h, "
                  "date_trunc('minute', ts) AS m FROM docs "
                  "ORDER BY doc_id LIMIT 50")


def test_date_part_accessors(sqlenv):
    check(sqlenv, "SELECT doc_id, year(ts) AS y, month(ts) AS mo, "
                  "day(ts) AS d, hour(ts) AS h, minute(ts) AS mi, "
                  "second(ts) AS s FROM docs ORDER BY doc_id LIMIT 80")
    check(sqlenv, "SELECT doc_id, dayofweek(ts) AS dw, dayofyear(ts) "
                  "AS dy, quarter(ts) AS q, week(ts) AS w, isodow(ts) "
                  "AS idw FROM docs ORDER BY doc_id LIMIT 80")


def test_extract_syntax_and_epoch(sqlenv):
    check(sqlenv, "SELECT doc_id, extract(hour FROM ts) AS h, "
                  "extract(dow FROM ts) AS dw, epoch(ts) AS e, "
                  "epoch_ms(ts) AS ems FROM docs ORDER BY doc_id "
                  "LIMIT 60")
    check(sqlenv, "SELECT doc_id, millisecond(ts) AS ms, "
                  "microsecond(ts) AS us FROM docs "
                  "ORDER BY doc_id LIMIT 60")


def test_strftime_formats(sqlenv):
    check(sqlenv, "SELECT doc_id, strftime(ts, '%Y-%m') AS ym, "
                  "strftime(ts, '%Y-%m-%d %H:%M') AS full FROM docs "
                  "ORDER BY doc_id LIMIT 60")


def test_datetime_in_aggregates_and_having(sqlenv):
    check(sqlenv, "SELECT year(ts) AS y, quarter(ts) AS q, "
                  "COUNT(*) AS n FROM docs GROUP BY y, q "
                  "HAVING COUNT(*) > 10 ORDER BY y, q")


def test_datetime_min_max_aggregate(sqlenv):
    check(sqlenv, "SELECT source, MIN(ts) AS first_ts, MAX(ts) AS "
                  "last_ts FROM docs GROUP BY source ORDER BY source")


# --- residual WHERE (expression fallback over the pruned scan) -------------

def test_residual_where_function(sqlenv):
    check(sqlenv, "SELECT doc_id FROM docs WHERE length(doc_id) = 8 "
                  "AND upper(lang) = 'EN' AND n_chars > 4000")
    check(sqlenv, "SELECT doc_id, n_chars FROM docs "
                  "WHERE year(ts) = 2024 AND month(ts) = 3")


def test_residual_where_arithmetic_and_colcol(sqlenv):
    check(sqlenv, "SELECT doc_id FROM docs WHERE n_chars % 97 = 3")
    check(sqlenv, "SELECT doc_id FROM docs "
                  "WHERE score * 5000 > n_chars AND lang = 'fr'")


def test_residual_where_3vl_nulls(sqlenv):
    # upper(NULL) = 'EN' is UNKNOWN -> row drops (not an error)
    check(sqlenv, "SELECT doc_id FROM docs WHERE upper(lang) = 'EN' "
                  "OR n_chars + 0 < 5")


def test_residual_where_case(sqlenv):
    check(sqlenv, "SELECT doc_id FROM docs WHERE (CASE WHEN lang = 'en'"
                  " THEN n_chars ELSE 0 END) > 4500")


def test_residual_unknown_column_raises(sqlenv):
    import pytest as _pt

    from arcade_ray.sql import SqlUnsupported as _SU
    tables, _ = sqlenv
    with _pt.raises((_SU, KeyError)):
        from arcade_ray.sql import sql_query
        sql_query("SELECT doc_id FROM docs WHERE length(nope) = 1",
                  tables)


def test_string_functions_extended(sqlenv):
    check(sqlenv, "SELECT doc_id, replace(doc_id, '0', 'O') AS r, "
                  "left(doc_id, 3) AS l, right(doc_id, 2) AS rr, "
                  "repeat(lang, 2) AS rep FROM docs "
                  "ORDER BY doc_id LIMIT 40")
    check(sqlenv, "SELECT doc_id, lpad(source, 9, '*') AS lp, "
                  "rpad(source, 3, '#') AS rp, strpos(doc_id, '9') "
                  "AS sp FROM docs ORDER BY doc_id LIMIT 40")
    check(sqlenv, "SELECT doc_id, split_part(source, '-', 2) AS p2, "
                  "split_part(source, '-', 5) AS p5, "
                  "split_part(lang, 'x', 1) AS px FROM docs "
                  "ORDER BY doc_id LIMIT 40")


def test_string_functions_in_where_residual(sqlenv):
    check(sqlenv, "SELECT doc_id FROM docs "
                  "WHERE split_part(source, '-', 2) = '3'")
    check(sqlenv, "SELECT doc_id FROM docs "
                  "WHERE strpos(doc_id, '77') > 0 AND lang = 'en'")


# --- DML: DELETE / UPDATE ---------------------------------------------------

def test_sql_update_and_delete(sqlenv, tmp_path):
    import shutil

    from arcade_ray.sql import sql_query

    tables, con = sqlenv
    work = str(tmp_path / "dml")
    shutil.copytree(tables["docs"], work)
    t = {"docs": work}
    n_hit = con.execute(
        "SELECT count(*) FROM docs WHERE n_chars > 4900").fetchone()[0]

    res = sql_query("UPDATE docs SET lang = 'xx', "
                    "n_chars = n_chars - 4900 WHERE n_chars > 4900", t)
    assert res["rows_updated"][0].as_py() == n_hit
    got = sql_query("SELECT COUNT(*) AS n, CAST(MAX(n_chars) AS "
                    "BIGINT) AS mx FROM docs WHERE lang = 'xx'", t)
    assert got["n"][0].as_py() == n_hit
    assert got["mx"][0].as_py() < 4900  # the expression really ran
    total = sql_query("SELECT COUNT(*) AS n FROM docs", t)

    res = sql_query("DELETE FROM docs WHERE lang = 'xx'", t)
    assert res["rows_deleted"][0].as_py() == n_hit
    left = sql_query("SELECT COUNT(*) AS n FROM docs", t)
    assert left["n"][0].as_py() == total["n"][0].as_py() - n_hit
    # idempotent re-run: nothing left to delete
    res = sql_query("DELETE FROM docs WHERE lang = 'xx'", t)
    assert res["rows_deleted"][0].as_py() == 0


def test_sql_dml_refusals(sqlenv, tmp_path):
    import pytest as _pt

    from arcade_ray.sql import SqlUnsupported as _SU
    from arcade_ray.sql import sql_query

    tables, _ = sqlenv
    t = dict(tables)
    with _pt.raises(_SU, match="WHERE clause"):
        sql_query("DELETE FROM docs", t)
    with _pt.raises(_SU, match="predicate-tree"):
        # residual WHERE (scalar function) cannot drive a rewrite
        sql_query("DELETE FROM docs WHERE upper(lang) = 'EN'", t)
    with _pt.raises(KeyError):
        sql_query("UPDATE docs SET nope = 1 WHERE n_chars > 4999", t)
    with _pt.raises(_SU, match="SET twice"):
        sql_query("UPDATE docs SET lang = 'a', lang = 'b' "
                  "WHERE n_chars > 4999", t)


# --- positional / collecting aggregates -------------------------------------

def test_arg_max_min_grouped(sqlenv):
    # unique BY values (score is ~unique) so DuckDB's arbitrary tie
    # pick cannot diverge from our deterministic one
    check(sqlenv, "SELECT source, arg_max(doc_id, score) AS am, "
                  "arg_min(doc_id, score) AS an "
                  "FROM docs GROUP BY source ORDER BY source")


def test_arg_max_skips_null_pairs(sqlenv):
    # lang holds nulls: rows where EITHER argument is null are ignored
    check(sqlenv, "SELECT source, max_by(lang, n_chars) AS ml "
                  "FROM docs WHERE n_chars % 13 = 0 "
                  "GROUP BY source ORDER BY source")


def test_arg_max_global_and_having(sqlenv):
    check(sqlenv, "SELECT arg_max(doc_id, score) AS am FROM docs")
    check(sqlenv, "SELECT source, COUNT(*) AS n, "
                  "arg_min(doc_id, n_chars) AS an FROM docs "
                  "GROUP BY source HAVING COUNT(*) > 100 "
                  "ORDER BY source")


def test_string_agg_ordered(sqlenv):
    check(sqlenv, "SELECT source, string_agg(lang, '|' ORDER BY lang) "
                  "AS sl FROM docs WHERE n_chars < 100 "
                  "GROUP BY source ORDER BY source")
    # int values cast to VARCHAR like DuckDB; DESC order
    check(sqlenv, "SELECT string_agg(n_chars, ',' ORDER BY n_chars "
                  "DESC) AS s FROM docs WHERE n_chars > 4980")


def test_array_agg_ordered_keeps_nulls(sqlenv):
    check(sqlenv, "SELECT source, array_agg(lang ORDER BY lang) AS la "
                  "FROM docs WHERE n_chars < 60 "
                  "GROUP BY source ORDER BY source")
    check(sqlenv, "SELECT array_agg(doc_id ORDER BY score DESC "
                  "NULLS FIRST) AS ad FROM docs WHERE n_chars > 4990")


def test_list_rewrite_of_order_by_self(sqlenv):
    # DuckDB parses list(x ORDER BY x) as list_sort(list(x)): the
    # engine must provide both the aggregate and the scalar kernel
    check(sqlenv, "SELECT source, list(lang ORDER BY lang) AS ll "
                  "FROM docs WHERE n_chars < 60 "
                  "GROUP BY source ORDER BY source")


def test_list_sort_scalar_and_literals(sqlenv):
    check(sqlenv, "SELECT list_sort(['q', NULL, 'a']) AS ls, "
                  "list_reverse_sort([2, NULL, 9]) AS lr "
                  "FROM docs LIMIT 1", ordered=True)
    check(sqlenv, "SELECT doc_id, list_sort([n_chars, n_chars % 7]) "
                  "AS lz FROM docs ORDER BY doc_id LIMIT 6")


def test_sql_insert_values_and_select(ray_session, tmp_path):
    import pyarrow.parquet as _pq

    from arcade_ray.collect import collect_arrow
    from arcade_ray.pipeline.encode import encode_parquet
    from arcade_ray.sql import sql_query

    t = pa.table({
        "doc_id": pa.array([f"d{i:04d}" for i in range(200)]),
        "source": pa.array([f"s{i % 3}" for i in range(200)]),
        "n_chars": pa.array(list(range(200)), type=pa.int64()),
    })
    p = str(tmp_path / "t.parquet")
    _pq.write_table(t, p)
    out = str(tmp_path / "enc")
    encode_parquet(p, out, key_col="source", id_col="doc_id",
                   weight_col=None)
    tb = {"docs": out}

    r = sql_query("INSERT INTO docs VALUES ('x1', 's9', 1000), "
                  "('x2', 's9', 2000)", tb)
    assert r.to_pylist() == [{"rows_inserted": 2,
                              "generation": "ins0000"}]
    r = sql_query("INSERT INTO docs (doc_id, source, n_chars) "
                  "SELECT doc_id || '_c', 's9', n_chars + 1 "
                  "FROM docs WHERE n_chars < 2", tb)
    assert r.to_pylist() == [{"rows_inserted": 2,
                              "generation": "ins0001"}]
    got = sql_query("SELECT doc_id, n_chars FROM docs "
                    "WHERE source = 's9' ORDER BY doc_id", tb)
    got = got if isinstance(got, pa.Table) else collect_arrow(got)
    assert got.to_pylist() == [
        {"doc_id": "d0000_c", "n_chars": 1},
        {"doc_id": "d0001_c", "n_chars": 2},
        {"doc_id": "x1", "n_chars": 1000},
        {"doc_id": "x2", "n_chars": 2000}]
    n = sql_query("SELECT COUNT(*) AS n FROM docs", tb)
    assert n["n"][0].as_py() == 204


def test_sql_insert_refusals(ray_session, tmp_path):
    import pyarrow.parquet as _pq
    import pytest as _pt

    from arcade_ray.pipeline.encode import encode_parquet
    from arcade_ray.sql import SqlUnsupported as _SU
    from arcade_ray.sql import sql_query

    t = pa.table({
        "doc_id": pa.array(["a", "b"]),
        "source": pa.array(["s0", "s1"]),
        "n_chars": pa.array([1, 2], type=pa.int64()),
    })
    p = str(tmp_path / "t.parquet")
    _pq.write_table(t, p)
    out = str(tmp_path / "enc")
    encode_parquet(p, out, key_col="source", id_col="doc_id",
                   weight_col=None)
    tb = {"docs": out}
    with _pt.raises(_SU, match="columns"):
        sql_query("INSERT INTO docs VALUES ('x')", tb)
    with _pt.raises(_SU, match="partition key"):
        # column list omits the dir's key column
        sql_query("INSERT INTO docs (doc_id, n_chars) "
                  "VALUES ('x', 1)", tb)
    with _pt.raises(KeyError):
        sql_query("INSERT INTO docs (doc_id, nope, n_chars) "
                  "VALUES ('x', 's', 1)", tb)
    with _pt.raises(_SU, match="encoded dir"):
        sql_query("INSERT INTO docs VALUES ('x', 's', 1)",
                  {"docs": t})


def test_sql_select_from_values(sqlenv):
    check(sqlenv, "SELECT * FROM (VALUES (1, 'a'), (2, 'b'), "
                  "(NULL, 'c')) t(i, s) ORDER BY i NULLS FIRST")
    check(sqlenv, "SELECT t.s, COUNT(*) AS n FROM "
                  "(VALUES ('x'), ('y'), ('x')) t(s) "
                  "GROUP BY t.s ORDER BY t.s")


def test_sql_ctas_and_drop(ray_session, tmp_path):
    import pyarrow.parquet as _pq
    import pytest as _pt

    from arcade_ray.collect import collect_arrow
    from arcade_ray.pipeline.encode import encode_parquet
    from arcade_ray.sql import SqlUnsupported as _SU
    from arcade_ray.sql import sql_query

    t = pa.table({
        "doc_id": pa.array([f"d{i:04d}" for i in range(300)]),
        "source": pa.array([f"s{i % 4}" for i in range(300)]),
        "n_chars": pa.array(list(range(300)), type=pa.int64()),
    })
    p = str(tmp_path / "t.parquet")
    _pq.write_table(t, p)
    out = str(tmp_path / "enc")
    encode_parquet(p, out, key_col="source", id_col="doc_id",
                   weight_col=None)
    ws = str(tmp_path / "ws")
    tb = {"docs": out}

    with _pt.raises(_SU, match="workspace"):
        sql_query("CREATE TABLE big PARTITION BY (source, doc_id) AS "
                  "SELECT * FROM docs", tb)
    with _pt.raises(_SU, match="PARTITION BY"):
        sql_query("CREATE TABLE big AS SELECT * FROM docs", tb,
                  workspace=ws)
    r = sql_query("CREATE TABLE big PARTITION BY (source, doc_id) AS "
                  "SELECT doc_id, source, n_chars FROM docs "
                  "WHERE n_chars >= 100", tb, workspace=ws)
    assert r.to_pylist()[0]["table"] == "big"
    assert r.to_pylist()[0]["rows"] == 200
    assert tb["big"].endswith("/big")
    # the new table is a full citizen: query, join, insert
    got = sql_query("SELECT COUNT(*) AS n, SUM(n_chars) AS s FROM big "
                    "WHERE source = 's1'", tb)
    exp = sum(i for i in range(100, 300) if i % 4 == 1)
    assert got.to_pylist() == [{"n": 50, "s": exp}]
    j = sql_query("SELECT COUNT(*) AS n FROM docs "
                  "JOIN big ON docs.doc_id = big.doc_id", tb)
    assert j["n"][0].as_py() == 200
    with _pt.raises(ValueError, match="already exists"):
        sql_query("CREATE TABLE big PARTITION BY (source) AS "
                  "SELECT * FROM docs", tb, workspace=ws)
    r2 = sql_query("CREATE OR REPLACE TABLE big PARTITION BY (source) "
                   "AS SELECT doc_id, source FROM docs "
                   "WHERE n_chars < 10", tb, workspace=ws)
    assert r2.to_pylist()[0]["rows"] == 10
    got2 = sql_query("SELECT doc_id FROM big ORDER BY doc_id", tb)
    got2 = got2 if isinstance(got2, pa.Table) else collect_arrow(got2)
    assert got2["doc_id"].to_pylist() == [f"d{i:04d}" for i in range(10)]

    # DROP refuses external dirs, drops workspace tables
    with _pt.raises(_SU, match="workspace"):
        sql_query("DROP TABLE docs", tb, workspace=ws)
    r3 = sql_query("DROP TABLE big", tb, workspace=ws)
    assert r3.to_pylist() == [{"table": "big", "dropped": True}]
    assert "big" not in tb and not os.path.exists(os.path.join(ws, "big"))
    r4 = sql_query("DROP TABLE IF EXISTS big", tb, workspace=ws)
    assert r4.to_pylist() == [{"table": "big", "dropped": False}]
    with _pt.raises(KeyError):
        sql_query("DROP TABLE big", tb, workspace=ws)


def test_sql_merge_upsert(ray_session, tmp_path):
    import pyarrow.parquet as _pq
    import pytest as _pt

    from arcade_ray.collect import collect_arrow
    from arcade_ray.pipeline.encode import encode_parquet
    from arcade_ray.sql import SqlUnsupported as _SU
    from arcade_ray.sql import sql_query

    t = pa.table({
        "doc_id": pa.array([f"d{i:04d}" for i in range(200)]),
        "source": pa.array([f"s{i % 3}" for i in range(200)]),
        "n_chars": pa.array(list(range(200)), type=pa.int64()),
        "lang": pa.array(["en"] * 200),
    })
    p = str(tmp_path / "t.parquet")
    _pq.write_table(t, p)
    out = str(tmp_path / "enc")
    encode_parquet(p, out, key_col="source", id_col="doc_id",
                   weight_col=None)
    tb = {"docs": out}

    src = pa.table({
        "doc_id": pa.array(["d0003", "d0100", "x900", "x901"]),
        "source": pa.array(["s0", "s1", "s9", "s9"]),
        "n_chars": pa.array([7777, 8888, 11, 22], type=pa.int64()),
        "lang": pa.array(["de", "fr", "it", "pt"]),
    })
    tb["updates"] = src

    r = sql_query("MERGE INTO docs USING updates u "
                  "ON docs.doc_id = u.doc_id "
                  "WHEN MATCHED THEN UPDATE SET n_chars = u.n_chars, "
                  "lang = u.lang "
                  "WHEN NOT MATCHED THEN INSERT", tb)
    row = r.to_pylist()[0]
    assert row["rows_updated"] == 2 and row["rows_inserted"] == 2
    assert row["generation"] == "mrg0000"

    got = sql_query("SELECT doc_id, n_chars, lang FROM docs WHERE "
                    "doc_id IN ('d0003', 'd0100', 'd0004', 'x900', "
                    "'x901') ORDER BY doc_id", tb)
    got = got if isinstance(got, pa.Table) else collect_arrow(got)
    assert got.to_pylist() == [
        {"doc_id": "d0003", "n_chars": 7777, "lang": "de"},
        {"doc_id": "d0004", "n_chars": 4, "lang": "en"},
        {"doc_id": "d0100", "n_chars": 8888, "lang": "fr"},
        {"doc_id": "x900", "n_chars": 11, "lang": "it"},
        {"doc_id": "x901", "n_chars": 22, "lang": "pt"}]
    n = sql_query("SELECT COUNT(*) AS n FROM docs", tb)
    assert n["n"][0].as_py() == 202

    # idempotent re-run: now everything matches, nothing inserts
    r2 = sql_query("MERGE INTO docs USING updates u "
                   "ON docs.doc_id = u.doc_id "
                   "WHEN MATCHED THEN UPDATE SET n_chars = u.n_chars, "
                   "lang = u.lang "
                   "WHEN NOT MATCHED THEN INSERT", tb)
    row2 = r2.to_pylist()[0]
    assert row2["rows_updated"] == 4 and row2["rows_inserted"] == 0
    n = sql_query("SELECT COUNT(*) AS n FROM docs", tb)
    assert n["n"][0].as_py() == 202

    # constant assignment + subquery source + update-only merge
    r3 = sql_query("MERGE INTO docs USING (SELECT doc_id FROM docs "
                   "WHERE n_chars >= 8888) m ON docs.doc_id = m.doc_id "
                   "WHEN MATCHED THEN UPDATE SET lang = 'xx'", tb)
    assert r3.to_pylist()[0]["rows_updated"] == 1
    got3 = sql_query("SELECT lang FROM docs WHERE doc_id = 'd0100'", tb)
    got3 = got3 if isinstance(got3, pa.Table) else collect_arrow(got3)
    assert got3["lang"].to_pylist() == ["xx"]

    # duplicate source keys refuse
    dup = pa.table({"doc_id": pa.array(["a", "a"]),
                    "source": pa.array(["s0", "s0"]),
                    "n_chars": pa.array([1, 2], type=pa.int64()),
                    "lang": pa.array(["en", "en"])})
    tb["dup"] = dup
    with _pt.raises(ValueError, match="duplicate"):
        sql_query("MERGE INTO docs USING dup ON docs.doc_id = "
                  "dup.doc_id WHEN MATCHED THEN UPDATE SET "
                  "n_chars = dup.n_chars", tb)
    with _pt.raises(_SU, match="equality"):
        sql_query("MERGE INTO docs USING updates u ON docs.doc_id = "
                  "u.doc_id AND 1 = 1 WHEN MATCHED THEN UPDATE SET "
                  "lang = u.lang", tb)


def test_ctas_or_replace_preserves_on_error(ray_session, tmp_path):
    import pyarrow.parquet as _pq
    import pytest as _pt

    from arcade_ray.collect import collect_arrow
    from arcade_ray.pipeline.encode import encode_parquet
    from arcade_ray.sql import sql_query

    t = pa.table({"doc_id": pa.array(["a", "b"]),
                  "source": pa.array(["s0", "s1"]),
                  "n_chars": pa.array([1, 2], type=pa.int64())})
    p = str(tmp_path / "t.parquet")
    _pq.write_table(t, p)
    out = str(tmp_path / "enc")
    encode_parquet(p, out, key_col="source", id_col="doc_id",
                   weight_col=None)
    ws = str(tmp_path / "ws")
    tb = {"docs": out}
    sql_query("CREATE TABLE x PARTITION BY (source, doc_id) AS "
              "SELECT * FROM docs", tb, workspace=ws)
    # a failing body must not destroy the existing table
    with _pt.raises(Exception):
        sql_query("CREATE OR REPLACE TABLE x PARTITION BY (source) "
                  "AS SELECT nope FROM docs", tb, workspace=ws)
    n = sql_query("SELECT COUNT(*) AS n FROM x", tb)
    assert n["n"][0].as_py() == 2
    # self-referential OR REPLACE reads the old table while building
    r = sql_query("CREATE OR REPLACE TABLE x PARTITION BY (source) AS "
                  "SELECT doc_id, source FROM x WHERE doc_id = 'a'",
                  tb, workspace=ws)
    assert r.to_pylist()[0]["rows"] == 1
    got = sql_query("SELECT doc_id FROM x", tb)
    got = got if isinstance(got, pa.Table) else collect_arrow(got)
    assert got["doc_id"].to_pylist() == ["a"]


def test_values_type_promotion(sqlenv):
    import pytest as _pt

    from arcade_ray.sql import SqlUnsupported as _SU
    from arcade_ray.sql import sql_query

    check(sqlenv, "SELECT * FROM (VALUES (1), (2.5)) t(x) "
                  "ORDER BY t.x")
    with _pt.raises(_SU, match="incompatible"):
        sql_query("SELECT * FROM (VALUES (1), ('a')) t(x)",
                  sqlenv[0])


def test_insert_omitting_weight_col(ray_session, tmp_path):
    import pyarrow.parquet as _pq

    from arcade_ray.collect import collect_arrow
    from arcade_ray.pipeline.encode import encode_parquet
    from arcade_ray.sql import sql_query

    t = pa.table({"doc_id": pa.array(["a", "b"]),
                  "source": pa.array(["s0", "s1"]),
                  "w": pa.array([5, 6], type=pa.int64())})
    p = str(tmp_path / "t.parquet")
    _pq.write_table(t, p)
    out = str(tmp_path / "enc")
    encode_parquet(p, out, key_col="source", id_col="doc_id",
                   weight_col="w")
    tb = {"docs": out}
    r = sql_query("INSERT INTO docs (doc_id, source) VALUES "
                  "('c', 's2')", tb)
    assert r.to_pylist()[0]["rows_inserted"] == 1
    got = sql_query("SELECT doc_id, w FROM docs ORDER BY doc_id", tb)
    got = got if isinstance(got, pa.Table) else collect_arrow(got)
    assert got.to_pylist() == [
        {"doc_id": "a", "w": 5}, {"doc_id": "b", "w": 6},
        {"doc_id": "c", "w": None}]


def test_insert_into_clustered_layout_appends(ray_session, tmp_path):
    """INSERT into a range-clustered dir is SUPPORTED (round-4 review
    gap closed): the append generation reuses the recorded clustering
    and the row is visible through range filters afterwards. Omitting
    the clustering column still refuses clearly."""
    import pyarrow.parquet as _pq
    import pytest as _pt

    from arcade_ray.pipeline.encode import encode_parquet
    from arcade_ray.sql import SqlUnsupported, sql_query

    t = pa.table({"doc_id": pa.array([f"d{i}" for i in range(50)]),
                  "source": pa.array([f"s{i % 2}" for i in range(50)]),
                  "v": pa.array(list(range(50)), type=pa.int64())})
    p = str(tmp_path / "t.parquet")
    _pq.write_table(t, p)
    out = str(tmp_path / "enc_rp")
    encode_parquet(p, out, key_col="source", id_col="doc_id",
                   weight_col=None, range_partition_col="v")
    tb = {"docs": out}
    r = sql_query("INSERT INTO docs (doc_id, source, v) VALUES "
                  "('x', 's0', 999)", tb)
    assert r.to_pylist()[0]["rows_inserted"] == 1
    got = sql_query("SELECT doc_id, v FROM docs WHERE v >= 900", tb)
    from arcade_ray.collect import collect_arrow as _ca
    got = got if isinstance(got, pa.Table) else _ca(got)
    assert got.to_pylist() == [{"doc_id": "x", "v": 999}]
    # the clustering column is required in the INSERT column list
    with _pt.raises(SqlUnsupported, match="clustering"):
        sql_query("INSERT INTO docs (doc_id, source) VALUES "
                  "('y', 's1')", tb)


def test_merge_generation_missing_set_col(ray_session, tmp_path):
    import pyarrow.parquet as _pq
    import pytest as _pt

    from arcade_ray.pipeline.encode import encode_parquet
    from arcade_ray.sql import sql_query

    t = pa.table({"doc_id": pa.array(["a", "b"]),
                  "source": pa.array(["s0", "s1"]),
                  "lang": pa.array(["en", "de"]),
                  "n": pa.array([1, 2], type=pa.int64())})
    p = str(tmp_path / "t.parquet")
    _pq.write_table(t, p)
    out = str(tmp_path / "enc")
    encode_parquet(p, out, key_col="source", id_col="doc_id",
                   weight_col=None)
    tb = {"docs": out}
    # a generation WITHOUT the lang column
    sql_query("INSERT INTO docs (doc_id, source) VALUES ('c', 's0')",
              tb)
    src = pa.table({"doc_id": pa.array(["a", "c"]),
                    "lang": pa.array(["xx", "yy"])})
    tb["u"] = src
    with _pt.raises(KeyError, match="lacks column"):
        sql_query("MERGE INTO docs USING u ON docs.doc_id = u.doc_id "
                  "WHEN MATCHED THEN UPDATE SET lang = u.lang", tb)
    # nothing half-applied
    from arcade_ray.collect import collect_arrow

    got = sql_query("SELECT lang FROM docs WHERE doc_id = 'a'", tb)
    got = got if isinstance(got, pa.Table) else collect_arrow(got)
    assert got["lang"].to_pylist() == ["en"]


def test_merge_insert_only_no_rewrite(ray_session, tmp_path):
    import pyarrow.parquet as _pq

    from arcade_ray.pipeline.encode import encode_parquet
    from arcade_ray.sql import sql_query

    t = pa.table({"doc_id": pa.array(["a", "b"]),
                  "source": pa.array(["s0", "s1"]),
                  "n": pa.array([1, 2], type=pa.int64())})
    p = str(tmp_path / "t.parquet")
    _pq.write_table(t, p)
    out = str(tmp_path / "enc")
    encode_parquet(p, out, key_col="source", id_col="doc_id",
                   weight_col=None)
    src = pa.table({"doc_id": pa.array(["a", "z"]),
                    "source": pa.array(["s0", "s0"]),
                    "n": pa.array([99, 42], type=pa.int64())})
    tb = {"docs": out, "u": src}
    r = sql_query("MERGE INTO docs USING u ON docs.doc_id = u.doc_id "
                  "WHEN NOT MATCHED THEN INSERT", tb)
    row = r.to_pylist()[0]
    # matched rows are NOT rewritten and NOT counted as updates
    assert row["rewritten"] == 0 and row["rows_updated"] == 0
    assert row["rows_inserted"] == 1
    n = sql_query("SELECT COUNT(*) AS n FROM docs", tb)
    assert n["n"][0].as_py() == 3
    from arcade_ray.collect import collect_arrow

    got = sql_query("SELECT n FROM docs WHERE doc_id = 'a'", tb)
    got = got if isinstance(got, pa.Table) else collect_arrow(got)
    assert got["n"].to_pylist() == [1]  # untouched


def test_merge_on_unqualified_resolution(ray_session, tmp_path):
    import pyarrow.parquet as _pq
    import pytest as _pt

    from arcade_ray.pipeline.encode import encode_parquet
    from arcade_ray.sql import SqlUnsupported as _SU
    from arcade_ray.sql import sql_query

    t = pa.table({"doc_id": pa.array(["a", "b"]),
                  "source": pa.array(["s0", "s1"]),
                  "n": pa.array([1, 2], type=pa.int64())})
    p = str(tmp_path / "t.parquet")
    _pq.write_table(t, p)
    out = str(tmp_path / "enc")
    encode_parquet(p, out, key_col="source", id_col="doc_id",
                   weight_col=None)
    src = pa.table({"k": pa.array(["a"]),
                    "n": pa.array([50], type=pa.int64())})
    tb = {"docs": out, "u": src}
    # source-first unqualified: k only exists in src -> resolves
    r = sql_query("MERGE INTO docs USING u ON k = doc_id "
                  "WHEN MATCHED THEN UPDATE SET n = u.n", tb)
    assert r.to_pylist()[0]["rows_updated"] == 1
    # ambiguous: both names exist in src -> refuse
    src2 = pa.table({"doc_id": pa.array(["a"]), "k": pa.array(["a"]),
                     "n": pa.array([60], type=pa.int64())})
    tb["u2"] = src2
    with _pt.raises(_SU, match="ambiguous"):
        sql_query("MERGE INTO docs USING u2 ON k = doc_id "
                  "WHEN MATCHED THEN UPDATE SET n = u2.n", tb)


def test_sql_vacuum_after_appends(ray_session, tmp_path):
    import pyarrow.parquet as _pq

    from arcade_ray.collect import collect_arrow
    from arcade_ray.pipeline.encode import encode_parquet
    from arcade_ray.sql import sql_query

    t = pa.table({
        "doc_id": pa.array([f"d{i:04d}" for i in range(300)]),
        "source": pa.array([f"s{i % 2}" for i in range(300)]),
        "n": pa.array(list(range(300)), type=pa.int64()),
    })
    p = str(tmp_path / "t.parquet")
    _pq.write_table(t, p)
    out = str(tmp_path / "enc")
    encode_parquet(p, out, key_col="source", id_col="doc_id",
                   weight_col=None)
    tb = {"docs": out}
    # several tiny generation appends -> partition-count bloat
    for k in range(4):
        sql_query("INSERT INTO docs (doc_id, source, n) VALUES "
                  f"('x{k}a', 's0', {1000 + k}), "
                  f"('x{k}b', 's1', {2000 + k})", tb)
    want = sql_query("SELECT doc_id, source, n FROM docs "
                     "ORDER BY doc_id", tb)
    want = want if isinstance(want, pa.Table) else collect_arrow(want)
    r = sql_query("VACUUM docs", tb)
    row = r.to_pylist()[0]
    assert row["partitions_after"] < row["partitions_before"]
    got = sql_query("SELECT doc_id, source, n FROM docs "
                    "ORDER BY doc_id", tb)
    got = got if isinstance(got, pa.Table) else collect_arrow(got)
    assert got.to_pylist() == want.to_pylist()


def test_generation_name_never_reused(ray_session, tmp_path):
    """Crash-window regressions: (a) a surviving replaces tombstone
    blocks its generation name even after the replaced rows are gone;
    (b) a consolidated-only (relocated) dir still reports its
    generations AND materializes row files before an append so the
    base rows stay visible."""
    import json

    import pyarrow.parquet as _pq

    from arcade_ray.collect import collect_arrow
    from arcade_ray.pipeline.encode import (_manifest_row_path,
                                            all_generations,
                                            encode_parquet)
    from arcade_ray.sql import sql_query

    t = pa.table({"doc_id": pa.array(["a", "b"]),
                  "source": pa.array(["s0", "s1"]),
                  "n": pa.array([1, 2], type=pa.int64())})
    p = str(tmp_path / "t.parquet")
    _pq.write_table(t, p)
    out = str(tmp_path / "enc")
    encode_parquet(p, out, key_col="source", id_col="doc_id",
                   weight_col=None)
    tb = {"docs": out}
    sql_query("INSERT INTO docs (doc_id, source, n) VALUES "
              "('c', 's0', 3)", tb)
    # simulate a crashed compaction: a live tombstone names an
    # ins0000 part_key whose own row was already removed
    rp = _manifest_row_path(out, "s0#0000")
    row = json.load(open(rp))
    row["replaces"] = ["s0@ins0000#deadbeef"]
    json.dump(row, open(rp, "w"))
    for f in list(__import__("os").listdir(f"{out}/manifest")):
        if "ins0000" in f:
            __import__("os").remove(f"{out}/manifest/{f}")
    assert "ins0000" in all_generations(out)
    r = sql_query("INSERT INTO docs (doc_id, source, n) VALUES "
                  "('d', 's1', 4)", tb)
    assert r.to_pylist()[0]["generation"] == "ins0001"

    # consolidated-only relocation: row files deleted, manifest.parquet
    # still lists base + ins0001
    import shutil as _sh

    from arcade_ray.pipeline.encode import load_manifest, \
        _write_consolidated

    _write_consolidated(out, load_manifest(out))
    _sh.rmtree(f"{out}/manifest")
    assert "ins0001" in all_generations(out)
    r2 = sql_query("INSERT INTO docs (doc_id, source, n) VALUES "
                   "('e', 's0', 5)", tb)
    assert r2.to_pylist()[0]["generation"] not in ("ins0000", "ins0001")
    got = sql_query("SELECT doc_id FROM docs ORDER BY doc_id", tb)
    got = got if isinstance(got, pa.Table) else collect_arrow(got)
    # base rows a/b survived the append into the consolidated-only dir
    assert got["doc_id"].to_pylist() == ["a", "b", "d", "e"]


def test_sql_describe_and_show_tables(ray_session, tmp_path):
    import pyarrow.parquet as _pq

    from arcade_ray.pipeline.encode import encode_parquet
    from arcade_ray.sql import sql_query

    t = pa.table({"doc_id": pa.array(["a", "b"]),
                  "source": pa.array(["s0", "s1"]),
                  "n": pa.array([1, 2], type=pa.int64()),
                  "toks": pa.array([[1, 2], [3]],
                                   type=pa.list_(pa.int32()))})
    p = str(tmp_path / "t.parquet")
    _pq.write_table(t, p)
    out = str(tmp_path / "enc")
    encode_parquet(p, out, key_col="source", id_col="doc_id",
                   weight_col=None)
    mem = pa.table({"k": pa.array([9], pa.int64())})
    tb = {"docs": out, "m": mem}

    d = sql_query("DESCRIBE docs", tb)
    got = {r["column_name"]: r["column_type"] for r in d.to_pylist()}
    assert got == {"doc_id": "string", "source": "string",
                   "n": "int64", "toks": "list<element: int32>"}
    s = sql_query("SHOW TABLES", tb)
    rows = {r["name"]: r for r in s.to_pylist()}
    assert rows["docs"]["kind"] == "encoded"
    assert rows["docs"]["rows"] == 2
    assert rows["docs"]["partitions"] >= 2
    assert rows["m"] == {"name": "m", "kind": "memory", "rows": 1,
                         "partitions": None}


def test_narrow_generation_update_lifecycle(ray_session, tmp_path):
    """A generation appended WITHOUT a column: UPDATE SET on that
    column refuses up front (no half-apply); scans surface NULL; and
    after VACUUM folds the generation (null back-fill via promote)
    the same UPDATE works."""
    import pyarrow.parquet as _pq
    import pytest as _pt

    from arcade_ray.collect import collect_arrow
    from arcade_ray.pipeline.encode import encode_parquet
    from arcade_ray.sql import sql_query

    t = pa.table({"doc_id": pa.array(["a", "b"]),
                  "source": pa.array(["s0", "s0"]),
                  "tag": pa.array(["t1", "t2"]),
                  "n": pa.array([1, 2], type=pa.int64())})
    p = str(tmp_path / "t.parquet")
    _pq.write_table(t, p)
    out = str(tmp_path / "enc")
    encode_parquet(p, out, key_col="source", id_col="doc_id",
                   weight_col=None)
    tb = {"docs": out}
    sql_query("INSERT INTO docs (doc_id, source, n) VALUES "
              "('c', 's0', 3)", tb)
    got = sql_query("SELECT doc_id, tag FROM docs ORDER BY doc_id", tb)
    got = got if isinstance(got, pa.Table) else collect_arrow(got)
    assert got["tag"].to_pylist() == ["t1", "t2", None]
    with _pt.raises(KeyError, match="lacks column"):
        sql_query("UPDATE docs SET tag = 'x' WHERE n >= 1", tb)
    # nothing half-applied
    got2 = sql_query("SELECT tag FROM docs WHERE doc_id = 'a'", tb)
    got2 = got2 if isinstance(got2, pa.Table) else collect_arrow(got2)
    assert got2["tag"].to_pylist() == ["t1"]
    sql_query("VACUUM docs", tb)
    r = sql_query("UPDATE docs SET tag = 'x' WHERE n >= 3", tb)
    assert r.to_pylist()[0]["rows_updated"] == 1
    got3 = sql_query("SELECT doc_id, tag FROM docs ORDER BY doc_id", tb)
    got3 = got3 if isinstance(got3, pa.Table) else collect_arrow(got3)
    assert got3["tag"].to_pylist() == ["t1", "t2", "x"]


def test_partition_only_window_aggregates(ray_session):
    """SUM/COUNT/AVG/MIN/MAX OVER (PARTITION BY k) without ORDER BY:
    the synthesized peer-order lowering makes each value the
    full-partition aggregate (SQL's whole-partition frame), parity
    vs DuckDB; rank/offset functions still refuse (nondeterministic
    without an order)."""
    import duckdb
    import pytest as _pt

    from arcade_ray.collect import collect_arrow
    from arcade_ray.sql import SqlUnsupported, sql_query

    t = pa.table({
        "doc_id": pa.array(list(range(60)), type=pa.int64()),
        "s": pa.array([f"s{i % 5}" for i in range(60)]),
        "n": pa.array([(i * 7) % 23 for i in range(60)],
                      type=pa.int64()),
    })
    tb = {"fz": t}
    con = duckdb.connect()
    con.register("fz", t)
    for q in (
        "SELECT doc_id, SUM(n) OVER (PARTITION BY s) AS tot "
        "FROM fz ORDER BY doc_id",
        "SELECT doc_id, COUNT(*) OVER (PARTITION BY s) AS c, "
        "AVG(n) OVER (PARTITION BY s) AS m FROM fz ORDER BY doc_id",
        "SELECT doc_id, MIN(n) OVER (PARTITION BY s) AS lo, "
        "MAX(n) OVER (PARTITION BY s) AS hi FROM fz "
        "WHERE n > 3 ORDER BY doc_id",
    ):
        r = sql_query(q, tb)
        r = r if isinstance(r, pa.Table) else collect_arrow(r)
        assert r.to_pylist() == \
            con.execute(q).fetch_arrow_table().to_pylist(), q
    with _pt.raises(SqlUnsupported):
        sql_query("SELECT ROW_NUMBER() OVER (PARTITION BY s) AS rk "
                  "FROM fz", tb)
    # OVER () — one global partition via a hidden constant key
    for q in (
        "SELECT doc_id, SUM(n) OVER () AS tot FROM fz ORDER BY doc_id",
        "SELECT doc_id, CAST(n AS DOUBLE) / SUM(n) OVER () AS share "
        "FROM fz WHERE n > 2 ORDER BY doc_id",
    ):
        r = sql_query(q, tb)
        r = r if isinstance(r, pa.Table) else collect_arrow(r)
        assert r.to_pylist() == \
            con.execute(q).fetch_arrow_table().to_pylist(), q


def test_asof_all_directions(ray_session):
    """ASOF JOIN in all four shapes (backward/forward x strict/
    non-strict), with planted timestamp TIES so the tie-order
    lowering is actually exercised — parity vs DuckDB."""
    import duckdb
    import numpy as np

    from arcade_ray.collect import collect_arrow
    from arcade_ray.sql import sql_query

    rng = np.random.default_rng(5)
    n, m = 300, 80
    left = pa.table({
        "uid": pa.array(rng.integers(0, 8, n).tolist()),
        "lts": pa.array([int(v) - int(v) % 10 for v in
                         rng.integers(0, 1000, n)]),
        "lv": pa.array(list(range(n)))})
    right = pa.table({
        "uid": pa.array(rng.integers(0, 8, m).tolist()),
        "rts": pa.array([int(v) - int(v) % 10 for v in
                         rng.integers(0, 1000, m)]),
        "rv": pa.array(list(range(m)))})
    tb = {"l": left, "r": right}
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    for op in (">=", ">", "<=", "<"):
        for jt in ("ASOF LEFT JOIN", "ASOF JOIN"):
            q = (f"SELECT l.lv, r.rv FROM l {jt} r ON "
                 f"l.uid = r.uid AND l.lts {op} r.rts ORDER BY l.lv")
            a = sql_query(q, tb)
            a = a if isinstance(a, pa.Table) else collect_arrow(a)
            o = con.execute(q).fetch_arrow_table()
            assert a.to_pylist() == o.to_pylist(), (op, jt)


def test_range_value_frames(ray_session):
    """RANGE BETWEEN <const> PRECEDING/FOLLOWING value frames over a
    numeric order key: integer sum/count/min/max/avg are EXACT vs
    DuckDB (prefix diffs / sparse-table RMQ over shift-partitioned
    searchsorted bounds); float sums agree to 1e-9 (summation order —
    DuckDB's segment trees impose their own)."""
    import duckdb
    import numpy as np
    import pytest as _pt

    from arcade_ray.collect import collect_arrow
    from arcade_ray.sql import SqlUnsupported, sql_query

    rng = np.random.default_rng(9)
    n = 800
    t = pa.table({
        "doc_id": pa.array(list(range(n)), type=pa.int64()),
        "s": pa.array([f"s{i % 5}" for i in range(n)]),
        "ts": pa.array(sorted(rng.integers(0, 3000, n).tolist()),
                       type=pa.int64()),
        "n": pa.array(rng.integers(0, 100, n).tolist(),
                      type=pa.int64()),
        "x": pa.array(rng.standard_normal(n).round(3).tolist()),
    })
    tb = {"fz": t}
    con = duckdb.connect()
    con.register("fz", t)
    for q in (
        "SELECT doc_id, SUM(n) OVER (PARTITION BY s ORDER BY ts "
        "RANGE BETWEEN 100 PRECEDING AND CURRENT ROW) AS v "
        "FROM fz ORDER BY doc_id",
        "SELECT doc_id, COUNT(*) OVER (PARTITION BY s ORDER BY ts "
        "RANGE BETWEEN 50 PRECEDING AND 50 FOLLOWING) AS v "
        "FROM fz ORDER BY doc_id",
        "SELECT doc_id, MIN(n) OVER (PARTITION BY s ORDER BY ts "
        "RANGE BETWEEN 200 PRECEDING AND CURRENT ROW) AS v "
        "FROM fz ORDER BY doc_id",
        "SELECT doc_id, MAX(n) OVER (PARTITION BY s ORDER BY ts "
        "RANGE BETWEEN CURRENT ROW AND 150 FOLLOWING) AS v "
        "FROM fz ORDER BY doc_id",
        "SELECT doc_id, AVG(n) OVER (PARTITION BY s ORDER BY ts "
        "RANGE BETWEEN 75 PRECEDING AND 25 FOLLOWING) AS v "
        "FROM fz ORDER BY doc_id",
        "SELECT doc_id, CAST(SUM(n) OVER (ORDER BY ts RANGE BETWEEN "
        "UNBOUNDED PRECEDING AND 30 FOLLOWING) AS BIGINT) AS v "
        "FROM fz ORDER BY doc_id",
    ):
        r = sql_query(q, tb)
        r = r if isinstance(r, pa.Table) else collect_arrow(r)
        assert r.to_pylist() == \
            con.execute(q).fetch_arrow_table().to_pylist(), q

    qf = ("SELECT doc_id, SUM(x) OVER (PARTITION BY s ORDER BY ts "
          "RANGE BETWEEN 100 PRECEDING AND 100 FOLLOWING) AS v "
          "FROM fz ORDER BY doc_id")
    r = sql_query(qf, tb)
    r = r if isinstance(r, pa.Table) else collect_arrow(r)
    o = con.execute(qf).fetch_arrow_table()
    assert np.allclose(r["v"].to_numpy(zero_copy_only=False),
                       o["v"].to_numpy(zero_copy_only=False),
                       atol=1e-9)
    # value frames outside aggregates refuse
    with _pt.raises(SqlUnsupported):
        sql_query("SELECT FIRST_VALUE(n) OVER (PARTITION BY s ORDER "
                  "BY ts RANGE BETWEEN 10 PRECEDING AND CURRENT ROW) "
                  "AS v FROM fz", tb)


def test_interval_literal_arithmetic(ray_session, tmp_path):
    """TIMESTAMP +/- INTERVAL (fixed-length units) folds to the
    epoch-µs domain over BOTH source kinds — the in-memory expression
    path (arrow duration arithmetic) and the encoded predicate-tree
    path (constant folding drives zone-map pruning)."""
    import duckdb
    import pyarrow.parquet as pq

    from arcade_ray.collect import collect_arrow
    from arcade_ray.pipeline.encode import encode_parquet
    from arcade_ray.sql import sql_query

    src = "/root/testdata/sf0.001/events.parquet"
    t = pq.read_table(src)
    enc = str(tmp_path / "enc")
    encode_parquet(src, enc, key_col="event_type", id_col="event_id",
                   weight_col=None)
    con = duckdb.connect()
    con.register("events", t)
    qs = (
        "SELECT event_id FROM events WHERE ts >= TIMESTAMP "
        "'2024-01-20 00:00:00' - INTERVAL 3 DAY ORDER BY event_id",
        "SELECT event_id FROM events WHERE ts BETWEEN TIMESTAMP "
        "'2024-01-10 00:00:00' AND TIMESTAMP '2024-01-10 00:00:00' "
        "+ INTERVAL 36 HOUR ORDER BY event_id",
        "SELECT event_id FROM events WHERE ts < TIMESTAMP "
        "'2024-01-05 06:00:00' - INTERVAL 90 MINUTE "
        "ORDER BY event_id",
    )
    for tabs in ({"events": t}, {"events": enc}):
        for q in qs:
            r = sql_query(q, tabs)
            r = r if isinstance(r, pa.Table) else collect_arrow(r)
            assert r.to_pylist() == \
                con.execute(q).fetch_arrow_table().to_pylist(), q


def test_interval_month_year_folding(ray_session, tmp_path):
    """Calendar-unit INTERVALs (MONTH/YEAR) fold with SQL's day
    clamping (2024-03-31 - 1 MONTH = 2024-02-29) on the encoded
    predicate-tree path."""
    import duckdb
    import pyarrow.parquet as pq

    from arcade_ray.collect import collect_arrow
    from arcade_ray.pipeline.encode import encode_parquet
    from arcade_ray.sql import sql_query

    src = "/root/testdata/sf0.001/events.parquet"
    enc = str(tmp_path / "enc")
    encode_parquet(src, enc, key_col="event_type", id_col="event_id",
                   weight_col=None)
    con = duckdb.connect()
    con.register("events", pq.read_table(src))
    for q in (
        "SELECT event_id FROM events WHERE ts >= TIMESTAMP "
        "'2024-03-31 10:00:00' - INTERVAL 3 MONTH ORDER BY event_id",
        "SELECT event_id FROM events WHERE ts < TIMESTAMP "
        "'2025-01-15 00:00:00' - INTERVAL 1 YEAR ORDER BY event_id",
    ):
        r = sql_query(q, {"events": enc})
        r = r if isinstance(r, pa.Table) else collect_arrow(r)
        assert r.to_pylist() == \
            con.execute(q).fetch_arrow_table().to_pylist(), q


def test_inner_join_on_residuals(ray_session):
    """Non-equality ON conjuncts on INNER joins move to the post-join
    3VL filter (equivalent — inner joins only shrink); outer joins
    refuse (ON residuals change null-extension semantics)."""
    import duckdb
    import numpy as np
    import pytest as _pt

    from arcade_ray.collect import collect_arrow
    from arcade_ray.sql import SqlUnsupported, sql_query

    rng = np.random.default_rng(4)
    t = pa.table({"k": pa.array(rng.integers(0, 20, 200).tolist()),
                  "x": pa.array(rng.integers(0, 100, 200).tolist()),
                  "tid": pa.array(list(range(200)))})
    u = pa.table({"k": pa.array(rng.integers(0, 20, 80).tolist()),
                  "y": pa.array(rng.integers(0, 100, 80).tolist()),
                  "uid": pa.array(list(range(80)))})
    tb = {"t": t, "u": u}
    con = duckdb.connect()
    con.register("t", t)
    con.register("u", u)
    for q in (
        "SELECT t.tid, u.uid FROM t JOIN u ON t.k = u.k AND "
        "t.x < u.y ORDER BY t.tid, u.uid",
        "SELECT t.tid, u.uid FROM t JOIN u ON t.k = u.k AND "
        "t.x + u.y > 100 ORDER BY t.tid, u.uid",
        "SELECT count(*) AS n FROM t JOIN u ON t.k = u.k AND "
        "t.x <> u.y",
    ):
        r = sql_query(q, tb)
        r = r if isinstance(r, pa.Table) else collect_arrow(r)
        assert r.to_pylist() == \
            con.execute(q).fetch_arrow_table().to_pylist(), q
    with _pt.raises(SqlUnsupported, match="INNER"):
        sql_query("SELECT t.tid FROM t LEFT JOIN u ON t.k = u.k "
                  "AND t.x < u.y", tb)
    with _pt.raises(SqlUnsupported, match="equality"):
        sql_query("SELECT t.tid FROM t JOIN u ON t.x < u.y", tb)


def test_subqueries_on_mem_sources_and_select_list(ray_session):
    """IN-(subquery) and EXISTS now work on in-memory sources (whose
    WHERE runs through the expression evaluator, not the predicate
    tree) and as SELECT-list booleans — folded to COMPARE_IN /
    coalesce nodes via the standard decorrelation."""
    import duckdb

    from arcade_ray.collect import collect_arrow
    from arcade_ray.sql import sql_query

    t = pa.table({"k": pa.array([1, 2, 3, 4]),
                  "s": pa.array(["a", "b", "c", "d"])})
    u = pa.table({"k": pa.array([2, 3, 3]),
                  "y": pa.array([9, 8, 7])})
    tb = {"t": t, "u": u}
    con = duckdb.connect()
    con.register("t", t)
    con.register("u", u)
    for q in (
        "SELECT k FROM t WHERE k IN (SELECT u.k FROM u WHERE "
        "u.y > 7) ORDER BY k",
        "SELECT k FROM t WHERE k NOT IN (SELECT u.k FROM u) "
        "ORDER BY k",
        "SELECT k, EXISTS(SELECT 1 FROM u WHERE u.k = t.k) AS e "
        "FROM t ORDER BY k",
        "SELECT k, NOT EXISTS(SELECT 1 FROM u WHERE u.k = t.k) AS e "
        "FROM t ORDER BY k",
        "SELECT k FROM t WHERE EXISTS(SELECT 1 FROM u WHERE "
        "u.k = t.k AND u.y > 7) ORDER BY k",
        "SELECT k, EXISTS(SELECT 1 FROM u WHERE u.y > 100) AS e "
        "FROM t ORDER BY k",
    ):
        r = sql_query(q, tb)
        r = r if isinstance(r, pa.Table) else collect_arrow(r)
        assert r.to_pylist() == \
            con.execute(q).fetch_arrow_table().to_pylist(), q


def test_cross_join_and_like_escape(ray_session, tmp_path):
    """CROSS JOIN (driver-bounded cartesian with a loud row cap) and
    LIKE ... ESCAPE on both the expression path and the encoded
    predicate-tree path."""
    import duckdb
    import pyarrow.parquet as pq

    import pytest as _pt

    from arcade_ray.collect import collect_arrow
    from arcade_ray.pipeline.encode import encode_parquet
    from arcade_ray.sql import SqlUnsupported, sql_query

    t = pa.table({"k": pa.array([1, 2, 3]), "x": pa.array([5, 6, 7])})
    u = pa.table({"j": pa.array([10, 20]), "y": pa.array(["a", "b"])})
    tb = {"t": t, "u": u}
    con = duckdb.connect()
    con.register("t", t)
    con.register("u", u)
    for q in (
        "SELECT t.k, u.j, u.y FROM t CROSS JOIN u ORDER BY t.k, u.j",
        "SELECT k, j FROM t CROSS JOIN u WHERE x + j > 15 "
        "ORDER BY k, j",
    ):
        r = sql_query(q, tb)
        r = r if isinstance(r, pa.Table) else collect_arrow(r)
        assert r.to_pylist() == \
            con.execute(q).fetch_arrow_table().to_pylist(), q
    import arcade_ray.sql as sqlmod
    old = sqlmod._CROSS_CAP_ROWS
    try:
        sqlmod._CROSS_CAP_ROWS = 4
        with _pt.raises(SqlUnsupported, match="cap"):
            sql_query("SELECT * FROM t CROSS JOIN u", tb)
    finally:
        sqlmod._CROSS_CAP_ROWS = old

    lk = pa.table({"doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                   "source": pa.array(["s0"] * 4),
                   "s": pa.array(["ab", "a_b", "a%b", "axb"])})
    p = str(tmp_path / "lk.parquet")
    pq.write_table(lk, p)
    enc = str(tmp_path / "enc")
    encode_parquet(p, enc, key_col="source", id_col="doc_id",
                   weight_col=None)
    con2 = duckdb.connect()
    con2.register("t", lk)
    for tabs in ({"t": lk}, {"t": enc}):
        for q in (
            "SELECT doc_id FROM t WHERE s LIKE 'a!_b' ESCAPE '!' "
            "ORDER BY doc_id",
            "SELECT doc_id FROM t WHERE s NOT LIKE 'a!%b' ESCAPE '!' "
            "ORDER BY doc_id",
        ):
            r = sql_query(q, tabs)
            r = r if isinstance(r, pa.Table) else collect_arrow(r)
            assert r.to_pylist() == \
                con2.execute(q).fetch_arrow_table().to_pylist(), q


def test_union_by_name(ray_session):
    """UNION [ALL] BY NAME aligns columns by name (first-seen order);
    a side missing a column contributes typed NULLs."""
    import duckdb

    from arcade_ray.collect import collect_arrow
    from arcade_ray.sql import sql_query

    t = pa.table({"k": pa.array([1, 2]), "s": pa.array(["a", "b"])})
    tb = {"t": t}
    con = duckdb.connect()
    con.register("t", t)
    for q in (
        "SELECT k, s FROM t UNION ALL BY NAME SELECT s, k FROM t "
        "ORDER BY k",
        "SELECT k, s FROM t UNION BY NAME SELECT s, k FROM t "
        "ORDER BY k",
        "SELECT k FROM t UNION ALL BY NAME SELECT s, k FROM t "
        "ORDER BY k, s",
    ):
        r = sql_query(q, tb)
        r = r if isinstance(r, pa.Table) else collect_arrow(r)
        assert r.to_pylist() == \
            con.execute(q).fetch_arrow_table().to_pylist(), q


def test_string_array_agg_distinct(ray_session):
    """STRING_AGG(DISTINCT ... ORDER BY) / ARRAY_AGG(DISTINCT ...):
    first occurrence in sort order survives — parity vs DuckDB."""
    import duckdb

    from arcade_ray.collect import collect_arrow
    from arcade_ray.sql import sql_query

    t = pa.table({"g": pa.array(["a", "a", "a", "b", "b"]),
                  "s": pa.array(["x", "y", "x", "z", "z"]),
                  "v": pa.array([3, 1, 3, 2, 2])})
    tb = {"t": t}
    con = duckdb.connect()
    con.register("t", t)
    for q in (
        "SELECT g, string_agg(DISTINCT s, ',' ORDER BY s) AS a "
        "FROM t GROUP BY g ORDER BY g",
        "SELECT string_agg(DISTINCT s, '|' ORDER BY s DESC) AS a "
        "FROM t",
        "SELECT g, array_agg(DISTINCT v ORDER BY v) AS a FROM t "
        "GROUP BY g ORDER BY g",
    ):
        r = sql_query(q, tb)
        r = r if isinstance(r, pa.Table) else collect_arrow(r)
        assert r.to_pylist() == \
            con.execute(q).fetch_arrow_table().to_pylist(), q
