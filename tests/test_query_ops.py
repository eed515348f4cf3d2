"""Query operators over encoded data: scan w/ projection, equi-filter on
compressed codes with zone-map skipping, random access, id lookup
(SURVEY.md §2.1 rows 8-11)."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from arcade_ray.corpus import generate_corpus
from arcade_ray.pipeline import encode_dataset
from arcade_ray.pipeline.query import (
    equi_filter,
    filter_partition,
    lookup,
    random_access,
    scan,
)


@pytest.fixture(scope="module")
def encoded(ray_session, tmp_path_factory):
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    base = tmp_path_factory.mktemp("qops")
    corpus = str(base / "corpus.parquet")
    table = generate_corpus(10_000, 8, seed=42)
    pq.write_table(table, corpus)
    out_dir = str(base / "enc")
    encode_dataset(rd.read_parquet(corpus), out_dir, weight_cap=200_000)
    return out_dir, table


def collect(ds) -> pa.Table:
    import ray

    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


def test_scan_projection(encoded):
    out_dir, table = encoded
    out = collect(scan(out_dir, columns=["doc_id", "n_tok"]))
    assert out.column_names == ["doc_id", "n_tok"]
    assert out.num_rows == table.num_rows
    a = out.take(pc.sort_indices(out["doc_id"]))
    b = table.select(["doc_id", "n_tok"])
    b = b.take(pc.sort_indices(b["doc_id"]))
    assert a["n_tok"].combine_chunks().equals(b["n_tok"].combine_chunks())


def test_equi_filter_string(encoded):
    out_dir, table = encoded
    out = collect(equi_filter(out_dir, "source", "src-002",
                              project=["source", "doc_id", "n_tok"]))
    mask = pc.equal(table["source"], "src-002")
    expect = table.filter(mask)
    assert out.num_rows == expect.num_rows
    assert set(out["doc_id"].to_pylist()) == set(expect["doc_id"].to_pylist())
    assert pc.all(pc.equal(out["source"], "src-002")).as_py()
    a = out.take(pc.sort_indices(out["doc_id"]))
    b = expect.take(pc.sort_indices(expect["doc_id"]))
    assert a["n_tok"].combine_chunks().equals(
        b["n_tok"].combine_chunks().cast(a["n_tok"].type))


def test_equi_filter_no_match(encoded):
    out_dir, _ = encoded
    out = collect(equi_filter(out_dir, "source", "src-999",
                              project=["source", "doc_id"]))
    assert out.num_rows == 0
    assert out.column_names == ["source", "doc_id"]


def test_equi_filter_int(encoded):
    out_dir, table = encoded
    out = collect(equi_filter(out_dir, "n_tok", 1, project=["n_tok", "doc_id"]))
    expect = table.filter(pc.equal(table["n_tok"], 1))
    assert out.num_rows == expect.num_rows
    assert set(out["doc_id"].to_pylist()) == set(expect["doc_id"].to_pylist())


def test_equi_filter_doc_id_unique(encoded):
    """Filter on the (plain/gp-encoded, all-distinct) doc_id column."""
    out_dir, table = encoded
    target = table["doc_id"][123].as_py()
    out = collect(equi_filter(out_dir, "doc_id", target,
                              project=["doc_id", "source", "n_tok"]))
    assert out.num_rows == 1
    assert out["doc_id"][0].as_py() == target


def test_random_access(encoded):
    out_dir, table = encoded
    from arcade_ray.pipeline.encode import load_manifest

    ids = [0, 1, 57, 4999, 9999]
    out = random_access(out_dir, ids, columns=["doc_id", "tokens", "source"])
    assert out.num_rows == len(ids)
    assert sorted(out["row_id"].to_pylist()) == ids
    # row ids index partition-concatenated order: verify tokens match the
    # doc looked up by its id string
    decoded_all = collect(scan(out_dir))
    for i in range(out.num_rows):
        did = out["doc_id"][i].as_py()
        row = decoded_all.filter(pc.equal(decoded_all["doc_id"], did))
        assert row["tokens"][0].as_py() == out["tokens"][i].as_py()


def test_random_access_out_of_range(encoded):
    out_dir, _ = encoded
    with pytest.raises(IndexError):
        random_access(out_dir, [10**9])


def test_lookup_by_doc_id(encoded):
    out_dir, table = encoded
    wanted = [table["doc_id"][i].as_py() for i in (5, 500, 7777)] + ["nope:000"]
    out = collect(lookup(out_dir, "doc_id", wanted,
                         columns=["doc_id", "n_tok", "source"]))
    assert out.num_rows == 3
    assert set(out["doc_id"].to_pylist()) == set(wanted[:3])


def test_filter_partition_zone_skip_counts(encoded):
    """Partition-level pruning: a literal below every doc_id prunes all
    partitions at the manifest (no tasks)."""
    out_dir, _ = encoded
    ds = equi_filter(out_dir, "doc_id", "aaa", project=["doc_id"])
    assert collect(ds).num_rows == 0


def test_dict_group_aggregate(encoded):
    from arcade_ray.pipeline.query import dict_group_aggregate

    out_dir, table = encoded
    got = dict_group_aggregate(out_dir, "source", "n_tok")
    df = table.select(["source", "n_tok"]).to_pandas()
    exp = df.groupby("source")["n_tok"].agg(["sum", "min", "max", "count"])
    for i, src in enumerate(got["source"].to_pylist()):
        assert got["sum_v"][i].as_py() == exp.loc[src, "sum"]
        assert got["min_v"][i].as_py() == exp.loc[src, "min"]
        assert got["max_v"][i].as_py() == exp.loc[src, "max"]
        assert got["n_rows"][i].as_py() == exp.loc[src, "count"]
    assert got.num_rows == exp.shape[0]


def test_topk_rows_projection(encoded):
    from arcade_ray.pipeline.query import topk_rows

    out_dir, table = encoded
    got = topk_rows(out_dir, "n_tok", 20, id_col="doc_id",
                    columns=["doc_id", "n_tok", "source"])
    df = table.select(["doc_id", "n_tok", "source"]).to_pandas()
    exp = df.sort_values(["n_tok", "doc_id"],
                         ascending=[False, True]).head(20).reset_index(drop=True)
    assert got.column_names == ["doc_id", "n_tok", "source"]
    assert got.to_pandas().equals(exp)


def test_dict_distinct_values(encoded):
    from arcade_ray.pipeline.query import dict_distinct_values

    out_dir, table = encoded
    got = dict_distinct_values(out_dir, "source")
    import pyarrow.compute as pc

    exp = sorted(pc.unique(table["source"].combine_chunks()).to_pylist())
    assert got["source"].to_pylist() == exp


def test_dict_group_aggregate_exact_past_2_53(ray_session, tmp_path):
    """Integer grouped sums must be EXACT above 2^53 — a float64
    accumulator silently loses low bits there (round-2 review). The
    odd low bits of these values vanish under float64 summation."""
    import ray.data as rd

    from arcade_ray.pipeline.query import dict_group_aggregate

    big = (1 << 53) + 1  # not representable in float64
    vals = [big, big + 2, big + 4, 3, 5]
    srcs = ["a", "a", "a", "b", "b"]
    t = pa.table({
        "doc_id": pa.array(range(5), type=pa.int64()),
        "source": pa.array(srcs),
        "v": pa.array(vals, type=pa.int64()),
    })
    out_dir = str(tmp_path / "enc")
    encode_dataset(rd.from_arrow(t), out_dir, key_col="source",
                   weight_col=None)
    got = dict_group_aggregate(out_dir, "source", "v")
    assert got["sum_v"].type == pa.int64()
    by = dict(zip(got["source"].to_pylist(), got["sum_v"].to_pylist()))
    assert by["a"] == 3 * big + 6  # float64 would round this
    assert by["b"] == 8
    assert float(3 * big + 6) != 3 * big + 6  # the trap is real


def test_compound_filter_or_not(encoded):
    """OR unions per-chunk match indices; NOT complements against the
    chunk row count; both verified against an arrow-side recompute."""
    from arcade_ray.pipeline.query import compound_filter

    out_dir, table = encoded
    lo = int(pc.min(table["n_tok"]).as_py())
    # OR: source == src-001 OR n_tok <= lo+2
    got = collect(compound_filter(
        out_dir,
        ("or", [("eq", "source", "src-001"),
                ("between", "n_tok", lo, lo + 2)]),
        project=["doc_id", "source", "n_tok"]))
    mask = pc.or_(pc.equal(table["source"], "src-001"),
                  pc.less_equal(table["n_tok"], lo + 2))
    expect = table.filter(mask)
    assert got.num_rows == expect.num_rows
    assert set(got["doc_id"].to_pylist()) == set(expect["doc_id"].to_pylist())
    # NOT: everything except one source, AND a range
    got = collect(compound_filter(
        out_dir,
        ("and", [("not", ("eq", "source", "src-001")),
                 ("between", "n_tok", lo, lo + 5)]),
        project=["doc_id", "source", "n_tok"]))
    mask = pc.and_(pc.invert(pc.equal(table["source"], "src-001")),
                   pc.less_equal(table["n_tok"], lo + 5))
    expect = table.filter(mask)
    assert got.num_rows == expect.num_rows
    assert set(got["doc_id"].to_pylist()) == set(expect["doc_id"].to_pylist())
    assert "src-001" not in set(got["source"].to_pylist())
    # pure NOT of a never-matching literal == full table
    got = collect(compound_filter(
        out_dir, ("not", ("eq", "source", "src-999")), project=["doc_id"]))
    assert got.num_rows == table.num_rows


def test_dict_group_aggregate_composite_keys(ray_session, tmp_path):
    """Composite GROUP BY (two key columns) via mixed-radix code
    combination — neither key column materializes per row."""
    import ray.data as rd

    from arcade_ray.pipeline.query import dict_group_aggregate

    rng = np.random.default_rng(3)
    n = 4000
    src = [f"s{v}" for v in rng.integers(0, 6, n)]
    lang = [["en", "de", "fr"][v] for v in rng.integers(0, 3, n)]
    vals = rng.integers(0, 1000, n)
    t = pa.table({
        "doc_id": pa.array(range(n), type=pa.int64()),
        "source": pa.array(src),
        "lang": pa.array(lang),
        "v": pa.array(vals, type=pa.int64()),
    })
    out_dir = str(tmp_path / "enc")
    encode_dataset(rd.from_arrow(t), out_dir, key_col="source",
                   weight_col=None)
    got = dict_group_aggregate(out_dir, ["source", "lang"], "v")
    df = t.to_pandas()
    exp = df.groupby(["source", "lang"])["v"].agg(["sum", "min", "max",
                                                   "count"])
    assert got.num_rows == exp.shape[0]
    for i in range(got.num_rows):
        key = (got["source"][i].as_py(), got["lang"][i].as_py())
        assert got["sum_v"][i].as_py() == exp.loc[key, "sum"]
        assert got["min_v"][i].as_py() == exp.loc[key, "min"]
        assert got["max_v"][i].as_py() == exp.loc[key, "max"]
        assert got["n_rows"][i].as_py() == exp.loc[key, "count"]


def test_dict_group_topk(encoded):
    from arcade_ray.pipeline.query import dict_group_topk

    out_dir, table = encoded
    got = dict_group_topk(out_dir, "source", "n_tok", "doc_id", 5)
    df = table.select(["source", "n_tok", "doc_id"]).to_pandas()
    df = df.sort_values(["source", "n_tok", "doc_id"],
                        ascending=[True, False, True])
    exp = df.groupby("source").head(5).reset_index(drop=True)
    g = got.to_pandas()[["source", "n_tok", "doc_id"]].reset_index(drop=True)
    assert g.equals(exp[["source", "n_tok", "doc_id"]].reset_index(drop=True))


def test_int_percentiles(encoded):
    """exact_percentiles on an integer column: int64 output, the
    PERCENTILE_DISC rank rule."""
    from arcade_ray.pipeline.query import exact_percentiles

    out_dir, table = encoded
    got = exact_percentiles(out_dir, "n_tok", [0.0, 0.25, 0.5, 0.75, 1.0])
    assert got.schema.field("n_tok").type == pa.int64()
    vals = np.sort(table["n_tok"].to_numpy())
    n = len(vals)
    for i, p in enumerate([0.0, 0.25, 0.5, 0.75, 1.0]):
        exp = int(vals[max(int(np.ceil(p * n)) - 1, 0)])
        assert got["n_tok"][i].as_py() == exp, (p, got["n_tok"][i], exp)


def test_in_filter_string(encoded):
    from arcade_ray.pipeline.query import in_filter

    out_dir, table = encoded
    vals = ["src-001", "src-005", "src-999"]  # one absent member
    out = collect(in_filter(out_dir, "source", vals,
                            project=["doc_id", "source"]))
    expect = table.filter(
        pc.is_in(table["source"], value_set=pa.array(vals)))
    assert out.num_rows == expect.num_rows
    assert set(out["doc_id"].to_pylist()) == set(expect["doc_id"].to_pylist())
    assert set(out["source"].to_pylist()) <= set(vals)


def test_in_filter_int(encoded):
    from arcade_ray.pipeline.query import in_filter

    out_dir, table = encoded
    vals = [1, 3, 200, 10**9]
    out = collect(in_filter(out_dir, "n_tok", vals,
                            project=["doc_id", "n_tok"]))
    expect = table.filter(
        pc.is_in(table["n_tok"], value_set=pa.array(vals).cast(pa.int32())))
    assert out.num_rows == expect.num_rows
    assert set(out["doc_id"].to_pylist()) == set(expect["doc_id"].to_pylist())


def test_in_filter_empty_list_rejected(encoded):
    from arcade_ray.pipeline.query import in_filter

    out_dir, _ = encoded
    with pytest.raises(ValueError):
        in_filter(out_dir, "source", [], project=["doc_id"])


def test_prefix_filter(encoded):
    from arcade_ray.pipeline.query import prefix_filter

    out_dir, table = encoded
    # doc_id = "<source>:<rownum>" — prefix selects one source's docs
    out = collect(prefix_filter(out_dir, "doc_id", "src-002:",
                                project=["doc_id", "source"]))
    expect = table.filter(pc.starts_with(table["doc_id"],
                                         pattern="src-002:"))
    assert out.num_rows == expect.num_rows
    assert set(out["doc_id"].to_pylist()) == set(expect["doc_id"].to_pylist())
    # non-matching prefix -> empty with the right schema
    none = collect(prefix_filter(out_dir, "doc_id", "zzz",
                                 project=["doc_id"]))
    assert none.num_rows == 0 and none.column_names == ["doc_id"]


def test_contains_filter(encoded):
    from arcade_ray.pipeline.query import contains_filter

    out_dir, table = encoded
    out = collect(contains_filter(out_dir, "source", "-00",
                                  project=["doc_id", "source"]))
    expect = table.filter(pc.match_substring(table["source"],
                                             pattern="-00"))
    assert out.num_rows == expect.num_rows


def test_membership_composes_with_range(encoded):
    from arcade_ray.pipeline.query import compound_filter

    out_dir, table = encoded
    out = collect(compound_filter(
        out_dir,
        [("in", "source", ["src-001", "src-002"]),
         ("between", "n_tok", 50, 500)],
        project=["doc_id", "source", "n_tok"],
    ))
    mask = pc.and_(
        pc.is_in(table["source"],
                 value_set=pa.array(["src-001", "src-002"])),
        pc.and_(pc.greater_equal(table["n_tok"], 50),
                pc.less_equal(table["n_tok"], 500)))
    expect = table.filter(mask)
    assert out.num_rows == expect.num_rows
    assert set(out["doc_id"].to_pylist()) == set(expect["doc_id"].to_pylist())


def test_stats_meta(encoded):
    from arcade_ray.pipeline.query import stats_meta

    out_dir, table = encoded
    s = stats_meta(out_dir, ["n_tok", "source", "doc_id"])
    assert s["rows"] == table.num_rows
    assert s["n_tok"]["min"] == pc.min(table["n_tok"]).as_py()
    assert s["n_tok"]["max"] == pc.max(table["n_tok"]).as_py()
    assert s["source"]["min"] == pc.min(table["source"]).as_py()
    assert s["source"]["max"] == pc.max(table["source"]).as_py()
    assert s["doc_id"]["min"] == pc.min(table["doc_id"]).as_py()
    # float/list columns refuse (zone maps don't order like values)
    with pytest.raises(TypeError):
        stats_meta(out_dir, ["tokens"])


def test_dict_group_distinct(encoded):
    from arcade_ray.pipeline.query import dict_group_distinct

    out_dir, table = encoded
    # distinct doc_id prefixes per source is degenerate; group source
    # by itself gives 1 per key — use doc_id as value for a real count
    got = dict_group_distinct(out_dir, "source", "doc_id")
    df = table.select(["source", "doc_id"]).to_pandas()
    exp = df.groupby("source")["doc_id"].nunique()
    assert got.num_rows == len(exp)
    for i in range(got.num_rows):
        k = got["source"][i].as_py()
        assert got["n_distinct"][i].as_py() == int(exp[k]), k


def test_topk_rows_offset(encoded):
    """Pagination: ranks [offset, offset+k) match a full sort."""
    from arcade_ray.pipeline.query import topk_rows

    out_dir, table = encoded
    got = topk_rows(out_dir, "n_tok", 10, id_col="doc_id",
                    columns=["doc_id", "n_tok"], offset=25)
    df = table.select(["doc_id", "n_tok"]).to_pandas().sort_values(
        ["n_tok", "doc_id"], ascending=[False, True],
        ignore_index=True).iloc[25:35]
    assert got["doc_id"].to_pylist() == df["doc_id"].tolist()
    assert got["n_tok"].to_pylist() == df["n_tok"].tolist()


def test_sorted_scan_global_order(encoded):
    from arcade_ray.collect import collect_arrow
    from arcade_ray.pipeline.query import sorted_scan

    out_dir, table = encoded
    got = collect_arrow(sorted_scan(out_dir, "n_tok",
                                    columns=["doc_id", "n_tok"]))
    vals = got["n_tok"].to_pylist()
    assert vals == sorted(vals)
    assert sorted(got["doc_id"].to_pylist()) == \
        sorted(table["doc_id"].to_pylist())


def test_group_int_percentiles(encoded):
    """Per-group exact percentiles vs a numpy multiset oracle."""
    from arcade_ray.pipeline.query import group_int_percentiles

    out_dir, table = encoded
    got = group_int_percentiles(out_dir, "source", "n_tok",
                                [0.5, 0.9, 0.99])
    df = table.select(["source", "n_tok"]).to_pandas()
    for i, src in enumerate(got["source"].to_pylist()):
        vals = np.sort(df.loc[df["source"] == src, "n_tok"].to_numpy())
        for p, cn in ((0.5, "p50"), (0.9, "p90"), (0.99, "p99")):
            exp = int(vals[max(int(np.ceil(p * len(vals))) - 1, 0)])
            assert got[cn][i].as_py() == exp, (src, p)


def test_explode_list_nulls_and_empties(ray_session):
    """explode_list: null lists emit nothing, empty lists emit
    nothing, positions restart per row, keep columns replicate."""
    import ray.data as rd

    from arcade_ray.collect import collect_arrow
    from arcade_ray.transforms import explode_list

    t = pa.table({
        "id": pa.array([1, 2, 3, 4], type=pa.int64()),
        "xs": pa.array([[10, 11], None, [], [7]],
                       type=pa.list_(pa.int32())),
    })
    out = collect_arrow(explode_list(
        rd.from_arrow(t), "xs", keep=["id"])).to_pandas() \
        .sort_values(["id", "pos"], ignore_index=True)
    assert out["id"].tolist() == [1, 1, 4]
    assert out["pos"].tolist() == [0, 1, 0]
    assert out["val"].tolist() == [10, 11, 7]


def test_group_stats_nulls(ray_session):
    """group_stats: null values excluded, n = COUNT(val)."""
    import ray.data as rd

    from arcade_ray.transforms import group_stats

    t = pa.table({
        "k": pa.array(["a", "a", "a", "b", "b"]),
        "v": pa.array([1.0, 3.0, None, 10.0, None]),
    })
    out = group_stats(rd.from_arrow(t), "k", "v")
    assert out["n"].to_pylist() == [2, 1]
    assert out["avg_v"].to_pylist() == [2.0, 10.0]
    assert out["var_v"].to_pylist() == [1.0, 0.0]


def test_pack_sequences_conserves_tokens(ray_session):
    """Packing: every token survives in order within a batch; all
    examples are max_len except the per-batch tail; pad/drop modes."""
    import ray.data as rd

    from arcade_ray.collect import collect_arrow
    from arcade_ray.transforms import pack_sequences

    rng = np.random.default_rng(5)
    seqs = [rng.integers(0, 1000, int(n)).tolist()
            for n in rng.integers(1, 90, 200)]
    t = pa.table({"tokens": pa.array(seqs, type=pa.list_(pa.int32()))})
    total = sum(len(s) for s in seqs)
    ds = rd.from_arrow(t)

    out = collect_arrow(pack_sequences(ds, max_len=128)).to_pandas()
    assert out["n_filled"].sum() == total
    flat_in = [x for s in seqs for x in s]
    flat_out = [x for s, n in zip(out["input_ids"], out["n_filled"])
                for x in list(s)[:n]]
    # single-block input -> one batch -> exact order conservation
    assert flat_out == flat_in
    assert (out["n_filled"][:-1] == 128).all()

    padded = collect_arrow(pack_sequences(
        ds, max_len=128, pad_id=0)).to_pandas()
    assert all(len(s) == 128 for s in padded["input_ids"])
    assert padded["n_filled"].sum() == total

    dropped = collect_arrow(pack_sequences(
        ds, max_len=128, drop_last=True)).to_pandas()
    assert (dropped["n_filled"] == 128).all()


def test_pack_sequences_sharded_carry(ray_session):
    """shards=N: cross-batch carry inside each shard — the input is
    split into MANY small blocks, yet the output has at most N short
    tails (per-batch packing would leave one per block) and conserves
    every token."""
    import ray.data as rd

    from arcade_ray.collect import collect_arrow
    from arcade_ray.transforms import pack_sequences

    rng = np.random.default_rng(6)
    seqs = [rng.integers(0, 1000, int(n)).tolist()
            for n in rng.integers(1, 90, 600)]
    total = sum(len(s) for s in seqs)
    t = pa.table({"tokens": pa.array(seqs, type=pa.list_(pa.int32()))})
    ds = rd.from_arrow(t).repartition(24)  # 24 blocks in, 3 shards out

    out = collect_arrow(pack_sequences(ds, max_len=128, shards=3)) \
        .to_pandas()
    assert out["n_filled"].sum() == total
    assert int((out["n_filled"] < 128).sum()) <= 3
    # per-batch packing on the same 24-block input leaves ~24 tails
    per_batch = collect_arrow(pack_sequences(ds, max_len=128)).to_pandas()
    assert (out["n_filled"] < 128).sum() < (per_batch["n_filled"] < 128).sum()


def test_stratified_sample_multiblock(ray_session):
    """Per-group deterministic sample across MANY blocks must equal the
    single-table oracle (per-batch candidate cut is lossless)."""
    import hashlib

    import ray.data as rd

    from arcade_ray.collect import collect_arrow
    from arcade_ray.transforms import stratified_sample

    rng = np.random.default_rng(17)
    n = 5000
    t = pa.table({
        "doc_id": pa.array([f"d{i:05d}" for i in range(n)]),
        "source": pa.array([f"s{g}" for g in rng.integers(0, 12, n)]),
    })
    ds = rd.from_arrow(t).repartition(16)
    out = collect_arrow(stratified_sample(
        ds, key_col="source", n_per_group=7, id_col="doc_id",
        keep=["source", "doc_id"])).to_pandas()

    df = t.to_pandas()
    df["_mk"] = df["doc_id"].map(
        lambda v: hashlib.md5(v.encode()).hexdigest())
    exp = (df.sort_values(["source", "_mk", "doc_id"])
             .groupby("source").head(7))
    got = set(map(tuple, out[["source", "doc_id"]].itertuples(index=False)))
    want = set(map(tuple, exp[["source", "doc_id"]].itertuples(index=False)))
    assert got == want


def test_exact_percentiles_wide_and_float(encoded):
    """Iterative histogram selection: exact percentiles on a WIDE
    integer domain (beyond the dense cap) and a float column."""
    from arcade_ray.pipeline.query import exact_percentiles

    out_dir, table = encoded
    ps = [0.0, 0.1, 0.5, 0.9, 1.0]

    got = exact_percentiles(out_dir, "n_tok", ps)
    vals = np.sort(table["n_tok"].to_numpy())
    n = len(vals)
    for i, p in enumerate(ps):
        exp = int(vals[max(int(np.ceil(p * n)) - 1, 0)])
        assert got["n_tok"][i].as_py() == exp, (p, got["n_tok"][i], exp)


def test_exact_percentiles_float_and_huge_range(ray_session, tmp_path):
    """Huge integer span, floats with infinities, and a nullable integer
    column (values 0..49, one row in 7 NULL) whose nulls are skipped as
    DuckDB quantile_disc skips them."""
    import duckdb
    import ray.data as rd

    from arcade_ray.pipeline.query import exact_percentiles

    rng = np.random.default_rng(23)
    n = 20_000
    wide = rng.integers(-(2**62), 2**62, n)          # ids-like, huge span
    fl = np.concatenate([rng.standard_normal(n - 3) * 1e6,
                         [-np.inf, 0.0, np.inf]])
    t = pa.table({
        "doc_id": pa.array(np.arange(n), type=pa.int64()),
        "grp": pa.array([f"g{i % 4}" for i in range(n)]),
        "wide": pa.array(wide, type=pa.int64()),
        "fl": pa.array(fl, type=pa.float64()),
        "nv": pa.array([None if i % 7 == 3 else i % 50 for i in range(n)],
                       type=pa.int64()),
    })
    out_dir = str(tmp_path / "enc")
    from arcade_ray.pipeline import encode_dataset
    encode_dataset(rd.from_arrow(t), out_dir, key_col="grp",
                   weight_col=None)

    ps = [0.01, 0.5, 0.99]
    got_w = exact_percentiles(out_dir, "wide", ps)
    sw = np.sort(wide)
    for i, p in enumerate(ps):
        assert got_w["wide"][i].as_py() == \
            int(sw[max(int(np.ceil(p * n)) - 1, 0)]), p

    got_f = exact_percentiles(out_dir, "fl", ps)
    sf = np.sort(fl)
    for i, p in enumerate(ps):
        assert got_f["fl"][i].as_py() == \
            float(sf[max(int(np.ceil(p * n)) - 1, 0)]), p

    con = duckdb.connect()
    con.register("t", t.select(["nv"]))
    ps = [0.0, 0.5, 0.9, 1.0]
    assert exact_percentiles(out_dir, "nv", ps)["nv"].to_pylist() == [
        con.execute(f"SELECT quantile_disc(nv, {p}) FROM t").fetchone()[0]
        for p in ps]


def test_exact_percentiles_cont(encoded):
    """PERCENTILE_CONT: interpolated quantiles match DuckDB
    quantile_cont bit for bit (same bracketing order statistics, same
    lo*(1-f)+hi*f double expression)."""
    import duckdb

    from arcade_ray.pipeline.query import exact_percentiles_cont

    out_dir, table = encoded
    ps = [0.0, 0.13, 0.5, 0.77, 1.0]
    got = exact_percentiles_cont(out_dir, "n_tok", ps)
    con = duckdb.connect()
    con.register("t", table.to_pandas())
    for i, p in enumerate(ps):
        exp = con.execute(
            f"SELECT quantile_cont(n_tok, {p}) FROM t").fetchone()[0]
        assert got["n_tok"][i].as_py() == exp, (p, got["n_tok"][i], exp)


def test_exact_percentiles_uint64_vs_duckdb(ray_session, tmp_path):
    """A uint64 column above 2^63: its order keys invert as unsigned
    values, DISC keeps the uint64 type, CONT matches DuckDB."""
    import duckdb
    import ray.data as rd

    from arcade_ray.pipeline.query import (exact_percentiles,
                                           exact_percentiles_cont)

    t = pa.table({"doc_id": pa.array(range(5), type=pa.int64()),
                  "u": pa.array([1, 5, 7, 2**63 + 10, 2**64 - 1],
                                type=pa.uint64())})
    out_dir = str(tmp_path / "enc")
    encode_dataset(rd.from_arrow(t), out_dir, key_col="doc_id",
                   weight_col=None)
    con = duckdb.connect()
    con.register("t", t)
    ps = [0.0, 0.5, 1.0]
    disc = exact_percentiles(out_dir, "u", ps)["u"]
    assert disc.type == pa.uint64()
    for fn, got in (("disc", disc),
                    ("cont", exact_percentiles_cont(out_dir, "u", ps)["u"])):
        assert got.to_pylist() == [con.execute(
            f"SELECT quantile_{fn}(u, {p}) FROM t").fetchone()[0]
            for p in ps], fn


def test_timestamp_filters(ray_session, tmp_path):
    """Equi and range filters on a TIMESTAMP column: zone maps prune in
    the epoch-int domain; matching chunks compare as int64 views."""
    import ray.data as rd

    from arcade_ray.collect import collect_arrow
    from arcade_ray.pipeline.query import (equi_filter, range_filter,
                                           compound_filter)

    n = 4000
    base = np.datetime64("2024-03-01", "us")
    ts = base + (np.arange(n) * 61_000_000).astype("timedelta64[us]")
    t = pa.table({
        "doc_id": pa.array(np.arange(n), type=pa.int64()),
        "src": pa.array([f"s{i % 3}" for i in range(n)]),
        "ts": pa.array(ts),
    })
    out_dir = str(tmp_path / "enc")
    encode_dataset(rd.from_arrow(t), out_dir, key_col="src",
                   weight_col=None)
    ts_i = ts.astype("int64")
    lo, hi = int(ts_i[100]), int(ts_i[250])

    got = collect_arrow(range_filter(out_dir, "ts", lo, hi,
                                     project=["doc_id", "ts"]))
    assert sorted(got["doc_id"].to_pylist()) == list(range(100, 251))
    assert got.schema.field("ts").type == pa.timestamp("us")

    got_eq = collect_arrow(equi_filter(out_dir, "ts", int(ts_i[7]),
                                       project=["doc_id", "ts"]))
    assert got_eq["doc_id"].to_pylist() == [7]

    got_c = collect_arrow(compound_filter(
        out_dir, [("between", "ts", lo, hi), ("eq", "src", "s1")],
        project=["doc_id"]))
    exp = [i for i in range(100, 251) if i % 3 == 1]
    assert sorted(got_c["doc_id"].to_pylist()) == exp


def test_repeat_sources_fractional(ray_session):
    """Fractional upsampling: rate 2.5 -> every row twice plus a
    deterministic half of ids a third time; integer fallback intact."""
    import ray.data as rd

    from arcade_ray.collect import collect_arrow
    from arcade_ray.transforms import repeat_sources

    n = 1000
    t = pa.table({
        "doc_id": pa.array(np.arange(n), type=pa.int64()),
        "source": pa.array(["a" if i % 2 == 0 else "b"
                            for i in range(n)]),
    })
    ds = rd.from_arrow(t)
    out = collect_arrow(repeat_sources(
        ds, {"a": 2.5, "b": 1}, id_col="doc_id",
        modulus=10)).to_pandas()
    per_id = out.groupby("doc_id").size()
    a_ids = [i for i in range(n) if i % 2 == 0]
    for i in a_ids:
        assert per_id[i] == (3 if i % 10 < 5 else 2), i
    assert all(per_id[i] == 1 for i in range(n) if i % 2 == 1)

    with pytest.raises(ValueError, match="id_col"):
        repeat_sources(ds, {"a": 1.5})


def test_group_approx_distinct(ray_session):
    """KMV grouped distinct: exact below k, within ~10% above."""
    import ray.data as rd

    from arcade_ray.transforms import group_approx_distinct

    rng = np.random.default_rng(31)
    n = 30_000
    t = pa.table({
        "k": pa.array(["small" if i % 3 == 0 else "big"
                       for i in range(n)]),
        "v": pa.array(
            [int(i % 40) if i % 3 == 0 else int(rng.integers(0, 8000))
             for i in range(n)], type=pa.int64()),
    })
    out = group_approx_distinct(rd.from_arrow(t).repartition(8),
                                "k", "v", k=256)
    got = dict(zip(out["k"].to_pylist(), out["distinct_est"].to_pylist()))
    df = t.to_pandas()
    exact = df.groupby("k")["v"].nunique()
    assert got["small"] == exact["small"]  # < k -> exact
    assert abs(got["big"] / exact["big"] - 1) < 0.10, \
        (got["big"], exact["big"])


def test_group_int_percentiles_null_values_skipped(ray_session, tmp_path):
    """Null-bearing value columns compute SQL-correct percentiles
    (nulls skipped) instead of casting NaN -> INT64_MIN (ADVICE r3
    guard, since replaced by real null support; the full DuckDB
    comparison lives in tests/test_nulls.py)."""
    import ray.data as rd

    from arcade_ray.pipeline.query import group_int_percentiles

    t = pa.table({
        "id": pa.array([f"d{i}" for i in range(100)]),
        "g": pa.array([f"s{i % 3}" for i in range(100)]),
        "v": pa.array([None if i % 10 == 0 else i
                       for i in range(100)], type=pa.int64()),
    })
    d = str(tmp_path / "nullpct")
    encode_dataset(rd.from_arrow(t), d, key_col="g", id_col="id",
                   weight_col=None)
    out = group_int_percentiles(d, "g", "v", [0.5]).to_pandas()
    assert len(out) == 3
    # INT64_MIN pollution would drag every p50 far negative
    assert (out["p50"] > 0).all()
    import pandas as pd

    df = t.to_pandas()
    want = df.groupby("g")["v"].quantile(0.5, interpolation="lower")
    for _, row in out.iterrows():
        assert row["p50"] == want[row["g"]]


def test_group_int_percentiles_wide_range_vs_duckdb(ray_session, tmp_path):
    """Integer values spread over [0, 2^40): each group's percentiles
    come from its exact (value, count) runs whatever the value range,
    equal to DuckDB quantile_disc. Groups span partitions (the table
    is partitioned on the id, not the group key)."""
    import duckdb
    import ray.data as rd

    from arcade_ray.pipeline.query import group_int_percentiles

    rng = np.random.default_rng(40)
    n = 20_000
    t = pa.table({
        "doc_id": pa.array(np.arange(n), type=pa.int64()),
        "source": pa.array([f"src-{i}" for i in rng.integers(0, 4, n)]),
        "v": pa.array(rng.integers(0, 1 << 40, n), type=pa.int64()),
    })
    d = str(tmp_path / "wide")
    encode_dataset(rd.from_arrow(t), d, key_col="doc_id", weight_col=None)
    got = group_int_percentiles(d, "source", "v", [0.0, 0.5, 0.99, 1.0])
    con = duckdb.connect()
    con.register("t", t)
    want = con.execute(
        "SELECT source, quantile_disc(v, 0.0) AS p00, "
        "quantile_disc(v, 0.5) AS p50, quantile_disc(v, 0.99) AS p99, "
        "quantile_disc(v, 1.0) AS p100 FROM t GROUP BY source "
        "ORDER BY source").arrow()
    assert got.column_names == want.column_names
    assert got.to_pylist() == want.to_pylist()


def test_topk_rows_nullable_order_col_vs_duckdb(ray_session, tmp_path):
    """ORDER BY v [DESC], doc_id over a column with NULLs: NULLs sort
    last in both directions (DuckDB's default), in every partition's
    partial and in the driver merge, including a page that runs past
    the last non-null value into the NULL rows."""
    import duckdb
    import ray.data as rd

    from arcade_ray.pipeline.query import topk_rows

    rng = np.random.default_rng(7)
    n = 2000
    v = rng.integers(0, 1000, n)
    t = pa.table({
        "doc_id": pa.array(np.arange(n), type=pa.int64()),
        "grp": pa.array([f"g{i % 3}" for i in range(n)]),
        "v": pa.array(v, type=pa.int64(), mask=rng.random(n) < 0.3),
    })
    d = str(tmp_path / "nullv")
    encode_dataset(rd.from_arrow(t), d, key_col="doc_id", weight_col=None)
    con = duckdb.connect()
    con.register("t", t)
    n_valid = n - t["v"].null_count
    for desc in (True, False):
        for k, off in ((5, 0), (6, n_valid - 3)):
            got = topk_rows(d, "v", k, id_col="doc_id", descending=desc,
                            offset=off)
            want = con.execute(
                f"SELECT v, doc_id FROM t ORDER BY v "
                f"{'DESC' if desc else 'ASC'} NULLS LAST, doc_id "
                f"LIMIT {k} OFFSET {off}").arrow()
            assert got.select(["v", "doc_id"]).to_pylist() == \
                want.to_pylist(), (desc, k, off)


def _nan_safe(rows):
    """Rows for comparison: every NaN (either sign) is one value, and a
    zero keeps its sign (rows are taken, never rebuilt, so -0.0 stays)."""
    def norm(v):
        if isinstance(v, float):
            return "nan" if v != v else (v, np.copysign(1.0, v))
        return v
    return [tuple(norm(v) for v in r) for r in rows]


def test_float_order_sites_vs_duckdb(ray_session, tmp_path):
    """Every ORDER BY site orders a float key as DuckDB does: NaN of
    either sign above +inf, -0.0 tied with 0.0 (ties broken by the next
    key), NULLs last unless NULLS FIRST, over a multi-partition dir."""
    import duckdb
    import ray.data as rd

    from arcade_ray.pipeline.query import (_manifest_paths,
                                           dict_group_topk, topk,
                                           topk_rows)
    from arcade_ray.sql import sql_query

    rng = np.random.default_rng(15)
    n = 3000
    neg_nan = np.array([0xFFF8000000000000], np.uint64).view(np.float64)[0]
    pool = np.array([-np.inf, -1.5, -0.0, 0.0, 0.5, 2.0, np.inf])
    v = pool[rng.integers(0, len(pool), n)]
    u = rng.random(n)
    v[u < 0.05] = np.nan
    v[u < 0.02] = neg_nan
    t = pa.table({
        "doc_id": pa.array(np.arange(n), type=pa.int64()),
        "part": pa.array([f"p{i % 6}" for i in range(n)]),
        "grp": pa.array([None if rng.random() < 0.05
                         else f"g{int(rng.integers(0, 5))}"
                         for _ in range(n)], type=pa.string()),
        "v": pa.array(v, type=pa.float64(), mask=(u > 0.05) & (u < 0.15)),
    })
    d = str(tmp_path / "fenc")
    encode_dataset(rd.from_arrow(t), d, key_col="part", weight_col=None)
    assert len(_manifest_paths(d)) >= 4
    con = duckdb.connect()
    con.register("t", t)

    def want(sql):
        return _nan_safe(con.execute(sql).fetchall())

    def rows(tab, cols):
        return _nan_safe(zip(*[tab[c].to_pylist() for c in cols]))

    def val(x):  # a value alone: -0.0 and 0.0 tie, so either may come
        return x if x == "nan" else x[0]

    got = topk(d, "v", 60)
    assert [val(r[0]) for r in rows(got, ["v"])] == [
        val(r[0]) for r in want("SELECT v FROM t ORDER BY v DESC LIMIT 60")]

    n_nan, n_pos, n_neg, n_valid = con.execute(
        "SELECT count(*) FILTER (WHERE isnan(v)), count(*) FILTER "
        "(WHERE v > 0), count(*) FILTER (WHERE v < 0), count(v) "
        "FROM t").fetchone()  # NaN > 0 holds in DuckDB
    for desc, off in ((True, n_nan - 10), (True, n_pos - 10),
                      (False, n_neg - 10), (False, n_valid - 5)):
        got = topk_rows(d, "v", 25, id_col="doc_id",
                        columns=["doc_id", "v", "grp"],
                        descending=desc, offset=off)
        assert rows(got, ["doc_id", "v", "grp"]) == want(
            f"SELECT doc_id, v, grp FROM t ORDER BY v "
            f"{'DESC' if desc else 'ASC'}, doc_id LIMIT 25 OFFSET {off}"
        ), (desc, off)

    # k above any group's rows in one partition: the driver merge ranks
    got = dict_group_topk(d, "grp", "v", "doc_id", 150)
    assert len(got) == con.execute(
        "SELECT sum(least(c, 150)) FROM (SELECT count(*) AS c FROM t "
        "GROUP BY grp)").fetchone()[0]
    assert rows(got, ["grp", "doc_id", "v"]) == want(
        "SELECT grp, doc_id, v FROM t QUALIFY row_number() OVER "
        "(PARTITION BY grp ORDER BY v DESC, doc_id) <= 150 "
        "ORDER BY grp NULLS LAST, v DESC, doc_id")

    for q in ("SELECT doc_id, v FROM t ORDER BY v DESC, doc_id "
              "LIMIT 20 OFFSET 30",
              "SELECT doc_id, v FROM t ORDER BY v NULLS FIRST, doc_id "
              "LIMIT 40",
              "SELECT doc_id % 100 AS b, sum(v) AS s FROM t GROUP BY b "
              "ORDER BY s DESC, b LIMIT 12",
              "SELECT grp, string_agg(doc_id, ',' ORDER BY v DESC, doc_id)"
              " AS a FROM t GROUP BY grp ORDER BY grp"):
        res = sql_query(q, {"t": d})
        assert rows(res, res.column_names) == want(q), q
    q = ("SELECT grp, arg_max(v, v) AS hi, arg_min(v, v) AS lo FROM t "
         "GROUP BY grp ORDER BY grp")
    res = sql_query(q, {"t": d})
    assert [(g, val(h), val(lo)) for g, h, lo in
            rows(res, ["grp", "hi", "lo"])] == \
        [(g, val(h), val(lo)) for g, h, lo in want(q)]


@pytest.fixture(scope="module")
def nan_dir(ray_session, tmp_path_factory):
    """A six-partition dir whose float ``v`` holds -inf, -1.5, -0.0,
    0.0, 0.5, 2.0, inf, 5% NaN and 10% NULL, with string and int group
    keys; group ``gnan`` holds only NaN and NULL, ``gnull`` only NULL.
    -> (dir, the same table registered in a DuckDB connection)."""
    import duckdb
    import ray.data as rd

    rng = np.random.default_rng(16)
    n = 3000
    pool = np.array([-np.inf, -1.5, -0.0, 0.0, 0.5, 2.0, np.inf])
    v = pool[rng.integers(0, len(pool), n)]
    u = rng.random(n)
    v[u < 0.05] = np.nan
    grp = np.array([f"g{i}" for i in rng.integers(0, 4, n)], dtype=object)
    grp[:40] = "gnan"
    v[:40:2] = np.nan
    grp[40:60] = "gnull"
    i = np.arange(n)
    null = ((u > 0.05) & (u < 0.15)) | ((i < 40) & (i % 2 == 1)) \
        | ((i >= 40) & (i < 60))
    t = pa.table({
        "doc_id": pa.array(np.arange(n), type=pa.int64()),
        "part": pa.array([f"p{i % 6}" for i in range(n)]),
        "grp": pa.array(grp.tolist(), type=pa.string()),
        "gi": pa.array([7 if g == "gnan" else 8 if g == "gnull"
                        else int(g[1:]) for g in grp], type=pa.int64()),
        "v": pa.array(v, type=pa.float64(), mask=null),
    })
    d = str(tmp_path_factory.mktemp("nan") / "enc")
    encode_dataset(rd.from_arrow(t), d, key_col="part", weight_col=None)
    con = duckdb.connect()
    con.register("t", t)
    return d, con


def test_float_min_max_nan_vs_duckdb(nan_dir):
    """SQL MIN/MAX over a float column with NaN match DuckDB, grouped
    (by a string key, by an int key, by ROLLUP) and global, over
    several partitions: MAX is NaN when any non-null value is NaN, MIN
    ignores NaN unless every non-null value is NaN."""
    from arcade_ray.pipeline.query import _manifest_paths
    from arcade_ray.sql import sql_query

    d, con = nan_dir
    assert len(_manifest_paths(d)) >= 4

    def val(r):  # -0.0 and 0.0 tie in MIN/MAX, so either may come
        return tuple("nan" if x != x else x for x in r)

    for q in ("SELECT grp, min(v) AS lo, max(v) AS hi FROM t "
              "GROUP BY grp ORDER BY grp",
              "SELECT gi, min(v) AS lo, max(v) AS hi, count(v) AS c "
              "FROM t GROUP BY gi ORDER BY gi",
              "SELECT min(v) AS lo, max(v) AS hi FROM t",
              "SELECT max(v) AS hi FROM t WHERE grp = 'g1'",
              "SELECT grp, gi, min(v) AS lo, max(v) AS hi FROM t GROUP BY "
              "ROLLUP (grp, gi) ORDER BY grp NULLS LAST, gi NULLS LAST"):
        res = sql_query(q, {"t": d})
        got = [val(r) for r in zip(*[res[c].to_pylist()
                                    for c in res.column_names])]
        assert got == [val(r) for r in con.execute(q).fetchall()], q


def test_dict_group_aggregate_float_nan_vs_duckdb(nan_dir):
    """dict_group_aggregate's float MIN/MAX follow DuckDB over several
    partitions, by one key and by two: MAX is NaN when any non-null
    value is NaN, MIN only when every non-null value is."""
    from arcade_ray.pipeline.query import dict_group_aggregate

    d, con = nan_dir

    def val(r):  # -0.0 and 0.0 tie in MIN/MAX, so either may come
        return tuple("nan" if x != x else x for x in r)

    for keys in (["grp"], ["part", "grp"]):
        got = dict_group_aggregate(d, keys if len(keys) > 1 else keys[0],
                                   "v")
        k = ", ".join(keys)
        want = con.execute(
            f"SELECT {k}, min(v), max(v), count(*) FROM t GROUP BY {k} "
            f"ORDER BY {k}").fetchall()
        assert [val(r) for r in zip(*[got[c].to_pylist() for c in
                                      keys + ["min_v", "max_v",
                                              "n_rows"]])] == \
            [val(r) for r in want], keys


def test_float_order_by_without_limit_vs_duckdb(nan_dir):
    """SQL ORDER BY without LIMIT (the distributed sort) orders a float
    key as DuckDB does: NaN above +inf, -0.0 tied with 0.0 (ties go to
    the next key), NULLs last unless NULLS FIRST."""
    from arcade_ray.collect import collect_arrow
    from arcade_ray.sql import sql_query

    d, con = nan_dir
    for q in ("SELECT doc_id, v FROM t ORDER BY v DESC, doc_id",
              "SELECT doc_id, v FROM t ORDER BY v NULLS FIRST, doc_id"):
        res = collect_arrow(sql_query(q, {"t": d}))
        got = _nan_safe(zip(*[res[c].to_pylist() for c in ("doc_id", "v")]))
        assert got == _nan_safe(con.execute(q).fetchall()), q


def test_window_float_order_vs_duckdb(nan_dir):
    """The SQL window pass orders a float key as DuckDB does (NaN above
    +inf, -0.0 tied with 0.0, NULLs last), ranks NaN rows as peers and
    puts -0.0 with 0.0 and NaN with NaN in one PARTITION BY group."""
    from arcade_ray.collect import collect_arrow
    from arcade_ray.sql import sql_query

    d, con = nan_dir
    for q in ("SELECT grp, doc_id, v, row_number() OVER (PARTITION BY grp "
              "ORDER BY v DESC, doc_id) AS rn FROM t ORDER BY grp, rn",
              "SELECT doc_id, rank() OVER (PARTITION BY grp ORDER BY v) AS r,"
              " dense_rank() OVER (PARTITION BY grp ORDER BY v) AS dr "
              "FROM t ORDER BY doc_id",
              "SELECT doc_id, row_number() OVER (PARTITION BY v ORDER BY "
              "doc_id) AS rn FROM t ORDER BY doc_id"):
        res = sql_query(q, {"t": d})
        if not isinstance(res, pa.Table):
            res = collect_arrow(res)
        got = _nan_safe(zip(*[res[c].to_pylist() for c in res.column_names]))
        assert got == _nan_safe(con.execute(q).fetchall()), q


def test_query_surface_over_empty_encoded_dir(ray_session, tmp_path):
    """Every driver-facing query op answers a ZERO-PARTITION encoded
    dir (empty input shard) with a typed empty result instead of
    IndexError/ArrowInvalid; unknown columns still raise KeyError."""
    import pyarrow.parquet as pq

    from arcade_ray.corpus import generate_corpus
    from arcade_ray.pipeline import query as q
    from arcade_ray.pipeline.encode import encode_parquet

    src = tmp_path / "empty.parquet"
    pq.write_table(generate_corpus(10, 2, seed=7).slice(0, 0), str(src))
    out = str(tmp_path / "enc")
    encode_parquet(str(src), out)

    assert q.equi_filter(out, "source", "s", ["doc_id"]).count() == 0
    assert q.range_filter(out, "n_tok", 1, 5, ["doc_id"]).count() == 0
    assert q.compound_filter(
        out, ("eq", "source", "s"), ["doc_id"]).count() == 0
    assert q.lookup(out, "doc_id", ["x"]).count() == 0
    t = q.topk(out, "n_tok", 5)
    assert t.num_rows == 0 and t.column_names == ["n_tok"]
    t = q.topk_rows(out, "n_tok", 5, id_col="doc_id")
    assert t.num_rows == 0 and t.column_names == ["n_tok", "doc_id"]
    assert q.dict_value_counts(out, "source").num_rows == 0
    assert q.sorted_scan(out, "n_tok").count() == 0

    agg = q.dict_group_aggregate(out, "source", "n_tok")
    assert agg.num_rows == 0 and agg.column_names == [
        "source", "sum_v", "min_v", "max_v", "n_rows"]
    gt = q.dict_group_topk(out, "source", "n_tok", "doc_id", 2)
    assert gt.num_rows == 0
    pct = q.group_int_percentiles(out, "source", "n_tok", [0.5])
    assert pct.num_rows == 0 and pct.column_names == ["source", "p50"]
    for fn in (q.exact_percentiles, q.exact_percentiles_cont):
        pt = fn(out, "n_tok", [0.5, 0.9])
        assert pt.column_names == ["p", "n_tok"]
        assert pt["n_tok"].to_pylist() == [None, None]
    assert q.stats_meta(out, ["n_tok"]) == {
        "rows": 0, "n_tok": {"min": None, "max": None}}
    ra = q.random_access(out, [])
    assert ra.num_rows == 0 and "row_id" in ra.column_names
    with pytest.raises(IndexError):
        q.random_access(out, [0])

    with pytest.raises(KeyError):
        q.equi_filter(out, "source", "s", ["nope"])


class TestPartitionBloom:
    """Manifest Bloom filters: point-lookup partition pruning on
    high-cardinality columns where zone maps cannot help."""

    @staticmethod
    def _encode(tmp_path_factory, rows=6000, sources=10, seed=41):
        import ray.data as rd

        from arcade_ray.corpus import generate_corpus
        from arcade_ray.pipeline import encode_dataset

        table = generate_corpus(rows, sources, seed=seed)
        out = str(tmp_path_factory.mktemp("bloom") / "enc")
        encode_dataset(rd.from_arrow(table), out, weight_cap=150_000)
        return table, out

    def test_point_lookup_prunes_partitions(self, ray_session,
                                            tmp_path_factory):
        import json

        from arcade_ray.format import read_header
        from arcade_ray.pipeline.query import (_bloom_excludes,
                                               _literal_bloom_hashes,
                                               _manifest_paths)

        table, out = self._encode(tmp_path_factory)
        rows = _manifest_paths(out)
        assert len(rows) >= 4, "fixture must be multi-partition"
        header0, _ = read_header(rows[0]["path"])
        cm = header0["columns"]["doc_id"]
        ids = table["doc_id"].to_pylist()
        touched = []
        for lit in ids[:: max(1, len(ids) // 40)]:
            lh = _literal_bloom_hashes(cm, [lit])
            assert lh is not None
            touched.append(sum(
                1 for r in rows
                if not _bloom_excludes(json.loads(r["col_stats"])
                                       .get("doc_id", {}), lh)))
        # each doc_id lives in exactly one partition; FPR ~9% per
        # probe means the AVERAGE must stay near 1, far below all-N
        assert sum(touched) / len(touched) < 0.5 * len(rows)

    def test_no_false_negatives(self, ray_session, tmp_path_factory):
        from arcade_ray.pipeline.query import equi_filter

        table, out = self._encode(tmp_path_factory, rows=3000)
        ids = table["doc_id"].to_pylist()
        for lit in ids[:: max(1, len(ids) // 60)]:
            got = equi_filter(out, "doc_id", lit, ["doc_id"]).take_all()
            assert [r["doc_id"] for r in got] == [lit]

    def test_absent_literal_zero_partitions(self, ray_session,
                                            tmp_path_factory):
        from arcade_ray.pipeline.query import equi_filter

        _, out = self._encode(tmp_path_factory, rows=2000)
        got = equi_filter(out, "doc_id", "no-such-doc-id",
                          ["doc_id"]).take_all()
        assert got == []

    def test_int_column_bloom(self, ray_session, tmp_path_factory):
        import json

        from arcade_ray.format import read_header
        from arcade_ray.pipeline.query import (_literal_bloom_hashes,
                                               _manifest_paths,
                                               equi_filter)

        table, out = self._encode(tmp_path_factory, rows=4000)
        rows = _manifest_paths(out)
        header0, _ = read_header(rows[0]["path"])
        cm = header0["columns"]["n_tok"]
        # n_tok is low-cardinality: bloom exists, never excludes a
        # present value
        vals = sorted(set(table["n_tok"].to_pylist()))
        lit = vals[len(vals) // 2]
        got = equi_filter(out, "n_tok", lit, ["doc_id", "n_tok"]).take_all()
        import pyarrow.compute as pc

        expect = pc.sum(pc.equal(table["n_tok"], lit)).as_py()
        assert len(got) == expect
        lh = _literal_bloom_hashes(cm, [int(lit)])
        assert lh is not None

    def test_wide_column_opts_out(self):
        import numpy as np

        from arcade_ray.hashing import hash_ints
        from arcade_ray.sketches import BLOOM_MAX_DISTINCT, bloom_build

        h = hash_ints(np.arange(BLOOM_MAX_DISTINCT + 1))
        assert bloom_build(h) is None

    def test_compound_eq_leaf_bloom_prunes(self, ray_session,
                                           tmp_path_factory):
        import json

        from arcade_ray.format import read_header
        from arcade_ray.pipeline.query import (_manifest_paths,
                                               _zone_pruner,
                                               compound_filter)

        table, out = self._encode(tmp_path_factory, rows=4000)
        rows = _manifest_paths(out)
        header0, _ = read_header(rows[0]["path"])
        lit = table["doc_id"][0].as_py()
        tree = ("and", [("eq", "doc_id", lit),
                        ("between", "n_tok", 0, 10**6)])
        excluded = _zone_pruner(header0, tree)
        kept = [r for r in rows
                if not excluded(json.loads(r["col_stats"]))]
        assert len(kept) < len(rows), "bloom should prune eq leaves"
        got = compound_filter(out, tree, ["doc_id"]).take_all()
        assert [r["doc_id"] for r in got] == [lit]
        # absent literal -> bloom prunes everything, typed empty out
        none = compound_filter(out, [("eq", "doc_id", "absent-doc")],
                               ["doc_id"]).take_all()
        assert none == []

    def test_literals_hashed_once_per_query(self, ray_session,
                                            tmp_path_factory, monkeypatch):
        """Bloom literals are hashed once per query, an IN-list in one
        vectorised call: the hashed-value count equals the literal
        count, whatever the partition count."""
        import arcade_ray.hashing as hashing
        from arcade_ray.collect import collect_arrow
        from arcade_ray.pipeline.query import _manifest_paths

        table, out = self._encode(tmp_path_factory, rows=4000)
        assert len(_manifest_paths(out)) >= 4, "fixture must be multi-partition"
        ids = table["doc_id"].to_pylist()
        calls = []
        orig = hashing.hash_strings

        def counting(lengths, data, *a, **k):
            calls.append(len(lengths))
            return orig(lengths, data, *a, **k)

        monkeypatch.setattr(hashing, "hash_strings", counting)
        ds = equi_filter(out, "doc_id", ids[17], ["doc_id"])
        assert calls == [1]
        assert collect_arrow(ds)["doc_id"].to_pylist() == [ids[17]]

        calls.clear()
        wanted = ids[::80][:50]
        ds = lookup(out, "doc_id", wanted, columns=["doc_id"])
        assert calls == [50]
        assert sorted(collect_arrow(ds)["doc_id"].to_pylist()) == \
            sorted(wanted)


def test_group_aggregate_tree_combine_high_cardinality(ray_session,
                                                       tmp_path,
                                                       monkeypatch):
    """High-cardinality decode-free group-by (round-4 review item):
    with the tree-combine threshold forced to 0, the repartition
    pre-merge path engages and the result stays parity-identical to
    DuckDB — and to the direct driver-fold path — on a many-distinct
    key column. Covers dict_group_aggregate, dict_value_counts and
    transforms.group_stats."""
    import duckdb
    import ray.data as rd

    import arcade_ray.pipeline.query as q
    from arcade_ray.pipeline.encode import encode_dataset
    from arcade_ray.pipeline.query import (dict_group_aggregate,
                                           dict_value_counts)
    from arcade_ray.transforms import group_stats

    n = 20_000
    rng = np.random.default_rng(7)
    keys = [f"k{int(v):05d}" for v in rng.integers(0, 8000, n)]
    table = pa.table({
        "doc_id": pa.array(np.arange(n), pa.int64()),
        "source": pa.array(keys),
        "val": pa.array(rng.integers(0, 1000, n), pa.int64()),
    })
    out = str(tmp_path / "enc")
    encode_dataset(rd.from_arrow(table), out, key_col="source",
                   id_col="doc_id", weight_col=None)

    base_agg = dict_group_aggregate(out, "source", "val")
    base_cnt = dict_value_counts(out, "source")
    monkeypatch.setattr(q, "_GROUP_COMBINE_ROWS", 0)
    tree_agg = dict_group_aggregate(out, "source", "val")
    tree_cnt = dict_value_counts(out, "source")
    assert tree_agg.equals(base_agg)
    assert tree_cnt.equals(base_cnt)

    con = duckdb.connect()
    con.register("t", table)
    o = con.execute(
        "SELECT source, CAST(sum(val) AS BIGINT) AS sum_v, "
        "CAST(min(val) AS BIGINT) AS min_v, "
        "CAST(max(val) AS BIGINT) AS max_v, "
        "count(*) AS n_rows FROM t GROUP BY source ORDER BY source"
    ).fetch_arrow_table()
    assert tree_agg.to_pylist() == o.to_pylist()

    gs = group_stats(rd.from_arrow(table), "source", "val")
    o2 = con.execute(
        "SELECT source, count(val) AS n, avg(val) AS avg_v "
        "FROM t GROUP BY source ORDER BY source").fetch_arrow_table()
    assert gs["source"].to_pylist() == o2["source"].to_pylist()
    assert gs["n"].to_pylist() == o2["n"].to_pylist()
    got_avg = gs["avg_v"].to_pylist()
    want_avg = o2["avg_v"].to_pylist()
    assert all(abs(a - b) < 1e-9 for a, b in zip(got_avg, want_avg))
