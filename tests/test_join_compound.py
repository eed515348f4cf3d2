"""Broadcast hash join over encoded tables + compound predicates."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from arcade_ray.collect import collect_arrow
from arcade_ray.pipeline import encode_dataset
from arcade_ray.pipeline.join import broadcast_join
from arcade_ray.pipeline.query import compound_filter


@pytest.fixture(scope="module")
def two_tables(ray_session, tmp_path_factory):
    import ray.data as rd

    base = tmp_path_factory.mktemp("join")
    rng = np.random.default_rng(11)
    n_cust, n_ord = 200, 5000
    cust = pa.table({
        "c_custkey": pa.array(np.arange(n_cust), type=pa.int64()),
        "c_seg": pa.array([f"seg-{i % 5}" for i in range(n_cust)]),
    })
    orders = pa.table({
        "o_orderkey": pa.array(np.arange(n_ord), type=pa.int64()),
        "o_custkey": pa.array(
            rng.integers(0, n_cust + 20, n_ord), type=pa.int64()),  # some misses
        "o_flag": pa.array([f"f{i % 3}" for i in range(n_ord)]),
        "o_total": pa.array(rng.integers(1, 1000, n_ord), type=pa.int64()),
    })
    c_dir, o_dir = str(base / "cust"), str(base / "ord")
    encode_dataset(rd.from_arrow(cust), c_dir, key_col="c_seg",
                   id_col="c_custkey", weight_col=None)
    encode_dataset(rd.from_arrow(orders), o_dir, key_col="o_flag",
                   id_col="o_orderkey", weight_col=None)
    return o_dir, c_dir, orders, cust


def test_broadcast_join_inner(two_tables):
    o_dir, c_dir, orders, cust = two_tables
    out = collect_arrow(broadcast_join(
        o_dir, c_dir, probe_key="o_custkey", build_key="c_custkey",
        probe_cols=["o_orderkey", "o_custkey"], build_cols=["c_seg"]))
    # oracle: pandas merge
    exp = orders.to_pandas().merge(cust.to_pandas(), left_on="o_custkey",
                                   right_on="c_custkey")
    assert out.num_rows == len(exp)
    got = out.to_pandas().sort_values("o_orderkey").reset_index(drop=True)
    exp = exp[["o_orderkey", "o_custkey", "c_seg"]] \
        .sort_values("o_orderkey").reset_index(drop=True)
    assert got.equals(exp)


def test_broadcast_join_left(two_tables):
    o_dir, c_dir, orders, cust = two_tables
    out = collect_arrow(broadcast_join(
        o_dir, c_dir, probe_key="o_custkey", build_key="c_custkey",
        probe_cols=["o_orderkey"], build_cols=["c_seg"], how="left"))
    assert out.num_rows == orders.num_rows
    n_miss = out.filter(pc.is_null(out["c_seg"])).num_rows
    exp_miss = len([v for v in orders["o_custkey"].to_pylist() if v >= 200])
    assert n_miss == exp_miss > 0


def test_broadcast_join_rejects_dup_build_key(two_tables, tmp_path,
                                              ray_session):
    import ray.data as rd

    from arcade_ray.pipeline import encode_dataset as enc

    o_dir, _, _, _ = two_tables
    dup = pa.table({
        "c_custkey": pa.array([1, 1, 2], type=pa.int64()),
        "c_seg": pa.array(["a", "b", "c"]),
    })
    d_dir = str(tmp_path / "dup")
    enc(rd.from_arrow(dup), d_dir, key_col="c_seg", id_col="c_custkey",
        weight_col=None)
    with pytest.raises(ValueError, match="not unique"):
        broadcast_join(o_dir, d_dir, probe_key="o_custkey",
                       build_key="c_custkey", probe_cols=["o_orderkey"],
                       build_cols=["c_seg"])


def test_compound_filter_matches_oracle(two_tables):
    o_dir, _, orders, _ = two_tables
    out = collect_arrow(compound_filter(
        o_dir,
        [("eq", "o_flag", "f1"), ("between", "o_total", 100, 400)],
        project=["o_orderkey", "o_flag", "o_total"],
    ))
    df = orders.to_pandas()
    exp = df[(df["o_flag"] == "f1") & df["o_total"].between(100, 400)]
    assert out.num_rows == len(exp)
    assert set(out["o_orderkey"].to_pylist()) == set(exp["o_orderkey"])
    # equality column is backfilled from the literal
    assert set(out["o_flag"].to_pylist()) == {"f1"}


def test_compound_filter_three_preds(two_tables):
    o_dir, _, orders, _ = two_tables
    out = collect_arrow(compound_filter(
        o_dir,
        [("eq", "o_flag", "f2"), ("between", "o_total", 1, 999),
         ("between", "o_orderkey", 0, 1000)],
        project=["o_orderkey"],
    ))
    df = orders.to_pandas()
    exp = df[(df["o_flag"] == "f2") & (df["o_orderkey"] <= 1000)]
    assert set(out["o_orderkey"].to_pylist()) == set(exp["o_orderkey"])


def test_compound_filter_empty_result(two_tables):
    o_dir, _, _, _ = two_tables
    out = collect_arrow(compound_filter(
        o_dir, [("eq", "o_flag", "no-such"), ("between", "o_total", 0, 9)],
        project=["o_orderkey"]))
    assert out.num_rows == 0


def test_copartition_join_inner(two_tables):
    from arcade_ray.pipeline.join import copartition_join

    o_dir, c_dir, orders, cust = two_tables
    out = collect_arrow(copartition_join(
        o_dir, c_dir, left_key="o_custkey", right_key="c_custkey",
        left_cols=["o_orderkey", "o_custkey"], right_cols=["c_seg"]))
    exp = orders.to_pandas().merge(cust.to_pandas(), left_on="o_custkey",
                                   right_on="c_custkey")
    assert out.num_rows == len(exp)
    got = out.to_pandas().sort_values("o_orderkey").reset_index(drop=True)
    exp = exp[["o_orderkey", "o_custkey", "c_seg"]] \
        .sort_values("o_orderkey").reset_index(drop=True)
    assert got.equals(exp)


def test_copartition_join_left(two_tables):
    from arcade_ray.pipeline.join import copartition_join

    o_dir, c_dir, orders, cust = two_tables
    out = collect_arrow(copartition_join(
        o_dir, c_dir, left_key="o_custkey", right_key="c_custkey",
        left_cols=["o_orderkey"], right_cols=["c_seg"], join_type="left"))
    assert out.num_rows == orders.num_rows
    n_miss = out.filter(pc.is_null(out["c_seg"])).num_rows
    exp_miss = len([v for v in orders["o_custkey"].to_pylist() if v >= 200])
    assert n_miss == exp_miss > 0


def test_copartition_join_full_outer(tmp_path, ray_session):
    """FULL OUTER with both left-only AND right-only rows; the right
    key column is requested under its own name, so keys stay
    un-coalesced and the SQL shape comes out (nulls on the missing
    side). Oracle: pandas outer merge."""
    import ray.data as rd

    from arcade_ray.pipeline.join import copartition_join

    left = pa.table({
        "lk": pa.array([0, 1, 1, 2, 7, 8], type=pa.int64()),
        "lv": pa.array(["a", "b", "c", "d", "e", "f"]),
        "ltag": pa.array(["t0"] * 6),
    })
    right = pa.table({
        "rk": pa.array([1, 2, 3, 9], type=pa.int64()),
        "rv": pa.array(["R1", "R2", "R3", "R9"]),
        "rtag": pa.array(["u0"] * 4),
    })
    l_dir, r_dir = str(tmp_path / "l"), str(tmp_path / "r")
    encode_dataset(rd.from_arrow(left), l_dir, key_col="ltag", id_col="lk",
                   weight_col=None)
    encode_dataset(rd.from_arrow(right), r_dir, key_col="rtag", id_col="rk",
                   weight_col=None)
    out = collect_arrow(copartition_join(
        l_dir, r_dir, left_key="lk", right_key="rk",
        left_cols=["lk", "lv"], right_cols=["rk", "rv"],
        join_type="full"))
    exp = left.to_pandas().merge(right.to_pandas(), how="outer",
                                 left_on="lk", right_on="rk")
    exp = exp[["lk", "lv", "rk", "rv"]]
    got = out.to_pandas()
    key = ["lk", "lv", "rk", "rv"]
    got = got.sort_values(key, na_position="last").reset_index(drop=True)
    exp = exp.sort_values(key, na_position="last").reset_index(drop=True)
    assert len(got) == len(exp) == 8  # 3 matched + 3 left-only + 2 right-only
    assert got.equals(exp)


def test_copartition_join_mn_duplicates(two_tables, tmp_path, ray_session):
    """m:n key multiplicity on BOTH sides — the case broadcast_join
    rejects — must produce the full cross product per key."""
    import ray.data as rd

    left = pa.table({
        "k": pa.array([1, 1, 2, 3], type=pa.int64()),
        "lv": pa.array(["a", "b", "c", "d"]),
        "lg": pa.array(["g"] * 4),
    })
    right = pa.table({
        "k": pa.array([1, 1, 1, 2], type=pa.int64()),
        "rv": pa.array(["x", "y", "z", "w"]),
        "rg": pa.array(["g"] * 4),
    })
    l_dir, r_dir = str(tmp_path / "l"), str(tmp_path / "r")
    encode_dataset(rd.from_arrow(left), l_dir, key_col="lg", id_col="k",
                   weight_col=None)
    encode_dataset(rd.from_arrow(right), r_dir, key_col="rg", id_col="k",
                   weight_col=None)
    from arcade_ray.pipeline.join import copartition_join

    out = collect_arrow(copartition_join(
        l_dir, r_dir, left_key="k", right_key="k",
        left_cols=["k", "lv"], right_cols=["rv"]))
    exp = left.to_pandas().merge(right.to_pandas(), on="k")
    assert out.num_rows == len(exp) == 2 * 3 + 1


def test_semi_join(two_tables):
    from arcade_ray.pipeline.join import semi_join

    o_dir, c_dir, orders, cust = two_tables
    keys = cust.filter(pc.equal(cust["c_seg"], "seg-2"))["c_custkey"]
    out = collect_arrow(semi_join(
        o_dir, "o_custkey", ["o_orderkey", "o_custkey"], keys))
    keyset = set(keys.to_pylist())
    exp = orders.filter(pa.array(
        [k in keyset for k in orders["o_custkey"].to_pylist()]))
    assert sorted(out["o_orderkey"].to_pylist()) == \
        sorted(exp["o_orderkey"].to_pylist())
    assert set(out.column_names) == {"o_orderkey", "o_custkey"}


def test_anti_join(two_tables):
    from arcade_ray.pipeline.join import semi_join

    o_dir, c_dir, orders, cust = two_tables
    keys = cust.filter(pc.equal(cust["c_seg"], "seg-2"))["c_custkey"]
    out = collect_arrow(semi_join(
        o_dir, "o_custkey", ["o_orderkey"], keys, anti=True))
    keyset = set(keys.to_pylist())
    exp = orders.filter(pa.array(
        [k not in keyset for k in orders["o_custkey"].to_pylist()]))
    assert sorted(out["o_orderkey"].to_pylist()) == \
        sorted(exp["o_orderkey"].to_pylist())


def test_semi_join_accepts_dataset_and_prunes(two_tables, ray_session):
    """Key set as a ray Dataset; disjoint keys -> zone pruning leaves
    an empty, correctly-typed result."""
    import ray.data as rd

    from arcade_ray.pipeline.join import semi_join

    o_dir, _, orders, _ = two_tables
    ds_keys = rd.from_arrow(pa.table(
        {"k": pa.array([10**9, 10**9 + 1], type=pa.int64())}))
    out = collect_arrow(semi_join(o_dir, "o_custkey", ["o_orderkey"], ds_keys))
    assert out.num_rows == 0
    assert out.schema.field("o_orderkey").type == pa.int64()


def test_semi_join_key_guardrails(two_tables):
    from arcade_ray.pipeline.join import semi_join

    o_dir, _, _, cust = two_tables
    with pytest.raises(ValueError, match="one column"):
        semi_join(o_dir, "o_custkey", ["o_orderkey"], cust)
    with pytest.raises(ValueError, match="key set"):
        semi_join(o_dir, "o_custkey", ["o_orderkey"],
                  cust["c_custkey"], max_keys=10)
    with pytest.raises(KeyError):
        semi_join(o_dir, "nope", ["o_orderkey"], cust["c_custkey"])


def test_broadcast_join_composite_key(ray_session, tmp_path_factory):
    """Composite-key broadcast join (Arrow multi-key hash join per
    partition): (region, tier) -> rate lookup, inner and left."""
    import ray.data as rd

    from arcade_ray.pipeline import encode_dataset
    from arcade_ray.pipeline.join import broadcast_join

    base = tmp_path_factory.mktemp("ckjoin")
    rng = np.random.default_rng(3)
    n = 3000
    facts = pa.table({
        "fid": pa.array(np.arange(n), type=pa.int64()),
        "region": pa.array([f"r{i % 4}" for i in rng.integers(0, 5, n)]),
        "tier": pa.array(rng.integers(0, 4, n), type=pa.int64()),
        "amount": pa.array(rng.integers(1, 100, n), type=pa.int64()),
    })
    dims = pa.table({
        "d_region": pa.array([f"r{i}" for i in range(4) for _ in range(3)]),
        "d_tier": pa.array([t for _ in range(4) for t in range(3)],
                           type=pa.int64()),
        "rate": pa.array(np.arange(12, dtype=np.float64) / 10),
    })
    f_dir, d_dir = str(base / "f"), str(base / "d")
    encode_dataset(rd.from_arrow(facts), f_dir, key_col="region",
                   id_col="fid", weight_col=None)
    encode_dataset(rd.from_arrow(dims), d_dir, key_col="d_region",
                   id_col="d_tier", weight_col=None)

    from arcade_ray.collect import collect_arrow
    got = collect_arrow(broadcast_join(
        f_dir, d_dir, probe_key=["region", "tier"],
        build_key=["d_region", "d_tier"],
        probe_cols=["fid", "region", "tier"], build_cols=["rate"],
    )).to_pandas().sort_values("fid", ignore_index=True)

    exp = facts.to_pandas().merge(
        dims.to_pandas(), left_on=["region", "tier"],
        right_on=["d_region", "d_tier"])[
        ["fid", "region", "tier", "rate"]].sort_values(
        "fid", ignore_index=True)
    assert got[["fid", "region", "tier", "rate"]].equals(exp)

    left = collect_arrow(broadcast_join(
        f_dir, d_dir, probe_key=["region", "tier"],
        build_key=["d_region", "d_tier"],
        probe_cols=["fid"], build_cols=["rate"], how="left"))
    assert left.num_rows == n  # tier 3 rows survive with null rate
    assert left["rate"].null_count > 0

    # non-unique composite build keys must raise
    dup = pa.concat_tables([dims, dims.slice(0, 1)])
    d2 = str(base / "d2")
    encode_dataset(rd.from_arrow(dup), d2, key_col="d_region",
                   id_col="d_tier", weight_col=None)
    with pytest.raises(ValueError, match="not unique"):
        broadcast_join(f_dir, d2, probe_key=["region", "tier"],
                       build_key=["d_region", "d_tier"],
                       probe_cols=["fid"], build_cols=["rate"])


def test_semi_join_large_bloom(two_tables, ray_session):
    """Bloom-prefiltered EXACT semi/anti join: results identical to the
    broadcast set path (false positives are settled by the
    co-partitioned verify, never returned)."""
    import ray.data as rd

    from arcade_ray.pipeline.join import semi_join, semi_join_large

    o_dir, c_dir, orders, cust = two_tables
    keys_tbl = pa.table({"k": cust.filter(
        pc.equal(cust["c_seg"], "seg-1"))["c_custkey"]})
    keys_ds = rd.from_arrow(keys_tbl).repartition(4)

    exact = collect_arrow(semi_join(
        o_dir, "o_custkey", ["o_orderkey"], keys_tbl["k"]))
    got = collect_arrow(semi_join_large(
        o_dir, "o_custkey", ["o_orderkey"], keys_ds, bits_per_key=12))
    assert sorted(got["o_orderkey"].to_pylist()) == \
        sorted(exact["o_orderkey"].to_pylist())

    exact_a = collect_arrow(semi_join(
        o_dir, "o_custkey", ["o_orderkey"], keys_tbl["k"], anti=True))
    got_a = collect_arrow(semi_join_large(
        o_dir, "o_custkey", ["o_orderkey"], keys_ds, anti=True))
    assert sorted(got_a["o_orderkey"].to_pylist()) == \
        sorted(exact_a["o_orderkey"].to_pylist())
    assert got.num_rows + got_a.num_rows == orders.num_rows


def test_semi_join_large_bloomless_fallback(two_tables, ray_session,
                                            monkeypatch):
    """Past ARCADE_BLOOM_MAX_BYTES the bitmap is never built and every
    non-null probe row settles in the exact co-partitioned verify —
    output identical to the bloom path, no multi-GB broadcast."""
    import ray.data as rd

    from arcade_ray.pipeline.join import semi_join, semi_join_large

    o_dir, c_dir, orders, cust = two_tables
    keys_tbl = pa.table({"k": cust.filter(
        pc.equal(cust["c_seg"], "seg-1"))["c_custkey"]})
    keys_ds = rd.from_arrow(keys_tbl).repartition(4)
    monkeypatch.setenv("ARCADE_BLOOM_MAX_BYTES", "1")  # force bloomless

    exact = collect_arrow(semi_join(
        o_dir, "o_custkey", ["o_orderkey"], keys_tbl["k"]))
    got = collect_arrow(semi_join_large(
        o_dir, "o_custkey", ["o_orderkey"], keys_ds))
    assert sorted(got["o_orderkey"].to_pylist()) == \
        sorted(exact["o_orderkey"].to_pylist())
    got_a = collect_arrow(semi_join_large(
        o_dir, "o_custkey", ["o_orderkey"], keys_ds, anti=True))
    assert got.num_rows + got_a.num_rows == orders.num_rows


def test_semi_join_large_anti_nulls(ray_session, tmp_path):
    """ANTI over a null-bearing probe key keeps NOT EXISTS semantics:
    null-key rows survive, and the verify hash stage must never see
    them (they are settled by the prefilter). SEMI never matches
    nulls. Regression for the r3 hash_column no-nulls crash."""
    import ray.data as rd

    from arcade_ray.pipeline.join import semi_join_large

    probe = pa.table({
        "pid": pa.array(np.arange(300), type=pa.int64()),
        "k": pa.array([None if i % 7 == 0 else i % 50
                       for i in range(300)], type=pa.int64()),
        "grp": pa.array([f"g{i % 3}" for i in range(300)]),
    })
    p_dir = str(tmp_path / "probe")
    encode_dataset(rd.from_arrow(probe), p_dir, key_col="grp",
                   id_col="pid", weight_col=None)
    keys_ds = rd.from_arrow(pa.table(
        {"k": pa.array(range(0, 50, 2), type=pa.int64())}))

    pids, ks = probe["pid"].to_pylist(), probe["k"].to_pylist()
    got_a = collect_arrow(semi_join_large(
        p_dir, "k", ["pid"], keys_ds, anti=True))
    exp_a = sorted(p for p, k in zip(pids, ks)
                   if k is None or k % 2 == 1)
    assert sorted(got_a["pid"].to_pylist()) == exp_a

    got_s = collect_arrow(semi_join_large(p_dir, "k", ["pid"], keys_ds))
    exp_s = sorted(p for p, k in zip(pids, ks)
                   if k is not None and k % 2 == 0)
    assert sorted(got_s["pid"].to_pylist()) == exp_s


def ray_data_join(left_dir: str, right_dir: str, left_key: str,
                  right_key: str, left_cols: list[str],
                  right_cols: list[str]):
    """Reference large-large inner join: decoded scans of both encoded
    dirs into Ray Data's hash-partitioned ``Dataset.join``."""
    import ray

    from arcade_ray.pipeline.query import scan

    lds = scan(left_dir, columns=list(dict.fromkeys(left_cols + [left_key])))
    rds = scan(right_dir,
               columns=list(dict.fromkeys(right_cols + [right_key])))
    out = lds.join(
        rds, join_type="inner",
        num_partitions=max(8, int(ray.cluster_resources().get("CPU", 8))),
        on=(left_key,), right_on=(right_key,))
    keep = list(dict.fromkeys(left_cols + right_cols))
    return out.map_batches(lambda b: b.select(keep), batch_format="pyarrow")


def test_shuffle_join_aliases_copartition(two_tables):
    """shuffle_join is an alias for copartition_join; it must produce
    the identical multiset to the Ray Data sort-shuffle reference."""
    from arcade_ray.pipeline.join import shuffle_join

    o_dir, c_dir, orders, cust = two_tables
    kw = dict(left_key="o_custkey", right_key="c_custkey",
              left_cols=["o_orderkey"], right_cols=["c_seg"])
    fast = collect_arrow(shuffle_join(o_dir, c_dir, **kw))
    ref = collect_arrow(ray_data_join(o_dir, c_dir, **kw))

    def key(t):
        return sorted(zip(t["o_orderkey"].to_pylist(),
                          t["c_seg"].to_pylist()))

    assert key(fast) == key(ref)


def test_copartition_join_disk_parity(two_tables, sink):
    """Disk-staged copartition_join (Arrow-IPC shuffle files, bounded
    in-flight splits) must produce the identical multiset to objects
    mode, for inner and full outer joins."""
    from arcade_ray.pipeline.join import copartition_join

    o_dir, c_dir, orders, cust = two_tables
    kw = dict(left_key="o_custkey", right_key="c_custkey",
              left_cols=["o_orderkey", "o_custkey"], right_cols=["c_seg"])

    def key(t):
        return sorted(zip(t["o_orderkey"].to_pylist(),
                          [v if v is not None else -1
                           for v in t["o_custkey"].to_pylist()],
                          [v or "" for v in t["c_seg"].to_pylist()]))

    for jt in ("inner", "full"):
        obj_tags = sink("objects")
        obj = collect_arrow(copartition_join(
            o_dir, c_dir, join_type=jt, **kw))
        assert not obj_tags
        tags = sink("disk")
        dsk = collect_arrow(copartition_join(
            o_dir, c_dir, join_type=jt, **kw))
        assert tags == ["joinL", "joinR"], tags
        assert obj.schema == dsk.schema
        assert key(obj) == key(dsk), jt


@pytest.fixture(scope="module")
def empty_encoded(ray_session, tmp_path_factory):
    """A valid encoded dir with ZERO committed partitions (empty input
    shard) — schema sidecar only."""
    import ray.data as rd

    base = tmp_path_factory.mktemp("emptyenc")
    t = pa.table({
        "o_orderkey": pa.array([], type=pa.int64()),
        "o_custkey": pa.array([], type=pa.int64()),
        "o_flag": pa.array([], type=pa.string()),
        "o_total": pa.array([], type=pa.int64()),
    })
    d = str(base / "enc")
    encode_dataset(rd.from_arrow(t), d, key_col="o_flag",
                   id_col="o_orderkey", weight_col=None)
    return d


def test_joins_over_empty_encoded_side(two_tables, empty_encoded):
    """r4 review finding: zero-partition encoded dirs crashed
    semi_join_large (IndexError on rows[0]) while scan() returned a
    typed empty. All join entry points now resolve empty sides without
    an exchange."""
    from arcade_ray.pipeline.join import (copartition_join, semi_join,
                                          semi_join_large)

    o_dir, c_dir, orders, cust = two_tables

    # semi/anti of an empty probe -> typed empty with probe_cols
    import ray.data as rd

    keys = cust["c_custkey"]
    keys_ds = rd.from_arrow(pa.table({"c_custkey": keys}))
    for fn, ks in ((semi_join, keys), (semi_join_large, keys_ds)):
        for anti in (False, True):
            out = collect_arrow(fn(
                empty_encoded, "o_custkey", ["o_orderkey", "o_total"],
                ks, anti=anti))
            assert out.num_rows == 0
            assert out.column_names == ["o_orderkey", "o_total"]

    # copartition inner with an empty side -> typed empty, both ways
    out = collect_arrow(copartition_join(
        empty_encoded, c_dir, "o_custkey", "c_custkey",
        ["o_orderkey"], ["c_seg"]))
    assert out.num_rows == 0 and out.column_names == ["o_orderkey", "c_seg"]
    out = collect_arrow(copartition_join(
        o_dir, empty_encoded, "o_custkey", "o_custkey",
        ["o_orderkey"], ["o_total"], join_type="inner"))
    assert out.num_rows == 0

    # left outer with empty RIGHT -> every left row, right cols null
    out = collect_arrow(copartition_join(
        o_dir, empty_encoded, "o_custkey", "o_custkey",
        ["o_orderkey", "o_flag"], ["o_total"], join_type="left"))
    assert out.num_rows == orders.num_rows
    assert out.column_names == ["o_orderkey", "o_flag", "o_total"]
    assert out["o_total"].null_count == orders.num_rows

    # left outer with empty LEFT -> typed empty
    out = collect_arrow(copartition_join(
        empty_encoded, c_dir, "o_custkey", "c_custkey",
        ["o_orderkey"], ["c_seg"], join_type="left"))
    assert out.num_rows == 0


# dataset_join: the N-way chain step ---------------------------------

@pytest.fixture(scope="module")
def seg_table(ray_session, tmp_path_factory):
    import ray.data as rd

    base = tmp_path_factory.mktemp("seginfo")
    seg = pa.table({
        "s_seg": pa.array([f"seg-{i}" for i in range(5)]),
        "s_region": pa.array(["r-east", "r-west", "r-east", "r-north",
                              "r-west"]),
    })
    s_dir = str(base / "seg")
    encode_dataset(rd.from_arrow(seg), s_dir, key_col="s_region",
                   id_col="s_seg", weight_col=None)
    return s_dir, seg


def _three_way_expected(orders, cust, seg, how2="inner"):
    j1 = orders.to_pandas().merge(cust.to_pandas(), left_on="o_custkey",
                                  right_on="c_custkey")
    return j1.merge(seg.to_pandas(), left_on="c_seg", right_on="s_seg",
                    how=how2)


def _canon(t: pa.Table, keys):
    return t.to_pandas().sort_values(keys).reset_index(drop=True)


def test_dataset_join_three_way_broadcast(two_tables, seg_table):
    from arcade_ray.pipeline.join import copartition_join, dataset_join

    o_dir, c_dir, orders, cust = two_tables
    s_dir, seg = seg_table
    stream = copartition_join(o_dir, c_dir, "o_custkey", "c_custkey",
                              ["o_orderkey", "o_total"], ["c_seg"])
    out = collect_arrow(dataset_join(
        stream, s_dir, "c_seg", "s_seg",
        ["o_orderkey", "o_total", "c_seg"], ["s_region"],
        strategy="broadcast"))
    exp = _three_way_expected(orders, cust, seg)[
        ["o_orderkey", "o_total", "c_seg", "s_region"]]
    assert out.num_rows == len(exp)
    assert _canon(out, ["o_orderkey"]).equals(
        _canon(pa.Table.from_pandas(exp), ["o_orderkey"]))


def test_dataset_join_copartition_parity(two_tables, seg_table, sink):
    from arcade_ray.pipeline.join import copartition_join, dataset_join

    o_dir, c_dir, orders, cust = two_tables
    s_dir, seg = seg_table

    def run(strategy):
        stream = copartition_join(o_dir, c_dir, "o_custkey", "c_custkey",
                                  ["o_orderkey"], ["c_seg"])
        return _canon(collect_arrow(dataset_join(
            stream, s_dir, "c_seg", "s_seg",
            ["o_orderkey", "c_seg"], ["s_region"],
            strategy=strategy)), ["o_orderkey"])

    a = run("broadcast")
    obj_tags = sink("objects")
    b = run("copartition")
    assert not obj_tags
    tags = sink("disk")
    c = run("copartition")
    assert tags.count("joinL") == tags.count("joinR") == 2, tags
    assert a.equals(b) and b.equals(c)


def test_dataset_join_left_outer(two_tables, seg_table, ray_session):
    import ray.data as rd

    from arcade_ray.pipeline.join import dataset_join

    _, _, orders, _ = two_tables
    s_dir, seg = seg_table
    # stream rows whose key misses the right side survive with nulls
    stream = rd.from_arrow(pa.table({
        "k": pa.array(["seg-0", "seg-1", "nope"]),
        "v": pa.array([1, 2, 3], type=pa.int64()),
    }))
    out = collect_arrow(dataset_join(
        stream, s_dir, "k", "s_seg", ["k", "v"], ["s_region"],
        join_type="left"))
    got = _canon(out, ["v"])
    assert got["s_region"].tolist() == ["r-east", "r-west", None]


def test_dataset_join_right_outer(two_tables, seg_table, ray_session):
    import ray.data as rd

    from arcade_ray.pipeline.join import dataset_join

    s_dir, seg = seg_table
    stream = rd.from_arrow(pa.table({
        "k": pa.array(["seg-0", "seg-0"]),
        "v": pa.array([1, 2], type=pa.int64()),
    }))
    out = collect_arrow(dataset_join(
        stream, s_dir, "k", "s_seg", ["v"], ["s_seg", "s_region"],
        join_type="right"))
    # seg-0 matched twice; the other four segments survive unmatched
    assert out.num_rows == 6
    assert out.filter(pc.is_null(out["v"])).num_rows == 4


def test_dataset_join_mem_right_side(two_tables, ray_session):
    import ray.data as rd

    from arcade_ray.pipeline.join import dataset_join

    mem = pa.table({
        "m_seg": pa.array([f"seg-{i}" for i in range(5)]),
        "m_rank": pa.array(list(range(5)), type=pa.int64()),
    })
    stream = rd.from_arrow(pa.table({
        "c_seg": pa.array(["seg-3", "seg-1"]),
        "c_id": pa.array([10, 11], type=pa.int64()),
    }))
    out = collect_arrow(dataset_join(
        stream, mem, "c_seg", "m_seg", ["c_id", "c_seg"], ["m_rank"]))
    got = _canon(out, ["c_id"])
    assert got["m_rank"].tolist() == [3, 1]
    # mem side through the copartition path agrees
    out2 = collect_arrow(dataset_join(
        rd.from_arrow(pa.table({
            "c_seg": pa.array(["seg-3", "seg-1"]),
            "c_id": pa.array([10, 11], type=pa.int64()),
        })), mem, "c_seg", "m_seg", ["c_id", "c_seg"], ["m_rank"],
        strategy="copartition"))
    assert _canon(out2, ["c_id"]).equals(got)


def test_dataset_join_multikey(ray_session, tmp_path):
    import ray.data as rd

    from arcade_ray.pipeline import encode_dataset as enc
    from arcade_ray.pipeline.join import dataset_join

    rng = np.random.default_rng(5)
    right = pa.table({
        "r_a": pa.array(rng.integers(0, 4, 50), type=pa.int64()),
        "r_b": pa.array([f"b{v}" for v in rng.integers(0, 3, 50)]),
        "r_id": pa.array(np.arange(50), type=pa.int64()),
    })
    r_dir = str(tmp_path / "mk")
    enc(rd.from_arrow(right), r_dir, key_col="r_b", id_col="r_id",
        weight_col=None)
    left = pa.table({
        "l_a": pa.array(rng.integers(0, 4, 40), type=pa.int64()),
        "l_b": pa.array([f"b{v}" for v in rng.integers(0, 3, 40)]),
        "l_id": pa.array(np.arange(40), type=pa.int64()),
    })
    exp = left.to_pandas().merge(
        right.to_pandas(), left_on=["l_a", "l_b"],
        right_on=["r_a", "r_b"])[["l_id", "r_id"]] \
        .sort_values(["l_id", "r_id"]).reset_index(drop=True)
    for strategy in ("broadcast", "copartition"):
        out = collect_arrow(dataset_join(
            rd.from_arrow(left), r_dir, ["l_a", "l_b"], ["r_a", "r_b"],
            ["l_id"], ["r_id"], strategy=strategy))
        got = _canon(out.select(["l_id", "r_id"]), ["l_id", "r_id"])
        assert got.equals(exp), strategy


def test_dataset_join_empty_left(two_tables, seg_table, ray_session):
    import ray.data as rd

    from arcade_ray.pipeline.join import dataset_join

    s_dir, _ = seg_table
    empty = rd.from_arrow(pa.table({
        "k": pa.array([], type=pa.string()),
        "v": pa.array([], type=pa.int64()),
    }))
    out = collect_arrow(dataset_join(
        empty, s_dir, "k", "s_seg", ["k", "v"], ["s_region"],
        left_types={"k": pa.string(), "v": pa.int64()}))
    assert out.num_rows == 0
    assert out.column_names == ["k", "v", "s_region"]
    assert out.schema.field("v").type == pa.int64()
    out2 = collect_arrow(dataset_join(
        empty, s_dir, "k", "s_seg", ["v"], ["s_seg", "s_region"],
        join_type="right"))
    assert out2.num_rows == 5  # every seg row survives unmatched


def test_dataset_join_rejects_ambiguous_cols(two_tables, seg_table,
                                             ray_session):
    import ray.data as rd

    from arcade_ray.pipeline.join import dataset_join

    s_dir, _ = seg_table
    stream = rd.from_arrow(pa.table({"s_region": pa.array(["x"]),
                                     "k": pa.array(["seg-0"])}))
    with pytest.raises(ValueError, match="ambiguous"):
        dataset_join(stream, s_dir, "k", "s_seg",
                     ["k", "s_region"], ["s_region"])


def test_dataset_join_null_keys_copartition(two_tables, seg_table,
                                            ray_session):
    """Outer joins earlier in a chain produce NULL join keys; the
    copartition exchange must bucket them null-safely (review
    regression: hash_column's no-nulls guard crashed the split)."""
    import ray.data as rd

    from arcade_ray.pipeline.join import dataset_join

    s_dir, seg = seg_table
    stream = rd.from_arrow(pa.table({
        "k": pa.array(["seg-0", None, "seg-1", None]),
        "v": pa.array([1, 2, 3, 4], type=pa.int64()),
    }))
    for strategy in ("broadcast", "copartition"):
        out = collect_arrow(dataset_join(
            rd.from_arrow(pa.table({
                "k": pa.array(["seg-0", None, "seg-1", None]),
                "v": pa.array([1, 2, 3, 4], type=pa.int64()),
            })), s_dir, "k", "s_seg", ["k", "v"], ["s_region"],
            join_type="left", strategy=strategy))
        got = _canon(out, ["v"])
        # null keys never match but SURVIVE the left join
        assert got["s_region"].tolist() == ["r-east", None, "r-west",
                                            None], strategy
    # right outer with null-keyed stream rows: they vanish (no match),
    # unmatched right rows null-extend
    out = collect_arrow(dataset_join(
        stream, s_dir, "k", "s_seg", ["v"], ["s_seg", "s_region"],
        join_type="right"))
    assert out.filter(pc.is_null(out["v"])).num_rows == 3  # seg-2/3/4
    assert out.num_rows == 5
