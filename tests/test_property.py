"""Property-based codec round trips (hypothesis; SURVEY.md §5.2 item 1).

Every generated input must round-trip bit-identically through every
applicable codec AND through the cost-model-selected one, including the
reference's dictionary-width bug zones."""

import numpy as np
import pyarrow as pa
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from arcade_ray.codecs.fsst import compress, decompress
from arcade_ray.codecs.int_codecs import INT_CODECS, choose_int_codec, decode_int
from arcade_ray.codecs.str_codecs import choose_str_codec, decode_str
from arcade_ray.profile import profile_int, profile_str
from arcade_ray.streams import (
    int_stream_from_arrow,
    int_stream_to_arrow,
    str_stream_from_arrow,
    str_stream_to_arrow,
)

SETTINGS = dict(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


int_lists = st.lists(
    st.integers(min_value=-(2**63), max_value=2**63 - 1), max_size=300
)
small_int_lists = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=10),
        st.integers(min_value=-5, max_value=2**31 - 1),
        st.just(42),
    ),
    max_size=500,
)


@given(vals=st.one_of(int_lists, small_int_lists))
@settings(**SETTINGS)
def test_int_cost_model_roundtrip(vals):
    arr = np.array(vals, dtype=np.int64)
    p = profile_int(arr)
    name, payload, meta = choose_int_codec(arr, p, "i64")
    out = decode_int(name, payload, meta, len(arr))
    np.testing.assert_array_equal(out, arr)


@given(vals=small_int_lists)
@settings(**SETTINGS)
def test_int_every_codec_roundtrip(vals):
    arr = np.array(vals, dtype=np.int64)
    p = profile_int(arr)
    for name, (est, enc, dec) in INT_CODECS.items():
        if name == "alp":
            continue  # float-tag only (raises on int streams); see
            # test_property_alp_roundtrip below
        if len(arr) == 0 and name in ("gp", "dict"):
            continue
        if name == "bitpack" and len(arr) and arr.min() < 0:
            continue
        payload, meta = enc(arr, p, "i64")
        np.testing.assert_array_equal(dec(payload, meta, len(arr)), arr)


str_lists = st.lists(st.text(max_size=60), max_size=200)


@given(vals=str_lists)
@settings(**SETTINGS)
def test_str_cost_model_roundtrip(vals):
    arr = pa.array(vals, type=pa.string())
    lengths, data, _ = str_stream_from_arrow(arr)
    name, payload, meta = choose_str_codec(lengths, data)
    out_l, out_d = decode_str(name, payload, meta, len(lengths))
    assert str_stream_to_arrow(out_l, out_d, "str").to_pylist() == vals


@given(data=st.binary(max_size=5000))
@settings(**SETTINGS)
def test_fsst_roundtrip(data):
    tbl, enc = compress(data)
    assert decompress(tbl, enc) == data


@given(vals=st.lists(st.floats(allow_nan=True, allow_infinity=True,
                               width=64), max_size=200))
@settings(**SETTINGS)
def test_float_bitexact_roundtrip(vals):
    """Floats travel as IEEE bit patterns — NaN payloads and -0.0 must
    survive exactly."""
    arr = pa.array(np.array(vals, dtype=np.float64), type=pa.float64())
    ints, tag = int_stream_from_arrow(arr)
    p = profile_int(ints)
    name, payload, meta = choose_int_codec(ints, p, tag)
    out = int_stream_to_arrow(decode_int(name, payload, meta, len(ints)), tag)
    a = np.asarray(out, dtype=np.float64).view(np.uint64)
    b = np.asarray(arr, dtype=np.float64).view(np.uint64)
    np.testing.assert_array_equal(a, b)


@given(rows=st.lists(
    st.tuples(st.text(min_size=1, max_size=20),
              st.lists(st.integers(0, 2**31 - 1), max_size=50),
              st.sampled_from(["a", "b", "c"])),
    max_size=60,
))
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_partition_roundtrip_property(rows, tmp_path_factory):
    """Whole-partition encode/decode on arbitrary corpus-shaped rows."""
    from arcade_ray.format import decode_partition, encode_partition

    doc_ids = [f"{i:04d}-{r[0]}" for i, r in enumerate(rows)]
    table = pa.table({
        "doc_id": pa.array(doc_ids, type=pa.string()),
        "tokens": pa.array([r[1] for r in rows], type=pa.list_(pa.int32())),
        "n_tok": pa.array([len(r[1]) for r in rows], type=pa.int32()),
        "source": pa.array([r[2] for r in rows], type=pa.string()),
    })
    blob, _ = encode_partition(table, "prop")
    tmp = tmp_path_factory.mktemp("prop") / "p.arcr"
    with open(tmp, "wb") as f:
        f.write(blob)
    out = decode_partition(str(tmp))
    for name in table.schema.names:
        assert out[name].combine_chunks().equals(table[name].combine_chunks()), name


def test_compound_predicate_fuzz_vs_pandas(ray_session, tmp_path_factory):
    """Randomized differential test: 40 random AND/OR/NOT predicate
    trees over every leaf kind (eq/between/in/prefix/suffix/contains/
    regex) evaluated on ENCODED data vs a pandas recompute on the raw
    table. Catches interaction bugs between zone pruning, code-domain
    evaluation and set algebra that single-shape tests miss."""
    import re as _re

    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from arcade_ray.collect import collect_arrow
    from arcade_ray.corpus import generate_corpus
    from arcade_ray.pipeline import encode_dataset
    from arcade_ray.pipeline.query import compound_filter

    table = generate_corpus(6000, 5, seed=87)
    out_dir = str(tmp_path_factory.mktemp("fuzz") / "enc")
    encode_dataset(rd.from_arrow(table), out_dir, weight_cap=150_000)
    df = table.to_pandas()
    rng = np.random.default_rng(99)
    sources = sorted(df["source"].unique())

    def rand_leaf():
        kind = rng.choice(["eq_s", "eq_i", "between", "in", "prefix",
                           "suffix", "contains", "regex"])
        if kind == "eq_s":
            v = str(rng.choice(sources))
            return ("eq", "source", v), df["source"] == v
        if kind == "eq_i":
            v = int(rng.integers(1, 400))
            return ("eq", "n_tok", v), df["n_tok"] == v
        if kind == "between":
            lo = int(rng.integers(0, 300))
            hi = lo + int(rng.integers(0, 300))
            return (("between", "n_tok", lo, hi),
                    (df["n_tok"] >= lo) & (df["n_tok"] <= hi))
        if kind == "in":
            vs = [str(s) for s in
                  rng.choice(sources, size=2, replace=False)]
            return ("in", "source", vs), df["source"].isin(vs)
        if kind == "prefix":
            p = "src-00" + str(rng.integers(0, 5))
            return ("prefix", "source", p), df["source"].str.startswith(p)
        if kind == "suffix":
            s = str(rng.integers(0, 5))
            return ("suffix", "source", s), df["source"].str.endswith(s)
        if kind == "contains":
            n = "0" + str(rng.integers(0, 5))
            return ("contains", "source", n), df["source"].str.contains(
                n, regex=False)
        pat = f"src-0[0-{rng.integers(0, 5)}]"
        return (("regex", "source", pat),
                df["source"].map(lambda v: bool(_re.search(pat, v))))

    def rand_tree(depth):
        if depth == 0 or rng.random() < 0.4:
            return rand_leaf()
        op = rng.choice(["and", "or", "not"])
        if op == "not":
            child, mask = rand_tree(depth - 1)
            return ("not", child), ~mask
        n = int(rng.integers(2, 4))
        kids = [rand_tree(depth - 1) for _ in range(n)]
        trees = [k[0] for k in kids]
        masks = [k[1] for k in kids]
        agg = masks[0]
        for m in masks[1:]:
            agg = (agg & m) if op == "and" else (agg | m)
        return (op, trees), agg

    for trial in range(40):
        tree, mask = rand_tree(2)
        got = collect_arrow(compound_filter(out_dir, tree,
                                            project=["doc_id"]))
        exp = sorted(df.loc[mask, "doc_id"])
        assert sorted(got["doc_id"].to_pylist()) == exp, (trial, tree)


def test_group_aggregate_null_fuzz(ray_session, tmp_path_factory):
    """Randomized differential test for null-aware decode-free grouped
    aggregates: 4 random (null density, group cardinality, partition
    cap) configurations vs a pandas recompute with SQL semantics."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from arcade_ray.pipeline import encode_dataset
    from arcade_ray.pipeline.query import dict_group_aggregate

    rng = np.random.default_rng(55)
    base = tmp_path_factory.mktemp("aggfuzz")
    for trial in range(4):
        n = int(rng.integers(500, 2500))
        n_groups = int(rng.integers(2, 12))
        kn = float(rng.uniform(0, 0.3))    # null density in keys
        vn = float(rng.uniform(0, 0.4))    # null density in values
        keys = [None if rng.random() < kn else f"g{int(g)}"
                for g in rng.integers(0, n_groups, n)]
        vals = [None if rng.random() < vn else int(v)
                for v in rng.integers(-1000, 1000, n)]
        t = pa.table({
            "doc_id": pa.array(np.arange(n), type=pa.int64()),
            "k": pa.array(keys, type=pa.string()),
            "v": pa.array(vals, type=pa.int64()),
        })
        out_dir = str(base / f"enc{trial}")
        encode_dataset(rd.from_arrow(t), out_dir, key_col="doc_id",
                       weight_col=None,
                       weight_cap=int(rng.integers(50_000, 400_000)))
        got = dict_group_aggregate(out_dir, "k", "v").to_pandas()
        df = t.to_pandas()
        exp = df.groupby("k", dropna=False).agg(
            sum_v=("v", "sum"), min_v=("v", "min"), max_v=("v", "max"),
            n_rows=("v", "size"))
        assert len(got) == len(exp), trial
        for _, row in got.iterrows():
            k = row["k"]
            e = exp.loc[k if k is not None else np.nan]
            assert row["n_rows"] == e["n_rows"], (trial, k)
            if np.isnan(e["min_v"]):  # all-null group
                assert row["sum_v"] is None or np.isnan(row["sum_v"])
            else:
                assert row["sum_v"] == e["sum_v"], (trial, k)
                assert row["min_v"] == e["min_v"], (trial, k)
                assert row["max_v"] == e["max_v"], (trial, k)


def test_topk_rows_fuzz(ray_session, tmp_path_factory):
    """Randomized pagination: random (k, offset, direction) against
    DuckDB, on an int64 column with extremes near INT64 bounds (the
    overflow-safe descending key) and a float column with NaN, -NaN,
    -0.0 and NULL (NaN ranks above +inf, -0.0 ties with 0.0)."""
    import duckdb
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from arcade_ray.pipeline import encode_dataset
    from arcade_ray.pipeline.query import topk_rows

    rng = np.random.default_rng(66)
    n = 3000
    vals = rng.integers(-(2**62), 2**62, n)
    vals[:5] = [-(2**63), 2**63 - 1, 0, -1, 1]  # boundary values
    neg_nan = np.array([0xFFF8000000000000], np.uint64).view(np.float64)[0]
    f = rng.choice([-np.inf, -2.5, -0.0, 0.0, 1.0, np.inf, np.nan, neg_nan],
                   n)
    t = pa.table({
        "doc_id": pa.array(np.arange(n), type=pa.int64()),
        "grp": pa.array([f"g{i % 3}" for i in range(n)]),
        "v": pa.array(vals, type=pa.int64()),
        "f": pa.array(f, type=pa.float64(), mask=rng.random(n) < 0.1),
    })
    out_dir = str(tmp_path_factory.mktemp("topkfuzz") / "enc")
    encode_dataset(rd.from_arrow(t), out_dir, key_col="grp",
                   weight_col=None)
    con = duckdb.connect()
    con.register("t", t)
    for trial in range(12):
        col = ("v", "f")[trial % 2]
        k = int(rng.integers(1, 40))
        off = int(rng.integers(0, 60 if col == "v" else n))
        desc = bool(rng.integers(0, 2))
        got = topk_rows(out_dir, col, k, id_col="doc_id",
                        columns=["doc_id", col], descending=desc,
                        offset=off)
        exp = con.execute(
            f"SELECT doc_id FROM t ORDER BY {col} "
            f"{'DESC' if desc else 'ASC'}, doc_id LIMIT {k} OFFSET {off}"
        ).fetchall()
        assert got["doc_id"].to_pylist() == [r[0] for r in exp], \
            (trial, col, k, off, desc)


float_lists = st.lists(
    st.one_of(
        # decimal-scaled (the ALP target): value/100 with 2 decimals
        st.integers(min_value=-(10**7), max_value=10**7).map(lambda i: i / 100),
        st.floats(allow_nan=True, allow_infinity=True, width=64),
        st.just(-0.0),
        st.just(0.015625),  # exactly representable binary fraction
    ),
    max_size=400,
)


@given(vals=float_lists)
@settings(**SETTINGS)
def test_property_alp_roundtrip(vals):
    """Whatever the cost model picks for a float64 stream (alp or not),
    the bit patterns round-trip exactly — incl. NaN payloads, ±inf,
    -0.0 and mixed real/decimal content."""
    arr = pa.array(vals, type=pa.float64())
    ints, tag = int_stream_from_arrow(arr)
    p = profile_int(ints)
    name, payload, meta = choose_int_codec(ints, p, tag)
    out = decode_int(name, payload, meta, len(ints))
    np.testing.assert_array_equal(out, ints)


def _weighted_rows(values):
    """(k1, k2, value, weight) rows: NULL keys, NULL values and
    repeated (key, value) pairs, as partials from several batches
    produce them."""
    return st.lists(st.tuples(st.sampled_from([None, "a", "b", "c"]),
                              st.sampled_from([None, 0, 1]),
                              st.one_of(st.none(), values),
                              st.integers(min_value=1, max_value=3)),
                    max_size=60)


def _check_weighted_quantiles(rows, two_keys, vtype):
    """weighted_quantiles equals DuckDB quantile_disc / quantile_cont
    over the rows each weight expands to, per group."""
    import duckdb

    from arcade_ray.pipeline.query import weighted_quantiles

    rows = rows + [("void", 0, None, 2)]  # a group with only NULL values
    k1, k2, v, w = map(list, zip(*rows))
    t = pa.table({"k1": pa.array(k1, pa.string()),
                  "k2": pa.array(k2, pa.int64()),
                  "v": pa.array(v, vtype),
                  "w": pa.array(w, pa.int64())})
    keys = ["k1", "k2"] if two_keys else ["k1"]
    ps = [0.0, 0.5, 1.0]
    qs = [(p, disc) for disc in (True, False) for p in ps]
    groups, vals = weighted_quantiles(t, keys, "v", "w", qs)
    got = {tuple(g.values()): tuple(a[i].as_py() for a in vals)
           for i, g in enumerate(groups.to_pylist())}
    flat = t.take(pa.array(np.repeat(np.arange(t.num_rows), w),
                           type=pa.int64()))
    con = duckdb.connect()
    con.register("flat", flat)
    aggs = ", ".join(f"quantile_{'disc' if disc else 'cont'}(v, {p})"
                     for p, disc in qs)
    kl = ", ".join(keys)
    want = {tuple(r[:len(keys)]): tuple(r[len(keys):]) for r in con.execute(
        f"SELECT {kl}, {aggs} FROM flat GROUP BY {kl}").fetchall()}
    assert got.keys() == want.keys()
    for key, row in want.items():
        for a, b in zip(got[key], row):
            assert a == b or (a != a and b != b), (key, got[key], row)


@given(rows=_weighted_rows(st.one_of(
           st.integers(min_value=-(2**63), max_value=2**63 - 1),
           st.sampled_from([-(2**63), -1, 0, 7, 2**63 - 1]))),
       two_keys=st.booleans())
@settings(**SETTINGS)
def test_property_weighted_quantiles_int64(rows, two_keys):
    _check_weighted_quantiles(rows, two_keys, pa.int64())


# no NaN: DuckDB's quantiles over NaN depend on the input order (the
# median of [nan, 1, 2, 3, 4] is NaN, of [1, nan, 2, 3, 4] is 3.0), so
# they have no order to agree with
@given(rows=_weighted_rows(st.one_of(
           st.floats(allow_nan=False, allow_infinity=True, width=64),
           st.sampled_from([-1.5, 0.0, 0.1, 2.0]))),
       two_keys=st.booleans())
@settings(**SETTINGS)
def test_property_weighted_quantiles_float(rows, two_keys):
    _check_weighted_quantiles(rows, two_keys, pa.float64())
