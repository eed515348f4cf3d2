"""End-to-end Ray pipeline: encode -> decode -> bit-identical verify
(SURVEY.md §5.2 item 3), skew-aware planning, and resume from the
partition checkpoint (§5.2 item 6)."""

import glob
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from arcade_ray.corpus import generate_corpus
from arcade_ray.pipeline import decode_dataset, encode_dataset, load_manifest


@pytest.fixture(scope="module")
def corpus_parquet(tmp_path_factory):
    import pyarrow.parquet as pq

    path = tmp_path_factory.mktemp("corpus") / "corpus.parquet"
    pq.write_table(generate_corpus(20_000, 8, seed=42), str(path))
    return str(path)


def sorted_by_doc(table: pa.Table) -> pa.Table:
    return table.take(pc.sort_indices(table["doc_id"]))


def assert_tables_equal(a: pa.Table, b: pa.Table):
    a, b = sorted_by_doc(a), sorted_by_doc(b)
    assert a.num_rows == b.num_rows
    for name in a.column_names:
        ca = a[name].combine_chunks()
        cb = b[name].combine_chunks().cast(ca.type)
        assert ca.equals(cb), f"column {name} differs"


def test_encode_decode_roundtrip(ray_session, corpus_parquet, tmp_path):
    import ray.data as rd

    out_dir = str(tmp_path / "enc")
    ds = rd.read_parquet(corpus_parquet)
    manifest = encode_dataset(ds, out_dir, weight_cap=500_000)
    assert manifest.num_rows >= 8  # at least one part per source
    # skew fan-out: the zipf-dominant source must be split
    parts = manifest["part_key"].to_pylist()
    assert sum(p.startswith("src-000#") for p in parts) > 1

    # compression actually compresses
    enc = sum(manifest["enc_bytes"].to_pylist())
    raw = sum(manifest["raw_bytes"].to_pylist())
    assert enc < raw * 0.8

    decoded = decode_dataset(out_dir).to_arrow_refs()
    import ray

    out = pa.concat_tables(ray.get(decoded))
    orig = rd.read_parquet(corpus_parquet).to_arrow_refs()
    orig = pa.concat_tables(ray.get(orig))
    assert_tables_equal(out, orig)


def test_resume_skips_committed(ray_session, corpus_parquet, tmp_path):
    """Kill-and-resume semantics: pre-commit some partitions, rerun,
    assert they are not re-encoded and output is identical."""
    import ray.data as rd

    out_dir = str(tmp_path / "enc")
    ds = rd.read_parquet(corpus_parquet)
    manifest1 = encode_dataset(ds, out_dir, weight_cap=500_000)

    # simulate a crash that lost all but 3 partitions
    keep = set(manifest1["part_key"].to_pylist()[:3])
    for row_path in glob.glob(os.path.join(out_dir, "manifest", "*.json")):
        with open(row_path) as f:
            row = json.load(f)
        if row["part_key"] not in keep:
            os.remove(row_path)
            os.remove(row["path"])
    os.remove(os.path.join(out_dir, "manifest.parquet"))

    mtimes_before = {
        p: os.path.getmtime(p) for p in glob.glob(os.path.join(out_dir, "parts", "*.arcr"))
    }
    manifest2 = encode_dataset(ds, out_dir, weight_cap=500_000)
    assert sorted(manifest2["part_key"].to_pylist()) == sorted(
        manifest1["part_key"].to_pylist()
    )
    # surviving partitions were skipped (file untouched)
    for p, t in mtimes_before.items():
        assert os.path.getmtime(p) == t, f"{p} was re-encoded"

    import ray

    out = pa.concat_tables(ray.get(decode_dataset(out_dir).to_arrow_refs()))
    orig = pa.concat_tables(ray.get(rd.read_parquet(corpus_parquet).to_arrow_refs()))
    assert_tables_equal(out, orig)


def test_manifest_lineage_fields(ray_session, corpus_parquet, tmp_path):
    import ray.data as rd

    out_dir = str(tmp_path / "enc")
    encode_dataset(rd.read_parquet(corpus_parquet), out_dir, weight_cap=500_000)
    m = load_manifest(out_dir)
    row = m.to_pylist()[0]
    for field in ("part_key", "path", "rows", "raw_bytes", "enc_bytes",
                  "encode_s", "crc32", "col_stats"):
        assert row[field] is not None
    stats = json.loads(row["col_stats"])
    assert set(stats) == {"doc_id", "tokens", "n_tok", "source"}


def test_bad_column_validation(ray_session, corpus_parquet, tmp_path):
    import pytest as _pytest
    import ray.data as rd

    from arcade_ray.pipeline.encode import encode_parquet

    with _pytest.raises(ValueError, match="not in input schema"):
        encode_parquet(corpus_parquet, str(tmp_path / "x"), key_col="nope")
    with _pytest.raises(ValueError, match="not in input schema"):
        encode_dataset(rd.read_parquet(corpus_parquet), str(tmp_path / "y"),
                       weight_col="missing_col")


def test_generation_append(ray_session, tmp_path):
    """Incremental append: a second batch encodes under a generation
    key namespace (no collision with — or skip by — the first run's
    resume logic); readers see the union; each generation resumes."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from arcade_ray.collect import collect_arrow
    from arcade_ray.corpus import generate_corpus
    from arcade_ray.pipeline import encode_dataset
    from arcade_ray.pipeline.query import scan

    out_dir = str(tmp_path / "enc")
    a = generate_corpus(3000, 4, seed=31)
    encode_dataset(rd.from_arrow(a), out_dir, weight_cap=150_000)

    b = generate_corpus(2000, 4, seed=32)
    b = b.set_column(0, "doc_id", pa.array(
        [f"g2:{v}" for v in b["doc_id"].to_pylist()]))
    m = encode_dataset(rd.from_arrow(b), out_dir, weight_cap=150_000,
                       generation="g2")
    keys = m["part_key"].to_pylist()
    assert any("@g2#" in k for k in keys)

    got = collect_arrow(scan(out_dir, columns=["doc_id"]))
    assert got.num_rows == 5000
    exp = set(a["doc_id"].to_pylist()) | set(b["doc_id"].to_pylist())
    assert set(got["doc_id"].to_pylist()) == exp

    # re-running the SAME generation is a resume no-op (same manifest)
    m2 = encode_dataset(rd.from_arrow(b), out_dir, weight_cap=150_000,
                        generation="g2")
    assert sorted(m2["part_key"].to_pylist()) == sorted(keys)
    assert collect_arrow(scan(out_dir, columns=["doc_id"])).num_rows == 5000

    with pytest.raises(ValueError):
        encode_dataset(rd.from_arrow(b), out_dir, generation="bad#gen")


def test_generation_scoped_scan(ray_session, tmp_path):
    """scan(generation=...) reads exactly one append generation; ""
    selects the base partitions."""
    import pyarrow as pa
    import ray.data as rd

    from arcade_ray.collect import collect_arrow
    from arcade_ray.corpus import generate_corpus
    from arcade_ray.pipeline import encode_dataset
    from arcade_ray.pipeline.query import scan

    out_dir = str(tmp_path / "enc")
    a = generate_corpus(1500, 3, seed=41)
    encode_dataset(rd.from_arrow(a), out_dir, weight_cap=150_000)
    b = generate_corpus(800, 3, seed=42)
    b = b.set_column(0, "doc_id", pa.array(
        [f"gX:{v}" for v in b["doc_id"].to_pylist()]))
    encode_dataset(rd.from_arrow(b), out_dir, weight_cap=150_000,
                   generation="gX")

    base = collect_arrow(scan(out_dir, columns=["doc_id"], generation=""))
    assert set(base["doc_id"].to_pylist()) == set(a["doc_id"].to_pylist())
    gen = collect_arrow(scan(out_dir, columns=["doc_id"], generation="gX"))
    assert set(gen["doc_id"].to_pylist()) == set(b["doc_id"].to_pylist())
    both = collect_arrow(scan(out_dir, columns=["doc_id"]))
    assert both.num_rows == 2300
    with pytest.raises(FileNotFoundError):
        scan(out_dir, generation="nope")


def test_generation_with_at_in_source(ray_session, tmp_path):
    """A source VALUE containing '@' must not shadow generation
    scoping (ADVICE r3): generation is an explicit manifest field, not
    a re-parse of the part_key. Here the base source is 'user@host'
    and a later append uses generation id 'host' — the legacy parser
    would both exclude the base partitions from generation="" and
    misattribute them to 'host'."""
    import ray.data as rd

    from arcade_ray.collect import collect_arrow
    from arcade_ray.pipeline.query import scan

    def tbl(pref: str, n: int) -> pa.Table:
        return pa.table({
            "doc_id": pa.array([f"{pref}:{i}" for i in range(n)]),
            "tokens": pa.array([[i, i + 1] for i in range(n)],
                               type=pa.list_(pa.int32())),
            "n_tok": pa.array([2] * n, type=pa.int32()),
            "source": pa.array(["user@host"] * n),
        })

    out_dir = str(tmp_path / "enc")
    encode_dataset(rd.from_arrow(tbl("base", 120)), out_dir)
    encode_dataset(rd.from_arrow(tbl("app", 60)), out_dir,
                   generation="host")

    base = collect_arrow(scan(out_dir, columns=["doc_id"], generation=""))
    assert set(base["doc_id"].to_pylist()) == {f"base:{i}"
                                               for i in range(120)}
    gen = collect_arrow(scan(out_dir, columns=["doc_id"],
                             generation="host"))
    assert set(gen["doc_id"].to_pylist()) == {f"app:{i}"
                                              for i in range(60)}
    both = collect_arrow(scan(out_dir, columns=["doc_id"]))
    assert both.num_rows == 180


def test_schema_evolution_across_generations(ray_session, tmp_path):
    """A later generation adds a NEW column: the scan merges schemas
    read-time — base rows return typed nulls for the added column,
    projections spanning both generations work, and per-generation
    scans keep their own exact schema."""
    import pyarrow as pa
    import ray.data as rd

    from arcade_ray.collect import collect_arrow
    from arcade_ray.pipeline import encode_dataset
    from arcade_ray.pipeline.query import scan

    out_dir = str(tmp_path / "enc")
    base = pa.table({
        "doc_id": pa.array([f"a{i:04d}" for i in range(800)]),
        "source": pa.array([f"s{i % 3}" for i in range(800)]),
        "n_tok": pa.array([i % 97 for i in range(800)], type=pa.int64()),
    })
    encode_dataset(rd.from_arrow(base), out_dir, key_col="source",
                   weight_col=None)

    newer = pa.table({
        "doc_id": pa.array([f"b{i:04d}" for i in range(500)]),
        "source": pa.array([f"s{i % 3}" for i in range(500)]),
        "n_tok": pa.array([i % 89 for i in range(500)], type=pa.int64()),
        "lang": pa.array([("en", "de", "fr")[i % 3] for i in range(500)]),
    })
    encode_dataset(rd.from_arrow(newer), out_dir, key_col="source",
                   weight_col=None, generation="g1")

    # full scan: union schema, typed nulls where the column is absent
    got = collect_arrow(scan(out_dir)).combine_chunks()
    assert set(got.column_names) == {"doc_id", "source", "n_tok", "lang"}
    assert got.num_rows == 1300
    assert got["lang"].null_count == 800
    by_id = dict(zip(got["doc_id"].to_pylist(), got["lang"].to_pylist()))
    assert by_id["a0000"] is None and by_id["b0001"] == "de"

    # projection touching the evolved column
    proj = collect_arrow(scan(out_dir, columns=["doc_id", "lang"]))
    assert proj.num_rows == 1300 and proj.column_names == ["doc_id", "lang"]

    # per-generation scans keep their native schema
    g0 = collect_arrow(scan(out_dir, generation=""))
    assert "lang" not in g0.column_names and g0.num_rows == 800
    g1 = collect_arrow(scan(out_dir, generation="g1"))
    assert g1.num_rows == 500 and g1["lang"].null_count == 0

    # asking for a column no partition has still fails loudly
    import pytest

    with pytest.raises((KeyError, Exception), match="nope|not in"):
        collect_arrow(scan(out_dir, columns=["nope"]))


def test_filters_over_evolved_schema(ray_session, tmp_path):
    """Predicates on a column added in a later generation: partitions
    that predate it are all-NULL operands under 3VL (value predicates
    prune them entirely; IS NULL matches every row; NOT drops them),
    and projections pad typed nulls — vs a DuckDB UNION ALL twin."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from arcade_ray.collect import collect_arrow
    from arcade_ray.pipeline import encode_dataset
    from arcade_ray.pipeline.query import compound_filter

    out_dir = str(tmp_path / "enc")
    base = pa.table({
        "doc_id": pa.array([f"a{i:04d}" for i in range(600)]),
        "source": pa.array([f"s{i % 3}" for i in range(600)]),
        "n_tok": pa.array([i % 97 for i in range(600)], type=pa.int64()),
    })
    newer = pa.table({
        "doc_id": pa.array([f"b{i:04d}" for i in range(400)]),
        "source": pa.array([f"s{i % 3}" for i in range(400)]),
        "n_tok": pa.array([i % 89 for i in range(400)], type=pa.int64()),
        "lang": pa.array([("en", "de", "fr")[i % 3] for i in range(400)]),
    })
    encode_dataset(rd.from_arrow(base), out_dir, key_col="source",
                   weight_col=None)
    encode_dataset(rd.from_arrow(newer), out_dir, key_col="source",
                   weight_col=None, generation="g1")
    pq.write_table(base.append_column(
        "lang", pa.nulls(600, pa.string())), str(tmp_path / "b.parquet"))
    pq.write_table(newer, str(tmp_path / "n.parquet"))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW t AS SELECT * FROM "
                f"read_parquet('{tmp_path}/b.parquet') UNION ALL "
                f"SELECT * FROM read_parquet('{tmp_path}/n.parquet')")

    def ids(preds, project=("doc_id", "lang", "n_tok")):
        df = compound_filter(out_dir, preds, list(project)).to_pandas()
        return sorted(df["doc_id"].tolist()) if len(df) else []

    def oracle(where):
        return sorted(r[0] for r in con.execute(
            f"SELECT doc_id FROM t WHERE {where}").fetchall())

    assert ids(("eq", "lang", "en")) == oracle("lang = 'en'")
    assert ids(("isnull", "lang")) == oracle("lang IS NULL")
    assert ids(("not", ("eq", "lang", "en"))) == oracle("NOT (lang = 'en')")
    assert ids(("or", [("eq", "lang", "de"),
                       ("between", "n_tok", 0, 10)])) == \
        oracle("lang = 'de' OR n_tok BETWEEN 0 AND 10")
    # projection pads: lang column null-typed on matched base rows
    got = compound_filter(out_dir, ("between", "n_tok", 0, 5),
                          ["doc_id", "lang"]).to_pandas()
    assert got["lang"].isna().sum() > 0


def test_empty_input_scan_typed(ray_session, tmp_path):
    """An empty input shard encodes to zero partitions but records the
    input schema sidecar (_schema.arrows); scan answers a TYPED empty
    dataset (projection honored, unknown columns/generations still
    raise)."""
    import pyarrow.parquet as pq

    from arcade_ray.pipeline.encode import encode_parquet
    from arcade_ray.pipeline.query import scan

    src = tmp_path / "empty.parquet"
    pq.write_table(generate_corpus(10, 2, seed=3).slice(0, 0), str(src))
    out = str(tmp_path / "enc")
    manifest = encode_parquet(str(src), out)
    assert manifest.num_rows == 0

    ds = scan(out)
    assert ds.count() == 0
    assert ds.schema().names == ["doc_id", "tokens", "n_tok", "source"]

    proj = scan(out, columns=["doc_id", "tokens"])
    assert proj.count() == 0
    assert proj.schema().names == ["doc_id", "tokens"]

    with pytest.raises(KeyError):
        scan(out, columns=["nope"])
    with pytest.raises(FileNotFoundError):
        scan(out, generation="g9")


def test_schema_sidecar_written_for_nonempty(ray_session, corpus_parquet,
                                             tmp_path):
    """The sidecar is written on every encode (non-empty too) and
    matches the input column set."""
    from arcade_ray.pipeline.encode import encode_parquet, read_schema_sidecar

    out = str(tmp_path / "enc")
    encode_parquet(str(corpus_parquet), out)
    sch = read_schema_sidecar(out)
    assert sch is not None
    assert sch.names == ["doc_id", "tokens", "n_tok", "source"]


def test_encode_dataset_pandas_backed(ray_session, tmp_path):
    """r4 review finding: the schema sidecar write crashed
    encode_dataset for pandas-backed datasets (PandasBlockSchema has
    no remove_metadata and is not a pa.Schema). Such datasets encode
    fine; they simply skip the sidecar."""
    import pandas as pd
    import ray.data as rd

    from arcade_ray.pipeline.encode import read_schema_sidecar
    from arcade_ray.pipeline.query import scan

    df = pd.DataFrame({
        "doc_id": [f"d{i}" for i in range(50)],
        "tokens": [list(range(i % 7)) for i in range(50)],
        "n_tok": [i % 7 for i in range(50)],
        "source": [f"s{i % 3}" for i in range(50)],
    })
    out = str(tmp_path / "enc")
    manifest = encode_dataset(rd.from_pandas(df), out)
    assert manifest.num_rows > 0
    got = scan(out).to_pandas()
    assert len(got) == 50
    assert read_schema_sidecar(out) is None  # skipped, not crashed


# --- range (clustered) partitioning ------------------------------------------


def test_range_partitioned_encode(ray_session, tmp_path):
    """range_partition_col gives partitions with DISJOINT zone maps on
    that column (cluster-level pruning), a bit-identical roundtrip,
    and a persisted plan that resume reuses."""
    import ray.data as rd

    from arcade_ray.pipeline.encode import encode_dataset, load_manifest
    from arcade_ray.pipeline.query import range_filter, scan
    from arcade_ray.collect import collect_arrow

    rng = np.random.default_rng(5)
    n = 4000
    t = pa.table({
        "doc_id": pa.array(np.arange(n), type=pa.int64()),
        "metric": pa.array(rng.integers(0, 100_000, n), type=pa.int64()),
        "payload": pa.array([f"p{i}" for i in range(n)]),
    })
    out = str(tmp_path / "rp")
    man = encode_dataset(rd.from_arrow(t).repartition(8), out,
                         id_col="doc_id", weight_col=None, weight_cap=500,
                         range_partition_col="metric")
    assert man.num_rows >= 4
    zones = sorted(
        ((json.loads(r["col_stats"])["metric"]["min"],
          json.loads(r["col_stats"])["metric"]["max"]) for r in man.to_pylist()))
    for (_, hi), (lo, _) in zip(zones, zones[1:]):
        assert hi <= lo  # disjoint (boundary equality allowed)
    # plan persisted
    assert os.path.exists(os.path.join(out, "range_plan.json"))

    # roundtrip
    full = collect_arrow(scan(out, columns=["doc_id", "metric", "payload"]))
    assert_tables_equal(sorted_by_doc(full), sorted_by_doc(t))

    # cluster-level pruning: a narrow range touches few partitions
    lo_q, hi_q = 10_000, 15_000
    surv = [z for z in zones if not (hi_q < z[0] or lo_q > z[1])]
    assert len(surv) < len(zones)
    got = collect_arrow(range_filter(out, "metric", lo_q, hi_q,
                                     ["doc_id", "metric"]))
    exp = t.filter(pc.and_(pc.greater_equal(t["metric"], lo_q),
                           pc.less_equal(t["metric"], hi_q)))
    assert got.num_rows == exp.num_rows
    assert sorted(got["doc_id"].to_pylist()) == sorted(exp["doc_id"].to_pylist())

    # resume: same partition set, no re-encode (plan reloaded, all done)
    man2 = encode_dataset(rd.from_arrow(t).repartition(3), out,
                          id_col="doc_id", weight_col=None, weight_cap=500,
                          range_partition_col="metric")
    assert sorted(man2["part_key"].to_pylist()) \
        == sorted(man["part_key"].to_pylist())


def test_range_partitioned_nulls_and_timestamps(ray_session, tmp_path):
    """Null range-column values land deterministically in the last
    bucket and survive the roundtrip; timestamp columns partition by
    their epoch view."""
    import ray.data as rd

    from arcade_ray.pipeline.encode import encode_dataset
    from arcade_ray.pipeline.query import scan
    from arcade_ray.collect import collect_arrow

    n = 1200
    ts = pa.array(
        np.arange(n) * 1_000_000 + 1_700_000_000_000_000,
        type=pa.timestamp("us"))
    vals = np.arange(n, dtype=np.float64)
    vals[::7] = np.nan
    t = pa.table({
        "doc_id": pa.array(np.arange(n), type=pa.int64()),
        "v": pa.array(vals, type=pa.float64(), from_pandas=True),
        "ts": ts,
    })
    out = str(tmp_path / "rpn")
    man = encode_dataset(rd.from_arrow(t).repartition(4), out,
                         id_col="doc_id", weight_col=None, weight_cap=300,
                         range_partition_col="v")
    assert man.num_rows >= 2
    full = collect_arrow(scan(out, columns=["doc_id", "v", "ts"]))
    assert_tables_equal(sorted_by_doc(full), sorted_by_doc(t))

    out2 = str(tmp_path / "rpt")
    man2 = encode_dataset(rd.from_arrow(t).repartition(4), out2,
                          id_col="doc_id", weight_col=None, weight_cap=300,
                          range_partition_col="ts")
    assert man2.num_rows >= 2
    full2 = collect_arrow(scan(out2, columns=["doc_id", "ts"]))
    assert full2.num_rows == n
    assert sorted(full2["doc_id"].to_pylist()) == list(range(n))


def test_range_partitioned_generation_append(ray_session, tmp_path):
    """Incremental APPEND into a range-partitioned table: each
    generation samples and persists its own boundaries
    (range_plan@gen.json), keys never collide, and readers see the
    union through one manifest."""
    import ray.data as rd

    from arcade_ray.pipeline.encode import encode_dataset
    from arcade_ray.pipeline.query import scan
    from arcade_ray.collect import collect_arrow

    def tbl(lo, n):
        ids = np.arange(lo, lo + n)
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "metric": pa.array(ids * 3 % 1000, type=pa.int64()),
            "payload": pa.array([f"p{i}" for i in ids]),
        })

    out = str(tmp_path / "rpg")
    encode_dataset(rd.from_arrow(tbl(0, 800)), out, id_col="doc_id",
                   weight_col=None, weight_cap=300,
                   range_partition_col="metric")
    encode_dataset(rd.from_arrow(tbl(800, 500)), out, id_col="doc_id",
                   weight_col=None, weight_cap=300,
                   range_partition_col="metric", generation="g2")
    assert os.path.exists(os.path.join(out, "range_plan.json"))
    assert os.path.exists(os.path.join(out, "range_plan@g2.json"))
    full = collect_arrow(scan(out, columns=["doc_id", "metric"]))
    assert full.num_rows == 1300
    assert sorted(full["doc_id"].to_pylist()) == list(range(1300))


def test_range_plan_nan_samples_and_col_mismatch(ray_session, tmp_path):
    """Review regressions: (a) float NaN VALUES (not Arrow nulls) in
    the range column must not collapse every quantile boundary to NaN;
    (b) a persisted plan for another column is refused loudly; (c)
    resume=False re-samples instead of reusing the stale plan."""
    import ray.data as rd

    from arcade_ray.planner import build_range_plan
    from arcade_ray.pipeline.encode import encode_dataset

    # (a) unit: NaN samples are dropped before quantiles
    s = np.array([1.0, 2.0, np.nan, 3.0, 4.0, np.nan, 5.0])
    plan = build_range_plan(s, total_weight=100, cap=25, col="v")
    assert len(plan.boundaries) >= 1
    assert all(b == b for b in plan.boundaries)  # no NaN survives
    # weights reflect the sample histogram, not a uniform average
    assert sum(plan.weights) >= 90

    # end-to-end: NaN VALUES via a plain numpy array (no from_pandas
    # null conversion) still yield >1 partition
    n = 900
    vals = np.arange(n, dtype=np.float64)
    vals[::11] = np.nan
    t = pa.table({"doc_id": pa.array(np.arange(n), type=pa.int64()),
                  "v": pa.array(vals, type=pa.float64())})
    out = str(tmp_path / "nanrp")
    man = encode_dataset(rd.from_arrow(t).repartition(3), out,
                         id_col="doc_id", weight_col=None, weight_cap=250,
                         range_partition_col="v")
    assert man.num_rows >= 2

    # (b) same dir, different column -> loud refusal
    t2 = t.append_column("w", pa.array(np.arange(n), type=pa.int64()))
    with pytest.raises(ValueError, match="range_partition_col"):
        encode_dataset(rd.from_arrow(t2), str(tmp_path / "nanrp"),
                       id_col="doc_id", weight_col=None, weight_cap=250,
                       range_partition_col="w")

    # (c) resume=False ignores the persisted plan (re-samples fresh)
    out2 = str(tmp_path / "fresh")
    encode_dataset(rd.from_arrow(t), out2, id_col="doc_id",
                   weight_col=None, weight_cap=250,
                   range_partition_col="v")
    import json
    with open(os.path.join(out2, "range_plan.json")) as f:
        before = json.load(f)
    # overwrite with a bogus plan; resume=False must NOT load it
    with open(os.path.join(out2, "range_plan.json"), "w") as f:
        json.dump({"col": "v", "boundaries": [1.5], "weights": [1, 1]}, f)
    encode_dataset(rd.from_arrow(t), out2, id_col="doc_id",
                   weight_col=None, weight_cap=250,
                   range_partition_col="v", resume=False)
    with open(os.path.join(out2, "range_plan.json")) as f:
        after = json.load(f)
    assert after["boundaries"] == before["boundaries"] != [1.5]


def test_encoded_dir_is_relocatable(ray_session, tmp_path):
    """Manifest paths rebase to the directory they are loaded from:
    a copied/moved encoded dir reads its OWN partition files, and
    mutating the copy (delete) never touches the original."""
    import shutil

    import pyarrow.parquet as pq

    from arcade_ray.corpus import generate_corpus
    from arcade_ray.pipeline.compact import delete_rows
    from arcade_ray.pipeline.encode import encode_parquet, load_manifest
    from arcade_ray.pipeline.query import scan

    src_pq = str(tmp_path / "c.parquet")
    pq.write_table(generate_corpus(2000, 4, seed=5), src_pq)
    orig = str(tmp_path / "orig")
    encode_parquet(src_pq, orig, key_col="source", id_col="doc_id",
                   weight_col=None)
    moved = str(tmp_path / "moved")
    shutil.copytree(orig, moved)

    man = load_manifest(moved)
    assert all(p.startswith(moved) for p in man["path"].to_pylist())

    n_before = scan(orig, columns=["doc_id"]).count()
    res = delete_rows(moved, ("eq", "source", "src-000"))
    assert res["rows_deleted"] > 0
    # the original is untouched, the copy shrank
    assert scan(orig, columns=["doc_id"]).count() == n_before
    assert scan(moved, columns=["doc_id"]).count() \
        == n_before - res["rows_deleted"]
