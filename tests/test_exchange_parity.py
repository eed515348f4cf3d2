"""The two exchange implementations (direct partitioned hash exchange
vs idiomatic groupby().map_groups) must produce identical partitions."""

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from arcade_ray.corpus import generate_corpus
from arcade_ray.pipeline import decode_dataset, encode_dataset


@pytest.mark.parametrize("exchange", ["direct", "groupby", "disk"])
def test_exchange_roundtrip(ray_session, tmp_path, exchange):
    import ray
    import ray.data as rd

    table = generate_corpus(6000, 6, seed=21)
    out_dir = str(tmp_path / exchange)
    manifest = encode_dataset(rd.from_arrow(table), out_dir,
                              weight_cap=120_000, exchange=exchange)
    assert sum(manifest["rows"].to_pylist()) == 6000
    decoded = pa.concat_tables(ray.get(decode_dataset(out_dir).to_arrow_refs()))
    a = decoded.take(pc.sort_indices(decoded["doc_id"]))
    b = table.take(pc.sort_indices(table["doc_id"]))
    for name in table.schema.names:
        assert a[name].combine_chunks().equals(
            b[name].combine_chunks().cast(a[name].type)), name


def test_exchanges_identical_bytes(ray_session, tmp_path):
    """Same plan + sorted partitions -> byte-identical partition files
    from both exchanges (determinism check)."""
    import ray.data as rd

    table = generate_corpus(4000, 4, seed=22)
    m1 = encode_dataset(rd.from_arrow(table), str(tmp_path / "d"),
                        weight_cap=100_000, exchange="direct")
    m2 = encode_dataset(rd.from_arrow(table), str(tmp_path / "g"),
                        weight_cap=100_000, exchange="groupby")
    m3 = encode_dataset(rd.from_arrow(table), str(tmp_path / "k"),
                        weight_cap=100_000, exchange="disk")
    a = {k: (s, c) for k, s, c in zip(m1["part_key"].to_pylist(),
                                      m1["enc_bytes"].to_pylist(),
                                      m1["crc32"].to_pylist())}
    b = {k: (s, c) for k, s, c in zip(m2["part_key"].to_pylist(),
                                      m2["enc_bytes"].to_pylist(),
                                      m2["crc32"].to_pylist())}
    c = {k: (s, c) for k, s, c in zip(m3["part_key"].to_pylist(),
                                      m3["enc_bytes"].to_pylist(),
                                      m3["crc32"].to_pylist())}
    assert a == b
    assert a == c


def test_disk_exchange_cleans_shuffle_dir(ray_session, tmp_path):
    import os

    import ray.data as rd

    table = generate_corpus(2000, 3, seed=23)
    out = str(tmp_path / "disk")
    encode_dataset(rd.from_arrow(table), out, weight_cap=80_000,
                   exchange="disk")
    assert not os.path.exists(os.path.join(out, "_shuffle"))


def test_parquet_disk_exchange_parity(ray_session, tmp_path):
    """encode_parquet's disk-staged exchange matches the object-store
    exchange byte for byte."""
    import pyarrow.parquet as pq

    from arcade_ray.pipeline.encode import encode_parquet

    table = generate_corpus(5000, 4, seed=24)
    src_dir = tmp_path / "src"
    src_dir.mkdir()
    per = 1250
    for i in range(4):
        pq.write_table(table.slice(i * per, per),
                       str(src_dir / f"p{i}.parquet"))
    m1 = encode_parquet(str(src_dir), str(tmp_path / "a"), exchange="direct")
    m2 = encode_parquet(str(src_dir), str(tmp_path / "b"), exchange="disk")
    a = dict(zip(m1["part_key"].to_pylist(), m1["crc32"].to_pylist()))
    b = dict(zip(m2["part_key"].to_pylist(), m2["crc32"].to_pylist()))
    assert a == b


def test_group_verify_disk_objects_parity(ray_session):
    """distributed_group_verify (exact-dedup's routed-text resolve)
    yields the identical loser set in objects mode and disk-staged
    mode, and both match the driver-computed reference."""
    import ray.data as rd

    from arcade_ray.textops import dedup_loser_ids

    n = 400
    texts = []
    for i in range(n):
        if i % 10 < 3:
            texts.append(f"duplicate body {i % 10} " * 8)  # 3-runs
        else:
            texts.append(f"unique body {i} with words {i * 7}")
    t = pa.table({"doc_id": pa.array(list(range(n)), type=pa.int64()),
                  "text": pa.array(texts)})

    import arcade_ray.collect as collect

    orig = collect.distributed_group_verify

    def force(mode):
        def wrapped(*a, **k):
            k["mode"] = mode
            return orig(*a, **k)
        return wrapped

    ref = None
    for mode in ("objects", "disk"):
        collect.distributed_group_verify = force(mode)
        try:
            losers = dedup_loser_ids(rd.from_arrow(t))
        finally:
            collect.distributed_group_verify = orig
        got = losers["doc_id"].to_pylist()
        if ref is None:
            ref = got
        assert got == ref, mode
    # independent reference: per distinct text, everything but min id
    import collections as _c

    groups = _c.defaultdict(list)
    for i, s in enumerate(texts):
        groups[s].append(i)
    want = sorted(i for g in groups.values() for i in g[1:])
    assert ref == want


def test_group_verify_survives_union_schemaless_blocks(ray_session):
    """Ray's union emits schemaless zero-row blocks that pass through
    map_batches without calling the router; the verify exchange must
    skip them (found by the round-5 dress rehearsal on
    exact_dedup_best)."""
    import ray.data as rd

    from arcade_ray.textops import exact_dedup

    base = pa.table({
        "doc_id": pa.array(list(range(60)), type=pa.int64()),
        "text": pa.array((["dup body one " * 5] * 30)
                         + [f"unique {i}" for i in range(30)]),
    })
    extra = pa.table({
        "doc_id": pa.array([1000, 1001], type=pa.int64()),
        "text": pa.array(["dup body one " * 5, "another unique"]),
    })
    ds = rd.from_arrow(base).union(rd.from_arrow(extra))
    out = exact_dedup(ds).to_pandas().sort_values(
        "doc_id", ignore_index=True)
    # one survivor (id 0) for the 31-strong duplicate run
    assert out["doc_id"].tolist() == [0] + list(range(30, 60)) + [1001]


def _encode_parquet_case(tmp_path, out):
    import pyarrow.parquet as pq

    from arcade_ray.pipeline.encode import encode_parquet

    src = tmp_path / "src.parquet"
    if not src.exists():
        pq.write_table(generate_corpus(1500, 3, seed=25), str(src))
    m = encode_parquet(str(src), str(out), weight_cap=60_000)
    return dict(zip(m["part_key"].to_pylist(), m["crc32"].to_pylist()))


def _encode_dataset_case(tmp_path, out):
    import ray.data as rd

    m = encode_dataset(rd.from_arrow(generate_corpus(1500, 3, seed=25)),
                       str(out), weight_cap=60_000)
    return dict(zip(m["part_key"].to_pylist(), m["crc32"].to_pylist()))


def _copartition_join_case(tmp_path, out):
    import ray.data as rd

    from arcade_ray.collect import collect_arrow
    from arcade_ray.pipeline.join import copartition_join

    cust = pa.table({"c_custkey": pa.array(range(50), pa.int64()),
                     "c_seg": [f"seg-{i % 5}" for i in range(50)]})
    orders = pa.table({"o_orderkey": pa.array(range(800), pa.int64()),
                       "o_custkey": pa.array([i % 60 for i in range(800)],
                                             pa.int64()),
                       "o_flag": [f"f{i % 3}" for i in range(800)]})
    c_dir, o_dir = tmp_path / "cust", tmp_path / "ord"
    if not c_dir.exists():
        encode_dataset(rd.from_arrow(cust), str(c_dir), key_col="c_seg",
                       id_col="c_custkey", weight_col=None,
                       exchange="direct")
        encode_dataset(rd.from_arrow(orders), str(o_dir), key_col="o_flag",
                       id_col="o_orderkey", weight_col=None,
                       exchange="direct")
    t = collect_arrow(copartition_join(
        str(o_dir), str(c_dir), left_key="o_custkey",
        right_key="c_custkey", left_cols=["o_orderkey"],
        right_cols=["c_seg"]))
    return sorted(zip(t["o_orderkey"].to_pylist(), t["c_seg"].to_pylist()))


def _group_verify_case(tmp_path, out):
    import numpy as np
    import ray.data as rd

    from arcade_ray.collect import distributed_group_verify

    t = pa.table({"doc_id": pa.array(range(120), pa.int64()),
                  "text": [f"body {i % 40}" for i in range(120)]})
    memb = pa.table({"doc_id": pa.array(range(0, 120, 3), pa.int64())})
    got = distributed_group_verify(
        rd.from_arrow(t), memb, "doc_id", ["text"],
        lambda m, p: p.select(["doc_id", "text"]),
        np.arange(memb.num_rows) % 7)
    return sorted(zip(got["doc_id"].to_pylist(), got["text"].to_pylist()))


@pytest.mark.parametrize("case", [
    _encode_parquet_case, _encode_dataset_case, _copartition_join_case,
    _group_verify_case,
], ids=["encode_parquet", "encode_dataset", "copartition_join",
        "group_verify"])
def test_auto_mode_threshold(ray_session, tmp_path, monkeypatch, case):
    """With no mode forced, every exchange user takes the disk sink
    above exchange.DISK_EXCHANGE_BYTES of input and the object store
    below it, with identical results."""
    import arcade_ray.exchange as ex

    calls = []
    real = ex.make_shuffle_dir

    def spy(tag, parent=None):
        calls.append(tag)
        return real(tag, parent)

    monkeypatch.setattr(ex, "make_shuffle_dir", spy)
    # tiny threshold -> disk engaged
    monkeypatch.setattr(ex, "DISK_EXCHANGE_BYTES", 1)
    disk = case(tmp_path, tmp_path / "disk")
    assert calls, "disk mode not auto-selected"
    calls.clear()
    # huge threshold -> objects
    monkeypatch.setattr(ex, "DISK_EXCHANGE_BYTES", 1 << 60)
    objects = case(tmp_path, tmp_path / "objects")
    assert not calls
    assert disk == objects and disk


def test_verify_auto_mode_runs_source_once_per_pass(ray_session, tmp_path):
    """The verify exchange's auto rule reads only sizes known without
    executing the input: over a lazy source, exact_dedup runs the
    source UDF exactly as often in auto mode as with objects forced."""
    import ray.data as rd

    import arcade_ray.collect as collect
    from arcade_ray.textops import exact_dedup

    log = tmp_path / "udf_calls"

    def counting(batch: pa.Table) -> pa.Table:
        with open(log, "a") as f:
            f.write("x")
        return batch

    texts = [f"dup {i % 7} " * 6 if i % 3 == 0 else f"unique {i}"
             for i in range(400)]
    t = pa.table({"doc_id": pa.array(range(400), pa.int64()),
                  "text": texts})
    orig = collect.distributed_group_verify

    def run(mode):
        log.write_text("")

        def wrapped(*a, **k):
            k["mode"] = mode
            return orig(*a, **k)

        collect.distributed_group_verify = wrapped
        try:
            ds = rd.from_arrow([t.slice(i * 100, 100) for i in range(4)]) \
                .map_batches(counting, batch_format="pyarrow")
            rows = exact_dedup(ds).count()
        finally:
            collect.distributed_group_verify = orig
        return len(log.read_text()), rows

    auto_calls, auto_rows = run(None)
    obj_calls, obj_rows = run("objects")
    assert auto_rows == obj_rows == 400 - (134 - 7)
    assert auto_calls == obj_calls


@pytest.mark.parametrize("exchange", ["direct", "disk"])
def test_failed_split_commits_nothing(ray_session, tmp_path, exchange):
    """A split that raises surfaces its error from encode_parquet
    before any bucket is encoded — no partition is committed from a
    bucket that missed a fragment — and the disk sink's
    out_dir/_shuffle is removed on the failure path too."""
    import os

    import pyarrow.parquet as pq

    from arcade_ray.pipeline.encode import encode_parquet

    table = generate_corpus(4000, 4, seed=26)
    src = tmp_path / "src"
    src.mkdir()
    for i in range(4):
        part = table.slice(i * 1000, 1000)
        if i == 3:  # planning reads only source/n_tok: only the split fails
            part = part.drop_columns(["doc_id"])
        pq.write_table(part, str(src / f"p{i}.parquet"))
    out = tmp_path / "enc"
    with pytest.raises(Exception, match="doc_id"):
        encode_parquet(str(src), str(out), weight_cap=40_000,
                       exchange=exchange)
    assert not os.listdir(out / "manifest")
    assert not os.listdir(out / "parts")
    assert not os.path.exists(out / "_shuffle")
