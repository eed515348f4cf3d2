"""Compaction: merge small partitions, crash-safe lineage via
``replaces`` rows."""

import glob
import json
import os

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from arcade_ray.corpus import generate_corpus
from arcade_ray.pipeline import decode_dataset, encode_dataset
from arcade_ray.pipeline.compact import compact
from arcade_ray.pipeline.encode import load_manifest


@pytest.fixture()
def fragmented(ray_session, tmp_path):
    """Encode with a tiny cap -> many small partitions per source."""
    import ray.data as rd

    table = generate_corpus(6000, 4, seed=31)
    out_dir = str(tmp_path / "enc")
    encode_dataset(rd.from_arrow(table), out_dir, weight_cap=60_000)
    return out_dir, table


def collect(out_dir):
    import ray

    return pa.concat_tables(ray.get(decode_dataset(out_dir).to_arrow_refs()))


def test_compact_merges_and_preserves_data(fragmented):
    out_dir, table = fragmented
    before = load_manifest(out_dir)
    m = compact(out_dir, weight_cap=10_000_000)
    assert m.num_rows < before.num_rows
    out = collect(out_dir)
    assert out.num_rows == table.num_rows
    a = out.take(pc.sort_indices(out["doc_id"]))
    b = table.take(pc.sort_indices(table["doc_id"]))
    for name in table.schema.names:
        assert a[name].combine_chunks().equals(
            b[name].combine_chunks().cast(a[name].type)), name
    # no orphan segment files
    part_files = set(glob.glob(os.path.join(out_dir, "parts", "*.arcr")))
    assert part_files == set(m["path"].to_pylist())


def test_replaces_filter_crash_window(fragmented):
    """Simulate a crash after the new compacted row committed but
    before old rows were deleted: load_manifest must hide the old
    rows and row counts must stay exact."""
    out_dir, table = fragmented
    before = load_manifest(out_dir).to_pylist()
    # hand-craft: compact two partitions of the same source, keeping
    # the old manifest rows in place
    from arcade_ray.pipeline.compact import _compact_group, _source_of

    by_src = {}
    for r in before:
        by_src.setdefault(_source_of(r["part_key"]), []).append(r)
    src, parts = next((s, p) for s, p in by_src.items() if len(p) >= 2)
    _compact_group(parts[:2], out_dir, f"{src}#crash", "doc_id")
    # old rows still on disk; manifest must drop them via `replaces`
    m = load_manifest(out_dir)
    keys = set(m["part_key"].to_pylist())
    assert f"{src}#crash" in keys
    assert parts[0]["part_key"] not in keys
    assert parts[1]["part_key"] not in keys
    assert sum(m["rows"].to_pylist()) == table.num_rows


def test_compact_idempotent(fragmented):
    out_dir, table = fragmented
    compact(out_dir, weight_cap=10_000_000)
    m1 = load_manifest(out_dir)
    m2 = compact(out_dir, weight_cap=10_000_000)
    # second pass may still merge leftovers, but must preserve rows
    assert sum(m2["rows"].to_pylist()) == table.num_rows


def test_recompaction_generations(fragmented):
    """A second compaction that merges previously-compacted parts must
    not collide with their keys (keys are derived from the replaced
    set, unique per generation)."""
    out_dir, table = fragmented
    compact(out_dir, weight_cap=300_000)   # small target -> several c-parts
    m1 = load_manifest(out_dir)
    gen1 = {k for k in m1["part_key"].to_pylist() if "#c" in k}
    m2 = compact(out_dir, weight_cap=50_000_000)  # merge everything per source
    gen2 = {k for k in m2["part_key"].to_pylist() if "#c" in k}
    assert sum(m2["rows"].to_pylist()) == table.num_rows
    out = collect(out_dir)
    assert out.num_rows == table.num_rows
    assert len(set(out["doc_id"].to_pylist())) == table.num_rows
    # any re-merged gen1 part is gone, and no key was reused for
    # different contents
    assert not (gen1 & gen2) or all(
        k in gen1 for k in (gen1 & gen2)
    )


def test_delete_rows_predicate(ray_session, tmp_path):
    """Predicate delete: zone-pruned untouched partitions, all-match
    partitions dropped, partial-match partitions rewritten with
    lineage; survivors match a pandas oracle; idempotent on re-run."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from arcade_ray.collect import collect_arrow
    from arcade_ray.corpus import generate_corpus
    from arcade_ray.pipeline import encode_dataset
    from arcade_ray.pipeline.compact import delete_rows
    from arcade_ray.pipeline.query import scan

    table = generate_corpus(6000, 6, seed=21)
    out_dir = str(tmp_path / "enc")
    encode_dataset(rd.from_arrow(table), out_dir, weight_cap=150_000)

    # partial-match predicate: long docs of one source + ALL of another
    preds = ("or", [
        ("and", [("eq", "source", "src-001"),
                 ("between", "n_tok", 200, 10**9)]),
        ("eq", "source", "src-003"),
    ])
    info = delete_rows(out_dir, preds)
    df = table.to_pandas()
    kill = (((df["source"] == "src-001") & (df["n_tok"] >= 200))
            | (df["source"] == "src-003"))
    assert info["rows_deleted"] == int(kill.sum())
    assert info["dropped"] >= 1      # src-003 partitions are all-match
    assert info["rewritten"] >= 1    # src-001 partitions are partial
    assert info["pruned"] >= 1       # other sources zone-pruned

    got = collect_arrow(scan(out_dir, columns=["doc_id"]))
    exp_ids = sorted(df.loc[~kill, "doc_id"])
    assert sorted(got["doc_id"].to_pylist()) == exp_ids

    again = delete_rows(out_dir, preds)
    assert again["rows_deleted"] == 0
    assert again["rewritten"] == 0 and again["dropped"] == 0


def test_delete_rows_crash_state_consistent(ray_session, tmp_path):
    """Simulated crash mid-delete: the rewritten partition's manifest
    row (with `replaces`) is committed but the OLD row+file were never
    removed. Readers must see the post-delete view (replaces filtering)
    and a delete re-run must converge without double-deleting."""
    import shutil

    import pyarrow.compute as pc
    import ray.data as rd

    from arcade_ray.collect import collect_arrow
    from arcade_ray.corpus import generate_corpus
    from arcade_ray.pipeline import encode_dataset
    from arcade_ray.pipeline.compact import delete_rows
    from arcade_ray.pipeline.encode import (_manifest_row_path,
                                            load_manifest)
    from arcade_ray.pipeline.query import scan

    table = generate_corpus(3000, 3, seed=77)
    out_dir = str(tmp_path / "enc")
    encode_dataset(rd.from_arrow(table), out_dir, weight_cap=150_000)

    # snapshot the pre-delete state of everything
    backup = str(tmp_path / "bak")
    shutil.copytree(out_dir, backup)

    preds = [("eq", "source", "src-001"),
             ("between", "n_tok", 150, 10**9)]
    info = delete_rows(out_dir, preds)
    assert info["rewritten"] >= 1

    # craft the crash: restore ONE replaced partition's old manifest
    # row + segment file next to its surviving replacement
    m = load_manifest(out_dir).to_pylist()
    new_row = next(r for r in m if r.get("replaces"))
    old_key = new_row["replaces"][0]
    import os
    shutil.copy(_manifest_row_path(backup, old_key),
                _manifest_row_path(out_dir, old_key))
    old_path = _manifest_row_path(backup, old_key)  # row json path
    import json
    with open(old_path) as f:
        old_seg = json.load(f)["path"]
    shutil.copy(os.path.join(backup, "parts",
                             os.path.basename(old_seg)),
                os.path.join(out_dir, "parts",
                             os.path.basename(old_seg)))

    # readers: the replaced row must be invisible
    keys = load_manifest(out_dir)["part_key"].to_pylist()
    assert old_key not in keys
    df = table.to_pandas()
    kill = (df["source"] == "src-001") & (df["n_tok"] >= 150)
    got = collect_arrow(scan(out_dir, columns=["doc_id"]))
    assert sorted(got["doc_id"].to_pylist()) == \
        sorted(df.loc[~kill, "doc_id"])

    # re-running the delete converges (cleans nothing extra)
    again = delete_rows(out_dir, preds)
    assert again["rows_deleted"] == 0
    assert collect_arrow(scan(out_dir, columns=["doc_id"])).num_rows == \
        int((~kill).sum())


def test_delete_rows_retried_group_is_idempotent(ray_session, tmp_path,
                                                monkeypatch):
    """A retried partition group re-runs delete's per-partition rewrite
    and re-commits the same md5-derived key: running every group twice
    leaves the same manifest and segment bytes as running it once."""
    import shutil

    import ray.data as rd

    from arcade_ray.pipeline import compact as compact_mod
    from arcade_ray.pipeline.compact import delete_rows

    table = generate_corpus(3000, 3, seed=77)
    once = str(tmp_path / "once")
    encode_dataset(rd.from_arrow(table), once, weight_cap=150_000)
    twice = str(tmp_path / "twice")
    shutil.copytree(once, twice)
    preds = [("eq", "source", "src-001"),
             ("between", "n_tok", 150, 10**9)]
    info = delete_rows(once, preds)
    assert info["rewritten"] >= 1

    real = compact_mod.gather_partitions

    def retried(rows, fn):
        real(rows, fn)
        return real(rows, fn)

    monkeypatch.setattr(compact_mod, "gather_partitions", retried)
    assert delete_rows(twice, preds) == info

    def state(d):
        m = load_manifest(d).sort_by("part_key")
        return (m["part_key"].to_pylist(), m["crc32"].to_pylist(),
                sorted(os.listdir(os.path.join(d, "parts"))))

    assert state(twice) == state(once)


def test_delete_on_empty_encoded_dir(ray_session, tmp_path):
    """Zero-partition encoded dirs (empty input shard) answer a
    predicate delete with the zeroed summary instead of IndexError."""
    import pyarrow.parquet as pq

    from arcade_ray.pipeline.compact import delete_rows
    from arcade_ray.pipeline.encode import encode_parquet

    src = tmp_path / "empty.parquet"
    pq.write_table(generate_corpus(10, 2, seed=5).slice(0, 0), str(src))
    out = str(tmp_path / "enc")
    encode_parquet(str(src), out)
    info = delete_rows(out, ("eq", "source", "src-000"))
    assert info == {"partitions": 0, "pruned": 0, "rewritten": 0,
                    "dropped": 0, "rows_deleted": 0}


def test_update_rows_predicate(ray_session, tmp_path):
    """Predicate UPDATE: zone-pruned partitions untouched, matching
    partitions rewritten under replaces lineage; values match a
    pandas oracle; verify() stays clean; resumable scan sees the new
    values only once."""
    import pyarrow as pa
    import ray.data as rd

    from arcade_ray.collect import collect_arrow
    from arcade_ray.corpus import generate_corpus
    from arcade_ray.pipeline import encode_dataset
    from arcade_ray.pipeline.compact import update_rows
    from arcade_ray.pipeline.query import scan

    table = generate_corpus(5000, 6, seed=23)
    out_dir = str(tmp_path / "enc")
    encode_dataset(rd.from_arrow(table), out_dir, weight_cap=150_000)

    preds = ("and", [("eq", "source", "src-002"),
                     ("between", "n_tok", 0, 199)])
    info = update_rows(out_dir, preds, {"source": "short-002"})
    df = table.to_pandas()
    hit = (df["source"] == "src-002") & (df["n_tok"] <= 199)
    assert info["rows_updated"] == int(hit.sum()) > 0
    assert info["rewritten"] >= 1
    assert info["pruned"] >= 1

    got = collect_arrow(
        scan(out_dir, columns=["doc_id", "source", "n_tok"]))
    gdf = got.to_pandas().sort_values("doc_id", ignore_index=True)
    exp = df[["doc_id", "source", "n_tok"]].copy()
    exp.loc[hit, "source"] = "short-002"
    exp = exp.sort_values("doc_id", ignore_index=True)
    assert gdf["source"].tolist() == exp["source"].tolist()
    assert gdf["n_tok"].tolist() == exp["n_tok"].tolist()

    # total row count conserved; re-running the same predicate now
    # matches nothing (the predicate column itself was rewritten)
    assert len(gdf) == len(df)
    again = update_rows(out_dir, preds, {"source": "short-002"})
    assert again["rows_updated"] == 0 and again["rewritten"] == 0


def test_update_rows_int_and_callable(ray_session, tmp_path):
    """Integer-constant assignment and a computed (callable)
    assignment through the same rewrite."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from arcade_ray.collect import collect_arrow
    from arcade_ray.corpus import generate_corpus
    from arcade_ray.pipeline import encode_dataset
    from arcade_ray.pipeline.compact import update_rows
    from arcade_ray.pipeline.query import scan

    table = generate_corpus(2000, 4, seed=29)
    out_dir = str(tmp_path / "enc")
    encode_dataset(rd.from_arrow(table), out_dir)

    update_rows(out_dir, ("between", "n_tok", 0, 99),
                {"n_tok": 0,
                 "source": lambda t: pc.binary_join_element_wise(
                     t["source"].combine_chunks(), "tiny", "-")})
    got = collect_arrow(scan(out_dir, columns=["doc_id", "source",
                                               "n_tok"])).to_pandas()
    df = table.to_pandas()
    hit = df["n_tok"] <= 99
    exp_n = df["n_tok"].where(~hit, 0)
    m = got.set_index("doc_id")
    dfi = df.set_index("doc_id")
    for did in dfi.index[hit][:50]:
        assert m.loc[did, "n_tok"] == 0
        assert m.loc[did, "source"] == dfi.loc[did, "source"] + "-tiny"
    for did in dfi.index[~hit][:50]:
        assert m.loc[did, "n_tok"] == dfi.loc[did, "n_tok"]
        assert m.loc[did, "source"] == dfi.loc[did, "source"]


def test_collapse_folds_tails_into_base_and_keeps_gen_without_base(
        ray_session, tmp_path):
    """collapse_generations: generation tails FOLD into the base when
    a base partition exists (seeded bin — even a lone append
    collapses, schemas back-fill via promote); a source with NO base
    partitions merges its tails as a single-generation group whose
    '#c' key stays generation-scoped, so a later plain compact cannot
    fold it into anything."""
    import ray.data as rd

    from arcade_ray.collect import collect_arrow
    from arcade_ray.pipeline.compact import compact
    from arcade_ray.pipeline.decode import decode_dataset
    from arcade_ray.pipeline.encode import (encode_dataset,
                                            load_manifest)

    big = pa.table({
        "doc_id": pa.array([f"d{i:05d}" for i in range(4000)]),
        "source": pa.array(["s0"] * 4000),
        "text": pa.array(["x" * 50] * 4000),
    })
    out = str(tmp_path / "enc")
    encode_dataset(rd.from_arrow(big), out, key_col="source",
                   id_col="doc_id", weight_col=None)
    gen_rows = pa.table({
        # s0 tails fold into the existing base; s9 has NO base
        "doc_id": pa.array([f"g{i:03d}" for i in range(60)]),
        "source": pa.array(["s0"] * 40 + ["s9"] * 20),
        "text": pa.array(["y" * 50] * 60),
    })
    encode_dataset(rd.from_arrow(gen_rows), out, key_col="source",
                   id_col="doc_id", weight_col=None, generation="g1",
                   weight_cap=12)
    compact(out, sort_by="doc_id", collapse_generations=True)
    man = load_manifest(out)
    keys = man["part_key"].to_pylist()
    gens = man["generation"].to_pylist()
    # s0's g1 tails folded into the base generation
    assert not any(k.startswith("s0@g1#") for k in keys), keys
    assert collect_arrow(decode_dataset(out)).num_rows == 4060
    # s9 (no base) merged as a single-generation group, key scoped
    s9 = [(k, g) for k, g in zip(keys, gens) if k.startswith("s9")]
    assert s9 and all(k.startswith("s9@g1#") and g == "g1"
                      for k, g in s9), s9
    t = collect_arrow(decode_dataset(out, generation="g1"))
    assert t.num_rows == 20  # the unfolded s9 rows keep their scope
    # a later PLAIN compact must not fold s9's generation
    compact(out, sort_by="doc_id")
    t2 = collect_arrow(decode_dataset(out, generation="g1"))
    assert t2.num_rows == 20
