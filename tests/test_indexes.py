"""The persisted-index protocol (``arcade_ray.indexes``) over all five
build/query index pairs: a rebuild into a dir answers as one build
does, and a build stopped before its commit refuses to query."""

import json
import os

import numpy as np
import pyarrow as pa
import pytest

from arcade_ray import indexes

WORDS = [f"w{i:03d}" for i in range(300)]


def _docs(ids, seeds) -> pa.Table:
    def doc(seed):
        r = np.random.default_rng(seed)
        return " ".join(WORDS[i] for i in r.integers(0, 300, 120))

    return pa.table({"doc_id": pa.array(list(ids), type=pa.int64()),
                     "text": [doc(s) for s in seeds]})


def _vecs(ids, mat) -> pa.Table:
    return pa.table({
        "vec_id": pa.array(list(ids), type=pa.int64()),
        "embedding": pa.array(mat.tolist(), type=pa.list_(pa.float64()))})


CORPUS = _docs(range(100), range(100))
# 40 other documents under other ids: the new batch holds a copy of one
# (id 505), so a query that still sees them after a rebuild answers
# differently from one build
STALE = _docs(range(500, 540), range(1000, 1040))
NEW = _docs([900, 901, 902, 903], [3, 70, 1005, 9999])

_rng = np.random.default_rng(3)
VECS = np.concatenate([c + _rng.standard_normal((25, 8)) * 0.3
                       for c in _rng.standard_normal((4, 8)) * 5])
VCORPUS = _vecs(range(100), VECS)
VSTALE = _vecs(range(500, 540), VECS[:40] + 1e-3)
QIDS = [0, 30, 99]


def _family(name):
    """-> (corpus, stale 40-row table, build(table, dir) -> rows,
    query(dir) -> comparable answer) of one index family."""
    import ray.data as rd

    from arcade_ray import ann, textops
    from arcade_ray.collect import collect_arrow

    def new():
        return rd.from_arrow(NEW)

    if name == "ivf":
        def build(t, d):
            return ann.build_ivf_index(rd.from_arrow(t), d, n_centroids=4,
                                       sample_size=200)["rows"]

        def query(d):
            got = ann.ivf_index_topk(d, QIDS, VECS[QIDS], k=5, n_probe=2)
            return sorted(zip(got["query_id"].to_pylist(),
                              got["vec_id"].to_pylist()))

        return VCORPUS, VSTALE, build, query
    if name == "dedup":
        def build(t, d):
            return textops.build_dedup_index(rd.from_arrow(t), d)

        def query(d):
            out = collect_arrow(textops.dedup_against_index(new(), d))
            return sorted(out["doc_id"].to_pylist())

        return CORPUS, STALE, build, query
    builder, querier = {
        "minhash": (textops.build_minhash_index,
                    textops.query_minhash_index),
        "simhash": (textops.build_simhash_index,
                    textops.query_simhash_index),
        "edit": (textops.build_edit_index, textops.query_edit_index),
    }[name]

    def build(t, d):
        return builder(rd.from_arrow(t), d, n_shards=4)["rows"]

    def query(d):
        return querier(new(), d).to_pylist()

    return CORPUS, STALE, build, query


@pytest.mark.parametrize("family",
                         ["dedup", "minhash", "simhash", "edit", "ivf"])
def test_rebuild_equals_one_build_and_uncommitted_refuses(
        ray_session, tmp_path, family):
    """A 40-row build, then a full build into the same dir, leaves the
    files, row count and query answers of one full build; removing
    ``meta.json`` (a build stopped before its commit) makes the query
    raise FileNotFoundError."""
    corpus, stale, build, query = _family(family)
    once, again = str(tmp_path / "once"), str(tmp_path / "again")
    n = build(corpus, once)
    assert n == corpus.num_rows
    assert build(stale, again) == stale.num_rows
    assert query(again) != query(once)  # the stale rows would show
    assert build(corpus, again) == n
    assert query(again) == query(once)
    assert sorted(os.listdir(again)) == sorted(os.listdir(once))
    assert "meta.json" in os.listdir(again)

    os.remove(os.path.join(again, "meta.json"))
    with pytest.raises(FileNotFoundError):
        query(again)


def test_open_refusals(tmp_path):
    """``indexes.open`` refuses a dir without a marker, the legacy
    exact-dedup layout, another hash version and other parameters;
    ``shard_of`` maps negative keys into [0, n)."""
    d = str(tmp_path / "idx")
    with pytest.raises(FileNotFoundError):
        indexes.open(d)
    os.makedirs(d)
    with open(os.path.join(d, indexes.LEGACY_MARKER), "w") as f:
        json.dump({"hash_version": 2}, f)
    with pytest.raises(ValueError, match="build_dedup_index"):
        indexes.open(d)

    indexes.begin(d, ["bands"])
    assert indexes.commit(d, {"n_shards": 4}, "bands") == 0
    assert indexes.open(d, n_shards=4)["n_shards"] == 4
    with pytest.raises(ValueError, match="n_shards"):
        indexes.open(d, n_shards=8)
    meta_p = os.path.join(d, "meta.json")
    meta = json.load(open(meta_p))
    json.dump({**meta, "hash_version": 1}, open(meta_p, "w"))
    with pytest.raises(ValueError, match="hash version"):
        indexes.open(d)
    indexes.begin(d, [])
    assert not os.path.exists(meta_p)

    assert indexes.shard_of(np.array([-5, -1, 0, 3, 9]), 4).tolist() == \
        [3, 3, 0, 3, 1]
