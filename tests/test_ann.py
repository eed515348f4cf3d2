"""Similarity search: exact brute-force correctness vs numpy oracle,
LSH variant recall vs the exact baseline."""

import numpy as np
import pyarrow as pa
import pytest

from arcade_ray.ann import _normalize, lsh_topk_cosine, topk_cosine

N, DIM = 500, 32


def make_embeddings():
    rng = np.random.default_rng(42)
    mat = rng.standard_normal((N, DIM)).astype(np.float32)
    # plant: vector 100 nearly equals vector 7
    mat[100] = mat[7] + 0.01 * rng.standard_normal(DIM).astype(np.float32)
    return pa.table({
        "vec_id": pa.array(np.arange(N), type=pa.int64()),
        "embedding": pa.array([row.tolist() for row in mat],
                              type=pa.list_(pa.float32())),
    }), mat


@pytest.fixture(scope="module")
def emb(ray_session):
    import ray.data as rd

    table, mat = make_embeddings()
    return rd.from_arrow(table), mat


def numpy_topk(mat, qids, k):
    m = _normalize(mat.astype(np.float64))
    out = {}
    for q in qids:
        scores = m @ m[q]
        order = np.lexsort((np.arange(len(m)), -scores))[:k]
        out[q] = list(order)
    return out

def test_topk_exact_matches_numpy(emb):
    ds, mat = emb
    qids = [0, 7, 250]
    res = topk_cosine(ds, qids, mat[qids], k=5)
    expect = numpy_topk(mat, qids, 5)
    got = {}
    for q in qids:
        sel = res.filter(pa.compute.equal(res["query_id"], q))
        got[q] = sel["vec_id"].to_pylist()
    assert got == expect
    # planted near-dup: vector 100 in top-2 of query 7
    assert 100 in got[7][:2]


def test_near_dup_pairs(emb):
    from arcade_ray.ann import near_dup_pairs

    ds, mat = emb
    out = near_dup_pairs(ds, threshold=0.95)
    pairs = set(zip(out["id_a"].to_pylist(), out["id_b"].to_pylist()))
    assert (7, 100) in pairs  # the planted near-identical pair
    # random gaussians in 32 dims essentially never reach cos 0.95
    assert len(pairs) <= 3
    assert all(a < b for a, b in pairs)


def test_lsh_recall(emb):
    ds, mat = emb
    qids = [0, 7, 250]
    exact = topk_cosine(ds, qids, mat[qids], k=10)
    approx = lsh_topk_cosine(ds, qids, mat[qids], k=10, n_planes=8,
                             probe_bits=3)
    recalls = []
    for q in qids:
        e = set(exact.filter(pa.compute.equal(exact["query_id"], q))["vec_id"].to_pylist())
        a = set(approx.filter(pa.compute.equal(approx["query_id"], q))["vec_id"].to_pylist())
        recalls.append(len(e & a) / len(e))
    # random gaussian corpora have near-orthogonal "neighbors" — modest
    # recall is expected; the PLANTED near-dup must always be found
    assert np.mean(recalls) >= 0.5, recalls
    a7 = approx.filter(pa.compute.equal(approx["query_id"], 7))["vec_id"].to_pylist()
    assert 100 in a7
    # the query vector itself always survives LSH (identical signature)
    for q in qids:
        a = approx.filter(pa.compute.equal(approx["query_id"], q))["vec_id"].to_pylist()
        assert q in a


def test_ivf_recall(emb):
    from arcade_ray.ann import ivf_topk_cosine

    ds, mat = emb
    qids = [0, 7, 250]
    exact = topk_cosine(ds, qids, mat[qids], k=10)
    approx = ivf_topk_cosine(ds, qids, mat[qids], k=10, n_centroids=16,
                             n_probe=8, sample_size=N)
    recalls = []
    for q in qids:
        e = set(exact.filter(pa.compute.equal(exact["query_id"], q))["vec_id"].to_pylist())
        a = set(approx.filter(pa.compute.equal(approx["query_id"], q))["vec_id"].to_pylist())
        recalls.append(len(e & a) / len(e))
    # probing half the codebook: strong recall expected even on
    # near-orthogonal gaussian corpora
    assert min(recalls) >= 0.5 and sum(recalls) / len(recalls) >= 0.7, recalls


def test_kmeans_lite_clusters():
    from arcade_ray.ann import _kmeans_lite, _normalize

    rng = np.random.default_rng(5)
    base = _normalize(rng.standard_normal((4, 16)))
    pts = np.concatenate([
        _normalize(b + 0.05 * rng.standard_normal((50, 16))) for b in base])
    cents = _kmeans_lite(pts, 4, seed=1)
    # every point close to some centroid
    sims = (pts @ cents.T).max(axis=1)
    assert sims.min() > 0.9


def test_kmeans_fit_recovers_planted_clusters(ray_session):
    """Three well-separated planted blobs: assignments must match the
    planted partition (up to relabeling) and inertia must not rise."""
    import ray.data as rd

    from arcade_ray.ann import kmeans_fit
    from arcade_ray.collect import collect_arrow

    rng = np.random.default_rng(3)
    dim, per = 16, 300
    centers = rng.standard_normal((3, dim)) * 8
    vecs = np.concatenate(
        [c + rng.standard_normal((per, dim)) * 0.3 for c in centers])
    t = pa.table({
        "vec_id": pa.array(np.arange(len(vecs)), type=pa.int64()),
        "embedding": pa.array(vecs.tolist(), type=pa.list_(pa.float64())),
    })
    cents, assign_ds, hist = kmeans_fit(
        rd.from_arrow(t), k=3, iters=6, sample_size=900)
    out = collect_arrow(assign_ds).to_pandas().sort_values(
        "vec_id", ignore_index=True)
    planted = np.repeat(np.arange(3), per)
    # every planted cluster maps to exactly one learned label
    mapping = {}
    for p in range(3):
        labels = set(out.loc[planted == p, "cluster"])
        assert len(labels) == 1, f"planted cluster {p} split: {labels}"
        mapping[p] = labels.pop()
    assert len(set(mapping.values())) == 3
    assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:])), hist


def test_ivf_index_persist_and_query(ray_session, tmp_path):
    """build_ivf_index persists codebook + cell-partitioned data; the
    query reads ONLY probed cells and recall vs exact stays high."""
    import os

    import ray.data as rd

    from arcade_ray.ann import build_ivf_index, ivf_index_topk, topk_cosine

    rng = np.random.default_rng(5)
    dim, n = 16, 2000
    centers = rng.standard_normal((8, dim)) * 4
    vecs = np.concatenate([
        c + rng.standard_normal((n // 8, dim)) * 0.4 for c in centers])
    t = pa.table({
        "vec_id": pa.array(np.arange(len(vecs)), type=pa.int64()),
        "embedding": pa.array(vecs.tolist(), type=pa.list_(pa.float64())),
    })
    idx = str(tmp_path / "ivf")
    info = build_ivf_index(rd.from_arrow(t), idx, n_centroids=16,
                           sample_size=2000)
    assert info["rows"] == len(vecs)
    assert os.path.isdir(os.path.join(idx, "data"))
    # hive layout: one directory per cell
    assert any(d.startswith("cell=") for d in
               os.listdir(os.path.join(idx, "data")))

    qids = [3, 777, 1500]
    qmat = vecs[qids]
    exact = topk_cosine(rd.from_arrow(t), qids, qmat, k=10)
    approx = ivf_index_topk(idx, qids, qmat, k=10, n_probe=6)
    assert approx.num_rows == 30
    import pyarrow.compute as pc
    recalls = []
    for q in qids:
        e = set(exact.filter(pc.equal(exact["query_id"], q))["vec_id"].to_pylist())
        a = set(approx.filter(pc.equal(approx["query_id"], q))["vec_id"].to_pylist())
        recalls.append(len(e & a) / len(e))
    assert min(recalls) >= 0.8, recalls


def test_kmeans_tree_reduce_matches_flat(ray_session, monkeypatch):
    """Forcing the task-side partial combine (fanout 2 over a 12-block
    input) must reproduce the flat driver merge: same assignments,
    same centroids, same inertia trace (up to float merge order)."""
    import ray.data as rd

    import arcade_ray.ann as ann
    from arcade_ray.collect import collect_arrow

    rng = np.random.default_rng(9)
    dim, per = 8, 120
    centers = rng.standard_normal((3, dim)) * 6
    vecs = np.concatenate(
        [c + rng.standard_normal((per, dim)) * 0.3 for c in centers])
    t = pa.table({
        "vec_id": pa.array(np.arange(len(vecs)), type=pa.int64()),
        "embedding": pa.array(vecs.tolist(), type=pa.list_(pa.float64())),
    })

    def run():
        cents, assign_ds, hist = ann.kmeans_fit(
            rd.from_arrow(t).repartition(12), k=3, iters=4,
            sample_size=360)
        out = collect_arrow(assign_ds).to_pandas().sort_values(
            "vec_id", ignore_index=True)
        return cents, out["cluster"].to_numpy(), hist

    monkeypatch.setattr(ann, "_KMEANS_REDUCE_FANOUT", 10**9)
    c_flat, a_flat, h_flat = run()
    monkeypatch.setattr(ann, "_KMEANS_REDUCE_FANOUT", 2)
    c_tree, a_tree, h_tree = run()

    np.testing.assert_allclose(c_tree, c_flat, atol=1e-9)
    assert (a_tree == a_flat).all()
    np.testing.assert_allclose(h_tree, h_flat, rtol=1e-9)


def test_ivf_index_rebuild_equals_one_build(ray_session, tmp_path,
                                            monkeypatch):
    """A build into a dir that already holds an index replaces it: a
    rebuild, also one that switches ``quantize``, leaves the rows and
    answers of one build. A rebuild that fails after it started leaves
    no ``meta.json``, and queries refuse the dir."""
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    from arcade_ray.ann import build_ivf_index, ivf_index_topk

    rng = np.random.default_rng(3)
    centers = rng.standard_normal((4, 8)) * 5
    vecs = np.concatenate(
        [c + rng.standard_normal((100, 8)) * 0.3 for c in centers])
    t = pa.table({
        "vec_id": pa.array(np.arange(len(vecs)), type=pa.int64()),
        "embedding": pa.array(vecs.tolist(), type=pa.list_(pa.float64())),
    })
    qids = [0, 150, 399]

    def build(d, quantize=None):
        return build_ivf_index(rd.from_arrow(t), d, n_centroids=4,
                               sample_size=400, quantize=quantize)

    def state(d):
        data = pq.read_table(os.path.join(d, "data"))
        got = ivf_index_topk(d, qids, vecs[qids], k=5, n_probe=2)
        return (sorted(data["vec_id"].to_pylist()),
                sorted(zip(got["query_id"].to_pylist(),
                           got["vec_id"].to_pylist())))

    once, again = str(tmp_path / "once"), str(tmp_path / "again")
    build(once)
    build(again, quantize="int8")
    build(again)
    assert state(again) == state(once)
    assert state(once)[0] == list(range(len(vecs)))
    build(again)
    assert state(again) == state(once)

    q8_once, q8_again = str(tmp_path / "q8_once"), str(tmp_path / "q8_again")
    build(q8_once, quantize="int8")
    build(q8_again)
    build(q8_again, quantize="int8")
    assert state(q8_again) == state(q8_once)

    def crash(*a, **k):
        raise OSError("disk full")

    monkeypatch.setattr(pq, "write_table", crash)
    with pytest.raises(OSError):
        build(again)
    monkeypatch.undo()
    assert not os.path.exists(os.path.join(again, "meta.json"))
    with pytest.raises(FileNotFoundError):
        ivf_index_topk(again, qids, vecs[qids], k=5, n_probe=2)


def test_ivf_index_int8_quantized(ray_session, tmp_path):
    """quantize='int8': same probed-cell read shape, ~8x smaller cell
    data than list<float64>, and near-exact recall after per-batch
    reconstruction (planted clusters -> recall 1.0 expected, assert
    >= 0.9 for slack)."""
    import os

    import pyarrow.compute as pc
    import ray.data as rd

    from arcade_ray.ann import (build_ivf_index, ivf_index_topk,
                                topk_cosine)

    rng = np.random.default_rng(11)
    dim, per = 24, 400
    centers = rng.standard_normal((5, dim)) * 6
    vecs = np.concatenate(
        [c + rng.standard_normal((per, dim)) * 0.4 for c in centers])
    t = pa.table({
        "vec_id": pa.array(np.arange(len(vecs)), type=pa.int64()),
        "embedding": pa.array(vecs.tolist(), type=pa.list_(pa.float64())),
    })
    ds = rd.from_arrow(t)
    raw_dir = str(tmp_path / "ivf_raw")
    q8_dir = str(tmp_path / "ivf_q8")
    build_ivf_index(ds, raw_dir, n_centroids=8, sample_size=2000)
    build_ivf_index(ds, q8_dir, n_centroids=8, sample_size=2000,
                    quantize="int8")

    def tree_bytes(d):
        return sum(os.path.getsize(os.path.join(r, f))
                   for r, _, fs in os.walk(os.path.join(d, "data"))
                   for f in fs)

    assert tree_bytes(q8_dir) < 0.35 * tree_bytes(raw_dir)

    qids = [0, per, 2 * per]
    qmat = vecs[qids]
    exact = topk_cosine(ds, qids, qmat, k=10)
    got = ivf_index_topk(q8_dir, qids, qmat, k=10, n_probe=4)
    for q in qids:
        e = set(exact.filter(pc.equal(exact["query_id"], q))["vec_id"].to_pylist())
        a = set(got.filter(pc.equal(got["query_id"], q))["vec_id"].to_pylist())
        assert len(e & a) / len(e) >= 0.9, q


def test_topk_cosine_empty_corpus(ray_session):
    """ANN over an empty embedding corpus returns zero rows per query
    (typed), not a KeyError on the schema-less driver merge."""
    import numpy as np
    import ray.data as rd

    from arcade_ray.ann import topk_cosine

    empty = rd.from_arrow(pa.table({
        "vec_id": pa.array([], pa.int64()),
        "embedding": pa.array([], pa.list_(pa.float32())),
    }))
    out = topk_cosine(empty, [0, 1], np.ones((2, 4), dtype=np.float32), 5)
    assert out.num_rows == 0
    assert out.column_names == ["query_id", "vec_id", "cos"]


def test_ann_variants_empty_corpus(ray_session):
    """LSH/IVF/near-dup over an empty embedding corpus return typed
    zero-row results (index BUILD functions still raise — an index
    over nothing is a caller error)."""
    import numpy as np
    import ray.data as rd

    from arcade_ray.ann import ivf_topk_cosine, lsh_topk_cosine, near_dup_pairs

    empty = rd.from_arrow(pa.table({
        "vec_id": pa.array([], pa.int64()),
        "embedding": pa.array([], pa.list_(pa.float32())),
    }))
    q = np.ones((2, 4), dtype=np.float32)
    assert lsh_topk_cosine(empty, [0, 1], q, 5).num_rows == 0
    assert ivf_topk_cosine(empty, [0, 1], q, 5).num_rows == 0
    pairs = near_dup_pairs(empty)
    assert pairs.num_rows == 0
    assert pairs.column_names == ["id_a", "id_b", "cos"]


def test_semantic_dedup_planted(ray_session):
    """SemDeDup: 5 planted near-identical vectors collapse to exactly
    one survivor; all 90 distinct vectors survive; every dropped row
    names a kept same-cluster rep at cos >= threshold (verified
    independently in numpy)."""
    import ray.data as rd

    from arcade_ray.ann import semantic_dedup

    rng = np.random.default_rng(7)
    base = rng.standard_normal((3, 16)) * 4
    vecs, ids = [], []
    vid = 0
    for b in range(3):
        for _ in range(30):
            vecs.append(base[b] + rng.standard_normal(16) * 0.9)
            ids.append(vid); vid += 1
    anchor = base[0] + 0.05
    for _ in range(5):
        vecs.append(anchor + rng.standard_normal(16) * 1e-3)
        ids.append(vid); vid += 1
    t = pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs],
                              pa.list_(pa.float32()))})
    out = semantic_dedup(rd.from_arrow(t), threshold=0.999, k=3,
                         sample_size=200, seed=1).take_all()
    by_id = {r["vec_id"]: r for r in out}
    assert len(by_id) == 95
    planted = [by_id[i] for i in range(90, 95)]
    kept_planted = [r for r in planted if not r["is_dup"]]
    assert len(kept_planted) == 1
    rep_id = kept_planted[0]["vec_id"]
    assert rep_id == 90  # centroid-sim ties break by ascending id
    x = _normalize(np.array(vecs, dtype=np.float64))
    kept = {r["vec_id"] for r in out if not r["is_dup"]}
    for r in out:
        if r["is_dup"]:
            assert r["rep"] in kept
            assert by_id[r["rep"]]["cluster"] == r["cluster"]
            got = float(x[r["vec_id"]] @ x[r["rep"]])
            assert abs(got - r["cos_to_rep"]) < 1e-9
            assert r["cos_to_rep"] >= 0.999
        else:
            assert r["rep"] is None and r["cos_to_rep"] is None
    assert sum(r["is_dup"] for r in out) == 4
    # survivors within a cluster are pairwise below threshold
    from collections import defaultdict
    byc = defaultdict(list)
    for r in out:
        if not r["is_dup"]:
            byc[r["cluster"]].append(r["vec_id"])
    for members in byc.values():
        m = x[np.array(members)]
        s = m @ m.T
        np.fill_diagonal(s, -1.0)
        assert s.max() < 0.999


def test_semantic_dedup_keep_order(ray_session):
    """The paper's diversity rule: within a duplicate group the member
    FARTHEST from the centroid (lowest centroid_sim) is kept."""
    import ray.data as rd

    from arcade_ray.ann import semantic_dedup

    rng = np.random.default_rng(3)
    dim = 8
    e1 = np.eye(dim)[0]
    e2 = np.eye(dim)[1]
    vecs = []
    # broad blob around e1 (mutual cos ~0.88 — never above threshold)
    for _ in range(50):
        ang = 0.45 + rng.uniform(0, 0.15)
        d = rng.standard_normal(dim); d[0] = 0.0
        d /= np.linalg.norm(d)
        vecs.append(np.cos(ang) * e1 + np.sin(ang) * d)
    a = np.cos(0.15) * e1 + np.sin(0.15) * e2   # farther from centroid
    b = np.cos(0.05) * e1 + np.sin(0.05) * e2   # closer to centroid
    vecs += [a, b]                               # ids 50, 51
    t = pa.table({
        "vec_id": pa.array(np.arange(52), pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs],
                              pa.list_(pa.float32()))})
    out = semantic_dedup(rd.from_arrow(t), threshold=0.99, k=1,
                         sample_size=100, seed=2).take_all()
    by_id = {r["vec_id"]: r for r in out}
    assert not by_id[50]["is_dup"]          # a: visited first, kept
    assert by_id[51]["is_dup"]              # b duplicates a
    assert by_id[51]["rep"] == 50
    assert by_id[51]["cos_to_rep"] >= 0.99
    assert sum(r["is_dup"] for r in out) == 1


def test_semantic_dedup_empty(ray_session):
    """Empty corpus -> typed empty decision table (the repo-wide
    zero-row convention), not a take_batch crash."""
    import ray.data as rd

    from arcade_ray.ann import semantic_dedup

    empty = rd.from_arrow(pa.table({
        "vec_id": pa.array([], pa.int64()),
        "embedding": pa.array([], pa.list_(pa.float32())),
    }))
    out = semantic_dedup(empty).take_all()
    assert out == []
    t = semantic_dedup(empty).schema()
    assert set(t.names) == {"vec_id", "cluster", "centroid_sim",
                            "is_dup", "rep", "cos_to_rep"}


def test_knn_join_exact_matches_numpy(emb):
    """Exact kNN graph equals the numpy all-pairs answer (self
    excluded, ties by ascending neighbor id); the planted pair
    (7, 100) are each other's nearest neighbor."""
    from arcade_ray.ann import knn_join

    ds, mat = emb
    k = 4
    out = knn_join(ds, k=k, mode="exact")
    assert out.num_rows == N * k
    m = _normalize(mat.astype(np.float64))
    sims = m @ m.T
    np.fill_diagonal(sims, -np.inf)
    got = {}
    for r in out.to_pylist():
        got.setdefault(r["vec_id"], []).append(r["nb"])
    for i in (0, 7, 100, 250, N - 1):
        want = np.lexsort((np.arange(N), -sims[i]))[:k].tolist()
        assert got[i] == want, (i, got[i], want)
    assert got[7][0] == 100 and got[100][0] == 7


def test_knn_join_lsh_recall(emb):
    """LSH kNN graph: recall@k vs exact on the nearest-neighbor
    structure that LSH can see; the planted near-identical pair is
    always recovered (collision probability ~1 at cos~1)."""
    from arcade_ray.ann import knn_join

    ds, _ = emb
    k = 4
    exact = knn_join(ds, k=k, mode="exact")
    approx = knn_join(ds, k=k, mode="lsh", n_bands=24, band_planes=4)
    ex, ap = {}, {}
    for r in exact.to_pylist():
        ex.setdefault(r["vec_id"], set()).add(r["nb"])
    for r in approx.to_pylist():
        ap.setdefault(r["vec_id"], set()).add(r["nb"])
    assert ap.get(7, set()) and 100 in ap[7]
    assert ap.get(100, set()) and 7 in ap[100]
    hits = sum(len(ex[i] & ap.get(i, set())) for i in ex)
    total = sum(len(ex[i]) for i in ex)
    assert hits / total >= 0.25, hits / total  # gaussian corpus: LSH
    # only reaches neighbors sharing a bucket; planted structure is
    # what it exists to catch


def test_knn_join_empty(ray_session):
    import ray.data as rd

    from arcade_ray.ann import knn_join

    empty = rd.from_arrow(pa.table({
        "vec_id": pa.array([], pa.int64()),
        "embedding": pa.array([], pa.list_(pa.float32())),
    }))
    for mode in ("exact", "lsh"):
        out = knn_join(empty, mode=mode)
        assert out.num_rows == 0
        assert out.column_names == ["vec_id", "nb", "cos"]


def test_knn_join_boundary_ties(ray_session):
    """Duplicate vectors create cosine ties straddling the k
    boundary: the selection must follow (cos desc, nb asc) — the SQL
    oracle's total order — not argpartition's arbitrary subset."""
    import ray.data as rd

    from arcade_ray.ann import knn_join

    # 1 probe direction + 6 identical candidates + 1 weaker
    base = np.eye(8)[0]
    weaker = 0.5 * np.eye(8)[0] + np.sqrt(1 - 0.25) * np.eye(8)[1]
    vecs = [base] + [base.copy() for _ in range(6)] + [weaker]
    t = pa.table({
        "vec_id": pa.array(np.arange(8), pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs],
                              pa.list_(pa.float32()))})
    out = knn_join(rd.from_arrow(t), k=3, mode="exact")
    g0 = [r["nb"] for r in out.to_pylist() if r["vec_id"] == 0]
    assert g0 == [1, 2, 3]  # cos==1 six ways: smallest ids win
