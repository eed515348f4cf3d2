"""Similarity search over an embedding column (list<float>).

- ``topk_cosine``   — brute-force cosine top-k: per-batch numpy matmul
  against a broadcast query matrix (``ray.put`` once, fetched per
  actor), per-batch partial top-k rows, tiny driver merge. The exact
  baseline.
- ``lsh_topk_cosine`` — random-hyperplane LSH variant: vectors hash to
  sign-pattern buckets (one map_batches pass); only bucket-colliding
  (and near-colliding, multi-probe) vectors are scored. The scale path:
  candidate scoring cost drops from O(N x Q) to O(bucket x Q).

- ``near_dup_pairs`` — LSH-banded near-duplicate pairs: the shuffle
  carries (band, key, id) rows only; candidate pairs verified exactly
  on a second keyed fetch of just the candidate vectors. Never
  all-pairs, never a full-matrix broadcast.

Scale notes: the query matrix is broadcast via ``ray.put`` (read once
per actor via __init__, never re-shipped per batch); partial top-k per
batch means the driver merge handles #batches x Q x k tiny rows, never
the embeddings.
"""

from __future__ import annotations

import heapq

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import indexes
from .collect import collect_arrow
from .sources import read_parquet_clean


def _pool_size(concurrency: int | None) -> int:
    """Actor-pool size leaving >=1 CPU for the upstream read stage — a
    pool reserving every CPU deadlocks the pipeline."""
    if concurrency is not None:
        return concurrency
    from .exchange import avail_cpus

    return max(1, min(8, avail_cpus() - 1))


def _partial_topk_rows(neg_scores: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Row indices of the batch-local top-k under the total order
    (score desc, id asc) — the same order the driver merge and the SQL
    oracle use, so boundary ties never drop the wrong row (a bare
    argpartition keeps an arbitrary subset of tied rows)."""
    n = len(neg_scores)
    if k >= n:
        sel = np.arange(n)
    else:
        kth = np.partition(neg_scores, k - 1)[k - 1]
        sel = np.flatnonzero(neg_scores <= kth)  # top-k plus boundary ties
    order = np.lexsort((ids[sel], neg_scores[sel]))[:k]
    return sel[order]


# kmeans partial-reduce: above this many blocks a task-side combine
# stage runs first so the driver merge is O(blocks / fanout)
_KMEANS_REDUCE_FANOUT = 64


def _to_matrix(col: pa.ChunkedArray) -> np.ndarray:
    arr = col.combine_chunks()
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    n = len(arr)
    return flat.reshape(n, -1)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


class _ScoreBatch:
    """Actor: receives the query matrix once (__init__). Queries are
    small (Q x dim); they ship by value in the actor spec — an
    ObjectRef constructor arg would make actor RESTART fail if the ref
    is lost (ray#53727), which surfaced as rare flakes. For huge query
    sets, switch to `ray.put` + fetch-in-init."""

    def __init__(self, q, id_col: str, vec_col: str, k: int):
        self.qids = q["ids"]
        self.qmat = _normalize(q["mat"])
        self.id_col, self.vec_col, self.k = id_col, vec_col, k

    def __call__(self, batch: pa.Table) -> pa.Table:
        mat = _normalize(_to_matrix(batch[self.vec_col]))
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        scores = mat @ self.qmat.T  # (n, Q)
        k = min(self.k, len(ids))
        out = {"query_id": [], self.id_col: [], "cos": []}
        if k:
            for qi in range(scores.shape[1]):
                rows = _partial_topk_rows(-scores[:, qi], ids, k)
                out["query_id"].extend([self.qids[qi]] * len(rows))
                out[self.id_col].extend(ids[rows].tolist())
                out["cos"].extend(scores[rows, qi].tolist())
        return pa.table({
            "query_id": pa.array(out["query_id"], type=pa.int64()),
            self.id_col: pa.array(out[self.id_col], type=pa.int64()),
            "cos": pa.array(out["cos"], type=pa.float64()),
        })


def topk_cosine(ds, queries_ids: list[int], queries_mat: np.ndarray,
                k: int = 10, id_col: str = "vec_id",
                vec_col: str = "embedding",
                concurrency: int | None = None) -> pa.Table:
    """Exact cosine top-k of each query over the dataset. Returns an
    Arrow table (query_id, id_col, cos) with exactly k rows per query,
    ties broken by ascending id (deterministic)."""
    import ray

    q = {"ids": list(queries_ids), "mat": np.asarray(queries_mat)}
    partials = ds.map_batches(
        _ScoreBatch, batch_format="pyarrow",
        fn_constructor_args=(q, id_col, vec_col, k),
        concurrency=_pool_size(concurrency),
    )
    merged = collect_arrow(partials)
    if merged.num_rows == 0:  # empty corpus: zero rows per query
        return pa.table({"query_id": pa.array([], type=pa.int64()),
                         id_col: pa.array([], type=pa.int64()),
                         "cos": pa.array([], type=pa.float64())})
    # driver merge: tiny (#batches x Q x k rows)
    out = {"query_id": [], id_col: [], "cos": []}
    qids = merged["query_id"].to_numpy(zero_copy_only=False)
    vids = merged[id_col].to_numpy(zero_copy_only=False)
    cos = merged["cos"].to_numpy(zero_copy_only=False)
    for q in sorted(set(queries_ids)):
        mask = qids == q
        # sort by (-cos, id) for deterministic ties
        order = np.lexsort((vids[mask], -cos[mask]))[:k]
        out["query_id"].extend([q] * len(order))
        out[id_col].extend(vids[mask][order].tolist())
        out["cos"].extend(cos[mask][order].tolist())
    return pa.table({
        "query_id": pa.array(out["query_id"], type=pa.int64()),
        id_col: pa.array(out[id_col], type=pa.int64()),
        "cos": pa.array(out["cos"], type=pa.float64()),
    })


def _band_planes(dim: int, n_bands: int, band_planes: int,
                 seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_bands * band_planes, dim))


def near_dup_band_rows(batch: pa.Table, planes: np.ndarray, n_bands: int,
                       band_planes: int, id_col: str = "vec_id",
                       vec_col: str = "embedding") -> pa.Table:
    """(bucket key, id) rows — the ONLY thing embedding near-dup ever
    shuffles (fixed width; the vectors stay put). The key packs the
    band index above the band's sign-pattern bits."""
    mat = _normalize(_to_matrix(batch[vec_col]))
    ids = batch[id_col].to_numpy(zero_copy_only=False)
    n = len(ids)
    bits = (mat @ planes.T > 0).astype(np.int64)  # (n, n_bands*band_planes)
    bits = bits.reshape(n, n_bands, band_planes)
    keys = (bits << np.arange(band_planes, dtype=np.int64)).sum(axis=2)  # (n, n_bands)
    keys |= np.arange(n_bands, dtype=np.int64)[None, :] << band_planes
    return pa.table({
        "bk": pa.array(keys.reshape(-1)),
        id_col: pa.array(np.repeat(ids, n_bands)),
    })


def near_dup_pairs(ds, threshold: float = 0.95, id_col: str = "vec_id",
                   vec_col: str = "embedding", n_bands: int = 16,
                   band_planes: int = 8, seed: int = 42,
                   max_bucket: int = 4096) -> pa.Table:
    """Embedding-cosine near-duplicate pairs (id_a < id_b, cos >=
    threshold) via random-hyperplane LSH banding — never all-pairs and
    never a full-matrix broadcast:

    1. map: per vector, ``n_bands`` sign-pattern keys of
       ``band_planes`` hyperplanes each; shuffle carries
       (bucket key, id) rows only.
    2. hot-bucket candidate generation (collect.bucket_candidate_pairs):
       vectorized groupby().count() finds buckets with >= 2 members —
       no per-group Python. Oversized buckets (degenerate, e.g. zero
       vectors) are dropped at ``max_bucket``.
    3. exact verify, DISTRIBUTED (collect.distributed_pair_verify):
       pairs are bucketed by hash(id_a); one streaming pass routes
       each candidate vector to the buckets needing it (vectors move
       once per needing bucket, never through the driver); per
       bucket, a vectorized einsum cosine keeps pairs >= threshold.

    A true pair at cosine t collides in one band with prob p^b,
    p = 1 - arccos(t)/pi; miss prob = (1-p^b)^L. Defaults (b=8, L=16)
    give ~0.4% at t=0.9, ~1e-4 at t=0.95 — while an UNRELATED
    (orthogonal) pair becomes a candidate with prob 1-(1-2^-8)^16 ~ 6%
    (b=4 measured 64% on gaussian data: over a million candidate pairs
    from 2000 vectors). Raise ``band_planes`` further for corpora with
    high ambient similarity; ``max_bucket`` caps degenerate buckets."""
    from .collect import lsh_pairs_verify

    # dim from the dataset schema (list<float> fixed dim assumed)
    try:
        first = ds.take_batch(1, batch_format="pyarrow")
    except ValueError:  # empty corpus: no pairs
        return pa.table({"id_a": pa.array([], pa.int64()),
                         "id_b": pa.array([], pa.int64()),
                         "cos": pa.array([], pa.float64())})
    dim = len(first[vec_col][0])
    planes = _band_planes(dim, n_bands, band_planes, seed)

    sig_ds = ds.map_batches(
        lambda b: near_dup_band_rows(b, planes, n_bands, band_planes,
                                     id_col, vec_col),
        batch_format="pyarrow")
    empty = pa.table({"id_a": pa.array([], pa.int64()),
                      "id_b": pa.array([], pa.int64()),
                      "cos": pa.array([], pa.float64())})

    def verify(pairs: pa.Table, payload: pa.Table) -> pa.Table:
        ids_f = payload[id_col].to_numpy(zero_copy_only=False)
        order = np.argsort(ids_f)
        vmat = _normalize(_to_matrix(payload[vec_col]))
        ai = order[np.searchsorted(
            ids_f[order], pairs["id_a"].to_numpy(zero_copy_only=False))]
        bi = order[np.searchsorted(
            ids_f[order], pairs["id_b"].to_numpy(zero_copy_only=False))]
        cos = np.einsum("ij,ij->i", vmat[ai], vmat[bi])
        keep = cos >= threshold
        return pa.table({
            "id_a": pa.array(
                pairs["id_a"].to_numpy(zero_copy_only=False)[keep],
                type=pa.int64()),
            "id_b": pa.array(
                pairs["id_b"].to_numpy(zero_copy_only=False)[keep],
                type=pa.int64()),
            "cos": pa.array(np.round(cos[keep], 4), type=pa.float64()),
        })

    out = lsh_pairs_verify(ds, sig_ds, id_col, [vec_col], verify,
                           max_bucket=max_bucket)
    if out.num_rows == 0 or out.num_columns == 0:
        return empty
    order = pc.sort_indices(out, sort_keys=[("id_a", "ascending"),
                                            ("id_b", "ascending")])
    return out.take(order)


def _kmeans_lite(sample: np.ndarray, n_centroids: int, iters: int = 8,
                 seed: int = 42) -> np.ndarray:
    """Small spherical k-means on a driver-side sample (numpy only):
    k-means++-ish seeding from the sample, Lloyd iterations with
    cosine assignment, centroids re-normalized each round."""
    rng = np.random.default_rng(seed)
    sample = _normalize(sample)
    n = len(sample)
    k = min(n_centroids, n)
    # k-means++ seeding (cosine distance): uniform seeding merges
    # nearby planted clusters into one centroid's cell
    chosen = [int(rng.integers(n))]
    best_sim = sample @ sample[chosen[0]]
    for _ in range(1, k):
        d = np.maximum(1.0 - best_sim, 0.0) ** 2  # D^2 weighting
        total = d.sum()
        nxt = int(rng.choice(n, p=d / total)) if total > 0 else int(rng.integers(n))
        chosen.append(nxt)
        best_sim = np.maximum(best_sim, sample @ sample[nxt])
    cents = sample[chosen].copy()
    for _ in range(iters):
        assign = np.argmax(sample @ cents.T, axis=1)
        for c in range(k):
            members = sample[assign == c]
            if len(members):
                cents[c] = members.mean(axis=0)
        cents = _normalize(cents)
    return cents


def ivf_topk_cosine(ds, queries_ids: list[int], queries_mat: np.ndarray,
                    k: int = 10, n_centroids: int = 64, n_probe: int = 8,
                    sample_size: int = 5000, id_col: str = "vec_id",
                    vec_col: str = "embedding", seed: int = 42,
                    concurrency: int | None = None) -> pa.Table:
    """IVF (inverted-file) approximate top-k — the coarse-quantizer
    scale path next to the LSH variant: a centroid codebook is trained
    on a driver-side sample, broadcast to the scoring actors, and each
    batch scores ONLY vectors whose nearest centroid is among a
    query's ``n_probe`` closest centroids. Cost per batch drops from
    O(n x Q) to O(n x C + hits x Q). Recall vs topk_cosine is
    measured in tests."""
    try:
        sample_tab = ds.limit(sample_size).take_batch(
            sample_size, batch_format="pyarrow")
    except ValueError:  # empty corpus: zero rows per query
        return pa.table({"query_id": pa.array([], type=pa.int64()),
                         id_col: pa.array([], type=pa.int64()),
                         "cos": pa.array([], type=pa.float64())})
    sample = _to_matrix(sample_tab[vec_col])
    cents = _kmeans_lite(sample, n_centroids, seed=seed)

    qmat = _normalize(np.asarray(queries_mat, dtype=np.float64))
    qprobe = np.argsort(-(qmat @ cents.T), axis=1)[:, :n_probe]  # (Q, n_probe)
    pack = {"ids": list(queries_ids), "mat": qmat, "cents": cents,
            "probe": qprobe}

    class ScoreIVF:
        def __init__(self):
            p = pack  # small codebook; ships by value in the actor spec
            self.qids, self.qmat = p["ids"], p["mat"]
            self.cents, self.probe = p["cents"], p["probe"]

        def __call__(self, batch: pa.Table) -> pa.Table:
            mat = _normalize(_to_matrix(batch[vec_col]))
            ids = batch[id_col].to_numpy(zero_copy_only=False)
            cell = np.argmax(mat @ self.cents.T, axis=1)
            out = {"query_id": [], id_col: [], "cos": []}
            for qi in range(len(self.qids)):
                cand = np.isin(cell, self.probe[qi])
                if not cand.any():
                    continue
                sub_ids = ids[cand]
                scores = mat[cand] @ self.qmat[qi]
                kk = min(k, len(sub_ids))
                rows = _partial_topk_rows(-scores, sub_ids, kk)
                out["query_id"].extend([self.qids[qi]] * len(rows))
                out[id_col].extend(sub_ids[rows].tolist())
                out["cos"].extend(scores[rows].tolist())
            return pa.table({
                "query_id": pa.array(out["query_id"], type=pa.int64()),
                id_col: pa.array(out[id_col], type=pa.int64()),
                "cos": pa.array(out["cos"], type=pa.float64()),
            })

    partials = ds.map_batches(ScoreIVF, batch_format="pyarrow",
                              concurrency=_pool_size(concurrency))
    merged = collect_arrow(partials)
    if merged.num_rows == 0:  # empty corpus: zero rows per query
        return pa.table({"query_id": pa.array([], type=pa.int64()),
                         id_col: pa.array([], type=pa.int64()),
                         "cos": pa.array([], type=pa.float64())})
    out = {"query_id": [], id_col: [], "cos": []}
    qids_np = merged["query_id"].to_numpy(zero_copy_only=False)
    vids = merged[id_col].to_numpy(zero_copy_only=False)
    cos = merged["cos"].to_numpy(zero_copy_only=False)
    for q in sorted(set(queries_ids)):
        mask = qids_np == q
        order = np.lexsort((vids[mask], -cos[mask]))[:k]
        out["query_id"].extend([q] * len(order))
        out[id_col].extend(vids[mask][order].tolist())
        out["cos"].extend(cos[mask][order].tolist())
    return pa.table({
        "query_id": pa.array(out["query_id"], type=pa.int64()),
        id_col: pa.array(out[id_col], type=pa.int64()),
        "cos": pa.array(out["cos"], type=pa.float64()),
    })


def lsh_topk_cosine(ds, queries_ids: list[int], queries_mat: np.ndarray,
                    k: int = 10, n_planes: int = 12, probe_bits: int = 2,
                    id_col: str = "vec_id", vec_col: str = "embedding",
                    seed: int = 42, concurrency: int | None = None) -> pa.Table:
    """Approximate top-k: random-hyperplane signatures; score only
    vectors whose signature is within ``probe_bits`` of a query's
    (multi-probe). Recall measured against topk_cosine in tests."""
    import ray

    qmat = _normalize(np.asarray(queries_mat, dtype=np.float64))
    dim = qmat.shape[1]
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((n_planes, dim))
    qsig = (qmat @ planes.T > 0).astype(np.uint32)
    qsig = (qsig << np.arange(n_planes, dtype=np.uint32)).sum(axis=1)
    # expand each query signature to all signatures within probe_bits
    probe_sets = []
    for s in qsig:
        sigs = {int(s)}
        frontier = {int(s)}
        for _ in range(probe_bits):
            nxt = set()
            for f in frontier:
                for b in range(n_planes):
                    nxt.add(f ^ (1 << b))
            sigs |= nxt
            frontier = nxt
        probe_sets.append(sigs)
    allowed = sorted(set().union(*probe_sets)) if probe_sets else []
    allowed_arr = np.array(allowed, dtype=np.uint32)

    qpack = {
        "ids": list(queries_ids), "mat": qmat, "planes": planes,
        "allowed": allowed_arr,
    }

    class ScoreLSH:
        def __init__(self):
            q = qpack  # small; shipped by value in the actor spec
            self.qids, self.qmat = q["ids"], q["mat"]
            self.planes, self.allowed = q["planes"], q["allowed"]

        def __call__(self, batch: pa.Table) -> pa.Table:
            mat = _normalize(_to_matrix(batch[vec_col]))
            ids = batch[id_col].to_numpy(zero_copy_only=False)
            sig = (mat @ self.planes.T > 0).astype(np.uint32)
            sig = (sig << np.arange(self.planes.shape[0], dtype=np.uint32)).sum(axis=1)
            cand = np.isin(sig, self.allowed)
            mat, ids = mat[cand], ids[cand]
            out = {"query_id": [], id_col: [], "cos": []}
            if len(ids):
                scores = mat @ self.qmat.T
                kk = min(k, len(ids))
                for qi in range(scores.shape[1]):
                    rows = _partial_topk_rows(-scores[:, qi], ids, kk)
                    out["query_id"].extend([self.qids[qi]] * len(rows))
                    out[id_col].extend(ids[rows].tolist())
                    out["cos"].extend(scores[rows, qi].tolist())
            return pa.table({
                "query_id": pa.array(out["query_id"], type=pa.int64()),
                id_col: pa.array(out[id_col], type=pa.int64()),
                "cos": pa.array(out["cos"], type=pa.float64()),
            })

    partials = ds.map_batches(ScoreLSH, batch_format="pyarrow",
                              concurrency=_pool_size(concurrency))
    merged = collect_arrow(partials)
    if merged.num_rows == 0:  # empty corpus: zero rows per query
        return pa.table({"query_id": pa.array([], type=pa.int64()),
                         id_col: pa.array([], type=pa.int64()),
                         "cos": pa.array([], type=pa.float64())})
    out = {"query_id": [], id_col: [], "cos": []}
    qids = merged["query_id"].to_numpy(zero_copy_only=False)
    vids = merged[id_col].to_numpy(zero_copy_only=False)
    cos = merged["cos"].to_numpy(zero_copy_only=False)
    for q in sorted(set(queries_ids)):
        mask = qids == q
        order = np.lexsort((vids[mask], -cos[mask]))[:k]
        out["query_id"].extend([q] * len(order))
        out[id_col].extend(vids[mask][order].tolist())
        out["cos"].extend(cos[mask][order].tolist())
    return pa.table({
        "query_id": pa.array(out["query_id"], type=pa.int64()),
        id_col: pa.array(out[id_col], type=pa.int64()),
        "cos": pa.array(out["cos"], type=pa.float64()),
    })


def kmeans_fit(ds, k: int = 16, iters: int = 10, id_col: str = "vec_id",
               vec_col: str = "embedding", sample_size: int = 2000,
               seed: int = 42):
    """Distributed spherical k-means (Lloyd's) over an embedding
    column — the iterative-algorithm representative next to the
    one-shot IVF codebook (:func:`_kmeans_lite` trains on a sample;
    this refines over the FULL dataset).

    Scale shape: the (id, vec) projection is materialized once into
    the object store (each iteration is a full pass; re-decoding the
    source per iteration would multiply ingest cost by ``iters``).
    Per iteration the centroid matrix (k x dim, tiny) is broadcast via
    ``ray.put``; each batch computes one vectorized partial —
    per-centroid vector sums (np.add.at), member counts, and inertia
    (sum of 1-cosine to the assigned centroid). Above
    ``_KMEANS_REDUCE_FANOUT`` blocks a TREE-COMBINE stage merges the
    per-block partials in tasks first, so the driver consumes
    O(blocks / fanout) rows per iteration instead of O(blocks) — at
    10^5+ blocks the flat merge would move GBs of partials through
    the driver. Empty clusters keep their previous centroid. Returns
    (centroids ndarray, assignments Dataset of (id, cluster),
    inertia_per_iter list)."""
    import ray

    proj = ds.map_batches(
        lambda b: b.select([id_col, vec_col]),
        batch_format="pyarrow").materialize()
    sample_tab = proj.limit(sample_size).take_batch(
        sample_size, batch_format="pyarrow")
    cents = _kmeans_lite(_to_matrix(sample_tab[vec_col]), k, seed=seed)
    k_eff, dim = cents.shape

    inertia_hist: list[float] = []
    for _ in range(iters):
        cref = ray.put(cents)

        def partial(batch: pa.Table) -> pa.Table:
            c = ray.get(cref)
            x = _normalize(_to_matrix(batch[vec_col]))
            sims = x @ c.T
            assign = np.argmax(sims, axis=1)
            sums = np.zeros((k_eff, dim), dtype=np.float64)
            np.add.at(sums, assign, x)
            counts = np.bincount(assign, minlength=k_eff)
            inertia = float(np.sum(1.0 - sims[np.arange(len(x)), assign]))
            return pa.table({
                "sums": pa.array([sums.ravel().tolist()],
                                 type=pa.list_(pa.float64())),
                "counts": pa.array([counts.tolist()],
                                   type=pa.list_(pa.int64())),
                "inertia": pa.array([inertia], type=pa.float64()),
            })

        def merge_partials(batch: pa.Table) -> pa.Table:
            s = _to_matrix(batch["sums"]).astype(np.float64).sum(axis=0)
            c = _to_matrix(batch["counts"]).astype(np.int64).sum(axis=0)
            i = float(pa.compute.sum(batch["inertia"]).as_py() or 0.0)
            return pa.table({
                "sums": pa.array([s.tolist()], type=pa.list_(pa.float64())),
                "counts": pa.array([c.tolist()], type=pa.list_(pa.int64())),
                "inertia": pa.array([i], type=pa.float64()),
            })

        # batch_size=None -> exactly one partial row per BLOCK, so the
        # num_blocks() tree-combine trigger below matches the actual
        # partial count (default batching would emit per-1024-rows)
        part_ds = proj.map_batches(partial, batch_format="pyarrow",
                                   batch_size=None)
        nb = proj.num_blocks()
        if nb > _KMEANS_REDUCE_FANOUT:
            part_ds = part_ds.repartition(
                max(1, nb // _KMEANS_REDUCE_FANOUT)).map_batches(
                merge_partials, batch_format="pyarrow", batch_size=None)
        sums = np.zeros((k_eff, dim), dtype=np.float64)
        counts = np.zeros(k_eff, dtype=np.int64)
        inertia = 0.0
        for row in part_ds.take_all():
            sums += np.asarray(row["sums"]).reshape(k_eff, dim)
            counts += np.asarray(row["counts"])
            inertia += row["inertia"]
        nonempty = counts > 0
        cents = np.where(nonempty[:, None],
                         sums / np.maximum(counts, 1)[:, None], cents)
        cents = _normalize(cents)
        inertia_hist.append(inertia)

    cref = ray.put(cents)

    def assign_final(batch: pa.Table) -> pa.Table:
        c = ray.get(cref)
        x = _normalize(_to_matrix(batch[vec_col]))
        a = np.argmax(x @ c.T, axis=1)
        return pa.table({id_col: batch[id_col],
                         "cluster": pa.array(a, type=pa.int64())})

    assignments = proj.map_batches(assign_final, batch_format="pyarrow")
    return cents, assignments, inertia_hist


def build_ivf_index(ds, index_dir: str, n_centroids: int = 64,
                    sample_size: int = 5000, id_col: str = "vec_id",
                    vec_col: str = "embedding", seed: int = 42,
                    quantize: str | None = None) -> dict:
    """PERSIST an IVF index: build-once / query-many, the shape real
    similarity search at corpus scale needs (the in-memory
    ivf_topk_cosine retrains its codebook per call).

    - codebook: k-means++ centroids from a driver sample, written as
      one small parquet (cell, centroid list).
    - data: one full streaming pass assigns every vector its nearest
      cell and writes hive-PARTITIONED parquet (one directory per
      cell), so a query's `cell IN probed` filter prunes at the READ —
      unprobed cells never leave storage.
    - ``quantize="int8"``: store each NORMALIZED vector as int8 codes
      plus one float32 scale (code x scale reconstructs; max |error|
      = scale/2 per component) — 8x smaller cells than list<float64>,
      the storage path a 10^9-vector corpus needs. Queries
      reconstruct per batch; recall contract tested/oracled.
    - ``meta.json`` is the commit marker of :mod:`.indexes`: a rebuild
      removes it, then the old cell data, and writes it last, so a
      rebuild never appends to old cells and a crashed build leaves no
      marker (:func:`ivf_index_topk` refuses the dir).

    Returns {"cells": n, "rows": n, "dir": index_dir}."""
    import os

    import pyarrow.parquet as pq
    import ray


    if quantize not in (None, "int8"):
        raise ValueError(f"quantize must be None or 'int8', got {quantize!r}")
    sample_tab = ds.limit(sample_size).take_batch(
        sample_size, batch_format="pyarrow")
    cents = _kmeans_lite(_to_matrix(sample_tab[vec_col]),
                         n_centroids, seed=seed)
    indexes.begin(index_dir, ["data"])
    pq.write_table(
        pa.table({
            "cell": pa.array(np.arange(len(cents)), type=pa.int64()),
            "centroid": pa.array(cents.tolist(),
                                 type=pa.list_(pa.float64())),
        }), os.path.join(index_dir, "codebook.parquet"))
    cref = ray.put(cents)

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(cref)
        x = _normalize(_to_matrix(batch[vec_col]))
        cell = np.argmax(x @ c.T, axis=1)
        if quantize == "int8":
            maxabs = np.abs(x).max(axis=1)
            scale = np.where(maxabs > 0, maxabs / 127.0, 1.0)
            codes = np.rint(x / scale[:, None]).astype(np.int8)
            n, dim = codes.shape
            qarr = pa.LargeListArray.from_arrays(
                pa.array(np.arange(n + 1, dtype=np.int64) * dim),
                pa.array(codes.ravel(), type=pa.int8()))
            return pa.table({
                id_col: batch[id_col],
                "q": qarr,
                "scale": pa.array(scale.astype(np.float32)),
                "cell": pa.array(cell, type=pa.int64()),
            })
        return pa.table({
            id_col: batch[id_col],
            vec_col: batch[vec_col],
            "cell": pa.array(cell, type=pa.int64()),
        })

    ds.map_batches(assign, batch_format="pyarrow").write_parquet(
        os.path.join(index_dir, "data"), partition_cols=["cell"])
    rows = indexes.commit(index_dir, {"quantize": quantize,
                                      "id_col": id_col,
                                      "vec_col": vec_col}, "data")
    return {"cells": len(cents), "rows": rows, "dir": index_dir}


def ivf_index_topk(index_dir: str, queries_ids: list[int],
                   queries_mat: np.ndarray, k: int = 10,
                   n_probe: int = 8) -> pa.Table:
    """Query a persisted IVF index: probed cells resolve against the
    tiny codebook on the driver; the data read is FILTERED to those
    cells at the parquet layer (hive-partition pruning — unprobed
    cells are never read). Scoring reuses the brute-force batch kernel
    over the pruned read; per-query results merge like topk_cosine.
    The id and vector columns are the build's (``meta.json``); a dir
    without a committed marker raises as :func:`indexes.open` does."""
    import os

    import pyarrow.parquet as pq


    meta = indexes.open(index_dir)
    quantize, id_col, vec_col = meta["quantize"], meta["id_col"], \
        meta["vec_col"]
    book = pq.read_table(os.path.join(index_dir, "codebook.parquet"))
    cents = _to_matrix(book["centroid"])
    q = _normalize(np.asarray(queries_mat, dtype=np.float64))
    probe = np.argsort(-(q @ cents.T), axis=1)[:, :n_probe]

    # manual hive-partition pruning: pass ONLY the probed cells' hive
    # directories to the read (Ray's fragment sampler cannot bind a
    # filter on a partition-only column, so directory selection does
    # the pruning — unprobed cells never leave storage either way)
    paths = indexes.shard_files(os.path.join(index_dir, "data"),
                                probe.ravel(), key="cell")
    if not paths:
        return pa.table({"query_id": pa.array([], pa.int64()),
                         id_col: pa.array([], pa.int64()),
                         "cos": pa.array([], pa.float64())})
    if quantize == "int8":
        ds = read_parquet_clean(paths, columns=[id_col, "q", "scale"])

        def dequant(batch: pa.Table) -> pa.Table:
            codes = _to_matrix(batch["q"])
            scale = batch["scale"].to_numpy(
                zero_copy_only=False).astype(np.float64)
            x = codes * scale[:, None]
            n, dim = x.shape
            varr = pa.LargeListArray.from_arrays(
                pa.array(np.arange(n + 1, dtype=np.int64) * dim),
                pa.array(x.ravel(), type=pa.float64()))
            return pa.table({id_col: batch[id_col], vec_col: varr})

        ds = ds.map_batches(dequant, batch_format="pyarrow")
    else:
        ds = read_parquet_clean(paths, columns=[id_col, vec_col])
    return topk_cosine(ds, queries_ids, queries_mat, k=k,
                       id_col=id_col, vec_col=vec_col)


def semantic_dedup(ds, threshold: float = 0.95, k: int = 16,
                   id_col: str = "vec_id", vec_col: str = "embedding",
                   sample_size: int = 2000, seed: int = 42):
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): semantic
    deduplication over an embedding column — cluster with spherical
    k-means, then inside each cluster greedily drop every vector whose
    cosine to an already-kept cluster member is >= ``threshold``.
    Unlike :func:`near_dup_pairs` (which reports pairs), this emits a
    keep/drop DECISION per vector naming the duplicate representative.

    Keep order is the paper's: within a cluster, candidates are
    visited by ASCENDING similarity to the centroid (most atypical
    examples kept first, preserving diversity), ties broken by id —
    deterministic across runs and partitionings.

    Returns a Dataset of ``(id_col, cluster int64, centroid_sim
    float64, is_dup bool, rep nullable id, cos_to_rep nullable
    float64)``: survivors are the ``~is_dup`` rows; every dropped row
    names the kept member it duplicates and their exact cosine
    (>= threshold by construction — asserted in tests and by the
    driver query's in-result contract columns).

    Scale shape: the codebook comes from a driver sample
    (:func:`_kmeans_lite`, broadcast via ``ray.put`` once); ONE key
    co-location (``exchange.by_key``, staged when this is called)
    moves each (id, vec) row to its cluster's bucket — the one
    exchange the algorithm inherently needs, since exact within-
    cluster cosines require co-located vectors. Inside a cluster the
    greedy pass runs in 256-row tiles: one matmul against the
    kept-so-far matrix plus one tile x tile matmul, then a tile-local
    sequential resolve — Python cost O(m/256) iterations per cluster,
    flops O(m x kept x dim). The O(m^2) worst case is the algorithm's
    own; SemDeDup bounds it by choosing k ~ N/target_cluster_size
    (pick k so clusters hold ~10^4-10^5 vectors and each fits one
    worker's heap)."""
    import ray
    import ray.data as rd

    from .exchange import by_key

    empty = pa.table({
        id_col: pa.array([], pa.int64()),
        "cluster": pa.array([], pa.int64()),
        "centroid_sim": pa.array([], pa.float64()),
        "is_dup": pa.array([], pa.bool_()),
        "rep": pa.array([], pa.int64()),
        "cos_to_rep": pa.array([], pa.float64()),
    })
    try:
        sample_tab = ds.limit(sample_size).take_batch(
            sample_size, batch_format="pyarrow")
    except ValueError:  # empty corpus: typed empty decision table
        return rd.from_arrow(empty)

    cents = _kmeans_lite(_to_matrix(sample_tab[vec_col]), k, seed=seed)
    cref = ray.put(cents)
    id_type = sample_tab[id_col].type
    empty = empty.set_column(0, id_col, pa.array([], id_type)) \
        .set_column(4, "rep", pa.array([], id_type))

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(cref)
        x = _normalize(_to_matrix(batch[vec_col]))
        # einsum (optimize=False) accumulates the dot in a fixed
        # per-row order INDEPENDENT of batch shape — a GEMM here can
        # differ by an ULP across block splits, and a near-boundary
        # vector (e.g. a planted clone in a different block than its
        # original) would then land in a different CLUSTER, breaking
        # the exact-count dedup contract. ~2x slower than BLAS on
        # this k x dim, which the determinism guarantee is worth.
        sims = np.einsum("nd,kd->nk", x, c, optimize=False)
        a = np.argmax(sims, axis=1)
        return pa.table({
            id_col: batch[id_col],
            vec_col: batch[vec_col],
            "cluster": pa.array(a, type=pa.int64()),
            "centroid_sim": pa.array(sims[np.arange(len(x)), a],
                                     type=pa.float64()),
        })

    def dedup_cluster(t: pa.Table) -> pa.Table:
        # Recompute centroid sims for the WHOLE cluster with the same
        # fixed-order einsum the assign stage uses: the visit order —
        # and the survivor of an exact-dup tie — must never depend on
        # how blocks were split upstream (belt and braces on top of
        # the deterministic assign).
        ids0 = t[id_col].to_numpy(zero_copy_only=False)
        x0 = _normalize(_to_matrix(t[vec_col]))
        cid = int(t["cluster"][0].as_py())
        sims0 = np.einsum("nd,d->n", x0, ray.get(cref)[cid],
                          optimize=False)
        order = np.lexsort((ids0, sims0))
        t = (t.set_column(t.schema.get_field_index("centroid_sim"),
                          "centroid_sim",
                          pa.array(sims0, type=pa.float64()))
             .take(pa.array(order, type=pa.int64())))
        ids = ids0[order]
        x = x0[order]
        m = len(ids)
        is_dup = np.zeros(m, dtype=bool)
        rep_idx = np.full(m, -1, dtype=np.int64)
        cos_rep = np.zeros(m)
        kept: list[int] = []
        for lo in range(0, m, 256):
            hi = min(lo + 256, m)
            tile = x[lo:hi]
            nt = hi - lo
            if kept:
                gs = tile @ x[np.asarray(kept)].T   # vs earlier-kept
                gbest = np.argmax(gs, axis=1)
                gval = gs[np.arange(nt), gbest]
            else:
                gbest = np.zeros(nt, dtype=np.int64)
                gval = np.full(nt, -np.inf)
            ts = tile @ tile.T                      # tile-local sims
            tile_kept: list[int] = []
            for j in range(nt):
                bv = gval[j]
                bi = kept[gbest[j]] if kept else -1
                if tile_kept:
                    tv = ts[j, tile_kept]
                    jm = int(np.argmax(tv))
                    if tv[jm] > bv:
                        bv, bi = float(tv[jm]), lo + tile_kept[jm]
                if bv >= threshold:
                    is_dup[lo + j] = True
                    rep_idx[lo + j] = bi
                    cos_rep[lo + j] = bv
                else:
                    tile_kept.append(j)
            kept.extend(lo + jj for jj in tile_kept)
        dup_sel = np.flatnonzero(rep_idx >= 0)
        rep = np.zeros(m, dtype=ids.dtype)
        rep[dup_sel] = ids[rep_idx[dup_sel]]
        return pa.table({
            id_col: t[id_col],
            "cluster": t["cluster"],
            "centroid_sim": t["centroid_sim"],
            "is_dup": pa.array(is_dup),
            "rep": pa.array(rep, type=id_type, mask=rep_idx < 0),
            "cos_to_rep": pa.array(cos_rep, type=pa.float64(),
                                   mask=rep_idx < 0),
        })

    def dedup_bucket(t: pa.Table) -> pa.Table:
        outs = [dedup_cluster(t.filter(pc.equal(t["cluster"], c)))
                for c in pc.unique(t["cluster"]).to_pylist()]
        return pa.concat_tables(outs) if outs else empty

    return by_key([ds], ["cluster"], dedup_bucket, maps=[assign])



def knn_join(ds, k: int = 5, mode: str = "exact",
             id_col: str = "vec_id", vec_col: str = "embedding",
             n_bands: int = 16, band_planes: int = 6, seed: int = 42,
             max_bucket: int = 4096) -> pa.Table:
    """kNN GRAPH over an embedding column: for EVERY vector, its k
    nearest neighbors by cosine (excluding itself) — the self-join
    sibling of :func:`topk_cosine` (queries-vs-corpus) and the
    building block for graph clustering / SemDeDup-style diagnostics.
    Returns (id_col, nb, cos) sorted by (id, cos desc, nb).

    ``mode="exact"``: the O(N^2/p) baseline — the normalized corpus
    matrix broadcasts once via ``ray.put``; each batch scores against
    it and keeps its rows' top-k, so the driver merge handles N x k
    tiny rows, never a matrix. Right answer, quadratic flops: use at
    N up to ~10^5-10^6 depending on dim.

    ``mode="lsh"``: the scale path — random-hyperplane band signatures
    route each vector into ``n_bands`` buckets; candidate pairs come
    from bucket co-occurrence (collect.lsh_pairs_verify: size-adaptive,
    driver never holds the pair list at scale), cosines verify exactly
    and distributed, and the per-id top-k merge runs over the
    candidate pairs only. Recall is measured against exact in tests
    and by the driver query's contract; raise ``n_bands`` (or lower
    ``band_planes``) for corpora whose true neighbors are far apart.
    Neighbors an id shares NO bucket with are unreachable — that is
    the LSH trade."""
    from .collect import lsh_pairs_verify

    try:
        first = ds.take_batch(1, batch_format="pyarrow")
    except ValueError:
        return pa.table({id_col: pa.array([], pa.int64()),
                         "nb": pa.array([], pa.int64()),
                         "cos": pa.array([], pa.float64())})
    import ray

    if mode == "exact":
        proj = ds.map_batches(lambda b: b.select([id_col, vec_col]),
                              batch_format="pyarrow")
        full = collect_arrow(proj)
        ids_all = full[id_col].to_numpy(zero_copy_only=False)
        mat = _normalize(_to_matrix(full[vec_col]))
        ref = ray.put((ids_all, mat))

        def score(batch: pa.Table) -> pa.Table:
            cid, cmat = ray.get(ref)
            x = _normalize(_to_matrix(batch[vec_col]))
            bids = batch[id_col].to_numpy(zero_copy_only=False)
            n = len(bids)
            sims = x @ cmat.T
            # mask self-matches by id (vectorized; per-row sims are
            # against the FULL corpus, so results are independent of
            # how the corpus was batched)
            sims[bids[:, None] == cid[None, :]] = -np.inf
            kk = min(k, len(cid) - 1)
            part = np.argpartition(-sims, kth=kk - 1, axis=1)[:, :kk]
            part = np.take_along_axis(        # nb-id ascending among ties
                part, np.argsort(cid[part], axis=1, kind="stable"),
                axis=1)
            vals = np.take_along_axis(sims, part, axis=1)
            order = np.argsort(-vals, axis=1, kind="stable")
            part = np.take_along_axis(part, order, axis=1)
            vals = np.take_along_axis(vals, order, axis=1)
            # argpartition keeps an ARBITRARY subset of values tied at
            # the k-th boundary; the contract (and the SQL oracle) is
            # cos desc THEN nb asc. Repair only the rows where ties
            # actually straddle the boundary (rare: duplicate vectors)
            # with the exact total-order selection.
            kthv = vals[:, -1]
            tie_total = (sims == kthv[:, None]).sum(axis=1)
            tie_sel = (vals == kthv[:, None]).sum(axis=1)
            for j in np.flatnonzero(tie_total != tie_sel):
                sel = _partial_topk_rows(-sims[j], cid, kk)
                part[j] = sel
                vals[j] = sims[j][sel]
            return pa.table({
                id_col: pa.array(np.repeat(bids, kk), pa.int64()),
                "nb": pa.array(cid[part.ravel()], pa.int64()),
                "cos": pa.array(vals.ravel(), pa.float64()),
            })

        out = collect_arrow(ds.map_batches(score, batch_format="pyarrow"))
    else:
        dim = len(first[vec_col][0])
        planes = _band_planes(dim, n_bands, band_planes, seed)
        sig_ds = ds.map_batches(
            lambda b: near_dup_band_rows(b, planes, n_bands,
                                         band_planes, id_col, vec_col),
            batch_format="pyarrow")

        def verify(pairs: pa.Table, payload: pa.Table) -> pa.Table:
            ids_f = payload[id_col].to_numpy(zero_copy_only=False)
            order = np.argsort(ids_f)
            vmat = _normalize(_to_matrix(payload[vec_col]))
            ai = order[np.searchsorted(
                ids_f[order],
                pairs["id_a"].to_numpy(zero_copy_only=False))]
            bi = order[np.searchsorted(
                ids_f[order],
                pairs["id_b"].to_numpy(zero_copy_only=False))]
            cos = np.einsum("ij,ij->i", vmat[ai], vmat[bi])
            return pa.table({
                "id_a": pairs["id_a"],
                "id_b": pairs["id_b"],
                "cos": pa.array(cos, pa.float64()),
            })

        pairs = lsh_pairs_verify(ds, sig_ds, id_col, [vec_col], verify,
                                 max_bucket=max_bucket)
        if pairs.num_rows == 0 or pairs.num_columns == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "nb": pa.array([], pa.int64()),
                             "cos": pa.array([], pa.float64())})
        # symmetric expand, then per-id top-k over the candidates
        a = pairs["id_a"].to_numpy(zero_copy_only=False)
        b = pairs["id_b"].to_numpy(zero_copy_only=False)
        c = pairs["cos"].to_numpy(zero_copy_only=False)
        src = np.concatenate([a, b])
        nb = np.concatenate([b, a])
        cs = np.concatenate([c, c])
        order = np.lexsort((nb, -cs, src))
        src, nb, cs = src[order], nb[order], cs[order]
        starts = np.concatenate(
            [[0], np.flatnonzero(np.diff(src)) + 1, [len(src)]])
        # vectorized per-run rank < k (no per-id Python on the scale
        # path): position within each id's candidate run
        runs = np.diff(starts)
        rank = np.arange(len(src)) - np.repeat(starts[:-1], runs)
        keep = rank < k
        out = pa.table({
            id_col: pa.array(src[keep], pa.int64()),
            "nb": pa.array(nb[keep], pa.int64()),
            "cos": pa.array(cs[keep], pa.float64()),
        })
    order = pc.sort_indices(
        out, sort_keys=[(id_col, "ascending"), ("cos", "descending"),
                        ("nb", "ascending")])
    return out.take(order)
