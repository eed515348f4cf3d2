"""Training-data text operators: deduplication and text analysis.

Beyond the reference's operator set (it has none of these — README.md
roadmap), these are the operations a large-scale training-data pipeline
needs, expressed Ray-Data-first:

- exact dedup:      128-bit content hash in map_batches ->
                    groupby(hash) loser ids -> map-side anti-join.
- MinHash-LSH:      shingle -> minhash -> (band, hash, id) rows ->
                    groupby(band) candidate pairs -> keyed text fetch
                    -> exact Jaccard verify.
- SimHash:          64-bit simhash + banded buckets -> Hamming verify.
- text analysis:    word counts, punctuation/stopword/upper ratios,
                    language id (n-gram heuristic), md5 fingerprint —
                    one vectorized map_batches pass.

Scale notes: every pairwise stage is confined to an LSH/band bucket
(never all-pairs), and NO shuffle carries text — only fixed-width
(hash, id) rows move in the candidate exchanges. Exact-verify stages
run DISTRIBUTED (collect.distributed_pair_verify): candidate payloads
are routed to hash-bucketed verify tasks and never materialize on the
driver; exact dedup's loser resolution re-reads only the (small)
hot-bucket set map-side.

Above SMALL_SIG_ROWS the candidate PAIRS themselves are generated,
bucketed and verified inside tasks (collect.lsh_pairs_verify scale
path) — the driver holds only the hot key set and the
(id, verify-bucket) need list, never a pair list.
"""

from __future__ import annotations

import hashlib
import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import indexes
from .hashing import hash_strings
from .sources import read_parquet_clean

# --- exact dedup ------------------------------------------------------------


def dedup_signatures(batch: pa.Table, text_col: str = "text",
                     id_col: str = "doc_id") -> pa.Table:
    """(h1, h2, id) rows — the ONLY thing exact dedup ever shuffles.
    h1‖h2 is a 128-bit content identity (two independent polynomial
    bases); text never leaves the map side."""
    from .streams import str_stream_from_arrow

    lengths, data, _ = str_stream_from_arrow(batch[text_col])
    h1 = hash_strings(lengths, data).view(np.int64)
    h2 = hash_strings(lengths, data, base=131).view(np.int64)
    return pa.table({
        "_h": pa.array(h1, type=pa.int64()),
        "_h2": pa.array(h2, type=pa.int64()),
        id_col: batch[id_col],
    })


def dedup_loser_ids(ds, text_col: str = "text", id_col: str = "doc_id",
                    priority_col: str | None = None) -> pa.Table:
    """Ids dropped by exact dedup: everything but the survivor per
    distinct TEXT — the min id, or with ``priority_col`` the row with
    the LARGEST priority (ties by min id), the keep-the-best-duplicate
    policy a quality-scored training corpus wants. The shuffle moves 24 B/row (hash pair + id)
    regardless of document size; the hash pair only nominates
    candidate groups — actual texts of the (small) hot-bucket set are
    re-fetched and compared, so a polynomial-hash collision (random or
    adversarially constructed) never silently drops a document.

    Hot-bucket shape (no per-group Python over N singleton groups): a
    vectorized groupby(_h).count() finds hashes seen >= 2 times; only
    those rows are pulled and resolved — unique documents never touch
    anything but the count aggregate."""
    import numpy as np

    from .collect import distributed_group_verify, hot_bucket_rows

    sig_ds = ds.map_batches(lambda b: dedup_signatures(b, text_col, id_col),
                            batch_format="pyarrow").materialize()
    sch = sig_ds.schema()
    if sch is None:  # wholly empty corpus: no losers (type moot)
        return pa.table({id_col: pa.array([], pa.int64())})
    id_type = sch.base_schema.field(id_col).type
    empty = pa.table({id_col: pa.array([], id_type)})
    rows = hot_bucket_rows(sig_ds, "_h")
    if rows.num_rows == 0:
        return empty
    h1 = rows["_h"].to_numpy(zero_copy_only=False)
    h2 = rows["_h2"].to_numpy(zero_copy_only=False)
    ids = rows[id_col].to_numpy(zero_copy_only=False)
    order = np.lexsort((ids, h2, h1))
    h1s, h2s, ids_s = h1[order], h2[order], ids[order]
    # run starts per (h1, h2): candidate duplicate groups
    new_group = np.empty(len(ids_s), dtype=bool)
    new_group[0] = True
    new_group[1:] = (h1s[1:] != h1s[:-1]) | (h2s[1:] != h2s[:-1])
    # member of any >=2 run (hot_bucket_rows keys on _h only, so a
    # singleton (_h,_h2) run can appear here; it is never a loser)
    run_id = np.cumsum(new_group) - 1
    run_sizes = np.bincount(run_id)
    in_dup_run = run_sizes[run_id] >= 2
    cand_ids = ids_s[in_dup_run]
    if len(cand_ids) == 0:
        return empty
    # verify on actual text: within a hash group, one survivor (min
    # id) per DISTINCT text — colliding-but-different texts all survive.
    # DISTRIBUTED (round-4 review item): candidate texts route to
    # hash-bucket verify tasks (distributed_group_verify — a group
    # never splits across buckets), each bucket resolves its groups
    # and returns LOSER IDS ONLY, so driver residency is O(candidate
    # ids), never O(duplicate-run text bytes) — at 100 TB with a
    # template-heavy corpus the old fetch_by_ids->driver collect was
    # tens of TB of driver-resident text.
    memb = pa.table({
        "_h": pa.array(h1s[in_dup_run]),
        "_h2": pa.array(h2s[in_dup_run]),
        id_col: pa.array(ids_s[in_dup_run], type=id_type),
    })
    payload_cols = [text_col] + ([priority_col] if priority_col else [])

    def resolve_groups(membs: pa.Table, payload: pa.Table) -> pa.Table:
        t = membs.join(payload, keys=id_col, join_type="inner")
        n = t.num_rows
        if n == 0:
            return pa.table({id_col: pa.array([], id_type)})
        sort_keys = [("_h", "ascending"), ("_h2", "ascending"),
                     (text_col, "ascending")]
        if priority_col:
            sort_keys.append((priority_col, "descending"))
        sort_keys.append((id_col, "ascending"))
        t = t.take(pc.sort_indices(t, sort_keys=sort_keys))
        txt = t[text_col].combine_chunks()
        same_hash = np.empty(n, dtype=bool)
        same_hash[0] = False
        for c in ("_h", "_h2"):
            a = t[c].to_numpy(zero_copy_only=False)
            if c == "_h":
                same_hash[1:] = a[1:] == a[:-1]
            else:
                same_hash[1:] &= a[1:] == a[:-1]
        same_text = np.zeros(n, dtype=bool)
        if n > 1:
            same_text[1:] = pc.equal(
                txt.slice(1), txt.slice(0, n - 1)).to_numpy(
                    zero_copy_only=False)
        losers = t[id_col].to_numpy(
            zero_copy_only=False)[same_hash & same_text]
        return pa.table({id_col: pa.array(losers, type=id_type)})

    out = distributed_group_verify(
        ds, memb, id_col, payload_cols, resolve_groups,
        group_hash=h1s[in_dup_run].view(np.uint64))
    if out.num_rows == 0 or out.num_columns == 0:
        return empty
    losers = out[id_col].to_numpy(zero_copy_only=False)
    return pa.table({id_col: pa.array(np.sort(losers), type=id_type)})


def exact_dedup(ds, text_col: str = "text", id_col: str = "doc_id",
                priority_col: str | None = None):
    """One survivor per distinct text: the min id, or with
    ``priority_col`` the max-priority row (keep-the-best-duplicate).

    Scale design: phase 1 shuffles (hash128, id) only and emits the
    LOSER id set (the duplicates — small when duplication is modest);
    phase 2 anti-joins it map-side against the source, so surviving
    rows (with their text) stream straight from the input and no text
    payload ever crosses the exchange. The loser id set is broadcast
    via ``ray.put`` — one zero-copy Arrow array per NODE (not a pickled
    closure copy per worker heap). For corpora where the loser set
    exceeds node memory (extreme duplication), swap phase 2 for a
    hash-partitioned anti-join keyed on id."""
    import ray

    losers = dedup_loser_ids(ds, text_col, id_col,
                             priority_col=priority_col)
    if losers.num_rows == 0:
        return ds
    lose_ref = ray.put(losers[id_col].combine_chunks())

    def keep(batch: pa.Table) -> pa.Table:
        lose_arr = ray.get(lose_ref)  # shared-memory fetch, once per task
        mask = pc.invert(
            pc.is_in(batch[id_col], value_set=lose_arr.cast(batch[id_col].type))
        )
        return batch.filter(mask)

    return ds.map_batches(keep, batch_format="pyarrow")


# --- shingles + MinHash -----------------------------------------------------

_MERSENNE = (1 << 61) - 1


def _char_shingles(text: str, k: int = 5) -> np.ndarray:
    b = text.encode("utf-8")
    if len(b) < k:
        return np.array([hash_strings(np.array([len(b)]), b)[0]], dtype=np.uint64) \
            if b else np.array([0], dtype=np.uint64)
    arr = np.frombuffer(b, dtype=np.uint8).astype(np.uint64)
    # polynomial rolling hash of every k-gram, vectorized
    weights = np.power(np.uint64(257), np.arange(k, dtype=np.uint64))
    n = len(arr) - k + 1
    idx = np.arange(n)[:, None] + np.arange(k)[None, :]
    return (arr[idx] * weights).sum(axis=1)


_INV257 = np.uint64(pow(257, -1, 1 << 64))  # 257 is odd -> invertible mod 2^64


def _batch_shingle_stream(lengths: np.ndarray, data: bytes,
                          k: int = 5) -> tuple[np.ndarray, np.ndarray]:
    """Shingle hashes for EVERY document in one vectorized pass (no
    per-document Python): rolling k-gram polynomial hashes over the
    concatenated UTF-8 byte stream via prefix sums.

    shingle(p) = sum_j b[p+j] * 257^j mod 2^64
               = (S[p+k] - S[p]) * inv(257)^local(p)   with
    S = prefix sum of b[i] * 257^local(i) — all arithmetic wraps mod
    2^64, where 257 is invertible. Values are bit-identical to
    :func:`_char_shingles` per document. Documents shorter than k
    contribute one hash_strings value (empty docs: 0), matching the
    per-doc fallback.

    Returns (shingles concatenated uint64, doc offsets int64[n+1])."""
    n = len(lengths)
    lengths = np.ascontiguousarray(lengths, dtype=np.int64)
    offsets = np.empty(n + 1, dtype=np.int64)
    offsets[0] = 0
    np.cumsum(lengths, out=offsets[1:])
    total = int(offsets[-1])
    counts = np.where(lengths >= k, lengths - k + 1, 1)
    out_offsets = np.empty(n + 1, dtype=np.int64)
    out_offsets[0] = 0
    np.cumsum(counts, out=out_offsets[1:])
    out = np.zeros(int(out_offsets[-1]), dtype=np.uint64)
    if n == 0:
        return out, out_offsets
    b = np.frombuffer(data, dtype=np.uint8, count=total).astype(np.uint64)
    starts = offsets[:-1]
    local = np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)
    max_len = max(int(lengths.max()), 1)
    pow257 = np.empty(max_len, dtype=np.uint64)
    pow257[0] = 1
    if max_len > 1:
        np.multiply.accumulate(
            np.full(max_len - 1, 257, dtype=np.uint64), out=pow257[1:])
    inv257 = np.empty(max_len, dtype=np.uint64)
    inv257[0] = 1
    if max_len > 1:
        np.multiply.accumulate(
            np.full(max_len - 1, _INV257, dtype=np.uint64), out=inv257[1:])
    S = np.empty(total + 1, dtype=np.uint64)
    S[0] = 0
    np.cumsum(b * pow257[local], out=S[1:])
    long = lengths >= k
    if long.any():
        cnt_l = counts[long]
        starts_l = starts[long]
        n_out_l = int(cnt_l.sum())
        # per-shingle local position within its doc, then global byte pos
        compact_starts = np.concatenate(
            [[0], np.cumsum(cnt_l[:-1])]).astype(np.int64)
        pos_local = (np.arange(n_out_l, dtype=np.int64)
                     - np.repeat(compact_starts, cnt_l))
        gpos = np.repeat(starts_l, cnt_l) + pos_local
        vals = (S[gpos + k] - S[gpos]) * inv257[pos_local]
        np.place(out, np.repeat(long, counts), vals)
    short = (~long) & (lengths > 0)
    if short.any():
        # gather the short docs' bytes and hash each whole string
        sel = np.flatnonzero(short)
        lens_s = lengths[sel]
        chunks = b"".join(
            data[int(offsets[i]): int(offsets[i + 1])] for i in sel.tolist())
        hs = hash_strings(lens_s, chunks)
        out[out_offsets[:-1][sel]] = hs
    return out, out_offsets


def batch_minhash_signatures(lengths: np.ndarray, data: bytes,
                             n_perm: int = 64, shingle_k: int = 5,
                             seed: int = 42) -> np.ndarray:
    """(n_docs, n_perm) minhash signature matrix: per document, the min
    of ``(a*x + b) mod p`` over its :func:`_char_shingles` for each of
    ``n_perm`` seeded universal hashes, computed with ONE vectorized
    pass over all documents: batched rolling-hash shingles (see
    _batch_shingle_stream) + per-permutation ``np.minimum.reduceat``
    over doc boundaries. Tests check it against a per-document
    reference (``tests/test_textops.py``)."""
    sh, out_offsets = _batch_shingle_stream(lengths, data, shingle_k)
    n = len(out_offsets) - 1
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, n_perm, dtype=np.uint64)
    b = rng.integers(0, _MERSENNE, n_perm, dtype=np.uint64)
    x = sh % np.uint64(_MERSENNE)
    sigs = np.empty((n, n_perm), dtype=np.uint64)
    if n == 0:
        return sigs
    starts = out_offsets[:-1]
    for p in range(n_perm):
        vals = (x * a[p] + b[p]) % np.uint64(_MERSENNE)
        sigs[:, p] = np.minimum.reduceat(vals, starts)
    return sigs


def minhash_band_rows(batch: pa.Table, text_col: str = "text",
                      id_col: str = "doc_id", n_perm: int = 64,
                      bands: int = 16, shingle_k: int = 5) -> pa.Table:
    """(bucket key, id) rows — the ONLY thing MinHash-LSH ever shuffles
    (16 B/row x bands). The key mixes the band index into the band's
    signature hash; neither text nor the full signature travels, and
    row assembly is numpy repeat/tile, no per-row lists."""
    from .streams import str_stream_from_arrow

    lengths, data, _ = str_stream_from_arrow(batch[text_col])
    n = len(lengths)
    sigs = batch_minhash_signatures(lengths, data, n_perm, shingle_k)
    bh = _band_keys(sigs, bands)  # (n, bands) — shared with the
    # persisted index (build_minhash_index) so they cannot diverge
    ids = batch[id_col].to_numpy(zero_copy_only=False)
    return pa.table({
        "bk": pa.array(bh.reshape(-1)),
        id_col: pa.array(np.repeat(ids, bands)),
    })


def minhash_lsh_pairs(ds, text_col: str = "text", id_col: str = "doc_id",
                      n_perm: int = 64, bands: int = 16,
                      jaccard_threshold: float = 0.7, shingle_k: int = 5,
                      max_bucket: int = 4096, as_refs: bool = False):
    """Near-duplicate pairs via MinHash + LSH banding.

    Scale design, three phases:

    1. map: shingle -> minhash -> (bucket key, id) rows; the shuffle
       payload is fixed-width ids and hashes — never text.
    2. hot-bucket candidate generation (collect.bucket_candidate_pairs):
       a vectorized groupby().count() finds buckets with >= 2 members;
       only those rows are pulled and paired — no per-group Python.
       Buckets larger than ``max_bucket`` are degenerate collisions
       (empty/near-empty docs) and are dropped rather than exploding
       O(m^2).
    3. exact verify, DISTRIBUTED (collect.distributed_pair_verify):
       pairs are bucketed by hash(id_a); one streaming pass routes
       each candidate text to the buckets that need it (texts move
       once per needing bucket — bounded by the candidate set, never
       the corpus, and never through the driver); per bucket, a
       vectorized minhash-estimated-jaccard cull drops the bulk of
       templated-cluster over-generation, then exact shingle Jaccard
       keeps pairs >= threshold.

    Returns Dataset[(id_a, id_b, jaccard)] with id_a < id_b — or, with
    ``as_refs=True``, the raw per-verify-bucket ObjectRefs of the
    surviving pair tables (unsorted, never concatenated on the driver;
    the input to :func:`components.distributed_components`)."""
    import ray.data as rd

    from .collect import lsh_pairs_verify

    sig_ds = ds.map_batches(
        lambda b: minhash_band_rows(b, text_col, id_col, n_perm,
                                    bands, shingle_k),
        batch_format="pyarrow")
    empty = pa.table({"id_a": pa.array([], pa.int64()),
                      "id_b": pa.array([], pa.int64()),
                      "jaccard": pa.array([], pa.float64())})

    def derive(sub: pa.Table) -> pa.Table:
        """Signature column computed ONCE per routed doc (route pass),
        so verify buckets never recompute it per payload replica —
        ships n_perm*8 B alongside the text."""
        from .streams import str_stream_from_arrow

        lengths, data, _ = str_stream_from_arrow(sub[text_col])
        return sub.append_column("_sig", _sig_array(
            batch_minhash_signatures(lengths, data, n_perm, shingle_k)))

    def verify(pairs: pa.Table, payload: pa.Table) -> pa.Table:
        from .streams import str_stream_from_arrow

        ids_f = payload[id_col].to_numpy(zero_copy_only=False)
        order = np.argsort(ids_f)
        ids_sorted = ids_f[order]
        sig_mat = _sig_matrix(payload["_sig"], n_perm)
        ai = order[np.searchsorted(
            ids_sorted, pairs["id_a"].to_numpy(zero_copy_only=False))]
        bi = order[np.searchsorted(
            ids_sorted, pairs["id_b"].to_numpy(zero_copy_only=False))]
        est = np.empty(len(ai), dtype=np.float64)
        for s in range(0, len(ai), 200_000):  # chunked: bound peak memory
            e = min(s + 200_000, len(ai))
            est[s:e] = (sig_mat[ai[s:e]] == sig_mat[bi[s:e]]).mean(axis=1)
        keep = est >= jaccard_threshold - 0.15
        # exact shingle sets ONLY for docs referenced by surviving
        # pairs (the est-cull drops the bulk of candidates)
        used = np.unique(np.concatenate([ai[keep], bi[keep]])) \
            if keep.any() else np.empty(0, np.int64)
        sub_pay = payload.select([text_col]).take(
            pa.array(used, type=pa.int64()))
        lengths, data, _ = str_stream_from_arrow(sub_pay[text_col])
        sh, offs = _batch_shingle_stream(lengths, data, shingle_k)
        sets: dict = {}

        def shingle_set(u):
            if u not in sets:
                sets[u] = set(sh[offs[u]: offs[u + 1]].tolist())
            return sets[u]

        a_ids = pairs["id_a"].to_numpy(zero_copy_only=False)[keep]
        b_ids = pairs["id_b"].to_numpy(zero_copy_only=False)[keep]
        ua = np.searchsorted(used, ai[keep])
        ub = np.searchsorted(used, bi[keep])
        a_out, b_out, j_out = [], [], []
        for a, b, ia, ib in zip(a_ids.tolist(), b_ids.tolist(),
                                ua.tolist(), ub.tolist()):
            sa, sb = shingle_set(ia), shingle_set(ib)
            union = len(sa | sb)
            jac = len(sa & sb) / union if union else 1.0
            if jac >= jaccard_threshold:
                a_out.append(a)
                b_out.append(b)
                j_out.append(jac)
        return pa.table({"id_a": pa.array(a_out, pa.int64()),
                         "id_b": pa.array(b_out, pa.int64()),
                         "jaccard": pa.array(j_out, pa.float64())})

    if as_refs:
        return lsh_pairs_verify(ds, sig_ds, id_col, [text_col], verify,
                                max_bucket=max_bucket, derive_fn=derive,
                                as_refs=True)
    out = lsh_pairs_verify(ds, sig_ds, id_col, [text_col], verify,
                           max_bucket=max_bucket, derive_fn=derive)
    if out.num_rows == 0 or out.num_columns == 0:
        return rd.from_arrow(empty)
    return rd.from_arrow(out.take(pc.sort_indices(
        out, sort_keys=[("id_a", "ascending"), ("id_b", "ascending")])))


def near_dedup(ds, text_col: str = "text", id_col: str = "doc_id",
               n_perm: int = 64, bands: int = 16,
               jaccard_threshold: float = 0.7, shingle_k: int = 5):
    """Remove near-duplicates: MinHash-LSH pairs -> DISTRIBUTED
    connected components (min-label propagation with pointer jumping
    over hash-partitioned adjacency, components.py) -> keep the min id
    per cluster; everything else is dropped. The pair list never
    concatenates on the driver — pairs stay as per-verify-bucket
    object-store fragments end to end; the driver holds only the final
    loser-id array (O(duplicates), needed for the broadcast filter
    anyway). Survivors (with text) stream straight from the source —
    the same no-text-through-the-shuffle shape as exact_dedup."""
    from .components import distributed_components

    pair_refs = minhash_lsh_pairs(
        ds, text_col, id_col, n_perm, bands, jaccard_threshold, shingle_k,
        as_refs=True)
    losers = distributed_components(pair_refs)

    import ray

    if not len(losers):
        return ds
    lose_ref = ray.put(pa.array(losers, type=pa.int64()))

    def keep(batch: pa.Table) -> pa.Table:
        lose_arr = ray.get(lose_ref)  # shared-memory fetch, once per task
        mask = pc.invert(
            pc.is_in(batch[id_col], value_set=lose_arr.cast(batch[id_col].type)))
        return batch.filter(mask)

    return ds.map_batches(keep, batch_format="pyarrow")


# --- SimHash ----------------------------------------------------------------


_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount (byte-table lookup; numpy<2 has no
    bitwise_count)."""
    return _POP8[np.ascontiguousarray(x).view(np.uint8).reshape(-1, 8)] \
        .sum(axis=1).astype(np.int64)


def simhash64(texts) -> np.ndarray:
    """64-bit SimHash over lowercase word features, vectorized across
    ALL documents: one arrow lower+split pass, one hash_strings call
    over the flattened word stream, per-doc bit votes via
    np.add.reduceat over doc boundaries — no per-document Python."""
    arr = pa.array(texts) if isinstance(texts, list) else texts
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n = len(arr)
    out = np.zeros(n, dtype=np.uint64)
    if n == 0:
        return out
    from .streams import str_stream_from_arrow

    words = pc.utf8_split_whitespace(pc.utf8_lower(arr))
    word_counts = pc.list_value_length(words).to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(words.combine_chunks()
                           if isinstance(words, pa.ChunkedArray) else words)
    lengths, data, _ = str_stream_from_arrow(flat)
    doc_of = np.repeat(np.arange(n, dtype=np.int64), word_counts)
    h = hash_strings(lengths, data)
    nonempty = lengths > 0  # regex split emits empties at string edges
    doc_of, h = doc_of[nonempty], h[nonempty]
    if len(h) == 0:
        return out
    starts = np.concatenate([[0], np.flatnonzero(np.diff(doc_of)) + 1])
    n_docs = len(starts)
    sigs = np.zeros(n_docs, dtype=np.uint64)
    # 8 bits per slice bounds the transient bit matrix at 8 int32
    # columns per word (a full 64-wide matrix peaks at ~0.5 KB/word —
    # worker-OOM territory on long-document batches)
    for j in range(8):
        shifts = np.arange(8 * j, 8 * j + 8, dtype=np.uint64)
        bits = ((h[:, None] >> shifts[None, :])
                & np.uint64(1)).astype(np.int32)
        votes = np.add.reduceat(2 * bits - 1, starts, axis=0)
        sigs |= ((votes > 0).astype(np.uint64)
                 << shifts[None, :]).sum(axis=1, dtype=np.uint64)
    out[doc_of[starts]] = sigs
    return out


def simhash_band_rows(batch: pa.Table, text_col: str = "text",
                      id_col: str = "doc_id") -> pa.Table:
    """(bucket key, id, simhash) rows — all SimHash ever shuffles
    (24 B/row x 4 bands, never text). The key packs the band index
    above the band's 16-bit slice (any pair within Hamming<=3 shares
    at least one of the 4 bands)."""
    h = simhash64(batch[text_col])
    ids = batch[id_col].to_numpy(zero_copy_only=False)
    shifts = (np.uint64(16) * np.arange(4, dtype=np.uint64))[:, None]
    keys = ((h[None, :] >> shifts) & np.uint64(0xFFFF)).astype(np.int64)
    bk = (np.arange(4, dtype=np.int64)[:, None] << 16) | keys  # (4, n)
    return pa.table({
        "bk": pa.array(bk.reshape(-1)),
        id_col: pa.array(np.tile(ids, 4)),
        "sh": pa.array(np.tile(h.view(np.int64), 4)),
    })


def simhash_pairs(ds, text_col: str = "text", id_col: str = "doc_id",
                  max_hamming: int = 3, max_bucket: int = 4096):
    """Near-dup pairs via SimHash banding, fully vectorized (the
    round-2 review flagged the per-group map_groups verify and the
    per-pair dedup): hot_bucket_rows pulls only buckets with >= 2
    members (vectorized count aggregate — singleton buckets never
    touch Python), in-bucket pairs come from a run-boundary scan, the
    Hamming verify is one XOR + byte-table popcount over all candidate
    pairs at once, and the cross-band dedup is a single np.unique.

    Returns Dataset[(id_a, id_b, hamming)] with id_a < id_b."""
    import ray.data as rd

    from .collect import hot_bucket_rows

    sig_ds = ds.map_batches(
        lambda b: simhash_band_rows(b, text_col, id_col),
        batch_format="pyarrow").materialize()
    empty = pa.table({"id_a": pa.array([], pa.int64()),
                      "id_b": pa.array([], pa.int64()),
                      "hamming": pa.array([], pa.int64())})
    rows = hot_bucket_rows(sig_ds, "bk")
    if rows.num_rows == 0:
        return rd.from_arrow(empty)
    bk = rows["bk"].to_numpy(zero_copy_only=False)
    ids = rows[id_col].to_numpy(zero_copy_only=False)
    sh = rows["sh"].to_numpy(zero_copy_only=False)
    # unique (bk, id) — duplicated input rows would self-pair
    # otherwise; lexsort + run-boundary mask, not np.unique(axis=0)'s
    # slow structured sort
    order0 = np.lexsort((ids, bk))
    bk0, ids0 = bk[order0], ids[order0]
    first = np.ones(len(bk0), dtype=bool)
    if len(bk0) > 1:
        first[1:] = (bk0[1:] != bk0[:-1]) | (ids0[1:] != ids0[:-1])
    order = order0[first]
    bk_s, ids_s, sh_s = bk[order], ids[order], sh[order]
    bounds = np.flatnonzero(np.diff(bk_s)) + 1
    starts = np.concatenate([[0], bounds])
    ends = np.concatenate([bounds, [len(bk_s)]])
    ia_out, ib_out = [], []
    for s, e in zip(starts.tolist(), ends.tolist()):
        m = e - s
        if m < 2 or m > max_bucket:
            continue
        iu, ju = np.triu_indices(m, k=1)
        ia_out.append(s + iu)
        ib_out.append(s + ju)
    if not ia_out:
        return rd.from_arrow(empty)
    ia = np.concatenate(ia_out)
    ib = np.concatenate(ib_out)
    dist = _popcount64(sh_s[ia].view(np.uint64) ^ sh_s[ib].view(np.uint64))
    keep = dist <= max_hamming
    a, b, d = ids_s[ia[keep]], ids_s[ib[keep]], dist[keep]
    # cross-band dedup (same pair -> same dist): lexsort run-boundary
    # mask, not np.unique(axis=0)'s slow structured sort
    order = np.lexsort((b, a))
    a, b, d = a[order], b[order], d[order]
    first = np.ones(len(a), dtype=bool)
    if len(a) > 1:
        first[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    return rd.from_arrow(pa.table({
        "id_a": pa.array(a[first], type=pa.int64()),
        "id_b": pa.array(b[first], type=pa.int64()),
        "hamming": pa.array(d[first], type=pa.int64()),
    }))


# --- edit-distance near-dup (deletion neighborhoods) ------------------------

def _deletion_key_rows(batch: pa.Table, text_col: str, id_col: str,
                       prefix_len: int) -> pa.Table:
    """(bk, id) rows: one canonical polynomial hash per deletion
    variant of each row's ``prefix_len``-character prefix, plus the
    undeleted identity — FastSS/SymSpell neighborhood generation,
    fully vectorized over the batch's concatenated bytes (the
    _batch_shingle_stream prefix-sum machinery: char at doc-relative
    position r contributes (byte+1) * 257^-r mod 2^64, so any
    deletion variant's hash is O(1) from two prefix-sum windows).
    Two prefixes at Levenshtein distance <= 1 ALWAYS share a key:
    substitution -> both delete the differing position; insert/
    delete -> the shorter prefix IS a deletion variant of the longer.
    ~(len+1) keys per doc, 16 B per shuffled row; null texts drop
    (SQL: levenshtein(NULL, _) is NULL, never <= 1)."""
    from .streams import str_stream_from_arrow

    keep = pc.is_valid(batch[text_col])
    t = batch.select(list(dict.fromkeys([id_col, text_col]))).filter(keep)
    empty = pa.table({"bk": pa.array([], pa.int64()),
                      id_col: batch[id_col].slice(0, 0)})
    if t.num_rows == 0:
        return empty
    arr = pc.utf8_slice_codeunits(t[text_col].combine_chunks(),
                                  0, prefix_len)
    lengths, data, _ = str_stream_from_arrow(arr)
    ids = t[id_col].to_numpy(zero_copy_only=False)
    n = len(lengths)
    total = int(lengths.sum())
    c = np.frombuffer(data, dtype=np.uint8).astype(np.uint64) \
        + np.uint64(1)
    ipow = np.ones(total + 1, dtype=np.uint64)
    ppow = np.ones(total + 1, dtype=np.uint64)
    if total:
        ipow[1:] = np.cumprod(np.full(total, _INV257, dtype=np.uint64))
        ppow[1:] = np.cumprod(np.full(total, 257, dtype=np.uint64))
    csp = np.zeros(total + 1, dtype=np.uint64)
    if total:
        csp[1:] = np.cumsum(c * ipow[:total], dtype=np.uint64)
    e = np.cumsum(lengths)
    s = e - lengths
    ident = (csp[e] - csp[s]) * ppow[s]
    doc = np.repeat(np.arange(n, dtype=np.int64), lengths)
    p = np.arange(total, dtype=np.int64)
    sd, ed = s[doc], e[doc]
    delete = ((csp[p] - csp[sd])
              + np.uint64(257) * (csp[ed] - csp[p + 1])) * ppow[sd]
    keys = np.concatenate([ident, delete])
    out_ids = np.concatenate([ids, ids[doc]])
    return pa.table({"bk": pa.array(keys.view(np.int64)),
                     id_col: pa.array(out_ids,
                                      type=t.schema.field(id_col).type)})


def _verify_lev_le1(a_strs: list, b_strs: list) -> np.ndarray:
    """Exact distances (0, 1, or 2 meaning '>1') for candidate string
    pairs, vectorized per (len_a, len_b) shape group over UTF-32
    codepoint matrices — character-exact like SQL levenshtein, no
    per-pair DP. Only |len diff| <= 1 pairs can pass, so only the
    substitution check (equal length: <= 1 mismatch) and the one-gap
    check (off-by-one: prefix match + shifted suffix match) exist."""
    m = len(a_strs)
    dist = np.full(m, 2, dtype=np.int64)
    la = np.array([len(x) for x in a_strs], dtype=np.int64)
    lb = np.array([len(x) for x in b_strs], dtype=np.int64)
    for (ga, gb) in set(zip(la.tolist(), lb.tolist())):
        if abs(ga - gb) > 1:
            continue
        sel = np.flatnonzero((la == ga) & (lb == gb))

        def mat(strs, ln):
            if ln == 0:
                return np.empty((len(sel), 0), dtype=np.uint32)
            buf = b"".join(strs[i].encode("utf-32-le") for i in sel)
            return np.frombuffer(buf, dtype=np.uint32).reshape(-1, ln)

        A, B = mat(a_strs, ga), mat(b_strs, gb)
        if ga == gb:
            mism = (A != B).sum(axis=1)
            dist[sel[mism == 0]] = 0
            dist[sel[mism == 1]] = 1
        else:
            if ga < gb:  # L = longer, S = shorter
                L, S, ls = B, A, ga
            else:
                L, S, ls = A, B, gb
            # one-gap: exists j with S[:j] == L[:j] and S[j:] == L[j+1:]
            eq_pre = L[:, :ls] == S
            eq_suf = L[:, 1:ls + 1] == S
            pref = np.ones((len(sel), ls + 1), dtype=bool)
            if ls:
                pref[:, 1:] = np.cumprod(eq_pre, axis=1).astype(bool)
            suff = np.ones((len(sel), ls + 1), dtype=bool)
            if ls:
                suff[:, :ls] = np.cumprod(
                    eq_suf[:, ::-1], axis=1)[:, ::-1].astype(bool)
            ok = (pref & suff).any(axis=1)
            dist[sel[ok]] = 1
    return dist


def edit_pairs(ds, text_col: str = "text", id_col: str = "doc_id",
               prefix_len: int = 32, max_bucket: int = 4096,
               max_dist: int = 1):
    """Levenshtein near-duplicate pairs over each document's
    ``prefix_len``-character prefix (the title/header dedup shape):
    deletion-neighborhood candidate generation with FULL recall at
    distance <= 1 — ``max_dist`` must be 0 or 1; larger radii need a
    different candidate scheme and raise. The shuffle carries only
    (variant-hash, id) rows; hash-equal buckets pair driver-side
    (hot_bucket_rows — singletons never collect); the exact verify
    fetches ONLY the candidate ids' prefixes in one filtered pass
    over the corpus (never the corpus itself) and runs a vectorized
    substitution / one-gap check. Hash collisions only ADD candidates
    (the verify is exact). Candidate keys are BYTE-level, matching
    SQL levenshtein's byte-based distance (DuckDB:
    levenshtein('e-acute','z') = 2): between valid UTF-8 strings a
    byte distance of 1 is always a char distance of 1, and the
    multi-byte pairs where the two distances diverge (multi-byte
    indels, double-byte substitutions) can never share a deletion
    variant, so engine and SQL agree on every emitted pair.

    Returns Dataset[(id_a, id_b, dist)] with id_a < id_b, ordered.
    Reference: the LSH/near-dup family of SURVEY.md §2; candidate
    scheme after Bocek et al., "Fast Similarity Search in Large
    Dictionaries" (FastSS, 2007)."""
    import ray.data as rd

    from .collect import collect_arrow, hot_bucket_rows

    if not 0 <= max_dist <= 1:
        raise ValueError("deletion neighborhoods guarantee recall "
                         "only for max_dist <= 1")
    sig_ds = ds.map_batches(
        lambda b: _deletion_key_rows(b, text_col, id_col, prefix_len),
        batch_format="pyarrow").materialize()
    id_type = sig_ds.schema().base_schema.field(id_col).type
    empty = pa.table({"id_a": pa.array([], id_type),
                      "id_b": pa.array([], id_type),
                      "dist": pa.array([], pa.int64())})
    rows = hot_bucket_rows(sig_ds, "bk")
    if rows.num_rows == 0:
        return rd.from_arrow(empty)
    bk = rows["bk"].to_numpy(zero_copy_only=False)
    raw_ids = rows[id_col].to_numpy(zero_copy_only=False)
    uids, codes = np.unique(raw_ids, return_inverse=True)
    # unique (bk, id): several deletion variants of the same doc can
    # share a hash (repeated chars), which would self-pair otherwise
    order0 = np.lexsort((codes, bk))
    bk0, id0 = bk[order0], codes[order0]
    first = np.ones(len(bk0), dtype=bool)
    if len(bk0) > 1:
        first[1:] = (bk0[1:] != bk0[:-1]) | (id0[1:] != id0[:-1])
    bk_s, ids_s = bk0[first], id0[first]
    bounds = np.flatnonzero(np.diff(bk_s)) + 1
    starts = np.concatenate([[0], bounds])
    ends = np.concatenate([bounds, [len(bk_s)]])
    ia_out, ib_out = [], []
    for st, en in zip(starts.tolist(), ends.tolist()):
        mcnt = en - st
        if mcnt < 2 or mcnt > max_bucket:
            continue
        iu, ju = np.triu_indices(mcnt, k=1)
        ia_out.append(st + iu)
        ib_out.append(st + ju)
    if not ia_out:
        return rd.from_arrow(empty)
    a = ids_s[np.concatenate(ia_out)]
    b = ids_s[np.concatenate(ib_out)]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    first = np.ones(len(lo), dtype=bool)
    if len(lo) > 1:
        first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    lo, hi = lo[first], hi[first]
    # fetch the candidate ids' prefixes (bounded by the candidate
    # set) in one filtered pass — the corpus never collects
    need = uids[np.unique(np.concatenate([lo, hi]))]
    need_set = pa.array(need, type=id_type)

    def pick(batch: pa.Table) -> pa.Table:
        m = pc.and_(pc.is_in(batch[id_col], value_set=need_set),
                    pc.is_valid(batch[text_col]))
        t = batch.filter(m)
        return pa.table({
            id_col: t[id_col],
            "__pfx": pc.utf8_slice_codeunits(
                t[text_col].combine_chunks(), 0, prefix_len)})

    small = collect_arrow(ds.map_batches(pick, batch_format="pyarrow"))
    pfx = dict(zip(small[id_col].to_pylist(), small["__pfx"].to_pylist()))
    a_ids, b_ids = uids[lo], uids[hi]
    dist = _verify_lev_le1([pfx[x] for x in a_ids.tolist()],
                           [pfx[x] for x in b_ids.tolist()])
    keep = dist <= max_dist
    return rd.from_arrow(pa.table({
        "id_a": pa.array(a_ids[keep], type=id_type),
        "id_b": pa.array(b_ids[keep], type=id_type),
        "dist": pa.array(dist[keep], type=pa.int64()),
    }))


# --- text analysis ----------------------------------------------------------

_WORD_RE = re.compile(r"[A-Za-z0-9]+")
# BPE-style pre-tokenizer (GPT-2 pattern shape, ASCII approximation of
# \p{L}/\p{N} since the stdlib re lacks unicode property classes):
# contractions | optional-space letters | optional-space digits |
# optional-space punctuation run | whitespace
_BPE_RE = re.compile(
    r"'(?:[sdmt]|ll|ve|re)"
    r"| ?[A-Za-zÀ-ÖØ-öø-ÿ]+"
    r"| ?[0-9]+"
    r"| ?[^\sA-Za-zÀ-ÖØ-öø-ÿ0-9]+"
    r"|\s+"
)
_STOPWORDS = frozenset(
    "the and of a to in is it that for on as with was at by an be this have "
    "from or had not are but what all were when we there can".split()
)

# tiny n-gram language profiles (top trigrams; heuristic, deterministic)
_LANG_PROFILES = {
    "en": [" th", "the", "he ", " an", "and", "nd ", " of", "of ", "ing", "ng "],
    "de": ["en ", "er ", " de", "der", "ie ", "ch ", "sch", "die", "ein", " ei"],
    "fr": [" de", "es ", "de ", "le ", " le", "ent", "nt ", "la ", " la", "ion"],
    "es": [" de", "de ", "os ", " la", "la ", "as ", "el ", " el", "que", " qu"],
}


# the _BPE_RE alternation minus its trailing `\s+` branch: counting
# matches of THIS pattern equals counting non-whitespace matches of the
# full pattern (the `\s+` branch only ever consumes whitespace the other
# branches skip over; dropping it never changes where a non-ws token
# starts or how many there are — fuzz-verified in test_textops).
_BPE_NONWS_PATTERN = (
    r"'(?:[sdmt]|ll|ve|re)"
    r"| ?[A-Za-zÀ-ÖØ-öø-ÿ]+"
    r"| ?[0-9]+"
    r"| ?[^\sA-Za-zÀ-ÖØ-öø-ÿ0-9]+"
)
_PUNCT_PATTERN = r"[!-/:-@\[-`{-~]"


class TextAnalyzer:
    """Actor-pool text analysis: language profiles + stopword value-set
    built once per actor (__init__), fully vectorized per batch
    (__call__) — Arrow regex-count / split / is_in kernels plus
    np.bincount over doc boundaries (the simhash64 pattern). Per-row
    Python survives only for the md5 fingerprint (inherent)."""

    def __init__(self):
        self.word_re = _WORD_RE
        self.punct_re = re.compile(_PUNCT_PATTERN)
        self.profiles = {
            lang: {g: len(grams) - i for i, g in enumerate(grams)}
            for lang, grams in _LANG_PROFILES.items()
        }
        self._stop_set = pa.array(sorted(_STOPWORDS), type=pa.string())
        self._langs = np.array(list(self.profiles), dtype=object)

    def lang_of(self, text: str) -> str:
        t = " " + text.lower()[:400] + " "
        best, best_score = "unk", 0
        for lang, prof in self.profiles.items():
            score = sum(w for g, w in prof.items() if g in t)
            if score > best_score:
                best, best_score = lang, score
        return best

    def _pred_langs(self, text: pa.Array) -> np.ndarray:
        """Vectorized :meth:`lang_of`: one match_substring pass per
        trigram over space-padded 400-char prefixes, weighted votes,
        first-lang-wins ties (identical to the scalar loop)."""
        pad = pa.scalar(" ", type=pa.string())
        t = pc.binary_join_element_wise(
            pad, pc.utf8_slice_codeunits(pc.utf8_lower(text), 0, 400),
            pad, "")
        n = len(text)
        best_score = np.zeros(n, dtype=np.int64)
        best_idx = np.full(n, -1, dtype=np.int64)
        for li, prof in enumerate(self.profiles.values()):
            score = np.zeros(n, dtype=np.int64)
            for g, w in prof.items():
                score += w * pc.match_substring(t, g).to_numpy(
                    zero_copy_only=False)
            upd = score > best_score
            best_score[upd] = score[upd]
            best_idx[upd] = li
        out = np.where(best_idx >= 0,
                       self._langs[np.maximum(best_idx, 0)], "unk")
        return out

    def __call__(self, batch):
        import pandas as pd

        is_pandas = isinstance(batch, pd.DataFrame)
        if is_pandas:
            text = pa.array(batch["text"].astype(str), type=pa.string())
        else:
            text = batch["text"].combine_chunks() \
                if isinstance(batch["text"], pa.ChunkedArray) \
                else batch["text"]
            text = pc.fill_null(text, "")
        n = len(text)

        # word stream: one regex split, empties masked, per-doc stats
        # via bincount over doc ids (== findall(r"[A-Za-z0-9]+"))
        words = pc.split_pattern_regex(text, "[^A-Za-z0-9]+")
        per_doc = pc.list_value_length(words).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(words)
        flen = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
        doc_of = np.repeat(np.arange(n, dtype=np.int64), per_doc)
        ne = flen > 0
        doc_ne = doc_of[ne]
        word_count = np.bincount(doc_ne, minlength=n).astype(np.int64)
        is_stop = pc.is_in(pc.utf8_lower(flat),
                           value_set=self._stop_set).to_numpy(
                               zero_copy_only=False)[ne]
        stop_n = np.bincount(doc_ne, weights=is_stop, minlength=n)
        denom = np.maximum(1, word_count)
        stopword_ratio = stop_n / denom
        sum_len = np.bincount(doc_ne, weights=flen[ne], minlength=n)
        mean_word_len = np.where(word_count > 0, sum_len / denom, 0.0)

        punct_count = pc.count_substring_regex(
            text, _PUNCT_PATTERN).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        nchars = np.maximum(
            1, pc.utf8_length(text).to_numpy(zero_copy_only=False))
        punct_ratio = punct_count / nchars
        bpe = pc.count_substring_regex(
            text, _BPE_NONWS_PATTERN).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        pred_lang = self._pred_langs(text)
        fingerprint = [hashlib.md5(s.encode("utf-8")).hexdigest()
                       for s in text.to_pylist()]

        new_cols = {
            "word_count": word_count,
            "punct_count": punct_count,
            "punct_ratio": punct_ratio,
            "stopword_ratio": stopword_ratio,
            "mean_word_len": mean_word_len,
            "pred_lang": pred_lang,
            "fingerprint": fingerprint,
            "bpe_token_count": bpe,
        }
        if is_pandas:
            for k, v in new_cols.items():
                batch[k] = v
            return batch
        for k, v in new_cols.items():
            batch = batch.append_column(
                k, pa.array(v) if not isinstance(v, pa.Array) else v)
        return batch


def winnow_fingerprints(text: str, k: int = 8, window: int = 4) -> list[int]:
    """Winnowing document fingerprints (Schleimer/Wilkerson/Aiken,
    SIGMOD 2003): rolling k-gram hashes, minimum per sliding window,
    deduplicated in order. Robust to local edits — the rolling-hash
    fingerprinting of FIXTURES/prompt."""
    if not text:
        return []
    sh = _char_shingles(text, k)
    n = len(sh)
    if n == 0:
        return []
    if n <= window:
        return [int(sh.min())]
    from numpy.lib.stride_tricks import sliding_window_view

    wins = sliding_window_view(sh, window)
    mins = wins.min(axis=1)
    # keep first occurrence positions (classic winnowing selects the
    # rightmost min; any deterministic tie rule works for matching)
    out, prev = [], None
    for v in mins.tolist():
        if v != prev:
            out.append(int(v))
            prev = v
    return out


def batch_winnow(lengths: np.ndarray, data: bytes, k: int = 8,
                 window: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """Winnowing fingerprints for EVERY document in one vectorized
    pass (no per-document Python), value-identical to
    :func:`winnow_fingerprints`: batched k-gram rolling hashes,
    sliding-window minima masked at document boundaries, consecutive
    duplicates dropped per document.

    Returns (fingerprints concatenated uint64, doc offsets int64)."""
    from numpy.lib.stride_tricks import sliding_window_view

    n = len(lengths)
    lengths = np.ascontiguousarray(lengths, dtype=np.int64)
    sh, offs = _batch_shingle_stream(lengths, data, k)
    sh_counts = np.diff(offs)
    empty_doc = lengths == 0          # -> no fingerprints at all
    short_doc = (~empty_doc) & (sh_counts <= window)  # -> [min(shingles)]
    long_doc = (~empty_doc) & (sh_counts > window)
    out_parts: list[np.ndarray] = []
    counts = np.zeros(n, dtype=np.int64)
    if long_doc.any() and len(sh) >= window:
        wins = sliding_window_view(sh, window)
        mins = wins.min(axis=1)
        # window at global pos p belongs to doc d iff it lies fully
        # inside d's shingle range
        doc_of = np.repeat(np.arange(n, dtype=np.int64), sh_counts)
        valid = np.zeros(len(mins), dtype=bool)
        starts_l = offs[:-1][long_doc]
        cnt_l = (sh_counts - window + 1)[long_doc]
        compact = np.concatenate([[0], np.cumsum(cnt_l[:-1])]).astype(np.int64)
        pos = (np.arange(int(cnt_l.sum()), dtype=np.int64)
               - np.repeat(compact, cnt_l) + np.repeat(starts_l, cnt_l))
        valid[pos] = True
        vmins = mins[pos]
        vdocs = doc_of[pos]
        keep = np.ones(len(vmins), dtype=bool)
        if len(vmins) > 1:
            keep[1:] = (vmins[1:] != vmins[:-1]) | (vdocs[1:] != vdocs[:-1])
        kmins, kdocs = vmins[keep], vdocs[keep]
        np.add.at(counts, kdocs, 1)
        out_parts.append((kmins, kdocs))
    if short_doc.any():
        sel = np.flatnonzero(short_doc)
        smins = np.minimum.reduceat(sh, offs[:-1])[sel]
        counts[sel] += 1
        out_parts.append((smins, sel))
    if not out_parts:
        return np.empty(0, dtype=np.uint64), np.zeros(n + 1, dtype=np.int64)
    all_v = np.concatenate([p[0] for p in out_parts])
    all_d = np.concatenate([p[1] for p in out_parts])
    order = np.argsort(all_d, kind="stable")
    out_offsets = np.empty(n + 1, dtype=np.int64)
    out_offsets[0] = 0
    np.cumsum(counts, out=out_offsets[1:])
    return all_v[order], out_offsets


def winnow_table(ds, text_col: str = "text", id_col: str = "doc_id",
                 k: int = 8, window: int = 4):
    """Per-doc winnowing fingerprints -> Dataset[(id, fingerprints)],
    computed by the batched vectorized pass (batch_winnow)."""

    def run(batch: pa.Table) -> pa.Table:
        from .streams import str_stream_from_arrow

        lengths, data, _ = str_stream_from_arrow(batch[text_col])
        vals, offsets = batch_winnow(lengths, data, k, window)
        # same int64 mapping as the per-doc path: f - 2^63 (wrapping
        # subtraction + reinterpret == exact arithmetic shift)
        shifted = (vals - np.uint64(1 << 63)).view(np.int64)
        fp = pa.LargeListArray.from_arrays(
            pa.array(offsets, type=pa.int64()),
            pa.array(shifted, type=pa.int64()),
        ).cast(pa.list_(pa.int64()))
        return pa.table({id_col: batch[id_col], "fingerprints": fp})

    return ds.map_batches(run, batch_format="pyarrow")


def batch_word_ngram_hashes(texts, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-document WORD n-gram rolling hashes, fully vectorized: one
    arrow lower/split pass, one polynomial hash per word
    (:func:`arcade_ray.hashing.hash_strings`), then an n-term rolling
    combine with document boundaries masked (the batch_winnow shape,
    over words instead of characters). Documents with fewer than ``n``
    words contribute nothing.

    Returns (hashes uint64, doc_index int64) across the batch."""
    arr = pa.array(texts) if isinstance(texts, list) else texts
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n_docs = len(arr)
    empty = (np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64))
    if n_docs == 0:
        return empty
    from .hashing import hash_strings
    from .streams import str_stream_from_arrow

    words = pc.utf8_split_whitespace(pc.utf8_lower(arr))
    word_counts = pc.list_value_length(words).to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(words.combine_chunks()
                           if isinstance(words, pa.ChunkedArray) else words)
    lengths, data, _ = str_stream_from_arrow(flat)
    doc_of = np.repeat(np.arange(n_docs, dtype=np.int64), word_counts)
    h = hash_strings(lengths, data)
    nonempty = lengths > 0  # split emits empties at string edges
    doc_of, h = doc_of[nonempty], h[nonempty]
    total = len(h)
    if total < n:
        return empty
    acc = np.zeros(total - n + 1, dtype=np.uint64)
    base = np.uint64(1099511628211)
    p = np.uint64(1)
    with np.errstate(over="ignore"):  # uint64 wraparound is the hash
        for j in range(n):
            acc += h[j: total - n + 1 + j] * p
            p *= base
    # a window is valid iff it lies fully inside one document
    gdoc = doc_of[: total - n + 1]
    valid = doc_of[n - 1:] == gdoc
    return acc[valid], gdoc[valid]


def ngram_contaminated_ids(ds, eval_ds, n: int = 13,
                           text_col: str = "text", id_col: str = "doc_id",
                           eval_text_col: str | None = None):
    """Ids of training documents sharing at least one word ``n``-gram
    with ANY eval document — the standard benchmark-decontamination
    test (n=13 is the GPT-3/PaLM convention). Identity is the 64-bit
    rolling hash: a collision can only OVER-flag (drop a clean doc),
    at ~2^-64 odds per pair — the conservative direction.

    Scale shape: the eval side (the SMALL side) reduces to a
    deduplicated uint64 hash set — per-batch unique inside
    map_batches, tiny driver union, ``ray.put`` ONCE; the training
    corpus then streams through a map-side sorted-membership probe
    (searchsorted per batch). The corpus never shuffles and never
    collects. Returns a Dataset with one ``id_col`` column."""
    import ray
    import ray.data as rd

    ecol = eval_text_col or text_col

    def eval_hashes(b: pa.Table) -> pa.Table:
        h, _ = batch_word_ngram_hashes(b[ecol], n)
        return pa.table({"_h": pa.array(np.unique(h))})

    from .collect import collect_arrow

    ev = collect_arrow(eval_ds.map_batches(eval_hashes,
                                           batch_format="pyarrow"))
    ev_hashes = np.unique(ev["_h"].to_numpy(zero_copy_only=False)) \
        if ev.num_rows else np.empty(0, dtype=np.uint64)
    ref = ray.put(ev_hashes)  # sorted by np.unique

    def tag(b: pa.Table) -> pa.Table:
        sorted_ev = ray.get(ref)
        ids = b[id_col]
        if len(sorted_ev) == 0 or b.num_rows == 0:
            return pa.table({id_col: pa.array([], type=ids.type)})
        h, doc_of = batch_word_ngram_hashes(b[text_col], n)
        if len(h) == 0:
            return pa.table({id_col: pa.array([], type=ids.type)})
        pos = np.searchsorted(sorted_ev, h)
        pos[pos == len(sorted_ev)] = 0
        hit = sorted_ev[pos] == h
        docs = np.unique(doc_of[hit])
        return b.select([id_col]).take(pa.array(docs, type=pa.int64()))

    return ds.map_batches(tag, batch_format="pyarrow")


def decontaminate(ds, eval_ds, n: int = 13, text_col: str = "text",
                  id_col: str = "doc_id", eval_text_col: str | None = None):
    """Drop every training document sharing a word ``n``-gram with the
    eval corpus (see :func:`ngram_contaminated_ids`). The contaminated
    id set is corpus-small (bounded by the eval set's reach); it
    collects once, ships via ``ray.put``, and the corpus filters
    map-side. Returns the filtered Dataset."""
    import ray

    from .collect import collect_arrow

    bad = collect_arrow(ngram_contaminated_ids(
        ds, eval_ds, n=n, text_col=text_col, id_col=id_col,
        eval_text_col=eval_text_col))
    if bad.num_rows == 0:
        return ds
    bad_ref = ray.put(bad[id_col].combine_chunks())

    def keep(b: pa.Table) -> pa.Table:
        bad_ids = ray.get(bad_ref)
        return b.filter(pc.invert(pc.is_in(
            b[id_col], value_set=bad_ids.cast(b[id_col].type))))

    return ds.map_batches(keep, batch_format="pyarrow")


def build_vocab(ds, max_size: int = 32768, text_col: str = "text"):
    """Frequency-ranked word vocabulary: the top ``max_size`` lowercase
    whitespace words, id 1..max_size assigned by (count desc, word asc)
    — id 0 is reserved for OOV/padding. Returns a pyarrow Table
    ``(word, id, n)``.

    Scale shape: the :func:`top_words` pattern — per-batch
    (word, count) partials via one Arrow lower/split/value_counts pass
    (vocabulary-sized, not corpus-sized), one groupby-sum shuffle over
    those partials, a vocabulary-sized driver sort."""
    from ray.data.aggregate import Sum

    from .collect import collect_arrow

    def partial(batch: pa.Table) -> pa.Table:
        words = pc.list_flatten(pc.utf8_split_whitespace(
            pc.utf8_lower(batch[text_col])))
        words = words.filter(pc.greater(pc.utf8_length(words), 0))
        vc = words.value_counts()
        return pa.table({"word": vc.field("values"),
                         "n": vc.field("counts").cast(pa.int64())})

    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("word").aggregate(Sum("n", alias_name="n"))
    t = collect_arrow(agg)
    if t.num_rows == 0 or "word" not in t.column_names:
        return pa.table({"word": pa.array([], pa.string()),
                         "id": pa.array([], pa.int32()),
                         "n": pa.array([], pa.int64())})
    order = pc.sort_indices(t, sort_keys=[("n", "descending"),
                                          ("word", "ascending")])
    t = t.take(order).slice(0, max_size)
    return pa.table({"word": t["word"],
                     "id": pa.array(np.arange(1, t.num_rows + 1,
                                              dtype=np.int32)),
                     "n": t["n"]})


def tokenize_with_vocab(ds, vocab: pa.Table, text_col: str = "text",
                        id_col: str = "doc_id",
                        out_col: str = "tokens"):
    """Map each document to int32 token ids via a fixed vocabulary
    (:func:`build_vocab` output); out-of-vocabulary words become id 0.
    Deterministic across runs, partitionings and worker processes —
    unlike Python's per-process-salted ``hash()``.

    The vocab ships once via ``ray.put``; each batch is one Arrow
    lower/split pass + one vectorized ``index_in`` against the vocab
    array — no per-word Python. Returns ``(id_col, out_col)`` with
    ``out_col: list<int32>``."""
    import ray

    vref = ray.put(vocab.combine_chunks())

    def run(bt: pa.Table) -> pa.Table:
        v = ray.get(vref)
        words = pc.utf8_split_whitespace(pc.utf8_lower(bt[text_col]))
        counts = pc.list_value_length(words).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(words.combine_chunks()
                               if isinstance(words, pa.ChunkedArray)
                               else words)
        nonempty = pc.greater(pc.utf8_length(flat), 0) \
            .to_numpy(zero_copy_only=False)
        flat = flat.filter(pa.array(nonempty))
        # per-doc word counts after dropping split-edge empties
        doc_of = np.repeat(np.arange(len(bt), dtype=np.int64), counts)
        dl = np.bincount(doc_of[nonempty], minlength=len(bt))
        pos = pc.index_in(flat, value_set=v["word"].combine_chunks())
        pos_np = pos.to_numpy(zero_copy_only=False)
        ids_np = v["id"].to_numpy(zero_copy_only=False)
        tok = np.zeros(len(flat), dtype=np.int32)
        fidx = np.flatnonzero(pos.is_valid().to_numpy(zero_copy_only=False))
        if len(fidx):
            tok[fidx] = ids_np[pos_np[fidx].astype(np.int64)]
        offsets = np.zeros(len(bt) + 1, dtype=np.int32)
        np.cumsum(dl, out=offsets[1:])
        toks = pa.ListArray.from_arrays(pa.array(offsets),
                                        pa.array(tok, type=pa.int32()))
        return pa.table({id_col: bt[id_col], out_col: toks})

    return ds.map_batches(run, batch_format="pyarrow")


def bm25_scores(ds, terms: list[str], text_col: str = "text",
                id_col: str = "doc_id", k1: float = 1.2, b: float = 0.75):
    """Okapi BM25 relevance of every document to a small query-term
    set (classic ranked keyword retrieval; Robertson & Zaragoza 2009,
    public). Uses the Lucene idf variant
    ``ln((N - df + 0.5)/(df + 0.5) + 1)`` (always positive). Returns
    a Dataset of ``(id_col, score)`` for documents containing at
    least one query term; term-free documents are omitted.

    Scale shape: pass 1 reduces the corpus to O(terms) statistics
    (doc count, total words, per-term document frequency) via
    per-batch partial rows summed on the driver — no shuffle; pass 2
    scores map-side with the tiny idf table in the task closure,
    emitting only matching docs. The per-term inner loop is over the
    QUERY terms (a handful), each pass vectorized over the batch.

    Determinism: the score expression is evaluated in a fixed
    operand order so a SQL oracle computing the same float64
    expression reproduces the doubles bit-identically."""
    words_of = pc.utf8_split_whitespace

    def _doc_words(bt: pa.Table):
        """(flat words, doc index per word, per-doc word count) with
        split-edge empty tokens dropped — the same semantics as SQL's
        list_filter(split, x -> x <> '')."""
        w = words_of(pc.utf8_lower(bt[text_col]))
        counts = pc.list_value_length(w).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(w.combine_chunks()
                               if isinstance(w, pa.ChunkedArray) else w)
        doc_of = np.repeat(np.arange(len(bt), dtype=np.int64), counts)
        nonempty = pc.greater(pc.utf8_length(flat), 0) \
            .to_numpy(zero_copy_only=False)
        flat, doc_of = flat.filter(pa.array(nonempty)), doc_of[nonempty]
        dl = np.bincount(doc_of, minlength=len(bt)).astype(np.int64)
        return flat, doc_of, dl

    def corpus_partial(bt: pa.Table) -> pa.Table:
        flat, doc_of, dl = _doc_words(bt)
        dfs = []
        for t in terms:
            hits = pc.equal(flat, t).to_numpy(zero_copy_only=False)
            dfs.append(len(np.unique(doc_of[hits])))
        return pa.table({
            "term": pa.array(["\x00stats", *terms]),
            "df": pa.array([0, *dfs], type=pa.int64()),
            "n_docs": pa.array([len(bt)] + [0] * len(terms),
                               type=pa.int64()),
            "n_words": pa.array([int(dl.sum())] + [0] * len(terms),
                                type=pa.int64()),
        })

    from .collect import collect_arrow

    part = collect_arrow(ds.map_batches(corpus_partial,
                                        batch_format="pyarrow"))
    pdf = part.to_pandas()
    # an empty corpus never invokes the partial UDF -> columnless table
    n_docs = int(pdf["n_docs"].sum()) if "n_docs" in pdf.columns else 0
    n_words = int(pdf["n_words"].sum()) if n_docs else 0
    if n_docs == 0:
        import ray.data as rd

        sch = ds.schema()
        id_type = dict(zip(sch.names, sch.types))[id_col] \
            if sch is not None else pa.int64()
        return rd.from_arrow(pa.table({
            id_col: pa.array([], id_type),
            "score": pa.array([], pa.float64())}))
    avgdl = n_words / n_docs
    df_of = pdf.groupby("term")["df"].sum().to_dict()
    # math.log (libm), not np.log: SQL engines call libm too, so the
    # oracle's ln() reproduces these doubles bit-identically
    import math

    idf = [math.log((n_docs - df_of.get(t, 0) + 0.5)
                    / (df_of.get(t, 0) + 0.5) + 1.0) for t in terms]

    def score(bt: pa.Table) -> pa.Table:
        flat, doc_of, dl_i = _doc_words(bt)
        dl = dl_i.astype(np.float64)
        total = np.zeros(len(bt), dtype=np.float64)
        any_tf = np.zeros(len(bt), dtype=np.int64)
        denom_dl = k1 * (1.0 - b + b * dl / avgdl)
        for t, w_idf in zip(terms, idf):
            hits = pc.equal(flat, t).to_numpy(zero_copy_only=False)
            tf = np.bincount(doc_of[hits], minlength=len(bt)) \
                .astype(np.float64)
            total = total + w_idf * (tf * (k1 + 1.0)) / (tf + denom_dl)
            any_tf += tf.astype(np.int64)
        keep = any_tf > 0
        return pa.table({id_col: bt[id_col].filter(pa.array(keep)),
                         "score": pa.array(total[keep])})

    return ds.map_batches(score, batch_format="pyarrow")


_HASH_COMBINE_BLOCKS = 32


def _tree_combine_hash_counts(part_ds, key: str,
                              blocks: int = _HASH_COMBINE_BLOCKS) -> pa.Table:
    """Coalesce tree-combine for (hash, count) partial tables —
    repartition into ~``blocks`` blocks, one np.unique+bincount merge
    per block, one final driver merge. Replaces Ray's sort-based
    groupby-sum for HIGH-CARDINALITY hash domains (the
    token_unigram_stats finding: a mostly-distinct key set pushes
    everything through the sort exchange — measured 190 s vs ~4 s on
    a 2^31-domain source)."""
    def merge(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return b
        h = b[key].to_numpy(zero_copy_only=False)
        c = b["_c"].to_numpy(zero_copy_only=False)
        uh, inv = np.unique(h, return_inverse=True)
        cc = np.bincount(inv, weights=c).astype(np.int64)
        return pa.table({key: pa.array(uh), "_c": pa.array(cc)})

    from .collect import collect_arrow

    merged = part_ds.repartition(blocks).map_batches(
        merge, batch_format="pyarrow", batch_size=None)
    t = collect_arrow(merged)
    if t.num_rows == 0 or key not in t.column_names:
        return pa.table({key: pa.array([], pa.int64()),
                         "_c": pa.array([], pa.int64())})
    return merge(t)


def dup_ngram_stats(ds, n: int = 13, text_col: str = "text",
                    id_col: str = "doc_id"):
    """Substring-level (passage) duplication signal: per document, how
    many of its word ``n``-gram positions carry an n-gram occurring at
    least TWICE corpus-wide (counting multiplicity, including repeats
    inside one document) — the corpus-internal analogue of benchmark
    decontamination, after Lee et al. 2022, "Deduplicating Training
    Data Makes Language Models Better" (public paper; they use suffix
    arrays, here the same signal via rolling n-gram hashes).

    Returns a Dataset of ``(id_col, n_ngrams, n_dup)`` int64 counts
    (fractions are the caller's division — integer counts compare
    exactly against a SQL oracle).

    Scale shape: phase 1 pre-aggregates (hash, count) per batch with
    ``np.unique`` INSIDE map_batches, so the groupby-sum shuffle moves
    16 B/row partials, never text; only hashes with global count >= 2
    survive — the duplicated set, small unless the corpus is heavily
    templated — and ship once via ``ray.put`` as a sorted array.
    Phase 2 streams the corpus through a map-side searchsorted probe
    (the :func:`ngram_contaminated_ids` shape). For corpora whose
    duplicated set exceeds node memory, swap the broadcast for a
    co-partitioned probe keyed on hash bucket (the
    :func:`dedup_against_index` shape). Identity is the 64-bit rolling
    hash: a collision can only OVER-count, at ~2^-64 odds per pair."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .collect import collect_arrow

    sch = ds.schema()
    if sch is not None and not ds.limit(1).take_all():
        # typed empty out for a typed empty in (map_batches UDFs never
        # run on zero blocks, which would leave schema() None)
        id_type = dict(zip(sch.names, sch.types))[id_col]
        return rd.from_arrow(pa.table({
            id_col: pa.array([], id_type),
            "n_ngrams": pa.array([], pa.int64()),
            "n_dup": pa.array([], pa.int64())}))

    def partial(b: pa.Table) -> pa.Table:
        h, _ = batch_word_ngram_hashes(b[text_col], n)
        uh, c = np.unique(h, return_counts=True)
        return pa.table({"_h": pa.array(uh.view(np.int64)),
                         "_c": pa.array(c.astype(np.int64))})

    agg = _tree_combine_hash_counts(
        ds.map_batches(partial, batch_format="pyarrow"), "_h")
    if agg.num_rows:
        cnt = agg["_c"].to_numpy(zero_copy_only=False)
        dup = np.sort(agg["_h"].to_numpy(zero_copy_only=False)[cnt >= 2])
    else:
        dup = np.empty(0, dtype=np.int64)
    ref = ray.put(dup)

    def stats(b: pa.Table) -> pa.Table:
        nd = b.num_rows
        h, doc_of = batch_word_ngram_hashes(b[text_col], n)
        n_ngrams = np.bincount(doc_of, minlength=nd).astype(np.int64)
        dup_sorted = ray.get(ref)
        if len(dup_sorted) and len(h):
            hh = h.view(np.int64)
            pos = np.searchsorted(dup_sorted, hh)
            pos[pos == len(dup_sorted)] = 0
            hit = dup_sorted[pos] == hh
            n_dup = np.bincount(doc_of[hit], minlength=nd).astype(np.int64)
        else:
            n_dup = np.zeros(nd, dtype=np.int64)
        return pa.table({id_col: b[id_col],
                         "n_ngrams": pa.array(n_ngrams),
                         "n_dup": pa.array(n_dup)})

    return ds.map_batches(stats, batch_format="pyarrow")


def _batch_char_ngram_codes(texts, n: int):
    """(codes uint64, doc_of int64) for every character (byte)
    ``n``-gram position in a batch of strings — EXACT packed byte
    codes (n <= 8), not hashes, so the pass-1 count table and the
    pass-2 probe can never collide. Boundary-masked over the
    concatenated byte stream: a position is valid only when all n
    bytes fall inside one document. Null texts contribute nothing."""
    from .streams import str_stream_from_arrow

    if n < 1 or n > 8:
        raise ValueError("packed byte codes support 1 <= n <= 8")
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    texts = pc.fill_null(texts, "")
    lengths, data, _ = str_stream_from_arrow(texts)
    total = int(lengths.sum())
    c = np.frombuffer(data, dtype=np.uint8)
    if total < n:
        return (np.empty(0, dtype=np.uint64),
                np.empty(0, dtype=np.int64))
    codes = np.zeros(total - n + 1, dtype=np.uint64)
    for j in range(n):
        codes |= c[j:total - n + 1 + j].astype(np.uint64) \
            << np.uint64(8 * (n - 1 - j))
    e = np.cumsum(lengths)
    s = e - lengths
    doc = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
    p = np.arange(total, dtype=np.int64)
    valid = (p + n <= e[doc])[:total - n + 1]
    return codes[valid], doc[:total - n + 1][valid]


def charngram_stats(ds, n: int = 3, rare_below: int = 3,
                    text_col: str = "text", id_col: str = "doc_id"):
    """Corpus character-n-gram novelty statistics — the integer-exact
    core of an n-gram language-model quality filter (the CCNet /
    Wenzek et al. 2020 shape: score documents by how typical their
    character sequences are for the corpus). Per document with at
    least one n-gram position:

    - ``n_tri``: number of n-gram positions (len - n + 1 summed),
    - ``sum_c``: exact BIGINT sum of the CORPUS-WIDE count of the
      n-gram at each position (high = stereotypical text),
    - ``n_rare``: positions whose n-gram occurs fewer than
      ``rare_below`` times corpus-wide (high fraction = noise /
      foreign script / garbage — the OOV-rate signal).

    All three are integers, so the result hash-matches a SQL oracle
    exactly; the float per-char log-score a user would derive is one
    vectorized expression away and inherits the same counts.

    Scale shape (two passes, no text through any shuffle): pass 1
    pre-aggregates exact packed-byte codes per batch via np.unique —
    the groupby-sum shuffle carries 16 B/row partials bounded by the
    distinct-n-gram vocabulary (<= 256^n, in practice tiny) — and the
    merged count table broadcasts once via ray.put as two sorted
    arrays. Pass 2 streams the corpus through a map-side searchsorted
    probe with per-doc np.add.reduceat rollups. Byte-level n-grams:
    exact on ASCII (matches SQL substr oracles on ASCII corpora);
    multi-byte UTF-8 shifts window alignment but stays deterministic.
    """
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .collect import collect_arrow

    sch = ds.schema()
    if sch is not None and not ds.limit(1).take_all():
        id_type = dict(zip(sch.names, sch.types))[id_col]
        return rd.from_arrow(pa.table({
            id_col: pa.array([], id_type),
            "n_tri": pa.array([], pa.int64()),
            "sum_c": pa.array([], pa.int64()),
            "n_rare": pa.array([], pa.int64())}))

    def partial(b: pa.Table) -> pa.Table:
        codes, _ = _batch_char_ngram_codes(b[text_col], n)
        uc, cnt = np.unique(codes, return_counts=True)
        return pa.table({"_t": pa.array(uc.view(np.int64)),
                         "_c": pa.array(cnt.astype(np.int64))})

    agg = _tree_combine_hash_counts(
        ds.map_batches(partial, batch_format="pyarrow"), "_t")
    if agg.num_rows:
        tc = agg["_t"].to_numpy(zero_copy_only=False).view(np.uint64)
        cc = agg["_c"].to_numpy(zero_copy_only=False)
        order = np.argsort(tc)
        tc, cc = tc[order], cc[order]
    else:
        tc = np.empty(0, dtype=np.uint64)
        cc = np.empty(0, dtype=np.int64)
    ref = ray.put((tc, cc))

    def stats(b: pa.Table) -> pa.Table:
        nd = b.num_rows
        codes, doc_of = _batch_char_ngram_codes(b[text_col], n)
        tc_s, cc_s = ray.get(ref)
        n_tri = np.bincount(doc_of, minlength=nd).astype(np.int64)
        pos = np.searchsorted(tc_s, codes)
        # every probe code exists in the corpus table by construction
        per_pos = cc_s[pos] if len(codes) else \
            np.empty(0, dtype=np.int64)
        # exact int64 per-doc sums: np.add.reduceat on the doc-sorted
        # stream (doc_of is nondecreasing by construction) — bincount
        # weights would round through float64 above 2^53
        starts = np.flatnonzero(np.r_[True, doc_of[1:] != doc_of[:-1]]) \
            if len(doc_of) else np.empty(0, dtype=np.int64)
        sum_c = np.zeros(nd, dtype=np.int64)
        if len(doc_of):
            sums = np.add.reduceat(per_pos, starts)
            sum_c[doc_of[starts]] = sums
        rare = per_pos < rare_below if len(codes) else per_pos
        n_rare = np.bincount(doc_of[rare] if len(codes) else doc_of,
                             minlength=nd).astype(np.int64)
        keep = n_tri > 0
        return pa.table({
            id_col: b[id_col].filter(pa.array(keep)),
            "n_tri": pa.array(n_tri[keep]),
            "sum_c": pa.array(sum_c[keep]),
            "n_rare": pa.array(n_rare[keep])})

    return ds.map_batches(stats, batch_format="pyarrow")


def drop_dup_passages(ds, n: int = 13, max_frac: float = 0.5,
                      text_col: str = "text", id_col: str = "doc_id"):
    """Drop documents whose duplicated-n-gram position fraction
    (see :func:`dup_ngram_stats`) exceeds ``max_frac`` — the standard
    "mostly boilerplate / templated" removal gate. Documents with
    fewer than ``n`` words have zero n-grams and are always kept.

    The offending id set is collected once (bounded by the number of
    heavily-duplicated docs), ships via ``ray.put``, and the corpus
    filters map-side — the :func:`decontaminate` shape."""
    import ray

    from .collect import collect_arrow

    st = dup_ngram_stats(ds, n=n, text_col=text_col, id_col=id_col)

    def offenders(b: pa.Table) -> pa.Table:
        nd = b["n_dup"].to_numpy(zero_copy_only=False)
        ng = b["n_ngrams"].to_numpy(zero_copy_only=False)
        return b.select([id_col]).filter(pa.array(nd > max_frac * ng))

    bad = collect_arrow(st.map_batches(offenders, batch_format="pyarrow"))
    if bad.num_rows == 0:
        return ds
    bad_ref = ray.put(bad[id_col].combine_chunks())

    def keep(b: pa.Table) -> pa.Table:
        bad_ids = ray.get(bad_ref)
        return b.filter(pc.invert(pc.is_in(
            b[id_col], value_set=bad_ids.cast(b[id_col].type))))

    return ds.map_batches(keep, batch_format="pyarrow")


def repetition_scores(ds, n: int = 3, text_col: str = "text",
                      id_col: str = "doc_id", digits: int = 4,
                      keep: list[str] | None = None):
    """Gopher-style repetition signal: per document, the fraction of
    its word ``n``-grams that are duplicates (1 - unique/total; 0 for
    docs with fewer than ``n`` words). One vectorized pass per batch:
    shared n-gram hashes (:func:`batch_word_ngram_hashes`), one
    lexsort + run-boundary scan for the per-doc unique counts — no
    per-document Python, no shuffle. Rounded to ``digits`` so the
    DuckDB oracle (list_distinct over the same trigrams) compares
    exactly."""
    def run(b: pa.Table) -> pa.Table:
        n_docs = b.num_rows
        if n_docs == 0:
            return pa.table({
                id_col: b[id_col],
                **{c: b[c] for c in (keep or []) if c != id_col},
                "n_grams": pa.array([], pa.int64()),
                "n_unique": pa.array([], pa.int64()),
                "dup_frac": pa.array([], pa.float64())})
        h, doc_of = batch_word_ngram_hashes(b[text_col], n)
        total = np.bincount(doc_of, minlength=n_docs)
        if len(h):
            order = np.lexsort((h, doc_of))
            hd, dd = h[order], doc_of[order]
            new = np.ones(len(hd), dtype=bool)
            new[1:] = (hd[1:] != hd[:-1]) | (dd[1:] != dd[:-1])
            uniq = np.bincount(dd[new], minlength=n_docs)
        else:
            uniq = np.zeros(n_docs, dtype=np.int64)
        frac = np.where(total > 0, 1.0 - uniq / np.maximum(total, 1), 0.0)
        # n_grams/n_unique are the EXACT signal (and what the SQL
        # oracle compares — float rounding modes differ between numpy
        # and SQL engines); dup_frac is the convenience ratio
        return pa.table({
            id_col: b[id_col],
            **{c: b[c] for c in (keep or []) if c != id_col},
            "n_grams": pa.array(total, type=pa.int64()),
            "n_unique": pa.array(uniq, type=pa.int64()),
            "dup_frac": pa.array(np.round(frac, digits),
                                 type=pa.float64())})

    return ds.map_batches(run, batch_format="pyarrow")


# (name, RE2 pattern, replacement) — Arrow's replace_substring_regex
# and DuckDB's regexp_replace both run RE2, so the SAME pattern string
# is the oracle's pattern (exact output parity)
PII_PATTERNS: list[tuple[str, str, str]] = [
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}",
     "<EMAIL>"),
    ("ip", r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
    ("phone", r"\+\d[\d\- ]{7,}\d", "<PHONE>"),
]


def redact_pii(ds, text_col: str = "text",
               kinds: tuple = ("email", "ip", "phone")):
    """Scrub PII-shaped substrings from a text column (emails, IPv4
    addresses, international phone numbers) — the redaction pass a
    training corpus runs before anything else. Pure Arrow
    `replace_substring_regex` kernels chained per batch: zero-copy in,
    no Python strings, streams."""
    pats = [(p, r) for k, p, r in PII_PATTERNS if k in kinds]
    unknown = set(kinds) - {k for k, _, _ in PII_PATTERNS}
    if unknown:
        raise ValueError(f"unknown PII kinds {sorted(unknown)}; "
                         f"known: {[k for k, _, _ in PII_PATTERNS]}")

    def run(b: pa.Table) -> pa.Table:
        col = b[text_col].combine_chunks() if b.num_rows else b[text_col]
        for pat, rep in pats:
            col = pc.replace_substring_regex(col, pattern=pat,
                                             replacement=rep)
        return b.set_column(b.schema.get_field_index(text_col),
                            text_col, col)

    return ds.map_batches(run, batch_format="pyarrow")


def top_words(ds, k: int = 20, text_col: str = "text"):
    """Corpus-wide top-k most frequent lowercase [a-z0-9]+ words,
    ties broken by ascending word.

    Scale shape — pre-aggregate inside map_batches BEFORE the wide
    step: each batch emits its own (word, n) partial via one arrow
    lower/split/value_counts pass (vocabulary-sized, not corpus-
    sized), the groupby shuffle moves only those partials, and the
    driver sorts the final vocabulary-sized aggregate."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .collect import collect_arrow

    def partial(batch: pa.Table) -> pa.Table:
        words = pc.list_flatten(pc.split_pattern_regex(
            pc.utf8_lower(batch[text_col]), "[^a-z0-9]+"))
        words = words.filter(pc.greater(pc.utf8_length(words), 0))
        vc = words.value_counts()
        return pa.table({
            "word": vc.field("values"),
            "n": vc.field("counts").cast(pa.int64()),
        })

    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("word").aggregate(Sum("n", alias_name="n"))
    t = collect_arrow(agg)
    order = pc.sort_indices(t, sort_keys=[("n", "descending"),
                                          ("word", "ascending")])
    return t.take(order).slice(0, k)


# --- approximate heavy hitters (Misra-Gries, mergeable) ----------------------

# sentinel word used to carry per-batch token totals through the same
# groupby as the summaries; the tokenizer strips non-[a-z0-9] so no
# real word can collide with it.
_MG_TOTAL_SENTINEL = "\x00total"


def _mg_compress(words: np.ndarray, counts: np.ndarray,
                 k: int) -> tuple[np.ndarray, np.ndarray]:
    """Compress an exact (word, count) table to a Misra-Gries summary
    of at most ``k`` entries: subtract the (k+1)-th largest count from
    every count and keep the positives. Summing per-block summaries
    and re-compressing keeps the classic bound (mergeable summaries,
    Agarwal et al. PODS'12): every estimate underestimates its true
    count by at most n/(k+1) for n total tokens."""
    if len(counts) <= k:
        return words, counts
    thresh = np.partition(counts, len(counts) - (k + 1))[len(counts) - (k + 1)]
    kept = counts > thresh
    return words[kept], counts[kept] - thresh


def heavy_hitters(ds, k: int = 64, text_col: str = "text") -> pa.Table:
    """Approximate corpus heavy hitters via mergeable Misra-Gries
    summaries — the sketch answer to "top words" when the vocabulary
    itself is too large to shuffle.

    Scale shape: each batch computes its exact word counts in one
    arrow lower/split/value_counts pass, then compresses them to a
    k-entry MG summary, so the groupby exchange moves AT MOST k+1 rows
    per block no matter how large the batch vocabulary is (top_words
    ships the full batch vocabulary). The driver receives the
    (<= k x blocks)-row aggregate and compresses once more.

    Guarantee (mergeable summaries): for n total tokens, every
    returned estimate e satisfies true - n/(k+1) <= e <= true, and any
    word with true count > n/(k+1) is present. Returns (word, n, total)
    sorted by estimate descending, word ascending; ``total`` is the
    exact corpus token count (same on every row).
    """
    from ray.data.aggregate import Sum

    from .collect import collect_arrow

    def partial(batch: pa.Table) -> pa.Table:
        words = pc.list_flatten(pc.split_pattern_regex(
            pc.utf8_lower(batch[text_col]), "[^a-z0-9]+"))
        words = words.filter(pc.greater(pc.utf8_length(words), 0))
        vc = words.value_counts()
        w = np.asarray(vc.field("values").to_pylist(), dtype=object)
        n = vc.field("counts").to_numpy(zero_copy_only=False).astype(np.int64)
        w, n = _mg_compress(w, n, k)
        return pa.table({
            "word": pa.array(list(w) + [_MG_TOTAL_SENTINEL], type=pa.string()),
            "n": pa.array(list(n) + [len(words)], type=pa.int64()),
        })

    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("word").aggregate(Sum("n", alias_name="n"))
    t = collect_arrow(agg)
    if t.num_rows == 0:
        return pa.table({"word": pa.array([], type=pa.string()),
                         "n": pa.array([], type=pa.int64()),
                         "total": pa.array([], type=pa.int64())})
    is_total = pc.equal(t["word"], _MG_TOTAL_SENTINEL)
    total = int(pc.sum(pc.if_else(is_total, t["n"], pa.scalar(0, pa.int64()))).as_py())
    t = t.filter(pc.invert(is_total))
    w = np.asarray(t["word"].to_pylist(), dtype=object)
    n = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
    w, n = _mg_compress(w, n, k)
    order = np.lexsort((w, -n))
    return pa.table({
        "word": pa.array(w[order], type=pa.string()),
        "n": pa.array(n[order], type=pa.int64()),
        "total": pa.array(np.full(len(order), total), type=pa.int64()),
    })


# --- Gopher-style top-word-fraction quality signal ---------------------------


def word_counts_sep(ds, text_col: str = "text", sep: str = " ") -> pa.Table:
    """Corpus-wide (word, n) counts splitting on a LITERAL separator
    (SQL ``string_split(text, sep)`` semantics: empties kept, no
    lowercasing) so results are DuckDB-oracle-mirrorable. Same
    map-side pre-aggregation shape as :func:`top_words`."""
    from ray.data.aggregate import Sum

    from .collect import collect_arrow

    def partial(batch: pa.Table) -> pa.Table:
        words = pc.list_flatten(pc.split_pattern(batch[text_col], sep))
        vc = words.value_counts()
        return pa.table({
            "word": vc.field("values"),
            "n": vc.field("counts").cast(pa.int64()),
        })

    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("word").aggregate(Sum("n", alias_name="n"))
    return collect_arrow(agg)


def top_word_fraction(ds, top_words_list, text_col: str = "text",
                      id_col: str = "doc_id", sep: str = " ",
                      keep: list[str] | None = None):
    """Gopher-style quality signal (Rae et al. 2021, appendix A1): the
    fraction of a document's words that fall inside a given top-word
    list. Documents dominated by the corpus's most common words are
    low-information boilerplate; a cleaning pipeline gates on this
    fraction.

    The top-word list is tiny -> ``ray.put`` once and fetched
    zero-copy per task, never re-shipped per batch. Each batch does
    one arrow split + is_in pass and a reduceat over the list offsets
    — no per-row Python. Splitting uses the LITERAL separator (SQL
    ``string_split`` semantics) so the op is DuckDB-oracle-checkable.

    Returns a Dataset of (id_col, top_frac:double).
    """
    import ray

    top_arr = pa.array(sorted({str(w) for w in top_words_list}),
                       type=pa.string())
    top_ref = ray.put(top_arr)

    def frac(batch: pa.Table) -> pa.Table:
        top = ray.get(top_ref)
        words = pc.split_pattern(batch[text_col], sep).combine_chunks()
        lens = pc.list_value_length(words).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        flat = pc.list_flatten(words)
        hits = pc.is_in(flat, value_set=top)
        hit_i = hits.to_numpy(zero_copy_only=False).astype(np.int64)
        starts = np.zeros(len(lens), dtype=np.int64)
        np.cumsum(lens[:-1], out=starts[1:])
        nz = lens > 0
        per = np.zeros(len(lens), dtype=np.int64)
        if hit_i.size and nz.any():
            # reduceat misbehaves on zero-length segments; compute on
            # the non-empty ones only (split_pattern never yields an
            # empty list for non-null text, but null text does).
            # Empty segments between two non-empty starts contribute
            # no elements, so each reduceat span covers exactly one
            # document's words.
            per[nz] = np.add.reduceat(hit_i, starts[nz])
        out_frac = np.divide(per, lens, out=np.zeros(len(lens)), where=nz)
        cols = {id_col: batch[id_col],
                "top_frac": pa.array(out_frac, type=pa.float64())}
        for c in (keep or []):
            cols[c] = batch[c]
        return pa.table(cols)

    return ds.map_batches(frac, batch_format="pyarrow")


def distinctive_terms(ds, k: int = 5, text_col: str = "text",
                      source_col: str = "source",
                      sep: str = " ") -> pa.Table:
    """Per-source distinctive vocabulary — the TF-IDF shape with a
    deterministic, DuckDB-oracle-checkable ranking: for each source,
    the top-k words by LIFT = tf(source, word) / tf(corpus, word)
    (how over-represented the word is in this source vs the whole
    corpus), ties broken by ascending word. Both sides compute lift
    as the same two-int64 IEEE double division, so the ordering and
    the emitted value are bit-identical to the SQL oracle.

    Scale shape: one map-side (source, word) count partial per batch
    (vocabulary-bounded, via a combined key so the exchange is a
    single-key groupby), one groupby SUM; corpus totals and the
    per-source ranking run vectorized over the (sources x vocabulary)-
    bounded aggregate. Returns (source, word, tf, lift) sorted by
    source, word.
    """
    from ray.data.aggregate import Sum

    from .collect import collect_arrow

    SEP = "\x1f"

    def partial(batch: pa.Table) -> pa.Table:
        words = pc.split_pattern(batch[text_col], sep).combine_chunks()
        lens = pc.list_value_length(words).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        src = batch[source_col].combine_chunks().cast(pa.string())
        rep_src = src.take(pa.array(np.repeat(np.arange(len(lens)), lens)))
        key = pc.binary_join_element_wise(rep_src, pc.list_flatten(words), SEP)
        vc = key.value_counts()
        return pa.table({
            "key": vc.field("values"),
            "tf": vc.field("counts").cast(pa.int64()),
        })

    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("key").aggregate(Sum("tf", alias_name="tf"))
    t = collect_arrow(agg)
    if t.num_rows == 0:
        return pa.table({"source": pa.array([], type=pa.string()),
                         "word": pa.array([], type=pa.string()),
                         "tf": pa.array([], type=pa.int64()),
                         "lift": pa.array([], type=pa.float64())})
    parts = pc.split_pattern(t["key"], SEP, max_splits=1).combine_chunks()
    src = pc.list_element(parts, 0)
    word = pc.list_element(parts, 1)
    tf = t["tf"].to_numpy(zero_copy_only=False).astype(np.int64)
    src_np = np.asarray(src.to_pylist(), dtype=object)
    word_np = np.asarray(word.to_pylist(), dtype=object)
    # corpus term frequency per word -> lift = tf / ctf (exact int64
    # operands; the double division matches the SQL oracle bit for bit)
    uniq_w, word_code = np.unique(word_np, return_inverse=True)
    ctf = np.zeros(len(uniq_w), dtype=np.int64)
    np.add.at(ctf, word_code, tf)
    lift = tf.astype(np.float64) / ctf[word_code].astype(np.float64)
    # rank per source by lift desc, word asc; keep k
    order = np.lexsort((word_np, -lift, src_np))
    src_s, word_s = src_np[order], word_np[order]
    tf_s, lift_s = tf[order], lift[order]
    new_src = np.ones(len(src_s), dtype=bool)
    new_src[1:] = src_s[1:] != src_s[:-1]
    seg_start = np.zeros(len(src_s), dtype=np.int64)
    starts = np.flatnonzero(new_src)
    seg_start[starts] = starts
    seg_start = np.maximum.accumulate(seg_start)
    rank = np.arange(len(src_s)) - seg_start
    top = rank < k
    out_order = np.lexsort((word_s[top], src_s[top]))
    return pa.table({
        "source": pa.array(src_s[top][out_order], type=pa.string()),
        "word": pa.array(word_s[top][out_order], type=pa.string()),
        "tf": pa.array(tf_s[top][out_order], type=pa.int64()),
        "lift": pa.array(lift_s[top][out_order], type=pa.float64()),
    })


def chunk_documents(ds, max_words: int = 256, overlap: int = 0,
                    text_col: str = "text", id_col: str = "doc_id",
                    sep: str = " "):
    """Split long documents into overlapping word windows — the
    context-length chunking pass that precedes embedding / indexing in
    a retrieval or pretraining pipeline. Chunk c of a doc covers words
    [c*stride, c*stride + max_words) with stride = max_words - overlap;
    every doc emits at least one chunk; the last chunk may be shorter.

    Fully vectorized in-batch fan-out (keeps streaming backpressure,
    like explode_list): one arrow split per batch, numpy gather-index
    construction for the overlapping windows (np.repeat + arange
    offsets — no per-row Python), one take + binary_join to materialize
    chunk texts. Splitting uses the LITERAL separator (SQL
    ``string_split`` semantics) so the op is DuckDB-oracle-checkable.

    Returns a Dataset of (id_col, chunk_id:int64, text:string).
    """
    if not (0 <= overlap < max_words):
        raise ValueError(f"need 0 <= overlap < max_words, got "
                         f"overlap={overlap} max_words={max_words}")
    stride = max_words - overlap

    def chunks(batch: pa.Table) -> pa.Table:
        words = pc.split_pattern(batch[text_col], sep).combine_chunks()
        # null text -> null list -> length 0 here (NOT a NaN->int64
        # cast, which would poison the cumsum): the doc emits one
        # empty-text chunk and contributes nothing to the flat stream
        lens = pc.fill_null(pc.list_value_length(words), 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(words)
        doc_start = np.zeros(len(lens), dtype=np.int64)
        np.cumsum(lens[:-1], out=doc_start[1:])
        # chunks per doc: 1 if nw <= max_words else ceil((nw-W)/stride)+1
        n_chunks = np.where(
            lens <= max_words, 1,
            -(-(lens - max_words) // stride) + 1).astype(np.int64)
        doc_idx = np.repeat(np.arange(len(lens)), n_chunks)
        starts_of_doc = np.zeros(len(lens), dtype=np.int64)
        np.cumsum(n_chunks[:-1], out=starts_of_doc[1:])
        chunk_id = np.arange(len(doc_idx)) \
            - np.repeat(starts_of_doc, n_chunks)
        w_start = chunk_id * stride
        w_len = np.minimum(lens[doc_idx] - w_start, max_words)
        w_len = np.maximum(w_len, 0)
        # gather indices into the flattened word stream (int64/LargeList
        # offsets: high-overlap settings multiply output words by up to
        # max_words/stride, which can exceed int32 within one batch)
        total = int(w_len.sum())
        out_off = np.zeros(len(w_len) + 1, dtype=np.int64)
        np.cumsum(w_len, out=out_off[1:])
        gather = np.repeat(doc_start[doc_idx] + w_start, w_len) \
            + (np.arange(total) - np.repeat(out_off[:-1], w_len))
        gathered = flat.take(pa.array(gather, type=pa.int64()))
        chunk_words = pa.LargeListArray.from_arrays(
            pa.array(out_off, type=pa.int64()), gathered)
        texts = pc.binary_join(chunk_words, sep)
        return pa.table({
            id_col: batch[id_col].combine_chunks().take(
                pa.array(doc_idx, type=pa.int64())),
            "chunk_id": pa.array(chunk_id, type=pa.int64()),
            text_col: texts,
        })

    return ds.map_batches(chunks, batch_format="pyarrow")


def analyze_text(ds, concurrency: int | None = None, batch_size: int = 4096):
    if concurrency is None:
        # leave headroom for the read stage — an actor pool that
        # reserves every CPU starves upstream operators and the
        # pipeline deadlocks (guide: size concurrency x num_cpus)
        from .exchange import avail_cpus

        concurrency = max(1, min(8, avail_cpus() - 1))
    return ds.map_batches(TextAnalyzer, batch_format="pyarrow",
                          batch_size=batch_size, concurrency=concurrency)


def normalize_text(ds, text_col: str = "text", out_col: str = "norm_text",
                   keep: list[str] | None = None):
    """Corpus text normalization — trim, collapse internal whitespace,
    unicode lowercase — entirely in Arrow kernels (utf8_trim_whitespace
    -> replace_substring_regex -> utf8_lower): zero Python per row,
    zero-copy in, one new string column out. The canonicalization pass
    that precedes exact dedup / fingerprinting in a cleaning
    pipeline."""
    import pyarrow.compute as pc

    keep = list(keep or [])

    def norm(batch: pa.Table) -> pa.Table:
        s = batch[text_col].combine_chunks()
        n = pc.utf8_lower(pc.replace_substring_regex(
            pc.utf8_trim_whitespace(s), r"\s+", " "))
        cols = {c: batch[c] for c in keep}
        cols[out_col] = n
        return pa.table(cols)

    return ds.map_batches(norm, batch_format="pyarrow")


def build_dedup_index(ds, index_dir: str, text_col: str = "text",
                      id_col: str = "doc_id") -> int:
    """Persist a corpus's exact-dedup SIGNATURE INDEX: (h1, h2, id)
    parquet files under ``sigs/`` — 24 B/doc regardless of document
    size. Continuous ingest then dedups NEW batches against the index
    (:func:`dedup_against_index`) without ever re-reading the old
    corpus text. Committed by :mod:`.indexes` (``meta.json`` last).
    Returns the indexed row count."""
    indexes.begin(index_dir, ["sigs"])
    ds.map_batches(lambda b: dedup_signatures(b, text_col, id_col),
                   batch_format="pyarrow").write_parquet(
        os.path.join(index_dir, "sigs"))
    return indexes.commit(index_dir, {"id_col": id_col}, "sigs")


def dedup_against_index(ds, index_dir: str, text_col: str = "text",
                        id_col: str = "doc_id"):
    """Incremental exact dedup: drop rows of ``ds`` whose 128-bit text
    hash already appears in a persisted signature index (an earlier
    corpus), then dedup the batch against ITSELF (text-verified, via
    :func:`exact_dedup`). Returns the filtered Dataset; finding the
    already-seen rows executes ``ds`` when this is called.

    Scale shape: new-batch signatures and index rows co-locate by
    hash (``exchange.by_key``: 24 B/row each — the index text never
    existed, the new text never moves); per bucket one vectorized
    join finds already-seen hashes. Identity vs the INDEX is the
    128-bit hash alone (the index stores no text to verify against);
    within the new batch, survivors still get the text-verified
    exact_dedup."""
    indexes.open(index_dir)

    import ray

    from .collect import collect_arrow
    from .exchange import by_key

    def seen(new: pa.Table, old: pa.Table) -> pa.Table:
        # composite 128-bit membership via a join on both hash halves
        return new.join(
            old.select(["_h", "_h2"]).group_by(["_h", "_h2"]).aggregate([]),
            keys=["_h", "_h2"], join_type="inner").select([id_col])

    losers = collect_arrow(by_key(
        [ds, read_parquet_clean(os.path.join(index_dir, "sigs"))], ["_h"],
        seen, maps=[lambda b: dedup_signatures(b, text_col, id_col), None]))
    survivors = ds
    if losers.num_rows:
        lose_ref = ray.put(losers[id_col].combine_chunks())

        def keep(batch: pa.Table) -> pa.Table:
            lose = ray.get(lose_ref)
            return batch.filter(pc.invert(pc.is_in(
                batch[id_col], value_set=lose.cast(batch[id_col].type))))

        survivors = ds.map_batches(keep, batch_format="pyarrow")
    return exact_dedup(survivors, text_col=text_col, id_col=id_col)


def tfidf_sparse(ds, dim: int = 1024, text_col: str = "text",
                 id_col: str = "doc_id", dense: bool = False):
    """Sparse hashed TF-IDF document vectors — the model-free
    text-to-vector bridge into the ANN / SemDeDup stack: each document
    becomes rows ``(id, bucket, w)`` with ``bucket = md5(word) % dim``
    (feature hashing; md5 so a SQL oracle reproduces the buckets
    bit-for-bit, and deterministic across processes unlike Python's
    salted hash) and ``w = tf * ln(N / df)`` summed over the bucket's
    words. Densify with a downstream reshape to feed
    :func:`arcade_ray.ann.semantic_dedup` / ``knn_join`` on text-only
    corpora.

    ``dense=True`` emits one row per document instead —
    ``(id, embedding list<float32> of dim)`` — ready for the vector
    operators directly (small dims only: dim floats per doc ship).

    Scale shape: pass 1 is :func:`build_vocab`'s pattern — per-batch
    (word, df) partials (df is exact: documents never split across
    rows) through ONE vocabulary-sized groupby-sum; the word ->
    (bucket, idf) table builds once on the driver (md5 per DISTINCT
    word, vocabulary-bounded) and broadcasts via ``ray.put``; pass 2
    maps each word occurrence to (doc, bucket, idf) and bincount-sums
    per batch — tf*idf emerges from summing idf once per occurrence,
    no per-(doc,word) state. Weights round to 4 decimals so the SQL
    oracle's float64 expression hash-matches."""
    import math

    import ray
    from ray.data.aggregate import Sum

    from .collect import collect_arrow

    words_of = pc.utf8_split_whitespace

    def df_partial(bt: pa.Table) -> pa.Table:
        w = words_of(pc.utf8_lower(bt[text_col]))
        counts = pc.list_value_length(w).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(w.combine_chunks()
                               if isinstance(w, pa.ChunkedArray) else w)
        doc_of = np.repeat(np.arange(len(bt), dtype=np.int64), counts)
        nonempty = pc.greater(pc.utf8_length(flat), 0) \
            .to_numpy(zero_copy_only=False)
        flat, doc_of = flat.filter(pa.array(nonempty)), doc_of[nonempty]
        # distinct (doc, word) pairs -> per-word doc counts
        tb = pa.table({"w": flat, "d": pa.array(doc_of)})
        dist = tb.group_by(["w", "d"]).aggregate([])
        vc = dist["w"].value_counts()
        out = pa.table({
            "word": vc.field("values"),
            "df": vc.field("counts").cast(pa.int64()),
            "n_docs": pa.array([0] * len(vc), pa.int64()),
        })
        marker = pa.table({
            "word": pa.array(["\x00docs"]),
            "df": pa.array([0], pa.int64()),
            "n_docs": pa.array([len(bt)], pa.int64()),
        })
        return pa.concat_tables([marker, out])

    agg = ds.map_batches(df_partial, batch_format="pyarrow") \
        .groupby("word").aggregate(Sum("df", alias_name="df"),
                                   Sum("n_docs", alias_name="n_docs"))
    stats = collect_arrow(agg)
    if stats.num_rows == 0 or "word" not in stats.column_names:
        import ray.data as rd

        return rd.from_arrow(pa.table({
            id_col: pa.array([], pa.int64()),
            "bucket": pa.array([], pa.int64()),
            "w": pa.array([], pa.float64())}))
    words = stats["word"].to_pylist()
    dfs = stats["df"].to_numpy(zero_copy_only=False)
    n_docs = int(pc.sum(stats["n_docs"]).as_py() or 0)
    import hashlib as _hl

    vocab_words, buckets, idfs = [], [], []
    for wrd, dfv in zip(words, dfs):
        if wrd == "\x00docs":
            continue
        vocab_words.append(wrd)
        buckets.append(int(_hl.md5(wrd.encode()).hexdigest()[:15], 16)
                       % dim)
        # math.log (libm) so the oracle's ln() bit-matches
        idfs.append(math.log(n_docs / int(dfv)))
    table_ref = ray.put((pa.array(vocab_words),
                         np.asarray(buckets, dtype=np.int64),
                         np.asarray(idfs, dtype=np.float64)))
    id_type = ds.schema().base_schema.field(id_col).type

    def score(bt: pa.Table) -> pa.Table:
        vwords, vbuckets, vidf = ray.get(table_ref)
        w = words_of(pc.utf8_lower(bt[text_col]))
        counts = pc.list_value_length(w).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(w.combine_chunks()
                               if isinstance(w, pa.ChunkedArray) else w)
        doc_of = np.repeat(np.arange(len(bt), dtype=np.int64), counts)
        nonempty = pc.greater(pc.utf8_length(flat), 0) \
            .to_numpy(zero_copy_only=False)
        flat, doc_of = flat.filter(pa.array(nonempty)), doc_of[nonempty]
        pos = pc.index_in(flat, value_set=vwords) \
            .to_numpy(zero_copy_only=False)
        # every corpus word is in the vocab (built from this corpus)
        pos = pos.astype(np.int64)
        keys = doc_of * dim + vbuckets[pos]
        uniq, inv = np.unique(keys, return_inverse=True)
        sums = np.bincount(inv, weights=vidf[pos],
                           minlength=len(uniq))
        docs = (uniq // dim).astype(np.int64)
        bks = (uniq % dim).astype(np.int64)
        if dense:
            mat = np.zeros((len(bt), dim), dtype=np.float32)
            mat[docs, bks] = sums
            emb = pa.FixedSizeListArray.from_arrays(
                pa.array(mat.ravel(), pa.float32()), dim).cast(
                pa.list_(pa.float32()))
            return pa.table({id_col: bt[id_col], "embedding": emb})
        return pa.table({
            id_col: bt[id_col].combine_chunks().take(
                pa.array(docs, pa.int64())),
            "bucket": pa.array(bks, pa.int64()),
            "w": pa.array(np.round(sums, 4), pa.float64()),
        })

    return ds.map_batches(score, batch_format="pyarrow")


def _band_keys(sigs: np.ndarray, bands: int) -> np.ndarray:
    """(n, bands) int64 LSH bucket keys from an (n, n_perm) signature
    matrix — the exact mix minhash_band_rows uses, factored so the
    persisted index and the in-memory pair path can never diverge."""
    n, n_perm = sigs.shape
    rows_per_band = n_perm // bands
    with np.errstate(over="ignore"):
        bh = (sigs.reshape(n, bands, rows_per_band)
              * np.uint64(0x9E3779B97F4A7C15)).sum(axis=2)
        bh += np.arange(bands, dtype=np.uint64)[None, :] \
            * np.uint64(0xD1B54A32D192ED03)
    return bh.view(np.int64)


def _sig_array(sigs: np.ndarray) -> pa.Array:
    """(n, n_perm) uint64 MinHash signatures as one fixed-size binary
    array, n_perm * 8 bytes a row."""
    sigs = np.ascontiguousarray(sigs, dtype=np.uint64)
    return pa.Array.from_buffers(pa.binary(sigs.shape[1] * 8), len(sigs),
                                 [None, pa.py_buffer(sigs.tobytes())])


def _sig_matrix(col, n_perm: int) -> np.ndarray:
    """The (n, n_perm) uint64 view of a :func:`_sig_array` column."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    return np.frombuffer(
        arr.buffers()[1], dtype=np.uint64,
        count=(arr.offset + len(arr)) * n_perm,
    ).reshape(-1, n_perm)[arr.offset:]


def _probe_bands(index_dir: str, n_shards: int, keys: np.ndarray,
                 owner: np.ndarray, carry: dict, owner_col: str):
    """Candidate pairs of a band-index query: stream only the
    ``bands/`` shards that can hold one of the new band ``keys`` and,
    for every index row whose ``bk`` equals a new key (a key may belong
    to several new rows), emit the ``carry`` columns (index column ->
    output name) and ``owner_col``, that key's ``owner``, all int64.
    -> the candidate table, or None when nothing matches."""
    import ray
    import ray.data as rd

    from .collect import collect_arrow

    order = np.argsort(keys)
    sorted_bk = keys[order]
    paths = indexes.shard_files(os.path.join(index_dir, "bands"),
                                indexes.shard_of(sorted_bk, n_shards))
    if not paths:
        return None
    ref = ray.put((sorted_bk, owner[order]))

    def probe(b: pa.Table) -> pa.Table:
        sbk, own = ray.get(ref)
        bk = b["bk"].to_numpy(zero_copy_only=False)
        lo = np.searchsorted(sbk, bk, side="left")
        hi = np.searchsorted(sbk, bk, side="right")
        idx = np.flatnonzero(hi > lo)
        counts = (hi - lo)[idx]
        # the new-key positions lo..hi-1 of every hit, run after run
        pos = np.repeat(lo[idx] - np.cumsum(counts) + counts, counts) \
            + np.arange(counts.sum())
        out = {name: pa.array(np.repeat(
            b[c].to_numpy(zero_copy_only=False)[idx], counts)
            .astype(np.int64)) for c, name in carry.items()}
        out[owner_col] = pa.array(own[pos].astype(np.int64))
        return pa.table(out)

    cand = collect_arrow(
        rd.read_parquet(paths).map_batches(probe, batch_format="pyarrow"))
    if cand.num_rows == 0 or owner_col not in cand.column_names:
        return None
    return cand


def _index_rows(index_dir: str, sub: str, n_shards: int, ids: np.ndarray,
                col: str):
    """The (id, ``col``) rows of the ``ids`` from the id-sharded subdir
    ``sub``, reading only their shards. -> a table, or None if empty."""
    import pyarrow.parquet as pq

    need = pa.array(ids)
    parts = []
    for p in indexes.shard_files(os.path.join(index_dir, sub),
                                 indexes.shard_of(ids, n_shards)):
        t = pq.read_table(p, columns=["id", col])
        parts.append(t.filter(pc.is_in(t["id"], value_set=need)))
    t = pa.concat_tables(parts) if parts else None
    return t if t is not None and t.num_rows else None


def build_minhash_index(ds, index_dir: str, text_col: str = "text",
                        id_col: str = "doc_id", n_perm: int = 64,
                        bands: int = 16, shingle_k: int = 5,
                        n_shards: int = 64) -> dict:
    """PERSIST a MinHash-LSH index: build once over the corpus, then
    :func:`query_minhash_index` checks each INCREMENTAL batch for
    near-duplicates against it without re-reading the corpus — the
    near-dup analogue of the exact-hash dedup_index_build path.

    Layout (both hive-partitioned so queries prune at the READ):
    - ``bands/shard=S/``: (bk int64, id) band-bucket rows, S = bk mod
      ``n_shards`` — a query batch touches only its own bucket shards;
    - ``sigs/shard=S/``: (id, sig fixed_binary(n_perm*8)) signatures,
      S = id mod ``n_shards`` — read only for candidate-matched ids
      to estimate Jaccard;
    - ``meta.json``: parameters + the hash version, the commit marker
      of :mod:`.indexes` — queries REFUSE a partial build or one of a
      different hash version rather than silently missing duplicates.

    ``id_col`` must be integer-typed. Returns {"rows", "dir"}."""
    import ray.data as rd

    from .streams import str_stream_from_arrow

    indexes.begin(index_dir, ["sigs", "bands"])

    def sig_rows(b: pa.Table) -> pa.Table:
        lengths, data, _ = str_stream_from_arrow(b[text_col])
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "id": pa.array(ids),
            "sig": _sig_array(batch_minhash_signatures(
                lengths, data, n_perm, shingle_k)),
            "shard": pa.array(indexes.shard_of(ids, n_shards)),
        })

    # signatures (the expensive pass: shingle + n_perm permutations)
    # compute ONCE; the band table then derives from the PERSISTED
    # signatures — a cheap re-read instead of a second signature pass
    ds.map_batches(sig_rows, batch_format="pyarrow").write_parquet(
        os.path.join(index_dir, "sigs"), partition_cols=["shard"])
    sig_ds = rd.read_parquet(os.path.join(index_dir, "sigs"),
                             columns=["id", "sig"])

    def band_rows(b: pa.Table) -> pa.Table:
        bh = _band_keys(_sig_matrix(b["sig"], n_perm), bands)
        ids = b["id"].to_numpy(zero_copy_only=False)
        bk = bh.reshape(-1)
        return pa.table({
            "bk": pa.array(bk),
            "id": pa.array(np.repeat(ids, bands).astype(np.int64)),
            "shard": pa.array(indexes.shard_of(bk, n_shards)),
        })

    sig_ds.map_batches(band_rows, batch_format="pyarrow").write_parquet(
        os.path.join(index_dir, "bands"), partition_cols=["shard"])
    rows = indexes.commit(index_dir, {
        "n_perm": n_perm, "bands": bands, "shingle_k": shingle_k,
        "n_shards": n_shards, "id_col": id_col}, "sigs")
    return {"rows": rows, "dir": index_dir}


def query_minhash_index(new_ds, index_dir: str,
                        jaccard_threshold: float = 0.7,
                        text_col: str = "text",
                        id_col: str = "doc_id") -> pa.Table:
    """Near-duplicate check of an INCREMENTAL batch against a
    persisted :func:`build_minhash_index`: returns
    ``(new_id, index_id, est_jaccard)`` for every new document whose
    ESTIMATED Jaccard (signature agreement — unbiased, ±~1/√n_perm)
    against some indexed document reaches ``jaccard_threshold``.

    Scale shape: the new batch is driver-bounded by contract (it is
    the increment); its band keys select ONLY the matching bucket
    shards of the band table (hive pruning), candidate ids then select
    only their signature shards, filtered at the parquet layer. The
    corpus text is never re-read and the index never loads whole."""
    from .collect import collect_arrow
    from .streams import str_stream_from_arrow

    meta = indexes.open(index_dir)
    n_perm, bands = meta["n_perm"], meta["bands"]
    shingle_k, n_shards = meta["shingle_k"], meta["n_shards"]

    def new_rows(b: pa.Table) -> pa.Table:
        lengths, data, _ = str_stream_from_arrow(b[text_col])
        sigs = batch_minhash_signatures(lengths, data, n_perm, shingle_k)
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        bh = _band_keys(sigs, bands)
        return pa.table({
            "id": pa.array(ids), "sig": _sig_array(sigs),
            "bks": pa.array(bh.tolist(),
                            type=pa.list_(pa.int64())),
        })

    new_tab = collect_arrow(new_ds.map_batches(new_rows,
                                               batch_format="pyarrow"))
    empty = pa.table({"new_id": pa.array([], pa.int64()),
                      "index_id": pa.array([], pa.int64()),
                      "est_jaccard": pa.array([], pa.float64())})
    if new_tab.num_rows == 0:
        return empty
    new_ids = new_tab["id"].to_numpy(zero_copy_only=False)
    bk_mat = np.asarray(new_tab["bks"].to_pylist(), dtype=np.int64)
    cand = _probe_bands(index_dir, n_shards, bk_mat.reshape(-1),
                        np.repeat(np.arange(len(new_ids)), bands),
                        {"id": "index_id"}, "new_row")
    if cand is None:
        return empty
    # dedup (index_id, new_row) across bands
    pairs = cand.group_by(["index_id", "new_row"]).aggregate([])
    sig_tab = _index_rows(index_dir, "sigs", n_shards, np.unique(
        pairs["index_id"].to_numpy(zero_copy_only=False)), "sig")
    if sig_tab is None:
        return empty
    iids = sig_tab["id"].to_numpy(zero_copy_only=False)
    iorder = np.argsort(iids)
    iids_sorted = iids[iorder]
    sig_mat = _sig_matrix(sig_tab["sig"], n_perm)
    new_sig = _sig_matrix(new_tab["sig"], n_perm)
    pa_i = pairs["index_id"].to_numpy(zero_copy_only=False)
    pa_n = pairs["new_row"].to_numpy(zero_copy_only=False)
    ipos = np.searchsorted(iids_sorted, pa_i)
    ipos[ipos == len(iids_sorted)] = 0
    ok = iids_sorted[ipos] == pa_i
    est = np.zeros(len(pa_i), dtype=np.float64)
    if ok.any():
        est[ok] = (sig_mat[iorder[ipos[ok]]]
                   == new_sig[pa_n[ok]]).mean(axis=1)
    keep = ok & (est >= jaccard_threshold)
    out = pa.table({
        "new_id": pa.array(new_ids[pa_n[keep]].astype(np.int64)),
        "index_id": pa.array(pa_i[keep].astype(np.int64)),
        "est_jaccard": pa.array(est[keep]),
    })
    return out.sort_by([("new_id", "ascending"),
                        ("index_id", "ascending")])


def build_simhash_index(ds, index_dir: str, text_col: str = "text",
                        id_col: str = "doc_id",
                        n_shards: int = 64) -> dict:
    """PERSIST a SimHash band index: build once over the corpus, then
    :func:`query_simhash_index` checks each INCREMENTAL batch for
    Hamming-near duplicates against it without re-reading the corpus —
    the Hamming-family analogue of :func:`build_minhash_index`.

    Layout (hive-partitioned so queries prune at the READ):
    - ``bands/shard=S/``: (bk int64, id int64, sh int64) rows, one per
      (doc, band); the 4 x 16-bit band keys follow
      :func:`simhash_band_rows` (any pair within Hamming<=3 shares at
      least one band), S = bk mod ``n_shards``. The row CARRIES the
      full 64-bit signature, so the verify needs no second signature
      table — 8 extra bytes/row buys one fewer pruned read.
    - ``meta.json``: parameters + hash version, the commit marker of
      :mod:`.indexes` (a partial build refuses to probe rather than
      silently missing duplicates).

    ``id_col`` must be integer-typed. Returns {"rows", "dir"}."""
    indexes.begin(index_dir, ["bands"])

    def band_rows(b: pa.Table) -> pa.Table:
        t = simhash_band_rows(b, text_col, id_col)
        t = t.rename_columns(["bk", "id", "sh"])
        bk = t["bk"].to_numpy(zero_copy_only=False)
        return t.append_column(
            "shard", pa.array(indexes.shard_of(bk, n_shards)))

    ds.map_batches(band_rows, batch_format="pyarrow").write_parquet(
        os.path.join(index_dir, "bands"), partition_cols=["shard"])
    n_band_rows = indexes.commit(index_dir, {
        "bands": 4, "n_shards": n_shards, "id_col": id_col}, "bands")
    return {"rows": n_band_rows // 4, "dir": index_dir}


def query_simhash_index(new_ds, index_dir: str, max_hamming: int = 3,
                        text_col: str = "text",
                        id_col: str = "doc_id") -> pa.Table:
    """Hamming-near-duplicate check of an INCREMENTAL batch against a
    persisted :func:`build_simhash_index`: returns
    ``(new_id, index_id, hamming)`` for every new document within
    ``max_hamming`` bits of some indexed document's SimHash (full
    recall for Hamming<=3 by the 4-band pigeonhole; larger radii are
    best-effort, as with any banded SimHash).

    Scale shape mirrors query_minhash_index: the new batch is
    driver-bounded by contract; its band keys select ONLY the matching
    bucket shards (hive pruning), and the XOR-popcount verify runs on
    the signatures the band rows already carry — the corpus text is
    never re-read and the index never loads whole."""
    from .collect import collect_arrow

    n_shards = indexes.open(index_dir)["n_shards"]

    def new_rows(b: pa.Table) -> pa.Table:
        h = simhash64(b[text_col])
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        shifts = (np.uint64(16) * np.arange(4, dtype=np.uint64))[:, None]
        keys = ((h[None, :] >> shifts) & np.uint64(0xFFFF)).astype(np.int64)
        bk = ((np.arange(4, dtype=np.int64)[:, None] << 16) | keys).T
        return pa.table({
            "id": pa.array(ids),
            "sh": pa.array(h.view(np.int64)),
            "bks": pa.array(bk.tolist(), type=pa.list_(pa.int64())),
        })

    new_tab = collect_arrow(new_ds.map_batches(new_rows,
                                               batch_format="pyarrow"))
    empty = pa.table({"new_id": pa.array([], pa.int64()),
                      "index_id": pa.array([], pa.int64()),
                      "hamming": pa.array([], pa.int64())})
    if new_tab.num_rows == 0:
        return empty
    new_ids = new_tab["id"].to_numpy(zero_copy_only=False)
    new_sh = new_tab["sh"].to_numpy(zero_copy_only=False).view(np.uint64)
    bk_mat = np.asarray(new_tab["bks"].to_pylist(), dtype=np.int64)
    cand = _probe_bands(index_dir, n_shards, bk_mat.reshape(-1),
                        np.repeat(np.arange(len(new_ids)), 4),
                        {"id": "index_id", "sh": "index_sh"}, "new_row")
    if cand is None:
        return empty
    # dedup (index_id, new_row) across bands (signature rides along —
    # identical for every band row of the same indexed doc)
    pairs = cand.group_by(["index_id", "new_row"]).aggregate(
        [("index_sh", "min")])
    pi = pairs["index_id"].to_numpy(zero_copy_only=False)
    pn = pairs["new_row"].to_numpy(zero_copy_only=False)
    psh = pairs["index_sh_min"].to_numpy(
        zero_copy_only=False).view(np.uint64)
    dist = _popcount64(psh ^ new_sh[pn]).astype(np.int64)
    keep = dist <= max_hamming
    out = pa.table({
        "new_id": pa.array(new_ids[pn[keep]].astype(np.int64)),
        "index_id": pa.array(pi[keep].astype(np.int64)),
        "hamming": pa.array(dist[keep]),
    })
    return out.sort_by([("new_id", "ascending"),
                        ("index_id", "ascending")])


def build_edit_index(ds, index_dir: str, text_col: str = "text",
                     id_col: str = "doc_id", prefix_len: int = 32,
                     n_shards: int = 64) -> dict:
    """PERSIST a FastSS deletion-neighborhood index over document
    prefixes: build once, then :func:`query_edit_index` checks each
    INCREMENTAL batch for Levenshtein<=1 prefix near-duplicates
    against it — the edit-distance analogue of
    :func:`build_minhash_index` (full recall at distance <= 1 by the
    deletion-variant property, see :func:`edit_pairs`).

    Layout (hive-partitioned; queries prune at the READ):
    - ``bands/shard=S/``: (bk int64, id int64) deletion-variant hash
      rows, S = bk mod ``n_shards``;
    - ``pfx/shard=S/``: (id, pfx string) the indexed prefixes,
      S = id mod ``n_shards`` — read only for candidate-matched ids
      to run the exact character verify;
    - ``meta.json``: parameters + hash version, the commit marker of
      :mod:`.indexes`.

    ``id_col`` must be integer-typed. Returns {"rows", "dir"}."""
    indexes.begin(index_dir, ["bands", "pfx"])

    def band_rows(b: pa.Table) -> pa.Table:
        t = _deletion_key_rows(b, text_col, id_col, prefix_len)
        t = t.rename_columns(["bk", "id"])
        bk = t["bk"].to_numpy(zero_copy_only=False)
        return t.append_column(
            "shard", pa.array(indexes.shard_of(bk, n_shards)))

    def pfx_rows(b: pa.Table) -> pa.Table:
        keep = pc.is_valid(b[text_col])
        t = b.filter(keep)
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "id": pa.array(ids),
            "pfx": pc.utf8_slice_codeunits(
                t[text_col].combine_chunks(), 0, prefix_len),
            "shard": pa.array(indexes.shard_of(ids, n_shards)),
        })

    ds.map_batches(band_rows, batch_format="pyarrow").write_parquet(
        os.path.join(index_dir, "bands"), partition_cols=["shard"])
    ds.map_batches(pfx_rows, batch_format="pyarrow").write_parquet(
        os.path.join(index_dir, "pfx"), partition_cols=["shard"])
    rows = indexes.commit(index_dir, {
        "prefix_len": prefix_len, "n_shards": n_shards,
        "id_col": id_col}, "pfx")
    return {"rows": rows, "dir": index_dir}


def query_edit_index(new_ds, index_dir: str, text_col: str = "text",
                     id_col: str = "doc_id",
                     max_dist: int = 1) -> pa.Table:
    """Levenshtein<=1 prefix near-duplicate check of an INCREMENTAL
    batch against a persisted :func:`build_edit_index`: returns
    ``(new_id, index_id, dist)`` with dist in {0, 1} — full recall at
    distance <= 1 by the deletion-variant property.

    Scale shape mirrors query_minhash_index: the new batch is
    driver-bounded by contract; its deletion-variant keys select ONLY
    matching band shards (hive pruning), candidate ids then select
    only their prefix shards for the exact character verify — the
    corpus never re-reads and the index never loads whole."""
    from .collect import collect_arrow

    if not 0 <= max_dist <= 1:
        raise ValueError("deletion neighborhoods guarantee recall "
                         "only for max_dist <= 1")
    meta = indexes.open(index_dir)
    n_shards, prefix_len = meta["n_shards"], meta["prefix_len"]

    def new_rows(b: pa.Table) -> pa.Table:
        t = _deletion_key_rows(b, text_col, id_col, prefix_len)
        return t.rename_columns(["bk", "id"])

    new_tab = collect_arrow(new_ds.map_batches(new_rows,
                                               batch_format="pyarrow"))
    empty = pa.table({"new_id": pa.array([], pa.int64()),
                      "index_id": pa.array([], pa.int64()),
                      "dist": pa.array([], pa.int64())})
    if new_tab.num_rows == 0:
        return empty
    cand = _probe_bands(
        index_dir, n_shards, new_tab["bk"].to_numpy(zero_copy_only=False),
        new_tab["id"].to_numpy(zero_copy_only=False).astype(np.int64),
        {"id": "index_id"}, "new_id")
    if cand is None:
        return empty
    pairs = cand.group_by(["index_id", "new_id"]).aggregate([])
    ptab = _index_rows(index_dir, "pfx", n_shards, np.unique(
        pairs["index_id"].to_numpy(zero_copy_only=False)), "pfx")
    if ptab is None:
        return empty
    ipfx = dict(zip(ptab["id"].to_pylist(), ptab["pfx"].to_pylist()))
    # new-side prefixes from the increment itself (driver-bounded)
    def new_pfx(b: pa.Table) -> pa.Table:
        keep = pc.is_valid(b[text_col])
        t = b.filter(keep)
        return pa.table({
            "id": t[id_col],
            "pfx": pc.utf8_slice_codeunits(
                t[text_col].combine_chunks(), 0, prefix_len)})

    nptab = collect_arrow(new_ds.map_batches(new_pfx,
                                             batch_format="pyarrow"))
    npfx = dict(zip(nptab["id"].to_pylist(), nptab["pfx"].to_pylist()))
    pi = pairs["index_id"].to_numpy(zero_copy_only=False)
    pn = pairs["new_id"].to_numpy(zero_copy_only=False)
    ok = np.array([int(i) in ipfx and int(j) in npfx
                   for i, j in zip(pi, pn)], dtype=bool)
    pi, pn = pi[ok], pn[ok]
    if len(pi) == 0:
        return empty
    dist = _verify_lev_le1([npfx[int(j)] for j in pn],
                           [ipfx[int(i)] for i in pi])
    keep = dist <= max_dist
    out = pa.table({
        "new_id": pa.array(pn[keep].astype(np.int64)),
        "index_id": pa.array(pi[keep].astype(np.int64)),
        "dist": pa.array(dist[keep].astype(np.int64)),
    })
    return out.sort_by([("new_id", "ascending"),
                        ("index_id", "ascending")])
