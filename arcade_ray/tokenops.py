"""Operators over PRE-TOKENIZED sequences (``list<int32>`` token
columns) — the corpus shape this engine compresses (``doc_id, tokens,
n_tok, source``). Everything here runs directly on token ids: no
tokenizer round-trip, no text decode, so the same pass that would cost
a string split per document on text costs one flatten per batch here.

The reference engine has no token-level operators (its corpus is raw
strings; /root/reference/README.md roadmap stops at scalar columns);
this module extends the training-data operator family (SURVEY.md §2.3)
with the passes a pre-tokenized 10^12-sequence pipeline runs between
ingest and packing: corpus unigram statistics (vocab coverage /
sampling temperature inputs), benchmark decontamination on token
n-grams, intra-sequence repetition gates, and vocabulary remapping
(vocab pruning / merging).

Scale shape shared by every op: per-batch vectorized flatten (zero-copy
Arrow list offsets + values), numpy kernels over the flat stream,
partials that are vocabulary- or hit-bounded (never corpus-bounded),
and broadcast small sides via ``ray.put`` — the corpus itself never
shuffles and never collects."""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

__all__ = [
    "flat_tokens", "batch_token_ngram_hashes", "token_unigram_stats",
    "token_contaminated_ids", "decontaminate_tokens",
    "token_repetition_stats", "remap_tokens",
    "batch_token_minhash_signatures", "token_minhash_band_rows",
    "token_minhash_pairs", "token_novelty_stats",
]


def flat_tokens(col) -> tuple[np.ndarray, np.ndarray, int]:
    """Flatten one batch of a ``list<int>`` column: returns
    ``(values int64, doc_of int64, n_docs)`` where ``doc_of[i]`` is the
    in-batch row index owning ``values[i]``. Null lists count as empty
    (their rows simply contribute no values)."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    n_docs = len(arr)
    if n_docs == 0:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                0)
    counts = pc.fill_null(pc.list_value_length(arr), 0) \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    vals = pc.list_flatten(arr).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    doc_of = np.repeat(np.arange(n_docs, dtype=np.int64), counts)
    return vals, doc_of, n_docs


def batch_token_ngram_hashes(col, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-sequence token ``n``-gram rolling hashes, fully vectorized:
    splitmix64 over each token id, then an n-term polynomial combine
    with sequence boundaries masked (the exact
    :func:`arcade_ray.textops.batch_word_ngram_hashes` shape, minus the
    string split — token ids hash directly). Sequences shorter than
    ``n`` contribute nothing.

    Returns ``(hashes uint64, doc_index int64)`` across the batch."""
    from .hashing import hash_ints

    vals, doc_of, _ = flat_tokens(col)
    empty = (np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64))
    total = len(vals)
    if total < n:
        return empty
    h = hash_ints(vals)
    acc = np.zeros(total - n + 1, dtype=np.uint64)
    base = np.uint64(1099511628211)
    p = np.uint64(1)
    with np.errstate(over="ignore"):  # uint64 wraparound is the hash
        for j in range(n):
            acc += h[j: total - n + 1 + j] * p
            p *= base
    gdoc = doc_of[: total - n + 1]
    valid = doc_of[n - 1:] == gdoc
    return acc[valid], gdoc[valid]


def _merge_token_counts(batch: pa.Table) -> pa.Table:
    """Sum duplicate (token, n) partial rows: one int64 sort +
    run-boundary ``np.add.reduceat`` — exact in int64, no hash
    aggregate, no Ray sort."""
    toks = batch["token"].to_numpy(zero_copy_only=False) \
        .astype(np.int32)
    ns = batch["n"].to_numpy(zero_copy_only=False).astype(np.int64)
    if len(toks) == 0:
        return pa.table({"token": pa.array([], pa.int32()),
                         "n": pa.array([], pa.int64())})
    order = np.argsort(toks, kind="stable")
    st, sn = toks[order], ns[order]
    bounds = np.flatnonzero(
        np.concatenate([[True], st[1:] != st[:-1]]))
    return pa.table({
        "token": pa.array(st[bounds], type=pa.int32()),
        "n": pa.array(np.add.reduceat(sn, bounds))})


_UNIGRAM_COMBINE_BLOCKS = 32


def token_unigram_stats(ds, tokens_col: str = "tokens",
                        top_k: int | None = None) -> pa.Table:
    """Corpus-wide token frequency table ``(token int32, n int64)``,
    sorted (n desc, token asc), optionally truncated to ``top_k`` —
    the unigram distribution feeding vocab-coverage checks, sampling
    temperatures and pruning decisions.

    Scale shape: per-batch ``np.unique`` partials (distinct-bounded,
    not corpus-bounded), a coalesce tree-combine (repartition into
    ~:data:`_UNIGRAM_COMBINE_BLOCKS` blocks, one sort+reduceat merge
    per block — the kmeans_fit reduce pattern), then one driver fold
    over the pre-merged partials. Deliberately NOT a Ray
    groupby-sort: a high-cardinality id domain (a uniform-random
    source; contamination ids) pushes the whole distinct set through
    the sort exchange — measured 190 s vs ~4 s on 122M tokens with a
    2^31-domain source."""
    def partial(b: pa.Table) -> pa.Table:
        vals, _, _ = flat_tokens(b[tokens_col])
        toks, counts = np.unique(vals, return_counts=True)
        return pa.table({"token": pa.array(toks.astype(np.int32),
                                           type=pa.int32()),
                         "n": pa.array(counts.astype(np.int64))})

    part = ds.map_batches(partial, batch_format="pyarrow")
    merged = part.repartition(_UNIGRAM_COMBINE_BLOCKS).map_batches(
        _merge_token_counts, batch_format="pyarrow", batch_size=None)

    from .collect import collect_arrow

    t = collect_arrow(merged)
    if t.num_rows == 0 or "token" not in t.column_names:
        return pa.table({"token": pa.array([], pa.int32()),
                         "n": pa.array([], pa.int64())})
    t = _merge_token_counts(t)
    order = pc.sort_indices(t, sort_keys=[("n", "descending"),
                                          ("token", "ascending")])
    t = t.take(order)
    return t.slice(0, top_k) if top_k is not None else t


def token_contaminated_ids(ds, eval_ds, n: int = 13,
                           tokens_col: str = "tokens",
                           id_col: str = "doc_id",
                           eval_tokens_col: str | None = None):
    """Ids of training sequences sharing at least one token ``n``-gram
    with ANY eval sequence — benchmark decontamination run directly on
    token ids (the form a pre-tokenized corpus actually stores; n=13
    words ≈ the GPT-3/PaLM convention, applied here to tokens).
    Identity is the 64-bit rolling hash: a collision can only OVER-flag
    (drop a clean sequence), at ~2^-64 odds per pair — the conservative
    direction.

    Scale shape mirrors :func:`arcade_ray.textops.ngram_contaminated_ids`:
    the eval side reduces to a deduplicated uint64 hash set (per-batch
    unique, tiny driver union, ``ray.put`` ONCE); the corpus streams
    through a map-side ``searchsorted`` probe — never shuffles, never
    collects. Returns a Dataset with one ``id_col`` column."""
    import ray

    ecol = eval_tokens_col or tokens_col

    def eval_hashes(b: pa.Table) -> pa.Table:
        h, _ = batch_token_ngram_hashes(b[ecol], n)
        return pa.table({"_h": pa.array(np.unique(h))})

    from .collect import collect_arrow

    ev = collect_arrow(eval_ds.map_batches(eval_hashes,
                                           batch_format="pyarrow"))
    ev_hashes = np.unique(ev["_h"].to_numpy(zero_copy_only=False)) \
        if ev.num_rows else np.empty(0, dtype=np.uint64)
    ref = ray.put(ev_hashes)

    def tag(b: pa.Table) -> pa.Table:
        sorted_ev = ray.get(ref)
        ids = b[id_col]
        if len(sorted_ev) == 0 or b.num_rows == 0:
            return pa.table({id_col: pa.array([], type=ids.type)})
        h, doc_of = batch_token_ngram_hashes(b[tokens_col], n)
        if len(h) == 0:
            return pa.table({id_col: pa.array([], type=ids.type)})
        pos = np.searchsorted(sorted_ev, h)
        pos[pos == len(sorted_ev)] = 0
        hit = sorted_ev[pos] == h
        docs = np.unique(doc_of[hit])
        return b.select([id_col]).take(pa.array(docs, type=pa.int64()))

    return ds.map_batches(tag, batch_format="pyarrow")


def decontaminate_tokens(ds, eval_ds, n: int = 13,
                         tokens_col: str = "tokens",
                         id_col: str = "doc_id",
                         eval_tokens_col: str | None = None):
    """Drop every training sequence sharing a token ``n``-gram with the
    eval corpus (see :func:`token_contaminated_ids`). The contaminated
    id set is corpus-small (bounded by the eval set's reach); it
    collects once, ships via ``ray.put``, and the corpus filters
    map-side. Returns the filtered Dataset."""
    import ray

    from .collect import collect_arrow

    bad = collect_arrow(token_contaminated_ids(
        ds, eval_ds, n=n, tokens_col=tokens_col, id_col=id_col,
        eval_tokens_col=eval_tokens_col))
    bad_ids = bad[id_col].combine_chunks() if bad.num_rows \
        else pa.array([], type=bad.schema.field(id_col).type)
    ref = ray.put(bad_ids)

    def keep(b: pa.Table) -> pa.Table:
        bids = ray.get(ref)
        if len(bids) == 0 or b.num_rows == 0:
            return b
        return b.filter(pc.invert(pc.fill_null(
            pc.is_in(b[id_col], value_set=bids), False)))

    return ds.map_batches(keep, batch_format="pyarrow")


def token_repetition_stats(ds, n: int = 2, tokens_col: str = "tokens",
                           id_col: str = "doc_id", digits: int = 4):
    """Per-sequence token-level repetition signal: of a sequence's
    token ``n``-grams, how many are duplicates within the sequence —
    the Gopher repetition gate applied to token ids (catches degenerate
    loops and boilerplate the text-level pass sees only after a decode).
    Returns ``(id_col, n_grams, n_unique, dup_frac)``; sequences with
    fewer than ``n`` tokens have zero n-grams and ``dup_frac`` 0.

    One vectorized pass per batch: shared rolling hashes
    (:func:`batch_token_ngram_hashes`), one lexsort + run-boundary scan
    for per-sequence unique counts — no per-sequence Python, no
    shuffle. ``n_grams``/``n_unique`` are the integer-exact signal;
    ``dup_frac`` is the rounded convenience ratio."""

    def run(b: pa.Table) -> pa.Table:
        n_docs = b.num_rows
        if n_docs == 0:
            return pa.table({
                id_col: b[id_col],
                "n_grams": pa.array([], pa.int64()),
                "n_unique": pa.array([], pa.int64()),
                "dup_frac": pa.array([], pa.float64())})
        h, doc_of = batch_token_ngram_hashes(b[tokens_col], n)
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
        return pa.table({
            id_col: b[id_col],
            "n_grams": pa.array(total, type=pa.int64()),
            "n_unique": pa.array(uniq, type=pa.int64()),
            "dup_frac": pa.array(np.round(frac, digits),
                                 type=pa.float64())})

    return ds.map_batches(run, batch_format="pyarrow")


def remap_tokens(ds, mapping: pa.Table, unk: int = 0,
                 tokens_col: str = "tokens",
                 old_col: str = "old", new_col: str = "new"):
    """Rewrite every token id through a vocabulary mapping — the
    vocab-pruning / vocab-merge pass (ids absent from ``mapping``
    become ``unk``). ``mapping`` is a two-column table
    ``(old int, new int)``; duplicate ``old`` ids raise.

    The mapping ships once via ``ray.put`` as a pair of sorted numpy
    arrays; each batch is one flatten + one ``searchsorted`` + one
    ``take`` — the list offsets are reused untouched, so the rebuild is
    allocation-only. All non-token columns pass through unchanged."""
    import ray

    old = np.ascontiguousarray(
        mapping[old_col].to_numpy(zero_copy_only=False), dtype=np.int64)
    new64 = np.ascontiguousarray(
        mapping[new_col].to_numpy(zero_copy_only=False), dtype=np.int64)
    if len(new64) and (new64.max(initial=0) > np.iinfo(np.int32).max
                       or new64.min(initial=0) < np.iinfo(np.int32).min):
        raise ValueError("mapping 'new' ids overflow int32")
    if not (np.iinfo(np.int32).min <= unk <= np.iinfo(np.int32).max):
        raise ValueError("unk id overflows int32")
    new = new64.astype(np.int32)
    order = np.argsort(old, kind="stable")
    old, new = old[order], new[order]
    if len(old) > 1 and (old[1:] == old[:-1]).any():
        raise ValueError("mapping has duplicate old ids")
    ref = ray.put((old, new))

    def run(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return b
        sorted_old, new_ids = ray.get(ref)
        arr = b[tokens_col]
        arr = arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) \
            else arr
        flat = pc.list_flatten(arr).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        out = np.full(len(flat), unk, dtype=np.int32)
        if len(sorted_old):
            pos = np.searchsorted(sorted_old, flat)
            pos[pos == len(sorted_old)] = 0
            hit = sorted_old[pos] == flat
            out[hit] = new_ids[pos[hit]]
        counts = pc.fill_null(pc.list_value_length(arr), 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        offsets = np.zeros(b.num_rows + 1, dtype=np.int32)
        np.cumsum(counts, out=offsets[1:])
        if arr.null_count:
            # null lists stay NULL (distinct from empty): rebuild with
            # the original validity bitmap
            vbuf = pc.is_valid(arr).buffers()[1]
            lst = pa.Array.from_buffers(
                pa.list_(pa.int32()), len(arr),
                [vbuf, pa.py_buffer(offsets.tobytes())],
                children=[pa.array(out, type=pa.int32())])
        else:
            lst = pa.ListArray.from_arrays(
                pa.array(offsets), pa.array(out, type=pa.int32()))
        idx = b.schema.get_field_index(tokens_col)
        return b.set_column(idx, tokens_col, lst)

    return ds.map_batches(run, batch_format="pyarrow")


def batch_token_minhash_signatures(col, n_perm: int = 64,
                                   ngram: int = 3, seed: int = 42
                                   ) -> tuple[np.ndarray, np.ndarray]:
    """(m, n_perm) MinHash signatures over token ``ngram`` rolling
    hashes, one vectorized pass for the whole batch (the
    textops.batch_minhash_signatures shape, minus the string
    shingling). Sequences with zero n-grams (shorter than ``ngram``)
    carry no signature; returns ``(sigs, row_idx)`` where ``row_idx``
    maps signature rows back to batch rows."""
    from .textops import _MERSENNE

    h, doc_of = batch_token_ngram_hashes(col, ngram)
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    n_docs = len(arr)
    counts = np.bincount(doc_of, minlength=n_docs) if len(h) \
        else np.zeros(n_docs, dtype=np.int64)
    row_idx = np.flatnonzero(counts > 0)
    m = len(row_idx)
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, n_perm, dtype=np.uint64)
    b = rng.integers(0, _MERSENNE, n_perm, dtype=np.uint64)
    sigs = np.empty((m, n_perm), dtype=np.uint64)
    if m == 0:
        return sigs, row_idx
    starts = np.zeros(m, dtype=np.int64)
    np.cumsum(counts[row_idx][:-1], out=starts[1:])
    x = h % np.uint64(_MERSENNE)
    for p in range(n_perm):
        vals = (x * a[p] + b[p]) % np.uint64(_MERSENNE)
        sigs[:, p] = np.minimum.reduceat(vals, starts)
    return sigs, row_idx


def token_minhash_band_rows(batch: pa.Table, tokens_col: str = "tokens",
                            id_col: str = "doc_id", n_perm: int = 64,
                            bands: int = 16, ngram: int = 3) -> pa.Table:
    """(bucket key, id) rows for token-level MinHash-LSH — the only
    thing that ever shuffles (16 B/row x bands); neither tokens nor
    full signatures travel."""
    sigs, row_idx = batch_token_minhash_signatures(
        batch[tokens_col], n_perm, ngram)
    m = len(row_idx)
    rows_per_band = n_perm // bands
    bh = (sigs.reshape(m, bands, rows_per_band)
          * np.uint64(0x9E3779B97F4A7C15)).sum(axis=2)
    bh += np.arange(bands, dtype=np.uint64)[None, :] \
        * np.uint64(0xD1B54A32D192ED03)
    ids = batch[id_col].to_numpy(zero_copy_only=False)[row_idx]
    return pa.table({
        "bk": pa.array(bh.reshape(-1).view(np.int64)),
        id_col: pa.array(np.repeat(ids, bands)),
    })


def token_minhash_pairs(ds, tokens_col: str = "tokens",
                        id_col: str = "doc_id", n_perm: int = 64,
                        bands: int = 16,
                        jaccard_threshold: float = 0.7,
                        ngram: int = 3, max_bucket: int = 4096,
                        as_refs: bool = False):
    """Near-duplicate pairs over PRE-TOKENIZED sequences: MinHash-LSH
    on token ``ngram`` sets — no tokenizer round-trip, no text decode.
    Same three-phase scale shape as textops.minhash_lsh_pairs (the
    size-adaptive collect.lsh_pairs_verify machinery): fixed-width
    (bucket, id) shuffle, hot-bucket candidate generation, distributed
    exact verify with a signature-estimated-Jaccard cull before the
    exact token-n-gram-set Jaccard. ``id_col`` must be integer-typed
    (the verify exchange buckets on it). Returns
    (id_a, id_b, jaccard) with id_a < id_b."""
    from .collect import lsh_pairs_verify
    from .textops import _sig_array, _sig_matrix

    sig_ds = ds.map_batches(
        lambda b: token_minhash_band_rows(b, tokens_col, id_col,
                                          n_perm, bands, ngram),
        batch_format="pyarrow")

    def derive(sub: pa.Table) -> pa.Table:
        sigs, row_idx = batch_token_minhash_signatures(
            sub[tokens_col], n_perm, ngram)
        full = np.zeros((sub.num_rows, n_perm), dtype=np.uint64)
        full[row_idx] = sigs
        return sub.append_column("_sig", _sig_array(full))

    def verify(pairs: pa.Table, payload: pa.Table) -> pa.Table:
        ids_f = payload[id_col].to_numpy(zero_copy_only=False)
        order = np.argsort(ids_f)
        ids_sorted = ids_f[order]
        sig_mat = _sig_matrix(payload["_sig"], n_perm)
        ai = order[np.searchsorted(
            ids_sorted, pairs["id_a"].to_numpy(zero_copy_only=False))]
        bi = order[np.searchsorted(
            ids_sorted, pairs["id_b"].to_numpy(zero_copy_only=False))]
        est = np.empty(len(ai), dtype=np.float64)
        for s in range(0, len(ai), 200_000):
            e = min(s + 200_000, len(ai))
            est[s:e] = (sig_mat[ai[s:e]] == sig_mat[bi[s:e]]).mean(axis=1)
        keep = est >= jaccard_threshold - 0.15
        used = np.unique(np.concatenate([ai[keep], bi[keep]])) \
            if keep.any() else np.empty(0, np.int64)
        sub_pay = payload.select([tokens_col]).take(
            pa.array(used, type=pa.int64()))
        h, doc_of = batch_token_ngram_hashes(sub_pay[tokens_col], ngram)
        counts = np.bincount(doc_of, minlength=len(used)) if len(h) \
            else np.zeros(len(used), dtype=np.int64)
        offs = np.zeros(len(used) + 1, dtype=np.int64)
        np.cumsum(counts, out=offs[1:])
        sets: dict = {}

        def gram_set(u):
            if u not in sets:
                sets[u] = set(h[offs[u]: offs[u + 1]].tolist())
            return sets[u]

        a_ids = pairs["id_a"].to_numpy(zero_copy_only=False)[keep]
        b_ids = pairs["id_b"].to_numpy(zero_copy_only=False)[keep]
        ua = np.searchsorted(used, ai[keep])
        ub = np.searchsorted(used, bi[keep])
        a_out, b_out, j_out = [], [], []
        for a, b, ia, ib in zip(a_ids.tolist(), b_ids.tolist(),
                                ua.tolist(), ub.tolist()):
            sa, sb = gram_set(ia), gram_set(ib)
            union = len(sa | sb)
            jac = len(sa & sb) / union if union else 1.0
            if jac >= jaccard_threshold:
                a_out.append(a)
                b_out.append(b)
                j_out.append(jac)
        return pa.table({"id_a": pa.array(a_out, pa.int64()),
                         "id_b": pa.array(b_out, pa.int64()),
                         "jaccard": pa.array(j_out, pa.float64())})

    return lsh_pairs_verify(ds, sig_ds, id_col, [tokens_col], verify,
                            max_bucket=max_bucket, derive_fn=derive,
                            as_refs=as_refs)


def token_novelty_stats(ds, tokens_col: str = "tokens",
                        id_col: str = "doc_id",
                        counts: pa.Table | None = None):
    """Per-sequence corpus-frequency (novelty) signal — the
    rare-token quality gate: sequences dominated by corpus-rare ids
    are candidate noise, sequences of only ultra-common ids are
    candidate boilerplate. Emits integer-exact
    ``(id_col, n_tokens, freq_sum)`` — ``freq_sum`` = sum over the
    sequence of each token's CORPUS occurrence count — plus
    ``mean_logfreq`` (mean ln(count), the unigram-LM surprisal up to
    a constant; float convenience, derived from the exact ints).

    ``counts`` defaults to :func:`token_unigram_stats` over ``ds``
    (one extra pass); pass a precomputed table to amortize. The count
    table broadcasts once via ``ray.put`` as sorted arrays; each
    batch is one flatten + searchsorted + reduceat — no shuffle."""
    import ray

    if counts is None:
        counts = token_unigram_stats(ds, tokens_col=tokens_col)
    toks = counts["token"].to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    ns = counts["n"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(toks, kind="stable")
    ref = ray.put((toks[order], ns[order]))

    def run(b: pa.Table) -> pa.Table:
        st, sn = ray.get(ref)
        vals, doc_of, n_docs = flat_tokens(b[tokens_col])
        n_tok = np.bincount(doc_of, minlength=n_docs).astype(np.int64)
        if len(vals) and len(st):
            pos = np.searchsorted(st, vals)
            pos[pos == len(st)] = 0
            hit = st[pos] == vals
            c = np.where(hit, sn[pos], 0).astype(np.int64)
            bounds = np.zeros(n_docs + 1, dtype=np.int64)
            np.cumsum(n_tok, out=bounds[1:])
            freq = np.add.reduceat(
                np.concatenate([c, [0]]), bounds[:-1])
            freq[n_tok == 0] = 0
            logs = np.zeros(len(c), dtype=np.float64)
            nz = c > 0
            logs[nz] = np.log(c[nz])
            lsum = np.add.reduceat(
                np.concatenate([logs, [0.0]]), bounds[:-1])
            lsum[n_tok == 0] = 0.0
            mean_log = np.where(n_tok > 0, lsum / np.maximum(n_tok, 1),
                                0.0)
        else:
            freq = np.zeros(n_docs, dtype=np.int64)
            mean_log = np.zeros(n_docs, dtype=np.float64)
        return pa.table({
            id_col: b[id_col],
            "n_tokens": pa.array(n_tok),
            "freq_sum": pa.array(freq),
            "mean_logfreq": pa.array(mean_log),
        })

    return ds.map_batches(run, batch_format="pyarrow")
