"""Dedup + text-analysis operators (planted duplicates, known answers)."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from arcade_ray.textops import (
    _MERSENNE,
    TextAnalyzer,
    _char_shingles,
    analyze_text,
    batch_minhash_signatures,
    exact_dedup,
    minhash_lsh_pairs,
    simhash64,
    simhash_pairs,
)

BASE_DOCS = [
    "the quick brown fox jumps over the lazy dog and runs far away today",
    "machine learning systems process large volumes of text data every day",
    "der schnelle braune fuchs springt über den faulen hund im wald",
    "le renard brun rapide saute par dessus le chien paresseux du village",
    "numbers 12345 and punctuation!!! are, counted; separately: here...",
]


def make_docs_table(n_copies=3):
    """n_copies exact dups of doc 0, a near-dup of doc 1, distinct rest."""
    texts, ids = [], []
    i = 0
    for _ in range(n_copies):
        texts.append(BASE_DOCS[0]); ids.append(i); i += 1
    near = BASE_DOCS[1].replace("every day", "each day")
    texts.append(BASE_DOCS[1]); ids.append(i); i += 1
    texts.append(near); ids.append(i); i += 1
    for d in BASE_DOCS[2:]:
        texts.append(d); ids.append(i); i += 1
    rng = np.random.default_rng(7)
    vocab = [f"word{v:03d}" for v in range(400)]
    for j in range(40):  # filler docs: random word soup, mutually distinct
        ws = rng.choice(vocab, size=12, replace=False)
        texts.append(" ".join(ws))
        ids.append(i); i += 1
    return pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                     "text": pa.array(texts, type=pa.string())})


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data as rd

    return rd.from_arrow(make_docs_table())


def test_exact_dedup(docs_ds):
    out = exact_dedup(docs_ds).to_pandas()
    # 3 copies of doc 0 collapse to one survivor (min id 0)
    assert len(out) == make_docs_table().num_rows - 2
    assert 0 in out["doc_id"].tolist()
    assert 1 not in out["doc_id"].tolist() or True  # id 1,2 are dup copies of id 0
    survivors = out[out["text"] == BASE_DOCS[0]]
    assert len(survivors) == 1 and survivors["doc_id"].iloc[0] == 0


def test_minhash_lsh_finds_planted_pairs(docs_ds):
    pairs = minhash_lsh_pairs(docs_ds, jaccard_threshold=0.6).to_pandas()
    got = set(zip(pairs["id_a"], pairs["id_b"]))
    # exact dups of doc 0 (ids 0,1,2) must all pair up
    assert (0, 1) in got and (0, 2) in got and (1, 2) in got
    # near-dup pair (ids 3,4)
    assert (3, 4) in got
    # no cross-language false positives
    assert all(a < 5 and b < 5 for a, b in got)


def minhash_signature(shingles: np.ndarray, n_perm: int = 64,
                      seed: int = 42) -> np.ndarray:
    """Reference MinHash of one document: n_perm minimums of universal
    hashes a*x+b mod p over its unique shingles."""
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, n_perm, dtype=np.uint64)
    b = rng.integers(0, _MERSENNE, n_perm, dtype=np.uint64)
    x = np.unique(shingles) % np.uint64(_MERSENNE)
    vals = (x[None, :] * a[:, None] + b[:, None]) % np.uint64(_MERSENNE)
    return vals.min(axis=1)


def test_batch_minhash_matches_per_doc():
    """The one-pass batch kernel equals the per-document reference on
    every document, short and empty ones included."""
    from arcade_ray.streams import str_stream_from_arrow

    docs = BASE_DOCS + ["abc", "", "aaaaaaaaaa"]
    lengths, data, _ = str_stream_from_arrow(pa.array(docs))
    got = batch_minhash_signatures(lengths, data, n_perm=16)
    want = np.stack([minhash_signature(_char_shingles(d), n_perm=16)
                     for d in docs])
    np.testing.assert_array_equal(got, want)


def test_minhash_signature_similarity():
    a = _char_shingles(BASE_DOCS[0])
    b = _char_shingles(BASE_DOCS[0].replace("dog", "cat"))
    c = _char_shingles(BASE_DOCS[2])
    sa, sb, sc = (minhash_signature(x) for x in (a, b, c))
    sim_ab = float(np.mean(sa == sb))
    sim_ac = float(np.mean(sa == sc))
    assert sim_ab > 0.5 > sim_ac


def test_simhash_pairs(docs_ds):
    pairs = simhash_pairs(docs_ds, max_hamming=3).to_pandas()
    got = set(zip(pairs["id_a"], pairs["id_b"]))
    assert (0, 1) in got and (0, 2) in got  # exact dups hamming 0
    assert all(a < 5 and b < 5 for a, b in got)


def test_simhash64_properties():
    h = simhash64([BASE_DOCS[0], BASE_DOCS[0], BASE_DOCS[2], ""])
    assert h[0] == h[1]
    assert h[0] != h[2]
    assert h[3] == 0


def test_text_analyzer_unit():
    an = TextAnalyzer()
    df = pd.DataFrame({"text": [BASE_DOCS[0], "", "Hello!!! World..."]})
    out = an(df.copy())
    assert out["word_count"].tolist()[0] == len(BASE_DOCS[0].split())
    assert out["word_count"].tolist()[1] == 0
    assert out["punct_count"].tolist()[2] == 6
    assert out["stopword_ratio"].iloc[0] > 0.2
    import hashlib

    assert out["fingerprint"].iloc[0] == hashlib.md5(BASE_DOCS[0].encode()).hexdigest()


def test_lang_id_heuristic():
    an = TextAnalyzer()
    assert an.lang_of(BASE_DOCS[0]) == "en"
    assert an.lang_of(BASE_DOCS[2]) == "de"
    assert an.lang_of(BASE_DOCS[3]) == "fr"


def test_bpe_token_count():
    an = TextAnalyzer()
    df = pd.DataFrame({"text": ["I'll see 42 cats, won't you?", ""]})
    out = an(df.copy())
    # I |'ll| see| 42| cats|,| won|'t| you|? -> 10 non-space tokens
    assert out["bpe_token_count"].tolist() == [10, 0]


def test_winnow_fingerprints():
    from arcade_ray.textops import winnow_fingerprints

    a = BASE_DOCS[0]
    b = a.replace("lazy", "calm")  # local edit
    c = BASE_DOCS[2]
    fa, fb, fc = (set(winnow_fingerprints(t)) for t in (a, b, c))
    sim_ab = len(fa & fb) / len(fa | fb)
    sim_ac = len(fa & fc) / max(1, len(fa | fc))
    assert sim_ab > 0.5 > sim_ac
    assert winnow_fingerprints("") == []
    assert len(winnow_fingerprints("abc")) == 1  # shorter than k


def test_winnow_table(docs_ds):
    from arcade_ray.textops import winnow_table

    out = winnow_table(docs_ds).to_pandas()
    assert len(out) == make_docs_table().num_rows
    # exact dups share identical fingerprint sets
    f0 = set(out[out["doc_id"] == 0]["fingerprints"].iloc[0])
    f1 = set(out[out["doc_id"] == 1]["fingerprints"].iloc[0])
    assert f0 == f1


def test_analyze_text_pipeline(docs_ds):
    out = analyze_text(docs_ds).to_pandas()
    assert {"word_count", "punct_ratio", "stopword_ratio", "pred_lang",
            "fingerprint", "mean_word_len"} <= set(out.columns)
    assert len(out) == make_docs_table().num_rows


def test_dedup_shuffle_carries_no_text():
    """The exact-dedup exchange payload is (hash128, id) only — the
    round-1 review flagged text riding the shuffle as the scale
    killer."""
    from arcade_ray.textops import dedup_signatures

    batch = make_docs_table()
    sig = dedup_signatures(batch)
    assert sig.column_names == ["_h", "_h2", "doc_id"]
    assert "text" not in sig.column_names


def test_minhash_shuffle_carries_no_text():
    """MinHash-LSH shuffles (band, band_hash, id) rows only — neither
    text nor the full signature."""
    from arcade_ray.textops import minhash_band_rows

    batch = make_docs_table()
    rows = minhash_band_rows(batch)
    assert rows.column_names == ["bk", "doc_id"]
    assert rows.num_rows == batch.num_rows * 16


def test_near_dup_shuffle_carries_no_embedding():
    """Embedding near-dup shuffles (band, key, id) rows only."""
    import numpy as np

    from arcade_ray.ann import _band_planes, near_dup_band_rows

    rng = np.random.default_rng(3)
    mat = rng.standard_normal((20, 16))
    batch = pa.table({
        "vec_id": pa.array(np.arange(20), type=pa.int64()),
        "embedding": pa.array([r.tolist() for r in mat],
                              type=pa.list_(pa.float32())),
    })
    rows = near_dup_band_rows(batch, _band_planes(16, 8, 4, 42), 8, 4)
    assert rows.column_names == ["bk", "vec_id"]
    assert rows.num_rows == 20 * 8


def test_dedup_loser_ids(docs_ds):
    from arcade_ray.textops import dedup_loser_ids

    losers = dedup_loser_ids(docs_ds)
    # ids 1,2 are exact copies of id 0 — and nothing else is dropped
    assert sorted(losers["doc_id"].to_pylist()) == [1, 2]


def test_near_dedup_removes_planted_cluster(docs_ds):
    """ids 0,1,2 are exact copies and 3,4 near-dups: near_dedup keeps
    the min id of each cluster and drops the rest."""
    from arcade_ray.textops import near_dedup

    out = near_dedup(docs_ds, jaccard_threshold=0.6).to_pandas()
    ids = set(out["doc_id"])
    assert 0 in ids and 3 in ids
    assert {1, 2, 4}.isdisjoint(ids)
    assert len(out) == make_docs_table().num_rows - 3


@pytest.fixture
def driver_tables(monkeypatch):
    """Column sets of every table assembled on the driver by
    ``collect.collect_arrow`` or a verify exchange's result concat
    (both go through ``collect._concat_typed``)."""
    from arcade_ray import collect

    seen: list[set] = []
    orig = collect._concat_typed

    def spy(tables):
        out = orig(tables)
        seen.append(set(out.column_names))
        return out

    monkeypatch.setattr(collect, "_concat_typed", spy)
    return seen


def _no_payload_on_driver(seen: list[set], payload: str) -> None:
    assert seen, "the spy saw no driver-side collect"
    assert not [c for c in seen if payload in c], seen


def test_minhash_verify_is_distributed(ray_session, driver_tables):
    """The exact-verify stage must NOT materialize candidate texts on
    the driver (round-2 scale flag): a planted mega-cluster of 60
    templated near-identical docs goes through minhash_lsh_pairs, and
    correctness comes from the distributed pair-verify."""
    import ray.data as rd

    texts, ids = [], []
    base = ("template document number %d with a very long shared body "
            "that repeats across the cluster " + "filler words " * 10)
    for i in range(60):  # one mega-cluster: all near-identical
        texts.append(base % 0)
        ids.append(i)
    for i in range(60, 80):  # distinct tail
        texts.append(f"unique document {i} " + " ".join(
            f"tok{i}_{j}" for j in range(15)))
        ids.append(i)
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(ids, type=pa.int64()),
        "text": pa.array(texts, type=pa.string()),
    }))

    pairs = minhash_lsh_pairs(ds, jaccard_threshold=0.7)
    _no_payload_on_driver(driver_tables, "text")
    pairs = pairs.to_pandas()
    got = set(zip(pairs["id_a"], pairs["id_b"]))
    # the mega-cluster produces all-pairs among ids 0..59
    assert (0, 1) in got and (0, 59) in got and (58, 59) in got
    assert len(got) == 60 * 59 // 2
    assert all(a < 60 and b < 60 for a, b in got)


def test_embedding_verify_is_distributed(ray_session, driver_tables):
    """Same contract for the embedding near-dup verify stage."""
    import ray.data as rd

    from arcade_ray.ann import near_dup_pairs

    rng = np.random.default_rng(11)
    base = rng.standard_normal(16)
    mat = rng.standard_normal((40, 16))
    for i in range(10):  # planted cluster: ids 0..9 near-identical
        mat[i] = base + rng.standard_normal(16) * 0.01
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(40), type=pa.int64()),
        "embedding": pa.array([r.tolist() for r in mat],
                              type=pa.list_(pa.float32())),
    }))

    out = near_dup_pairs(ds, threshold=0.95)
    _no_payload_on_driver(driver_tables, "embedding")
    got = set(zip(out["id_a"].to_pylist(), out["id_b"].to_pylist()))
    assert (0, 1) in got and (0, 9) in got and (8, 9) in got
    assert all(a < 10 and b < 10 for a, b in got)


def test_batch_winnow_matches_per_doc():
    """batch_winnow must be value-identical to the per-doc
    winnow_fingerprints across lengths (empty, < k, <= window, long)."""
    import numpy as np

    from arcade_ray.streams import str_stream_from_arrow
    from arcade_ray.textops import batch_winnow, winnow_fingerprints

    rng = np.random.default_rng(9)
    texts = ["", "abc", "abcdefgh", "abcdefghijk", BASE_DOCS[0],
             BASE_DOCS[1] * 3, "x" * 200]
    for _ in range(30):
        n = int(rng.integers(0, 60))
        texts.append("".join(chr(97 + int(c)) for c in rng.integers(0, 6, n)))
    arr = pa.array(texts)
    lengths, data, _ = str_stream_from_arrow(arr)
    vals, offs = batch_winnow(lengths, data, k=8, window=4)
    for i, t in enumerate(texts):
        got = vals[offs[i]: offs[i + 1]].tolist()
        exp = winnow_fingerprints(t, k=8, window=4)
        assert got == exp, (i, repr(t[:30]), got[:5], exp[:5])


def test_top_words(docs_ds):
    from arcade_ray.textops import top_words

    out = top_words(docs_ds, k=5)
    assert out.num_rows == 5
    assert out.column_names == ["word", "n"]
    # counts descending, ties word-ascending
    ns = out["n"].to_pylist()
    assert ns == sorted(ns, reverse=True)
    # "the" appears in the repeated doc 0 (3 copies) and others
    import re
    from collections import Counter
    c = Counter()
    for t in make_docs_table()["text"].to_pylist():
        c.update(re.findall(r"[a-z0-9]+", t.lower()))
    top = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    assert list(zip(out["word"].to_pylist(), ns)) == top


def test_minhash_distributed_candidate_path(ray_session, monkeypatch):
    """Force the fully distributed candidate-generation path (the
    scale path above SMALL_SIG_ROWS) and assert identical pairs to the
    small driver path on the planted fixture."""
    import ray.data as rd

    import arcade_ray.collect as collect

    ds = rd.from_arrow(make_docs_table())
    small = minhash_lsh_pairs(ds, jaccard_threshold=0.6).to_pandas()
    monkeypatch.setattr(collect, "SMALL_SIG_ROWS", 0)

    def poisoned(*a, **k):
        raise AssertionError("driver-side candidate path used")

    monkeypatch.setattr(collect, "bucket_candidate_pairs", poisoned)
    big = minhash_lsh_pairs(ds, jaccard_threshold=0.6).to_pandas()
    assert set(zip(small["id_a"], small["id_b"])) == \
        set(zip(big["id_a"], big["id_b"]))
    assert len(big) == len(small)


def test_embedding_distributed_candidate_path(ray_session, monkeypatch):
    import numpy as np
    import ray.data as rd

    import arcade_ray.collect as collect
    from arcade_ray.ann import near_dup_pairs

    rng = np.random.default_rng(11)
    base = rng.standard_normal(16)
    mat = rng.standard_normal((40, 16))
    for i in range(6):
        mat[i] = base + rng.standard_normal(16) * 0.01
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(40), type=pa.int64()),
        "embedding": pa.array([r.tolist() for r in mat],
                              type=pa.list_(pa.float32())),
    }))
    small = near_dup_pairs(ds, threshold=0.95)
    monkeypatch.setattr(collect, "SMALL_SIG_ROWS", 0)
    big = near_dup_pairs(ds, threshold=0.95)
    assert set(zip(small["id_a"].to_pylist(), small["id_b"].to_pylist())) \
        == set(zip(big["id_a"].to_pylist(), big["id_b"].to_pylist()))
    assert big.num_rows == small.num_rows > 0


def test_exact_dedup_verify_is_distributed(ray_session, driver_tables):
    """exact_dedup's text-verify stage must NOT materialize candidate
    texts on the driver (round-4 scale flag): a planted duplicate run
    of 50 identical docs + 30 distinct docs goes through exact_dedup,
    and the survivors come from the distributed group-verify."""
    import ray.data as rd

    from arcade_ray.textops import exact_dedup

    texts = ["the same duplicated body " * 20] * 50
    texts += [f"unique document {i} " + " ".join(
        f"tok{i}_{j}" for j in range(15)) for i in range(30)]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(list(range(80)), type=pa.int64()),
        "text": pa.array(texts, type=pa.string()),
    }))

    out = exact_dedup(ds)
    _no_payload_on_driver(driver_tables, "text")
    out = out.to_pandas().sort_values("doc_id", ignore_index=True)
    # one survivor (min id 0) for the 50-run; all 30 distinct docs kept
    assert out["doc_id"].tolist() == [0] + list(range(50, 80))


def test_exact_dedup_distributed_string_ids_and_priority(ray_session):
    """The distributed group-verify preserves semantics for string ids
    and keep-the-best priority (both flow through the routed payload
    exchange)."""
    import ray.data as rd

    from arcade_ray.collect import collect_arrow
    from arcade_ray.textops import exact_dedup

    t = pa.table({
        "doc_id": pa.array([f"d{i}" for i in range(7)]),
        "text": pa.array(["aa", "aa", "aa", "bb", "bb", "cc", "dd"]),
        "prio": pa.array([5, 9, 9, 1, 1, 0, 3], type=pa.int64()),
    })
    out = collect_arrow(exact_dedup(
        rd.from_arrow(t), priority_col="prio")).to_pandas() \
        .sort_values("doc_id", ignore_index=True)
    # aa: max prio 9 at {d1,d2} -> min id d1; bb: tie -> d3
    assert out["doc_id"].tolist() == ["d1", "d3", "d5", "d6"]


def test_exact_dedup_priority_keeps_best(ray_session):
    """priority_col survivor: max priority wins, ties fall back to min
    id; losers are the rest of each duplicate group."""
    import ray.data as rd

    from arcade_ray.collect import collect_arrow
    from arcade_ray.textops import exact_dedup

    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5, 6, 7], type=pa.int64()),
        "text": pa.array(["aa", "aa", "aa", "bb", "bb", "cc", "dd"]),
        "prio": pa.array([5, 9, 9, 1, 1, 0, 3], type=pa.int64()),
    })
    out = collect_arrow(exact_dedup(
        rd.from_arrow(t), priority_col="prio")).to_pandas() \
        .sort_values("doc_id", ignore_index=True)
    # aa: max prio 9 at ids {2,3} -> min id 2; bb: tie prio -> id 4
    assert out["doc_id"].tolist() == [2, 4, 6, 7]


def test_dedup_against_index(ray_session, tmp_path):
    """Incremental dedup: a persisted 24 B/doc signature index drops
    already-seen texts from a new batch; in-batch dups still dedup
    with text verification."""
    import ray.data as rd

    from arcade_ray.collect import collect_arrow
    from arcade_ray.textops import build_dedup_index, dedup_against_index

    base = pa.table({
        "doc_id": pa.array([1, 2, 3], type=pa.int64()),
        "text": pa.array(["alpha doc", "beta doc", "gamma doc"]),
    })
    idx = str(tmp_path / "sigidx")
    assert build_dedup_index(rd.from_arrow(base), idx) == 3

    new = pa.table({
        "doc_id": pa.array([10, 11, 12, 13, 14], type=pa.int64()),
        "text": pa.array([
            "beta doc",      # seen in the index -> dropped
            "delta doc",     # fresh
            "delta doc",     # in-batch dup -> min id survives
            "gamma doc",     # seen -> dropped
            "epsilon doc",   # fresh
        ]),
    })
    out = collect_arrow(dedup_against_index(
        rd.from_arrow(new), idx)).to_pandas().sort_values(
        "doc_id", ignore_index=True)
    assert out["doc_id"].tolist() == [11, 14]


def test_text_analyzer_vectorized_matches_per_row():
    """The Arrow-vectorized TextAnalyzer must be value-identical to the
    original per-row pandas semantics (findall/str.count/map loops) on
    adversarial + fuzz inputs: empty docs, whitespace-only, tabs and
    newlines (where a naive \\s+ subtraction for BPE counts breaks),
    unicode letters, punctuation runs."""
    import hashlib
    import random
    import re
    import string

    from arcade_ray.textops import _BPE_RE, _STOPWORDS, TextAnalyzer

    random.seed(11)
    alphabet = string.ascii_letters + string.digits + " \t\n.,!?'-éàüß" + "  "
    texts = ["", " ", "a  b", "a ", "  a", "Tab\t\tsep\nnewline",
             "très tôt déjà", "!!!", "I'll see 42 cats, won't you?",
             "the and of a to in is it THE The"]
    texts += ["".join(random.choice(alphabet)
                      for _ in range(random.randint(0, 120)))
              for _ in range(400)]

    an = TextAnalyzer()
    out = an(pa.table({"text": pa.array(texts)}))

    word_re = re.compile(r"[A-Za-z0-9]+")
    punct_re = re.compile(r"[!-/:-@\[-`{-~]")
    for i, t in enumerate(texts):
        ws = word_re.findall(t)
        assert out["word_count"][i].as_py() == len(ws), repr(t)
        assert out["punct_count"][i].as_py() == len(punct_re.findall(t))
        assert abs(out["punct_ratio"][i].as_py()
                   - len(punct_re.findall(t)) / max(1, len(t))) < 1e-12
        exp_stop = sum(w.lower() in _STOPWORDS for w in ws) / max(1, len(ws))
        assert abs(out["stopword_ratio"][i].as_py() - exp_stop) < 1e-12
        exp_mwl = float(np.mean([len(w) for w in ws])) if ws else 0.0
        assert abs(out["mean_word_len"][i].as_py() - exp_mwl) < 1e-12
        assert out["pred_lang"][i].as_py() == an.lang_of(t), repr(t)
        assert out["fingerprint"][i].as_py() == \
            hashlib.md5(t.encode()).hexdigest()
        exp_bpe = sum(1 for m in _BPE_RE.finditer(t)
                      if not m.group().isspace())
        assert out["bpe_token_count"][i].as_py() == exp_bpe, repr(t)


def test_distributed_pair_verify_disk_parity(ray_session, sink):
    """Disk-staged pair verify (Arrow-IPC shuffle files, streamed
    routed blocks) must return identical pairs to objects mode."""
    import ray.data as rd

    from arcade_ray.collect import distributed_pair_verify

    rng = np.random.RandomState(7)
    n = 300
    t = pa.table({
        "doc_id": pa.array(np.arange(n), pa.int64()),
        "text": pa.array([f"payload {i} " + "x" * int(rng.randint(0, 50))
                          for i in range(n)]),
    })
    ds = rd.from_arrow(t)
    a = rng.randint(0, n, 400)
    b = rng.randint(0, n, 400)
    m = a < b
    cand = pa.table({"id_a": pa.array(a[m], pa.int64()),
                     "id_b": pa.array(b[m], pa.int64())})

    def verify(pairs, payload):
        import pyarrow.compute as pc

        # keep pairs whose texts have the same parity of length
        ids = payload["doc_id"].to_numpy(zero_copy_only=False)
        ln = pc.utf8_length(payload["text"]).to_numpy(zero_copy_only=False)
        lmap = dict(zip(ids.tolist(), ln.tolist()))
        ka, kb, keep = [], [], []
        for x, y in zip(pairs["id_a"].to_pylist(),
                        pairs["id_b"].to_pylist()):
            if lmap[x] % 2 == lmap[y] % 2:
                ka.append(x)
                kb.append(y)
        return pa.table({"id_a": pa.array(ka, pa.int64()),
                         "id_b": pa.array(kb, pa.int64())})

    obj_tags = sink("objects")
    obj = distributed_pair_verify(ds, cand, "doc_id", ["text"], verify)
    assert not obj_tags
    tags = sink("disk")
    dsk = distributed_pair_verify(ds, cand, "doc_id", ["text"], verify)
    assert tags == ["verify"], tags

    def key(t):
        return sorted(zip(t["id_a"].to_pylist(), t["id_b"].to_pylist()))

    assert obj.schema == dsk.schema
    assert key(obj) == key(dsk)
    assert len(key(obj)) > 0


def test_decontaminate_planted_ngram_overlap(ray_session):
    """Benchmark decontamination: a train doc containing a 13-word
    span copied into an eval doc is dropped; disjoint docs and
    shorter overlaps survive."""
    import ray.data as rd

    from arcade_ray.collect import collect_arrow
    from arcade_ray.textops import decontaminate, ngram_contaminated_ids

    span13 = " ".join(f"w{i}" for i in range(13))
    span12 = " ".join(f"v{i}" for i in range(12))
    train = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": [
            f"prefix text {span13} suffix text",       # contaminated
            f"other {span12} trailing words here",     # 12-gram only: clean
            "completely unrelated document body",      # clean
            f"{span13}",                               # exactly the span
        ],
    })
    evals = pa.table({
        "doc_id": pa.array([100, 101], pa.int64()),
        "text": [f"the eval question mentions {span13} verbatim",
                 f"another eval with {span12} only"],
    })
    bad = collect_arrow(ngram_contaminated_ids(
        rd.from_arrow(train), rd.from_arrow(evals)))
    assert sorted(bad["doc_id"].to_pylist()) == [1, 4]
    kept = collect_arrow(decontaminate(rd.from_arrow(train),
                                       rd.from_arrow(evals)))
    assert sorted(kept["doc_id"].to_pylist()) == [2, 3]

    # empty eval set: nothing dropped; empty corpus: empty out
    empty = rd.from_arrow(train.slice(0, 0))
    assert collect_arrow(decontaminate(
        rd.from_arrow(train), empty)).num_rows == 4
    assert collect_arrow(decontaminate(
        empty, rd.from_arrow(evals))).num_rows == 0


def test_word_ngram_hashes_case_and_boundaries(ray_session):
    """Hashes are case-insensitive and never span documents."""
    from arcade_ray.textops import batch_word_ngram_hashes

    h1, d1 = batch_word_ngram_hashes(["A B C", "a b c"], 3)
    assert len(h1) == 2 and h1[0] == h1[1]
    assert d1.tolist() == [0, 1]
    # 2 docs x 2 words: no 3-gram can cross the boundary
    h2, _ = batch_word_ngram_hashes(["a b", "c d"], 3)
    assert len(h2) == 0


def test_repetition_scores_planted(ray_session):
    """Repeated-trigram fraction: a doc of one repeated trigram scores
    high, an all-distinct doc scores 0, short docs score 0."""
    import ray.data as rd

    from arcade_ray.collect import collect_arrow
    from arcade_ray.textops import repetition_scores

    t = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": [
            "a b c a b c a b c",   # 7 trigrams, 3 unique
            "q w e r t y u i o",   # 7 trigrams, all unique
            "x y",                 # < 3 words
        ],
    })
    out = collect_arrow(repetition_scores(rd.from_arrow(t), n=3)) \
        .sort_by("doc_id")
    assert out["n_grams"].to_pylist() == [7, 7, 0]
    assert out["n_unique"].to_pylist() == [3, 7, 0]
    fr = out["dup_frac"].to_pylist()
    assert abs(fr[0] - (1 - 3 / 7)) < 1e-3 and fr[1] == 0.0 and fr[2] == 0.0


def test_redact_pii_planted(ray_session):
    """Emails, IPv4s and phone numbers scrub to placeholders; clean
    text is untouched byte-for-byte."""
    import ray.data as rd

    from arcade_ray.collect import collect_arrow
    from arcade_ray.textops import redact_pii

    t = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": [
            "contact alice.smith+x@example.co.uk or call +1 555-123-4567",
            "server at 192.168.10.254 responded",
            "nothing sensitive here at all",
        ],
    })
    out = collect_arrow(redact_pii(rd.from_arrow(t))).sort_by("doc_id")
    texts = out["text"].to_pylist()
    assert texts[0] == "contact <EMAIL> or call <PHONE>"
    assert texts[1] == "server at <IP> responded"
    assert texts[2] == "nothing sensitive here at all"

    with pytest.raises(ValueError):
        redact_pii(rd.from_arrow(t), kinds=("email", "ssn"))


def test_heavy_hitters_contract(docs_ds):
    """Misra-Gries over many blocks: the mergeable-summaries bound
    holds vs exact counts (true - n/(k+1) <= est <= true; every word
    above the threshold present), the summary never exceeds k entries,
    and the exact corpus total rides along."""
    import re
    from collections import Counter

    from arcade_ray.textops import heavy_hitters

    k = 8
    out = heavy_hitters(docs_ds, k=k)
    assert out.column_names == ["word", "n", "total"]
    assert out.num_rows <= k

    exact = Counter()
    for t in make_docs_table()["text"].to_pylist():
        exact.update(re.findall(r"[a-z0-9]+", t.lower()))
    total = sum(exact.values())
    assert out["total"][0].as_py() == total

    est = dict(zip(out["word"].to_pylist(), out["n"].to_pylist()))
    bound = total / (k + 1)
    for w, e in est.items():
        assert e <= exact[w] and exact[w] - e <= bound, (w, e, exact[w])
    for w, c in exact.items():
        if c > bound:
            assert w in est, (w, c, bound)


def test_heavy_hitters_many_blocks(ray_session):
    """The bound survives merging across MANY per-block summaries (the
    scale shape: each block ships <= k+1 rows), on a skewed corpus."""
    import ray.data as rd

    from arcade_ray.textops import heavy_hitters

    rng = np.random.default_rng(3)
    vocab = [f"w{v:04d}" for v in range(2000)]
    texts = []
    for i in range(400):
        ws = list(rng.choice(vocab, size=30))
        ws += ["hot"] * 5 + ["warm"] * (i % 3)
        texts.append(" ".join(ws))
    ds = rd.from_arrow(pa.table({"text": texts})).repartition(16)
    k = 32
    out = heavy_hitters(ds, k=k)
    total = out["total"][0].as_py()
    assert total == 400 * 30 + 400 * 5 + sum(i % 3 for i in range(400))
    est = dict(zip(out["word"].to_pylist(), out["n"].to_pylist()))
    assert "hot" in est  # 2000 > total/(k+1)
    assert est["hot"] <= 2000 and 2000 - est["hot"] <= total / (k + 1)


def test_top_word_fraction(ray_session):
    """Per-doc fraction of words inside a given top list, vs a pure
    Python recount; SQL string_split semantics (literal separator)."""
    import ray.data as rd

    from arcade_ray.collect import collect_arrow
    from arcade_ray.textops import top_word_fraction

    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": ["the cat sat on the mat", "dog runs", "the the the",
                 "zebra unique words only"],
    })
    top = ["the", "on", "dog"]
    out = collect_arrow(top_word_fraction(
        rd.from_arrow(t).repartition(3), top)).sort_by("doc_id")
    got = out["top_frac"].to_pylist()
    want = []
    for txt in t["text"].to_pylist():
        ws = txt.split(" ")
        want.append(sum(w in top for w in ws) / len(ws))
    assert got == want


def test_distinctive_terms(ray_session):
    """Lift ranking vs a pandas recount on a corpus where sources
    share vocabulary but in different proportions."""
    import ray.data as rd

    from arcade_ray.textops import distinctive_terms

    t = pa.table({
        "source": ["a", "a", "b", "b"],
        "text": ["x x x y z", "x y", "z z z y", "q q z"],
    })
    out = distinctive_terms(rd.from_arrow(t).repartition(2), k=2)
    df = out.to_pandas()
    # corpus tf: x=4 (all in a), y=3 (2 a / 1 b), z=5 (1 a / 4 b), q=2 (b)
    # lifts a: x 4/4=1.0, y 2/3, z 1/5 -> top2 = x, y
    # lifts b: q 2/2=1.0, z 4/5, y 1/3 -> top2 = q, z
    rows = list(zip(df["source"], df["word"], df["tf"], df["lift"]))
    assert rows == [("a", "x", 4, 1.0), ("a", "y", 2, 2 / 3),
                    ("b", "q", 2, 1.0), ("b", "z", 4, 4 / 5)]


def test_chunk_documents(ray_session):
    """Overlapping word windows: chunk c covers
    [c*stride, c*stride+max_words); every doc (even shorter than one
    window) emits at least one chunk; vs a pure Python recount."""
    import ray.data as rd

    from arcade_ray.collect import collect_arrow
    from arcade_ray.textops import chunk_documents

    texts = ["a b c d e f g", "x y", "one two three four five",
             "solo"]
    t = pa.table({"doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                  "text": texts})
    W, V = 3, 1
    out = collect_arrow(chunk_documents(
        rd.from_arrow(t).repartition(2), max_words=W, overlap=V)) \
        .sort_by([("doc_id", "ascending"), ("chunk_id", "ascending")])
    want = []
    stride = W - V
    for i, txt in enumerate(texts):
        ws = txt.split(" ")
        nc = 1 if len(ws) <= W else -(-(len(ws) - W) // stride) + 1
        for c in range(nc):
            want.append((i + 1, c, " ".join(ws[c * stride:c * stride + W])))
    got = list(zip(out["doc_id"].to_pylist(), out["chunk_id"].to_pylist(),
                   out["text"].to_pylist()))
    assert got == want

    with pytest.raises(ValueError):
        chunk_documents(rd.from_arrow(t), max_words=3, overlap=3)


def test_chunk_documents_null_text(ray_session):
    """A null text mid-batch must not poison the word-offset cumsum
    (NaN->int64 would index the flat stream at INT64_MIN): the null
    doc emits one empty chunk and its neighbours chunk normally."""
    import ray.data as rd

    from arcade_ray.collect import collect_arrow
    from arcade_ray.textops import chunk_documents

    t = pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()),
                  "text": pa.array(["a b c d e", None, "x y z"])})
    out = collect_arrow(chunk_documents(
        rd.from_arrow(t), max_words=3, overlap=1)) \
        .sort_by([("doc_id", "ascending"), ("chunk_id", "ascending")])
    got = list(zip(out["doc_id"].to_pylist(), out["chunk_id"].to_pylist(),
                   out["text"].to_pylist()))
    assert got == [(1, 0, "a b c"), (1, 1, "c d e"),
                   (2, 0, ""), (3, 0, "x y z")]


def test_dup_ngram_stats_planted(ray_session):
    """Planted duplication: a shared 3-gram across docs, a repeat
    WITHIN one doc (multiplicity counts), and a sub-n doc at (0,0)."""
    import pyarrow as pa
    import ray.data as rd

    from arcade_ray.textops import dup_ngram_stats

    docs = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
        "text": pa.array([
            "alpha beta gamma delta",        # "alpha beta gamma" shared w/ doc2
            "alpha beta gamma epsilon",
            "zeta eta theta zeta eta theta zeta eta theta",  # in-doc repeats
            "too short",                      # < 3 words: (0, 0)
        ]),
    })
    out = dup_ngram_stats(rd.from_arrow(docs), n=3).take_all()
    got = {r["doc_id"]: (r["n_ngrams"], r["n_dup"]) for r in out}
    # doc1: grams {abg, bgd?}: "alpha beta gamma","beta gamma delta" -> 2 grams,
    #       dup = 1 ("alpha beta gamma" appears in doc2 too)
    assert got[1] == (2, 1)
    assert got[2] == (2, 1)
    # doc3: 9 words -> 7 grams; "zeta eta theta" x3, "eta theta zeta" x2,
    # "theta zeta eta" x2 -> all 7 positions duplicated
    assert got[3] == (7, 7)
    assert got[4] == (0, 0)


def test_drop_dup_passages_planted(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from arcade_ray.textops import drop_dup_passages

    template = "the quick brown fox jumps over the lazy dog again"
    docs = pa.table({
        "doc_id": pa.array([1, 2, 3], type=pa.int64()),
        "text": pa.array([
            template,                              # 100% duplicated vs doc2
            template,
            "completely unique words nothing shared here at all",
        ]),
    })
    out = drop_dup_passages(rd.from_arrow(docs), n=3, max_frac=0.5).take_all()
    assert sorted(r["doc_id"] for r in out) == [3]


def test_dup_ngram_stats_empty(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from arcade_ray.textops import drop_dup_passages, dup_ngram_stats

    empty = pa.table({"doc_id": pa.array([], type=pa.int64()),
                      "text": pa.array([], type=pa.string())})
    out = dup_ngram_stats(rd.from_arrow(empty), n=3)
    assert out.count() == 0
    assert set(out.schema().names) == {"doc_id", "n_ngrams", "n_dup"}
    kept = drop_dup_passages(rd.from_arrow(empty), n=3)
    assert kept.count() == 0


def test_bm25_scores_hand_checked(ray_session):
    """BM25 vs a direct per-doc recompute (Lucene idf variant)."""
    import math

    import pyarrow as pa
    import ray.data as rd

    from arcade_ray.textops import bm25_scores

    texts = ["cat dog cat", "dog mouse", "bird", "cat cat cat cat"]
    docs = pa.table({"doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
                     "text": pa.array(texts)})
    out = bm25_scores(rd.from_arrow(docs), ["cat", "mouse"],
                      k1=1.2, b=0.75).take_all()
    got = {r["doc_id"]: r["score"] for r in out}
    assert sorted(got) == [1, 2, 4]  # doc3 has no query term

    n, avgdl = 4, (3 + 2 + 1 + 4) / 4
    def idf(df): return math.log((n - df + 0.5) / (df + 0.5) + 1.0)
    def term(tf, dl, df):
        return idf(df) * (tf * 2.2) / (tf + 1.2 * (0.25 + 0.75 * dl / avgdl))
    assert got[1] == pytest.approx(term(2, 3, 2) + 0.0, abs=1e-12)
    assert got[2] == pytest.approx(term(1, 2, 1), abs=1e-12)  # mouse only
    assert got[4] == pytest.approx(term(4, 4, 2), abs=1e-12)


def test_bm25_empty_corpus(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from arcade_ray.textops import bm25_scores

    empty = pa.table({"doc_id": pa.array([], type=pa.int64()),
                      "text": pa.array([], type=pa.string())})
    out = bm25_scores(rd.from_arrow(empty), ["x"])
    assert out.count() == 0
    assert set(out.schema().names) == {"doc_id", "score"}


def test_build_vocab_and_tokenize(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from arcade_ray.textops import build_vocab, tokenize_with_vocab

    docs = pa.table({
        "doc_id": pa.array([1, 2, 3], type=pa.int64()),
        "text": pa.array(["cat dog cat", "dog mouse rareword", "   "]),
    })
    v = build_vocab(rd.from_arrow(docs), max_size=3)
    # (count desc, word asc): cat=2, dog=2, mouse=1; rareword cut
    assert v["word"].to_pylist() == ["cat", "dog", "mouse"]
    assert v["id"].to_pylist() == [1, 2, 3]
    out = tokenize_with_vocab(rd.from_arrow(docs), v).take_all()
    got = {r["doc_id"]: r["tokens"] for r in out}
    assert got[1] == [1, 2, 1]
    assert got[2] == [2, 3, 0]  # OOV -> 0
    assert got[3] == []

    # determinism across a different partitioning
    v2 = build_vocab(rd.from_arrow(docs).repartition(3), max_size=3)
    assert v2.equals(v)


def test_build_vocab_empty(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from arcade_ray.textops import build_vocab

    empty = pa.table({"doc_id": pa.array([], type=pa.int64()),
                      "text": pa.array([], type=pa.string())})
    v = build_vocab(rd.from_arrow(empty))
    assert v.num_rows == 0
    assert v.column_names == ["word", "id", "n"]


def test_tfidf_sparse_feeds_semantic_dedup(ray_session):
    """The text->vector bridge: hashed TF-IDF of two IDENTICAL texts
    densifies to identical vectors, and semantic_dedup drops one —
    model-free semantic dedup end to end. Weights match a hand
    tf*ln(N/df) computation."""
    import math

    import numpy as np
    import ray.data as rd

    from arcade_ray.ann import semantic_dedup
    from arcade_ray.textops import tfidf_sparse

    texts = [
        "apple banana cherry",
        "apple banana cherry",          # exact duplicate of doc 0
        "dog cat mouse elephant",
        "quantum flux capacitor banana",
        "entirely different words here",
    ]
    t = pa.table({
        "doc_id": pa.array(np.arange(5), pa.int64()),
        "text": pa.array(texts),
    })
    dim = 32
    sp = tfidf_sparse(rd.from_arrow(t), dim=dim).take_all()
    # hand-check one weight: 'banana' appears once in docs 0,1,3 ->
    # df=3, tf=1 -> w = ln(5/3) (alone in its bucket unless collided)
    import hashlib
    b_banana = int(hashlib.md5(b"banana").hexdigest()[:15], 16) % dim
    r = [x for x in sp if x["doc_id"] == 3 and x["bucket"] == b_banana]
    collided = {w for w in "quantum flux capacitor".split()
                if int(hashlib.md5(w.encode()).hexdigest()[:15], 16)
                % dim == b_banana}
    if not collided:
        assert len(r) == 1
        assert abs(r[0]["w"] - round(math.log(5 / 3), 4)) < 1e-9

    # densify -> embeddings table -> SemDeDup
    vecs = np.zeros((5, dim))
    for x in sp:
        vecs[x["doc_id"], x["bucket"]] = x["w"]
    emb = rd.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(5), pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs],
                              pa.list_(pa.float32())),
    }))
    out = semantic_dedup(emb, threshold=0.999, k=2,
                         sample_size=10).take_all()
    by_id = {r["vec_id"]: r for r in out}
    assert not by_id[0]["is_dup"] and by_id[1]["is_dup"]
    assert by_id[1]["rep"] == 0
    assert sum(r["is_dup"] for r in out) == 1


# --- edit-distance near-dup (deletion neighborhoods) -------------------------

def _edit_oracle(texts, prefix_len):
    import duckdb

    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    con = duckdb.connect()
    con.register("d", t)
    out = con.execute(
        f"WITH p AS (SELECT doc_id, substr(text, 1, {prefix_len}) AS h"
        "  FROM d) "
        "SELECT a.doc_id AS id_a, b.doc_id AS id_b, "
        "CAST(levenshtein(a.h, b.h) AS BIGINT) AS dist "
        "FROM p a JOIN p b ON a.doc_id < b.doc_id "
        "AND levenshtein(a.h, b.h) <= 1 ORDER BY id_a, id_b").arrow()
    con.close()
    return out


def _run_edit(texts, prefix_len=16):
    import ray.data as rd

    from arcade_ray.collect import collect_arrow
    from arcade_ray.textops import edit_pairs

    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string())}))
    return collect_arrow(edit_pairs(ds, prefix_len=prefix_len))


def test_edit_pairs_planted(ray_session):
    texts = [
        "the quick brown fox",   # 0: base
        "the quick brown fix",   # 1: substitution        -> (0,1)=1
        "the quick browns fox",  # 2: insertion           -> (0,2)=1
        "the quick brwn fox",    # 3: deletion            -> (0,3)=1
        "the quick brown fox",   # 4: exact dup           -> (0,4)=0
        "a totally different",   # 5: far from everything
        "",                      # 6: empty
        "x",                     # 7: one char            -> (6,7)=1
        None,                    # 8: null text drops
    ]
    got = _run_edit(texts, prefix_len=32)
    ora = _edit_oracle([t for t in texts if t is not None] + [], 32)
    # oracle ids shift after dropping the null: rebuild with null kept
    # as an impossible sentinel instead
    texts2 = [t if t is not None else "\x00sentinel-never-matches-xy"
              for t in texts]
    ora = _edit_oracle(texts2, 32)
    ora = ora.filter(pa.compute.and_(
        pa.compute.not_equal(ora["id_a"], 8),
        pa.compute.not_equal(ora["id_b"], 8)))
    assert got.to_pylist() == ora.to_pylist()
    pairs = {(r["id_a"], r["id_b"]): r["dist"] for r in got.to_pylist()}
    assert pairs[(0, 1)] == 1 and pairs[(0, 2)] == 1
    assert pairs[(0, 3)] == 1 and pairs[(0, 4)] == 0
    assert pairs[(6, 7)] == 1
    assert not any(5 in p for p in pairs)


def test_edit_pairs_fuzz_vs_duckdb(ray_session):
    rng = np.random.default_rng(77)
    alpha = list("abcd")  # tiny alphabet -> dense near-dup structure
    texts = ["".join(rng.choice(alpha, rng.integers(0, 7)))
             for _ in range(400)]
    got = _run_edit(texts, prefix_len=16)
    ora = _edit_oracle(texts, 16)
    assert got.num_rows == ora.num_rows
    assert got.to_pylist() == ora.to_pylist()


def test_edit_pairs_multibyte_and_refusal(ray_session):
    import pytest as _pt

    # multi-byte substitution: byte-level keys still cover it via the
    # shorter-is-deletion-variant route or the verify-only widening;
    # the character-exact verify decides
    texts = ["héllo world", "hållo world", "héllo world!", "unrelated"]
    got = _run_edit(texts, prefix_len=16)
    ora = _edit_oracle(texts, 16)
    assert got.to_pylist() == ora.to_pylist()
    with _pt.raises(ValueError):
        _run_edit_dist2 = __import__(
            "arcade_ray.textops", fromlist=["edit_pairs"]).edit_pairs
        import ray.data as rd
        _run_edit_dist2(rd.from_arrow(pa.table(
            {"doc_id": pa.array([1], pa.int64()),
             "text": pa.array(["x"], pa.string())})), max_dist=2)


# --- char-n-gram novelty stats ------------------------------------------------

def test_charngram_stats_planted(ray_session):
    import ray.data as rd

    from arcade_ray.collect import collect_arrow
    from arcade_ray.textops import charngram_stats

    texts = ["abcabc",   # trigrams abc bca cab abc
             "abc",      # one trigram (abc now 3x corpus-wide)
             "xy",       # too short: no output row
             None,       # null: no output row
             "zzzz"]     # zzz twice (rare: < 3)
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(5), pa.int64()),
        "text": pa.array(texts, pa.string())}))
    out = collect_arrow(charngram_stats(ds, n=3, rare_below=3))
    rows = {r["doc_id"]: r for r in out.to_pylist()}
    assert set(rows) == {0, 1, 4}
    # doc 0: abc(3) bca(1) cab(1) abc(3) -> n_tri 4, sum_c 8, rare 2
    assert rows[0] == {"doc_id": 0, "n_tri": 4, "sum_c": 8,
                       "n_rare": 2}
    # doc 1: abc(3) -> not rare
    assert rows[1] == {"doc_id": 1, "n_tri": 1, "sum_c": 3,
                       "n_rare": 0}
    # doc 4: zzz(2) zzz(2) -> both rare
    assert rows[4] == {"doc_id": 4, "n_tri": 2, "sum_c": 4,
                       "n_rare": 2}


def test_charngram_stats_vs_duckdb_fuzz(ray_session):
    import duckdb
    import ray.data as rd

    from arcade_ray.collect import collect_arrow
    from arcade_ray.textops import charngram_stats

    rng = np.random.default_rng(9)
    alpha = list("abcde ")
    texts = ["".join(rng.choice(alpha, rng.integers(0, 40)))
             for _ in range(300)]
    t = pa.table({"doc_id": pa.array(range(300), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    out = collect_arrow(charngram_stats(rd.from_arrow(t), n=2,
                                        rare_below=4))
    out = out.sort_by([("doc_id", "ascending")])
    con = duckdb.connect()
    con.register("d", t)
    ora = con.execute(
        "WITH pos AS (SELECT doc_id, text, "
        "unnest(generate_series(1, len(text) - 1)) AS g FROM d), "
        "tri AS (SELECT doc_id, substr(text, CAST(g AS INT), 2) AS t "
        "FROM pos), "
        "cnt AS (SELECT t, COUNT(*) AS c FROM tri GROUP BY t) "
        "SELECT tri.doc_id, COUNT(*) AS n_tri, "
        "CAST(SUM(cnt.c) AS BIGINT) AS sum_c, "
        "CAST(SUM(CASE WHEN cnt.c < 4 THEN 1 ELSE 0 END) AS BIGINT) "
        "AS n_rare FROM tri JOIN cnt USING (t) "
        "GROUP BY tri.doc_id ORDER BY doc_id").arrow()
    assert out.num_rows == ora.num_rows
    for c in ("doc_id", "n_tri", "sum_c", "n_rare"):
        assert out[c].to_pylist() == ora[c].to_pylist(), c


def test_minhash_index_incremental(ray_session, tmp_path):
    import ray.data as rd

    from arcade_ray.textops import (build_minhash_index,
                                    query_minhash_index)

    rng = __import__("numpy").random.default_rng(11)
    words = [f"w{i:03d}" for i in range(300)]

    def doc(seed, n=120):
        r = __import__("numpy").random.default_rng(seed)
        return " ".join(words[i] for i in r.integers(0, 300, n))

    corpus = pa.table({
        "doc_id": pa.array(list(range(10)), type=pa.int64()),
        "text": pa.array([doc(s) for s in range(10)]),
    })
    idx = str(tmp_path / "mh_index")
    r = build_minhash_index(rd.from_arrow(corpus), idx)
    assert r["rows"] == 10

    near3 = doc(3)[:-8] + " w000"   # near-copy of doc 3
    new = pa.table({
        "doc_id": pa.array([100, 101, 102], type=pa.int64()),
        "text": pa.array([doc(7), near3, doc(999)]),
    })
    out = query_minhash_index(rd.from_arrow(new), idx,
                              jaccard_threshold=0.7)
    got = {(r["new_id"], r["index_id"]): r["est_jaccard"]
           for r in out.to_pylist()}
    assert got[(100, 7)] == 1.0          # exact copy of indexed doc 7
    assert (101, 3) in got and got[(101, 3)] >= 0.7
    assert all(k[0] != 102 for k in got)  # novel doc is clean
    # empty increment
    out2 = query_minhash_index(
        rd.from_arrow(new.slice(0, 0)), idx)
    assert out2.num_rows == 0


def test_minhash_index_version_refusal(ray_session, tmp_path):
    import json

    import pytest as _pt
    import ray.data as rd

    from arcade_ray.textops import (build_minhash_index,
                                    query_minhash_index)

    corpus = pa.table({
        "doc_id": pa.array([1], type=pa.int64()),
        "text": pa.array(["hello world one two three four five"]),
    })
    idx = str(tmp_path / "mh_v")
    build_minhash_index(rd.from_arrow(corpus), idx)
    meta = json.load(open(f"{idx}/meta.json"))
    meta["hash_version"] = 1
    json.dump(meta, open(f"{idx}/meta.json", "w"))
    with _pt.raises(ValueError, match="hash version"):
        query_minhash_index(rd.from_arrow(corpus), idx)


def test_simhash_index_incremental(ray_session, tmp_path):
    import ray.data as rd

    from arcade_ray.textops import (build_simhash_index,
                                    query_simhash_index)

    words = [f"w{i:03d}" for i in range(300)]

    def doc(seed, n=120):
        r = np.random.default_rng(seed)
        return " ".join(words[i] for i in r.integers(0, 300, n))

    corpus = pa.table({
        "doc_id": pa.array(list(range(10)), type=pa.int64()),
        "text": pa.array([doc(s) for s in range(10)]),
    })
    idx = str(tmp_path / "sh_index")
    r = build_simhash_index(rd.from_arrow(corpus), idx, n_shards=8)
    assert r["rows"] == 10

    near3 = doc(3) + " w000"        # near-copy of doc 3 (tiny edit)
    new = pa.table({
        "doc_id": pa.array([100, 101, 102], type=pa.int64()),
        "text": pa.array([doc(7), near3, doc(999)]),
    })
    out = query_simhash_index(rd.from_arrow(new), idx, max_hamming=3)
    got = {(r["new_id"], r["index_id"]): r["hamming"]
           for r in out.to_pylist()}
    assert got[(100, 7)] == 0            # exact copy: hamming 0
    # independent check of the near-copy: recompute both signatures
    # and the true Hamming distance; within the radius the 4-band
    # pigeonhole GUARANTEES the index reports it at exactly that
    # distance, outside it must be absent
    from arcade_ray.textops import _popcount64, simhash64

    h = simhash64([doc(3), near3])
    d_true = int(_popcount64(np.array([h[0] ^ h[1]], dtype=np.uint64))[0])
    if d_true <= 3:
        assert got[(101, 3)] == d_true
    else:
        assert (101, 3) not in got
    assert all(k[0] != 102 for k in got)  # novel doc is clean
    # empty increment
    out2 = query_simhash_index(rd.from_arrow(new.slice(0, 0)), idx)
    assert out2.num_rows == 0


def test_simhash_index_version_refusal_and_partial_build(ray_session,
                                                         tmp_path):
    import json
    import os as _os

    import pytest as _pt
    import ray.data as rd

    from arcade_ray.textops import (build_simhash_index,
                                    query_simhash_index)

    corpus = pa.table({
        "doc_id": pa.array([1], type=pa.int64()),
        "text": pa.array(["hello world one two three four five"]),
    })
    idx = str(tmp_path / "sh_v")
    build_simhash_index(rd.from_arrow(corpus), idx)
    meta = json.load(open(f"{idx}/meta.json"))
    meta["hash_version"] = 1
    json.dump(meta, open(f"{idx}/meta.json", "w"))
    with _pt.raises(ValueError, match="hash version"):
        query_simhash_index(rd.from_arrow(corpus), idx)

    # partial build (no commit marker) refuses rather than silently
    # reporting no duplicates; a rebuild recommits
    _os.remove(f"{idx}/meta.json")
    with _pt.raises(FileNotFoundError):
        query_simhash_index(rd.from_arrow(corpus), idx)
    build_simhash_index(rd.from_arrow(corpus), idx)
    out = query_simhash_index(rd.from_arrow(corpus), idx)
    assert out.to_pylist()[0] == {"new_id": 1, "index_id": 1,
                                  "hamming": 0}


def test_edit_index_incremental(ray_session, tmp_path):
    import ray.data as rd

    from arcade_ray.textops import build_edit_index, query_edit_index

    corpus = pa.table({
        "doc_id": pa.array(list(range(5)), type=pa.int64()),
        "text": pa.array(["alpha document one", "beta document two",
                          "gamma document three", "delta text four",
                          "epsilon text five"]),
    })
    idx = str(tmp_path / "ed_index")
    # prefix_len longer than every text: whole-string distances (a
    # mid-prefix insert on a truncated prefix shifts the tail and can
    # read as distance 2 — the documented prefix-dedup semantics)
    r = build_edit_index(rd.from_arrow(corpus), idx, prefix_len=32,
                         n_shards=4)
    assert r["rows"] == 5

    new = pa.table({
        "doc_id": pa.array([100, 101, 102], type=pa.int64()),
        "text": pa.array([
            "alpha document one",      # exact prefix copy -> dist 0
            "beta documeent two",      # one insert in prefix -> dist 1
            "completely different",    # clean
        ]),
    })
    out = query_edit_index(rd.from_arrow(new), idx)
    got = {(r["new_id"], r["index_id"]): r["dist"]
           for r in out.to_pylist()}
    assert got[(100, 0)] == 0
    assert got[(101, 1)] == 1
    assert all(k[0] != 102 for k in got)
    # empty increment + partial-build refusal
    assert query_edit_index(rd.from_arrow(new.slice(0, 0)),
                            idx).num_rows == 0
    import os as _os

    import pytest as _pt
    _os.remove(f"{idx}/meta.json")
    with _pt.raises(FileNotFoundError):
        query_edit_index(rd.from_arrow(new), idx)
