"""KMV distinct sketches: estimation accuracy, merge, manifest wiring."""

import json

import numpy as np
import pytest

from arcade_ray.hashing import hash_ints
from arcade_ray.sketches import (
    deserialize,
    kmv_estimate,
    kmv_from_hashes,
    kmv_merge,
    kmv_overlap,
    serialize,
)


def test_exact_below_k():
    h = hash_ints(np.arange(100))
    sk = kmv_from_hashes(h, k=256)
    assert kmv_estimate(sk, 256) == 100


@pytest.mark.parametrize("n", [2000, 50_000, 500_000])
def test_estimate_accuracy(n):
    h = hash_ints(np.arange(n))
    sk = kmv_from_hashes(h, k=256)
    est = kmv_estimate(sk, 256)
    assert abs(est - n) / n < 0.2, (n, est)


def test_merge_equals_union():
    a = hash_ints(np.arange(0, 30_000))
    b = hash_ints(np.arange(15_000, 45_000))
    sk = kmv_merge(kmv_from_hashes(a, 256), kmv_from_hashes(b, 256), 256)
    est = kmv_estimate(sk, 256)
    assert abs(est - 45_000) / 45_000 < 0.2


def test_overlap():
    a = kmv_from_hashes(hash_ints(np.arange(0, 10_000)), 256)
    b = kmv_from_hashes(hash_ints(np.arange(5_000, 15_000)), 256)
    c = kmv_from_hashes(hash_ints(np.arange(50_000, 60_000)), 256)
    assert kmv_overlap(a, b, 256) > 0.15  # true jaccard = 1/3
    assert kmv_overlap(a, c, 256) < 0.05


def test_serialize_roundtrip():
    sk = kmv_from_hashes(hash_ints(np.arange(1000)), 64)
    assert (deserialize(serialize(sk)) == sk).all()


def test_manifest_carries_sketch(tmp_path):
    from arcade_ray.corpus import generate_corpus
    from arcade_ray.format import encode_partition

    table = generate_corpus(5000, 6, seed=2)
    _, manifest = encode_partition(table, "sk")
    stats = json.loads(manifest["col_stats"])
    assert stats["source"]["distinct_est"] == 6  # exact below k
    assert stats["doc_id"]["distinct_est"] == pytest.approx(5000, rel=0.25)
    assert len(stats["source"]["kmv"]) == 6


# --- mergeable quantile summaries (qs_*) -----------------------------------

def _rank_err(sorted_data, est, p):
    import numpy as np
    n = len(sorted_data)
    lo = np.searchsorted(sorted_data, est, side="left")
    hi = np.searchsorted(sorted_data, est, side="right")
    t = p * n
    return 0.0 if lo <= t <= hi else min(abs(lo - t), abs(hi - t))


@pytest.mark.parametrize("dist", ["uniform", "zipfy", "constant"])
def test_qs_error_bound(dist):
    """Certified rank-error bound holds over block-built, recompacted,
    merged summaries — the exact lifecycle encode/query uses."""
    import numpy as np

    from arcade_ray.sketches import (QS_K_PART, order_key_from_stream,
                                     qs_build, qs_merge, qs_query)

    rng = np.random.default_rng(11)
    n = 80_000
    if dist == "uniform":
        vals = rng.integers(-10**12, 10**12, n)
    elif dist == "zipfy":
        vals = (rng.pareto(1.1, n) * 1000).astype(np.int64)
    else:
        vals = np.full(n, 42, dtype=np.int64)
    keys = order_key_from_stream(vals.astype(np.int64), "i64")
    # 8 "chunks" per "partition", 5 partitions, partition recompaction
    parts = []
    per = n // 5
    for i in range(5):
        chunk = keys[i * per:(i + 1) * per]
        cs = [qs_build(chunk[j::8]) for j in range(8)]
        parts.append(qs_merge(cs, k=QS_K_PART))
    merged = qs_merge(parts)
    s = np.sort(keys)
    for p in (0.0, 0.01, 0.5, 0.99, 1.0):
        est = qs_query(merged, p)
        assert _rank_err(s, est, p) <= merged["err"] + 1


def test_qs_float_order_and_serialize():
    """Float keys rank like the values (IEEE total-order transform,
    negatives included); serialize roundtrips."""
    import numpy as np

    from arcade_ray.sketches import (order_key_from_stream, qs_build,
                                     qs_deserialize, qs_merge, qs_query,
                                     qs_serialize)

    vals = np.array([-1e300, -2.5, -0.0, 0.0, 1e-9, 3.14, 2e18],
                    dtype=np.float64)
    keys = order_key_from_stream(vals.view(np.int64), "f64")
    assert (np.argsort(keys) == np.arange(len(vals))).all()
    s = qs_merge([qs_build(keys)])
    rt = qs_deserialize(qs_serialize(s))
    assert (rt["v"] == s["v"]).all()
    assert rt["err"] == 0.0
    med = qs_query(rt, 0.5)
    assert med == keys[3]  # exact below k: PERCENTILE_DISC point


def test_sketch_percentiles_encoded(ray_session, tmp_path):
    """End to end: encode -> manifest summaries -> zero-scan
    percentiles within the certified bound; nulls excluded; string
    column refuses with KeyError."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from arcade_ray.pipeline.encode import encode_parquet
    from arcade_ray.pipeline.query import sketch_percentiles

    rng = np.random.default_rng(3)
    n = 20_000
    vals = rng.normal(0, 1e6, n)
    vals[::7] = np.nan  # NaNs are values (sort to the top), not nulls
    nulls = rng.random(n) < 0.1
    t = pa.table({
        "doc_id": pa.array([f"d{i}" for i in range(n)]),
        "source": pa.array([f"s{i % 4}" for i in range(n)]),
        "x": pa.array(np.where(nulls, np.nan, vals), pa.float64(),
                      mask=nulls),
        "k": pa.array(rng.integers(0, 1000, n), pa.int64()),
    })
    src = str(tmp_path / "in.parquet")
    pq.write_table(t, src)
    enc = str(tmp_path / "enc")
    encode_parquet(src, enc, key_col="source", id_col="doc_id",
                   weight_col=None)
    for col in ("x", "k"):
        out = sketch_percentiles(enc, col, [0.1, 0.5, 0.9])
        bound = out["rank_err_bound"][0].as_py()
        data = t[col].drop_null().to_numpy(zero_copy_only=False)
        s = np.sort(data)  # numpy sorts NaN last, like the key order
        for p, est in zip([0.1, 0.5, 0.9], out[col].to_pylist()):
            assert _rank_err(s, est, p) <= bound + 1, (col, p)
    with pytest.raises(KeyError):
        sketch_percentiles(enc, "doc_id", [0.5])
    with pytest.raises(KeyError):
        sketch_percentiles(enc, "nope", [0.5])


def test_group_approx_percentiles(ray_session):
    """Per-group certified rank-error bounds hold across many blocks;
    NaNs count as top-of-order values, nulls are excluded; ints and
    floats both invert correctly."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from arcade_ray.transforms import group_approx_percentiles

    rng = np.random.default_rng(2)
    n = 50_000
    t = pa.table({
        "g": pa.array([f"g{i % 5}" for i in range(n)]),
        "x": pa.array(np.where(rng.random(n) < 0.05, np.nan,
                               rng.normal(0, 100, n)),
                      pa.float64(), mask=rng.random(n) < 0.03),
        "k": pa.array(rng.integers(-10**6, 10**6, n), pa.int64()),
    })
    ds = rd.from_arrow(t)
    for col in ("x", "k"):
        out = group_approx_percentiles(ds, "g", col, [0.1, 0.5, 0.9])
        assert out.num_rows == 15
        for r in out.to_pylist():
            vals = np.sort(t.filter(pa.compute.equal(t["g"], r["g"]))
                           [col].drop_null()
                           .to_numpy(zero_copy_only=False))
            lo = np.searchsorted(vals, r[col], side="left")
            hi = np.searchsorted(vals, r[col], side="right")
            tgt = r["p"] * len(vals)
            err = 0 if lo <= tgt <= hi else min(abs(lo - tgt),
                                                abs(hi - tgt))
            assert err <= r["rank_err_bound"] + 1, (col, r, err)


def test_qs_uint64_and_null_group_keys(ray_session, tmp_path):
    """Review regressions: (a) uint64 columns invert through the 'u'
    kind (raw keys, no sign-shift) in both sketch paths; (b) NULL
    group keys form their own group instead of crashing the partial."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from arcade_ray.pipeline.encode import encode_parquet
    from arcade_ray.pipeline.query import sketch_percentiles
    from arcade_ray.transforms import (group_approx_distinct,
                                       group_approx_percentiles)

    n = 4000
    rng = np.random.default_rng(9)
    big = rng.integers(2**62, 2**63, n).astype(np.uint64) * 2  # > 2^63
    t = pa.table({
        "doc_id": pa.array([f"d{i}" for i in range(n)]),
        "source": pa.array((["s0", None] * (n // 2))),
        "u": pa.array(big, pa.uint64()),
    })
    src = str(tmp_path / "u.parquet")
    pq.write_table(t, src)
    enc = str(tmp_path / "enc")
    encode_parquet(src, enc, key_col="source", id_col="doc_id",
                   weight_col=None)
    out = sketch_percentiles(enc, "u", [0.5])
    med = out["u"][0].as_py()
    s = np.sort(big)
    assert out["u"].type == pa.uint64()
    assert s[0] <= med <= s[-1]                 # in-domain, not -2^63ish
    rank = np.searchsorted(s, med)
    assert abs(rank - 0.5 * n) <= out["rank_err_bound"][0].as_py() + 1

    ds = rd.from_arrow(t)
    g = group_approx_percentiles(ds, "source", "u", [0.5])
    keys = set(g["source"].to_pylist())
    assert keys == {"s0", None}                 # null key is a group
    for r in g.to_pylist():
        assert s[0] <= r["u"] <= s[-1]
    d = group_approx_distinct(ds, "source", "doc_id")
    assert set(d["source"].to_pylist()) == {"s0", None}
    for r in d.to_pylist():
        assert abs(r["distinct_est"] - n // 2) / (n // 2) < 0.3


def test_sketch_percentiles_schema_evolution(ray_session, tmp_path):
    """A column added in a later generation: predating partitions read
    as NULL there and contribute nothing; the sketch answers over the
    new generation's values within the certified bound. A truly
    unknown column still raises KeyError."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from arcade_ray.pipeline.encode import encode_parquet
    from arcade_ray.pipeline.query import sketch_percentiles

    n = 5000
    rng = np.random.default_rng(4)
    base = pa.table({
        "doc_id": pa.array([f"a{i}" for i in range(n)]),
        "source": pa.array([f"s{i % 3}" for i in range(n)]),
    })
    newer = pa.table({
        "doc_id": pa.array([f"b{i}" for i in range(n)]),
        "source": pa.array([f"s{i % 3}" for i in range(n)]),
        "score": pa.array(rng.integers(0, 10**6, n), pa.int64()),
    })
    p1, p2 = str(tmp_path / "g0.parquet"), str(tmp_path / "g1.parquet")
    pq.write_table(base, p1)
    pq.write_table(newer, p2)
    enc = str(tmp_path / "enc")
    encode_parquet(p1, enc, key_col="source", id_col="doc_id",
                   weight_col=None)
    encode_parquet(p2, enc, key_col="source", id_col="doc_id",
                   weight_col=None, generation="g1")
    out = sketch_percentiles(enc, "score", [0.5])
    med = out["score"][0].as_py()
    s = np.sort(newer["score"].to_numpy(zero_copy_only=False))
    rank = np.searchsorted(s, med)
    assert abs(rank - 0.5 * n) <= out["rank_err_bound"][0].as_py() + 1
    with pytest.raises(KeyError):
        sketch_percentiles(enc, "nope", [0.5])


def test_empty_string_hash_batch_invariance():
    """Review regression: '' hashes identically whatever batch it
    shares (the total==0 early path and the mixed-batch path used to
    disagree, and the mixed path self-cancelled to 0 — silently
    mis-pruning Bloom probes for empty-string literals)."""
    import pyarrow as pa

    from arcade_ray.hashing import hash_column

    h_mixed = hash_column(pa.array(["", "abc", "x"]))
    h_alone = hash_column(pa.array(["", ""]))
    assert h_mixed[0] == h_alone[0] != 0
    assert len({int(x) for x in h_mixed}) == 3


def test_bloom_hash_version_gate(ray_session, tmp_path):
    """A bloom stamped with a FOREIGN hash version never prunes (it
    would falsely prove absence); same-version blooms still do."""
    import json as _json

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from arcade_ray.hashing import HASH_VERSION
    from arcade_ray.pipeline.encode import encode_parquet, load_manifest
    from arcade_ray.pipeline.query import _bloom_excludes, _literal_bloom_hashes

    n = 2000
    t = pa.table({
        "doc_id": pa.array([f"d{i:05d}" for i in range(n)]),
        "source": pa.array([f"s{i % 4}" for i in range(n)]),
    })
    src = str(tmp_path / "in.parquet")
    pq.write_table(t, src)
    enc = str(tmp_path / "enc")
    encode_parquet(src, enc, key_col="source", id_col="doc_id",
                   weight_col=None)
    m = load_manifest(enc)
    stats = _json.loads(m["col_stats"][0].as_py())["doc_id"]
    assert stats["hv"] == HASH_VERSION
    h = _literal_bloom_hashes({"kind": "str", "tag": "str"},
                              ["definitely-absent"])
    assert _bloom_excludes(stats, h)          # current version prunes
    stale = dict(stats, hv=HASH_VERSION - 1)
    assert not _bloom_excludes(stale, h)      # stale bloom never does


def test_bloom_probe_matches_per_hash_loop():
    """The vectorised probe answers each hash exactly as a per-hash
    bit loop over the same positions does, and never misses a member."""
    import base64
    import zlib

    from arcade_ray.hashing import hash_ints
    from arcade_ray.sketches import (_bloom_positions, bloom_build,
                                     bloom_maybe_contains)

    members = hash_ints(np.arange(0, 3000, 3))
    bloom = bloom_build(members)
    probes = hash_ints(np.arange(6000))
    got = bloom_maybe_contains(bloom, probes)
    bits = np.frombuffer(zlib.decompress(base64.b64decode(bloom["b"])),
                         dtype=np.uint8)
    want = [all((bits[int(p[0]) >> 3] >> (int(p[0]) & 7)) & 1
                for p in _bloom_positions(np.array([h], np.uint64),
                                          bloom["m"]))
            for h in probes]
    assert got.tolist() == want
    assert got[np.arange(0, 3000, 3)].all()
    assert 0 < got.sum() < len(probes)


def test_bloom_repeated_probe_decodes_once(monkeypatch):
    """A filter probed again is served from the decoded-filter cache:
    one decompression for many probes, the same answers each time, and
    a different filter still decodes its own bits."""
    from arcade_ray import sketches

    sketches._bloom_bits.cache_clear()
    calls = []
    real = sketches.zlib.decompress
    monkeypatch.setattr(sketches.zlib, "decompress",
                        lambda b: calls.append(1) or real(b))
    bloom = sketches.bloom_build(hash_ints(np.arange(0, 3000, 3)))
    # a new but equal string, as a fresh json.loads of the manifest gives
    again = dict(bloom, b="".join(list(bloom["b"])))
    probes = hash_ints(np.arange(6000))
    first = sketches.bloom_maybe_contains(bloom, probes)
    for b in (bloom, again, bloom):
        assert np.array_equal(sketches.bloom_maybe_contains(b, probes), first)
    assert len(calls) == 1
    other = sketches.bloom_build(hash_ints(np.arange(1, 3000, 3)))
    got = sketches.bloom_maybe_contains(other, probes)
    assert len(calls) == 2
    assert got[np.arange(1, 3000, 3)].all()
    assert not np.array_equal(got, first)
    assert not sketches._bloom_bits(bloom["b"]).flags.writeable
