"""Mergeable distinct-count sketches (KMV — k minimum values).

The reference's bloom-filter overlap detector (src/writer.cpp:267-284,
dead code — SURVEY.md §1.3) intended to measure cross-block value
overlap to justify shared dictionaries. Our live equivalent: every
encoded chunk records a KMV sketch of its value hashes; sketches merge
across chunks/partitions (manifest col_stats), giving distinct
estimates and overlap estimates for planning without a distinct
shuffle. (Cardinality-sketch idea per PAPERS.md Couper/ICDE'23 lineage;
KMV is the classic bottom-k estimator.)
"""

from __future__ import annotations

import base64
import functools
import zlib

import numpy as np

DEFAULT_K = 256
# the k the COLUMN ENCODERS build manifest sketches with — estimates
# and merges over manifest col_stats sketches must use this k (a
# larger k treats a full 64-entry sketch as underfull and returns 64)
MANIFEST_K = 64
_MAX = float(2**64)


def kmv_from_hashes(hashes: np.ndarray, k: int = DEFAULT_K) -> np.ndarray:
    """Bottom-k of uint64 hashes, sorted ascending (np.unique sorts)."""
    h = np.unique(np.asarray(hashes, dtype=np.uint64))
    return h[:k].copy() if len(h) > k else h


def kmv_merge(a: np.ndarray, b: np.ndarray, k: int = DEFAULT_K) -> np.ndarray:
    return kmv_from_hashes(np.concatenate([a, b]), k)


def kmv_estimate(sketch: np.ndarray, k: int = DEFAULT_K) -> int:
    """Distinct-count estimate: (k-1) / max_normalized for a full
    sketch; exact count when fewer than k hashes were seen."""
    n = len(sketch)
    if n < k:
        return n
    kth = float(sketch[-1])
    return int(round((k - 1) / (kth / _MAX)))


def kmv_overlap(a: np.ndarray, b: np.ndarray, k: int = DEFAULT_K) -> float:
    """Jaccard estimate between two sketched sets (the reference's
    20%-overlap shared-dict test, done with mergeable sketches)."""
    if not len(a) or not len(b):
        return 0.0
    union = kmv_merge(a, b, k)
    inter = np.intersect1d(union, np.intersect1d(a, b))
    return len(inter) / max(1, len(union))


def serialize(sketch: np.ndarray) -> list[int]:
    """JSON-safe form (int64 view for manifest col_stats)."""
    return sketch.view(np.int64).tolist()


def deserialize(vals: list[int]) -> np.ndarray:
    return np.asarray(vals, dtype=np.int64).view(np.uint64)


# --- partition Bloom filters (manifest-level point-lookup pruning) ----------
# Zone maps cannot prune equality on high-cardinality columns whose
# per-partition [min, max] ranges all overlap (e.g. doc ids spread
# round-robin). A small per-partition Bloom filter over the SAME value
# hashes the KMV sketches consume gives "definitely not here" at the
# manifest, so a point lookup touches ~1 partition instead of all of
# them. Partition pruning tolerates false positives (a wasted read),
# so 6 bits/key + 3 probes (~9% FPR) is the right trade; columns whose
# distinct count exceeds BLOOM_MAX_DISTINCT store no filter (FPR would
# approach 1 anyway). Realizes the reference's dead bloom intent
# (src/writer.cpp:267-284) at the layout level where it pays.

BLOOM_MAX_DISTINCT = 32768
BLOOM_BITS_PER_KEY = 6
BLOOM_K = 3
# decoded filters kept per process (LRU): each is at most 2**18 bits =
# 32 KiB (BLOOM_MAX_DISTINCT keys) plus its base64 key string, so the
# cache stays within about 20 MiB
BLOOM_CACHE_FILTERS = 256


def _bloom_positions(h: np.ndarray, m: int) -> list[np.ndarray]:
    """Double hashing (Kirsch-Mitzenmacher): k probe positions derived
    from one 64-bit hash. Identical arithmetic on build and probe."""
    h1 = (h >> np.uint64(32)).astype(np.uint64)
    h2 = ((h | np.uint64(1)) & np.uint64(0xFFFFFFFF)).astype(np.uint64)
    return [((h1 + np.uint64(i) * h2) % np.uint64(m)).astype(np.int64)
            for i in range(BLOOM_K)]


def bloom_build(hashes: np.ndarray) -> dict | None:
    """Bitmap over distinct value hashes -> JSON-able manifest entry
    ``{"b": base64(zlib(bits)), "m": bits}``, or None when the column
    is too wide to filter usefully."""
    u = np.unique(np.asarray(hashes, dtype=np.uint64))
    if len(u) == 0 or len(u) > BLOOM_MAX_DISTINCT:
        return None
    m = 1 << max(9, int(np.ceil(np.log2(len(u) * BLOOM_BITS_PER_KEY))))
    bits = np.zeros(m // 8, dtype=np.uint8)
    for pos in _bloom_positions(u, m):
        np.bitwise_or.at(bits, pos >> 3,
                         (np.uint8(1) << (pos & 7).astype(np.uint8)))
    return {"b": base64.b64encode(zlib.compress(bits.tobytes(), 6)).decode(),
            "m": m}


@functools.lru_cache(maxsize=BLOOM_CACHE_FILTERS)
def _bloom_bits(b64: str) -> np.ndarray:
    """Decoded filter bits of a manifest ``"b"`` string, memoized: every
    pruning pass probes the same filters again. The array is read-only,
    so cached entries cannot be changed by a caller."""
    return np.frombuffer(zlib.decompress(base64.b64decode(b64)),
                         dtype=np.uint8)


def bloom_maybe_contains(bloom: dict, hashes: np.ndarray) -> np.ndarray:
    """Per hash: False -> that value is DEFINITELY absent from the
    partition. The filter decodes once for all ``hashes``, and once per
    process while it stays in the small LRU of decoded filters."""
    bits = _bloom_bits(bloom["b"])
    h = np.asarray(hashes, dtype=np.uint64)
    out = np.ones(len(h), dtype=bool)
    for pos in _bloom_positions(h, int(bloom["m"])):
        out &= ((bits[pos >> 3] >> (pos & 7).astype(np.uint8)) & 1).astype(bool)
    return out


# ---------------------------------------------------------------------------
# Mergeable quantile summaries (manifest-resident, zero-scan percentiles)
# ---------------------------------------------------------------------------
# A weighted ε-approximate quantile summary per numeric column per
# partition: each chunk contributes a systematic rank sample of its
# EXACT sorted values (error <= n_chunk/(2·QS_K_CHUNK)); the partition
# merge recompacts to QS_K_PART points (adding n_part/(2·QS_K_PART)).
# Query-time merges across partitions concatenate WITHOUT recompaction,
# so errors only ADD: total rank error <= N·(1/(2·128) + 1/(2·256))
# ≈ 0.59% of N — carried exactly in the summary's "err" field so the
# caller can report a certified bound instead of a folk constant.
# Values are order-preserving uint64 keys (query.py::_order_key_u64's
# transform), so one summary shape serves ints, floats and timestamps.

QS_K_CHUNK = 128
QS_K_PART = 256


def order_key_from_stream(vals: np.ndarray, tag: str) -> np.ndarray:
    """Order-preserving uint64 keys from TRANSPORT ints (streams.py
    bit-pattern convention: floats travel as IEEE bits, u64 as an
    int64 view). Must rank identically to query.py::_order_key_u64
    applied to the decoded values."""
    one63 = np.uint64(1 << 63)
    if tag == "f32":
        b = vals.astype(np.uint32).view(np.float32).astype(
            np.float64).view(np.uint64)
        return np.where(b >> np.uint64(63) == 0, b ^ one63, ~b)
    if tag == "f64":
        b = np.ascontiguousarray(vals).view(np.uint64)
        return np.where(b >> np.uint64(63) == 0, b ^ one63, ~b)
    if tag == "u64":
        return np.ascontiguousarray(vals).view(np.uint64)
    return vals.astype(np.int64).view(np.uint64) ^ one63


def qs_build(keys: np.ndarray, k: int = QS_K_CHUNK) -> dict | None:
    """Summary of EXACT values: sorted systematic rank sample, each
    point weighted n/k. Introduced rank error <= n/(2k); exact (err 0)
    when n <= k."""
    n = len(keys)
    if n == 0:
        return None
    s = np.sort(keys)
    if n <= k:
        return {"v": s, "w": np.ones(n, dtype=np.float64), "err": 0.0}
    idx = ((np.arange(k, dtype=np.float64) + 0.5) * n / k).astype(np.int64)
    return {"v": s[idx], "w": np.full(k, n / k), "err": n / (2.0 * k)}


def qs_merge(summaries: list[dict], k: int | None = None) -> dict | None:
    """Weighted merge (errors add); optional recompaction to k points
    (adds W/(2k) more). Merging alone is LOSSLESS — recompact only
    when storing, never at query time."""
    summaries = [s for s in summaries if s is not None]
    if not summaries:
        return None
    v = np.concatenate([s["v"] for s in summaries])
    w = np.concatenate([s["w"] for s in summaries])
    err = float(sum(s["err"] for s in summaries))
    order = np.argsort(v, kind="stable")
    v, w = v[order], w[order]
    if k is not None and len(v) > k:
        cw = np.cumsum(w)
        total = cw[-1]
        targets = (np.arange(k, dtype=np.float64) + 0.5) * total / k
        idx = np.minimum(np.searchsorted(cw, targets), len(v) - 1)
        v = v[idx]
        w = np.full(k, total / k)
        err += total / (2.0 * k)
    return {"v": v, "w": w, "err": err}


def qs_query(summary: dict, p: float) -> int:
    """PERCENTILE_DISC-style point: smallest summary key whose
    cumulative weight reaches p·W (uint64 order-key domain)."""
    cw = np.cumsum(summary["w"])
    total = cw[-1]
    i = int(np.searchsorted(cw, p * total, side="left"))
    return int(summary["v"][min(i, len(summary["v"]) - 1)])


def qs_serialize(summary: dict) -> dict:
    return {"v": [int(x) for x in summary["v"]],
            "w": [round(float(x), 3) for x in summary["w"]],
            "err": round(float(summary["err"]), 3)}


def qs_deserialize(d: dict) -> dict:
    return {"v": np.array(d["v"], dtype=np.uint64),
            "w": np.array(d["w"], dtype=np.float64),
            "err": float(d["err"])}
