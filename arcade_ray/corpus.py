"""Deterministic synthetic pre-tokenized corpus (FIXTURES.md §A).

Schema per BASELINE.json:input_hint:
    doc_id: string, tokens: list<int32>, n_tok: int32, source: string

- ``source`` is zipf(a=1.5)-skewed over S names -> source-dominated hot
  partitions, exercising the rebalance shuffle (north rule).
- token-value regimes rotate per source so every codec wins somewhere:
  narrow (bit-pack), clustered (FoR), runs (RLE), zipf-vocab (dict),
  random (plain) — SURVEY.md §5.2 item 2.
- explicit edge rows: length-1 list, max-length list, all-equal list,
  a list containing 0 and 2**31 - 1.

Seeded, pure numpy — identical output across processes/runs.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

REGIMES = ("narrow", "clustered", "runs", "zipf", "random")
MAX_LIST_LEN = 8192


def _token_values(rng: np.ndarray, regime: str, n: int) -> np.ndarray:
    if regime == "narrow":
        return rng.integers(0, 256, n, dtype=np.int32)
    if regime == "clustered":
        return (50_000 + rng.integers(0, 1024, n)).astype(np.int32)
    if regime == "runs":
        # geometric run lengths, mean 32
        n_runs = max(1, n // 32 + 1)
        lens = rng.geometric(1 / 32, n_runs)
        vals = rng.integers(0, 4096, n_runs, dtype=np.int32)
        out = np.repeat(vals, lens)[:n]
        if len(out) < n:
            out = np.concatenate([out, np.full(n - len(out), vals[-1], np.int32)])
        return out
    if regime == "zipf":
        z = rng.zipf(1.3, n)
        return np.minimum(z, 32_000).astype(np.int32) - 1
    return rng.integers(0, 2**31 - 1, n, dtype=np.int32)


def generate_corpus(rows: int, n_sources: int = 8, seed: int = 42) -> pa.Table:
    rng = np.random.default_rng(seed)
    # zipf-skewed source assignment
    src_idx = np.minimum(rng.zipf(1.5, rows), n_sources) - 1
    lengths = np.clip(
        np.round(np.exp(rng.normal(5, 1, rows))).astype(np.int64), 1, MAX_LIST_LEN
    )
    # edge rows (FIXTURES.md §A): fixed positions at the head
    if rows >= 4:
        lengths[0] = 1
        lengths[1] = MAX_LIST_LEN
        lengths[2] = 64   # all-equal list
        lengths[3] = 2    # [0, 2**31-1]
    total = int(lengths.sum())
    values = np.empty(total, dtype=np.int32)
    offsets = np.empty(rows + 1, dtype=np.int64)
    offsets[0] = 0
    np.cumsum(lengths, out=offsets[1:])
    for s in range(n_sources):
        regime = REGIMES[s % len(REGIMES)]
        rows_s = np.flatnonzero(src_idx == s)
        if not len(rows_s):
            continue
        cnt = int(lengths[rows_s].sum())
        vals_s = _token_values(rng, regime, cnt)
        # scatter into the flattened stream
        values[_ranges(offsets[rows_s], lengths[rows_s])] = vals_s
    if rows >= 4:
        values[offsets[2]: offsets[3]] = 7
        values[offsets[3]] = 0
        values[offsets[3] + 1] = 2**31 - 1

    src_names = np.array([f"src-{i:03d}" for i in range(n_sources)])
    source = src_names[src_idx]
    doc_id = np.array([f"{source[i]}:{i:012d}" for i in range(rows)])
    assert total < 2**31, "use multiple corpus files beyond 2^31 tokens"
    tokens = pa.ListArray.from_arrays(
        pa.array(offsets, type=pa.int32()),
        pa.array(values, type=pa.int32()),
    )
    return pa.table({
        "doc_id": pa.array(doc_id, type=pa.string()),
        "tokens": tokens,
        "n_tok": pa.array(lengths.astype(np.int32), type=pa.int32()),
        "source": pa.array(source, type=pa.string()),
    })


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Vectorized concatenation of [start, start+len) ranges."""
    total = int(lens.sum())
    out = np.ones(total, dtype=np.int64)
    ends = np.cumsum(lens)
    out[0] = starts[0]
    out[ends[:-1]] = starts[1:] - (starts[:-1] + lens[:-1]) + 1
    return np.cumsum(out)

