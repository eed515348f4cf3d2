"""Skew-aware partition planning.

The north rule's "groupby-aggregate shuffle rebalances skewed
partitions": a cheap planning aggregation over the weight column
(``sum(n_tok)`` per source) decides, per source, how many hash buckets
to split it into, so no encode task exceeds the token cap — hot
(zipf-dominant) sources fan out, cold sources stay single-bucket.
(SURVEY.md §4.2 "Skew" row; the reference has no notion of this —
single thread, README.md:136-138.)

The plan is a small dict broadcast into the part-key assignment stage;
partition keys are deterministic (stable hash, hashing.py) so a resumed
run regenerates the identical partitioning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .constants import DEFAULT_PART_ROW_CAP, DEFAULT_PART_TOKEN_CAP
from .hashing import hash_column


@dataclass(frozen=True)
class Plan:
    buckets_per_source: dict[str, int]
    key_col: str            # e.g. "source"
    id_col: str             # bucket-hash column, e.g. "doc_id"
    weight_cap: int
    source_weights: dict[str, int] | None = None

    def pid_weights(self) -> list[int]:
        """Estimated weight per partition id (source weight spread over
        its hash buckets) — drives LPT packing of encode buckets."""
        out = []
        for src, nb in sorted(self.buckets_per_source.items()):
            w = (self.source_weights or {}).get(src, 1)
            out.extend([max(1, w // nb)] * nb)
        return out

    def part_keys(self) -> list[str]:
        return [
            f"{src}#{b:04d}"
            for src, nb in sorted(self.buckets_per_source.items())
            for b in range(nb)
        ]

    def pid_base(self) -> dict[str, int]:
        """source -> first integer partition id (pids are dense ints —
        the shuffle key is an int64, far cheaper to sort/exchange than
        the composite string key)."""
        base, out = 0, {}
        for src, nb in sorted(self.buckets_per_source.items()):
            out[src] = base
            base += nb
        return out


def key_weights(batch: pa.Table, key_col: str,
                weight_col: str | None) -> pa.Table:
    """Planning partial of one batch: ``k`` (source key as string, null
    keys grouped under "") and ``w`` (weight sum, or row count)."""
    keys = batch[key_col]
    if not pa.types.is_string(keys.type):
        keys = keys.cast(pa.string())
    keys = pc.fill_null(keys, "")  # null keys group under ""
    if weight_col is not None:
        g = pa.table({"k": keys, "w": batch[weight_col].cast(pa.int64())}) \
            .group_by("k").aggregate([("w", "sum")])
        return pa.table({"k": g["k"], "w": g["w_sum"]})
    g = pa.table({"k": keys}).group_by("k").aggregate([("k", "count")])
    return pa.table({"k": g["k"], "w": g["k_count"].cast(pa.int64())})


def part_cap(weight_col: str | None, weight_cap: int | None) -> int:
    """Partition weight cap: tokens when a weight column is given, else rows."""
    return weight_cap or (DEFAULT_PART_TOKEN_CAP if weight_col is not None
                          else DEFAULT_PART_ROW_CAP)


def plan_from_totals(totals: dict[str, int], key_col: str, id_col: str,
                     weight_col: str | None = None,
                     weight_cap: int | None = None) -> Plan:
    """The plan for merged per-source weights: each source splits into
    ceil(weight / cap) hash buckets."""
    cap = part_cap(weight_col, weight_cap)
    buckets = {k: max(1, -(-w // cap)) for k, w in totals.items()}
    return Plan(buckets, key_col, id_col, cap, source_weights=totals)


def build_plan(ds, key_col: str, id_col: str, weight_col: str | None = None,
               weight_cap: int | None = None) -> Plan:
    """Planning aggregate: per-source row count + weight sum, computed
    as per-batch PARTIAL aggregates merged on the driver — one streaming
    pass, no shuffle (pre-aggregation pattern; the partial output is one
    row per source per batch, tiny). ``ds`` is a ray.data.Dataset."""
    partials = ds.map_batches(lambda b: key_weights(b, key_col, weight_col),
                              batch_format="pyarrow").take_all()
    totals: dict[str, int] = {}
    for row in partials:
        totals[row["k"]] = totals.get(row["k"], 0) + int(row["w"])
    return plan_from_totals(totals, key_col, id_col, weight_col, weight_cap)


def assign_part_keys(batch: pa.Table, plan: Plan) -> pa.Table:
    """Stateless map_batches stage: add the deterministic ``_pid``
    int64 column (dense partition id = pid_base[source] +
    hash(id) % n_buckets). Partition ids, not strings, travel through
    the shuffle."""
    src = batch[plan.key_col].combine_chunks()
    if not pa.types.is_string(src.type):
        src = src.cast(pa.string())
    src = pc.fill_null(src, "")  # null keys group under "" (plan partial agrees)
    denc = src.dictionary_encode()
    uniq = denc.dictionary.to_pylist()  # small: one entry per source in batch
    nb_map = np.array([plan.buckets_per_source.get(u, 1) for u in uniq],
                      dtype=np.uint64)
    base = plan.pid_base()
    base_map = np.array([base.get(u, 0) for u in uniq], dtype=np.int64)
    codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    h = hash_column(batch[plan.id_col])
    bucket = (h % nb_map[codes]).astype(np.int64)
    pid = base_map[codes] + bucket
    return batch.append_column("_pid", pa.array(pid, type=pa.int64()))


# --- range (clustered) partitioning ------------------------------------------
#
# The layout feature hash partitioning can't give: partitions cover
# DISJOINT value ranges of one column, so the per-partition zone maps
# in the manifest prune range/equality predicates on that column ACROSS
# partitions (the reference's zone-map idea, lifted from chunk level to
# cluster level). The boundaries come from a sampled quantile sketch in
# the planning pass and are PERSISTED next to the data — a resumed run
# re-loads them instead of re-sampling, so partition identity is stable
# no matter how the input re-blocks.

RANGE_SAMPLE_PER_TASK = 4096


@dataclass(frozen=True)
class RangePlan:
    """Quantile cut points for range partitioning on ``col``.

    ``boundaries`` are sorted, deduplicated, upper-exclusive cut points
    (len B-1 for B buckets); a value v lands in the first bucket whose
    boundary exceeds it (np.searchsorted side="right"). Timestamps are
    carried as int64 epoch values."""
    boundaries: tuple
    col: str
    weights: tuple  # estimated weight per bucket (drives LPT packing)

    def part_keys(self) -> list[str]:
        return [f"range#{i:04d}" for i in range(len(self.boundaries) + 1)]

    def pid_weights(self) -> list[int]:
        return list(self.weights)


def range_sample(values: pa.ChunkedArray | pa.Array,
                 k: int = RANGE_SAMPLE_PER_TASK) -> np.ndarray:
    """Deterministic strided sample of up to k non-null values (sorted
    input not required; the stride keeps every region of the block
    represented without RNG state)."""
    a = values.combine_chunks() if isinstance(values, pa.ChunkedArray) \
        else values
    if pa.types.is_timestamp(a.type):
        a = a.cast(pa.int64())
    a = a.drop_null()
    if len(a) == 0:
        return np.empty(0, dtype=np.float64)
    v = a.to_numpy(zero_copy_only=False)
    if v.dtype.kind == "f":
        # drop_null removes Arrow nulls but NOT float NaN payloads; a
        # single NaN sample would turn EVERY quantile boundary into NaN
        # and collapse the whole corpus into one partition
        v = v[~np.isnan(v)]
    if len(v) <= k:
        return v
    step = -(-len(v) // k)
    return v[::step]


def build_range_plan(samples: np.ndarray, total_weight: int, cap: int,
                     col: str) -> RangePlan:
    """Quantile boundaries from the merged planning sample: B =
    ceil(total_weight / cap) buckets, cut at the i/B quantiles
    (method="lower" keeps integer columns exact). Duplicate quantiles
    (heavy single values) collapse — skew degrades bucket count, never
    correctness."""
    n_buckets = max(1, -(-int(total_weight) // int(cap)))
    samples = np.asarray(samples)
    if samples.dtype.kind == "f":
        samples = samples[np.isfinite(samples)]  # belt and braces
    samples = np.sort(samples)
    if n_buckets == 1 or len(samples) == 0:
        return RangePlan((), col, (max(1, int(total_weight)),))
    qs = np.quantile(samples, [i / n_buckets for i in range(1, n_buckets)],
                     method="lower")
    boundaries = tuple(dict.fromkeys(qs.tolist()))
    # weight ESTIMATE per bucket from the sample histogram (drives LPT
    # packing of encode tasks): boundary-collapsed buckets of a skewed
    # column carry their real share, not a uniform average
    counts = np.zeros(len(boundaries) + 1, dtype=np.int64)
    bins = np.searchsorted(np.asarray(boundaries), samples, side="right")
    np.add.at(counts, bins, 1)
    weights = tuple(
        max(1, int(round(int(total_weight) * c / len(samples))))
        for c in counts)
    return RangePlan(boundaries, col, weights)


def assign_range_pids(batch: pa.Table, plan: RangePlan) -> pa.Table:
    """Stateless map_batches stage mirroring :func:`assign_part_keys`
    for range plans: ``_pid`` = searchsorted bucket of the range
    column. Nulls sort after every boundary (NaN compares false) and
    land in the LAST bucket — deterministic, and the partition's zone
    map records the null count so pruning stays correct."""
    a = batch[plan.col].combine_chunks()
    if pa.types.is_timestamp(a.type):
        a = a.cast(pa.int64())
    v = a.to_numpy(zero_copy_only=False)
    if not plan.boundaries:
        pid = np.zeros(batch.num_rows, dtype=np.int64)
    else:
        b = np.asarray(plan.boundaries)
        if v.dtype.kind == "f" and b.dtype.kind != "f":
            b = b.astype(np.float64)  # null-bearing int block -> NaN floats
        pid = np.searchsorted(b, v, side="right").astype(np.int64)
        if v.dtype.kind == "f":
            pid[np.isnan(v)] = len(plan.boundaries)  # nulls -> last bucket
    return batch.append_column("_pid", pa.array(pid, type=pa.int64()))
