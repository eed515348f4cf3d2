"""Stream-shaped operators keyed by time: gap-based session windows,
sliding-window assignment, as-of / range / interval joins, and the
per-key window functions ``ranked_gaps`` and ``frame_aggs`` (tumbling
windows live in the query surface).

Ray Data has no event-time window/watermark primitives (guide
'Streaming-shaped workloads'); every keyed operator here co-locates
each key's rows through the fragment exchange (``exchange.by_key``,
about two hash buckets per CPU) and runs one vectorized pass per
bucket: the ordering assumption is per key, enforced by the in-bucket
sort, and the Python cost is O(buckets), not O(keys). Keyed operators
stage (execute) their input when called. A NULL key follows SQL: it
forms its own group in a window and never matches in a join."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .exchange import by_key


def _plain(col) -> pa.Array:
    """One chunk, dictionary-decoded."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    return arr.dictionary_decode() if pa.types.is_dictionary(arr.type) \
        else arr


def key_codes(col) -> np.ndarray:
    """int64 group codes of a key column: equal keys share a code, NULL
    is one more code (its own group), and a float key compares as
    ``query.float_order_key`` (-0.0 with 0.0, NaN with NaN), the way
    ``exchange.key_buckets`` routes it."""
    from .pipeline.query import float_order_key

    arr = _plain(col)
    if pa.types.is_floating(arr.type):
        arr = float_order_key(arr)
    return pc.dictionary_encode(arr, null_encoding="encode").indices \
        .to_numpy(zero_copy_only=False).astype(np.int64)


def _ints(col) -> np.ndarray:
    return _plain(col).cast(pa.int64()).to_numpy(zero_copy_only=False)


def session_windows(ds, key_col: str = "user_id", ts_col: str = "ts",
                    gap_s: float = 1800.0):
    """Gap-based session windows over a stream-shaped table. Returns
    one row per session: (key, session_start, session_end, n_events).
    Stages ``ds`` when called.

    Rows co-locate by key (``exchange.by_key``); inside a bucket
    everything is one vectorized pass: arrow sort by (key, ts),
    session breaks from a key-change/gap diff, per-session aggregates
    from run boundaries — no per-key pandas groups."""

    def sessions(t: pa.Table) -> pa.Table:
        t = t.take(pc.sort_indices(
            t, sort_keys=[(key_col, "ascending"), (ts_col, "ascending")]))
        ts = t[ts_col].combine_chunks()
        unit = ts.type.unit if pa.types.is_timestamp(ts.type) else "us"
        per_s = {"s": 1, "ms": 10**3, "us": 10**6, "ns": 10**9}[unit]
        ts_i = ts.cast(pa.int64()).to_numpy(zero_copy_only=False)
        codes = key_codes(t[key_col])
        n = len(ts_i)
        new_sess = np.ones(n, dtype=bool)
        new_sess[1:] = (codes[1:] != codes[:-1]) \
            | ((ts_i[1:] - ts_i[:-1]) > gap_s * per_s)
        starts = np.flatnonzero(new_sess)
        ends = np.append(starts[1:], n) if n else starts
        take_starts = pa.array(starts, type=pa.int64())
        return pa.table({
            key_col: t[key_col].combine_chunks().take(take_starts),
            "session_start": ts.take(take_starts),
            "session_end": ts.take(pa.array(ends - 1, type=pa.int64())),
            "n_events": pa.array(ends - starts, type=pa.int64()),
        })

    return by_key([ds], [key_col], sessions)


def _by_key_join(left_ds, right_ds, on, by, left_cols, right_cols,
                 suffix, right_on, merge):
    """Co-locate both sides of a join by time on ``by`` and run
    ``merge(lt, rt, codes, cols)`` per bucket. ``rt`` holds only the
    right rows with a non-NULL key (a NULL key never matches), its
    order column cast to the left ``on`` type under the name ``_on``;
    ``codes`` are the :func:`key_codes` of the left then the right
    keys; ``cols(li, ri)`` emits the output rows for left / right row
    indices (a NULL right index null-extends): left_cols with ``by``
    first and ``on`` last, then right_cols, renamed with ``suffix``
    where they collide."""
    left_cols = list(left_cols or [])
    right_cols = list(right_cols or [])
    if by not in left_cols:
        left_cols = [by] + left_cols
    if on not in left_cols:
        left_cols = left_cols + [on]
    r_out = {c: (c + suffix if c in left_cols else c) for c in right_cols}
    out_cols = left_cols + [r_out[c] for c in right_cols]
    r_on = right_on or on
    r_need = list(dict.fromkeys([by, r_on] + right_cols))

    def run(lt: pa.Table, rt: pa.Table) -> pa.Table:
        rt = rt.filter(pc.is_valid(rt[by]))
        rt = rt.append_column("_on", rt[r_on].cast(lt[on].type))
        lk = _plain(lt[by])
        codes = key_codes(pa.concat_arrays(
            [lk, _plain(rt[by]).cast(lk.type)]))

        def cols(li, ri) -> pa.Table:
            out = {c: lt[c].combine_chunks().take(li) for c in left_cols}
            for c in right_cols:
                out[r_out[c]] = rt[c].combine_chunks().take(ri)
            return pa.table({c: out[c] for c in out_cols})

        return merge(lt, rt, codes, cols)

    return by_key([left_ds, right_ds], [by], run,
                  maps=[lambda b: b.select(left_cols),
                        lambda b: b.select(r_need)])


def asof_join(left_ds, right_ds, on: str = "ts", by: str = "user_id",
              left_cols: list[str] | None = None,
              right_cols: list[str] | None = None,
              suffix: str = "_r", right_on: str | None = None,
              direction: str = "backward", strict: bool = False):
    """AS-OF join: attach to each left row the NEAREST right row
    within the same ``by`` key — ``direction="backward"`` (default)
    takes the latest right with ``right.on <= left.on``,
    ``direction="forward"`` the earliest right with ``right.on >=
    left.on``; ``strict=True`` excludes equal timestamps (< / >).
    Left rows with no match keep nulls (ASOF LEFT JOIN); a NULL key
    never matches. Stages both sides when called.

    Forward lowers onto the SAME vectorized merge by negating the
    int64 order key (nearest-following in real time = nearest-
    preceding in negated time); strict flips the tie order so an
    equal-timestamp right row sorts AFTER the left row and its carry
    is not yet visible — no second code path, no epsilon arithmetic.

    Both sides co-locate by key (``exchange.by_key``, the same
    co-partitioning the exchange join uses). Inside a bucket
    everything is one vectorized pass: lexsort by (key, ts, side)
    with right-before-left at ties, then a segment-reset running
    maximum carries each key's latest right row index forward onto
    the left rows — no per-key Python.

    ``right_cols`` columns are renamed with ``suffix`` when they
    collide with left columns. ``right_on`` names the right side's
    ordering column when it differs from ``on`` (e.g. an interval's
    start). Returns a Dataset of left_cols + matched right columns."""
    if direction not in ("backward", "forward"):
        raise ValueError(f"asof direction {direction!r}")

    def merge(lt: pa.Table, rt: pa.Table, codes, cols) -> pa.Table:
        nl = lt.num_rows
        ts_i = np.concatenate([_ints(lt[on]), _ints(rt["_on"])])
        if direction == "forward":
            ts_i = -ts_i  # nearest-following = nearest-preceding
            # in negated time (int64 min never appears in real data)
        side = np.zeros(len(ts_i), dtype=np.int8)  # 1 = left, 0 = right
        side[:nl] = 1
        n = len(ts_i)
        # non-strict: right (0) first at equal ts (its carry is
        # visible to the tied left row); strict: left first, so the
        # equal-ts right row is NOT yet carried
        tie = (1 - side) if strict else side
        order = np.lexsort((tie, ts_i, codes))
        s_key = codes[order]
        s_side = side[order]
        # running index of the latest right row, reset per key segment
        base = s_key * np.int64(n + 1)
        carry = np.where(s_side == 0,
                         np.arange(n, dtype=np.int64) + 1, 0)
        match_sorted = np.maximum.accumulate(base + carry) - base
        left_pos = np.flatnonzero(s_side == 1)
        lmatch = match_sorted[left_pos] - 1  # sorted-pos of right row
        has = lmatch >= 0  # else no right row yet in this key
        right_orig = np.zeros(len(left_pos), dtype=np.int64)
        right_orig[has] = order[lmatch[has]] - nl
        return cols(pa.array(order[left_pos], type=pa.int64()),
                    pa.array(right_orig, type=pa.int64(), mask=~has))

    return _by_key_join(left_ds, right_ds, on, by, left_cols, right_cols,
                        suffix, right_on, merge)


def range_join(left_ds, right_ds, on: str = "ts",
               lo_col: str = "session_start", hi_col: str = "session_end",
               by: str = "user_id", left_cols: list[str] | None = None,
               right_cols: list[str] | None = None):
    """Interval-containment join: attach to each left row the right
    interval (per ``by`` key) with ``lo <= left.on <= hi``; left rows
    inside no interval, or with a NULL key, are dropped (inner
    semantics). Stages both sides when called.

    Partitioning assumption (documented per the custom-operator
    contract): intervals are NON-OVERLAPPING per key — then the
    containing interval is exactly the as-of match on the interval
    start, post-filtered by ``hi >= on``. Session/tumbling windows
    satisfy this by construction; for OVERLAPPING intervals use
    :func:`interval_join` (one row per containing interval). One
    key co-location, vectorized merge (see asof_join)."""
    rc = [lo_col, hi_col] + [c for c in (right_cols or [])
                             if c not in (lo_col, hi_col)]
    out = asof_join(left_ds, right_ds, on=on, by=by, left_cols=left_cols,
                    right_cols=rc, right_on=lo_col)

    def inside(batch: pa.Table) -> pa.Table:
        hi = batch[hi_col]
        keep = pc.and_kleene(pc.is_valid(hi),
                             pc.greater_equal(hi.cast(batch[on].type),
                                              batch[on]))
        return batch.filter(pc.fill_null(keep, False))

    return out.map_batches(inside, batch_format="pyarrow")


def interval_join(left_ds, right_ds, on: str = "ts",
                  lo_col: str = "w_start", hi_col: str = "w_end",
                  by: str = "user_id", left_cols: list[str] | None = None,
                  right_cols: list[str] | None = None, suffix: str = "_r"):
    """Interval join with OVERLAPPING intervals: one output row per
    (left row, containing interval) pair — ``lo <= left.on <= hi``
    within the same ``by`` key (inner semantics, a NULL key never
    matches; the general case range_join's non-overlap assumption
    excludes). Stages both sides when called.

    Scale shape: the same key co-location as asof_join, then one
    fully vectorized stabbing pass per bucket — no per-key Python and
    no interval tree:

    - right rows sort by (key, lo); per key segment the max interval
      LENGTH bounds how far left of ``t`` a containing interval can
      start (the banded range-join trick);
    - candidate windows come from two ``np.searchsorted`` calls over a
      rank-composite (key * (n+1) + rank-of-value) that makes the
      per-key segments globally ordered — equal values keep equal
      ranks, so the bounds are exact;
    - candidates expand with repeat/arange and filter on ``hi >= t``.

    Cost is O(output + n log n) per bucket; a single giant interval in
    a key widens that key's candidate band (documented skew caveat).
    Returns a Dataset of left_cols + matched right columns."""
    rc = [lo_col, hi_col] + [c for c in (right_cols or [])
                             if c not in (lo_col, hi_col)]

    def merge(lt: pa.Table, rt: pa.Table, codes, cols) -> pa.Table:
        nl, nr = lt.num_rows, rt.num_rows
        if nl == 0 or nr == 0:
            none = pa.array([], type=pa.int64())
            return cols(none, none)
        lk, rk = codes[:nl], codes[nl:]
        lv, rlo = _ints(lt[on]), _ints(rt["_on"])
        hi_r = pc.fill_null(_plain(rt[hi_col]).cast(pa.int64()), 0) \
            .to_numpy(zero_copy_only=False)
        r_ord = np.lexsort((rlo, rk))
        rk_s, rlo_s = rk[r_ord], rlo[r_ord]
        rlen_s = hi_r[r_ord] - rlo_s
        seg_starts = np.concatenate(
            [[0], np.flatnonzero(np.diff(rk_s)) + 1])
        seg_keys = rk_s[seg_starts]
        seg_maxlen = np.maximum.reduceat(rlen_s, seg_starts)

        # rank-composite: equal values share a rank, so per-key
        # searchsorted bounds are exact across the whole bucket
        sv = np.sort(np.concatenate([lv, rlo]))
        B = np.int64(nl + nr + 1)
        comp_right = rk_s * B + np.searchsorted(sv, rlo_s, side="left")

        pos = np.searchsorted(seg_keys, lk)
        valid = pos < len(seg_keys)
        pos_c = np.minimum(pos, len(seg_keys) - 1)
        valid &= seg_keys[pos_c] == lk
        # upper bound: right rows with lo <= t in this key
        j_hi = np.searchsorted(
            comp_right, lk * B + np.searchsorted(sv, lv, side="left"),
            side="right")
        # lower bound: lo >= t - maxlen(key), clamped to the segment
        tl = lv - seg_maxlen[pos_c]
        j_lo = np.searchsorted(
            comp_right, lk * B + np.searchsorted(sv, tl, side="left"),
            side="left")
        j_lo = np.maximum(j_lo, seg_starts[pos_c])
        cnt = np.where(valid, np.maximum(j_hi - j_lo, 0), 0)
        total = int(cnt.sum())
        lrow = np.repeat(np.arange(nl, dtype=np.int64), cnt)
        offs = np.concatenate([[0], np.cumsum(cnt[:-1])]).astype(np.int64)
        cand_pos = (np.arange(total, dtype=np.int64)
                    - np.repeat(offs, cnt) + np.repeat(j_lo, cnt))
        cand_r = r_ord[cand_pos]
        keep = hi_r[cand_r] >= lv[lrow]
        return cols(pa.array(lrow[keep], type=pa.int64()),
                    pa.array(cand_r[keep], type=pa.int64()))

    return _by_key_join(left_ds, right_ds, on, by, left_cols, rc, suffix,
                        lo_col, merge)


def sliding_windows(ds, ts_col: str = "ts", width_s: float = 3600.0,
                    hop_s: float = 1800.0, keep: list[str] | None = None):
    """Assign each row to every sliding (hopping) window containing its
    timestamp: width ``width_s``, hop ``hop_s`` (width must be an
    integer multiple of the hop). Flat-map shaped: one output row per
    (row, window) — width/hop windows per row — with a ``w`` window
    start column; aggregate downstream with ``groupby([... , "w"])``.
    Stays vectorized (arrow temporal kernels + table concat)."""
    n_hops = int(round(width_s / hop_s))
    if abs(n_hops * hop_s - width_s) > 1e-9 or n_hops < 1:
        raise ValueError("width_s must be a positive multiple of hop_s")
    hop_us = int(hop_s * 1_000_000)
    hop = pa.scalar(hop_us, type=pa.duration("us"))

    def assign(batch: pa.Table) -> pa.Table:
        base_cols = keep or [c for c in batch.column_names if c != ts_col]
        # floor_temporal is hour-anchored: only safe when the hop
        # divides an hour (30/20/15/... min). Other hops fall through
        # to the epoch-anchored integer floor below (the origin for
        # those is epoch 1970-01-01, documented behavior).
        if hop_s % 60 == 0 and 3600 % int(hop_s) == 0:
            w0 = pc.floor_temporal(batch[ts_col], multiple=int(hop_s // 60),
                                   unit="minute")
        else:
            # epoch-anchored floor; numpy // floors toward -inf so
            # pre-1970 (negative) timestamps land in the right window
            us = batch[ts_col].cast(pa.int64()).combine_chunks()
            us_np = us.to_numpy(zero_copy_only=False)
            w0 = pa.chunked_array(
                [pa.array((us_np // hop_us) * hop_us)]
            ).cast(batch[ts_col].type)
        base = batch.select(base_cols)
        outs = []
        w = w0
        for _ in range(n_hops):
            outs.append(base.append_column("w", w))
            w = pc.subtract(w, hop)
        return pa.concat_tables(outs)

    return ds.map_batches(assign, batch_format="pyarrow")


def ranked_gaps(ds, key_col: str = "user_id", ts_col: str = "ts",
                tie_col: str | None = None, keep: list[str] | None = None):
    """Per-key window functions without per-key Python: ROW_NUMBER()
    OVER (PARTITION BY key ORDER BY ts[, tie]) and the LAG gap to the
    previous row's ts (null on each key's first row), the two
    primitives sessionization/feature pipelines reach for first.
    Stages ``ds`` when called.

    Scale shape (same as session_windows): rows co-locate by key
    (``exchange.by_key``); inside a bucket one arrow sort + segment
    arithmetic computes every key's ranks and gaps at once — Python
    cost is O(buckets), not O(keys). ``tie_col`` makes the in-key
    order (and thus ranks) deterministic under ts ties. Returns keep
    + rn (int64, 1-based) + gap_us (int64 epoch microseconds, null at
    key starts)."""
    if keep is None:
        keep = [key_col, ts_col]
    out_cols = list(keep) + ["rn", "gap_us"]

    def rank(t: pa.Table) -> pa.Table:
        t, new_key, starts, lens = _key_segments(t, key_col, ts_col,
                                                 tie_col)
        n = t.num_rows
        ts_i = _ints(t[ts_col])
        rn = np.arange(n, dtype=np.int64) - np.repeat(starts, lens) + 1
        gap = np.zeros(n, dtype=np.int64)
        gap[1:] = ts_i[1:] - ts_i[:-1]
        cols = {c: t[c] for c in keep}
        cols["rn"] = pa.array(rn)
        # LAG over each key's first row is null
        cols["gap_us"] = pa.array(gap, mask=new_key)
        return pa.table({c: cols[c] for c in out_cols})

    return by_key([ds], [key_col], rank)


def _key_segments(t: pa.Table, key_col: str, ts_col: str,
                  tie_col: str | None):
    """``t`` sorted by (key, ts[, tie]), the key-start mask, and each
    key segment's start and length."""
    sort_keys = [(key_col, "ascending"), (ts_col, "ascending")]
    if tie_col is not None:
        sort_keys.append((tie_col, "ascending"))
    t = t.take(pc.sort_indices(t, sort_keys=sort_keys))
    codes = key_codes(t[key_col])
    n = len(codes)
    new_key = np.ones(n, dtype=bool)
    new_key[1:] = codes[1:] != codes[:-1]
    starts = np.flatnonzero(new_key)
    return t, new_key, starts, np.diff(np.append(starts, n))


def frame_aggs(ds, key_col: str = "user_id", ts_col: str = "ts",
               val_col: str = "value", tie_col: str | None = None,
               keep: list[str] | None = None, window: int = 4):
    """Per-key window FRAME aggregates, vectorized: running_sum (SUM
    OVER ... ROWS UNBOUNDED PRECEDING) and moving_avg (AVG OVER the
    last ``window`` rows incl. current) for each row, ordered by
    (ts[, tie]) within the key. Stages ``ds`` when called.

    Same scale shape as ranked_gaps: rows co-locate by key, then ONE
    pass per bucket — key-segment cumulative sums with segment reset,
    and the moving window from cumsum differences clamped at segment
    starts. Python cost O(buckets)."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if keep is None:
        keep = [key_col, ts_col, val_col]
    out_cols = list(keep) + ["running_sum", "moving_avg"]

    def frames(t: pa.Table) -> pa.Table:
        t, _, starts, lens = _key_segments(t, key_col, ts_col, tie_col)
        v = t[val_col].combine_chunks().cast(pa.float64()) \
            .to_numpy(zero_copy_only=False)
        n = len(v)
        seg_start = np.repeat(starts, lens)  # each row's segment start
        # prefix[i] = sum of v[:i]; per-key running sum by subtracting
        # the prefix at the segment start
        prefix = np.concatenate([[0.0], np.cumsum(v)])
        running = prefix[1:] - prefix[seg_start]
        # moving window of the last `window` rows, clamped to the
        # segment start
        idx = np.arange(n, dtype=np.int64)
        w_lo = np.maximum(idx - window + 1, seg_start)
        w_n = idx - w_lo + 1
        moving = (prefix[idx + 1] - prefix[w_lo]) / w_n
        cols = {c: t[c] for c in keep}
        cols["running_sum"] = pa.array(running, type=pa.float64())
        cols["moving_avg"] = pa.array(moving, type=pa.float64())
        return pa.table({c: cols[c] for c in out_cols})

    return by_key([ds], [key_col], frames)
