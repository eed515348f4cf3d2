"""Windows and interval/as-of joins."""

import numpy as np
import pyarrow as pa


def test_sliding_windows_assignment(ray_session):
    import datetime

    import pyarrow as pa
    import ray.data as rd

    from arcade_ray.windows import sliding_windows

    ts = [datetime.datetime(2025, 1, 1, 10, 17), datetime.datetime(2025, 1, 1, 10, 47)]
    tab = pa.table({"ts": pa.array(ts, type=pa.timestamp("us")),
                    "v": pa.array([1, 2], type=pa.int64())})
    out = sliding_windows(rd.from_arrow(tab), width_s=3600, hop_s=1800).to_pandas()
    # each event in exactly 2 windows
    assert len(out) == 4
    got = sorted((r.v, str(r.w)) for r in out.itertuples())
    assert got == [
        (1, "2025-01-01 09:30:00"), (1, "2025-01-01 10:00:00"),
        (2, "2025-01-01 10:00:00"), (2, "2025-01-01 10:30:00"),
    ]


def test_asof_join_matches_pandas(ray_session):
    """Backward as-of join per key vs pandas merge_asof (the oracle
    shape DuckDB's ASOF JOIN also implements)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from arcade_ray.windows import asof_join

    rng = np.random.default_rng(13)
    n_l, n_r = 600, 400
    left = pd.DataFrame({
        "user_id": rng.integers(0, 12, n_l),
        "ts": pd.to_datetime(rng.integers(0, 10_000, n_l), unit="s"),
        "lval": np.arange(n_l, dtype=np.int64),
    })
    right = pd.DataFrame({
        "user_id": rng.integers(0, 12, n_r),
        "ts": pd.to_datetime(rng.integers(0, 10_000, n_r), unit="s"),
        "rval": np.arange(n_r, dtype=np.float64),
    })
    # merge_asof requires globally sorted on; dedupe (user, ts) on the
    # right so "latest at equal ts" has a unique answer
    right = right.drop_duplicates(["user_id", "ts"])
    out = asof_join(
        rd.from_arrow(pa.Table.from_pandas(left)),
        rd.from_arrow(pa.Table.from_pandas(right)),
        on="ts", by="user_id", left_cols=["lval"], right_cols=["rval", "ts"],
    ).to_pandas()
    exp = pd.merge_asof(left.sort_values("ts"), right.sort_values("ts"),
                        on="ts", by="user_id", direction="backward",
                        suffixes=("", "_r"))
    got = out.sort_values("lval").reset_index(drop=True)
    exp = exp.sort_values("lval").reset_index(drop=True)
    assert len(got) == len(exp) == n_l
    assert got["rval"].fillna(-1).tolist() == exp["rval"].fillna(-1).tolist()
    # matched right timestamp must be <= left ts
    m = got["ts_r"].notna()
    assert (got.loc[m, "ts_r"] <= got.loc[m, "ts"]).all()


def test_range_join_containment(ray_session):
    """Interval-containment join vs a pandas recompute; intervals
    non-overlapping per key (the documented partitioning assumption)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from arcade_ray.windows import range_join

    rng = np.random.default_rng(7)
    ivs = []
    for u in range(6):
        t = 0
        for _ in range(5):
            lo = t + int(rng.integers(1, 50))
            hi = lo + int(rng.integers(1, 30))
            ivs.append((u, lo, hi))
            t = hi
    right = pd.DataFrame(ivs, columns=["user_id", "lo", "hi"])
    left = pd.DataFrame({
        "user_id": rng.integers(0, 6, 500),
        "ts": rng.integers(0, 500, 500),
        "eid": np.arange(500, dtype=np.int64),
    })
    out = range_join(
        rd.from_arrow(pa.Table.from_pandas(left)),
        rd.from_arrow(pa.Table.from_pandas(right)),
        on="ts", lo_col="lo", hi_col="hi", by="user_id",
        left_cols=["eid"],
    ).to_pandas()
    exp = left.merge(right, on="user_id")
    exp = exp[(exp["ts"] >= exp["lo"]) & (exp["ts"] <= exp["hi"])]
    assert len(out) == len(exp)
    got = set(zip(out["eid"], out["lo"]))
    want = set(zip(exp["eid"], exp["lo"]))
    assert got == want


def test_interval_join_overlapping_matches_bruteforce(ray_session):
    """Overlapping-interval join (one row per containing interval) vs
    a brute-force pandas cross-join — the case range_join's
    non-overlap assumption excludes."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from arcade_ray.windows import interval_join

    rng = np.random.default_rng(29)
    n_l, n_r = 500, 300
    left = pd.DataFrame({
        "user_id": rng.integers(0, 10, n_l),
        "ts": rng.integers(0, 10_000, n_l).astype(np.int64),
        "lval": np.arange(n_l, dtype=np.int64),
    })
    starts = rng.integers(0, 10_000, n_r).astype(np.int64)
    lens = rng.integers(0, 2_000, n_r).astype(np.int64)  # heavy overlap
    right = pd.DataFrame({
        "user_id": rng.integers(0, 10, n_r),
        "lo": starts,
        "hi": starts + lens,
        "rval": np.arange(n_r, dtype=np.int64),
    })
    out = interval_join(
        rd.from_arrow(pa.Table.from_pandas(left)),
        rd.from_arrow(pa.Table.from_pandas(right)),
        on="ts", lo_col="lo", hi_col="hi", by="user_id",
        left_cols=["lval"], right_cols=["rval"],
    ).to_pandas()
    exp = left.merge(right, on="user_id")
    exp = exp[(exp.lo <= exp.ts) & (exp.ts <= exp.hi)]
    assert len(out) == len(exp)
    got_pairs = set(zip(out.lval, out.rval))
    exp_pairs = set(zip(exp.lval, exp.rval))
    assert got_pairs == exp_pairs
    assert ((out.lo <= out.ts) & (out.ts <= out.hi)).all()


def test_interval_join_giant_interval_and_empty_sides(ray_session):
    """A single whole-range interval (worst-case candidate band) still
    yields exact results; empty left/right produce empty output."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from arcade_ray.windows import interval_join

    left = pd.DataFrame({"user_id": [1, 1, 2], "ts": [5, 500, 7],
                         "lval": [0, 1, 2]})
    right = pd.DataFrame({"user_id": [1, 1], "lo": [0, 499],
                          "hi": [10_000, 501], "rval": [0, 1]})
    out = interval_join(
        rd.from_arrow(pa.Table.from_pandas(left)),
        rd.from_arrow(pa.Table.from_pandas(right)),
        on="ts", lo_col="lo", hi_col="hi", by="user_id",
        left_cols=["lval"], right_cols=["rval"],
    ).to_pandas()
    pairs = set(zip(out.lval, out.rval))
    assert pairs == {(0, 0), (1, 0), (1, 1)}  # user 2 matches nothing
    none = interval_join(
        rd.from_arrow(pa.Table.from_pandas(left)),
        rd.from_arrow(pa.Table.from_pandas(right.iloc[0:0])),
        on="ts", lo_col="lo", hi_col="hi", by="user_id",
        left_cols=["lval"], right_cols=["rval"],
    ).to_pandas()
    assert len(none) == 0


def test_ranked_gaps_vs_pandas(ray_session):
    """ROW_NUMBER + LAG gap per key vs a pandas groupby oracle,
    including ts ties broken by the tie column."""
    import ray.data as rd

    from arcade_ray.collect import collect_arrow
    from arcade_ray.windows import ranked_gaps

    rng = np.random.default_rng(7)
    n = 4000
    users = rng.integers(0, 60, n)
    base = np.datetime64("2024-01-01", "us")
    ts = base + rng.integers(0, 10_000, n).astype("timedelta64[s]")  # ties
    t = pa.table({
        "event_id": pa.array(np.arange(n), type=pa.int64()),
        "user_id": pa.array([f"u{u}" for u in users]),
        "ts": pa.array(ts),
    })
    out = collect_arrow(ranked_gaps(
        rd.from_arrow(t), key_col="user_id", ts_col="ts",
        tie_col="event_id", keep=["event_id", "user_id", "ts"],
    )).to_pandas().sort_values("event_id", ignore_index=True)

    df = t.to_pandas().sort_values(["user_id", "ts", "event_id"],
                                   ignore_index=True)
    df["rn"] = df.groupby("user_id").cumcount() + 1
    prev = df.groupby("user_id")["ts"].shift()
    df["gap_us"] = (df["ts"] - prev).dt.total_seconds() * 1e6
    exp = df.sort_values("event_id", ignore_index=True)
    assert out["rn"].tolist() == exp["rn"].tolist()
    got_gap = out["gap_us"].astype("float64")
    assert ((got_gap.isna() == exp["gap_us"].isna()).all()
            and np.allclose(got_gap.dropna(), exp["gap_us"].dropna()))


def test_frame_aggs_vs_pandas(ray_session):
    """Running sum + moving average per key vs pandas rolling/cumsum."""
    import ray.data as rd

    from arcade_ray.collect import collect_arrow
    from arcade_ray.windows import frame_aggs

    rng = np.random.default_rng(13)
    n = 3000
    t = pa.table({
        "event_id": pa.array(np.arange(n), type=pa.int64()),
        "user_id": pa.array([f"u{u}" for u in rng.integers(0, 40, n)]),
        "ts": pa.array(np.datetime64("2024-01-01", "us")
                       + rng.integers(0, 5_000, n).astype("timedelta64[s]")),
        "value": pa.array(rng.standard_normal(n) * 10),
    })
    out = collect_arrow(frame_aggs(
        rd.from_arrow(t), key_col="user_id", ts_col="ts",
        val_col="value", tie_col="event_id",
        keep=["event_id", "user_id", "value"], window=3,
    )).to_pandas().sort_values("event_id", ignore_index=True)
    df = t.to_pandas().sort_values(["user_id", "ts", "event_id"],
                                   ignore_index=True)
    g = df.groupby("user_id")["value"]
    df["running_sum"] = g.cumsum()
    df["moving_avg"] = g.rolling(3, min_periods=1).mean() \
        .reset_index(level=0, drop=True)
    exp = df.sort_values("event_id", ignore_index=True)
    assert np.allclose(out["running_sum"], exp["running_sum"])
    assert np.allclose(out["moving_avg"], exp["moving_avg"])
