"""The objects sink's layout: one ``ray.put`` per split, each bucket a
``(ref, lo, hi)`` row range of it; the encode consumer's one-sort
partition order; and what a consumer sees when a split's object is
lost before the barrier is consumed."""

import os
import signal
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest


def _fragments(kind: str, n: int):
    """n rows as a table, or as the (src, dst) numpy tuple that
    components.py routes: the ``take`` that builds a fragment, a
    fragment's rows as tuples, and the tuples of all n rows."""
    v = np.arange(n, dtype=np.int64) * 10
    w = v + 1
    if kind == "table":
        t = pa.table({"v": v, "w": w})

        def take(idx):
            return t.take(pa.array(idx, type=pa.int64()))

        def rows(f):
            return list(zip(f["v"].to_pylist(), f["w"].to_pylist()))
    else:
        def take(idx):
            return v[idx], w[idx]

        def rows(f):
            return list(zip(f[0].tolist(), f[1].tolist()))
    return take, rows, list(zip(v.tolist(), w.tolist()))


@pytest.mark.parametrize("kind", ["table", "numpy"])
@pytest.mark.parametrize("buckets,n_buckets", [
    ([], 4),                               # zero rows
    ([2] * 7, 4),                          # every row in one bucket
    ([3, 0, 1], 8),                        # more buckets than rows
    ([1, 0, 1, 2, 0, 1, 3, 3, 0, 2], 5),   # interleaved, one bucket empty
], ids=["empty", "one_bucket", "sparse", "interleaved"])
def test_put_buckets_fetch(ray_session, monkeypatch, kind, buckets,
                           n_buckets):
    import ray

    from arcade_ray.exchange import fetch, put_buckets

    puts = []
    real_put = ray.put
    monkeypatch.setattr(ray, "put",
                        lambda obj: puts.append(1) or real_put(obj))
    take, rows_of, all_rows = _fragments(kind, len(buckets))
    b = np.array(buckets, dtype=np.int64)
    handles = put_buckets(b, n_buckets, take)

    assert len(handles) == n_buckets
    assert len(puts) == (1 if len(b) else 0)
    live = [h for h in handles if h is not None]
    assert len({h[0] for h in live}) == len(puts)  # one shared object
    for bk, h in enumerate(handles):
        routed = [all_rows[i] for i in np.flatnonzero(b == bk)]
        if not routed:
            assert h is None
            continue
        (frag,) = fetch([h])
        assert rows_of(frag) == routed  # its rows, in input order


def test_fetch_slices_several_splits(ray_session):
    """A bucket with rows in several split objects reads each split's
    range of it, in handle order."""
    from arcade_ray.exchange import fetch, put_buckets, read

    t = pa.table({"v": pa.array(range(12), pa.int64())})
    a = put_buckets(np.arange(6) % 3, 3, lambda i: t.slice(0, 6).take(i))
    b = put_buckets(np.arange(6) % 2, 3, lambda i: t.slice(6, 6).take(i))
    parts = [[h for h in (a[k], b[k]) if h is not None] for k in range(3)]
    assert [f["v"].to_pylist() for f in fetch(parts[0])] == \
        [[0, 3], [6, 8, 10]]
    assert read(parts[1])["v"].to_pylist() == [1, 4, 7, 9, 11]
    assert read(parts[2])["v"].to_pylist() == [2, 5]


def _two_take(table: pa.Table, sort_by: str) -> list[pa.Table]:
    """The consumer's former order: take each partition's rows in
    input order, then a stable sort of that partition by ``sort_by``."""
    pids = table["_pid"].to_numpy()
    out = []
    for pid in np.unique(pids):
        part = table.take(pa.array(np.flatnonzero(pids == pid)))
        part = part.drop_columns(["_pid"])
        out.append(part.take(pc.sort_indices(part[sort_by])))
    return out


def test_encode_bucket_partition_order(monkeypatch, tmp_path):
    """One (pid, sort_by) sort over the bucket gives every partition
    the rows, in the order, of the per-partition take-then-sort, with
    duplicate and null sort keys (nulls last, ties in input order)."""
    import arcade_ray.pipeline.encode as enc

    table = pa.table({
        "_pid": pa.array([2, 0, 5, 2, 0, 5, 2, 0, 5, 0, 2, 5], pa.int64()),
        "k": pa.array([3, None, 1, 3, 7, None, None, 7, 1, 2, 1, None],
                      pa.int64()),
        "row": pa.array(range(12), pa.int64()),
    })
    seen = {}

    def capture(part, key):
        seen[key] = part
        return b"", {}

    monkeypatch.setattr(enc, "encode_partition", capture)
    monkeypatch.setattr(enc, "commit_partition",
                        lambda out_dir, key, blob, row: row)
    keys = [f"p{i}" for i in range(6)]
    enc._encode_bucket(keys, str(tmp_path), "k", "", 0, table)

    want = _two_take(table, "k")
    assert list(seen) == ["p0", "p2", "p5"]
    for got, exp in zip(seen.values(), want):
        assert got.equals(exp), (got.to_pydict(), exp.to_pydict())
    assert seen["p0"]["row"].to_pylist() == [9, 4, 7, 1]
    assert seen["p5"]["row"].to_pylist() == [2, 8, 5, 11]


def _wait_dead(pid: int, timeout: float = 30.0) -> None:
    deadline = time.time() + timeout
    while time.time() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.1)
    raise AssertionError(f"worker {pid} still alive")


def test_objects_sink_lost_owner_fails_consume(ray_session):
    """A split worker owns the one object its rows for every bucket
    live in. SIGKILL it after the stage and before the consume: the
    consume must raise Ray's owner-died error (an object-lost error)
    and never hand a bucket a table that misses that split's rows.
    Ray learns of the death asynchronously, so until it does a consume
    may still read the intact object; such a result must be whole."""
    import ray

    from arcade_ray.exchange import consume, stage

    n_splits, rows, n_buckets = 3, 40, 4

    def route(i):
        t = pa.table({"x": pa.array(range(i * rows, (i + 1) * rows),
                                    pa.int64())})
        return t, np.arange(rows) % n_buckets, os.getpid()

    staged = stage(route, range(n_splits), n_buckets, "objects", "kill")
    victim = staged.info[0]
    assert victim != os.getpid()
    os.kill(victim, signal.SIGKILL)
    _wait_dead(victim)

    whole = [n_splits * rows // n_buckets] * n_buckets
    deadline = time.time() + 60
    with pytest.raises(ray.exceptions.ObjectLostError):
        while time.time() < deadline:
            got = consume(lambda b, t: t.num_rows, [staged], staged.live())
            assert got == whole
            time.sleep(0.2)
