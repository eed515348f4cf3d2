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


def _encode_bucket(monkeypatch, tmp_path, table, sort_by):
    """Run the encode consumer over one bucket's ``table``: the
    partitions it encodes, by key, and how many row gathers it ran."""
    import arcade_ray.pipeline.encode as enc

    seen, gathers = {}, []

    def capture(part, key):
        seen[key] = part
        return b"", {}

    def gather(t, idx):
        gathers.append(len(idx))
        return real_gather(t, idx)

    real_gather = enc.take_rows
    monkeypatch.setattr(enc, "encode_partition", capture)
    monkeypatch.setattr(enc, "commit_partition",
                        lambda out_dir, key, blob, row: row)
    monkeypatch.setattr(enc, "take_rows", gather)
    keys = [f"p{i}" for i in range(8)]
    enc._encode_bucket(keys, str(tmp_path), sort_by, "", 0, table)
    return seen, gathers


def _check_partitions(seen, table, sort_by):
    want = _two_take(table, sort_by)
    assert list(seen) == [f"p{p}" for p in
                          np.unique(table["_pid"].to_numpy())]
    for got, exp in zip(seen.values(), want):
        assert got.schema == exp.schema
        # repr: NaN keys compare equal, and the row order is checked
        assert repr(got.to_pylist()) == repr(exp.to_pylist())


def _lists(lens, seed):
    rng = np.random.default_rng(seed)
    offs = np.concatenate([[0], np.cumsum(lens)])
    return pa.ListArray.from_arrays(
        pa.array(offs, pa.int32()),
        pa.array(rng.integers(-2**31, 2**31, int(offs[-1])), pa.int32()))


def test_encode_bucket_partition_order(monkeypatch, tmp_path):
    """One (pid, sort_by) sort over the bucket gives every partition
    the rows, in the order, of the per-partition take-then-sort, with
    duplicate and null sort keys (nulls last, ties in input order)."""
    table = pa.table({
        "_pid": pa.array([2, 0, 5, 2, 0, 5, 2, 0, 5, 0, 2, 5], pa.int64()),
        "k": pa.array([3, None, 1, 3, 7, None, None, 7, 1, 2, 1, None],
                      pa.int64()),
        "row": pa.array(range(12), pa.int64()),
    })
    seen, gathers = _encode_bucket(monkeypatch, tmp_path, table, "k")
    _check_partitions(seen, table, "k")
    assert gathers == [12]
    assert seen["p0"]["row"].to_pylist() == [9, 4, 7, 1]
    assert seen["p5"]["row"].to_pylist() == [2, 8, 5, 11]


def test_encode_bucket_list_column(monkeypatch, tmp_path):
    """A ``list<int32>`` column (empty lists included) moves with its
    rows through the list gather."""
    lens = [3, 0, 5, 1, 0, 2, 7, 4, 0, 6]
    table = pa.table({
        "_pid": pa.array([1, 0, 1, 0, 1, 0, 1, 0, 1, 0], pa.int64()),
        "k": pa.array(["j", "b", "a", "x", "a", "c", "z", "a", "m", "b"]),
        "tokens": _lists(lens, 1),
    })
    seen, gathers = _encode_bucket(monkeypatch, tmp_path, table, "k")
    _check_partitions(seen, table, "k")
    assert gathers == [10]


@pytest.mark.parametrize("k", [
    pa.array(["a", "b", "b", "c", "a", "a", "d"]),         # strings, ties
    pa.array([1, 1, 5, 9, -3, 0, 2], pa.int64()),
    pa.array([0.5, 1.0, 2.0, float("nan"), -1.0, 0.0, 3.0]),  # NaN last
    pa.array([1, 2, 3, None, 4, 5, None], pa.int64()),      # nulls last
], ids=["string", "int", "float_nan", "int_nulls"])
def test_encode_bucket_in_order_skips_gather(monkeypatch, tmp_path, k):
    """A bucket whose rows already arrive in (pid, sort_by) order is
    checked, found in order and encoded as it came: no gather runs."""
    table = pa.table({
        "_pid": pa.array([0, 0, 0, 0, 3, 3, 3], pa.int64()),
        "k": k,
        "tokens": _lists([2, 0, 4, 1, 3, 0, 5], 2),
    })
    seen, gathers = _encode_bucket(monkeypatch, tmp_path, table, "k")
    _check_partitions(seen, table, "k")
    assert gathers == []


@pytest.mark.parametrize("k", [
    pa.array([1, 0, 2, 3, 4, 5, 6, 7], pa.int64()),          # one swap
    pa.array([0.0, float("nan"), 1.0, 2, 3, 4, 5, 6]),       # NaN early
    pa.array([None, 1, 2, 3, 4, 5, 6, 7], pa.int64()),       # null early
], ids=["int", "float_nan", "int_null"])
def test_encode_bucket_one_row_out_of_order(monkeypatch, tmp_path, k):
    """One row out of order in a single-pid bucket is found, and the
    bucket is gathered into order."""
    table = pa.table({"_pid": pa.array([4] * 8, pa.int64()), "k": k,
                      "tokens": _lists([1, 2, 0, 3, 1, 0, 2, 2], 3)})
    seen, gathers = _encode_bucket(monkeypatch, tmp_path, table, "k")
    _check_partitions(seen, table, "k")
    assert gathers == [8]


def test_encode_bucket_interleaved_pids(monkeypatch, tmp_path):
    """A bucket of several pids whose rows interleave, each pid's rows
    in sort order already: still one gather, into pid runs."""
    rng = np.random.default_rng(5)
    pids = rng.integers(0, 6, 400)
    k = np.empty(400, dtype=np.int64)
    for p in range(6):
        at = np.flatnonzero(pids == p)
        k[at] = np.sort(rng.integers(0, 50, len(at)))  # ties included
    table = pa.table({
        "_pid": pa.array(pids, pa.int64()),
        "k": pa.array(k),
        "tokens": _lists(rng.integers(0, 20, 400), 4),
        "doc": pa.array([f"d{i}" for i in range(400)]),
    })
    seen, gathers = _encode_bucket(monkeypatch, tmp_path, table, "k")
    _check_partitions(seen, table, "k")
    assert gathers == [400]


def test_raw_bytes_independent_of_row_movement():
    """A partition's ``raw_bytes`` is a function of its values: the
    same with or without validity bitmaps, over any chunking or slice,
    and equal to ``nbytes`` of the one-chunk table Arrow's take lays
    out (every array with a bitmap)."""
    from arcade_ray.format import _arrow_bytes

    lens = [3, 0, 5, 1, 0, 2, 7, 4, 0, 6, 2, 1]
    t = pa.table({
        "i": pa.array(range(12), pa.int32()),
        "f": pa.array(np.linspace(0, 1, 12)),
        "s": pa.array([f"v{i * i}" for i in range(12)]),
        "ls": pa.array([f"w{i}" for i in range(12)], pa.large_string()),
        "tokens": _lists(lens, 1),
        "big": pa.array([[i] * (i % 3) for i in range(12)],
                        pa.large_list(pa.int64())),
    })

    def raw(tab):
        return sum(_arrow_bytes(c) for c in tab.columns)

    chunked = pa.concat_tables([t.slice(0, 5), t.slice(5)])
    taken = t.take(pa.array(range(12)))
    assert taken["i"].chunk(0).buffers()[0] is not None
    assert raw(t) == raw(chunked) == raw(taken) == taken.nbytes
    for lo, n in [(0, 8), (8, 4), (3, 6), (5, 0)]:
        fresh = t.slice(lo, n).take(pa.array(range(n), pa.int64()))
        assert raw(t.slice(lo, n)) == raw(chunked.slice(lo, n)) \
            == raw(taken.slice(lo, n)) == fresh.nbytes


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


def test_layout_independent_of_fan_out(ray_session, tmp_path, monkeypatch):
    """The same parquet input encodes to the same manifest rows (all
    but ``path`` and ``encode_s``: part keys, crc32s, sizes including
    ``raw_bytes``, zone maps) with 1 encode bucket or 16, and with 1
    split or 12: one bucket interleaves every partition's rows (the
    consumer gathers them into order), 16 give most partitions a bucket
    of their own (their rows arrive in order, and no gather runs)."""
    import pyarrow.parquet as pq

    import arcade_ray.pipeline.encode as enc
    from arcade_ray.corpus import generate_corpus

    table = generate_corpus(3000, 6, seed=31)
    src = tmp_path / "in"
    src.mkdir()
    for i in range(3):
        pq.write_table(table.slice(i * 1000, 1000),
                       str(src / f"part-{i}.parquet"), row_group_size=200)
    real_lpt, real_group = enc._lpt_buckets, enc._group

    def layout(n_buckets: int, n_splits: int) -> list:
        monkeypatch.setattr(enc, "_lpt_buckets",
                            lambda w, n: real_lpt(w, n_buckets))
        monkeypatch.setattr(enc, "_group",
                            lambda items, n: real_group(items, n_splits))
        m = enc.encode_parquet(str(src), str(tmp_path / f"{n_buckets}x"
                                             f"{n_splits}"),
                               weight_cap=50_000)
        rows = m.drop_columns(["path", "encode_s"]).to_pylist()
        return sorted(tuple(map(str, r.values())) for r in rows)

    base = layout(16, 12)
    assert len(base) > 6  # sources hash-split into several partitions
    assert layout(1, 12) == base
    assert layout(16, 1) == base
    assert layout(1, 1) == base


# where a table may be reordered in the exchange and the encode consumer
GATHER_FILES = ("arcade_ray/exchange.py", "arcade_ray/pipeline/encode.py")
GATHER_HELPER = ("arcade_ray/exchange.py", "take_rows")


def test_row_gather_guard():
    """``exchange.py`` and ``pipeline/encode.py`` reorder rows only
    through ``exchange.take_rows``, so every split fragment and every
    consumer reorder moves list columns by the span gather: no other
    function there calls a ``take`` or ``sort_by``."""
    import ast
    from pathlib import Path

    repo = Path(__file__).resolve().parent.parent
    bad = []
    for rel in GATHER_FILES:
        tree = ast.parse((repo / rel).read_text())
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for n in ast.walk(fn):
                    owner.setdefault(n, fn.name)
        for n in ast.walk(tree):
            # a method or module function (``t.take``, ``pc.take``); a
            # bare ``take`` is put_buckets' caller-supplied builder
            if not (isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Attribute)):
                continue
            name = n.func.attr
            if name in ("take", "sort_by") \
                    and (rel, owner.get(n)) != GATHER_HELPER:
                bad.append(f"{rel}:{n.lineno} calls {name}() in "
                           f"{owner.get(n)}; use exchange.take_rows")
    assert not bad, "\n".join(bad)
