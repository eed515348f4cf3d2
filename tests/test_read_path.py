"""Read-path execution shape: a collect runs its Dataset's plan once,
and per-partition reads and maps run one Ray task per contiguous group
of partitions, with the group count set in one place
(``decode.partition_tasks``); a read the rule gives one task runs in
the driver process."""

import ast
import math
import os
import pathlib

import pyarrow as pa
import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]


def _pids(log: pathlib.Path) -> list[int]:
    return [int(x) for x in log.read_text().split()] if log.exists() else []


def _calls(log: pathlib.Path) -> int:
    return len(log.read_text().splitlines()) if log.exists() else 0


def _counted(monkeypatch, module, name: str, log: pathlib.Path):
    """Replace ``module.name`` with a wrapper that appends the pid of
    the process that runs it (the driver or a worker) to ``log``, one
    line per call."""
    orig = getattr(module, name)

    def wrapper(*a, **k):
        with open(log, "a") as f:
            f.write(f"{os.getpid()}\n")
        return orig(*a, **k)

    monkeypatch.setattr(module, name, wrapper)


@pytest.fixture(scope="module")
def one_partition(ray_session, tmp_path_factory):
    from arcade_ray.corpus import generate_corpus
    from arcade_ray.pipeline.encode import encode_parquet
    import pyarrow.parquet as pq

    root = tmp_path_factory.mktemp("one_part")
    t = generate_corpus(400, 1, seed=3)
    pq.write_table(t, root / "in.parquet")
    enc = str(root / "enc")
    m = encode_parquet(str(root / "in.parquet"), enc)
    assert m.num_rows == 1
    return enc, t


def test_collect_decodes_each_partition_once(ray_session, one_partition,
                                             tmp_path, monkeypatch):
    """equi_filter and lookup over a one-partition dir, collected with
    collect_arrow, decode that partition once (Dataset.to_arrow_refs
    ran the plan a second time for its schema)."""
    from arcade_ray.collect import collect_arrow
    from arcade_ray.pipeline import query

    enc, t = one_partition
    log = tmp_path / "calls"
    _counted(monkeypatch, query, "filter_partition", log)

    src = t["source"][0].as_py()
    out = collect_arrow(query.equi_filter(enc, "source", src,
                                          project=["doc_id"]))
    assert out.num_rows == t.num_rows
    assert _calls(log) == 1

    doc = t["doc_id"][7].as_py()
    out = collect_arrow(query.lookup(enc, "doc_id", [doc],
                                     columns=["doc_id", "n_tok"]))
    assert out["doc_id"].to_pylist() == [doc]
    assert out["n_tok"].to_pylist() == [t["n_tok"][7].as_py()]
    assert _calls(log) == 2


def test_one_partition_reads_run_in_driver(ray_session, one_partition,
                                           many_partitions, tmp_path,
                                           monkeypatch):
    """A lookup, equi_filter or range_filter that prunes to one
    partition runs ``filter_partition`` in the driver process; a filter
    over several partitions still runs it in Ray workers."""
    from arcade_ray.collect import collect_arrow
    from arcade_ray.pipeline import query
    from arcade_ray.pipeline.decode import in_process
    from arcade_ray.pipeline.encode import load_manifest

    enc, t = one_partition
    log = tmp_path / "pids"
    _counted(monkeypatch, query, "filter_partition", log)
    driver = os.getpid()

    doc = t["doc_id"][11].as_py()
    out = collect_arrow(query.lookup(enc, "doc_id", [doc],
                                     columns=["doc_id", "tokens"]))
    assert out["doc_id"].to_pylist() == [doc]
    assert out["tokens"].to_pylist() == [t["tokens"][11].as_py()]
    src = t["source"][0].as_py()
    out = collect_arrow(query.equi_filter(enc, "source", src,
                                          project=["doc_id"]))
    assert out.num_rows == t.num_rows
    lo, hi = sorted(t["n_tok"].to_pylist())[100:102]
    out = collect_arrow(query.range_filter(enc, "n_tok", lo, hi,
                                           project=["n_tok"]))
    assert out.num_rows == sum(lo <= v <= hi for v in t["n_tok"].to_pylist())
    assert _pids(log) == [driver] * 3

    # pruned to one of 18 partitions by the manifest's Bloom filters
    rows = load_manifest(many_partitions).to_pylist()
    assert not in_process(rows)
    log.unlink()
    doc = _many_tables()[1]["doc_id"][7].as_py()
    out = collect_arrow(query.lookup(many_partitions, "doc_id", [doc],
                                     columns=["doc_id", "rank"]))
    assert out.to_pylist() == [{"doc_id": doc, "rank": 49}]
    assert _pids(log) == [driver]

    # "de" is in several g1 partitions: one task per partition here,
    # none of them on the driver
    log.unlink()
    out = collect_arrow(query.equi_filter(many_partitions, "lang", "de",
                                          ["doc_id"]))
    assert out.num_rows == 200
    pids = _pids(log)
    assert len(pids) >= 2 and driver not in pids


def test_gather_partitions_one_row_in_driver(ray_session, many_partitions):
    """gather_partitions runs a single row on the driver, without its
    ``col_stats``, and several rows in Ray workers."""
    from arcade_ray.pipeline.decode import gather_partitions
    from arcade_ray.pipeline.encode import load_manifest

    rows = load_manifest(many_partitions).to_pylist()

    def fn(r):
        return os.getpid(), "col_stats" in r, r["path"]

    assert gather_partitions(rows[3:4], fn) == \
        [(os.getpid(), False, rows[3]["path"])]
    out = gather_partitions(rows, fn)
    assert [p for _, _, p in out] == [r["path"] for r in rows]
    assert os.getpid() not in {pid for pid, _, _ in out}
    assert not any(has for _, has, _ in out)
    assert gather_partitions([], fn) == []


def test_collect_runs_groupby_upstream_once(ray_session, tmp_path):
    """A groupby aggregate's upstream UDF runs once per input block, and
    the collected Dataset's own stats describe that run."""
    import ray.data as rd

    from arcade_ray.collect import collect_arrow

    log = tmp_path / "calls"

    def counting(batch: pa.Table) -> pa.Table:
        with open(log, "a") as f:
            f.write("x\n")
        return batch

    t = pa.table({"k": [i % 3 for i in range(96)], "v": list(range(96))})
    ds = rd.from_arrow([t.slice(i * 12, 12) for i in range(8)]) \
        .map_batches(counting, batch_format="pyarrow") \
        .groupby("k").sum("v")
    got = collect_arrow(ds).sort_by("k")
    assert _calls(log) == 8
    assert got["k"].to_pylist() == [0, 1, 2]
    assert got["sum(v)"].to_pylist() == [
        sum(v for v in range(96) if v % 3 == k) for k in range(3)]
    stats = ds.stats()
    assert "MapBatches(counting)" in stats and "Aggregate" in stats


def test_collect_converts_pandas_blocks(ray_session):
    """Pandas blocks come back as Arrow, from collect_arrow on the
    driver and from iter_arrow_refs as refs."""
    import ray
    import ray.data as rd

    from arcade_ray.collect import collect_arrow, iter_arrow_refs

    def ds():
        return rd.from_items([{"a": i, "s": str(i)} for i in range(20)],
                             override_num_blocks=4) \
            .map_batches(lambda df: df, batch_format="pandas")

    got = collect_arrow(ds())
    assert isinstance(got, pa.Table)
    assert got.sort_by("a").to_pydict() == {
        "a": list(range(20)), "s": [str(i) for i in range(20)]}
    blocks = ray.get(list(iter_arrow_refs(ds())))
    assert all(isinstance(b, pa.Table) for b in blocks)
    assert sum(b.num_rows for b in blocks) == 20


def _executor_runs(monkeypatch, forbid: bool = False) -> list:
    """Count the streaming executor's runs (one list entry per
    ``StreamingExecutor.execute``), or fail on the first one."""
    from ray.data._internal.execution.streaming_executor import \
        StreamingExecutor

    runs = []
    orig = StreamingExecutor.execute

    def execute(self, *a, **k):
        assert not forbid, "started a streaming executor"
        runs.append(1)
        return orig(self, *a, **k)

    monkeypatch.setattr(StreamingExecutor, "execute", execute)
    return runs


def _in_memory(kind: str):
    """A three-block Dataset whose output is already in the object
    store, built by ``kind``."""
    import ray.data as rd

    t = pa.table({"a": list(range(30)), "s": [str(i) for i in range(30)]})
    parts = [t.slice(i * 10, 10) for i in range(3)]
    if kind == "from_blocks":
        return rd.from_blocks(parts)
    if kind == "from_items":
        return rd.from_items(t.to_pylist(), override_num_blocks=3)
    if kind == "from_arrow":
        return rd.from_arrow(parts)
    if kind == "from_pandas":
        return rd.from_pandas([p.to_pandas() for p in parts])
    return rd.from_arrow(parts).map_batches(
        lambda b: b, batch_format="pyarrow").materialize()


@pytest.mark.parametrize("kind", ["from_blocks", "from_items", "from_arrow",
                                  "from_pandas", "materialize"])
def test_collect_in_memory_source_starts_no_executor(ray_session, kind,
                                                     monkeypatch):
    """collect_arrow and iter_arrow_refs over a Dataset whose output is
    already in the object store start no streaming executor, and return
    the executor path's blocks, in its order, as Arrow tables."""
    import ray

    from arcade_ray.collect import (_block_to_arrow, collect_arrow,
                                    iter_arrow_refs)

    ds = _in_memory(kind)
    want = [_block_to_arrow(ray.get(r))
            for b in ds.iter_internal_ref_bundles() for r in b.block_refs]
    assert len(want) == 3
    _executor_runs(monkeypatch, forbid=True)
    got = ray.get(list(iter_arrow_refs(ds)))
    assert all(isinstance(b, pa.Table) for b in got)
    assert [b.to_pydict() for b in got] == [b.to_pydict() for b in want]
    out = collect_arrow(ds)
    assert out.equals(pa.concat_tables(want))
    assert out["a"].to_pylist() == list(range(30))


def test_collect_map_over_source_runs_once(ray_session, tmp_path,
                                           monkeypatch):
    """A map_batches over an in-memory source is a lazy plan: a collect
    runs it once, on the executor, calling the UDF once per block."""
    import ray
    import ray.data as rd

    from arcade_ray.collect import collect_arrow, iter_arrow_refs

    log = tmp_path / "calls"

    def counting(batch: pa.Table) -> pa.Table:
        with open(log, "a") as f:
            f.write("x\n")
        return batch

    t = pa.table({"v": list(range(40))})
    runs = _executor_runs(monkeypatch)
    ds = rd.from_blocks([t.slice(i * 10, 10) for i in range(4)]) \
        .map_batches(counting, batch_format="pyarrow")
    assert collect_arrow(ds).sort_by("v").equals(t)
    assert _calls(log) == 4 and len(runs) == 1
    blocks = ray.get(list(iter_arrow_refs(ds)))
    assert sum(b.num_rows for b in blocks) == 40
    assert _calls(log) == 8 and len(runs) == 2


def test_one_partition_lookup_starts_no_executor(ray_session, one_partition,
                                                 monkeypatch):
    """A lookup pruned to one partition runs on the driver and its
    collect starts no streaming executor."""
    from arcade_ray.collect import collect_arrow
    from arcade_ray.pipeline import query

    enc, t = one_partition
    _executor_runs(monkeypatch, forbid=True)
    doc = t["doc_id"][5].as_py()
    out = collect_arrow(query.lookup(enc, "doc_id", [doc],
                                     columns=["doc_id", "n_tok"]))
    assert out.to_pylist() == [{"doc_id": doc,
                                "n_tok": t["n_tok"][5].as_py()}]


# ---------------------------------------------------------------------------
# grouped reads
# ---------------------------------------------------------------------------

def _expected_tasks(rows: list[dict]) -> int:
    """The grouping rule, restated: min(partitions, max(2 x cluster
    CPUs, ceil(sum raw_bytes / target_max_block_size)))."""
    import ray
    from ray.data import DataContext

    cpus = int(ray.cluster_resources()["CPU"])
    raw = sum(r["raw_bytes"] for r in rows)
    by_size = math.ceil(raw / DataContext.get_current().target_max_block_size)
    return min(len(rows), max(2 * cpus, by_size))


def _check_grouped(ds, rows: list[dict], columns) -> None:
    """``ds``'s blocks are the contiguous manifest-order groups of
    ``rows``, one block per task: each block equals its partitions'
    ``decode_partition`` outputs concatenated in order, and the block
    count is the rule's task count."""
    import ray

    from arcade_ray.format import decode_partition

    blocks = [ray.get(r) for b in ds.iter_internal_ref_bundles()
              for r in b.block_refs]
    n = _expected_tasks(rows)
    assert len(rows) > n > 1  # some group holds several partitions
    assert len(blocks) == n
    parts = [decode_partition(r["path"], columns=columns) for r in rows]
    size, extra = divmod(len(parts), n)
    groups, i = [], 0
    for g in range(n):
        j = i + size + (g < extra)
        groups.append(parts[i:j])
        i = j
    want = sorted((pa.concat_tables(g, promote_options="permissive")
                   for g in groups), key=lambda t: t["doc_id"][0].as_py())
    got = sorted(blocks, key=lambda t: t["doc_id"][0].as_py())
    for w, g in zip(want, got):
        assert g.select(w.column_names).equals(w)


def _many_tables() -> tuple[pa.Table, pa.Table]:
    """The base and ``g1`` inputs of :func:`many_partitions`."""
    from arcade_ray.corpus import generate_corpus

    base = generate_corpus(2400, 12, seed=11)
    newer = generate_corpus(600, 6, seed=12)
    newer = newer.set_column(0, "doc_id", pa.array(
        [f"g1:{v}" for v in newer["doc_id"].to_pylist()]))
    newer = newer.append_column("lang", pa.array(
        [("en", "de", "fr")[i % 3] for i in range(newer.num_rows)]))
    newer = newer.append_column("rank", pa.array(
        [i * 7 % 500 for i in range(newer.num_rows)], type=pa.int64()))
    return base, newer


@pytest.fixture(scope="module")
def many_partitions(ray_session, tmp_path_factory):
    """A base generation of 12 single-source partitions without
    ``lang`` and ``rank``, plus a ``g1`` generation of 6 partitions
    with them. Part keys interleave (``src-003`` < ``src-003@g1#...``),
    so manifest-order groups mix partitions with and without ``lang``."""
    import ray.data as rd

    from arcade_ray.pipeline import encode_dataset

    out = str(tmp_path_factory.mktemp("many") / "enc")
    base, newer = _many_tables()
    encode_dataset(rd.from_arrow(base), out, weight_col=None)
    encode_dataset(rd.from_arrow(newer), out, weight_col=None,
                   generation="g1")
    return out


def test_grouped_decode_uniform(ray_session, tmp_path):
    from arcade_ray.corpus import generate_corpus
    from arcade_ray.pipeline import encode_dataset
    from arcade_ray.pipeline.decode import decode_dataset
    from arcade_ray.pipeline.encode import load_manifest
    import ray.data as rd

    out = str(tmp_path / "enc")
    encode_dataset(rd.from_arrow(generate_corpus(2000, 10, seed=21)), out,
                   weight_col=None)
    rows = load_manifest(out).to_pylist()
    assert len(rows) == 10
    _check_grouped(decode_dataset(out, columns=["doc_id", "n_tok"]), rows,
                   ["doc_id", "n_tok"])
    _check_grouped(decode_dataset(out), rows, None)


def test_grouped_decode_evolved_schema(ray_session, many_partitions):
    from arcade_ray.collect import collect_arrow
    from arcade_ray.pipeline.decode import decode_dataset, partition_tasks
    from arcade_ray.pipeline.encode import load_manifest

    rows = load_manifest(many_partitions).to_pylist()
    assert len(rows) == 18
    n = partition_tasks(rows)
    assert n == _expected_tasks(rows)
    has_lang = ["@g1" in r["part_key"] for r in rows]
    size, extra = divmod(len(rows), n)
    bounds = [g * size + min(g, extra) for g in range(n + 1)]
    assert any(len(set(has_lang[a:b])) == 2
               for a, b in zip(bounds, bounds[1:]))

    ds = decode_dataset(many_partitions, columns=["doc_id", "lang"])
    blocks = collect_arrow(ds)
    assert blocks.num_rows == 3000
    assert blocks["lang"].null_count == 2400
    by_id = dict(zip(blocks["doc_id"].to_pylist(),
                     blocks["lang"].to_pylist()))
    assert all(v is None for k, v in by_id.items() if not k.startswith("g1:"))
    assert {v for k, v in by_id.items() if k.startswith("g1:")} == \
        {"en", "de", "fr"}
    _check_grouped(decode_dataset(many_partitions), rows, None)


def test_grouped_decode_generation(ray_session, many_partitions):
    from arcade_ray.pipeline.decode import decode_dataset
    from arcade_ray.pipeline.encode import generation_of_row, load_manifest

    rows = [r for r in load_manifest(many_partitions).to_pylist()
            if generation_of_row(r) == ""]
    assert len(rows) == 12
    _check_grouped(decode_dataset(many_partitions, generation=""), rows,
                   None)


def test_filters_on_evolved_column(ray_session, many_partitions):
    """equi_filter, range_filter and lookup on columns only the ``g1``
    generation has match a pyarrow oracle over both inputs; base rows
    come back with NULL ``lang``."""
    import pyarrow.compute as pc

    from arcade_ray.collect import collect_arrow
    from arcade_ray.format import read_header
    from arcade_ray.pipeline.encode import load_manifest
    from arcade_ray.pipeline.query import equi_filter, lookup, range_filter

    every = pa.concat_tables(_many_tables(), promote_options="default")

    def check(ds, mask, cols):
        want = every.filter(pc.fill_null(mask, False)).select(cols)
        got = collect_arrow(ds)
        assert got.column_names == cols
        assert want.num_rows > 0
        assert got.sort_by("doc_id").to_pylist() == \
            want.sort_by("doc_id").to_pylist()

    cols = ["doc_id", "lang", "n_tok"]
    check(equi_filter(many_partitions, "lang", "de", cols),
          pc.equal(every["lang"], "de"), cols)
    cols = ["doc_id", "rank", "lang"]
    check(range_filter(many_partitions, "rank", 40, 90, cols),
          pc.and_(pc.greater_equal(every["rank"], 40),
                  pc.less_equal(every["rank"], 90)), cols)
    ids = every["doc_id"].to_pylist()[::150]
    assert any(i.startswith("g1:") for i in ids) and \
        any(not i.startswith("g1:") for i in ids)
    cols = ["doc_id", "n_tok", "lang"]
    check(lookup(many_partitions, "doc_id", ids, columns=cols),
          pc.is_in(every["doc_id"], value_set=pa.array(ids)), cols)
    # no projection: every column of the first partition, in its order
    first = load_manifest(many_partitions)["path"][0].as_py()
    cols = list(read_header(first)[0]["columns"])
    check(lookup(many_partitions, "doc_id", ids),
          pc.is_in(every["doc_id"], value_set=pa.array(ids)), cols)


# ---------------------------------------------------------------------------
# guard: no double run, no per-partition fan-out
# ---------------------------------------------------------------------------

# The only Ray tasks in arcade_ray/ (file, outermost function): none of
# them runs one task per partition.
RAY_REMOTE_ALLOWED = {
    ("arcade_ray/pipeline/decode.py", "gather_partitions"):
        "the per-partition helper: one task per partition group",
    ("arcade_ray/exchange.py", "stage"):
        "exchange split wave: one task per input piece or block",
    ("arcade_ray/exchange.py", "consume"):
        "exchange consume wave: one task per bucket",
    ("arcade_ray/components.py", "distributed_components"):
        "connected-components star rounds: one task per graph part",
    ("arcade_ray/pipeline/join.py", "semi_join_large"):
        "Bloom bitmap OR-reduce: a binary tree over partial bitmaps",
    ("arcade_ray/pipeline/compact.py", "compact"):
        "one re-encode task per compaction bin of several partitions",
    ("arcade_ray/pipeline/encode.py", "encode_parquet"):
        "parquet split wave: one task per group of input files",
    ("arcade_ray/collect.py", "iter_arrow_refs"):
        "converts a non-Arrow result block, one task per block",
}


def _ray_remote_sites(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, outermost function) of every ``ray.remote`` reference:
    decorators, ``ray.remote(fn)`` calls and their options."""
    out = []
    for top in tree.body:
        name = getattr(top, "name", "<module>")
        for n in ast.walk(top):
            if isinstance(n, ast.Attribute) and n.attr == "remote" \
                    and isinstance(n.value, ast.Name) and n.value.id == "ray":
                out.append((n.lineno, name))
    return out


# Read paths that build their Datasets on the driver: ``from_arrow``
# starts a Ray task for block metadata on every call, ``from_blocks``
# does not.
# where a NULL placement or a one-array sort may appear in ORDER_FILES:
# ``query.order_indices`` decides every row order
ORDER_FILES = {"arcade_ray/pipeline/query.py", "arcade_ray/sql.py"}
ORDER_ALLOWED = {("arcade_ray/pipeline/query.py", "order_indices")}

# the one parse of manifest ``col_stats`` strings: every reader takes
# them from the per-dir manifest cache (``encode.read_manifest``)
COL_STATS_PARSER = ("arcade_ray/pipeline/encode.py", "stats")

NO_FROM_ARROW = {"arcade_ray/pipeline/query.py",
                 "arcade_ray/pipeline/join.py",
                 "arcade_ray/pipeline/decode.py"}


def _subscripts_path(fn: ast.AST) -> bool:
    return any(isinstance(n, ast.Subscript)
               and isinstance(n.slice, ast.Constant) and n.slice.value == "path"
               for n in ast.walk(fn))


def test_read_path_guard():
    """No engine code calls Dataset.to_arrow_refs() (it runs the plan
    twice; collect.iter_arrow_refs / collect_arrow run it once), only
    ``collect._ref_bundles`` calls ``iter_internal_ref_bundles`` (every
    consumer gets the in-memory-source fast path), no
    ``map_batches(..., batch_size=1)`` maps a UDF over manifest paths
    one partition per task, only ``decode.map_partitions`` builds a
    Dataset of partition paths, and no Ray task is defined outside
    ``RAY_REMOTE_ALLOWED`` (a per-partition map goes through
    ``decode.gather_partitions``). The read paths in ``NO_FROM_ARROW``
    build no Dataset with ``from_arrow``, and in ``ORDER_FILES`` only
    ``ORDER_ALLOWED`` passes ``null_placement=`` or calls
    ``array_sort_indices`` (every other sort goes through
    ``query.order_indices``). No function that names ``col_stats``
    calls ``json.loads`` outside ``COL_STATS_PARSER`` (readers take
    parsed stats from ``encode.read_manifest``)."""
    bad = []
    used = set()
    for p in sorted((REPO / "arcade_ray").rglob("*.py")):
        tree = ast.parse(p.read_text())
        where = p.relative_to(REPO)
        for line, fn in _ray_remote_sites(tree):
            used.add((str(where), fn))
            if (str(where), fn) not in RAY_REMOTE_ALLOWED:
                bad.append(f"{where}:{line} defines a Ray task in {fn}; "
                           "map partitions with decode.gather_partitions")
        defs: dict[str, list[ast.AST]] = {}
        for n in ast.walk(tree):
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.setdefault(n.name, []).append(n)
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for n in ast.walk(fn):
                    owner.setdefault(n, fn.name)
        names_col_stats = {owner.get(n) for n in ast.walk(tree)
                           if isinstance(n, ast.Constant)
                           and n.value == "col_stats"}
        for n in ast.walk(tree):
            if not (isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Attribute)):
                continue
            attr = n.func.attr
            if str(where) in ORDER_FILES and (
                    attr == "array_sort_indices"
                    or any(k.arg == "null_placement" for k in n.keywords)) \
                    and (str(where), owner.get(n)) not in ORDER_ALLOWED:
                bad.append(f"{where}:{n.lineno} orders rows itself; "
                           "use query.order_indices")
            if attr == "loads" and isinstance(n.func.value, ast.Name) \
                    and n.func.value.id in ("json", "_json") \
                    and owner.get(n) in names_col_stats \
                    and (str(where), owner.get(n)) != COL_STATS_PARSER:
                bad.append(f"{where}:{n.lineno} parses col_stats; use "
                           "encode.read_manifest(...).stats")
            if attr == "to_arrow_refs":
                bad.append(f"{where}:{n.lineno} calls to_arrow_refs()")
            elif attr == "iter_internal_ref_bundles" and (
                    str(where), owner.get(n)) != ("arcade_ray/collect.py",
                                                  "_ref_bundles"):
                bad.append(f"{where}:{n.lineno} reads ref bundles; "
                           "use collect._ref_bundles")
            elif attr == "from_arrow" and str(where) in NO_FROM_ARROW:
                bad.append(f"{where}:{n.lineno} calls from_arrow(); "
                           "use from_blocks")
            elif attr == "map_batches":
                one = any(k.arg == "batch_size"
                          and isinstance(k.value, ast.Constant)
                          and k.value.value == 1 for k in n.keywords)
                udf = n.args[0] if n.args else None
                if one and isinstance(udf, ast.Name) and any(
                        _subscripts_path(d) for d in defs.get(udf.id, [])):
                    bad.append(f"{where}:{n.lineno} maps {udf.id} over "
                               "partition paths with batch_size=1")
            elif attr == "from_items" and owner.get(n) != "map_partitions":
                keys = [k for d in ast.walk(n) if isinstance(d, ast.Dict)
                        for k in d.keys]
                if any(isinstance(k, ast.Constant) and k.value == "path"
                       for k in keys):
                    bad.append(f"{where}:{n.lineno} builds a path Dataset "
                               "outside decode.map_partitions")
    bad += [f"stale RAY_REMOTE_ALLOWED entry {k}"
            for k in sorted(set(RAY_REMOTE_ALLOWED) - used)]
    assert not bad, "\n".join(bad)


# the one key hash (``exchange.key_buckets``); the other
# ``hash_column(...) % m`` sites take a modulus that is no bucket count
KEY_HASH = ("arcade_ray/exchange.py", "key_buckets")
HASH_MOD_ALLOWED = {
    ("arcade_ray/transforms.py", "mix_sources"):
        "systematic sample: id hash modulo the sampling modulus",
    ("arcade_ray/transforms.py", "repeat_sources"):
        "fractional upsampling slice: id hash modulo the modulus",
}


def test_keyed_exchange_guard():
    """Rows co-locate by key through ``exchange.by_key`` alone: no
    engine code calls Ray's ``map_groups``, and no function but
    ``exchange.key_buckets`` buckets rows by ``hash_column(...) %``
    (``HASH_MOD_ALLOWED`` names the two sampling moduli)."""
    bad = []
    used = set()
    for p in sorted((REPO / "arcade_ray").rglob("*.py")):
        tree = ast.parse(p.read_text())
        where = str(p.relative_to(REPO))
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for n in ast.walk(fn):
                    owner.setdefault(n, fn.name)
        for n in ast.walk(tree):
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) \
                    and n.func.attr == "map_groups":
                bad.append(f"{where}:{n.lineno} calls map_groups; "
                           "co-locate rows with exchange.by_key")
            if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mod) \
                    and isinstance(n.left, ast.Call) \
                    and getattr(n.left.func, "id",
                                getattr(n.left.func, "attr", None)) \
                    == "hash_column":
                site = (where, owner.get(n))
                used.add(site)
                if site != KEY_HASH and site not in HASH_MOD_ALLOWED:
                    bad.append(f"{where}:{n.lineno} buckets by "
                               "hash_column(...) %; use "
                               "exchange.key_buckets")
    bad += [f"stale HASH_MOD_ALLOWED entry {k}"
            for k in sorted(set(HASH_MOD_ALLOWED) - used)]
    assert not bad, "\n".join(bad)
    assert KEY_HASH in used, "exchange.key_buckets no longer hashes keys"


# modules that build or query a persisted index: the marker's name and
# the hash-version gate live in ``arcade_ray/indexes.py`` alone
INDEX_USERS = ("arcade_ray/textops.py", "arcade_ray/ann.py",
               "arcade_ray/entry_queries.py")


def test_index_marker_guard():
    """No index builder, query or cached entry query names an index
    marker file or compares ``HASH_VERSION`` itself: each goes through
    ``indexes.begin`` / ``commit`` / ``open`` (docstrings may name the
    marker)."""
    bad = []
    for rel in INDEX_USERS:
        tree = ast.parse((REPO / rel).read_text())
        docs = {id(n.body[0].value) for n in ast.walk(tree)
                if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef))
                and n.body and isinstance(n.body[0], ast.Expr)
                and isinstance(n.body[0].value, ast.Constant)}
        for n in ast.walk(tree):
            if isinstance(n, ast.Constant) and isinstance(n.value, str) \
                    and "meta.json" in n.value and id(n) not in docs:
                bad.append(f"{rel}:{n.lineno} names an index marker")
            if (isinstance(n, ast.Name) and n.id == "HASH_VERSION") or (
                    isinstance(n, ast.Attribute)
                    and n.attr == "HASH_VERSION") or (
                    isinstance(n, ast.alias) and n.name == "HASH_VERSION"):
                bad.append(f"{rel}:{getattr(n, 'lineno', '?')} reads "
                           "HASH_VERSION; use indexes.open")
    assert not bad, "\n".join(bad)
