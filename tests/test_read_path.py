"""Read-path execution shape: a collect runs its Dataset's plan once,
and per-partition reads run one Ray task per contiguous group of
partitions, with the group count set in one place
(``decode.partition_tasks``)."""

import ast
import math
import pathlib

import pyarrow as pa
import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]


def _calls(log: pathlib.Path) -> int:
    return len(log.read_text()) if log.exists() else 0


def _counted(monkeypatch, module, name: str, log: pathlib.Path):
    """Replace ``module.name`` with a wrapper that appends one byte to
    ``log`` per call (from whichever worker runs it)."""
    orig = getattr(module, name)

    def wrapper(*a, **k):
        with open(log, "a") as f:
            f.write("x")
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


def test_collect_runs_groupby_upstream_once(ray_session, tmp_path):
    """A groupby aggregate's upstream UDF runs once per input block, and
    the collected Dataset's own stats describe that run."""
    import ray.data as rd

    from arcade_ray.collect import collect_arrow

    log = tmp_path / "calls"

    def counting(batch: pa.Table) -> pa.Table:
        with open(log, "a") as f:
            f.write("x")
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

def _subscripts_path(fn: ast.AST) -> bool:
    return any(isinstance(n, ast.Subscript)
               and isinstance(n.slice, ast.Constant) and n.slice.value == "path"
               for n in ast.walk(fn))


def test_read_path_guard():
    """No engine code calls Dataset.to_arrow_refs() (it runs the plan
    twice; collect.iter_arrow_refs / collect_arrow run it once), no
    ``map_batches(..., batch_size=1)`` maps a UDF over manifest paths
    one partition per task, and only ``decode.map_partitions`` builds a
    Dataset of partition paths."""
    bad = []
    for p in sorted((REPO / "arcade_ray").rglob("*.py")):
        tree = ast.parse(p.read_text())
        where = p.relative_to(REPO)
        defs: dict[str, list[ast.AST]] = {}
        for n in ast.walk(tree):
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.setdefault(n.name, []).append(n)
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for n in ast.walk(fn):
                    owner.setdefault(n, fn.name)
        for n in ast.walk(tree):
            if not (isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Attribute)):
                continue
            attr = n.func.attr
            if attr == "to_arrow_refs":
                bad.append(f"{where}:{n.lineno} calls to_arrow_refs()")
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
    assert not bad, "\n".join(bad)
