"""The parsed-manifest cache (``encode.read_manifest``): a repeated read
of an unchanged dir opens no manifest row file and parses no
``col_stats`` string, every commit between two reads is seen by the
second, and callers cannot poison the cache through the rows they get."""

import builtins
import json
import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from arcade_ray.collect import collect_arrow
from arcade_ray.pipeline import encode
from arcade_ray.pipeline.query import (_manifest_paths, equi_filter, lookup,
                                       random_access)
from arcade_ray.sql import sql_query

SQL = ("SELECT source, count(*) AS n, sum(n_tok) AS t FROM docs "
       "WHERE n_tok > 40 GROUP BY source ORDER BY source")


@pytest.fixture(scope="module")
def corpus(ray_session, tmp_path_factory):
    import pyarrow.parquet as pq

    from arcade_ray.corpus import generate_corpus

    root = tmp_path_factory.mktemp("mcache")
    t = generate_corpus(3000, 6, seed=5)
    pq.write_table(t, root / "in.parquet")
    return root, t


@pytest.fixture
def enc(corpus, tmp_path):
    root, t = corpus
    d = str(tmp_path / "enc")
    encode.encode_parquet(str(root / "in.parquet"), d, weight_cap=60_000)
    assert len(_manifest_paths(d)) >= 4
    return d, t


def _queries(d: str, t: pa.Table) -> dict:
    """lookup, equi_filter, random_access and one SQL query over ``d``,
    as sorted row lists."""
    doc = t["doc_id"][17].as_py()
    src = t["source"][17].as_py()
    out = {
        "lookup": collect_arrow(lookup(d, "doc_id", [doc],
                                       columns=["doc_id", "n_tok"])),
        "equi_filter": collect_arrow(equi_filter(d, "source", src,
                                                 ["doc_id", "n_tok"])),
        "random_access": random_access(d, [0, 5, 50],
                                       columns=["doc_id"]),
        "sql": sql_query(SQL, {"docs": d}),
    }
    return {k: sorted(map(str, v.to_pylist())) for k, v in out.items()}


def _cold(d: str, t: pa.Table) -> dict:
    encode._manifest_cache.clear()
    return _queries(d, t)


def test_repeat_reads_open_no_row_file(enc, monkeypatch):
    """A repeat of lookup, equi_filter, random_access and a SQL query
    over an unchanged dir opens no manifest row file and parses no
    ``col_stats`` string; the cache keeps at most a few dirs."""
    d, t = enc
    first = _queries(d, t)
    col_stats = set(encode.load_manifest(d)["col_stats"].to_pylist())
    opened, parsed = [], []
    real_open, real_loads = builtins.open, json.loads

    def spy_open(file, *a, **k):
        if os.path.join(d, encode.MANIFEST_DIR) in str(file):
            opened.append(file)
        return real_open(file, *a, **k)

    def spy_loads(s, *a, **k):
        if isinstance(s, str) and s in col_stats:
            parsed.append(s)
        return real_loads(s, *a, **k)

    monkeypatch.setattr(builtins, "open", spy_open)
    monkeypatch.setattr(json, "loads", spy_loads)
    assert _queries(d, t) == first
    assert opened == [] and parsed == []
    # the spies see a cold read: they would catch a parse
    assert _cold(d, t) == first
    assert opened and parsed
    monkeypatch.undo()
    for i in range(encode._MANIFEST_CACHE_DIRS + 2):
        other = f"{d}_copy{i}"
        shutil.copytree(d, other)
        encode.read_manifest(other)
    assert len(encode._manifest_cache) == encode._MANIFEST_CACHE_DIRS


def _recommit(d: str, part_key: str, edit) -> None:
    """Commit ``edit(row)`` as the manifest row of ``part_key``, by the
    writers' tmp + os.replace."""
    p = encode._manifest_row_path(d, part_key)
    with open(p) as f:
        row = json.load(f)
    edit(row)
    with open(p + ".tmp", "w") as f:
        json.dump(row, f)
    os.replace(p + ".tmp", p)


def _set_source_zone(value: str):
    def edit(row):
        cs = json.loads(row["col_stats"])
        cs["source"]["min"] = cs["source"]["max"] = value
        row["col_stats"] = json.dumps(cs)
    return edit


def test_commits_are_seen_by_the_next_read(enc, corpus, tmp_path):
    """After an append generation, a compaction, a DELETE, an UPDATE
    and two same-size row rewrites in quick succession, the next read
    in the same process equals a cold read."""
    import pyarrow.parquet as pq

    from arcade_ray.pipeline.compact import compact

    d, t = enc
    before = _queries(d, t)

    extra = t.slice(0, 300).set_column(
        0, "doc_id", pc.binary_join_element_wise(
            t["doc_id"].slice(0, 300), "-new", ""))
    pq.write_table(extra, tmp_path / "extra.parquet")
    encode.encode_parquet(str(tmp_path / "extra.parquet"), d,
                          generation="g1")
    got = _queries(d, t)
    assert got != before and got == _cold(d, t)

    compact(d, weight_cap=10**9, collapse_generations=True)
    got = _queries(d, t)
    assert got == _cold(d, t)

    for dml in ("DELETE FROM docs WHERE n_tok > 300",
                "UPDATE docs SET n_tok = n_tok + 1 WHERE n_tok < 60"):
        sql_query(dml, {"docs": d})
        after = _queries(d, t)
        assert after != got and after == _cold(d, t), dml
        got = after

    # a same-length zone keeps the row file's size: the second rewrite
    # differs from the first only in inode and timestamps
    src = t["source"][17].as_py()
    key = next(r["part_key"] for r in _manifest_paths(d)
               if json.loads(r["col_stats"])["source"]["min"] == src)
    p = encode._manifest_row_path(d, key)
    size = os.path.getsize(p)
    _recommit(d, key, _set_source_zone("~" * len(src)))
    after = _queries(d, t)
    assert after != got and after == _cold(d, t)
    _recommit(d, key, _set_source_zone(src))
    assert os.path.getsize(p) == size
    assert _queries(d, t) == got == _cold(d, t)


def test_mutating_returned_rows_leaves_the_cache(enc):
    """Row dicts handed out are copies: mutating one, its ``replaces``
    list, or the list itself changes no later read."""
    d, t = enc
    key = _manifest_paths(d)[0]["part_key"]
    _recommit(d, key, lambda row: row.update(replaces=["gone#0000"]))
    first = _queries(d, t)
    want = _manifest_paths(d)
    rows = _manifest_paths(d)
    rows[0]["path"] = "/nonexistent"
    rows[0]["rows"] = -1
    rows[0]["replaces"].append(rows[1]["part_key"])
    rows.pop()
    assert _manifest_paths(d) == want
    assert _queries(d, t) == first


def test_relocated_consolidated_only_dir(enc, tmp_path):
    """A dir moved elsewhere with only its ``manifest.parquet`` (no row
    files) reads as the original did, with paths under the new
    location."""
    d, t = enc
    first = _queries(d, t)
    moved = str(tmp_path / "moved")
    shutil.copytree(d, moved)
    shutil.rmtree(os.path.join(moved, encode.MANIFEST_DIR))
    paths = encode.load_manifest(moved)["path"].to_pylist()
    assert paths and all(p.startswith(moved) for p in paths)
    assert _queries(moved, t) == first
