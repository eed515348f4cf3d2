"""Query operators over MULTI-CHUNK partitions: the filter's
literal->code memoization must survive diff-dict growth and epoch
resets across chunks (reference src/process.cpp:237-299), and random
access must map rows through chunk boundaries."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

import arcade_ray.format as fmt
from arcade_ray.corpus import generate_corpus
from arcade_ray.pipeline.encode import commit_partition, encode_partition
from arcade_ray.pipeline.query import filter_partition, random_access


@pytest.fixture()
def chunked_partition(tmp_path, monkeypatch):
    """One partition encoded with 700-row chunks (many chunks, shared
    dicts crossing chunk boundaries)."""
    orig = fmt.chunk_boundaries
    monkeypatch.setattr(
        fmt, "chunk_boundaries",
        lambda t, rows_per_chunk=700, values_per_chunk=fmt.DEFAULT_VALUES_PER_CHUNK:
        orig(t, 700, values_per_chunk),
    )
    table = generate_corpus(5000, 6, seed=13)
    # unsorted by source: chunks interleave sources -> diff-dict growth
    import os

    out = str(tmp_path / "enc")
    os.makedirs(out + "/parts"), os.makedirs(out + "/manifest")
    blob, row = encode_partition(table, "mc")
    header, _ = fmt.read_header(blob)
    assert len(header["chunk_rows"]) >= 7
    # string column chunks use shared (diff) dictionaries
    modes = [c["mode"] for c in header["columns"]["source"]["chunks"]]
    assert "diff" in modes
    row = commit_partition(out, "mc", blob, row)
    return out, row["path"], table


def test_filter_multichunk_string(chunked_partition):
    out_dir, path, table = chunked_partition
    for literal in ("src-000", "src-003", "src-005", "nope"):
        got = filter_partition(path, [("eq", "source", literal)],
                               ["source", "doc_id", "n_tok"])
        expect = table.filter(pc.equal(table["source"], literal))
        assert got.num_rows == expect.num_rows, literal
        assert set(got["doc_id"].to_pylist()) == set(expect["doc_id"].to_pylist())


def test_filter_multichunk_int(chunked_partition):
    out_dir, path, table = chunked_partition
    got = filter_partition(path, [("eq", "n_tok", 1)], ["n_tok", "doc_id"])
    expect = table.filter(pc.equal(table["n_tok"], 1))
    assert got.num_rows == expect.num_rows
    assert set(got["doc_id"].to_pylist()) == set(expect["doc_id"].to_pylist())


def test_random_access_across_chunks(chunked_partition):
    out_dir, path, table = chunked_partition
    ids = [0, 699, 700, 701, 1400, 4999]
    out = random_access(out_dir, ids, columns=["doc_id", "tokens"])
    assert out.num_rows == len(ids)
    # partition rows are unsorted (encode_partition direct) -> row i of
    # the partition == row i of the input table
    for rid in ids:
        got = out.filter(pc.equal(out["row_id"], rid))
        assert got["doc_id"][0].as_py() == table["doc_id"][rid].as_py()
        assert got["tokens"][0].as_py() == table["tokens"][rid].as_py()


def test_range_filter_multichunk(chunked_partition, ray_session):
    import ray

    from arcade_ray.pipeline.query import range_filter

    out_dir, path, table = chunked_partition
    ds = range_filter(out_dir, "n_tok", 50, 200, ["doc_id", "n_tok"])
    got = pa.concat_tables(ray.get(ds.to_arrow_refs()))
    mask = pc.and_(pc.greater_equal(table["n_tok"], 50),
                   pc.less_equal(table["n_tok"], 200))
    expect = table.filter(mask)
    assert got.num_rows == expect.num_rows
    assert set(got["doc_id"].to_pylist()) == set(expect["doc_id"].to_pylist())
    assert pc.min(got["n_tok"]).as_py() >= 50
    assert pc.max(got["n_tok"]).as_py() <= 200


def test_dict_value_counts_multichunk(chunked_partition, ray_session):
    from arcade_ray.pipeline.query import dict_value_counts

    out_dir, path, table = chunked_partition
    got = dict_value_counts(out_dir, "source")
    expect = table["source"].combine_chunks().value_counts()
    want = {i["values"].as_py(): i["counts"].as_py() for i in expect}
    have = dict(zip(got["source"].to_pylist(), got["n_rows"].to_pylist()))
    assert have == want


def test_filter_unique_column_multichunk(chunked_partition):
    """doc_id is all-distinct -> plain/gp chunks; filter still exact."""
    out_dir, path, table = chunked_partition
    target = table["doc_id"][3456].as_py()
    got = filter_partition(path, [("eq", "doc_id", target)],
                           ["doc_id", "source"])
    assert got.num_rows == 1
    assert got["source"][0].as_py() == table["source"][3456].as_py()
