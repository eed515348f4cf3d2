"""Reference-oracle tests (SURVEY.md §5.2 item 4, BASELINE.md §2):
build the reference ARCADE runner and assert, on the same data,

(a) semantic parity — the reference's own decompression of its own
    compressed file equals our decoded values (both equal the input);
(b) the size criterion — our encoded bytes <= the reference's .arcade
    file size on the same columns.

The reference is string-only CSV-in (README.md:27-29), so columns are
CSV-serialized exactly as its `C` command ingests them.
"""

import os

import numpy as np
import pytest

from arcade_ray.corpus import generate_corpus
from arcade_ray.format import decode_partition, encode_partition
from arcade_ray.reference_oracle import (
    build_runner,
    export_csv,
    reference_compress,
    reference_scan,
)

pytestmark = pytest.mark.skipif(
    build_runner() is None, reason="reference toolchain unavailable"
)

ROWS = 20_000


@pytest.fixture(scope="module")
def fixture_cols(tmp_path_factory):
    table = generate_corpus(ROWS, 8, seed=42)
    doc_id = table["doc_id"].to_pylist()
    source = table["source"].to_pylist()
    return table, doc_id, source


def test_string_columns_size_and_parity(fixture_cols, tmp_path):
    table, doc_id, source = fixture_cols
    csv = str(tmp_path / "cols.csv")
    arcade = str(tmp_path / "cols.arcade")
    export_csv([doc_id, source], csv)
    ref_size = reference_compress(csv, arcade, ROWS, [0, 1])
    assert ref_size > 0

    # (a) reference round-trips its own file; values match the input
    rows = reference_scan(arcade, [0, 1])
    assert len(rows) == ROWS
    assert [r[0] for r in rows] == doc_id
    assert [r[1] for r in rows] == source

    # (b) our encode of the same two columns is smaller
    import pyarrow as pa

    sub = pa.table({"doc_id": table["doc_id"], "source": table["source"]})
    blob, manifest = encode_partition(sub, "oracle")
    ours = len(blob)
    assert ours <= ref_size, f"ours {ours} > reference {ref_size}"
    # and decodes bit-identical
    path = str(tmp_path / "ours.arcr")
    with open(path, "wb") as f:
        f.write(blob)
    out = decode_partition(path)
    assert out["doc_id"].to_pylist() == doc_id
    assert out["source"].to_pylist() == source


def test_tokens_column_size(fixture_cols, tmp_path):
    """Tokens as the reference sees them: stringified ints, one per row
    (FIXTURES.md §B). Our int-native encode of the same stream must
    undercut ARCADE's dictionary of decimal strings."""
    table, _, _ = fixture_cols
    import pyarrow as pa

    flat = table["tokens"].combine_chunks().flatten()
    flat = flat.slice(0, 500_000)
    vals = flat.to_pylist()
    csv = str(tmp_path / "tok.csv")
    arcade = str(tmp_path / "tok.arcade")
    export_csv([[str(v) for v in vals]], csv)
    ref_size = reference_compress(csv, arcade, len(vals), [0])

    rows = reference_scan(arcade, [0])
    assert [r[0] for r in rows] == [str(v) for v in vals]

    sub = pa.table({"tokens_flat": pa.array(vals, type=pa.int32())})
    blob, _ = encode_partition(sub, "tok")
    assert len(blob) <= ref_size, f"ours {len(blob)} > reference {ref_size}"


def test_read_side_parity_filter_and_random_access(fixture_cols, tmp_path):
    """The reference's own F (equi-filter) and R (random access) on its
    own compressed file must agree with OUR operators on our encoded
    file — read-side semantic parity, not just scan."""
    import pyarrow as pa

    from arcade_ray.pipeline.query import filter_partition, random_access
    from arcade_ray.reference_oracle import (
        reference_filter_count,
        reference_random_access,
    )

    table, doc_id, source = fixture_cols
    csv = str(tmp_path / "p.csv")
    arcade = str(tmp_path / "p.arcade")
    export_csv([doc_id, source], csv)
    reference_compress(csv, arcade, ROWS, [0, 1])

    sub = pa.table({"doc_id": table["doc_id"], "source": table["source"]})
    blob, row = encode_partition(sub, "parity")
    from arcade_ray.pipeline.encode import commit_partition
    import os

    out_dir = str(tmp_path / "enc")
    os.makedirs(out_dir + "/parts"), os.makedirs(out_dir + "/manifest")
    row = commit_partition(out_dir, "parity", blob, row)

    # equi-filter parity: match counts agree for several literals
    for literal in ("src-002", "src-007", "zzz-none"):
        ref_n = reference_filter_count(arcade, 1, literal, [0, 1])
        ours = filter_partition(row["path"], [("eq", "source", literal)],
                                ["source", "doc_id"])
        assert ours.num_rows == ref_n, literal
        expect = sum(1 for s in source if s == literal)
        assert ref_n == expect

    # random-access parity: same rows by global row id (our partition
    # preserves input order: single unsorted partition)
    ids = [0, 1, 57, ROWS - 1]
    ref_rows = reference_random_access(arcade, ids, [0, 1])
    ours = random_access(out_dir, ids, columns=["doc_id", "source"])
    ours_sorted = {r["row_id"]: (r["doc_id"], r["source"])
                   for r in ours.to_pylist()}
    assert len(ref_rows) == len(ids)
    for rid, rr in zip(ids, ref_rows):
        assert ours_sorted[rid] == (rr[0], rr[1]), rid


def test_low_cardinality_column_size(fixture_cols, tmp_path):
    """source alone — ARCADE's best case (small shared dict, 1-byte
    codes). Our bit-packed codes must still be <= its byte-aligned
    codes."""
    _, _, source = fixture_cols
    import pyarrow as pa

    csv = str(tmp_path / "src.csv")
    arcade = str(tmp_path / "src.arcade")
    export_csv([source], csv)
    ref_size = reference_compress(csv, arcade, ROWS, [0])
    sub = pa.table({"source": pa.array(source, type=pa.string())})
    blob, _ = encode_partition(sub, "src")
    assert len(blob) <= ref_size, f"ours {len(blob)} > reference {ref_size}"
