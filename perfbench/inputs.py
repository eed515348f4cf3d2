"""Seeded benchmark inputs: the token corpus and TPC-H-style tables.

Everything here is a pure function of the seed, so two runs with the
same seed hand the program byte-identical inputs.
"""

from __future__ import annotations

import datetime
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# corpus: zipf-skewed sources cycling the five token regimes
CORPUS_ROWS = 40_000
CORPUS_SOURCES = 16
CORPUS_FILES = 4

# TPC-H-style tables at about 1/50 of the sf0.1 fixture
N_CUSTOMERS = 3_000
N_ORDERS = 30_000
SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY")
PRIORITIES = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW")


EDGE_ROWS = 4  # generate_corpus puts its edge-case rows first


def corpus_table(seed: int) -> pa.Table:
    """The seeded corpus, with its edge-case rows (a max-length list, a
    list holding 0 and 2**31 - 1, ...) moved into the hottest source,
    src-000, and given that source's token regime (values in [0, 256))
    except for the fixed edge values. Otherwise the seed decides which
    partition carries those rows and which regime fills the max-length
    list: that changes the codec choice of the partition they land in
    (src-000: 257 to 8450 distinct values, scan 2x slower), so runs
    would differ by seed in the work they measure."""
    from arcade_ray.corpus import generate_corpus

    t = generate_corpus(CORPUS_ROWS, CORPUS_SOURCES, seed=seed)
    source = t["source"].to_pylist()
    doc_id = t["doc_id"].to_pylist()
    for i in range(EDGE_ROWS):
        source[i] = "src-000"
        doc_id[i] = f"src-000:{i:012d}"
    tokens = t["tokens"].combine_chunks()
    offsets = tokens.offsets.to_numpy()
    values = tokens.values.to_numpy().copy()
    # rows 0 (one token) and 1 (max length) carry their original
    # source's regime; rows 2 (all 7) and 3 ([0, 2**31 - 1]) are fixed
    rng = np.random.default_rng([seed, 99])
    values[offsets[0]:offsets[2]] = rng.integers(0, 256, offsets[2] - offsets[0])
    tokens = pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()),
                                      pa.array(values, type=pa.int32()))
    for name, col in (("source", pa.array(source)), ("doc_id", pa.array(doc_id)),
                      ("tokens", tokens)):
        t = t.set_column(t.column_names.index(name), name, col)
    return t


def write_corpus(table: pa.Table, out_dir: str) -> str:
    """Write the corpus as a few parquet shards (parallel read)."""
    os.makedirs(out_dir, exist_ok=True)
    per = -(-table.num_rows // CORPUS_FILES)
    for i in range(CORPUS_FILES):
        part = table.slice(i * per, per)
        if part.num_rows:
            pq.write_table(part, os.path.join(out_dir, f"part-{i:04d}.parquet"),
                           row_group_size=4096)
    return out_dir


STREAM_VALUES = 1_000_000
STREAM_STRINGS = 100_000
INT_STREAMS = ("narrow", "clustered", "runs", "zipf", "random")
STR_STREAMS = ("doc_id", "source")


def int_stream(regime: str, seed: int) -> np.ndarray:
    """One token-value stream per corpus regime, as the int64 values the
    column encoder hands to the codecs."""
    rng = np.random.default_rng([seed, INT_STREAMS.index(regime)])
    n = STREAM_VALUES
    if regime == "narrow":
        v = rng.integers(0, 256, n)
    elif regime == "clustered":
        v = 50_000 + rng.integers(0, 1024, n)
    elif regime == "runs":
        v = np.repeat(rng.integers(0, 4096, n), rng.geometric(1 / 32, n))[:n]
    elif regime == "zipf":
        v = np.minimum(rng.zipf(1.3, n), 32_000) - 1
    else:
        v = rng.integers(0, 2**31 - 1, n)
    return v.astype(np.int64)


def str_stream(kind: str, seed: int) -> tuple[np.ndarray, bytes]:
    """(lengths, data): sorted shared-prefix doc ids of one source, or
    zipf-skewed low-cardinality source names."""
    rng = np.random.default_rng([seed, 16 + STR_STREAMS.index(kind)])
    n = STREAM_STRINGS
    if kind == "doc_id":
        ids = np.sort(rng.choice(40 * n, n, replace=False))
        vals = [f"src-007:{i:012d}" for i in ids]
    else:
        idx = np.minimum(rng.zipf(1.5, n), CORPUS_SOURCES) - 1
        vals = [f"src-{i:03d}" for i in idx]
    enc = [s.encode() for s in vals]
    return np.array([len(s) for s in enc], dtype=np.int64), b"".join(enc)


def tpch_tables(seed: int) -> dict[str, pa.Table]:
    """customer / orders / lineitem with the schema of the sf fixtures."""
    rng = np.random.default_rng(seed)
    nc, no = N_CUSTOMERS, N_ORDERS
    customer = pa.table({
        "c_custkey": pa.array(np.arange(nc, dtype=np.int64)),
        "c_name": pa.array([f"Customer#{i:09d}" for i in range(nc)]),
        "c_nationkey": pa.array(rng.integers(0, 25, nc, dtype=np.int32)),
        "c_acctbal": pa.array(np.round(rng.uniform(-999.99, 9999.99, nc), 2)),
        "c_mktsegment": pa.array(np.array(SEGMENTS)[rng.integers(0, 5, nc)]),
    })
    day0 = np.datetime64(datetime.datetime(1995, 1, 1), "us")
    odate = day0 + rng.integers(0, 2404, no).astype("timedelta64[D]")
    orders = pa.table({
        "o_orderkey": pa.array(np.arange(no, dtype=np.int64)),
        "o_custkey": pa.array(rng.integers(0, nc, no, dtype=np.int64)),
        "o_orderstatus": pa.array(np.array(["F", "O", "P"])[rng.integers(0, 3, no)]),
        "o_totalprice": pa.array(np.round(rng.uniform(900, 500_000, no), 2)),
        "o_orderdate": pa.array(odate.astype("datetime64[us]")),
        "o_orderpriority": pa.array(np.array(PRIORITIES)[rng.integers(0, 5, no)]),
    })
    per_order = rng.integers(1, 8, no)
    nl = int(per_order.sum())
    okey = np.repeat(np.arange(no, dtype=np.int64), per_order)
    linenum = (np.arange(nl) - np.repeat(np.cumsum(per_order) - per_order,
                                         per_order) + 1).astype(np.int32)
    perm = rng.permutation(nl)  # shuffled row order, like the fixtures
    qty = rng.integers(1, 51, nl).astype(np.float64)
    ship = np.repeat(odate, per_order) + rng.integers(1, 122, nl).astype(
        "timedelta64[D]")
    lineitem = pa.table({
        "l_orderkey": pa.array(okey[perm]),
        "l_partkey": pa.array(rng.integers(0, 20_000, nl, dtype=np.int64)),
        "l_suppkey": pa.array(rng.integers(0, 1_000, nl, dtype=np.int64)),
        "l_linenumber": pa.array(linenum[perm]),
        "l_quantity": pa.array(qty),
        "l_extendedprice": pa.array(np.round(qty * rng.uniform(900, 2100, nl), 2)),
        "l_discount": pa.array(rng.integers(0, 11, nl) / 100.0),
        "l_tax": pa.array(rng.integers(0, 9, nl) / 100.0),
        "l_returnflag": pa.array(np.array(["A", "N", "R"])[rng.integers(0, 3, nl)]),
        "l_linestatus": pa.array(np.array(["F", "O"])[rng.integers(0, 2, nl)]),
        "l_shipdate": pa.array(ship[perm].astype("datetime64[us]")),
    })
    return {"customer": customer, "orders": orders, "lineitem": lineitem}


def write_tpch(tables: dict[str, pa.Table], sf_dir: str) -> str:
    os.makedirs(sf_dir, exist_ok=True)
    for name, t in tables.items():
        pq.write_table(t, os.path.join(sf_dir, f"{name}.parquet"))
    return sf_dir
