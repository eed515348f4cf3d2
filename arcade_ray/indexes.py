"""The persisted-index protocol of the five build/query index pairs:
exact dedup, MinHash, SimHash and edit distance (:mod:`.textops`) and
IVF (:mod:`.ann`).

An index dir keeps its data in named subdirs (plain parquet, or hive
shards ``key=S/``) beside one commit marker, ``meta.json``, holding the
build parameters and the hash version. :func:`begin` removes the marker
before the old data, :func:`commit` writes it last (tmp +
``os.replace``), so a build stopped at any point leaves no marker and
:func:`open` refuses the dir. This module is the one place that writes,
removes or reads a marker."""

from __future__ import annotations

import builtins
import json
import os
import shutil

import numpy as np
import pyarrow.parquet as pq

from .hashing import HASH_VERSION

MARKER = "meta.json"
# the exact-dedup index's marker before it moved to the shared layout
LEGACY_MARKER = "_index_meta.json"


def begin(index_dir: str, subdirs) -> None:
    """Start a build: remove the marker, then the named ``subdirs``
    (nothing else), so a rebuild never mixes old and new shards."""
    os.makedirs(index_dir, exist_ok=True)
    marker = os.path.join(index_dir, MARKER)
    if os.path.exists(marker):
        os.remove(marker)
    for sub in subdirs:
        if os.path.isdir(os.path.join(index_dir, sub)):
            shutil.rmtree(os.path.join(index_dir, sub))


def commit(index_dir: str, meta: dict, counted: str) -> int:
    """Finish a build: write ``meta`` plus the hash version as the
    marker, the build's single commit point. -> the rows of the parquet
    files under subdir ``counted``, summed from their footers."""
    rows = 0
    for root, _, files in os.walk(os.path.join(index_dir, counted)):
        rows += sum(pq.read_metadata(os.path.join(root, f)).num_rows
                    for f in files if f.endswith(".parquet"))
    marker = os.path.join(index_dir, MARKER)
    tmp = f"{marker}.tmp.{os.getpid()}"
    with builtins.open(tmp, "w") as f:
        json.dump({**meta, "hash_version": HASH_VERSION}, f)
    os.replace(tmp, marker)
    return rows


def open(index_dir: str, **expect) -> dict:
    """The marker of a committed index. Raises FileNotFoundError when
    there is none (no build, or one stopped before :func:`commit`) and
    ValueError when the index was built under another hash version,
    with a parameter other than ``expect`` names, or in the exact-dedup
    layout that predates ``meta.json``."""
    marker = os.path.join(index_dir, MARKER)
    if not os.path.exists(marker) and \
            os.path.exists(os.path.join(index_dir, LEGACY_MARKER)):
        raise ValueError(
            f"{index_dir} holds an exact-dedup index in the layout "
            f"before {MARKER}: rebuild it with build_dedup_index")
    with builtins.open(marker) as f:
        meta = json.load(f)
    if meta.get("hash_version") != HASH_VERSION:
        raise ValueError(
            f"index at {index_dir} was built with hash version "
            f"{meta.get('hash_version')}, current is {HASH_VERSION}: "
            "rebuild the index (probing would silently miss duplicates)")
    for k, v in expect.items():
        if meta.get(k) != v:
            raise ValueError(
                f"index at {index_dir} was built with {k}="
                f"{meta.get(k)!r}, not {v!r}: rebuild the index")
    return meta


def shard_of(keys, n_shards: int) -> np.ndarray:
    """The shard of each int64 key, in [0, ``n_shards``) for negative
    keys too (numpy's ``%`` takes the divisor's sign)."""
    return np.asarray(keys, dtype=np.int64) % n_shards


def shard_files(root: str, shards, key: str = "shard") -> list[str]:
    """The parquet files of the hive partitions ``root/key=S`` for the
    distinct S in ``shards``, by shard then name; absent ones skip."""
    out = []
    for s in sorted({int(s) for s in shards}):
        d = os.path.join(root, f"{key}={s}")
        if os.path.isdir(d):
            out.extend(os.path.join(d, f) for f in sorted(os.listdir(d))
                       if f.endswith(".parquet"))
    return out
