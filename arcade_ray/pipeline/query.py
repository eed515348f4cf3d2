"""Query operators over the encoded format: scan with projection,
row filters on compressed data, random access.

Ray Data translations of the reference's three read operators
(SURVEY.md §2.1 rows 8-11):

- ``scan``          <- ArcadeReader::scan (src/reader.cpp:146-195)
- ``compound_filter`` <- ArcadeReader::equi_filter + filter_page
                       (src/reader.cpp:7-66, src/process.cpp:182-422),
                       generalised to AND/OR/NOT trees of predicate
                       leaves: manifest zone-map and Bloom pruning,
                       then per-chunk zone pruning; equality resolves
                       the literal to a dictionary code once per dict
                       epoch and compares fixed-width codes without
                       materializing strings; a root-AND equality
                       column is backfilled from the literal
                       (src/process.cpp:406-413). ``equi_filter``,
                       ``range_filter``, ``lookup`` and the LIKE/IN
                       helpers are one-leaf calls of it, and
                       :func:`filter_partition` is its only
                       per-partition row filter.
- ``random_access`` <- ArcadeReader::random_access
                       (src/reader.cpp:69-143): global row-id ->
                       (partition, chunk, offset) via manifest prefix
                       sums + header chunk_rows; only touched chunks
                       decode.

Per-partition reads run as one stateless Ray task per contiguous group
of partitions (``decode.map_partitions`` sets the group count); results
stream.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..codecs.str_codecs import decode_codes
from ..column import make_column_decoder
from ..format import decode_partition, read_exact, read_header
from .decode import map_partitions
from .encode import load_manifest


def _sidecar_empty(out_dir: str, columns: list[str]) -> pa.Table:
    """Typed zero-row result for a ZERO-PARTITION encoded dir (empty
    input shard) via the _schema.arrows sidecar; raises
    FileNotFoundError on pre-sidecar empty dirs, matching scan()."""
    from .encode import read_schema_sidecar

    sch = read_schema_sidecar(out_dir)
    if sch is None:
        raise FileNotFoundError(f"no committed partitions under {out_dir}")
    missing = [c for c in columns if c not in sch.names]
    if missing:
        raise KeyError(
            f"columns {missing} not in encoded schema {sch.names}")
    return pa.table({c: pa.array([], type=sch.field(c).type)
                     for c in columns})


def _manifest_paths(out_dir: str) -> list[dict]:
    m = load_manifest(out_dir)
    return m.to_pylist()


def _literal_bloom_hashes(cm: dict, literals: list):
    """64-bit hashes of equality literals, in one vectorised call, in
    the SAME domain the column encoders hashed (hash_strings over utf8
    bytes for string kinds, hash_ints over the int64 stream value for
    int/temporal tags), for probing the partition Bloom filters in the
    manifest. None when some literal's kind/tag combination has no
    reliable mapping (floats, lists, non-int literals) — callers then
    skip Bloom pruning, which is always safe."""
    kind, tag = cm.get("kind"), cm.get("tag")
    if kind == "str" and all(isinstance(v, (str, bytes)) for v in literals):
        from ..hashing import hash_strings

        bs = [v.encode() if isinstance(v, str) else v for v in literals]
        return hash_strings(np.array([len(b) for b in bs], np.int64),
                            b"".join(bs))
    if kind == "int" and tag not in ("f32", "f64", "u64") and all(
            isinstance(v, (int, np.integer)) and not isinstance(v, bool)
            and -(2**63) <= int(v) < 2**63 for v in literals):
        from ..hashing import hash_ints

        return hash_ints(np.array([int(v) for v in literals], np.int64))
    return None


def _bloom_excludes(stats: dict, hashes) -> bool:
    """True -> the manifest Bloom filter proves every hashed literal
    absent from this partition (no bloom / no hashes -> never
    excludes)."""
    bloom = stats.get("bloom")
    if bloom is None or hashes is None or len(hashes) == 0:
        return False
    from ..hashing import HASH_VERSION

    if stats.get("hv") != HASH_VERSION:
        # bloom built under an older hash function: probing it with
        # current hashes would FALSELY prove absence — never prune
        return False
    from ..sketches import bloom_maybe_contains

    return not bloom_maybe_contains(bloom, hashes).any()


def _manifest_prunable(header: dict, col: str) -> bool:
    """Whether manifest min/max zone stats can prune on this column:
    float columns store IEEE-754 bit patterns (not value order) and
    list columns store flattened element bounds — neither orders like
    the query literal, mirroring the chunk-level ``prunable`` guard."""
    cm = header["columns"][col]
    return cm["kind"] != "list" and cm.get("tag") not in ("f32", "f64")


def scan(out_dir: str, columns: list[str] | None = None,
         generation: str | None = None):
    """Full scan with projection -> ray.data.Dataset (streaming).
    ``generation`` restricts to one append generation ("" = base)."""
    from .decode import decode_dataset

    return decode_dataset(out_dir, columns=columns, generation=generation)


def sorted_scan(out_dir: str, by, columns: list[str] | None = None,
                descending: bool = False):
    """Globally ORDERED scan: decode-stream the projection, then Ray
    Data's distributed sort (sample -> range-partition shuffle ->
    per-range sort; one all-to-all exchange, blocks emitted in key
    order). Use :func:`topk_rows` when only the head/a page is needed
    — it never shuffles. ``by``: column name or list of names.
    Reference roadmap item "sort" (/root/reference/README.md Features
    list)."""
    return scan(out_dir, columns=columns).sort(by, descending=descending)


# ---------------------------------------------------------------------------
# equi-filter on compressed data
# ---------------------------------------------------------------------------

def _zone_skip(desc: dict, literal) -> bool:
    lo, hi = desc.get("min"), desc.get("max")
    if lo is not None and literal < lo:
        return True
    if hi is not None and literal > hi:
        return True
    return False


def _none_in_zone(lits: list, lo, hi) -> bool:
    """Whether no member of the SORTED ``lits`` lies in [lo, hi]
    (None = unbounded on that side): one bisect, not a member loop."""
    import bisect

    i = 0 if lo is None else bisect.bisect_left(lits, lo)
    return i == len(lits) or (hi is not None and lits[i] > hi)


def _equi_match_idx(path: str, header: dict, base: int, col: str,
                    literal) -> list:
    """Per-chunk row indices matching ``col == literal`` (None = chunk
    zone-skipped), computed without decoding dictionary chunk values
    (code-domain compare, reference src/process.cpp:241-299,361-400)."""
    cm = header["columns"][col]
    chunks = cm["chunks"]
    n_chunks = len(chunks)
    match_idx: list[np.ndarray | None] = [None] * n_chunks

    with open(path, "rb") as f:
        if cm["kind"] == "str":
            dec = make_column_decoder(cm)
            sdec = dec._str
            lit_code = -1
            lit_code_dict_size = 0  # dict size when lit_code was resolved
            for i, ch in enumerate(chunks):
                mode = ch.get("mode")
                if _zone_skip(ch, literal):
                    lo, hi = dec.advance_range(ch)
                    if hi > lo:
                        f.seek(base + ch["off"] + lo)
                        dec.advance(ch, read_exact(f, hi - lo, col))
                        lit_code, lit_code_dict_size = -1, 0
                    continue
                f.seek(base + ch["off"])
                payload = read_exact(f, ch["nb"], col)
                if mode == "plain" or ch.get("vb"):
                    # plain chunks, and any null-bearing chunk (nulls
                    # encode as "" in the dictionary — a code compare
                    # would wrongly match empty-string literals), go
                    # through the full decode with validity applied
                    arr = dec.decode(ch, payload)
                    mask = pc.fill_null(pc.equal(arr, literal), False)
                    match_idx[i] = np.flatnonzero(
                        mask.to_numpy(zero_copy_only=False)
                    )
                    if mode == "plain":
                        lit_code, lit_code_dict_size = -1, 0
                    elif mode == "local":
                        lit_code, lit_code_dict_size = -1, 0
                    continue
                # dict chunk: advance dict, resolve literal once per
                # epoch/dict growth (memoized like reference `offset`,
                # src/reader.cpp:22)
                sdec.advance_dict(ch, payload)
                d_total = ch["d_total"]
                if mode == "local":
                    lit_code, lit_code_dict_size = -1, 0
                if lit_code < 0 and d_total > lit_code_dict_size:
                    pool = _dict_pool(sdec)
                    lit_bytes = literal.encode() if isinstance(literal, str) else bytes(literal)
                    found = pc.index_in(
                        pa.array([lit_bytes], type=pa.large_binary()),
                        value_set=pool,
                    )[0].as_py()
                    lit_code = -1 if found is None else int(found)
                    lit_code_dict_size = d_total
                if lit_code < 0:
                    continue
                codes = decode_codes(
                    ch["ccodec"], payload[ch["vlen"]:], ch["cmeta"]
                )
                match_idx[i] = np.flatnonzero(codes == lit_code)
        else:
            # int-family column: decode per chunk (cheap fixed-width
            # kernels) with zone-map skipping
            dec = make_column_decoder(cm)
            # float zone maps hold IEEE bit patterns — not ordered like
            # the values; skip pruning for floats
            prunable = cm["tag"] not in ("f32", "f64") and cm["kind"] != "list"
            lit_val = _int_literal(literal, cm["tag"]) if prunable else None
            for i, ch in enumerate(chunks):
                if prunable and ch.get("min") is not None and not (
                    ch["min"] <= lit_val <= ch["max"]
                ):
                    continue
                f.seek(base + ch["off"])
                arr = dec.decode(ch, read_exact(f, ch["nb"], col))
                if pa.types.is_timestamp(arr.type) or \
                        pa.types.is_duration(arr.type):
                    arr = arr.cast(pa.int64())  # epoch-unit int compare
                    literal = lit_val if lit_val is not None else literal
                mask = pc.fill_null(pc.equal(arr, literal), False)
                match_idx[i] = np.flatnonzero(mask.to_numpy(zero_copy_only=False))
    return match_idx


def _project_matches(path: str, header: dict, match_idx: list,
                     project: list[str],
                     backfill: dict | None = None) -> pa.Table:
    """Materialize the projected columns for per-chunk match indices:
    only touched chunks decode; equality-predicate columns in
    ``backfill`` are filled from the literal constant instead of
    decoding (reference src/process.cpp:406-413)."""
    backfill = backfill or {}
    touched = [m is not None and len(m) > 0 for m in match_idx]
    if not any(touched):
        return _empty_projection(header, project)
    # fused filter-projection gather: only touched chunks decode, and
    # within them only the matching rows materialize (reference
    # get_column_value, src/process.cpp:4-180 — vectorized)
    other = [c for c in project if c not in backfill]
    n_match = int(sum(len(m) for m in match_idx if m is not None))
    cols: dict[str, pa.Array] = {}
    if other:
        sub = decode_partition(path, columns=other, chunk_mask=touched,
                               row_sel=match_idx)
        for name in other:
            cols[name] = sub[name].combine_chunks()
    for col, literal in backfill.items():
        if col in project:
            cm = header["columns"][col]
            cols[col] = pa.array([literal] * n_match).cast(_col_type(cm))
    return pa.table({name: cols[name] for name in project})


def _chunk_rows(header: dict, i: int) -> int:
    return header["chunk_rows"][i][1]


def _dict_pool(sdec) -> pa.Array:
    u_offsets = np.empty(len(sdec.u_lengths) + 1, dtype=np.int64)
    u_offsets[0] = 0
    np.cumsum(sdec.u_lengths, out=u_offsets[1:])
    return pa.LargeBinaryArray.from_buffers(
        pa.large_binary(), len(sdec.u_lengths),
        [None, pa.py_buffer(u_offsets.tobytes()), pa.py_buffer(sdec.u_data)],
    )


def _int_literal(literal, tag: str):
    if tag in ("f32", "f64"):
        return literal
    return int(literal)


def _col_type(cm: dict) -> pa.DataType:
    from ..streams import tag_type

    if cm["kind"] == "list":
        return pa.list_(tag_type(cm["elem_tag"]))
    return tag_type(cm["tag"])


def _empty_projection(header: dict, project: list[str]) -> pa.Table:
    cols = {}
    for name in project:
        cm = header["columns"][name]
        cols[name] = pa.array([], type=_col_type(cm))
    return pa.table(cols)


def equi_filter(out_dir: str, col: str, literal, project: list[str]):
    """``col == literal`` -> ray.data.Dataset of projected matching
    rows; the one-leaf :func:`compound_filter`. Partitions whose
    manifest zone map or Bloom filter excludes the literal never spawn
    a task (reference minmax block skipping, src/process.cpp:256-263),
    and ``col`` is backfilled from the literal instead of decoded."""
    return compound_filter(out_dir, [("eq", col, literal)], project)


def range_filter(out_dir: str, col: str, lo, hi, project: list[str]):
    """``lo <= col <= hi`` with manifest + chunk zone-map pruning (the
    reference lists range predicates as roadmap, README.md:129; our
    sorted dictionaries + zone maps make them natural). Fully-inside
    chunks skip the per-row compare entirely. Either bound may be None
    (unbounded)."""
    return compound_filter(out_dir, [("between", col, lo, hi)], project)


def _range_match_idx(path: str, header: dict, base: int, col: str,
                     lo, hi) -> list:
    """Per-chunk row indices with ``lo <= col <= hi`` (None = chunk
    zone-excluded); fully-inside chunks skip the per-row compare.
    Either bound may be None = unbounded on that side (how the SQL
    frontend compiles ``>=`` / ``<=``; strict bounds arrive as
    closed-integer or NOT-complement rewrites)."""
    cm = header["columns"][col]
    chunks = cm["chunks"]
    prunable = cm["kind"] != "list" and cm.get("tag") not in ("f32", "f64")
    dec = make_column_decoder(cm)
    match_idx: list[np.ndarray | None] = [None] * len(chunks)
    with open(path, "rb") as f:
        for i, ch in enumerate(chunks):
            zlo, zhi = ch.get("min"), ch.get("max")
            if prunable and zlo is not None and zhi is not None and (
                (hi is not None and hi < zlo)
                or (lo is not None and lo > zhi)
            ):
                rlo, rhi = dec.advance_range(ch)
                if rhi > rlo:
                    f.seek(base + ch["off"] + rlo)
                    dec.advance(ch, read_exact(f, rhi - rlo, col))
                continue
            f.seek(base + ch["off"])
            arr = dec.decode(ch, read_exact(f, ch["nb"], col))
            if prunable and not ch.get("vb") and zlo is not None \
                    and zhi is not None \
                    and (lo is None or lo <= zlo) \
                    and (hi is None or zhi <= hi):
                # chunk fully inside the range: no per-row compare.
                # Null-bearing chunks are excluded — null slots are
                # zero-filled before zone stats, so "fully inside"
                # would wrongly return NULL rows as matches.
                match_idx[i] = np.arange(len(arr))
                continue
            if pa.types.is_timestamp(arr.type) or \
                    pa.types.is_duration(arr.type):
                # zone stats and int literals are epoch-unit int64;
                # compare in that domain (zero-copy view)
                arr = arr.cast(pa.int64())
            if lo is None and hi is None:
                mask = pc.is_valid(arr)
            elif lo is None:
                mask = pc.less_equal(arr, hi)
            elif hi is None:
                mask = pc.greater_equal(arr, lo)
            else:
                mask = pc.and_(pc.greater_equal(arr, lo),
                               pc.less_equal(arr, hi))
            mask = pc.fill_null(mask, False)
            match_idx[i] = np.flatnonzero(mask.to_numpy(zero_copy_only=False))
    return match_idx


def _member_match_idx(path: str, header: dict, base: int, node) -> list:
    """Per-chunk row indices for set/pattern membership leaves —
    ``("in", col, values)`` / ``("prefix", col, p)`` /
    ``("contains", col, needle)`` — computed without decoding
    dictionary chunk values: the predicate runs ONCE over each new
    dictionary segment (each dict entry is tested exactly once per
    partition, incrementally as the shared dict grows), and rows match
    via ``np.isin`` on the bit-unpacked codes. Extends the reference's
    code-domain equality compare (src/process.cpp:241-299) to IN-lists
    and LIKE 'p%' / LIKE '%s%' patterns."""
    op, col = node[0], node[1]
    cm = header["columns"][col]
    chunks = cm["chunks"]
    match_idx: list[np.ndarray | None] = [None] * len(chunks)

    if cm["kind"] == "list":
        raise TypeError(f"{op!r} predicate over list column {col!r}")
    if cm["kind"] != "str":
        if op != "in":
            raise TypeError(f"{op!r} predicate needs a string column, "
                            f"got {col!r} ({cm['tag']})")
        values = node[2]
        dec = make_column_decoder(cm)
        prunable = cm["tag"] not in ("f32", "f64")
        lit_vals = sorted(_int_literal(v, cm["tag"]) for v in values) \
            if prunable else None
        with open(path, "rb") as f:
            for i, ch in enumerate(chunks):
                if prunable and ch.get("min") is not None and \
                        _none_in_zone(lit_vals, ch["min"], ch["max"]):
                    continue
                f.seek(base + ch["off"])
                arr = dec.decode(ch, read_exact(f, ch["nb"], col))
                vset = pa.array(values).cast(arr.type)
                mask = pc.fill_null(pc.is_in(arr, value_set=vset), False)
                match_idx[i] = np.flatnonzero(
                    mask.to_numpy(zero_copy_only=False))
        return match_idx

    # string column: dict-segment predicate + code-domain membership
    if op == "in":
        lit_set = pa.array(
            sorted({v.encode() if isinstance(v, str) else bytes(v)
                    for v in node[2]}), type=pa.large_binary())

        def pool_match(tail: pa.Array) -> pa.Array:
            return pc.is_in(tail, value_set=lit_set)

        def arr_match(arr: pa.Array) -> pa.Array:
            return pc.is_in(arr, value_set=lit_set.cast(arr.type))

        lits = sorted(node[2])

        def chunk_skip(ch: dict) -> bool:
            return _none_in_zone(lits, ch.get("min"), ch.get("max"))
    elif op == "prefix":
        p, upper = node[2], _prefix_upper(node[2])

        def pool_match(tail: pa.Array) -> pa.Array:
            return pc.starts_with(tail.cast(pa.large_utf8()), pattern=p)

        def arr_match(arr: pa.Array) -> pa.Array:
            return pc.starts_with(arr, pattern=p)

        def chunk_skip(ch: dict) -> bool:
            lo, hi = ch.get("min"), ch.get("max")
            if lo is None or hi is None:
                return False
            return hi < p or (upper is not None and lo >= upper)
    elif op == "suffix":
        s = node[2]

        def pool_match(tail: pa.Array) -> pa.Array:
            return pc.ends_with(tail.cast(pa.large_utf8()), pattern=s)

        def arr_match(arr: pa.Array) -> pa.Array:
            return pc.ends_with(arr, pattern=s)

        def chunk_skip(ch: dict) -> bool:
            return False
    elif op == "regex":
        pat = node[2]

        def pool_match(tail: pa.Array) -> pa.Array:
            return pc.match_substring_regex(tail.cast(pa.large_utf8()),
                                            pattern=pat)

        def arr_match(arr: pa.Array) -> pa.Array:
            return pc.match_substring_regex(arr, pattern=pat)

        def chunk_skip(ch: dict) -> bool:
            return False
    else:  # contains
        needle = node[2]

        def pool_match(tail: pa.Array) -> pa.Array:
            return pc.match_substring(tail.cast(pa.large_utf8()),
                                      pattern=needle)

        def arr_match(arr: pa.Array) -> pa.Array:
            return pc.match_substring(arr, pattern=needle)

        def chunk_skip(ch: dict) -> bool:
            return False

    dec = make_column_decoder(cm)
    sdec = dec._str
    codes_set: np.ndarray | None = np.empty(0, dtype=np.int64)
    resolved = 0  # dict entries already tested (codes are append-stable)
    with open(path, "rb") as f:
        for i, ch in enumerate(chunks):
            mode = ch.get("mode")
            if chunk_skip(ch):
                lo, hi = dec.advance_range(ch)
                if hi > lo:
                    f.seek(base + ch["off"] + lo)
                    dec.advance(ch, read_exact(f, hi - lo, col))
                    codes_set, resolved = None, 0  # dict moved under us
                continue
            f.seek(base + ch["off"])
            payload = read_exact(f, ch["nb"], col)
            if mode == "plain" or ch.get("vb"):
                # plain chunks and null-bearing chunks (nulls encode as
                # "" in the dictionary) take the full-decode path
                arr = dec.decode(ch, payload)
                mask = pc.fill_null(arr_match(arr), False)
                match_idx[i] = np.flatnonzero(
                    mask.to_numpy(zero_copy_only=False))
                if mode in ("plain", "local"):
                    codes_set, resolved = None, 0
                continue
            sdec.advance_dict(ch, payload)
            if mode == "local":
                codes_set, resolved = None, 0
            if codes_set is None:
                codes_set, resolved = np.empty(0, dtype=np.int64), 0
            d_total = ch["d_total"]
            if d_total > resolved:
                pool = _dict_pool(sdec)
                tail_mask = pool_match(pool.slice(resolved))
                new = np.flatnonzero(
                    tail_mask.to_numpy(zero_copy_only=False)) + resolved
                codes_set = np.concatenate([codes_set, new])
                resolved = d_total
            if len(codes_set) == 0:
                continue
            codes = decode_codes(ch["ccodec"], payload[ch["vlen"]:],
                                 ch["cmeta"])
            match_idx[i] = np.flatnonzero(np.isin(codes, codes_set))
    return match_idx


def in_filter(out_dir: str, col: str, values, project: list[str]):
    """``col IN (values)`` over encoded data -> ray.data.Dataset.
    Dictionary columns resolve the whole IN-list against each dict
    segment once and compare codes; int columns prune chunks whose
    zone excludes every member."""
    return compound_filter(out_dir, ("in", col, list(values)), project)


def prefix_filter(out_dir: str, col: str, prefix: str, project: list[str]):
    """``col LIKE 'prefix%'`` over encoded data -> ray.data.Dataset.
    Partitions/chunks prune via zone maps against [prefix, upper);
    dictionary chunks match the dict segment, never row values."""
    return compound_filter(out_dir, ("prefix", col, prefix), project)


def contains_filter(out_dir: str, col: str, needle: str,
                    project: list[str]):
    """``col LIKE '%needle%'`` over encoded data -> ray.data.Dataset.
    No zone pruning is possible, but dictionary chunks still evaluate
    the substring match on dict entries only (decode-free)."""
    return compound_filter(out_dir, ("contains", col, needle), project)


def suffix_filter(out_dir: str, col: str, suffix: str, project: list[str]):
    """``col LIKE '%suffix'`` over encoded data -> ray.data.Dataset.
    Dictionary chunks evaluate ends_with on dict entries only."""
    return compound_filter(out_dir, ("suffix", col, suffix), project)


def regex_filter(out_dir: str, col: str, pattern: str,
                 project: list[str]):
    """``regexp_matches(col, pattern)`` (RE2 partial match) over
    encoded data -> ray.data.Dataset. Dictionary chunks run the regex
    over dict entries only — each distinct value is tested once per
    partition, not once per row."""
    return compound_filter(out_dir, ("regex", col, pattern), project)


def dict_distinct_values(out_dir: str, col: str) -> pa.Table:
    """DISTINCT values of a string column WITHOUT decoding any row:
    dictionary chunks contribute their dict segments only (codes are
    never unpacked); plain chunks fall back to a value scan. One task
    per partition emits its distinct set; the driver unions the tiny
    sets."""
    import ray

    rows = _manifest_paths(out_dir)

    @ray.remote
    def part_distinct(path: str) -> set:
        from ..codecs.str_codecs import decode_codes, decode_str_values
        from ..column import StringColumnDecoder
        from .encode import _pin_arrow_threads

        _pin_arrow_threads()
        header, base = read_header(path)
        cm = header["columns"][col]
        if cm["kind"] != "str":
            raise TypeError("dict_distinct_values is for string columns")
        out: set = set()
        sdec = StringColumnDecoder(cm["tag"])
        with open(path, "rb") as f:
            for ch in cm["chunks"]:
                f.seek(base + ch["off"])
                if ch["mode"] != "plain" and not ch.get("nulls"):
                    # null-free dict chunk: dict segment only — codes
                    # never unpack
                    payload = read_exact(f, ch["nb"], col)
                    sdec.advance_dict(ch, payload)
                    lengths, data = decode_str_values(
                        ch["vcodec"], payload[:ch["vlen"]], ch["vmeta"])
                elif ch["mode"] != "plain":
                    # null-bearing dict chunk: the '' placeholder lives
                    # in the dictionary, so only entries referenced by
                    # VALID rows are real values (codes unpack; row
                    # strings never materialize)
                    payload = read_exact(f, ch["nb"], col)
                    payload, valid = _chunk_validity(ch, payload)
                    sdec.advance_dict(ch, payload)
                    out.add(None)
                    codes = decode_codes(ch["ccodec"],
                                         payload[ch["vlen"]:], ch["cmeta"])
                    used = np.unique(codes[valid]) if valid is not None \
                        else np.unique(codes)
                    u = np.empty(len(sdec.u_lengths) + 1, dtype=np.int64)
                    u[0] = 0
                    np.cumsum(sdec.u_lengths, out=u[1:])
                    for c in used.tolist():
                        out.add(sdec.u_data[u[c]: u[c + 1]].decode("utf-8"))
                    continue
                else:
                    payload = read_exact(f, ch["nb"], col)
                    payload, valid = _chunk_validity(ch, payload)
                    sdec.advance_dict(ch, payload)
                    lengths, data = decode_str_values(
                        ch["codec"], payload, ch["meta"])
                    if valid is not None:
                        out.add(None)
                        offs = np.empty(len(lengths) + 1, dtype=np.int64)
                        offs[0] = 0
                        np.cumsum(lengths, out=offs[1:])
                        for i in np.flatnonzero(valid).tolist():
                            out.add(data[offs[i]: offs[i + 1]]
                                    .decode("utf-8"))
                        continue
                offs = np.empty(len(lengths) + 1, dtype=np.int64)
                offs[0] = 0
                np.cumsum(lengths, out=offs[1:])
                for i in range(len(lengths)):
                    out.add(data[offs[i]: offs[i + 1]].decode("utf-8"))
        return out

    union: set = set()
    for s in ray.get([part_distinct.remote(r["path"]) for r in rows]):
        union |= s
    vals = _sorted_nulls_last(union)
    return pa.table({col: pa.array(vals, type=pa.string())})


def stats_meta(out_dir: str, cols: list[str]) -> dict:
    """Exact global MIN/MAX per column plus COUNT(*) computed from the
    MANIFEST ALONE — no partition data bytes are read. The zone maps
    are exact (built from the values at encode time), so for prunable
    columns the merged manifest bounds ARE the answer; at 100-TB scale
    this is a driver-only O(#partitions) metadata walk.

    Null-bearing columns use the valid-only bounds (manifest
    ``vmin``/``vmax``, recorded at encode time) so SQL MIN/MAX
    null-skipping semantics hold exactly; all-null partitions
    contribute nothing. Refuses (raises) when exactness can't be
    proven: float columns (zones hold IEEE bit patterns), unbounded
    partitions (strings past the zone-length cap), or null-bearing
    partitions written before valid-only zones existed. Older
    manifests without null counts fall back to a per-partition HEADER
    read (still no data).

    -> {"rows": int, col: {"min": v, "max": v}, ...}
    """
    rows = _manifest_paths(out_dir)
    if not rows:  # empty table: COUNT 0, NULL bounds (exact trivially)
        _sidecar_empty(out_dir, cols)  # column existence check
        return {"rows": 0, **{c: {"min": None, "max": None} for c in cols}}
    header0, _ = read_header(rows[0]["path"])
    known = list(header0["columns"])
    for c in cols:
        if c not in known:
            raise KeyError(f"column {c!r} not in encoded dataset (columns: {known})")
        if not _manifest_prunable(header0, c):
            raise TypeError(
                f"stats_meta over column {c!r}: float/list zone maps do "
                "not order like values — scan instead")
    # SQL MIN/MAX of an all-null (or zero-row) column is NULL — every
    # requested column gets an entry, None bounds when nothing binds
    out: dict = {"rows": 0}
    out.update({c: {"min": None, "max": None} for c in cols})
    headers: dict[str, tuple] = {}  # path -> header (nulls fallback)
    for r in rows:
        out["rows"] += int(r["rows"])
        stats = json.loads(r["col_stats"])
        for c in cols:
            s = stats.get(c, {})
            lo, hi = s.get("min"), s.get("max")
            if r["rows"] and (lo is None or hi is None):
                raise ValueError(
                    f"stats_meta: partition {r['path']} is unbounded on "
                    f"{c!r} (zone-length cap) — scan instead")
            nn = s.get("nulls")
            if nn is None:  # pre-nulls-stat manifest: read the header
                if r["path"] not in headers:
                    headers[r["path"]] = read_header(r["path"])
                h, _ = headers[r["path"]]
                nn = sum(int(ch.get("nulls") or 0)
                         for ch in h["columns"][c]["chunks"])
            if nn:
                # null-bearing: the stored zone covers the fill
                # placeholder; exactness needs the valid-only bounds
                # recorded at encode time (manifest vmin/vmax)
                if "vbounded" not in s:
                    raise NotImplementedError(
                        f"stats_meta over null-bearing column {c!r}: "
                        "this partition predates valid-only zone "
                        "stats — scan instead (or re-encode)")
                if not s["vbounded"]:
                    raise ValueError(
                        f"stats_meta: partition {r['path']} has "
                        f"unbounded valid-only zones on {c!r} — scan "
                        "instead")
                lo, hi = s.get("vmin"), s.get("vmax")  # None = all null
            cur = out[c]
            if lo is not None:
                cur["min"] = lo if cur["min"] is None \
                    else min(cur["min"], lo)
                cur["max"] = hi if cur["max"] is None \
                    else max(cur["max"], hi)
    return out


def dict_group_distinct(out_dir: str, key_col: str, value_col: str) -> pa.Table:
    """GROUP BY ``key_col`` -> COUNT(DISTINCT ``value_col``) for two
    low-cardinality string columns, decode-free: per chunk the distinct
    (key, value) PAIRS come from ``np.unique`` over a combined per-row
    code vector (codes bit-unpack; only the distinct pairs resolve
    through the dictionaries — no row value ever materializes). One Ray
    task per partition emits its tiny pair set; the driver unions them
    and counts. Extends the decode-free family (dict_value_counts,
    dict_group_aggregate) to distinct aggregation."""
    import ray

    rows = _manifest_paths(out_dir)

    @ray.remote
    def part_pairs(path: str) -> set:
        from ..codecs.str_codecs import decode_codes, decode_str_values
        from ..column import StringColumnDecoder
        from ..streams import str_stream_to_arrow
        from .encode import _pin_arrow_threads

        _pin_arrow_threads()
        header, base = read_header(path)
        cms = [header["columns"][c] for c in (key_col, value_col)]
        for c, cm in zip((key_col, value_col), cms):
            if cm["kind"] != "str":
                raise TypeError("dict_group_distinct is for string columns")
        sdecs = [StringColumnDecoder(cm["tag"]) for cm in cms]
        pairs: set = set()
        n_chunks = len(cms[0]["chunks"])
        with open(path, "rb") as f:
            for ci in range(n_chunks):
                codes_list: list[tuple[np.ndarray, int]] = []
                resolvers = []
                for cname, cm, sdec in zip((key_col, value_col), cms, sdecs):
                    ch = cm["chunks"][ci]
                    f.seek(base + ch["off"])
                    payload = read_exact(f, ch["nb"], cname)
                    payload, valid = _chunk_validity(ch, payload)
                    sdec.advance_dict(ch, payload)
                    if ch["mode"] == "plain":
                        lengths, data = decode_str_values(
                            ch["codec"], payload, ch["meta"])
                        d = pc.dictionary_encode(
                            str_stream_to_arrow(lengths, data, "str"))
                        codes = d.indices.to_numpy(
                            zero_copy_only=False).astype(np.int64)
                        pool = d.dictionary.to_pylist()
                        m0 = max(len(pool), 1)
                        resolvers.append(
                            lambda code, pool=pool, m0=m0:
                            None if code == m0 else pool[code])
                    else:
                        codes = decode_codes(
                            ch["ccodec"], payload[ch["vlen"]:],
                            ch["cmeta"]).astype(np.int64)
                        u = np.empty(len(sdec.u_lengths) + 1, dtype=np.int64)
                        u[0] = 0
                        np.cumsum(sdec.u_lengths, out=u[1:])
                        m0 = max(ch["d_total"], 1)
                        resolvers.append(
                            lambda code, sdec=sdec, u=u, m0=m0:
                            None if code == m0 else
                            sdec.u_data[u[code]: u[code + 1]].decode("utf-8"))
                    if valid is not None:
                        # null rows take the radix slot past the dict —
                        # their own group for keys; dropped for values
                        codes = np.where(valid, codes, m0)
                    codes_list.append((codes, m0 + 1))
                if len(codes_list[0][0]) == 0:
                    continue
                mv = codes_list[1][1]
                combined = codes_list[0][0] * mv + codes_list[1][0]
                for c in np.unique(combined):
                    k, v = divmod(int(c), mv)
                    pairs.add((resolvers[0](k), resolvers[1](v)))
        return pairs

    union: set = set()
    for s in ray.get([part_pairs.remote(r["path"]) for r in rows]):
        union |= s
    counts: dict = {}
    for k, v in union:
        # COUNT(DISTINCT value) skips null values (SQL aggregate
        # semantics) but a group whose values are all null still shows
        # with n_distinct 0
        counts.setdefault(k, 0)
        if v is not None:
            counts[k] += 1
    keys = _sorted_nulls_last(counts)
    return pa.table({
        key_col: pa.array(keys, type=pa.string()),
        "n_distinct": pa.array([counts[k] for k in keys], type=pa.int64()),
    })


def _null_match_idx(path: str, header: dict, base: int, col: str,
                    want_null: bool) -> list:
    """Per-chunk row indices for ``col IS [NOT] NULL`` — reads ONLY
    the trailing validity bitmap of null-bearing chunks (vb bytes at
    the end of the chunk payload); null-free chunks resolve from the
    chunk descriptor alone (zero bytes read)."""
    cm = header["columns"][col]
    out: list[np.ndarray | None] = []
    f = None
    try:
        for ch in cm["chunks"]:
            n = ch.get("n", 0)
            vb = ch.get("vb", 0)
            if not ch.get("nulls") or not vb:
                out.append(None if want_null
                           else np.arange(n, dtype=np.int64))
                continue
            if f is None:
                f = open(path, "rb")
            f.seek(base + ch["off"] + ch["nb"] - vb)
            valid = np.unpackbits(
                np.frombuffer(read_exact(f, vb, col), dtype=np.uint8),
                bitorder="little")[:n].astype(bool)
            out.append(np.flatnonzero(~valid if want_null else valid))
    finally:
        if f is not None:
            f.close()
    return out


_LEAF_OPS = ("eq", "between", "in", "prefix", "suffix", "regex",
             "contains", "isnull", "notnull")


def _normalize_pred(preds):
    """Accept a flat leaf list (implicit AND — the original API) or a
    nested tree of ("and", [..]) / ("or", [..]) / ("not", child) over
    ("eq", col, lit) / ("between", col, lo, hi) / ("isnull", col) /
    ("notnull", col) leaves."""
    if isinstance(preds, list):
        if not preds:
            raise ValueError("compound_filter needs at least one predicate")
        return ("and", [_normalize_pred(p) for p in preds])
    op = preds[0]
    if op == "in":
        if not preds[2]:
            raise ValueError("empty IN-list predicate")
        return ("in", preds[1], list(preds[2]))
    if op in ("eq", "between", "prefix", "suffix", "regex",
              "contains", "isnull", "notnull"):
        return preds
    if op == "not":
        return ("not", _normalize_pred(preds[1]))
    if op in ("and", "or"):
        if not preds[1]:
            raise ValueError(f"empty {op!r} predicate")
        return (op, [_normalize_pred(c) for c in preds[1]])
    raise ValueError(f"unknown predicate kind {op!r}")


def _pred_columns(node) -> list[str]:
    if node[0] in _LEAF_OPS:
        return [node[1]]
    if node[0] == "not":
        return _pred_columns(node[1])
    return [c for ch in node[1] for c in _pred_columns(ch)]


def _prefix_upper(p: str) -> str | None:
    """Smallest string greater than every string with prefix ``p``
    (codepoint order): bump the last char, dropping maxed-out tails.
    None == no upper bound (empty prefix / all-0x10FFFF)."""
    while p:
        last = ord(p[-1])
        if last < 0x10FFFF:
            return p[:-1] + chr(last + 1)
        p = p[:-1]
    return None


def _zone_pruner(header0: dict, node):
    """-> ``excluded(stats)``: whether a partition's manifest zone stats
    (its parsed ``col_stats``) PROVE it matches no rows. Leaves use
    min/max containment (IN: every member outside; prefix: [p,
    upper(p)) disjoint from the zone; contains: never) and, for eq/IN,
    the partition Bloom filter; AND prunes if any child is excluded, OR
    only if every child is, NOT never prunes (zone maps bound presence,
    not absence — the complement can always match). Bloom literals are
    hashed here, once per query, not once per partition."""
    op = node[0]
    if op in ("and", "or"):
        kids = [_zone_pruner(header0, c) for c in node[1]]
        fold = any if op == "and" else all
        return lambda stats: fold(k(stats) for k in kids)
    if op == "not":
        return lambda stats: False
    col = node[1]
    if op in ("contains", "suffix", "regex", "isnull", "notnull") \
            or col not in header0["columns"] \
            or not _manifest_prunable(header0, col):
        # an evolved column the FIRST partition predates has no type
        # info to judge prunability from — keep the partition
        bounded = None
    else:
        bounded = _leaf_zone_excludes(header0["columns"][col], node)

    def excluded(stats: dict) -> bool:
        if col not in stats:
            # partition predates the column (schema evolution): all-NULL
            # operand — only IS NULL can match rows here
            return op != "isnull"
        if op == "isnull":
            # null counts in the manifest are exact: zero nulls -> no match
            return stats[col].get("nulls") == 0
        return bounded is not None and bounded(stats[col])
    return excluded


def _leaf_zone_excludes(cm: dict, node):
    """-> ``excludes(s)`` over one column's manifest stats for a
    prunable eq/in/between/prefix leaf."""
    op = node[0]
    hashes = None
    if op in ("eq", "in"):
        # partition Bloom filter: proves ABSENCE of every literal even
        # when zone ranges overlap (eq rows are TRUE-only under 3VL, so
        # "value absent" means "no TRUE rows" — prune is safe; NOT
        # nodes never reach here)
        lits = [node[2]] if op == "eq" else sorted(node[2])
        hashes = _literal_bloom_hashes(cm, lits)

    def outside_zone(zlo, zhi) -> bool:
        if op == "eq":
            return not (zlo <= node[2] <= zhi)
        if op == "in":
            return _none_in_zone(lits, zlo, zhi)
        if op == "prefix":
            upper = _prefix_upper(node[2])
            return zhi < node[2] or (upper is not None and zlo >= upper)
        return (node[3] is not None and node[3] < zlo) \
            or (node[2] is not None and node[2] > zhi)

    def excludes(s: dict) -> bool:
        # the zone compare first: it is free, and the Bloom probe
        # decompresses the filter
        zlo, zhi = s.get("min"), s.get("max")
        if zlo is not None and zhi is not None and outside_zone(zlo, zhi):
            return True
        return hashes is not None and _bloom_excludes(s, hashes)
    return excludes


def compound_filter(out_dir: str, preds, project: list[str]):
    """Boolean combination of equality/range predicates over encoded
    data — the composition the reference never shipped ("single equi
    filter at a time", README.md:122); its zone maps compose trivially.
    The only row-filter driver: every other filter is one leaf of it.

    ``preds``: a flat list of ``("eq", col, literal)`` /
    ``("between", col, lo, hi)`` / ``("in", col, values)`` /
    ``("prefix" | "suffix" | "contains" | "regex", col, s)`` /
    ``("isnull", col)`` / ``("notnull", col)`` leaves (implicit AND)
    or a nested ``("and", [...])`` / ``("or", [...])`` /
    ``("not", child)`` tree. Eq leaves of a root AND come back filled
    from the literal, not decoded.
    Manifest zone maps prune partitions before any task spawns (AND:
    any excluded child; OR: all excluded; NOT: no pruning; isnull:
    exact null counts); within a partition, per-chunk match indices
    (code-domain compare for dictionary equality, zone shortcuts for
    ranges, validity-bitmap-only reads for isnull/notnull) are
    intersected / unioned / complemented, and only surviving chunks
    decode the projection. -> ray.data.Dataset of projected matching
    rows.

    Null-bearing columns follow FULL SQL three-valued logic: every
    node evaluates to per-chunk (TRUE, UNKNOWN) row sets
    (:func:`_eval_match_3vl`) — leaves are UNKNOWN on their operand's
    null rows, AND/OR/NOT propagate Kleene semantics, and the filter
    keeps TRUE rows only (WHERE drops UNKNOWN, as SQL does)."""
    import ray.data as rd

    tree = _normalize_pred(preds)
    rows = _manifest_paths(out_dir)
    if not rows:  # empty table: typed empty projection
        return rd.from_arrow(_sidecar_empty(out_dir, project))
    header0, _ = read_header(rows[0]["path"])
    stats = [json.loads(r["col_stats"]) for r in rows]
    # schema evolution: validate against the UNION of partition column
    # sets (manifest col_stats keys), not just the first header
    known = sorted(set().union(*stats))
    for c in _pred_columns(tree) + list(project):
        if c not in known:
            raise KeyError(f"column {c!r} not in encoded dataset (columns: {known})")
    # pad types for projected columns absent in some partition: one
    # header read per evolved column, driver-side
    pad_types: dict[str, pa.DataType] = {}
    need = {c for c in project if any(c not in st for st in stats)}
    for r, st in zip(rows, stats):
        if not need:
            break
        here = need & st.keys()
        if here:
            h, _ = read_header(r["path"])
            for c in here:
                pad_types[c] = _col_type(h["columns"][c])
            need -= here

    excluded = _zone_pruner(header0, tree)
    survivors = [r for r, st in zip(rows, stats) if not excluded(st)]
    if not survivors:
        empty = _empty_projection(
            header0, [c for c in project if c in header0["columns"]])
        for c in project:
            if c not in empty.column_names:
                empty = empty.append_column(c, pa.nulls(0, pad_types[c]))
        return rd.from_arrow(empty.select(project))

    def run(batch: pa.Table) -> pa.Table:
        return pa.concat_tables([
            filter_partition(p.as_py(), tree, project, pad_types)
            for p in batch["path"]])

    return map_partitions(survivors, run)


def _set_union(a, b):
    if a is None or len(a) == 0:
        return b
    if b is None or len(b) == 0:
        return a
    return np.union1d(a, b)


def _set_intersect(a, b):
    if a is None or b is None:
        return None
    r = np.intersect1d(a, b, assume_unique=True)
    return r if len(r) else None


def _set_diff(a, b):
    if a is None:
        return None
    if b is None or len(b) == 0:
        return a
    r = np.setdiff1d(a, b, assume_unique=True)
    return r if len(r) else None


def _eval_match_idx(path: str, header: dict, base: int, node) -> list:
    """Per-chunk match indices for a predicate tree (None == provably
    empty chunk): the TRUE sets of the three-valued evaluation."""
    return [t for t, _ in _eval_match_3vl(path, header, base, node)]


def _eval_match_3vl(path: str, header: dict, base: int, node) -> list:
    """SQL three-valued logic over per-chunk index sets: each chunk
    evaluates to (TRUE rows, UNKNOWN rows); rows in neither set are
    FALSE; None == empty set. Leaves run the zone-pruned code-domain
    scans and are UNKNOWN exactly on the operand column's null rows
    (isnull/notnull are null-safe: never UNKNOWN). AND is true where
    all children are true, unknown where no child is false and some
    child is unknown; OR dually; NOT swaps TRUE/FALSE and keeps
    UNKNOWN. The final filter keeps TRUE rows only (WHERE semantics).
    Null-free columns carry U=None everywhere — the fast path does no
    extra set work."""
    op = node[0]
    if op in _LEAF_OPS:
        if node[1] not in header["columns"]:
            # schema evolution: this partition predates the column —
            # the operand is all-NULL here, so IS NULL matches every
            # row, IS NOT NULL none, and every value predicate is
            # UNKNOWN on every row
            nch = len(header["chunk_rows"])
            if op == "isnull":
                return [(np.arange(_chunk_rows(header, i)), None)
                        for i in range(nch)]
            if op == "notnull":
                return [(None, None) for _ in range(nch)]
            return [(None, np.arange(_chunk_rows(header, i)))
                    for i in range(nch)]
        if op == "eq":
            t = _equi_match_idx(path, header, base, node[1], node[2])
        elif op == "between":
            t = _range_match_idx(path, header, base, node[1], node[2],
                                 node[3])
        elif op in ("isnull", "notnull"):
            t = _null_match_idx(path, header, base, node[1],
                                want_null=(op == "isnull"))
            return [(m, None) for m in t]
        else:
            t = _member_match_idx(path, header, base, node)
        col = node[1]
        if not any(ch.get("nulls")
                   for ch in header["columns"][col]["chunks"]):
            return [(m, None) for m in t]
        nulls = _null_match_idx(path, header, base, col, want_null=True)
        return list(zip(t, nulls))
    if op in ("and", "or") and len(node[1]) == 1:
        return _eval_match_3vl(path, header, base, node[1][0])
    if op == "and":
        # accumulate (T, TU) where TU = T ∪ U = the non-FALSE rows:
        # AND's non-FALSE set is the intersection of the children's
        acc = None
        for ch in node[1]:
            if acc is not None and all(tu is None for _, tu in acc):
                break  # provably all-FALSE; skip remaining scans
            cur = _eval_match_3vl(path, header, base, ch)
            if acc is None:
                acc = [(t, _set_union(t, u)) for t, u in cur]
            else:
                acc = [(_set_intersect(T, t),
                        _set_intersect(TU, _set_union(t, u)))
                       for (T, TU), (t, u) in zip(acc, cur)]
        return [(T, _set_diff(TU, T)) for T, TU in acc]
    if op == "or":
        acc = None
        for ch in node[1]:
            cur = _eval_match_3vl(path, header, base, ch)
            if acc is None:
                acc = cur
            else:
                acc = [(_set_union(T, t), _set_union(U, u))
                       for (T, U), (t, u) in zip(acc, cur)]
        return [(T, _set_diff(U, T)) for T, U in acc]
    if op == "not":
        child = _eval_match_3vl(path, header, base, node[1])
        out = []
        for i, (t, u) in enumerate(child):
            universe = np.arange(_chunk_rows(header, i))
            out.append((_set_diff(_set_diff(universe, t), u), u))
        return out
    raise ValueError(f"unknown predicate kind {op!r}")


def filter_partition(path: str, preds, project: list[str],
                     pad_types: dict | None = None) -> pa.Table:
    """Filter one encoded partition on ``preds`` (any
    :func:`compound_filter` form) and project the matching rows: only
    touched chunks decode, and within them only the matching rows.
    ``pad_types`` types the projected columns this partition predates
    (they come back NULL)."""
    tree = _normalize_pred(preds)
    header, base = read_header(path)
    # literal backfill is only sound for eq leaves ASSERTED by the root
    # AND — under OR/NOT a matching row may not satisfy the eq leaf
    backfill = {c[1]: c[2] for c in tree[1]
                if c[0] == "eq" and c[1] in header["columns"]} \
        if tree[0] == "and" else {}
    combined = _eval_match_idx(path, header, base, tree)
    present = [c for c in project if c in header["columns"]]
    if present == list(project):
        return _project_matches(path, header, combined, project,
                                backfill=backfill)
    # schema evolution: columns this partition predates come back NULL
    n_match = int(sum(len(m) for m in combined if m is not None))
    if present:
        t = _project_matches(path, header, combined, present,
                             backfill=backfill)
    else:
        t = pa.table({project[0]: pa.nulls(n_match,
                                           pad_types[project[0]])})
    for c in project:
        if c not in t.column_names:
            t = t.append_column(c, pa.nulls(t.num_rows, pad_types[c]))
    return t.select(project)


_GROUP_COMBINE_ROWS = 100_000  # partial rows before tree pre-merge
_GROUP_COMBINE_BLOCKS = 32


def _tree_combine_partials(partials, merge_fn):
    """Coalesce tree-combine for decode-free group-by partials (the
    tokenops.token_unigram_stats pattern): when the per-partition
    partial rows exceed :data:`_GROUP_COMBINE_ROWS` — a
    high-cardinality group key — repartition into
    :data:`_GROUP_COMBINE_BLOCKS` blocks and pre-merge each with one
    vectorized in-block group_by, so the driver fold is bounded by
    ~blocks x distinct groups instead of partitions x groups.
    Low-cardinality keys (the dict-encoded common case) skip the extra
    stage entirely."""
    mat = partials.materialize()
    if mat.count() > _GROUP_COMBINE_ROWS:
        mat = mat.repartition(_GROUP_COMBINE_BLOCKS).map_batches(
            merge_fn, batch_format="pyarrow", batch_size=None)
    return mat


def _merge_count_partials(b: pa.Table, key_cols: list[str]) -> pa.Table:
    """In-block merge of (keys..., n_rows) count partials."""
    if b.num_rows == 0:
        return b
    g = b.group_by(key_cols).aggregate([("n_rows", "sum")])
    cols = {kc: g[kc] for kc in key_cols}
    cols["n_rows"] = g["n_rows_sum"].cast(pa.int64())
    return pa.table(cols)


def _merge_agg_partials(b: pa.Table, key_cols: list[str],
                        agg_t: pa.DataType) -> pa.Table:
    """In-block merge of (keys..., sum_v, min_v, max_v, n_rows)
    aggregate partials — arrow group_by skips nulls, matching the
    driver fold's all-null-group (sum_v None) semantics."""
    if b.num_rows == 0:
        return b
    g = b.group_by(key_cols).aggregate(
        [("sum_v", "sum"), ("min_v", "min"), ("max_v", "max"),
         ("n_rows", "sum")])
    cols = {kc: g[kc] for kc in key_cols}
    cols["sum_v"] = g["sum_v_sum"].cast(agg_t)
    cols["min_v"] = g["min_v_min"].cast(agg_t)
    cols["max_v"] = g["max_v_max"].cast(agg_t)
    cols["n_rows"] = g["n_rows_sum"].cast(pa.int64())
    return pa.table(cols)


def dict_value_counts(out_dir: str, col: str) -> pa.Table:
    """GROUP BY ``col`` -> COUNT(*) computed WITHOUT materializing the
    column's values for any row: per chunk, bit-unpacked dictionary
    codes are bincounted and mapped through the (shared) dictionary;
    plain chunks fall back to value counts. The decode-free aggregation
    the reference roadmap promises (README.md:130-131). One Ray task
    per partition group emits its value->count partial; the driver
    merges the tiny partials."""
    rows = _manifest_paths(out_dir)

    def run(batch: pa.Table) -> pa.Table:
        totals: dict = {}
        for p in batch["path"]:
            _dict_counts_partition(p.as_py(), col, totals)
        keys = _sorted_nulls_last(totals)
        return pa.table({
            col: pa.array(keys, type=pa.string()),
            "n_rows": pa.array([totals[k] for k in keys], type=pa.int64()),
        })

    partials = _tree_combine_partials(
        map_partitions(rows, run),
        lambda b: _merge_count_partials(b, [col]))
    totals: dict = {}
    for row in partials.take_all():
        totals[row[col]] = totals.get(row[col], 0) + int(row["n_rows"])
    keys = _sorted_nulls_last(totals)
    return pa.table({
        col: pa.array(keys, type=pa.string()),
        "n_rows": pa.array([totals[k] for k in keys], type=pa.int64()),
    })


def _sorted_nulls_last(keys) -> list:
    """Sort group keys with the None (NULL) group last."""
    return sorted(keys, key=lambda k: (k is None, k))


def _chunk_validity(ch: dict, payload: bytes):
    """-> (payload without the trailing validity bitmap, valid bool
    array or None). Null slots encode as ''/0 placeholders with the
    bitmap appended to the chunk payload (column.py:_strip_nulls)."""
    vb = ch.get("vb", 0)
    if not vb:
        return payload, None
    valid = np.unpackbits(
        np.frombuffer(payload[-vb:], dtype=np.uint8),
        bitorder="little")[:ch["n"]].astype(bool)
    return payload[:-vb], valid


def _dict_counts_partition(path: str, col: str, totals: dict) -> None:
    """Null-aware: null rows count under the ``None`` key (their own
    group, as SQL GROUP BY does); dictionary chunks bincount only the
    VALID rows' codes so the '' placeholder never pollutes a real
    empty-string group — the same validity-bitmap + code-domain trick
    as _dict_group_agg_partition."""
    from ..codecs.str_codecs import decode_codes, decode_str_values
    from ..column import StringColumnDecoder
    from ..streams import str_stream_to_arrow

    header, base = read_header(path)
    cm = header["columns"][col]
    if cm["kind"] != "str":
        raise TypeError("dict_value_counts is for string columns")
    sdec = StringColumnDecoder(cm["tag"])
    with open(path, "rb") as f:
        for ch in cm["chunks"]:
            f.seek(base + ch["off"])
            payload = read_exact(f, ch["nb"], col)
            payload, valid = _chunk_validity(ch, payload)
            if valid is not None:
                totals[None] = totals.get(None, 0) \
                    + int(ch["n"] - valid.sum())
            if ch["mode"] == "plain":
                sdec.advance_dict(ch, payload)
                lengths, data = decode_str_values(ch["codec"], payload, ch["meta"])
                arr = str_stream_to_arrow(lengths, data, "str")
                if valid is not None:
                    arr = arr.filter(pa.array(valid))
                for item in arr.value_counts():
                    v = item["values"].as_py()
                    totals[v] = totals.get(v, 0) + item["counts"].as_py()
                continue
            sdec.advance_dict(ch, payload)
            codes = decode_codes(ch["ccodec"], payload[ch["vlen"]:], ch["cmeta"])
            if valid is not None:
                codes = codes[valid]
            counts = np.bincount(codes, minlength=ch["d_total"])
            nz = np.flatnonzero(counts)
            u_offsets = np.empty(len(sdec.u_lengths) + 1, dtype=np.int64)
            u_offsets[0] = 0
            np.cumsum(sdec.u_lengths, out=u_offsets[1:])
            for code in nz:
                s = sdec.u_data[u_offsets[code]: u_offsets[code + 1]].decode("utf-8")
                totals[s] = totals.get(s, 0) + int(counts[code])


def dict_group_aggregate(out_dir: str, key_col, value_col: str) -> pa.Table:
    """GROUP BY key column(s) -> SUM/MIN/MAX/COUNT(``value_col``) with
    the KEY columns never materialized per row: group membership comes
    straight from the bit-unpacked dictionary codes (multiple keys
    combine into one mixed-radix code per row); only the value column
    decodes. Extends the decode-free aggregation family
    (dict_value_counts) to real aggregates. One Ray task per partition
    group emits key->partial rows; the driver merges the tiny partials.

    ``key_col``: a string column name or a list of them (composite
    GROUP BY). Integer value columns accumulate in int64 (per-chunk
    reduceat) and merge as Python ints — EXACT at any scale, where a
    float64 accumulator silently loses low bits past 2^53 (round-2
    review finding). Float columns keep the float64 path."""
    key_cols = [key_col] if isinstance(key_col, str) else list(key_col)
    rows = _manifest_paths(out_dir)
    if not rows:  # empty table: zero groups
        probe = _sidecar_empty(out_dir, key_cols + [value_col])
        et = pa.float64() if pa.types.is_floating(probe[value_col].type) \
            else pa.int64()
        return pa.table({
            **{kc: pa.array([], type=pa.string()) for kc in key_cols},
            "sum_v": pa.array([], type=et), "min_v": pa.array([], type=et),
            "max_v": pa.array([], type=et),
            "n_rows": pa.array([], type=pa.int64())})
    header0, _ = read_header(rows[0]["path"])
    integral = header0["columns"][value_col].get("tag") not in ("f32", "f64")
    agg_t = pa.int64() if integral else pa.float64()

    def to_table(sums, mins, maxs, counts) -> pa.Table:
        # counts carries every group (incl. all-null-value groups and
        # null keys; None sorts after strings for determinism)
        keys = sorted(counts, key=lambda k: tuple(
            (x is None, x or "") for x in k))
        cols = {}
        for i, kc in enumerate(key_cols):
            cols[kc] = pa.array([k[i] for k in keys], type=pa.string())
        cols["sum_v"] = pa.array([sums.get(k) for k in keys], type=agg_t)
        cols["min_v"] = pa.array([mins.get(k) for k in keys], type=agg_t)
        cols["max_v"] = pa.array([maxs.get(k) for k in keys], type=agg_t)
        cols["n_rows"] = pa.array([counts[k] for k in keys], type=pa.int64())
        return pa.table(cols)

    def run(batch: pa.Table) -> pa.Table:
        sums: dict = {}
        mins: dict = {}
        maxs: dict = {}
        counts: dict = {}
        for p in batch["path"]:
            _dict_group_agg_partition(p.as_py(), key_cols, value_col,
                                      sums, mins, maxs, counts, integral)
        return to_table(sums, mins, maxs, counts)

    partials = _tree_combine_partials(
        map_partitions(rows, run),
        lambda b: _merge_agg_partials(b, key_cols, agg_t))
    sums: dict = {}
    mins: dict = {}
    maxs: dict = {}
    counts: dict = {}
    for row in partials.take_all():
        k = tuple(row[kc] for kc in key_cols)
        if row["sum_v"] is not None:  # group had >=1 non-null value
            sums[k] = sums.get(k, 0) + row["sum_v"]
            mins[k] = min(mins.get(k, row["min_v"]), row["min_v"])
            maxs[k] = max(maxs.get(k, row["max_v"]), row["max_v"])
        counts[k] = counts.get(k, 0) + row["n_rows"]
    return to_table(sums, mins, maxs, counts)


def _dict_group_agg_partition(path: str, key_cols: list[str], value_col: str,
                              sums: dict, mins: dict, maxs: dict,
                              counts: dict, integral: bool = False) -> None:
    from ..codecs.str_codecs import decode_codes, decode_str_values
    from ..column import StringColumnDecoder
    from ..streams import str_stream_to_arrow

    header, base = read_header(path)
    kcms = [header["columns"][kc] for kc in key_cols]
    for kc, cm in zip(key_cols, kcms):
        if cm["kind"] != "str":
            raise TypeError("dict_group_aggregate groups on string columns")
    vcm = header["columns"][value_col]
    vdec = make_column_decoder(vcm)
    sdecs = [StringColumnDecoder(cm["tag"]) for cm in kcms]
    n_chunks = len(kcms[0]["chunks"])
    box = int if integral else float
    with open(path, "rb") as f:
        for ci in range(n_chunks):
            vch = vcm["chunks"][ci]
            f.seek(base + vch["off"])
            vals_arr = vdec.decode(vch, read_exact(f, vch["nb"], value_col))
            v_valid = None
            if vch.get("nulls"):
                v_valid = vals_arr.is_valid().to_numpy(zero_copy_only=False)
                vals_arr = vals_arr.fill_null(0)
            vals_np = vals_arr.to_numpy(zero_copy_only=False)
            # int64 chunk accumulator + Python-int cross-chunk merge is
            # exact; a float64 accumulator loses low bits past 2^53
            vals = vals_np.astype(np.int64, copy=False) if integral \
                else vals_np.astype(np.float64)
            # per key column: per-row codes + a code->string resolver;
            # composite keys combine into one mixed-radix code per row.
            # Null keys get the radix slot past the dictionary (their
            # own group, as SQL GROUP BY does); resolvers map it back
            # to None.
            codes_list: list[tuple[np.ndarray, int]] = []
            resolvers = []
            for kc, cm, sdec in zip(key_cols, kcms, sdecs):
                ch = cm["chunks"][ci]
                f.seek(base + ch["off"])
                payload = read_exact(f, ch["nb"], kc)
                vb = ch.get("vb", 0)
                k_valid = None
                if vb:
                    k_valid = np.unpackbits(
                        np.frombuffer(payload[-vb:], dtype=np.uint8),
                        bitorder="little")[:ch["n"]].astype(bool)
                    payload = payload[:-vb]
                sdec.advance_dict(ch, payload)
                if ch["mode"] == "plain":
                    lengths, data = decode_str_values(ch["codec"], payload,
                                                      ch["meta"])
                    d = pc.dictionary_encode(
                        str_stream_to_arrow(lengths, data, "str"))
                    codes = d.indices.to_numpy(
                        zero_copy_only=False).astype(np.int64)
                    pool = d.dictionary.to_pylist()
                    m0 = max(len(pool), 1)
                    resolvers.append(
                        lambda code, pool=pool, m0=m0:
                        None if code == m0 else pool[code])
                else:
                    codes = decode_codes(ch["ccodec"], payload[ch["vlen"]:],
                                         ch["cmeta"]).astype(np.int64)
                    u = np.empty(len(sdec.u_lengths) + 1, dtype=np.int64)
                    u[0] = 0
                    np.cumsum(sdec.u_lengths, out=u[1:])
                    m0 = max(ch["d_total"], 1)
                    resolvers.append(
                        lambda code, sdec=sdec, u=u, m0=m0:
                        None if code == m0
                        else sdec.u_data[u[code]: u[code + 1]].decode("utf-8"))
                if k_valid is not None:
                    codes = np.where(k_valid, codes, m0)
                codes_list.append((codes, m0 + 1))
            combined = codes_list[0][0]
            for codes, m in codes_list[1:]:
                combined = combined * m + codes
            if len(combined) == 0:
                continue
            order = np.argsort(combined, kind="stable")
            cs = combined[order]
            vs = vals[order]
            vv = v_valid[order] if v_valid is not None else None
            bounds = np.concatenate(
                [[0], np.flatnonzero(np.diff(cs)) + 1, [len(cs)]])
            for j in range(len(bounds) - 1):
                lo, hi = int(bounds[j]), int(bounds[j + 1])
                code = int(cs[lo])
                parts = []
                for codes, m in reversed(codes_list[1:]):
                    code, rem = divmod(code, m)
                    parts.append(rem)
                parts.append(code)
                key = tuple(res(c) for res, c in
                            zip(resolvers, reversed(parts)))
                seg = vs[lo:hi]
                if vv is not None:
                    seg = seg[vv[lo:hi]]  # SUM/MIN/MAX skip null values
                counts[key] = counts.get(key, 0) + (hi - lo)
                if len(seg) == 0:
                    continue
                sums[key] = sums.get(key, 0) + box(seg.sum())
                mins[key] = min(mins.get(key, box(seg.min())), box(seg.min()))
                maxs[key] = max(maxs.get(key, box(seg.max())), box(seg.max()))


PERCENTILE_MAX_RANGE = 1 << 24  # dense-histogram bin cap (~128 MB int64)
SELECT_BINS = 1 << 16  # per-level bins: 0.5 MB per (range, partition)
                       # returned to the driver; 64-bit domains close
                       # in ceil(64/16)=4 levels


def _order_key_u64(v: np.ndarray) -> np.ndarray:
    """Order-PRESERVING uint64 key for any numeric dtype (the
    ascending sibling of _desc_sort_key): int64 shifts by 2^63;
    float64 uses the IEEE-754 total-order transform. Distinct values
    map to distinct keys, so selection on keys is exact."""
    if v.dtype.kind == "u":
        return v.astype(np.uint64)
    if v.dtype.kind in "iMm":
        return v.astype(np.int64).view(np.uint64) ^ np.uint64(1 << 63)
    b = np.ascontiguousarray(v.astype(np.float64)).view(np.uint64)
    return np.where(b >> np.uint64(63) == 0,
                    b ^ np.uint64(1 << 63), ~b)


def _order_key_inverse(u: int, kind: str):
    if kind == "u":
        return int(u)
    if kind == "i":
        v = (int(u) ^ (1 << 63))  # undo the sign-shift
        return v - (1 << 64) if v >= (1 << 63) else v
    # float: undo the IEEE-754 total-order transform
    uu = int(u)
    bits = (uu ^ (1 << 63)) if uu >> 63 else (~uu & ((1 << 64) - 1))
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


def exact_percentiles(out_dir: str, col: str, ps: list[float],
                      _ranks: list[int] | None = None) -> pa.Table:
    """EXACT percentiles of ANY numeric column — unbounded integer
    domains (ids, epoch timestamps) and floats — via distributed
    iterative histogram selection: values map to order-preserving
    uint64 keys; each level one parallel pass bincounts every active
    target's range into SELECT_BINS buckets and the driver narrows
    each rank's bracket by 2^20, so 64-bit domains resolve in <= 4
    passes with no sort, no shuffle, O(targets x SELECT_BINS) driver
    state. Same PERCENTILE_DISC rank rule as :func:`int_percentiles`
    (which stays the one-pass fast path for bounded domains). Nulls
    are excluded (SQL aggregate semantics)."""
    import math

    import ray

    rows = _manifest_paths(out_dir)
    header0, _ = read_header(rows[0]["path"])
    cm0 = header0["columns"][col]
    if cm0["kind"] not in ("int", "float") and cm0.get("tag") not in (
            "f32", "f64"):
        raise TypeError(f"exact_percentiles needs a numeric column, "
                        f"got kind {cm0['kind']!r}")
    is_float = cm0.get("tag") in ("f32", "f64")
    out_kind = "f" if is_float else "i"

    @ray.remote
    def pass_hist(path: str, ranges: list):
        """ranges: [(lo_u, hi_u, nbins)] -> per range (below, counts)."""
        from .encode import _pin_arrow_threads

        _pin_arrow_threads()
        header, base = read_header(path)
        cm = header["columns"][col]
        dec = make_column_decoder(cm)
        vals = []
        with open(path, "rb") as f:
            for ch in cm["chunks"]:
                f.seek(base + ch["off"])
                arr = dec.decode(ch, read_exact(f, ch["nb"], col))
                if arr.null_count:
                    arr = arr.drop_null()
                if pa.types.is_timestamp(arr.type) or \
                        pa.types.is_duration(arr.type):
                    arr = arr.cast(pa.int64())
                vals.append(arr.to_numpy(zero_copy_only=False))
        if not vals:
            return [(0, np.zeros(r[2], dtype=np.int64)) for r in ranges]
        u = _order_key_u64(np.concatenate(vals))
        out = []
        for lo, hi, nb in ranges:
            # hi can be 2^64 (full domain) — clamp to an inclusive bound
            lo_u, hi_incl = np.uint64(lo), np.uint64(min(hi, 1 << 64) - 1)
            w = max((int(hi) - int(lo) + nb) // nb, 1)
            mask = (u >= lo_u) & (u <= hi_incl)
            idx = np.minimum((u[mask] - lo_u) // np.uint64(w), nb - 1)
            out.append((int((u < lo_u).sum()),
                        np.bincount(idx.astype(np.int64), minlength=nb)))
        return out

    n_total = sum(int(r["rows"]) for r in rows)
    if n_total == 0:
        return pa.table({"p": pa.array([], type=pa.float64()),
                         col: pa.array([], type=(
                             pa.float64() if is_float else pa.int64()))})

    # active targets: rank k (0-based, over non-null values; the first
    # pass also tells us the true non-null n via below+counts)
    targets = {i: {"lo": 0, "hi": 1 << 64, "p": p} for i, p in enumerate(ps)}
    n_valid: int | None = None
    for _level in range(8):
        open_t = {i: t for i, t in targets.items()
                  if t["hi"] - t["lo"] > 1}
        if not open_t:
            break
        ranges = [(t["lo"], t["hi"], SELECT_BINS) for t in open_t.values()]
        results = ray.get([pass_hist.remote(r["path"], ranges)
                           for r in rows])
        for slot, i in enumerate(open_t):
            t = targets[i]
            below = sum(res[slot][0] for res in results)
            counts = results[0][slot][1].copy()
            for res in results[1:]:
                counts += res[slot][1]
            if n_valid is None and t["lo"] == 0 and t["hi"] == 1 << 64:
                n_valid = below + int(counts.sum())
                if n_valid == 0:  # all-null column: SQL yields NULL
                    return pa.table({
                        "p": pa.array([float(p) for p in ps],
                                      type=pa.float64()),
                        col: pa.array([None] * len(ps), type=(
                            pa.float64() if is_float else pa.int64())),
                    })
            # _ranks (internal, PERCENTILE_CONT): select explicit
            # 0-based order statistics instead of the DISC rank rule
            k = _ranks[i] if _ranks is not None \
                else max(int(math.ceil(t["p"] * (n_valid or n_total))) - 1, 0)
            t["k"] = k
            csum = np.cumsum(counts)
            bin_i = int(np.searchsorted(csum, k - below + 1))
            w = max((t["hi"] - t["lo"] + SELECT_BINS) // SELECT_BINS, 1)
            t["lo"], t["hi"] = (t["lo"] + bin_i * w,
                                min(t["lo"] + (bin_i + 1) * w, t["hi"]))
    out_vals = [_order_key_inverse(targets[i]["lo"], out_kind)
                for i in range(len(ps))]
    return pa.table({
        "p": pa.array([float(p) for p in ps], type=pa.float64()),
        col: pa.array(out_vals, type=(
            pa.float64() if is_float else pa.int64())),
    })


def exact_percentiles_cont(out_dir: str, col: str,
                           ps: list[float]) -> pa.Table:
    """SQL PERCENTILE_CONT (DuckDB ``quantile_cont``): linear
    interpolation between the two adjacent order statistics at
    position p*(n-1). Reuses the distributed iterative-histogram
    selection of :func:`exact_percentiles` to fetch EXACT order
    statistics at the bracketing ranks (one shared multi-target
    selection — at most 2x len(ps) ranks, deduplicated), then
    interpolates on the driver with the same double expression DuckDB
    uses (lo*(1-frac) + hi*frac — NOT lo+(hi-lo)*frac, which differs
    by an ULP and would break value-hash oracles). Result is DOUBLE;
    nulls are excluded; an all-null/empty column yields NULLs."""
    import math

    rows = _manifest_paths(out_dir)
    if rows:
        header0, _ = read_header(rows[0]["path"])
        if col not in header0["columns"]:
            raise KeyError(f"column {col!r} not in encoded dataset")
    n_valid = 0
    for r in rows:
        s = json.loads(r["col_stats"]).get(col, {})
        n_valid += int(r["rows"]) - int(s.get("nulls") or 0)
    if n_valid == 0:
        return pa.table({
            "p": pa.array([float(p) for p in ps], type=pa.float64()),
            col: pa.array([None] * len(ps), type=pa.float64()),
        })
    pos = [p * (n_valid - 1) for p in ps]
    lo_i = [min(max(int(math.floor(x)), 0), n_valid - 1) for x in pos]
    hi_i = [min(l + 1, n_valid - 1) for l in lo_i]
    uniq = sorted(set(lo_i) | set(hi_i))
    stats = exact_percentiles(out_dir, col, [0.0] * len(uniq), _ranks=uniq)
    at = dict(zip(uniq, stats[col].to_pylist()))
    out = []
    for x, l, h in zip(pos, lo_i, hi_i):
        a, b = float(at[l]), float(at[h])
        frac = x - math.floor(x)
        out.append(a if l == h or frac == 0.0
                   else a * (1 - frac) + b * frac)
    return pa.table({
        "p": pa.array([float(p) for p in ps], type=pa.float64()),
        col: pa.array(out, type=pa.float64()),
    })


def sketch_percentiles(out_dir: str, col: str,
                       ps: list[float]) -> pa.Table:
    """APPROXIMATE percentiles from the manifest's mergeable quantile
    summaries alone — ZERO data bytes read (the percentile sibling of
    the KMV sketch-only distinct count). Every encode stores one
    compacted weighted summary per scalar numeric column per partition
    (sketches.py::qs_*, built from the EXACT chunk values, nulls
    excluded); this merges them LOSSLESSLY (no recompaction) and reads
    off PERCENTILE_DISC-style points. Returns (p, col,
    rank_err_bound): the bound is the summed per-partition certified
    error (<= N·(1/(2·128) + 1/(2·256)) ≈ 0.59% of N), carried in the
    summaries themselves — a guarantee, not a folk constant. At
    cluster scale this answers p50/p99 over 10^12 rows from manifest
    rows only. Raises KeyError for columns without summaries
    (string/list columns, or partitions encoded before the sketch
    existed — re-encode or use exact_percentiles)."""
    from ..sketches import qs_deserialize, qs_merge, qs_query

    rows = _manifest_paths(out_dir)
    if not rows:
        base = _sidecar_empty(out_dir, [col])
        if not (pa.types.is_integer(base[col].type)
                or pa.types.is_floating(base[col].type)
                or pa.types.is_timestamp(base[col].type)):
            # same error contract as the populated path below
            raise KeyError(f"no quantile summary for column {col!r} "
                           f"(type {base[col].type}) — use "
                           f"exact_percentiles")
        out_t = pa.float64() if pa.types.is_floating(base[col].type) \
            else pa.int64()
        return pa.table({
            "p": pa.array([float(p) for p in ps], pa.float64()),
            col: pa.array([None] * len(ps), out_t),
            "rank_err_bound": pa.array([0.0] * len(ps), pa.float64()),
        })
    # find a partition that HAS the column: under schema evolution the
    # first partition may predate it (the column is then NULL there)
    cm0 = None
    for r in rows:
        if col in json.loads(r["col_stats"]):
            header0, _ = read_header(r["path"])
            cm0 = header0["columns"][col]
            break
    if cm0 is None:
        raise KeyError(f"column {col!r} not in encoded dataset")
    if cm0["kind"] != "int":
        raise KeyError(f"no quantile summary for column {col!r} "
                       f"(kind {cm0['kind']!r}) — use exact_percentiles")
    is_float = cm0.get("tag") in ("f32", "f64")
    # u64 order keys are the raw values — inverting them as signed
    # ints would shift every percentile by 2^63
    out_kind = "f" if is_float else (
        "u" if cm0.get("tag") == "u64" else "i")
    parts = []
    for r in rows:
        cs = json.loads(r["col_stats"])
        st = cs.get(col)
        if st is None:
            # schema evolution: the column does not exist in this
            # partition's generation — every value reads as NULL, so
            # it contributes nothing to a null-excluding percentile
            continue
        if "qs" not in st:
            if int(r["rows"]) == 0 or \
                    int(st.get("nulls") or 0) == int(r["rows"]):
                continue  # empty / all-null partition: nothing to add
            raise KeyError(
                f"partition {r['part_key']} has no quantile summary "
                f"for {col!r} (pre-sketch encode) — re-encode or use "
                f"exact_percentiles")
        parts.append(qs_deserialize(st["qs"]))
    merged = qs_merge(parts)  # lossless: no recompaction at query time
    out_t = pa.float64() if is_float else (
        pa.uint64() if out_kind == "u" else pa.int64())
    if merged is None:  # all values null
        return pa.table({
            "p": pa.array([float(p) for p in ps], pa.float64()),
            col: pa.array([None] * len(ps), out_t),
            "rank_err_bound": pa.array([0.0] * len(ps), pa.float64()),
        })
    vals = [_order_key_inverse(qs_query(merged, float(p)), out_kind)
            for p in ps]
    return pa.table({
        "p": pa.array([float(p) for p in ps], pa.float64()),
        col: pa.array(vals, out_t),
        "rank_err_bound": pa.array([merged["err"]] * len(ps),
                                   pa.float64()),
    })


def int_percentiles(out_dir: str, col: str, ps: list[float]) -> pa.Table:
    """EXACT percentiles of an integer column over encoded data via
    mergeable per-partition histograms: each task decodes only ``col``,
    bincounts it against the partition's zone-map min, and ships a
    (value offset, counts) pair; the driver merges the tiny histograms
    and reads the quantiles off the cumulative sum. Selection rule
    matches SQL-standard PERCENTILE_DISC (and DuckDB quantile_disc):
    the smallest element whose cumulative distribution >= p, i.e. the
    1-based ceil(p * n)-th of the sorted multiset. No sort, no shuffle — one pass, O(value range)
    driver state (suits bounded int domains like lengths/counts)."""
    import ray

    rows = _manifest_paths(out_dir)
    header0, _ = read_header(rows[0]["path"])
    cm0 = header0["columns"][col]
    if cm0["kind"] != "int" or cm0.get("tag") in ("f32", "f64"):
        raise TypeError("int_percentiles needs an integer column")
    # dense histograms only suit bounded domains (lengths, counts);
    # wide domains (ids, epoch timestamps) would allocate the value
    # RANGE in bins — check against the manifest zone maps up front
    for r in rows:
        s = json.loads(r["col_stats"]).get(col, {})
        lo_z, hi_z = s.get("min"), s.get("max")
        if lo_z is not None and hi_z is not None \
                and hi_z - lo_z > PERCENTILE_MAX_RANGE:
            raise ValueError(
                f"value range of {col!r} ({hi_z - lo_z}) exceeds the "
                f"dense-histogram cap ({PERCENTILE_MAX_RANGE}); use a "
                "sort/sketch-based quantile for wide domains")

    @ray.remote
    def part_hist(path: str):
        from .encode import _pin_arrow_threads

        _pin_arrow_threads()
        header, base = read_header(path)
        cm = header["columns"][col]
        dec = make_column_decoder(cm)
        vals = []
        with open(path, "rb") as f:
            for ch in cm["chunks"]:
                f.seek(base + ch["off"])
                arr = dec.decode(ch, read_exact(f, ch["nb"], col))
                v = arr.to_numpy(zero_copy_only=False).astype(np.int64)
                vals.append(v)
        if not vals:
            return 0, np.zeros(0, dtype=np.int64)
        v = np.concatenate(vals)
        lo = int(v.min())
        if int(v.max()) - lo > PERCENTILE_MAX_RANGE:
            raise ValueError(f"value range of {col!r} exceeds the "
                             f"dense-histogram cap in {path}")
        return lo, np.bincount(v - lo)

    hists = ray.get([part_hist.remote(r["path"]) for r in rows])
    lo = min(h[0] for h in hists if len(h[1]))
    hi = max(h[0] + len(h[1]) for h in hists if len(h[1]))
    if hi - lo > PERCENTILE_MAX_RANGE:  # zone maps may have been absent
        raise ValueError(
            f"value range of {col!r} ({hi - lo}) exceeds the "
            f"dense-histogram cap ({PERCENTILE_MAX_RANGE})")
    total = np.zeros(max(hi - lo, 1), dtype=np.int64)
    for off, cnt in hists:
        if len(cnt):
            total[off - lo: off - lo + len(cnt)] += cnt
    csum = np.cumsum(total)
    n = int(csum[-1])
    out_p, out_v = [], []
    for p in ps:
        idx = max(int(np.ceil(p * n)) - 1, 0)
        out_p.append(float(p))
        out_v.append(lo + int(np.searchsorted(csum, idx + 1)))
    return pa.table({
        "p": pa.array(out_p, type=pa.float64()),
        col: pa.array(out_v, type=pa.int64()),
    })


def group_int_percentiles(out_dir: str, key_col: str, value_col: str,
                          ps: list[float]) -> pa.Table:
    """EXACT per-GROUP percentiles of an integer column: each task
    decodes (key, value), dictionary-encodes the key and bincounts
    each group's values against the partition zone-map min; the driver
    merges per-key histograms (tiny: #groups x value range) and reads
    every group's quantiles off cumulative sums. Same
    PERCENTILE_DISC selection as :func:`int_percentiles`; same
    bounded-domain cap. No sort, no shuffle —
    group cardinality is bounded by the key dictionary.

    SQL null semantics: NULL keys form their own group (sorted last),
    null values are skipped, and a group whose values are all NULL
    gets NULL percentiles."""
    import ray

    rows = _manifest_paths(out_dir)
    if not rows:  # empty table: zero groups
        _sidecar_empty(out_dir, [key_col, value_col])  # column check
        cols: dict = {key_col: pa.array([], type=pa.string())}
        for p in ps:
            cols[f"p{int(round(p * 100)):02d}"] = pa.array(
                [], type=pa.int64())
        return pa.table(cols)
    header0, _ = read_header(rows[0]["path"])
    if header0["columns"][key_col]["kind"] != "str":
        raise TypeError("group_int_percentiles groups on a string column")
    vcm0 = header0["columns"][value_col]
    if vcm0["kind"] != "int" or vcm0.get("tag") in ("f32", "f64"):
        raise TypeError("group_int_percentiles needs an integer column")
    for r in rows:
        stats = json.loads(r["col_stats"])
        s = stats.get(value_col, {})
        lo_z, hi_z = s.get("min"), s.get("max")
        if s.get("nulls"):
            # stored zone covers the 0 placeholder — range-cap check
            # must use the valid-only bounds (None = all-null part)
            if "vbounded" not in s:
                raise NotImplementedError(
                    f"group_int_percentiles: partition {r['path']} "
                    f"predates valid-only zone stats on {value_col!r} "
                    "— re-encode or decode instead")
            lo_z, hi_z = s.get("vmin"), s.get("vmax")
        if lo_z is not None and hi_z is not None \
                and hi_z - lo_z > PERCENTILE_MAX_RANGE:
            raise ValueError(
                f"value range of {value_col!r} ({hi_z - lo_z}) exceeds "
                f"the dense-histogram cap ({PERCENTILE_MAX_RANGE})")

    @ray.remote
    def part_hists(path: str):
        from .encode import _pin_arrow_threads

        _pin_arrow_threads()
        t = decode_partition(path, columns=[key_col, value_col])
        if t.num_rows == 0:
            return set(), {}
        karr = t[key_col].combine_chunks()
        varr = t[value_col].combine_chunks()
        d = pc.dictionary_encode(karr)
        pool = d.dictionary.to_pylist()
        idx = d.indices
        if karr.null_count:  # NULL keys form their own group (SQL)
            idx = pc.fill_null(idx, len(pool))
            pool = pool + [None]
        codes = idx.to_numpy(zero_copy_only=False).astype(np.int64)
        # every key seen emits a group row, even if all its values in
        # this partition are null (quantile over nothing -> NULL)
        seen = {pool[int(c)] for c in np.unique(codes)}
        if varr.null_count:  # SQL aggregates skip null values
            vmask = varr.is_valid().to_numpy(zero_copy_only=False)
            codes = codes[vmask]
            varr = varr.drop_null()
        if len(codes) == 0:
            return seen, {}
        v = varr.to_numpy(zero_copy_only=False).astype(np.int64)
        lo = int(v.min())
        if int(v.max()) - lo > PERCENTILE_MAX_RANGE:
            raise ValueError(f"value range of {value_col!r} exceeds the "
                             f"dense-histogram cap in {path}")
        out = {}
        order = np.argsort(codes, kind="stable")
        cs, vs = codes[order], v[order]
        bounds = np.concatenate(
            [[0], np.flatnonzero(np.diff(cs)) + 1, [len(cs)]])
        for j in range(len(bounds) - 1):
            seg = vs[bounds[j]: bounds[j + 1]]
            out[pool[int(cs[bounds[j]])]] = (lo, np.bincount(seg - lo))
        return seen, out

    merged: dict = {}
    all_keys: set = set()
    for seen, part in ray.get([part_hists.remote(r["path"]) for r in rows]):
        all_keys |= seen
        for key, (lo, cnt) in part.items():
            if key not in merged:
                merged[key] = (lo, cnt.copy())
                continue
            mlo, mcnt = merged[key]
            nlo = min(mlo, lo)
            nhi = max(mlo + len(mcnt), lo + len(cnt))
            if nhi - nlo > PERCENTILE_MAX_RANGE:
                raise ValueError(
                    f"merged value range of {value_col!r} exceeds the "
                    f"dense-histogram cap ({PERCENTILE_MAX_RANGE})")
            ncnt = np.zeros(nhi - nlo, dtype=np.int64)
            ncnt[mlo - nlo: mlo - nlo + len(mcnt)] += mcnt
            ncnt[lo - nlo: lo - nlo + len(cnt)] += cnt
            merged[key] = (nlo, ncnt)

    keys = _sorted_nulls_last(all_keys)
    cols: dict = {key_col: pa.array(keys, type=pa.string())}
    for p in ps:
        vals = []
        for key in keys:
            if key not in merged:  # group with only NULL values
                vals.append(None)
                continue
            lo, cnt = merged[key]
            csum = np.cumsum(cnt)
            n = int(csum[-1])
            idx = max(int(np.ceil(p * n)) - 1, 0)
            vals.append(lo + int(np.searchsorted(csum, idx + 1)))
        cols[f"p{int(round(p * 100)):02d}"] = pa.array(vals, type=pa.int64())
    return pa.table(cols)


def dict_group_topk(out_dir: str, key_col: str, value_col: str,
                    id_col: str, k: int) -> pa.Table:
    """Top-k rows PER GROUP (largest ``value_col``, ties broken by
    ascending ``id_col``) with the key column resolved only for the
    <= groups x k winners: group membership comes from the
    bit-unpacked dictionary codes; per chunk a single lexsort + run
    scan keeps k candidates per key, so partition partials are tiny
    and the driver merge is groups x k x partitions rows."""
    rows = _manifest_paths(out_dir)
    if not rows:  # empty table: zero groups
        probe = _sidecar_empty(out_dir, [key_col, id_col, value_col])
        return pa.table({key_col: pa.array([], type=pa.string()),
                         id_col: probe[id_col],
                         value_col: probe[value_col]})
    header0, _ = read_header(rows[0]["path"])
    vt = _col_type(header0["columns"][value_col])
    it = _col_type(header0["columns"][id_col])

    def run(batch: pa.Table) -> pa.Table:
        parts = [_group_topk_partition(p.as_py(), key_col, value_col,
                                       id_col, k) for p in batch["path"]]
        return pa.concat_tables(parts)

    from ..collect import collect_arrow

    partials = collect_arrow(map_partitions(rows, run))
    if partials.num_rows == 0:
        return pa.table({key_col: pa.array([], pa.string()),
                         id_col: pa.array([], it),
                         value_col: pa.array([], vt)})
    order = pc.sort_indices(partials, sort_keys=[
        (key_col, "ascending"), (value_col, "descending"),
        (id_col, "ascending")])
    t = partials.take(order)
    keys = t[key_col].to_numpy(zero_copy_only=False)
    starts = np.concatenate(
        [[0], np.flatnonzero(keys[1:] != keys[:-1]) + 1])
    rank = np.arange(len(keys)) - np.repeat(
        starts, np.diff(np.append(starts, len(keys))))
    return t.filter(pa.array(rank < k))


def _desc_sort_key(v: np.ndarray) -> np.ndarray:
    """Order-REVERSING uint64 key for any numeric dtype — plain
    negation wraps for unsigned values (0 would sort largest) and
    overflows at INT64_MIN."""
    if v.dtype.kind == "u":
        u = v.astype(np.uint64)
    elif v.dtype.kind in "iM":
        u = v.astype(np.int64).view(np.uint64) ^ np.uint64(1 << 63)
    else:  # float: IEEE-754 total-order transform
        b = np.ascontiguousarray(v.astype(np.float64)).view(np.uint64)
        u = np.where(b >> np.uint64(63) == 0,
                     b ^ np.uint64(1 << 63), ~b)
    return ~u


def _fill_for_sort(arr: pa.Array):
    """-> (valid bool array or None, null-filled array). The fill
    value only normalizes dtypes for numpy sorting; ordering of null
    slots comes from a separate nulls-last sort tier."""
    if arr.null_count == 0:
        return None, arr
    valid = arr.is_valid().to_numpy(zero_copy_only=False)
    if pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type) \
            or pa.types.is_binary(arr.type) \
            or pa.types.is_large_binary(arr.type):
        filled = pc.fill_null(arr, "")
    else:
        filled = pc.fill_null(arr, pa.scalar(0, type=arr.type))
    return valid, filled


def _group_topk_partition(path: str, key_col: str, value_col: str,
                          id_col: str, k: int) -> pa.Table:
    from ..codecs.str_codecs import decode_codes, decode_str_values
    from ..column import StringColumnDecoder
    from ..streams import str_stream_to_arrow

    header, base = read_header(path)
    cm = header["columns"][key_col]
    if cm["kind"] != "str":
        raise TypeError("dict_group_topk groups on string columns")
    vcm = header["columns"][value_col]
    icm = header["columns"][id_col]
    vdec = make_column_decoder(vcm)
    idec = make_column_decoder(icm)
    sdec = StringColumnDecoder(cm["tag"])
    out_keys: list = []
    out_vals: list = []
    out_ids: list = []
    with open(path, "rb") as f:
        for ci, ch in enumerate(cm["chunks"]):
            f.seek(base + ch["off"])
            payload = read_exact(f, ch["nb"], key_col)
            payload, k_valid = _chunk_validity(ch, payload)
            sdec.advance_dict(ch, payload)
            if ch["mode"] == "plain":
                lengths, data = decode_str_values(ch["codec"], payload,
                                                  ch["meta"])
                d = pc.dictionary_encode(
                    str_stream_to_arrow(lengths, data, "str"))
                codes = d.indices.to_numpy(
                    zero_copy_only=False).astype(np.int64)
                pool = d.dictionary.to_pylist()
                m0 = max(len(pool), 1)

                def resolve(code, pool=pool, m0=m0):
                    return None if code == m0 else pool[code]
            else:
                codes = decode_codes(ch["ccodec"], payload[ch["vlen"]:],
                                     ch["cmeta"]).astype(np.int64)
                u = np.empty(len(sdec.u_lengths) + 1, dtype=np.int64)
                u[0] = 0
                np.cumsum(sdec.u_lengths, out=u[1:])
                m0 = max(ch["d_total"], 1)

                def resolve(code, sdec=sdec, u=u, m0=m0):
                    return None if code == m0 else \
                        sdec.u_data[u[code]: u[code + 1]].decode("utf-8")
            if k_valid is not None:
                # null keys take the radix slot past the dictionary —
                # their own group (as SQL GROUP BY does)
                codes = np.where(k_valid, codes, m0)
            vch = vcm["chunks"][ci]
            f.seek(base + vch["off"])
            v_valid, varr = _fill_for_sort(
                vdec.decode(vch, read_exact(f, vch["nb"], value_col)))
            vals = varr.to_numpy(zero_copy_only=False)
            ich = icm["chunks"][ci]
            f.seek(base + ich["off"])
            i_valid, iarr = _fill_for_sort(
                idec.decode(ich, read_exact(f, ich["nb"], id_col)))
            ids = iarr.to_numpy(zero_copy_only=False)
            if len(codes) == 0:
                continue
            # sort tiers (innermost first): ids ASC, id-NULLS-LAST,
            # value DESC, value-NULLS-LAST, group — SQL ROW_NUMBER
            # OVER (ORDER BY v DESC, id) with DuckDB's default
            # nulls-last ordering in both directions
            tiers = [ids]
            if i_valid is not None:
                tiers.append((~i_valid).view(np.uint8))
            tiers.append(_desc_sort_key(vals))
            if v_valid is not None:
                tiers.append((~v_valid).view(np.uint8))
            tiers.append(codes)
            order = np.lexsort(tuple(tiers))
            cs = codes[order]
            starts = np.concatenate(
                [[0], np.flatnonzero(cs[1:] != cs[:-1]) + 1])
            rank = np.arange(len(cs)) - np.repeat(
                starts, np.diff(np.append(starts, len(cs))))
            keep = order[rank < k]
            for i in keep.tolist():
                out_keys.append(resolve(int(codes[i])))
                out_vals.append(
                    vals[i] if v_valid is None or v_valid[i] else None)
                out_ids.append(
                    ids[i] if i_valid is None or i_valid[i] else None)
    return pa.table({
        key_col: pa.array(out_keys, type=pa.string()),
        id_col: pa.array(out_ids, type=_col_type(icm)),
        value_col: pa.array(out_vals, type=_col_type(vcm)),
    })


def topk(out_dir: str, col: str, k: int, descending: bool = True) -> pa.Table:
    """Top-k values of a column: per-partition partial top-k tasks,
    tiny driver merge of #partitions x k values. The reference lists
    sort/top-k as roadmap (README.md:129)."""
    import ray

    rows = _manifest_paths(out_dir)
    if not rows:  # empty table: typed empty top-k
        return _sidecar_empty(out_dir, [col])

    @ray.remote
    def part_topk(path: str):
        from .encode import _pin_arrow_threads

        _pin_arrow_threads()
        t = decode_partition(path, columns=[col])
        arr = t[col].combine_chunks()
        idx = pc.array_sort_indices(
            arr, order="descending" if descending else "ascending")
        return arr.take(idx[: min(k, len(arr))])

    refs = [part_topk.remote(r["path"]) for r in rows]
    parts = [p for p in ray.get(refs) if len(p)]
    merged = pa.concat_arrays([p.cast(parts[0].type) for p in parts])
    order = pc.array_sort_indices(
        merged, order="descending" if descending else "ascending")
    return pa.table({col: merged.take(order[:k])})


def topk_rows(out_dir: str, col: str, k: int, id_col: str,
              columns: list[str] | None = None,
              descending: bool = True, offset: int = 0) -> pa.Table:
    """Projected ORDER BY ``col`` LIMIT ``k`` OFFSET ``offset``: the k
    rows ranked [offset, offset+k) by ``col`` (ties broken by
    ascending ``id_col``) — per-partition partial top-(offset+k) tasks
    decode only the order/id columns, the tiny driver merge fetches
    the projection for just the k winners via the existing point
    lookup. Pagination over encoded data without a global sort; scale
    assumption: offset+k stays driver-small (#partitions x (offset+k)
    order pairs merge on the driver)."""
    import ray

    rows = _manifest_paths(out_dir)
    order_cols = [col, id_col]
    if not rows:  # empty table: typed empty page
        return _sidecar_empty(out_dir, columns or order_cols)
    need = offset + k

    @ray.remote
    def part_topk(path: str) -> pa.Table:
        from .encode import _pin_arrow_threads

        _pin_arrow_threads()
        t = decode_partition(path, columns=order_cols)
        vals = t[col].combine_chunks().to_numpy(zero_copy_only=False)
        ids = t[id_col].combine_chunks().to_numpy(zero_copy_only=False)
        key = _desc_sort_key(vals) if descending else vals
        order = np.lexsort((ids, key))[: min(need, len(vals))]
        return t.take(pa.array(order, type=pa.int64()))

    parts = [p for p in ray.get([part_topk.remote(r["path"]) for r in rows])
             if p.num_rows]
    merged = pa.concat_tables(parts)
    vals = merged[col].combine_chunks().to_numpy(zero_copy_only=False)
    ids = merged[id_col].combine_chunks().to_numpy(zero_copy_only=False)
    key = _desc_sort_key(vals) if descending else vals
    win = np.lexsort((ids, key))[offset:need]
    winners = merged.take(pa.array(win, type=pa.int64()))
    want = columns or order_cols
    extra = [c for c in want if c not in order_cols]
    if not extra:
        return winners.select([c for c in want])
    from ..collect import collect_arrow

    fetched = collect_arrow(lookup(out_dir, id_col,
                                   winners[id_col].to_pylist(),
                                   columns=want))
    if fetched.num_rows != winners.num_rows:
        raise ValueError(
            f"id column {id_col!r} is not unique: the winner fetch "
            f"returned {fetched.num_rows} rows for {winners.num_rows} "
            "winners — point lookup cannot identify which duplicate row "
            "won; use a unique id column"
        )
    # restore top-k order (lookup returns partition order)
    pos = {v: i for i, v in enumerate(winners[id_col].to_pylist())}
    order = np.argsort([pos[v] for v in fetched[id_col].to_pylist()])
    return fetched.take(pa.array(order, type=pa.int64()))


def sample_ids(out_dir: str, id_col: str, modulus: int, residue: int,
               columns: list[str] | None = None):
    """Deterministic systematic sample: rows where id % modulus ==
    residue (reproducible sampling the reference lacks; SQL-checkable).
    -> ray.data.Dataset."""
    rows = _manifest_paths(out_dir)
    want = columns

    def run(batch: pa.Table) -> pa.Table:
        outs = []
        for p in batch["path"]:
            header, _ = read_header(p.as_py())
            cols = want or list(header["columns"])
            need = cols if id_col in cols else [id_col] + cols
            t = decode_partition(p.as_py(), columns=need)
            ids = t[id_col].combine_chunks().cast(pa.int64())
            ids_np = ids.to_numpy(zero_copy_only=False)
            mask = pa.array((ids_np % modulus) == residue)
            outs.append(t.filter(mask).select(cols))
        return pa.concat_tables(outs)

    return map_partitions(rows, run)


# ---------------------------------------------------------------------------
# random access
# ---------------------------------------------------------------------------

def random_access(out_dir: str, row_ids: list[int],
                  columns: list[str] | None = None) -> pa.Table:
    """Global row-id lookup. Row ids index the concatenation of
    partitions in manifest (part_key-sorted) order — the analogue of the
    reference's global row-id over sequential blocks
    (src/reader.cpp:113-128). Only touched chunks are decoded; shared
    dictionaries of untouched chunks are advanced from their dict
    segments only. Returns rows in ascending row_id order with a
    ``row_id`` column."""
    rows = _manifest_paths(out_dir)
    counts = np.array([r["rows"] for r in rows], dtype=np.int64)
    prefix = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(counts, out=prefix[1:])
    ids = np.unique(np.asarray(row_ids, dtype=np.int64))
    if len(ids) and (ids[0] < 0 or ids[-1] >= prefix[-1]):
        raise IndexError("row id out of range")
    part_of = np.searchsorted(prefix, ids, side="right") - 1
    out_tables = []
    for pi in np.unique(part_of):
        local = ids[part_of == pi] - prefix[pi]
        path = rows[pi]["path"]
        header, _ = read_header(path)
        chunk_rows = header["chunk_rows"]
        starts = np.array([c[0] for c in chunk_rows], dtype=np.int64)
        ends = starts + np.array([c[1] for c in chunk_rows], dtype=np.int64)
        mask = [bool(((local >= s) & (local < e)).any())
                for s, e in zip(starts, ends)]
        sub = decode_partition(path, columns=columns, chunk_mask=mask)
        # map local row positions into the concatenated kept-chunk space
        kept_offsets = np.cumsum([0] + [chunk_rows[i][1] for i, k in enumerate(mask) if k])
        kept_idx = np.flatnonzero(mask)
        chunk_of = np.searchsorted(ends, local, side="right")
        pos_in_kept = np.searchsorted(kept_idx, chunk_of)
        take = local - starts[chunk_of] + kept_offsets[pos_in_kept]
        sub = sub.take(pa.array(take, type=pa.int64()))
        sub = sub.append_column("row_id", pa.array(local + prefix[pi], type=pa.int64()))
        out_tables.append(sub)
    if not out_tables:
        if rows:
            header, _ = read_header(rows[0]["path"])
            empty = _empty_projection(
                header, columns or list(header["columns"]))
        else:  # zero-partition dir (and row_ids empty — checked above)
            from .encode import read_schema_sidecar

            sch = read_schema_sidecar(out_dir)
            want = columns or (list(sch.names) if sch is not None else [])
            empty = _sidecar_empty(out_dir, want)
        return empty.append_column("row_id", pa.array([], type=pa.int64()))
    return pa.concat_tables(out_tables)


def lookup(out_dir: str, id_col: str, values: list,
           columns: list[str] | None = None):
    """Point lookup by id values (``id_col IN values``) with manifest
    zone-map + Bloom and chunk zone-map pruning -> ray.data.Dataset.
    ``columns=None`` projects every column, in the first partition's
    header order."""
    if not columns:
        rows = _manifest_paths(out_dir)
        if rows:
            columns = list(read_header(rows[0]["path"])[0]["columns"])
        else:
            from .encode import read_schema_sidecar

            sch = read_schema_sidecar(out_dir)
            columns = list(sch.names) if sch is not None else [id_col]
    return compound_filter(out_dir, [("in", id_col, list(values))], columns)
