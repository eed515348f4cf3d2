"""arcade_ray — a Ray-Data-native adaptive columnar compression engine.

Re-expresses the capability set of madgik/arcade (adaptive per-column
lightweight compression with cost-model codec selection, decode-free
filtering, zone-map skipping, bit-identical round trip) as streaming
``ray.data.Dataset`` pipelines over Arrow batches. See SURVEY.md for
the full blueprint and reference citations.

This package never calls ``ray.init()`` — sessions are owned by the
caller (driver contract, tests/conftest.py, bench.py).

Public API (lazy imports keep `import arcade_ray` light)::

    from arcade_ray import encode_parquet, encode_dataset, decode_dataset
    from arcade_ray import scan, equi_filter, range_filter, random_access
    from arcade_ray import lookup, compact, verify_roundtrip
"""

__version__ = "0.1.0"


def _install_empty_schema_log_filter():
    """Drop Ray Data's per-operator "RefBundle with a different schema
    ... new schema: ." warning — and ONLY that variant.

    Ray's sort/shuffle emits zero-row blocks with an EMPTY schema for
    empty key ranges; every downstream map operator then re-logs the
    divergence once per execution (the UDF is never invoked for empty
    blocks, so it cannot answer with a typed empty). The empties are
    harmless here — collect_arrow and the write paths tolerate them —
    but the noise buries real errors in query logs.

    Trade-off, stated plainly: the log line cannot distinguish Ray's
    sort-emitted empties from a UDF REGRESSION that returns 0-column
    tables for real data, so this also mutes the latter; the oracle
    parity suite (row counts + value hashes per query) is the guard
    for that class. Schema-vs-SCHEMA divergence (two non-empty
    schemas) still passes through."""
    import logging

    class _EmptySchemaDivergence(logging.Filter):
        def filter(self, record: logging.LogRecord) -> bool:
            msg = record.getMessage()
            return not ("a different schema" in msg
                        and "new schema: ." in msg)

    logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state"
    ).addFilter(_EmptySchemaDivergence())


_install_empty_schema_log_filter()

_API = {
    "encode_parquet": "arcade_ray.pipeline.encode",
    "encode_dataset": "arcade_ray.pipeline.encode",
    "load_manifest": "arcade_ray.pipeline.encode",
    "decode_dataset": "arcade_ray.pipeline.decode",
    "scan": "arcade_ray.pipeline.query",
    "equi_filter": "arcade_ray.pipeline.query",
    "range_filter": "arcade_ray.pipeline.query",
    "random_access": "arcade_ray.pipeline.query",
    "lookup": "arcade_ray.pipeline.query",
    "dict_value_counts": "arcade_ray.pipeline.query",
    "dict_group_aggregate": "arcade_ray.pipeline.query",
    "compound_filter": "arcade_ray.pipeline.query",
    "topk": "arcade_ray.pipeline.query",
    "sample_ids": "arcade_ray.pipeline.query",
    "broadcast_join": "arcade_ray.pipeline.join",
    "shuffle_join": "arcade_ray.pipeline.join",
    "compact": "arcade_ray.pipeline.compact",
    "verify_roundtrip": "arcade_ray.pipeline.verify",
    "encode_partition": "arcade_ray.format",
    "decode_partition": "arcade_ray.format",
    "generate_corpus": "arcade_ray.corpus",
    # training-data pipeline operators
    "exact_dedup": "arcade_ray.textops",
    "near_dedup": "arcade_ray.textops",
    "minhash_lsh_pairs": "arcade_ray.textops",
    "simhash_pairs": "arcade_ray.textops",
    "analyze_text": "arcade_ray.textops",
    "decontaminate": "arcade_ray.textops",
    "ngram_contaminated_ids": "arcade_ray.textops",
    "winnow_table": "arcade_ray.textops",
    "topk_cosine": "arcade_ray.ann",
    "lsh_topk_cosine": "arcade_ray.ann",
    "ivf_topk_cosine": "arcade_ray.ann",
    "near_dup_pairs": "arcade_ray.ann",
    "extract_image_features": "arcade_ray.mediaops",
    "extract_audio_features": "arcade_ray.mediaops",
    "sample_frames": "arcade_ray.mediaops",
}


def __getattr__(name):
    if name in _API:
        import importlib

        mod = importlib.import_module(_API[name])
        return getattr(mod, name)
    raise AttributeError(name)


__all__ = sorted(_API)
