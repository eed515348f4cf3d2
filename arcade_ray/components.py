"""Distributed connected components over near-duplicate pair fragments.

Replaces the driver-resident union-find in ``near_dedup``: the edge
list NEVER concatenates on the driver. Pairs stay as per-verify-bucket
object-store fragments; the graph contracts by alternating LARGE-STAR /
SMALL-STAR rounds (Kiveris et al., "Connected Components in MapReduce
and Beyond", SoCC'14) over hash-partitioned adjacency until the edge
set is a fixpoint — a disjoint union of stars centered at each
component's minimum id. Alternation converges in O(log^2 n) rounds
worst-case and a handful in practice (10 rounds for a 400-node path,
2 for a 3000-node template cluster); plain min-label propagation (the
naive alternative) is O(diameter) and was measured linear on paths.

The driver holds only P partition ObjectRefs and per-round changed
counters; per-round message volume is O(edges), fixed-width int64 only.
Semantics are identical to union-by-min-id union-find: a node survives
iff it is the minimum id of its component.

Reference parity note: the reference engine has no dedup family at all
(/root/reference/README.md roadmap); this module is part of the
LLM-data-pipeline operator set layered on the same engine.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .hashing import hash_ints

MAX_ROUNDS = 200  # O(log^2 n) bound; 10 rounds covers a 400-node path

_last_rounds = 0  # rounds of the most recent run (introspection/tests)

_I64_MAX = np.iinfo(np.int64).max


def _owner(ids: np.ndarray, n_parts: int) -> np.ndarray:
    return (hash_ints(ids.astype(np.int64)) % np.uint64(n_parts)) \
        .astype(np.int64)


def _split_pairs(src: np.ndarray, dst: np.ndarray, own: np.ndarray,
                 n_parts: int) -> list:
    """Split (src, dst) message arrays by owner partition into one
    object-store object (exchange.put_buckets). Returns one
    ``(ref, lo, hi)`` handle per partition (None for empty ones)."""
    from .exchange import put_buckets

    return put_buckets(own, n_parts, lambda sel: (src[sel], dst[sel]))


def _dedup_adj(src: np.ndarray, dst: np.ndarray):
    """Sort by (src, dst) and drop duplicate directed edges."""
    order = np.lexsort((dst, src))
    s, d = src[order], dst[order]
    if len(s) > 1:
        keep = np.ones(len(s), dtype=bool)
        keep[1:] = (s[1:] != s[:-1]) | (d[1:] != d[:-1])
        s, d = s[keep], d[keep]
    return s, d


def distributed_components(pair_refs, n_parts: int | None = None):
    """Connected components over edge fragments (ObjectRefs of Arrow
    tables with ``id_a``/``id_b`` int64 columns, e.g. the verify-bucket
    outputs of :func:`collect.lsh_pairs_verify`).

    Returns the LOSER ids as one int64 numpy array: every node that is
    not its component's minimum id (the survivors are exactly the
    per-component minima — identical to union-by-min-id). The loser
    array is O(duplicates) and is the only thing that ever reaches the
    driver besides per-round changed counts."""
    import ray

    from .exchange import avail_cpus, fetch

    pair_refs = [r for r in pair_refs if r is not None]
    if not pair_refs:
        return np.empty(0, dtype=np.int64)
    if n_parts is None:
        n_parts = max(1, min(32, avail_cpus()))

    @ray.remote
    def adj_split(tab: pa.Table):
        """Directed adjacency (each undirected pair appears once per
        endpoint, owned by the src side), split by owner(src)."""
        if tab.num_columns == 0 or tab.num_rows == 0:
            return [None] * n_parts
        a = tab["id_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = tab["id_b"].to_numpy(zero_copy_only=False).astype(np.int64)
        loop = a == b  # self-loops carry no connectivity
        if loop.any():
            a, b = a[~loop], b[~loop]
        src = np.concatenate([a, b])
        dst = np.concatenate([b, a])
        return _split_pairs(src, dst, _owner(src, n_parts), n_parts)

    @ray.remote
    def adj_init(frags):
        parts = fetch(frags)
        if not parts:
            return (np.empty(0, np.int64), np.empty(0, np.int64))
        src = np.concatenate([p[0] for p in parts])
        dst = np.concatenate([p[1] for p in parts])
        return _dedup_adj(src, dst)

    @ray.remote
    def star_emit(state, large: bool):
        """One star operation over this partition's adjacency. Emits
        the rewired undirected edges as directed copies routed to both
        endpoint owners. Large-star: every strictly-larger neighbor of
        u attaches to m = min(Gamma(u) + {u}); small-star: u and its
        smaller neighbors attach to m = min(smaller + {u})."""
        src, dst = state
        if len(src) == 0:
            return [None] * n_parts
        starts = np.concatenate([[0], np.flatnonzero(np.diff(src)) + 1])
        counts = np.diff(np.concatenate([starts, [len(src)]]))
        u = src[starts]
        gid = np.repeat(np.arange(len(u), dtype=np.int64), counts)
        if large:
            m = np.minimum(u, np.minimum.reduceat(dst, starts))
            sel = dst > src
            out_a = dst[sel]
            out_b = m[gid[sel]]  # m <= u < dst: never a self-loop
        else:
            dsmall = np.where(dst < src, dst, _I64_MAX)
            m = np.minimum(u, np.minimum.reduceat(dsmall, starts))
            sel = dst < src
            a = dst[sel]
            b = m[gid[sel]]
            keep = a != b  # the group min itself attaches via (u, m)
            um = m < u
            out_a = np.concatenate([a[keep], u[um]])
            out_b = np.concatenate([b[keep], m[um]])
        s = np.concatenate([out_a, out_b])
        d = np.concatenate([out_b, out_a])
        return _split_pairs(s, d, _owner(s, n_parts), n_parts)

    @ray.remote(num_returns=2)
    def star_apply(old_state, frags):
        parts = fetch(frags)
        if not parts:
            new = (np.empty(0, np.int64), np.empty(0, np.int64))
        else:
            new = _dedup_adj(np.concatenate([p[0] for p in parts]),
                             np.concatenate([p[1] for p in parts]))
        changed = not (np.array_equal(old_state[0], new[0])
                       and np.array_equal(old_state[1], new[1]))
        return new, int(changed)

    @ray.remote
    def losers_of(state):
        """At the star fixpoint a node is a loser iff it has any
        smaller neighbor (leaves point at their component min)."""
        src, dst = state
        if len(src) == 0:
            return np.empty(0, np.int64)
        starts = np.concatenate([[0], np.flatnonzero(np.diff(src)) + 1])
        u = src[starts]
        min_nbr = np.minimum.reduceat(dst, starts)
        return u[min_nbr < u]

    frag_lists = ray.get([adj_split.remote(r) for r in pair_refs])
    states = [adj_init.remote(
        [fl[p] for fl in frag_lists if fl[p] is not None])
        for p in range(n_parts)]

    def one_star(states, large):
        emitted = ray.get([star_emit.remote(states[p], large)
                           for p in range(n_parts)])
        frags = [[e[p] for e in emitted if e[p] is not None]
                 for p in range(n_parts)]
        applied = [star_apply.remote(states[p], frags[p])
                   for p in range(n_parts)]
        # only the int changed-flags come back to the driver; the
        # updated partition adjacencies stay in the object store
        new_states = [a[0] for a in applied]
        changed = sum(ray.get([a[1] for a in applied]))
        return new_states, changed

    global _last_rounds
    for _last_rounds in range(1, MAX_ROUNDS + 1):
        states, ch_l = one_star(states, True)
        states, ch_s = one_star(states, False)
        if ch_l == 0 and ch_s == 0:
            break
    else:  # pragma: no cover - beyond the O(log^2 n) bound
        raise RuntimeError("distributed_components failed to converge")

    parts = ray.get([losers_of.remote(s) for s in states])
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.sort(np.concatenate(parts))
