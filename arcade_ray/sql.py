"""SQL frontend: compile an ANSI-SQL subset straight onto the
engine's operators, so a user can point plain SQL at an encoded
directory and get the zone-map-pruned, decode-free execution paths
without learning the Python API.

Parsing is delegated to DuckDB's public ``json_serialize_sql``
(no hand-rolled grammar — the AST arrives as JSON); planning and
execution are entirely this module, mapping onto:

  WHERE          -> :func:`pipeline.query.compound_filter`'s 3VL
                    predicate trees (zone-map + Bloom pruning, code-
                    domain compares; LIKE becomes prefix/suffix/
                    contains/anchored-RE2 leaves)
  bare SELECT    -> :func:`pipeline.query.scan` with column pruning
  GROUP BY + agg -> :func:`pipeline.query.dict_group_aggregate`
                    (decode-free: keys never materialize per row)
                    when the query shape allows, else a streamed
                    per-batch pyarrow partial aggregation merged on
                    the driver (O(groups) driver state — the map-side
                    combine the 100-TB path needs)
  ORDER + LIMIT  -> distributed per-batch partial top-k + tiny driver
                    merge for row streams; plain table sort for
                    (already small) aggregate outputs

Supported subset (single SELECT statement):
  projection (columns, aliases), WHERE with =, <>, <, <=, >, >=,
  BETWEEN, IN, LIKE / NOT LIKE, IS [NOT] NULL, AND, OR, NOT;
  GROUP BY over string columns with COUNT(*) / COUNT(col) / SUM /
  MIN / MAX / AVG (plus CAST and +,-,*,/ arithmetic over aggregates);
  HAVING; ORDER BY; LIMIT / OFFSET; SELECT DISTINCT (streamed
  per-batch distinct, merged on the driver); uncorrelated subqueries —
  ``IN (SELECT ...)`` compiles to the code-domain IN leaf over the
  subquery's distinct set (the semi-join shape; NOT IN honors SQL's
  NULL-poisoning), scalar subqueries fold to constants.  Unsupported
  constructs raise ``SqlUnsupported`` with the offending AST class
  named.

Reference lineage: the reference engine exposes single-predicate
scans from a CLI (/root/reference/README.md:122); this module is the
"query language" milestone from its roadmap (README.md:133) realized
against the same encoded format.
"""
from __future__ import annotations

import json
import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .collect import group_aggregate

__all__ = ["sql_query", "explain_sql", "SqlUnsupported"]


class SqlUnsupported(ValueError):
    """Raised when the SQL uses a construct outside the compiled
    subset (the message names it; DuckDB itself remains the fallback
    for ad-hoc analytics outside the engine)."""


# --------------------------------------------------------------------------
# parsing (DuckDB json_serialize_sql)

def _parse(sql: str) -> dict:
    import duckdb

    lit = sql.replace("'", "''")
    with duckdb.connect() as con:
        doc = json.loads(con.execute(
            f"select json_serialize_sql('{lit}')").fetchone()[0])
    if doc.get("error"):
        raise SqlUnsupported(
            f"parse error: {doc.get('error_message', doc)}")
    stmts = doc["statements"]
    if len(stmts) != 1:
        raise SqlUnsupported("exactly one statement per call")
    node = stmts[0]["node"]
    if node.get("type") not in ("SELECT_NODE", "SET_OPERATION_NODE"):
        raise SqlUnsupported(f"statement type {node.get('type')!r}")
    return node


# --------------------------------------------------------------------------
# constants / types

_TYPE_MAP = {
    "BOOLEAN": pa.bool_(), "TINYINT": pa.int8(), "SMALLINT": pa.int16(),
    "INTEGER": pa.int32(), "BIGINT": pa.int64(), "HUGEINT": pa.int64(),
    "FLOAT": pa.float32(), "DOUBLE": pa.float64(),
    "VARCHAR": pa.string(),
    "DATE": pa.date32(), "TIMESTAMP": pa.timestamp("us"),
}


def _const_value(node: dict):
    if node.get("class") == "CAST":
        # typed literals (TIMESTAMP '...', DATE '...', CAST(c AS t))
        # in constant positions: evaluate into the engine's value
        # domain — timestamps compare as epoch-µs int64 (the zone-map
        # domain timestamp columns encode in), dates as epoch days
        inner = _const_value(node["child"])
        if inner is None:
            return None
        tid = node["cast_type"]["id"]
        if tid == "TIMESTAMP":
            import datetime as _dt

            dt = _dt.datetime.fromisoformat(str(inner))
            if dt.tzinfo is None:
                dt = dt.replace(tzinfo=_dt.timezone.utc)
            return int(dt.timestamp() * 1_000_000)
        if tid == "DATE":
            import datetime as _dt

            return (_dt.date.fromisoformat(str(inner))
                    - _dt.date(1970, 1, 1)).days
        if tid in ("TINYINT", "SMALLINT", "INTEGER", "BIGINT",
                   "HUGEINT"):
            return int(inner)
        if tid in ("FLOAT", "DOUBLE"):
            return float(inner)
        if tid == "VARCHAR":
            return str(inner)
        if tid == "BOOLEAN":
            return bool(inner)
        raise SqlUnsupported(f"CAST to {tid!r} as a constant")
    v = node["value"]
    if v.get("is_null"):
        return None
    tid = v["type"]["id"]
    raw = v["value"]
    if tid in ("TINYINT", "SMALLINT", "INTEGER", "BIGINT", "HUGEINT",
               "UTINYINT", "USMALLINT", "UINTEGER", "UBIGINT"):
        return int(raw)
    if tid in ("FLOAT", "DOUBLE"):
        return float(raw)
    if tid == "DECIMAL":
        ti = v["type"].get("type_info") or {}
        scale = ti.get("scale", 0)
        return float(int(raw)) / (10 ** scale) if isinstance(raw, int) \
            else float(raw)
    if tid == "VARCHAR":
        return raw
    if tid == "BOOLEAN":
        return bool(raw)
    raise SqlUnsupported(f"constant type {tid!r}")


def _colref(node: dict) -> str:
    if "column_names" not in node:
        raise SqlUnsupported(
            f"expected a column reference, got {node.get('class')!r}")
    names = node["column_names"]
    return names[-1]  # table qualifiers resolved by the (single) scan


# --------------------------------------------------------------------------
# WHERE compilation -> engine predicate trees

_LIKE_SPECIALS = re.compile(r"([.^$*+?()\[\]{}|\\])")


def _like_tree(col: str, pattern: str):
    """LIKE pattern -> the cheapest engine leaf: prefix/suffix/
    contains run code-domain (each dict entry tested once), general
    patterns become an ANCHORED RE2 regex (engine regex = substring
    search, so ^...$ makes it a full match, as LIKE requires)."""
    body = pattern
    if "_" not in body:
        stripped = body.strip("%")
        if "%" not in stripped:
            n_lead = len(body) - len(body.lstrip("%"))
            n_trail = len(body) - len(body.rstrip("%"))
            if n_lead == 0 and n_trail == 0:
                return ("eq", col, body)
            if n_lead == 0:
                return ("prefix", col, body.rstrip("%"))
            if n_trail == 0:
                return ("suffix", col, body.lstrip("%"))
            return ("contains", col, stripped)
    rx = _LIKE_SPECIALS.sub(r"\\\1", pattern)
    rx = rx.replace("%", ".*").replace("_", ".")
    return ("regex", col, f"^{rx}$")


def _like_escape_regex(pattern: str, escape: str) -> str:
    """LIKE ... ESCAPE 'e' -> anchored RE2: the escape char protects
    the following char (incl. % and _) as a literal; unescaped % / _
    keep their wildcard meaning."""
    if len(escape) != 1:
        raise SqlUnsupported("ESCAPE must be a single character")
    out = []
    i, n = 0, len(pattern)
    while i < n:
        ch = pattern[i]
        if ch == escape and i + 1 < n:
            out.append(re.escape(pattern[i + 1]))
            i += 2
            continue
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
        i += 1
    return "^" + "".join(out) + "$"


def _cmp_tree(ctype: str, col: str, lit):
    """One comparison leaf. Strict bounds on integers rewrite to
    closed bounds (zone-prunable); other types use the 3VL-exact
    NOT(complement-range) form — NOT keeps UNKNOWN, so null rows drop
    exactly as SQL requires."""
    if ctype == "COMPARE_EQUAL":
        return ("eq", col, lit)
    if ctype == "COMPARE_NOTEQUAL":
        return ("not", ("eq", col, lit))
    if ctype == "COMPARE_GREATERTHANOREQUALTO":
        return ("between", col, lit, None)
    if ctype == "COMPARE_LESSTHANOREQUALTO":
        return ("between", col, None, lit)
    if ctype == "COMPARE_GREATERTHAN":
        if isinstance(lit, int) and not isinstance(lit, bool):
            return ("between", col, lit + 1, None)
        return ("not", ("between", col, None, lit))
    if ctype == "COMPARE_LESSTHAN":
        if isinstance(lit, int) and not isinstance(lit, bool):
            return ("between", col, None, lit - 1)
        return ("not", ("between", col, lit, None))
    raise SqlUnsupported(f"comparison {ctype!r}")


_FLIP = {"COMPARE_GREATERTHAN": "COMPARE_LESSTHAN",
         "COMPARE_LESSTHAN": "COMPARE_GREATERTHAN",
         "COMPARE_GREATERTHANOREQUALTO": "COMPARE_LESSTHANOREQUALTO",
         "COMPARE_LESSTHANOREQUALTO": "COMPARE_GREATERTHANOREQUALTO",
         "COMPARE_EQUAL": "COMPARE_EQUAL",
         "COMPARE_NOTEQUAL": "COMPARE_NOTEQUAL"}


def _null_literal_tree(col: str, neg: bool):
    """A predicate whose operand is a NULL literal: UNKNOWN on every
    row. Outside negation that is indistinguishable from never-TRUE;
    under a NOT the UNKNOWN rows become load-bearing and have no
    engine-leaf encoding, so refuse loudly."""
    if neg:
        raise SqlUnsupported(
            "NULL-literal comparison under NOT (UNKNOWN everywhere "
            "has no engine-leaf encoding)")
    return _never_true(col)


def _never_true(col: str):
    """A predicate tree no row satisfies (matches SQL UNKNOWN-only
    outcomes like ``x NOT IN (..., NULL)``)."""
    return ("and", [("isnull", col), ("notnull", col)])


def _subquery_in_values(node: dict, tables: dict):
    """Evaluate an uncorrelated IN-subquery to its DISTINCT value
    set. The set lands on the driver (the same bound as semi_join's
    broadcast key-set path — use semi_join_large for key sets past
    driver memory); the outer predicate then runs as the engine's
    code-domain IN leaf (each dictionary entry tested once)."""
    sub = node["subquery"]["node"]
    res = _execute_node(sub, tables)
    if not isinstance(res, pa.Table):
        from .collect import collect_arrow

        res = collect_arrow(res)
    if res.num_columns != 1:
        raise SqlUnsupported("IN-subquery must select exactly one column")
    col = res.column(0).combine_chunks()
    has_null = col.null_count > 0
    vals = pc.unique(pc.drop_null(col)).to_pylist()
    return vals, has_null


def _scalar_subquery(node: dict, tables: dict):
    sub = node["subquery"]["node"]
    res = _execute_node(sub, tables)
    if not isinstance(res, pa.Table):
        from .collect import collect_arrow

        res = collect_arrow(res)
    if res.num_columns != 1 or res.num_rows > 1:
        raise SqlUnsupported("scalar subquery must yield one value")
    return res.column(0)[0].as_py() if res.num_rows else None


def _match_all(col: str):
    """A predicate tree every row satisfies (definite TRUE, 3VL-safe
    under NOT: isnull/notnull are never UNKNOWN)."""
    return ("or", [("isnull", col), ("notnull", col)])


def _exists_subquery(node: dict, tables: dict) -> bool:
    """Uncorrelated EXISTS folds to a boolean at compile time: the
    subquery reruns as SELECT COUNT(*) (its select list is
    irrelevant to existence)."""
    sub = dict(node["subquery"]["node"])
    sub["select_list"] = [{
        "class": "FUNCTION", "type": "FUNCTION", "alias": "n",
        "function_name": "count_star", "children": [],
        "distinct": False, "filter": None}]
    sub["modifiers"] = []
    res = _execute_node(sub, tables)
    return bool(res["n"][0].as_py())


def _compile_in_subquery(node: dict, tables: dict, col: str):
    vals, has_null = _subquery_in_values(node, tables)
    if not vals:
        return _never_true(col), has_null
    return ("in", col, vals), has_null


# --- correlated EXISTS decorrelation --------------------------------

def _and_conjuncts(w: dict) -> list:
    if w.get("class") == "CONJUNCTION" \
            and w.get("type") == "CONJUNCTION_AND":
        out = []
        for c in w["children"]:
            out += _and_conjuncts(c)
        return out
    return [w]


def _rebuild_and(conj: list):
    if not conj:
        return None
    if len(conj) == 1:
        return conj[0]
    return {"class": "CONJUNCTION", "type": "CONJUNCTION_AND",
            "children": conj}


def _refs_outer(node, oalias: str, strict_outer: set) -> bool:
    """Does this expression reference the OUTER scope? A bare name in
    both scopes binds to the inner table (innermost scope), so only
    qualified refs and names absent from the inner table count."""
    if isinstance(node, dict):
        if node.get("class") == "COLUMN_REF":
            names = node.get("column_names") or []
            if len(names) > 1 and names[0] == oalias:
                return True
            return len(names) == 1 and names[0] in strict_outer
        return any(_refs_outer(v, oalias, strict_outer)
                   for v in node.values())
    if isinstance(node, list):
        return any(_refs_outer(v, oalias, strict_outer) for v in node)
    return False


def _corr_equality(c: dict, oalias: str, ocols: set,
                   ialias: str, icols: set):
    """(outer_col, inner_col) when ``c`` is an equality between an
    outer-scope column and an inner-table column, else None."""
    if c.get("class") != "COMPARISON" or c.get("type") != "COMPARE_EQUAL":
        return None
    sides = {}
    for ref in (c["left"], c["right"]):
        if ref.get("class") != "COLUMN_REF":
            return None
        names = ref["column_names"]
        col = names[-1]
        qual = names[0] if len(names) > 1 else None
        if qual == ialias or (qual is None and col in icols):
            sides.setdefault("i", col)
        elif qual == oalias or (qual is None and col in ocols):
            sides.setdefault("o", col)
        else:
            return None
    return (sides["o"], sides["i"]) if set(sides) == {"o", "i"} else None


def _decorrelate(sub: dict, tables: dict, outer):
    """Detect the supported correlated-subquery shape: a single-table
    subquery whose WHERE is (outer.col = inner.col) AND residual
    uncorrelated predicates. Returns ((outer_col, inner_col),
    residual conjuncts) or None when the subquery is uncorrelated.
    Raises for correlations this lowering can't express."""
    if outer is None:
        return None
    oalias, ocols = outer
    ft = sub.get("from_table") or {}
    if ft.get("type") != "BASE_TABLE" or ft["table_name"] not in tables:
        return None
    ialias = ft.get("alias") or ft["table_name"]
    icols = set(_dataset_columns(tables[ft["table_name"]]))
    w = sub.get("where_clause")
    if not w:
        return None
    strict_outer = set(ocols) - icols
    corr, resid = [], []
    for c in _and_conjuncts(w):
        pair = _corr_equality(c, oalias, set(ocols), ialias, icols)
        if pair is not None:
            corr.append(pair)
        elif _refs_outer(c, oalias, strict_outer):
            raise SqlUnsupported(
                "correlated subquery: only AND-ed equality "
                "correlation (outer.col = inner.col) is supported")
        else:
            resid.append(c)
    if not corr:
        return None
    if len(corr) > 1:
        raise SqlUnsupported(
            "correlated subquery with multiple correlation equalities")
    return corr[0], resid


def _corr_exists_tree(sub: dict, dec, tables: dict):
    """Lower correlated EXISTS to a semi-join predicate: run the
    subquery once WITHOUT the correlation conjunct, projecting the
    DISTINCT inner key (the classic decorrelation), then test the
    outer column against that broadcast key set. The tree is
    3VL-DEFINITE (never UNKNOWN): EXISTS is false — not unknown —
    for a NULL outer key, so the plain NOT complement stays exact
    for NOT EXISTS at any negation depth."""
    (ocol, icol), resid = dec
    if sub.get("group_expressions") or sub.get("having"):
        raise SqlUnsupported("correlated EXISTS with GROUP BY/HAVING")
    for m in sub.get("modifiers") or []:
        if m.get("type") != "LIMIT_MODIFIER":
            continue
        # LIMIT applies PER correlation evaluation and cannot
        # decorrelate in general; LIMIT k>=1 without OFFSET never
        # changes existence, LIMIT 0 is constant-false
        if m.get("offset"):
            raise SqlUnsupported(
                "correlated EXISTS with OFFSET (per-key row skipping "
                "does not decorrelate)")
        lim = m.get("limit")
        if lim is not None and lim.get("class") == "CONSTANT" \
                and _const_value(lim) == 0:
            return _never_true(ocol)
    sub2 = dict(sub)
    sub2["select_list"] = [{"class": "COLUMN_REF", "type": "COLUMN_REF",
                            "alias": "", "column_names": [icol]}]
    sub2["where_clause"] = _rebuild_and(resid)
    sub2["modifiers"] = []
    res = _execute_node(sub2, tables)
    if not isinstance(res, pa.Table):
        from .collect import collect_arrow

        res = collect_arrow(res)
    vals = pc.unique(pc.drop_null(res.column(0).combine_chunks())) \
        .to_pylist()
    if not vals:
        return _never_true(ocol)
    return ("and", [("notnull", ocol), ("in", ocol, vals)])


def _corr_scalar_map(x: dict, dec, tables: dict) -> dict:
    """Lower a CORRELATED scalar subquery in the SELECT list to a
    broadcast key->value lookup node: run the subquery ONCE without
    the correlation conjunct, projecting (inner_key, value) — grouped
    by the key when the value is an aggregate (the classic
    decorrelation), else enforcing SQL's more-than-one-row error per
    key — then evaluate per outer row as index_in + take (NULL where
    no match, exactly a scalar subquery's empty-result semantics)."""
    (ocol, icol), resid = dec
    sub = x["subquery"]["node"]
    if sub.get("group_expressions") or sub.get("having") \
            or sub.get("modifiers") or sub.get("qualify"):
        raise SqlUnsupported(
            "correlated scalar subquery with GROUP BY/HAVING/LIMIT")
    items = sub["select_list"]
    if len(items) != 1:
        raise SqlUnsupported("scalar subquery must select one column")
    is_agg = _has_agg(items[0])
    val_item = dict(items[0])
    val_item["alias"] = "__corr_v"
    key_item = {"class": "COLUMN_REF", "type": "COLUMN_REF",
                "alias": "__corr_k", "column_names": [icol]}
    sub2 = dict(sub)
    sub2["select_list"] = [key_item, val_item]
    sub2["where_clause"] = _rebuild_and(resid)
    sub2["modifiers"] = []
    if is_agg:
        sub2["group_expressions"] = [dict(key_item, alias="")]
        sub2["group_sets"] = []
    res = _materialize_result(_execute_node(sub2, tables))
    # a NULL inner key never equals anything: drop it from the map
    res = res.filter(pc.is_valid(res["__corr_k"]))
    keys = res["__corr_k"].combine_chunks()
    vals = res["__corr_v"].combine_chunks()
    if not is_agg and len(keys) != len(pc.unique(keys)):
        raise ValueError(
            "correlated scalar subquery returned more than one row "
            "for some correlation key")
    default = None
    if is_agg:
        # the COUNT bug of naive decorrelation: an unmatched key must
        # see the aggregate over the EMPTY set (COUNT -> 0, SUM/MIN/
        # MAX/AVG -> NULL), not a missing group. Evaluate it once by
        # running the value aggregate with a FALSE conjunct.
        false_node = {"class": "CONSTANT", "type": "VALUE_CONSTANT",
                      "alias": "",
                      "value": {"type": {"id": "BOOLEAN",
                                         "type_info": None},
                                "is_null": False, "value": False}}
        sub3 = dict(sub)
        sub3["select_list"] = [dict(val_item)]
        sub3["where_clause"] = _rebuild_and(list(resid) + [false_node])
        sub3["modifiers"] = []
        d = _materialize_result(_execute_node(sub3, tables))
        if d.num_rows == 1:
            default = d.column(0)[0].as_py()
    return {"class": "SCALAR_MAP", "type": "SCALAR_MAP",
            "alias": x.get("alias") or "",
            "outer_ref": {"class": "COLUMN_REF", "type": "COLUMN_REF",
                          "alias": "", "column_names": [ocol]},
            "_keys": keys, "_values": vals, "_default": default}


def _rmq_minmax(vm, lo, hi, is_max: bool):
    """Variable-width [lo, hi] min/max queries via an O(n log n)
    sparse table (two overlapping power-of-two windows per query) —
    the ROWS-frame sliding-window trick can't serve value frames
    whose width varies per row."""
    import numpy as np

    n = len(vm)
    op = np.maximum if is_max else np.minimum
    sp = [vm]
    k = 1
    while (1 << k) <= n:
        prev = sp[-1]
        half = 1 << (k - 1)
        m = n - (1 << k) + 1
        sp.append(op(prev[:m], prev[half:half + m]))
        k += 1
    w = hi - lo + 1
    kk = np.zeros(n, dtype=np.int64)
    nz = w > 0
    kk[nz] = np.floor(np.log2(w[nz])).astype(np.int64)
    res = np.empty(n, dtype=vm.dtype)
    for ki in range(len(sp)):
        m = kk == ki
        if m.any():
            res[m] = op(sp[ki][lo[m]],
                        sp[ki][hi[m] - (1 << ki) + 1])
    return res


_NOFOLD = object()


_IVL_US = {"to_microseconds": 1, "to_milliseconds": 1000,
           "to_seconds": 10 ** 6, "to_minutes": 60 * 10 ** 6,
           "to_hours": 3600 * 10 ** 6, "to_days": 86400 * 10 ** 6,
           "to_weeks": 7 * 86400 * 10 ** 6}


def _interval_micros(nd: dict):
    """INTERVAL n <unit> parses as a to_<unit>() constructor call —
    fold fixed-length units to microseconds (months/years need
    calendar arithmetic and return None -> refusal)."""
    if nd.get("class") != "FUNCTION" \
            or nd.get("function_name") not in _IVL_US:
        return None
    ch = nd.get("children") or []
    if len(ch) != 1:
        return None
    v = _fold_const_expr(ch[0])
    if v is _NOFOLD or not isinstance(v, (int, float)):
        return None
    return int(v) * _IVL_US[nd["function_name"]]


def _interval_months(nd: dict):
    """INTERVAL n MONTH/YEAR constructor -> months count, or None."""
    mul = {"to_months": 1, "to_years": 12,
           "to_decades": 120, "to_centuries": 1200}
    if nd.get("class") != "FUNCTION" \
            or nd.get("function_name") not in mul:
        return None
    ch = nd.get("children") or []
    if len(ch) != 1:
        return None
    v = _fold_const_expr(ch[0])
    if v is _NOFOLD or not isinstance(v, (int, float)):
        return None
    return int(v) * mul[nd["function_name"]]


def _is_ts_literal_expr(nd: dict) -> bool:
    if nd.get("class") == "CAST":
        return nd.get("cast_type", {}).get("id") == "TIMESTAMP"
    if nd.get("class") == "FUNCTION" \
            and nd.get("function_name") in ("+", "-") \
            and len(nd.get("children") or []) == 2:
        return _is_ts_literal_expr(nd["children"][0])
    return False


def _fold_const_expr(nd: dict):
    """Evaluate a COLUMN-FREE expression in a predicate position to a
    plain constant (typed literals via _const_value; arithmetic /
    string functions over literals via a one-row _eval_expr).
    Returns :data:`_NOFOLD` when the expression references columns or
    yields a type outside the predicate value domain."""
    try:
        return _const_value(nd)
    except (SqlUnsupported, KeyError, TypeError, ValueError):
        pass
    # TIMESTAMP literal +/- INTERVAL: both sides fold to epoch-µs
    # ints, so the arithmetic stays in the engine's zone-map domain
    if nd.get("class") == "FUNCTION" \
            and nd.get("function_name") in ("+", "-") \
            and len(nd.get("children") or []) == 2 \
            and _is_ts_literal_expr(nd):
        lv = _fold_const_expr(nd["children"][0])
        if lv is _NOFOLD or not isinstance(lv, int):
            return _NOFOLD
        rv = _interval_micros(nd["children"][1])
        if rv is not None:
            return lv + rv if nd["function_name"] == "+" else lv - rv
        months = _interval_months(nd["children"][1])
        if months is not None:
            # calendar arithmetic with SQL's day clamping
            # (2024-03-31 - 1 MONTH = 2024-02-29)
            import calendar as _cal
            import datetime as _dt

            sign = 1 if nd["function_name"] == "+" else -1
            dt = _dt.datetime.fromtimestamp(lv / 1_000_000,
                                            _dt.timezone.utc)
            total = dt.year * 12 + (dt.month - 1) + sign * months
            y, m = divmod(total, 12)
            d = min(dt.day, _cal.monthrange(y, m + 1)[1])
            nd2 = dt.replace(year=y, month=m + 1, day=d)
            # exact epoch-µs: integer seconds + the (unchanged) µs
            return int(nd2.replace(microsecond=0).timestamp()) \
                * 1_000_000 + nd2.microsecond
        return _NOFOLD
    cols: set = set()
    try:
        _expr_columns(nd, cols)
    except SqlUnsupported:
        return _NOFOLD
    if cols:
        return _NOFOLD
    try:
        v = _eval_expr(nd, {}, 1)
    except Exception:
        return _NOFOLD
    if isinstance(v, (pa.Array, pa.ChunkedArray)):
        if len(v) != 1:
            return _NOFOLD
        v = v[0]
    if isinstance(v, pa.Scalar):
        v = v.as_py()
    if v is None or isinstance(v, (bool, int, float, str)):
        return v
    return _NOFOLD


def _compile_pred(node: dict, tables: dict, neg: bool = False,
                  any_col: str | None = None, outer=None):
    """``neg``: whether an enclosing NOT inverts this subtree — only
    null-bearing IN-subqueries care (their UNKNOWN rows flip from
    harmless to load-bearing under negation). ``any_col``: any column
    of the outer table, the operand for operand-less folds (EXISTS).
    ``outer``: (alias, columns) of the outer table, enabling
    correlated-EXISTS decorrelation."""
    cls, typ = node.get("class"), node.get("type")
    if cls == "CONJUNCTION":
        op = "and" if typ == "CONJUNCTION_AND" else "or"
        return (op, [_compile_pred(c, tables, neg, any_col, outer)
                     for c in node["children"]])
    if cls == "COMPARISON":
        left, right = node["left"], node["right"]
        if right.get("class") == "SUBQUERY":
            if left["class"] != "COLUMN_REF":
                raise SqlUnsupported("subquery compare needs a column")
            v = _scalar_subquery(right, tables)
            col = _colref(left)
            if v is None:
                return _null_literal_tree(col, neg)
            return _cmp_tree(typ, col, v)
        if left.get("class") == "SUBQUERY":
            if right["class"] != "COLUMN_REF":
                raise SqlUnsupported("subquery compare needs a column")
            v = _scalar_subquery(left, tables)
            col = _colref(right)
            if v is None:
                return _null_literal_tree(col, neg)
            return _cmp_tree(_FLIP[typ], col, v)
        if left["class"] == "COLUMN_REF" and right["class"] == "CONSTANT":
            v = _const_value(right)
            col = _colref(left)
            # comparison with a NULL literal is UNKNOWN on every row
            if v is None:
                return _null_literal_tree(col, neg)
            return _cmp_tree(typ, col, v)
        if left["class"] == "CONSTANT" and right["class"] == "COLUMN_REF":
            v = _const_value(left)
            col = _colref(right)
            if v is None:
                return _null_literal_tree(col, neg)
            return _cmp_tree(_FLIP[typ], col, v)
        # column vs a COLUMN-FREE expression (typed literals,
        # arithmetic on literals, string concat): fold to a constant
        if left["class"] == "COLUMN_REF":
            v = _fold_const_expr(right)
            if v is not _NOFOLD:
                col = _colref(left)
                if v is None:
                    return _null_literal_tree(col, neg)
                return _cmp_tree(typ, col, v)
        if right["class"] == "COLUMN_REF":
            v = _fold_const_expr(left)
            if v is not _NOFOLD:
                col = _colref(right)
                if v is None:
                    return _null_literal_tree(col, neg)
                return _cmp_tree(_FLIP[typ], col, v)
        raise SqlUnsupported("comparison must be column vs constant")
    if cls == "BETWEEN":
        col = _colref(node["input"])
        lo = _fold_const_expr(node["lower"])
        hi = _fold_const_expr(node["upper"])
        if lo is _NOFOLD or hi is _NOFOLD:
            raise SqlUnsupported("BETWEEN bounds must be constants")
        if lo is None or hi is None:  # NULL bound -> UNKNOWN everywhere
            return _null_literal_tree(col, neg)
        return ("between", col, lo, hi)
    if cls == "SUBQUERY":
        if node.get("subquery_type") == "EXISTS":
            dec = _decorrelate(node["subquery"]["node"], tables, outer)
            if dec is not None:
                return _corr_exists_tree(node["subquery"]["node"],
                                         dec, tables)
            if any_col is None:
                raise SqlUnsupported("EXISTS here (no outer column)")
            return _match_all(any_col) if _exists_subquery(node, tables) \
                else _never_true(any_col)
        if node.get("subquery_type") != "ANY" \
                or node.get("comparison_type") != "COMPARE_EQUAL":
            raise SqlUnsupported(
                f"subquery type {node.get('subquery_type')!r}")
        if node["child"]["class"] != "COLUMN_REF":
            raise SqlUnsupported("IN-subquery operand must be a column")
        col = _colref(node["child"])
        tree, has_null = _compile_in_subquery(node, tables, col)
        if has_null and neg:
            raise SqlUnsupported(
                "negated IN over a subquery returning NULLs "
                "(its UNKNOWN rows have no engine-leaf encoding)")
        return tree
    if cls == "OPERATOR":
        if typ == "OPERATOR_NOT":
            child = node["children"][0]
            if child.get("class") == "SUBQUERY" \
                    and child.get("subquery_type") == "EXISTS":
                dec = _decorrelate(child["subquery"]["node"], tables,
                                   outer)
                if dec is not None:
                    # the correlated tree is 3VL-definite (false, not
                    # unknown, on a NULL outer key), so the plain NOT
                    # complement is exact
                    return ("not", _corr_exists_tree(
                        child["subquery"]["node"], dec, tables))
                if any_col is None:
                    raise SqlUnsupported("EXISTS here (no outer column)")
                # NOT EXISTS: the fold is definite TRUE/FALSE, so the
                # plain complement is exact
                return _never_true(any_col) \
                    if _exists_subquery(child, tables) \
                    else _match_all(any_col)
            if child.get("class") == "SUBQUERY" \
                    and child.get("subquery_type") == "ANY":
                # direct NOT IN (SELECT ...): a NULL in the set makes
                # every non-matching row UNKNOWN -> zero rows survive
                if child["child"]["class"] != "COLUMN_REF":
                    raise SqlUnsupported("IN-subquery operand must be "
                                         "a column")
                col = _colref(child["child"])
                tree, has_null = _compile_in_subquery(child, tables, col)
                if has_null:
                    # NULL in the set poisons NOT IN — but only at
                    # even negation depth is never-TRUE the right
                    # rewrite (an outer NOT would flip it wrongly)
                    return _null_literal_tree(col, neg)
                return ("not", tree)
            return ("not", _compile_pred(child, tables, not neg,
                                         any_col, outer))
        if typ in ("COMPARE_IN", "COMPARE_NOT_IN"):
            ch = node["children"]
            col = _colref(ch[0])
            vals = [_const_value(c) for c in ch[1:]]
            has_null = any(v is None for v in vals)
            vals = [v for v in vals if v is not None]
            if has_null and neg:
                raise SqlUnsupported(
                    "IN-list with a NULL literal under NOT (its "
                    "UNKNOWN rows have no engine-leaf encoding)")
            if typ == "COMPARE_NOT_IN":
                # a NULL in the list poisons NOT IN: no row is TRUE
                if has_null:
                    return _never_true(col)
                return ("not", ("in", col, vals))
            if not vals:  # IN (NULL[, ...]) only: UNKNOWN everywhere
                return _never_true(col)
            return ("in", col, vals)
        if typ == "OPERATOR_IS_NULL":
            return ("isnull", _colref(node["children"][0]))
        if typ == "OPERATOR_IS_NOT_NULL":
            return ("notnull", _colref(node["children"][0]))
        raise SqlUnsupported(f"operator {typ!r}")
    if cls == "FUNCTION" and node.get("function_name") in ("~~", "!~~"):
        col = _colref(node["children"][0])
        pattern = _const_value(node["children"][1])
        tree = _like_tree(col, pattern)
        return ("not", tree) if node["function_name"] == "!~~" else tree
    if cls == "FUNCTION" \
            and node.get("function_name") in ("like_escape",
                                              "not_like_escape"):
        col = _colref(node["children"][0])
        rx = _like_escape_regex(_const_value(node["children"][1]),
                                _const_value(node["children"][2]))
        tree = ("regex", col, rx)
        return ("not", tree) \
            if node["function_name"] == "not_like_escape" else tree
    raise SqlUnsupported(f"WHERE construct {cls}/{typ}")


# --------------------------------------------------------------------------
# expression classification (select list / having / order by)

_AGG_FNS = {"sum", "min", "max", "avg", "count", "count_star",
            "approx_count_distinct", "var_pop", "var_samp", "variance",
            "stddev", "stddev_samp", "stddev_pop", "bool_and",
            "bool_or", "median", "quantile_cont", "quantile_disc",
            "arg_max", "argmax", "max_by", "arg_min", "argmin",
            "min_by", "string_agg", "group_concat", "listagg",
            "array_agg", "list"}

# aliases fold at collect time so one atom serves every spelling
_AGG_ALIASES = {"variance": "var_samp", "stddev": "stddev_samp",
                "argmax": "arg_max", "max_by": "arg_max",
                "argmin": "arg_min", "min_by": "arg_min",
                "group_concat": "string_agg", "listagg": "string_agg",
                "list": "array_agg"}

_VAR_FNS = ("var_pop", "var_samp", "stddev_pop", "stddev_samp")


def _is_special_agg(fn: str) -> bool:
    """Atoms that cannot run through the per-batch partial stream
    (distinct / quantile / positional state does not pre-aggregate
    via pyarrow's hash kernels)."""
    return fn in ("count_distinct", "approx_count_distinct",
                  "sum_distinct", "avg_distinct") \
        or fn.startswith(("quantile_cont@", "quantile_disc@",
                          "arg_max@", "arg_min@", "string_agg@",
                          "array_agg@", "string_agg_distinct@",
                          "array_agg_distinct@"))
_ARITH = {"+": pc.add, "-": pc.subtract, "*": pc.multiply}


def _agg_atom_name(node: dict) -> str:
    """Canonical atom name for an aggregate FUNCTION node: aliases
    fold (variance -> var_samp), MEDIAN / QUANTILE_CONT / _DISC carry
    their quantile fraction in the name (``quantile_cont@0.5``) so
    the (fn, col) atom plumbing stays two-element."""
    fn = node["function_name"]
    fn = _AGG_ALIASES.get(fn, fn)
    if fn == "median":
        return "quantile_cont@0.5"
    if fn in ("quantile_cont", "quantile_disc"):
        ch = node.get("children") or []
        if len(ch) != 2 or ch[1]["class"] != "CONSTANT":
            raise SqlUnsupported(f"{fn} needs a constant fraction")
        p = float(_const_value(ch[1]))
        if not 0.0 <= p <= 1.0:
            raise SqlUnsupported(f"{fn} fraction {p} outside [0, 1]")
        return f"{fn}@{p!r}"
    if fn in ("arg_max", "arg_min"):
        ch = node.get("children") or []
        if len(ch) != 2 or ch[0]["class"] != "COLUMN_REF" \
                or ch[1]["class"] != "COLUMN_REF":
            raise SqlUnsupported(f"{fn} needs two plain columns")
        return f"{fn}@{_colref(ch[1])}"
    if fn == "string_agg":
        ch = node.get("children") or []
        sep = ","
        if len(ch) > 1:
            if ch[1]["class"] != "CONSTANT":
                raise SqlUnsupported(
                    "string_agg separator must be a constant")
            sep = str(_const_value(ch[1]))
        base = "string_agg_distinct@" if node.get("distinct") \
            else "string_agg@"
        return base + json.dumps([sep, _agg_order_spec(node)])
    if fn == "array_agg":
        base = "array_agg_distinct@" if node.get("distinct") \
            else "array_agg@"
        return base + json.dumps(_agg_order_spec(node))
    return fn


def _agg_order_spec(node: dict) -> list:
    """Canonical [[col, desc, nulls_first], ...] for an in-aggregate
    ORDER BY (``string_agg(x, ',' ORDER BY y DESC)``): plain columns
    only. DuckDB's ORDER_DEFAULT direction is ascending and its
    default null order is NULLS LAST in either direction."""
    orders = (node.get("order_bys") or {}).get("orders") or []
    spec = []
    for o in orders:
        e = o.get("expression") or {}
        if e.get("class") != "COLUMN_REF":
            raise SqlUnsupported(
                "in-aggregate ORDER BY must be plain columns")
        spec.append([_colref(e), o.get("type") == "DESCENDING",
                     o.get("null_order") == "NULLS_FIRST"])
    return spec


def _collect_aggs(node: dict, out: list):
    """Collect (fn, col) aggregate atoms inside an expression."""
    cls = node.get("class")
    if cls == "FUNCTION":
        fn = node["function_name"]
        if fn in _AGG_FNS:
            if node.get("filter"):
                raise SqlUnsupported(
                    "aggregate FILTER clause — rewrite the predicate "
                    "into WHERE or a separate aggregate query")
            if node.get("distinct"):
                base = _AGG_ALIASES.get(fn, fn)
                if base in ("string_agg", "array_agg") \
                        and node["children"]:
                    ch = node["children"][0]
                    if ch["class"] != "COLUMN_REF":
                        raise SqlUnsupported(
                            f"{fn}(DISTINCT ...) needs a plain column")
                    out.append((_agg_atom_name(node), _colref(ch)))
                    return
                if fn not in ("count", "sum", "avg", "min", "max") \
                        or not node["children"]:
                    raise SqlUnsupported(f"DISTINCT {fn} aggregate")
                ch = node["children"][0]
                if ch["class"] != "COLUMN_REF":
                    raise SqlUnsupported(
                        f"{fn}(DISTINCT ...) needs a plain column")
                if fn in ("min", "max"):
                    # MIN/MAX(DISTINCT x) == MIN/MAX(x)
                    out.append((fn, _colref(ch)))
                else:
                    out.append((f"{fn}_distinct", _colref(ch)))
                return
            if fn == "count_star" or not node["children"]:
                out.append(("count_star", None))
            else:
                ch = node["children"][0]
                if ch["class"] != "COLUMN_REF":
                    raise SqlUnsupported(
                        "aggregate argument must be a plain column")
                out.append((_agg_atom_name(node), _colref(ch)))
            return
        for c in node.get("children", []):
            _collect_aggs(c, out)
        return
    if cls == "CAST":
        _collect_aggs(node["child"], out)
        return
    if cls == "COMPARISON":
        _collect_aggs(node["left"], out)
        _collect_aggs(node["right"], out)
        return
    if cls == "CONJUNCTION":
        for c in node["children"]:
            _collect_aggs(c, out)
        return
    if cls == "BETWEEN":
        _collect_aggs(node["input"], out)
        return
    if cls == "OPERATOR":
        for c in node.get("children", []):
            _collect_aggs(c, out)
        return
    if cls == "CASE":
        for chk in node.get("case_checks", []):
            _collect_aggs(chk["when_expr"], out)
            _collect_aggs(chk["then_expr"], out)
        if node.get("else_expr"):
            _collect_aggs(node["else_expr"], out)
        return
    if cls in ("COLUMN_REF", "CONSTANT"):
        return
    if cls == "SCALAR_MAP":  # lowered correlated scalar: no aggs inside
        return
    raise SqlUnsupported(f"expression {cls!r}")


def _expr_name(node: dict) -> str:
    if node.get("alias"):
        return node["alias"]
    cls = node["class"]
    if cls == "COLUMN_REF":
        return _colref(node)
    if cls == "CAST":
        return _expr_name(node["child"])
    if cls == "FUNCTION":
        fn = node["function_name"]
        if fn == "count_star":
            return "count_star()"
        ch = node.get("children") or []
        if not fn[0].isalpha() and fn[0] != "_" and len(ch) == 2:
            # DuckDB names unaliased operator expressions infix
            return (f"({_expr_name(ch[0])} {fn} "
                    f"{_expr_name(ch[1])})")
        args = ", ".join(_expr_name(c) for c in ch)
        return f"{fn}({args})"
    if cls == "CONSTANT":
        return str(_const_value(node))
    raise SqlUnsupported(f"cannot name expression class {cls!r}")


def _as_py_scalar(v):
    return v.as_py() if isinstance(v, pa.Scalar) else v


# single-argument-shape scalar kernels mapped 1:1 onto pyarrow.compute
# (names are DuckDB's; length casts to int64 to match DuckDB's BIGINT)
_SCALAR_FNS = {
    "lower": pc.utf8_lower, "upper": pc.utf8_upper,
    "trim": pc.utf8_trim_whitespace, "ltrim": pc.utf8_ltrim_whitespace,
    "rtrim": pc.utf8_rtrim_whitespace,
    "reverse": pc.utf8_reverse,
    "abs": pc.abs, "sqrt": pc.sqrt, "exp": pc.exp, "ln": pc.ln,
    "log": pc.log10, "log10": pc.log10, "log2": pc.log2,
    "floor": pc.floor, "ceil": pc.ceil, "ceiling": pc.ceil,
    "trunc": pc.trunc,
    "sign": pc.sign, "pow": pc.power, "power": pc.power,
    "starts_with": pc.starts_with, "prefix": pc.starts_with,
    "ends_with": pc.ends_with, "suffix": pc.ends_with,
    "contains": lambda a, b: pc.match_substring(
        a, pattern=_as_py_scalar(b)),
    "regexp_matches": lambda a, b: pc.match_substring_regex(
        a, pattern=_as_py_scalar(b)),
    "replace": lambda a, b, c: pc.replace_substring(
        a, pattern=_as_py_scalar(b), replacement=_as_py_scalar(c)),
    "regexp_replace": lambda a, b, c: pc.replace_substring_regex(
        a, pattern=_as_py_scalar(b), replacement=_as_py_scalar(c)),
    "left": lambda a, n: pc.utf8_slice_codeunits(
        a, start=0, stop=int(_as_py_scalar(n))),
    "right": lambda a, n: pc.utf8_slice_codeunits(
        a, start=-int(_as_py_scalar(n))),
    # DuckDB's lpad/rpad truncate to the width when the input is
    # longer (both keep the FIRST width chars); Arrow only pads
    "lpad": lambda a, w, p: pc.utf8_slice_codeunits(
        pc.utf8_lpad(a, width=int(_as_py_scalar(w)),
                     padding=_as_py_scalar(p)),
        start=0, stop=int(_as_py_scalar(w))),
    "rpad": lambda a, w, p: pc.utf8_slice_codeunits(
        pc.utf8_rpad(a, width=int(_as_py_scalar(w)),
                     padding=_as_py_scalar(p)),
        start=0, stop=int(_as_py_scalar(w))),
    "strpos": lambda a, b: pc.cast(pc.add(
        pc.find_substring(a, pattern=_as_py_scalar(b)), 1), pa.int64()),
    "instr": lambda a, b: pc.cast(pc.add(
        pc.find_substring(a, pattern=_as_py_scalar(b)), 1), pa.int64()),
    "position": lambda a, b: pc.cast(pc.add(
        pc.find_substring(a, pattern=_as_py_scalar(b)), 1), pa.int64()),
    "repeat": lambda a, n: pc.binary_repeat(a, int(_as_py_scalar(n))),
}


def _split_part(arr, sep, idx1: int):
    """DuckDB split_part(s, sep, n): 1-based n-th piece, '' when the
    split has fewer pieces, NULL for NULL input — one offsets-based
    gather, no per-row Python."""
    if isinstance(arr, pa.Scalar):
        arr = pa.array([arr.as_py()], type=pa.string())
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    sp = pc.split_pattern(pc.fill_null(arr, ""), pattern=sep)
    if isinstance(sp, pa.ChunkedArray):
        sp = sp.combine_chunks()
    offs = np.asarray(sp.offsets)
    want = offs[:-1] + (idx1 - 1)
    in_range = want < offs[1:]
    vals = sp.values
    taken = vals.take(pa.array(np.where(in_range, want, 0),
                               type=pa.int64()))
    # DuckDB quirk: split_part(NULL, sep, n) = '' (not NULL) — the
    # fill_null('') above already produces exactly that
    return pc.if_else(pa.array(in_range), taken, pa.scalar(""))


def _as_list_array(a) -> pa.ListArray:
    """Normalize a list-typed operand (chunked / scalar / fixed-size)
    to one pa.ListArray; refuses non-list operands loudly so the
    driver dry-run catches misuse before any task launches."""
    if isinstance(a, pa.Scalar):
        a = pa.array([a.as_py()], type=a.type)
    if isinstance(a, pa.ChunkedArray):
        a = a.combine_chunks()
    if pa.types.is_fixed_size_list(a.type):
        a = a.cast(pa.list_(a.type.value_type))
    if not (pa.types.is_list(a.type) or pa.types.is_large_list(a.type)):
        raise SqlUnsupported(f"list function over type {a.type}")
    return a


def _length_fn(a):
    """DuckDB len/length: list length (BIGINT) on lists, codeunit
    length on strings; NULL -> NULL."""
    t = a.type
    if (pa.types.is_list(t) or pa.types.is_large_list(t)
            or pa.types.is_fixed_size_list(t)):
        return pc.cast(pc.list_value_length(a), pa.int64())
    return pc.cast(pc.utf8_length(a), pa.int64())


def _list_bounds(a: pa.ListArray):
    """(offsets, lengths, row-validity) as numpy. Offsets are absolute
    into a.values, so gathers and cumsum windows stay correct even on
    sliced buffers."""
    off = np.asarray(a.offsets)
    lens = off[1:] - off[:-1]
    valid = a.is_valid().to_numpy(zero_copy_only=False) \
        if a.null_count else np.ones(len(a), dtype=bool)
    return off, lens, valid


def _null_where(arr, keep: np.ndarray):
    """arr with NULL wherever ``keep`` is False (one if_else)."""
    return pc.if_else(pa.array(keep), arr, pa.scalar(None, arr.type))


def _list_extract(a, idx) -> pa.Array:
    """DuckDB l[i] / list_extract(l, i): 1-based; negative i counts
    from the end; 0 / out-of-range / NULL list -> NULL. One
    offsets-based gather."""
    i = int(_as_py_scalar(idx))
    a = _as_list_array(a)
    off, lens, valid = _list_bounds(a)
    if i > 0:
        want = off[:-1] + (i - 1)
        in_range = (i <= lens) & valid
    elif i < 0:
        want = off[1:] + i
        in_range = (-i <= lens) & valid
    else:  # l[0] is NULL in DuckDB
        want = off[:-1]
        in_range = np.zeros(len(lens), dtype=bool)
    safe = np.where(in_range, want, 0)
    if len(a.values) == 0:  # nothing in range; avoid take on empty
        return pa.nulls(len(a), a.type.value_type)
    taken = a.values.take(pa.array(safe, type=pa.int64()))
    return _null_where(taken, in_range)


def _list_contains(a, v) -> pa.Array:
    """DuckDB list_contains: TRUE if any element equals v (NULL
    elements never match), FALSE otherwise, NULL for a NULL list."""
    a = _as_list_array(a)
    off, _, valid = _list_bounds(a)
    eq = pc.fill_null(pc.equal(a.values, v), False) \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    cs = np.concatenate([[0], np.cumsum(eq)])
    hit = (cs[off[1:]] - cs[off[:-1]]) > 0
    return _null_where(pa.array(hit), valid)


def _list_sum(a, want_avg: bool = False):
    """DuckDB list_sum / list_avg: NULL elements skipped; empty or
    NULL list -> NULL. Integer lists sum exactly in int64 (DuckDB
    answers HUGEINT — CAST in oracles), floats in float64."""
    a = _as_list_array(a)
    off, _, valid = _list_bounds(a)
    vals = a.values
    v_ok = vals.is_valid().to_numpy(zero_copy_only=False) \
        if vals.null_count else np.ones(len(vals), dtype=bool)
    integral = pa.types.is_integer(vals.type)
    x = vals.to_numpy(zero_copy_only=False)
    x = np.where(v_ok, x, 0).astype(np.int64 if integral else np.float64)
    cs = np.concatenate([[0], np.cumsum(x)])
    sums = cs[off[1:]] - cs[off[:-1]]
    cv = np.concatenate([[0], np.cumsum(v_ok.astype(np.int64))])
    counts = cv[off[1:]] - cv[off[:-1]]
    keep = (counts > 0) & valid
    if want_avg:
        with np.errstate(invalid="ignore", divide="ignore"):
            out = sums.astype(np.float64) / counts
        return _null_where(pa.array(np.where(keep, out, 0.0)), keep)
    arr = pa.array(sums, type=pa.int64() if integral else pa.float64())
    return _null_where(arr, keep)


def _list_minmax(a, is_min: bool):
    """DuckDB list_min / list_max: NULL elements skipped; empty or
    all-NULL or NULL list -> NULL. Segmented reduceat over the value
    buffer — no per-row Python."""
    a = _as_list_array(a)
    off, lens, valid = _list_bounds(a)
    vals = a.values
    v_ok = vals.is_valid().to_numpy(zero_copy_only=False) \
        if vals.null_count else np.ones(len(vals), dtype=bool)
    integral = pa.types.is_integer(vals.type)
    x = vals.to_numpy(zero_copy_only=False)
    if integral:
        sent = np.iinfo(np.int64).max if is_min else np.iinfo(np.int64).min
        x = np.where(v_ok, x, sent).astype(np.int64)
    else:
        x = np.where(v_ok, x, np.inf if is_min else -np.inf) \
            .astype(np.float64)
    cv = np.concatenate([[0], np.cumsum(v_ok.astype(np.int64))])
    counts = cv[off[1:]] - cv[off[:-1]]
    keep = (counts > 0) & valid
    out = np.zeros(len(lens), dtype=x.dtype)
    nz = np.flatnonzero(lens > 0)
    if len(nz):
        # reduceat segments run start->next start; slicing x to the
        # covered window [off[0], off[-1]) excludes buffer slack, and
        # zero-length lists between starts contribute no elements
        red = (np.minimum if is_min else np.maximum).reduceat(
            x[off[0]:off[-1]], off[:-1][nz] - off[0])
        out[nz] = red
    arr = pa.array(out, type=pa.int64() if integral else pa.float64())
    return _null_where(arr, keep)


def _array_to_string(a, sep):
    """DuckDB array_to_string(l, sep): NULL elements skipped, NULL
    list -> NULL (and DuckDB answers NULL for an empty list too)."""
    a = _as_list_array(a)
    off, lens, valid = _list_bounds(a)
    vals = a.values
    v_ok = vals.is_valid().to_numpy(zero_copy_only=False) \
        if vals.null_count else np.ones(len(vals), dtype=bool)
    # drop NULL elements, remapping offsets onto the kept values
    cv = np.concatenate([[0], np.cumsum(v_ok.astype(np.int64))])
    new_off = cv[off]  # absolute into the filtered value buffer
    kept = pc.cast(vals.filter(pa.array(v_ok)), pa.string())
    keep_row = valid & ((cv[off[1:]] - cv[off[:-1]]) > 0)
    lst = pa.ListArray.from_arrays(
        pa.array(new_off, type=pa.int32()), kept)
    return pc.binary_join(
        pc.if_else(pa.array(keep_row), lst, pa.scalar(None, lst.type)),
        pa.scalar(str(_as_py_scalar(sep))))


def _string_split(a, sep):
    """DuckDB string_split: NULL -> NULL, '' -> ['']."""
    if isinstance(a, pa.ChunkedArray):
        a = a.combine_chunks()
    return pc.split_pattern(a, pattern=str(_as_py_scalar(sep)))


def _list_sort(a, order=None, null_order=None) -> pa.Array:
    """DuckDB list_sort(l [, 'ASC'|'DESC' [, 'NULLS FIRST'|'NULLS
    LAST']]): element sort inside each list — one flatten, one
    (segment, is-null companion, value) sort, one rebuild. NULL lists
    stay NULL; DuckDB's rewrite of ``list(x ORDER BY x)`` lands here.
    DuckDB's observed default null order is NULLS LAST (both
    directions)."""
    la = _as_list_array(a)
    desc = str(_as_py_scalar(order)).strip().upper() == "DESC" \
        if order is not None else False
    nf = "FIRST" in str(_as_py_scalar(null_order)).strip().upper() \
        if null_order is not None else False
    off, lens, valid = _list_bounds(la)
    counts = np.where(valid, lens, 0).astype(np.int64)
    total = int(counts.sum())
    seg = np.repeat(np.arange(len(la), dtype=np.int64), counts)
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    gi = np.repeat(off[:-1].astype(np.int64), counts) \
        + (np.arange(total, dtype=np.int64) - starts)
    vals = la.values.take(pa.array(gi, type=pa.int64()))
    if pa.types.is_null(vals.type):
        isn = pa.array(np.ones(total, dtype=np.int8))
        filled = pa.array(np.zeros(total, dtype=np.int8))
    else:
        isn = pc.cast(pc.is_null(vals), pa.int8())
        filled = pc.fill_null(vals, _zero_scalar(vals.type))
    st = pa.table({"__s": pa.array(seg), "__n": isn, "__v": filled})
    idx = pc.sort_indices(st, sort_keys=[
        ("__s", "ascending"),
        ("__n", "descending" if nf else "ascending"),
        ("__v", "descending" if desc else "ascending")])
    out_vals = vals.take(idx)
    offs = np.zeros(len(la) + 1, dtype=np.int64)
    offs[1:] = np.cumsum(counts)
    offs_py = [None if not v else int(o)
               for o, v in zip(offs[:-1], valid)] + [int(offs[-1])]
    return pa.ListArray.from_arrays(
        pa.array(offs_py, type=pa.int32()), out_vals)


def _list_reverse_sort(a, null_order=None) -> pa.Array:
    return _list_sort(a, pa.scalar("DESC"), null_order)


_LIST_FNS = {
    "list_sort": _list_sort, "array_sort": _list_sort,
    "list_reverse_sort": _list_reverse_sort,
    "len": _length_fn, "length": _length_fn,
    "array_length": _length_fn, "list_length": _length_fn,
    "list_extract": _list_extract, "array_extract": _list_extract,
    "list_contains": _list_contains, "array_contains": _list_contains,
    "list_has": _list_contains,
    "list_sum": _list_sum,
    "list_avg": lambda a: _list_sum(a, want_avg=True),
    "list_min": lambda a: _list_minmax(a, True),
    "list_max": lambda a: _list_minmax(a, False),
    "array_to_string": _array_to_string,
    "string_split": _string_split, "str_split": _string_split,
    "string_to_array": _string_split,
}


def _zero_scalar(t: pa.DataType) -> pa.Scalar:
    """An arbitrary valid scalar of type ``t`` (used only to fill
    nulls under a dominating is-null sort key — never observable)."""
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return pa.scalar("", type=t)
    if pa.types.is_binary(t) or pa.types.is_large_binary(t):
        return pa.scalar(b"", type=t)
    if pa.types.is_boolean(t):
        return pa.scalar(False, type=t)
    return pa.scalar(0, type=t)


def _i64(a):
    return pc.cast(a, pa.int64())


# DuckDB's date_part / extract / bare-name accessors, value-identical
# to DuckDB's BIGINT outputs (dow: Sunday=0; week: ISO; millisecond /
# microsecond include the whole sub-minute remainder, DuckDB-style).
_DATE_PARTS = {
    "year": lambda a: _i64(pc.year(a)),
    "month": lambda a: _i64(pc.month(a)),
    "day": lambda a: _i64(pc.day(a)),
    "hour": lambda a: _i64(pc.hour(a)),
    "minute": lambda a: _i64(pc.minute(a)),
    "second": lambda a: _i64(pc.second(a)),
    "dow": lambda a: _i64(pc.day_of_week(a, count_from_zero=True,
                                         week_start=7)),
    "dayofweek": lambda a: _i64(pc.day_of_week(a, count_from_zero=True,
                                               week_start=7)),
    "isodow": lambda a: _i64(pc.day_of_week(a, count_from_zero=False,
                                            week_start=1)),
    "doy": lambda a: _i64(pc.day_of_year(a)),
    "dayofyear": lambda a: _i64(pc.day_of_year(a)),
    "quarter": lambda a: _i64(pc.quarter(a)),
    "week": lambda a: _i64(pc.iso_week(a)),
    "weekofyear": lambda a: _i64(pc.iso_week(a)),
    "isoyear": lambda a: _i64(pc.iso_year(a)),
    "decade": lambda a: pc.divide(_i64(pc.year(a)), 10),
    "century": lambda a: _i64(pc.ceil(pc.divide(
        pc.cast(pc.year(a), pa.float64()), pa.scalar(100.0)))),
    "epoch": lambda a: pc.divide(
        pc.cast(pc.cast(a, pa.timestamp("us")), pa.int64()),
        pa.scalar(1_000_000.0)),
    "epoch_ms": lambda a: pc.divide(
        pc.cast(pc.cast(a, pa.timestamp("us")), pa.int64()),
        pa.scalar(1_000, type=pa.int64())),
    "epoch_us": lambda a: pc.cast(pc.cast(a, pa.timestamp("us")),
                                  pa.int64()),
    "millisecond": lambda a: pc.add(
        pc.multiply(_i64(pc.second(a)), pa.scalar(1000, pa.int64())),
        _i64(pc.millisecond(a))),
    "microsecond": lambda a: pc.add(
        pc.multiply(_i64(pc.second(a)),
                    pa.scalar(1_000_000, pa.int64())),
        pc.add(pc.multiply(_i64(pc.millisecond(a)),
                           pa.scalar(1000, pa.int64())),
               _i64(pc.microsecond(a)))),
}

# date_trunc units DuckDB answers as DATE (not TIMESTAMP)
_TRUNC_TO_DATE = {"day", "week", "month", "quarter", "year"}
_TRUNC_UNITS = _TRUNC_TO_DATE | {"microsecond", "millisecond", "second",
                                 "minute", "hour"}


def _date_trunc(part, arr):
    part = str(part).lower()
    if part not in _TRUNC_UNITS:
        raise SqlUnsupported(f"date_trunc part {part!r}")
    out = pc.floor_temporal(arr, unit=part)
    if part in _TRUNC_TO_DATE:
        return pc.cast(out, pa.date32())
    return out


def _eval_expr(node: dict, env: dict, n_rows: int):
    """Evaluate a (post-aggregation) expression over named columns:
    ``env`` maps column/alias names and ("agg", fn, col) atoms to
    arrays. Arithmetic follows DuckDB: '/' is float division."""
    cls, typ = node.get("class"), node.get("type")
    if cls == "COLUMN_REF":
        name = _colref(node)
        if name not in env:
            raise SqlUnsupported(f"unknown column {name!r} in expression")
        return env[name]
    if cls == "CONSTANT":
        return pa.scalar(_const_value(node))
    if cls == "CAST":
        tid = node["cast_type"]["id"]
        if tid not in _TYPE_MAP:
            raise SqlUnsupported(f"CAST to {tid!r}")
        arr = _eval_expr(node["child"], env, n_rows)
        tgt = _TYPE_MAP[tid]
        src_t = arr.type
        if pa.types.is_integer(tgt) and pa.types.is_floating(src_t):
            # DuckDB CAST(float AS INT) rounds (ties away from zero);
            # Arrow raises on truncation
            arr = pc.round(arr, ndigits=0,
                           round_mode="half_towards_infinity")
        return pc.cast(arr, tgt)
    if cls == "FUNCTION":
        fn = node["function_name"]
        if fn in _AGG_FNS:
            if node.get("distinct"):
                base = _AGG_ALIASES.get(fn, fn)
                if base in ("string_agg", "array_agg"):
                    key = ("agg", _agg_atom_name(node),
                           _colref(node["children"][0]))
                else:
                    dfn = fn if fn in ("min", "max") \
                        else f"{fn}_distinct"
                    key = ("agg", dfn,
                           _colref(node["children"][0]))
            elif fn == "count_star" or not node["children"]:
                key = ("agg", "count_star", None)
            else:
                key = ("agg", _agg_atom_name(node),
                       _colref(node["children"][0]))
            return env[key]
        if fn in ("~~", "!~~"):
            arr = _eval_expr(node["children"][0], env, n_rows)
            m = pc.match_like(arr, pattern=_const_value(node["children"][1]))
            return pc.invert(m) if fn == "!~~" else m
        if fn in ("like_escape", "not_like_escape"):
            arr = _eval_expr(node["children"][0], env, n_rows)
            rx = _like_escape_regex(
                _const_value(node["children"][1]),
                _const_value(node["children"][2]))
            m = pc.match_substring_regex(arr, pattern=rx)
            return pc.invert(m) if fn == "not_like_escape" else m
        if fn == "round":
            arr = _eval_expr(node["children"][0], env, n_rows)
            nd = _const_value(node["children"][1]) \
                if len(node["children"]) > 1 else 0
            return pc.round(arr, ndigits=int(nd))
        args = [_eval_expr(c, env, n_rows) for c in node["children"]]
        if fn in _ARITH:
            return _ARITH[fn](*args)
        if fn == "/":
            return pc.divide(pc.cast(args[0], pa.float64()),
                             pc.cast(args[1], pa.float64()))
        if fn == "//":
            # Arrow's integer divide truncates toward zero — exactly
            # DuckDB's // on integers (floats fall through to divide)
            return pc.divide(*args)
        if fn == "%":
            a, b = args
            if pa.types.is_integer(a.type) and pa.types.is_integer(b.type):
                return pc.subtract(a, pc.multiply(pc.divide(a, b), b))
            af = pc.cast(a, pa.float64())
            bf = pc.cast(b, pa.float64())
            return pc.subtract(
                af, pc.multiply(pc.trunc(pc.divide(af, bf)), bf))
        if fn in _LIST_FNS:
            return _LIST_FNS[fn](*args)
        if fn in ("list_value", "list_pack"):
            # [a, b, c] literal: zip the element columns into one
            # list per row (concat + one row-major permutation take)
            k = len(args)
            if k == 0:
                return pa.scalar([], type=pa.list_(pa.null()))
            et = next((x.type for x in args
                       if not pa.types.is_null(x.type)), pa.null())
            cols = []
            for x in args:
                if isinstance(x, pa.Scalar):
                    x = (pa.nulls(n_rows, et)
                         if pa.types.is_null(x.type)
                         else pa.array([x.as_py()] * n_rows, type=et))
                elif isinstance(x, pa.ChunkedArray):
                    x = x.combine_chunks()
                cols.append(x if x.type.equals(et) else pc.cast(x, et))
            values = pa.concat_arrays(cols)
            perm = np.ravel(np.arange(n_rows)[:, None]
                            + n_rows * np.arange(k)[None, :])
            offsets = pa.array(np.arange(n_rows + 1, dtype=np.int32)
                               * k)
            return pa.ListArray.from_arrays(
                offsets, values.take(pa.array(perm, type=pa.int64())))
        if fn in _SCALAR_FNS:
            return _SCALAR_FNS[fn](*args)
        if fn in _IVL_US:
            # INTERVAL n <fixed-length unit> constructor: an arrow
            # duration scalar — timestamp +/- duration composes
            # through the generic arithmetic kernels
            return pa.scalar(
                int(_as_py_scalar(args[0])) * _IVL_US[fn],
                pa.duration("us"))
        if fn == "split_part":
            return _split_part(args[0], str(_as_py_scalar(args[1])),
                               int(_as_py_scalar(args[2])))
        if fn in ("date_trunc", "datetrunc"):
            return _date_trunc(_as_py_scalar(args[0]), args[1])
        if fn in ("date_part", "datepart", "extract"):
            part = str(_as_py_scalar(args[0])).lower()
            if part not in _DATE_PARTS:
                raise SqlUnsupported(f"date_part {part!r}")
            return _DATE_PARTS[part](args[1])
        if fn in _DATE_PARTS and len(args) == 1:
            return _DATE_PARTS[fn](args[0])
        if fn == "strftime":
            # DuckDB accepts either argument order
            a, b = args
            if isinstance(a, pa.Scalar) and pa.types.is_string(a.type):
                a, b = b, a
            return pc.strftime(a, format=str(_as_py_scalar(b)))
        if fn == "nullif":
            a, b = args
            eq = pc.fill_null(pc.equal(a, b), False)
            return pc.if_else(eq, pa.scalar(None, a.type), a)
        if fn in ("substr", "substring"):
            start = _as_py_scalar(args[1])
            if not isinstance(start, int) or start < 1:
                raise SqlUnsupported("substr start must be a positive "
                                     "integer literal")
            if len(args) > 2:
                ln = _as_py_scalar(args[2])
                if not isinstance(ln, int) or ln < 0:
                    raise SqlUnsupported("substr length must be a "
                                         "non-negative integer literal")
                stop = start - 1 + ln
            else:
                stop = None
            return pc.utf8_slice_codeunits(args[0], start=start - 1,
                                           stop=stop)
        if fn in ("||", "concat"):
            # SQL ||: NULL if any operand NULL; concat(): NULLs -> ''
            strs = [a if (isinstance(a, pa.Scalar)
                          and pa.types.is_string(a.type))
                    or (not isinstance(a, pa.Scalar)
                        and pa.types.is_string(a.type))
                    else pc.cast(a, pa.string()) for a in args]
            if fn == "||":
                return pc.binary_join_element_wise(
                    *strs, "", null_handling="emit_null")
            return pc.binary_join_element_wise(
                *strs, "", null_handling="replace", null_replacement="")
        raise SqlUnsupported(f"function {fn!r}")
    if cls == "COMPARISON":
        lhs = _eval_expr(node["left"], env, n_rows)
        rhs = _eval_expr(node["right"], env, n_rows)
        fns = {"COMPARE_EQUAL": pc.equal, "COMPARE_NOTEQUAL": pc.not_equal,
               "COMPARE_GREATERTHAN": pc.greater,
               "COMPARE_LESSTHAN": pc.less,
               "COMPARE_GREATERTHANOREQUALTO": pc.greater_equal,
               "COMPARE_LESSTHANOREQUALTO": pc.less_equal}
        if typ not in fns:
            raise SqlUnsupported(f"comparison {typ!r}")
        return fns[typ](lhs, rhs)
    if cls == "BETWEEN":
        arr = _eval_expr(node["input"], env, n_rows)
        return pc.and_kleene(
            pc.greater_equal(arr, _eval_expr(node["lower"], env, n_rows)),
            pc.less_equal(arr, _eval_expr(node["upper"], env, n_rows)))
    if cls == "OPERATOR":
        if typ == "ARRAY_EXTRACT":
            return _list_extract(
                _eval_expr(node["children"][0], env, n_rows),
                _eval_expr(node["children"][1], env, n_rows))
        if typ == "OPERATOR_NOT":
            return pc.invert(_eval_expr(node["children"][0], env, n_rows))
        if typ == "OPERATOR_IS_NULL":
            return pc.is_null(_eval_expr(node["children"][0], env, n_rows))
        if typ == "OPERATOR_IS_NOT_NULL":
            return pc.is_valid(_eval_expr(node["children"][0], env, n_rows))
        if typ in ("COMPARE_IN", "COMPARE_NOT_IN"):
            arr = _eval_expr(node["children"][0], env, n_rows)
            vals = [_const_value(c) for c in node["children"][1:]]
            m = pc.is_in(arr, value_set=pa.array(vals))
            # SQL IN over a null operand is UNKNOWN, not FALSE
            m = pc.if_else(pc.is_valid(arr), m, pa.scalar(None, pa.bool_()))
            return pc.invert(m) if typ == "COMPARE_NOT_IN" else m
        if typ == "OPERATOR_COALESCE":
            return pc.coalesce(*[_eval_expr(c, env, n_rows)
                                 for c in node["children"]])
        if typ == "GROUPING_FUNCTION":
            ch = node.get("children") or []
            if len(ch) != 1 or ch[0].get("class") != "COLUMN_REF":
                raise SqlUnsupported(
                    "GROUPING() takes exactly one group key")
            key = ("grouping", _colref(ch[0]))
            if key in env:
                return env[key]
            if _colref(ch[0]) in env:  # plain GROUP BY: never rolled up
                return pa.scalar(0, type=pa.int64())
            raise SqlUnsupported(
                f"GROUPING({_colref(ch[0])}): not a group key")
        raise SqlUnsupported(f"operator {typ!r} in expression")
    if cls == "CONJUNCTION":
        parts = [_eval_expr(c, env, n_rows) for c in node["children"]]
        acc = parts[0]
        for p in parts[1:]:
            acc = (pc.and_kleene if typ == "CONJUNCTION_AND"
                   else pc.or_kleene)(acc, p)
        return acc
    if cls == "CASE":
        # first-match-wins: fold the checks back-to-front so earlier
        # WHENs override later ones; a missing ELSE yields NULL
        acc = (_eval_expr(node["else_expr"], env, n_rows)
               if node.get("else_expr") else None)
        for chk in reversed(node["case_checks"]):
            cond = _eval_expr(chk["when_expr"], env, n_rows)
            then = _eval_expr(chk["then_expr"], env, n_rows)
            if acc is None or (isinstance(acc, pa.Scalar)
                               and pa.types.is_null(acc.type)):
                acc = pa.scalar(None, then.type)
            acc = pc.if_else(pc.fill_null(cond, False), then, acc)
        return acc
    if cls == "SCALAR_MAP":
        # correlated scalar subquery lowered to a broadcast lookup
        # (_corr_scalar_map): outer key -> index_in the precomputed
        # key set -> take the value; an absent key yields the
        # empty-set default (COUNT -> 0) when one exists, else NULL
        key_arr = _eval_expr(node["outer_ref"], env, n_rows)
        if isinstance(key_arr, pa.ChunkedArray):
            key_arr = key_arr.combine_chunks()
        pos = pc.index_in(key_arr, value_set=node["_keys"])
        taken = pc.take(node["_values"], pos)
        if node.get("_default") is not None:
            taken = pc.if_else(
                pc.is_null(pos), pa.scalar(node["_default"],
                                           type=taken.type), taken)
        return taken
    raise SqlUnsupported(f"expression {cls}/{typ}")


def _expr_columns(node: dict, out: set):
    """Source columns referenced anywhere in an expression."""
    cls = node.get("class")
    if cls == "COLUMN_REF":
        out.add(_colref(node))
    elif cls == "CAST":
        _expr_columns(node["child"], out)
    elif cls in ("COMPARISON",):
        _expr_columns(node["left"], out)
        _expr_columns(node["right"], out)
    elif cls == "BETWEEN":
        _expr_columns(node["input"], out)
        _expr_columns(node["lower"], out)
        _expr_columns(node["upper"], out)
    elif cls == "CASE":
        for chk in node.get("case_checks", []):
            _expr_columns(chk["when_expr"], out)
            _expr_columns(chk["then_expr"], out)
        if node.get("else_expr"):
            _expr_columns(node["else_expr"], out)
    elif cls == "SCALAR_MAP":
        _expr_columns(node["outer_ref"], out)
    else:
        for c in node.get("children", []) or []:
            if isinstance(c, dict):
                _expr_columns(c, out)


# --------------------------------------------------------------------------
# aggregation executors

def _partial_agg_stream(ds, keys: list[str], atoms: list[tuple]):
    """Per-batch pyarrow partial aggregation (the map-side combine),
    merged on the driver: shuffles O(groups) rows per block instead of
    the data. Atoms: (fn, col) with fn in sum/min/max/count/count_star
    (avg is computed later from sum+count)."""
    # specs carry only picklable primitives — CountOptions objects are
    # built inside the task (pyarrow option classes don't pickle)
    specs, merge_specs = [], []
    derived = []  # (hidden_name, kind, source_col) computed per batch
    for fn, col in atoms:
        if fn == "count_star":
            # counted over a synthetic __one column so the output name
            # never collides with a COUNT(col) over a key column
            specs.append(("__one", "count", "all", "count_star()"))
            merge_specs.append(("count_star()", "sum"))
        elif fn == "count":
            specs.append((col, "count", "only_valid", f"count({col})"))
            merge_specs.append((f"count({col})", "sum"))
        elif fn == "sumsq":
            # x*x in float64: exact for |x| < 2^26.5, and the values a
            # variance subtracts are rounded identically on every path
            derived.append((f"__sq_{col}", "sq", col))
            specs.append((f"__sq_{col}", "sum", None, f"sumsq({col})"))
            merge_specs.append((f"sumsq({col})", "sum"))
        elif fn in ("bool_min", "bool_max"):
            # BOOL_AND/OR: min/max over the bool cast to int8 (group
            # min over bool is not a pyarrow hash kernel)
            derived.append((f"__b_{col}", "bool", col))
            agg = "min" if fn == "bool_min" else "max"
            specs.append((f"__b_{col}", agg, None, f"{fn}({col})"))
            merge_specs.append((f"{fn}({col})", agg))
        else:
            specs.append((col, fn, None, f"{fn}({col})"))
            merge_specs.append((f"{fn}({col})", fn))
    derived = list(dict.fromkeys(derived))

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pcc

        t = batch
        if not keys:
            t = t.append_column("__k", pa.array(np.zeros(t.num_rows,
                                                         dtype=np.int8)))
        if "__one" in [s[0] for s in specs] and "__one" not in t.column_names:
            t = t.append_column("__one", pa.array(
                np.ones(t.num_rows, dtype=np.int8)))
        for nm, kind, col in derived:
            if nm in t.column_names:
                continue
            if kind == "sq":
                x = pcc.cast(t[col], pa.float64())
                t = t.append_column(nm, pcc.multiply(x, x))
            else:  # bool -> int8
                t = t.append_column(nm, pcc.cast(t[col], pa.int8()))
        from .collect import group_aggregate

        agg = group_aggregate(t, keys or ["__k"], [
            (c, f) if mode is None
            else (c, f, pcc.CountOptions(mode=mode))
            for c, f, mode, _ in specs])
        # normalize pyarrow's output names to ours
        ren = {}
        for c, f, mode, name in specs:
            ren[f"{c}_{f}"] = name
        cols = {}
        for name in agg.column_names:
            cols[ren.get(name, name)] = agg[name]
        return pa.table(cols)

    parts = [b for b in ds.map_batches(
        partial, batch_format="pyarrow").iter_batches(
            batch_size=None, batch_format="pyarrow")]
    parts = [p for p in parts if p.num_rows]
    if not parts:
        return None
    allp = pa.concat_tables(parts, promote_options="permissive")
    merged = group_aggregate(allp, keys or ["__k"],
                             [(n, f) for n, f in merge_specs])
    ren = {f"{n}_{f}": n for n, f in merge_specs}
    cols = {}
    for name in merged.column_names:
        cols[ren.get(name, name)] = merged[name]
    out = pa.table(cols)
    if not keys:
        out = out.drop_columns([c for c in ("__k",) if c in out.column_names])
    return out


def _approx_distinct_counts(src, keys: list[str], col: str,
                            merged: pa.Table | None, n: int) -> pa.Array:
    """approx_count_distinct(col) via mergeable KMV sketches. Global +
    unfiltered reads the MANIFEST sketches alone (zero data bytes);
    otherwise each batch reduces to bottom-k hash sketches (per group
    when grouped) merged on the driver — never a distinct shuffle.
    Exact below k=256 distincts, ~1/sqrt(k) relative error above."""
    import numpy as np

    from .hashing import hash_column
    from .sketches import (DEFAULT_K, deserialize, kmv_estimate,
                           kmv_from_hashes, kmv_merge)

    if not keys and src.unfiltered_dir is not None:
        # manifest-only path (the distinct_sketch_sources shape)
        from .pipeline.encode import load_manifest

        man = load_manifest(src.unfiltered_dir)
        sk = None
        ok = man.num_rows > 0
        for s in man["col_stats"].to_pylist():
            ent = json.loads(s).get(col, {}).get("kmv")
            if ent is None:
                ok = False
                break
            cur = deserialize(ent)
            sk = cur if sk is None else kmv_merge(sk, cur)
        if ok and sk is not None:
            return pa.array([kmv_estimate(sk)] * n, type=pa.int64())

    gcols = list(dict.fromkeys(keys + [col]))
    ds = src.stream(gcols)

    def part(batch: pa.Table) -> pa.Table:
        arr = batch[col].combine_chunks()
        valid = pc.is_valid(arr).to_numpy(zero_copy_only=False)
        h = hash_column(arr)[valid]
        if not keys:
            return pa.table({"__sk": pa.array(
                [kmv_from_hashes(h).tolist()],
                type=pa.list_(pa.uint64()))})
        # one sketch PER GROUP per batch: dictionary codes -> one
        # mixed-radix code per row, argsort + run boundaries -> each
        # group's hashes in one slice (Python cost O(groups), not rows)
        vt = batch.filter(pa.array(valid))
        code = np.zeros(vt.num_rows, dtype=np.int64)
        dicts = []
        for k in keys:
            d = pc.dictionary_encode(vt[k].combine_chunks())
            idxs = pc.fill_null(d.indices, len(d.dictionary)) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            code = code * (len(d.dictionary) + 1) + idxs
            dicts.append(None)
        order = np.argsort(code, kind="stable")
        cs, hs = code[order], h[order]
        bounds = np.flatnonzero(np.r_[True, cs[1:] != cs[:-1]]) \
            if len(cs) else np.empty(0, dtype=np.int64)
        ends = np.r_[bounds[1:], len(cs)]
        first_rows = order[bounds]
        out = {k: vt[k].take(pa.array(first_rows)) for k in keys}
        out["__sk"] = pa.array(
            [kmv_from_hashes(hs[b:e]).tolist()
             for b, e in zip(bounds, ends)],
            type=pa.list_(pa.uint64()))
        return pa.table(out)

    parts = [b for b in ds.map_batches(
        part, batch_format="pyarrow").iter_batches(
            batch_size=None, batch_format="pyarrow")]
    parts = [p for p in parts if p.num_rows]
    if not parts:
        return pa.array([0] * n, type=pa.int64())
    allp = pa.concat_tables(parts, promote_options="permissive")
    if not keys:
        sk = None
        for row in allp["__sk"].to_pylist():
            cur = np.array(row, dtype=np.uint64)
            sk = cur if sk is None else kmv_merge(sk, cur)
        est = kmv_estimate(sk) if sk is not None and len(sk) else 0
        return pa.array([est] * n, type=pa.int64())
    lut: dict = {}
    kcols = [allp[k].to_pylist() for k in keys]
    for i, row in enumerate(allp["__sk"].to_pylist()):
        kv = tuple(c[i] for c in kcols)
        cur = np.array(row, dtype=np.uint64)
        lut[kv] = cur if kv not in lut else kmv_merge(lut[kv], cur)
    rows = zip(*[merged[k].to_pylist() for k in keys]) if n else []
    return pa.array(
        [kmv_estimate(lut[t]) if t in lut and len(lut[t]) else 0
         for t in map(tuple, rows)], type=pa.int64())


def _merge_fn(atom_name: str) -> str:
    """How a merged atom column re-aggregates to a coarser grouping
    level (counts sum; sum/min/max are self-merging)."""
    if atom_name.startswith(("count(", "count_star", "sumsq(")):
        return "sum"
    if atom_name.startswith("bool_min("):
        return "min"
    if atom_name.startswith("bool_max("):
        return "max"
    for fn in ("sum", "min", "max"):
        if atom_name.startswith(f"{fn}("):
            return fn
    raise SqlUnsupported(f"cannot re-aggregate {atom_name!r}")


def _grouping_sets(merged: pa.Table, keys: list[str],
                   group_sets: list[list[int]]) -> pa.Table:
    """ROLLUP / CUBE / GROUPING SETS from ONE finest-level scan: the
    merged atom table (O(groups), driver-resident) re-aggregates per
    grouping set; grouping columns outside a set emit SQL's NULL
    marker. Atom columns must be self-merging (no COUNT(DISTINCT))."""
    atom_cols = [c for c in merged.column_names if c not in keys]
    levels = []
    for gs in group_sets:
        sub = [keys[i] for i in sorted(gs)]
        if sorted(gs) == list(range(len(keys))):
            t = merged
        elif sub:
            from .collect import group_aggregate

            agg = group_aggregate(merged, sub,
                                  [(c, _merge_fn(c)) for c in atom_cols])
            t = pa.table({
                **{k: agg[k] for k in sub},
                **{c: agg[f"{c}_{_merge_fn(c)}"] for c in atom_cols}})
        else:  # grand total
            cols = {}
            for c in atom_cols:
                fn = _merge_fn(c)
                v = getattr(pc, fn)(merged[c]).as_py()
                if v is None and c.startswith("count"):
                    v = 0  # COUNT over zero rows is 0, not NULL
                cols[c] = pa.array([v], type=merged[c].type)
            t = pa.table(cols)
        for k in keys:  # NULL markers for keys outside this set
            if k not in t.column_names:
                t = t.append_column(k, pa.nulls(t.num_rows,
                                                merged[k].type))
        inset = {keys[i] for i in gs}
        for k in keys:  # GROUPING() flags: 1 = rolled up in this set
            t = t.append_column(
                f"__grouping_{k}",
                pa.array([0 if k in inset else 1] * t.num_rows,
                         type=pa.int64()))
        levels.append(t.select(keys + atom_cols
                               + [f"__grouping_{k}" for k in keys]))
    return pa.concat_tables(levels)


def _count_distinct_counts(src, keys: list[str], col: str,
                           merged: pa.Table | None, n: int) -> pa.Array:
    """COUNT(DISTINCT col) [per group]: per-batch distinct of
    (keys, col) — the map-side combine, shuffling one row per distinct
    pair per block — then a driver-side distinct + valid-count,
    aligned to ``merged``'s group rows (0 for groups whose col is
    all-null)."""
    from .collect import group_aggregate

    gcols = list(dict.fromkeys(keys + [col]))
    ds = src.stream(gcols)

    def part(batch: pa.Table) -> pa.Table:
        from .collect import group_aggregate as ga

        return ga(batch, gcols, [])

    parts = [b for b in ds.map_batches(
        part, batch_format="pyarrow").iter_batches(
            batch_size=None, batch_format="pyarrow")]
    parts = [p for p in parts if p.num_rows]
    if not parts:
        return pa.array([0] * n, type=pa.int64())
    dd = group_aggregate(
        pa.concat_tables(parts, promote_options="permissive"), gcols, [])
    if not keys:
        v = len(pc.drop_null(dd[col].combine_chunks()))
        return pa.array([v] * n, type=pa.int64())
    cnt = group_aggregate(
        dd, keys, [(col, "count", pc.CountOptions(mode="only_valid"))])
    lut = {tuple(r[k] for k in keys): r[f"{col}_count"]
           for r in cnt.to_pylist()}
    rows = zip(*[merged[k].to_pylist() for k in keys]) if n else []
    return pa.array([lut.get(t, 0) for t in map(tuple, rows)],
                    type=pa.int64())


def _distinct_agg_values(src, keys: list[str], col: str,
                         merged: pa.Table | None, n: int,
                         fn: str) -> pa.Array:
    """SUM/AVG(DISTINCT col) [per group]: the COUNT(DISTINCT) pair
    machinery (per-batch distinct of (keys, col), driver distinct),
    reduced in exact Python over the O(distinct) pairs — big-int
    exact for integers. Groups with no non-null value yield NULL."""
    from .collect import group_aggregate

    gcols = list(dict.fromkeys(keys + [col]))
    ds = src.stream(gcols)

    def part(batch: pa.Table) -> pa.Table:
        from .collect import group_aggregate as ga

        return ga(batch, gcols, [])

    parts = [b for b in ds.map_batches(
        part, batch_format="pyarrow").iter_batches(
            batch_size=None, batch_format="pyarrow")]
    parts = [p for p in parts if p.num_rows]
    if fn == "avg":
        out_type = pa.float64()
    else:
        out_type = None  # decided from the column type below
    if not parts:
        return pa.nulls(n, out_type or pa.int64())
    dd = group_aggregate(
        pa.concat_tables(parts, promote_options="permissive"), gcols, [])
    if out_type is None:
        out_type = pa.int64() \
            if pa.types.is_integer(dd.schema.field(col).type) \
            else pa.float64()

    def reduce(vs):
        if not vs:
            return None
        return sum(vs) if fn == "sum" else sum(vs) / len(vs)

    by: dict = {}
    for r in dd.to_pylist():
        if r[col] is None:
            continue
        by.setdefault(tuple(r[k] for k in keys), []).append(r[col])
    if not keys:
        return pa.array([reduce(by.get((), []))] * n, type=out_type)
    rows = zip(*[merged[k].to_pylist() for k in keys]) if n else []
    return pa.array([reduce(by.get(t, [])) for t in map(tuple, rows)],
                    type=out_type)


def _grouped_quantile_values(src, keys: list[str], col: str,
                             merged: pa.Table | None, n: int,
                             p: float, disc: bool) -> pa.Array:
    """MEDIAN / QUANTILE_CONT / QUANTILE_DISC [per group]: each batch
    reduces to (keys, value, count) rows via one pyarrow group_by —
    the shuffle carries O(distinct values x groups) rows, never the
    data — and the driver selects from merged weighted value
    histograms. CONT interpolates with DuckDB's own double expression
    (lo*(1-frac) + hi*frac) so integer-column oracles hash-match;
    DISC takes the smallest value whose cumulative distribution
    reaches p (the ceil(p*n)-1 rank rule). Nulls are excluded; an
    all-null group yields NULL. Exact, like the engine's
    int_percentiles — approximate variants live in
    transforms.group_approx_percentiles."""
    from .collect import group_aggregate

    lt = None
    if src.unfiltered_dir is not None:
        lt = _sidecar_type(src.unfiltered_dir, col)
    gcols = list(dict.fromkeys(keys + [col]))
    ds = src.stream(gcols)

    def part(batch: pa.Table) -> pa.Table:
        from .collect import group_aggregate as ga

        t = batch.select(gcols).append_column(
            "__one", pa.array(np.ones(batch.num_rows, dtype=np.int64)))
        return ga(t, gcols, [("__one", "sum")])

    parts = [b for b in ds.map_batches(
        part, batch_format="pyarrow").iter_batches(
            batch_size=None, batch_format="pyarrow")]
    parts = [b for b in parts if b.num_rows]
    vt = lt if lt is not None else (
        parts[0].schema.field(col).type if parts else pa.float64())
    if not disc and not (pa.types.is_integer(vt)
                         or pa.types.is_floating(vt)):
        raise SqlUnsupported(f"quantile_cont over {vt} column")
    out_type = vt if disc else pa.float64()
    if not parts:
        return pa.nulls(n, out_type)
    allp = pa.concat_tables(parts, promote_options="permissive")
    hist = group_aggregate(allp, gcols, [("__one_sum", "sum")])
    # one global sort by (keys, value) -> each group's weighted value
    # histogram is a contiguous run, selected with numpy only
    hist = hist.filter(pc.is_valid(hist[col]))
    if hist.num_rows == 0:
        return pa.nulls(n, out_type)
    hist = hist.take(pc.sort_indices(
        hist, sort_keys=[(k, "ascending") for k in keys]
        + [(col, "ascending")], null_placement="at_start"))
    cnts = hist["__one_sum_sum"].to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    vals = hist[col].combine_chunks()

    def select_run(b: int, e: int):
        c = cnts[b:e]
        total = int(c.sum())
        cum = np.cumsum(c)
        if disc:
            # smallest value whose cumulative distribution >= p
            # (SQL PERCENTILE_DISC / DuckDB quantile_disc, the same
            # ceil(p*n)-1 rule as pipeline.query.int_percentiles)
            r = max(int(np.ceil(p * total)) - 1, 0)
            i = int(np.searchsorted(cum, r + 1))
            return vals[b + i].as_py()
        pos = (total - 1) * p
        lo_r = int(np.floor(pos))
        hi_r = int(np.ceil(pos))
        i_lo = int(np.searchsorted(cum, lo_r + 1))
        i_hi = int(np.searchsorted(cum, hi_r + 1))
        v_lo = float(pc.cast(vals[b + i_lo], pa.float64()).as_py())
        if i_hi == i_lo:
            return v_lo
        v_hi = float(pc.cast(vals[b + i_hi], pa.float64()).as_py())
        frac = pos - lo_r
        return v_lo * (1 - frac) + v_hi * frac

    if not keys:
        return pa.array([select_run(0, hist.num_rows)] * n,
                        type=out_type)
    # group run boundaries over the sorted key columns (null-safe:
    # validity change = boundary too)
    m = np.zeros(hist.num_rows, dtype=bool)
    m[0] = True
    for k in keys:
        a = hist[k].combine_chunks()
        neq = pc.fill_null(pc.not_equal(a.slice(1),
                                        a.slice(0, len(a) - 1)),
                           False).to_numpy(zero_copy_only=False)
        va = pc.is_valid(a).to_numpy(zero_copy_only=False)
        m[1:] |= neq | (va[1:] != va[:-1])
    bounds = np.flatnonzero(m)
    ends = np.r_[bounds[1:], hist.num_rows]
    lut: dict = {}
    kcols = [hist[k].to_pylist() for k in keys]
    for b, e in zip(bounds, ends):
        lut[tuple(c[b] for c in kcols)] = select_run(int(b), int(e))
    rows = zip(*[merged[k].to_pylist() for k in keys]) if n else []
    return pa.array([lut.get(t) for t in map(tuple, rows)],
                    type=out_type)


def _run_starts(t: pa.Table, keys: list[str]) -> np.ndarray:
    """Group run-start offsets over a table already SORTED by
    ``keys`` (null-safe: a validity change is a boundary too)."""
    if t.num_rows == 0:
        return np.empty(0, dtype=np.int64)
    if not keys:
        return np.zeros(1, dtype=np.int64)
    m = np.zeros(t.num_rows, dtype=bool)
    m[0] = True
    for k in keys:
        a = t[k].combine_chunks()
        neq = pc.fill_null(pc.not_equal(a.slice(1),
                                        a.slice(0, len(a) - 1)),
                           False).to_numpy(zero_copy_only=False)
        va = pc.is_valid(a).to_numpy(zero_copy_only=False)
        m[1:] |= neq | (va[1:] != va[:-1])
    return np.flatnonzero(m).astype(np.int64)


def _sort_with_spec(t: pa.Table, keys: list[str],
                    spec: list) -> pa.Table:
    """Sort by the group keys then an in-aggregate ORDER BY spec
    ([[col, desc, nulls_first], ...]). Arrow's null_placement is
    global, so every spec key sorts as an (is-null companion,
    null-filled key) pair — the companion dominates, giving exact
    per-key null placement (DuckDB's default: NULLS LAST either
    direction)."""
    sort_keys = [(k, "ascending") for k in keys]
    hidden = []
    for i, (c, desc, nf) in enumerate(spec):
        arr = t[c].combine_chunks()
        if pa.types.is_null(arr.type):
            isn = pa.array(np.ones(t.num_rows, dtype=np.int8))
            filled = pa.array(np.zeros(t.num_rows, dtype=np.int8))
        else:
            isn = pc.cast(pc.is_null(arr), pa.int8())
            filled = pc.fill_null(arr, _zero_scalar(arr.type))
        hidden += [(f"__sn{i}", isn), (f"__sk{i}", filled)]
        sort_keys.append((f"__sn{i}",
                          "descending" if nf else "ascending"))
        sort_keys.append((f"__sk{i}",
                          "descending" if desc else "ascending"))
    aug = t
    for nm, a in hidden:
        aug = aug.append_column(nm, a)
    idx = pc.sort_indices(aug, sort_keys=sort_keys)
    return t.take(idx)


def _arg_extreme_values(src, keys: list[str], col: str,
                        merged: pa.Table | None, n: int,
                        by: str, biggest: bool) -> pa.Array:
    """ARG_MAX / ARG_MIN(col, by) [per group], DuckDB semantics: rows
    where EITHER argument is null are ignored; a group with no valid
    pair yields NULL. Each batch reduces to ONE candidate row per
    group (vectorized sort + run-boundary take — the map-side
    combine), and the driver merges the O(groups x blocks) candidates
    with the same rule. Ties on the BY value break toward the
    smallest col value, so results are block-boundary-invariant."""
    gcols = list(dict.fromkeys(keys + [col, by]))
    ds = src.stream(gcols)
    dirn = "descending" if biggest else "ascending"
    sort_keys = [(k, "ascending") for k in keys] + \
        [(by, dirn), (col, "ascending")]

    def reduce_rows(t: pa.Table) -> pa.Table:
        t = t.filter(pc.and_(pc.is_valid(t[col]), pc.is_valid(t[by])))
        if t.num_rows == 0:
            return t
        t = t.take(pc.sort_indices(t, sort_keys=sort_keys))
        return t.take(pa.array(_run_starts(t, keys), type=pa.int64()))

    parts = [b for b in ds.map_batches(
        reduce_rows, batch_format="pyarrow").iter_batches(
            batch_size=None, batch_format="pyarrow")]
    parts = [p for p in parts if p.num_rows]
    out_type = src.empty([col]).schema.field(col).type
    if not parts:
        return pa.nulls(n, out_type)
    cand = reduce_rows(pa.concat_tables(parts,
                                        promote_options="permissive"))
    if not keys:
        v = cand[col][0].as_py() if cand.num_rows else None
        return pa.array([v] * n, type=out_type)
    lut = {tuple(r[k] for k in keys): r[col]
           for r in cand.to_pylist()}
    rows = zip(*[merged[k].to_pylist() for k in keys]) if n else []
    return pa.array([lut.get(t) for t in map(tuple, rows)],
                    type=out_type)


def _collected_agg_values(src, keys: list[str], col: str,
                          merged: pa.Table | None, n: int,
                          spec: list, sep: str | None,
                          distinct: bool = False) -> pa.Array:
    """STRING_AGG (sep given) / ARRAY_AGG (sep None) [per group] with
    an in-aggregate ORDER BY: each batch ships only (keys, order
    columns, value) rows — the VALUES ARE THE RESULT, so the gather
    is inherently result-sized — and the driver sorts once and slices
    contiguous group runs. STRING_AGG skips nulls (all-null -> NULL,
    matching DuckDB); ARRAY_AGG keeps them in order. Without an ORDER
    BY the values order by themselves: DuckDB's insertion order is
    nondeterministic under distribution, ours is deterministic."""
    ocols = [c for c, *_ in spec]
    gcols = list(dict.fromkeys(keys + ocols + [col]))
    ds = src.stream(gcols)
    parts = [b for b in ds.iter_batches(batch_size=None,
                                        batch_format="pyarrow")]
    parts = [p for p in parts if p.num_rows]
    vt = src.empty([col]).schema.field(col).type
    out_type = pa.string() if sep is not None else pa.list_(vt)
    if not parts:
        return pa.nulls(n, out_type)
    allp = pa.concat_tables(parts, promote_options="permissive")
    t = _sort_with_spec(allp, keys, spec or [[col, False, False]])
    starts = _run_starts(t, keys)
    ends = np.r_[starts[1:], t.num_rows]
    vals = t[col].combine_chunks()
    if sep is not None:
        pl = pc.cast(vals, pa.string()).to_pylist()

        def mk(b: int, e: int):
            vs = [v for v in pl[b:e] if v is not None]
            if distinct:  # first occurrence in sort order survives
                vs = list(dict.fromkeys(vs))
            return sep.join(vs) if vs else None
    else:
        pl = vals.to_pylist()

        def mk(b: int, e: int):
            out = pl[b:e]
            if distinct:
                try:
                    return list(dict.fromkeys(out))
                except TypeError:
                    raise SqlUnsupported(
                        "array_agg(DISTINCT) over unhashable "
                        "(nested) values")
            return out

    if not keys:
        v = mk(0, t.num_rows)
        return pa.array([v] * n, type=out_type)
    kt = t.select(keys).take(pa.array(starts, type=pa.int64()))
    lut = {tuple(r[k] for k in keys): mk(int(b), int(e))
           for r, b, e in zip(kt.to_pylist(), starts, ends)}
    rows = zip(*[merged[k].to_pylist() for k in keys]) if n else []
    return pa.array([lut.get(t) for t in map(tuple, rows)],
                    type=out_type)


def _agg_env(table: pa.Table | None, keys: list[str],
             atoms: list[tuple]) -> tuple[dict, int]:
    """Build the expression environment over merged aggregate atoms.
    ``table`` None = zero groups (global aggregates over empty input
    still emit one SQL row: COUNT 0, others NULL)."""
    env: dict = {}
    if table is None:
        n = 0 if keys else 1
        for k in keys:
            env[k] = pa.nulls(n, pa.string())
        for fn, col in atoms:
            if fn in ("count", "count_star"):
                env[("agg", fn, col)] = pa.array([0] * n, type=pa.int64())
            elif fn in ("bool_and", "bool_or"):
                env[("agg", fn, col)] = pa.nulls(n, pa.bool_())
            else:
                env[("agg", fn, col)] = pa.nulls(n, pa.float64())
        return env, n
    n = table.num_rows
    for k in keys:
        env[k] = table[k]
    for fn, col in atoms:
        if fn == "count_star":
            env[("agg", fn, None)] = pc.cast(table["count_star()"],
                                             pa.int64())
        elif fn == "count":
            env[("agg", fn, col)] = pc.cast(table[f"count({col})"],
                                            pa.int64())
        elif fn == "avg":
            s = pc.cast(table[f"sum({col})"], pa.float64())
            c = pc.cast(table[f"count({col})"], pa.float64())
            env[("agg", fn, col)] = pc.divide(s, c)
        elif fn in _VAR_FNS:
            # two-pass formula over exact partials, evaluated in the
            # operand order (q - s*s/c) / den so an oracle written as
            # the same explicit SQL expression is bit-identical on
            # integer columns; clamped at 0 (rounding can land an
            # all-equal group a hair negative — SQL says exactly 0)
            q = pc.cast(table[f"sumsq({col})"], pa.float64())
            s = pc.cast(table[f"sum({col})"], pa.float64())
            c = pc.cast(table[f"count({col})"], pa.float64())
            num = pc.subtract(q, pc.divide(pc.multiply(s, s), c))
            num = pc.max_element_wise(
                num, pa.scalar(0.0),
                options=pc.ElementWiseAggregateOptions(skip_nulls=False))
            den = c if fn.endswith("_pop") \
                else pc.subtract(c, pa.scalar(1.0))
            v = pc.if_else(pc.greater(den, 0.0),
                           pc.divide(num, den),
                           pa.scalar(None, pa.float64()))
            if fn.startswith("stddev"):
                v = pc.sqrt(v)
            env[("agg", fn, col)] = v
        elif fn in ("bool_and", "bool_or"):
            src = "bool_min" if fn == "bool_and" else "bool_max"
            env[("agg", fn, col)] = pc.cast(table[f"{src}({col})"],
                                            pa.bool_())
        else:
            env[("agg", fn, col)] = table[f"{fn}({col})"]
    return env, n


def _decode_free_eligible(out_dir: str, key: str,
                          atoms: list[tuple]) -> str | None:
    """Whether this GROUP BY shape can run decode-free. Returns the
    single value column name, "" for pure COUNT(*), or None if the
    shape needs the streamed partial path (multiple value columns,
    non-int value, non-string key, or COUNT(col)/AVG over a column
    the manifest shows has nulls)."""
    from .pipeline.query import _manifest_paths
    from .format import read_header

    if any(f not in ("count_star", "count", "sum", "min", "max", "avg")
           for f, _ in atoms):
        return None  # sumsq / bool / quantile atoms need the stream
    vcols = {c for f, c in atoms if f != "count_star"}
    if len(vcols) > 1:
        return None
    rows = _manifest_paths(out_dir)
    if not rows:
        return None
    header0, _ = read_header(rows[0]["path"])
    if key not in header0["columns"] \
            or header0["columns"][key]["kind"] != "str":
        return None
    if not vcols:
        return ""
    vcol = vcols.pop()
    cm = header0["columns"].get(vcol)
    if cm is None or cm["kind"] not in ("int",):
        return None
    lt = _sidecar_type(out_dir, vcol)
    if lt is not None and (pa.types.is_temporal(lt) or pa.types.is_boolean(
            lt)) and any(f in ("sum", "avg") for f, _ in atoms):
        return None  # SUM over a bit-view int64 would lose the type
    if any(f in ("count", "avg") for f, _ in atoms):
        total_nulls = 0
        for r in rows:
            s = json.loads(r["col_stats"]).get(vcol, {})
            total_nulls += int(s.get("nulls") or 0)
        if total_nulls:
            return None  # COUNT(col) != n_rows — generic path
    return vcol


def _decode_free_group_agg(out_dir: str, key: str, atoms: list[tuple]):
    """Route an eligible GROUP BY through dict_group_aggregate (key
    codes never materialize per row). Returns the atom table or None
    if ineligible (caller falls back to the streamed partial path)."""
    from .pipeline.query import dict_value_counts

    vcol = _decode_free_eligible(out_dir, key, atoms)
    if vcol is None:
        return None
    if vcol == "":
        # pure COUNT(*): bincount over codes, zero value decode
        t = dict_value_counts(out_dir, key)
        cnt = t.column(1)
        return pa.table({key: t[key],
                         "count_star()": pc.cast(cnt, pa.int64())})
    from .pipeline.query import dict_group_aggregate

    t = dict_group_aggregate(out_dir, key, vcol)
    # restore the value column's logical type on order statistics:
    # temporal columns ride the int stream as bit views, so min_v /
    # max_v come back int64 and must cast to the decoded type
    lt = _sidecar_type(out_dir, vcol)
    mn, mx = t["min_v"], t["max_v"]
    if lt is not None and pa.types.is_temporal(lt):
        mn, mx = pc.cast(mn, lt), pc.cast(mx, lt)
    cols = {key: t[key]}
    for fn, col in atoms:
        if fn == "count_star":
            cols["count_star()"] = t["n_rows"]
        elif fn == "count":
            cols[f"count({col})"] = t["n_rows"]
        elif fn == "sum":
            cols[f"sum({col})"] = t["sum_v"]
        elif fn == "min":
            cols[f"min({col})"] = mn
        elif fn == "max":
            cols[f"max({col})"] = mx
        elif fn == "avg":
            cols[f"sum({col})"] = t["sum_v"]
            cols[f"count({col})"] = t["n_rows"]
    return pa.table(cols)


def _sidecar_type(out_dir: str, col: str):
    """Decoded arrow type of ``col`` from the encode-time schema
    sidecar, or None when no sidecar exists (pre-sidecar dirs)."""
    from .pipeline.decode import read_schema_sidecar

    sch = read_schema_sidecar(out_dir)
    if sch is None or col not in sch.names:
        return None
    return sch.field(col).type


# --------------------------------------------------------------------------
# order / limit

def _apply_order_limit(table: pa.Table, node: dict, env_extra: dict,
                       atoms: list[tuple],
                       select: list | None = None) -> pa.Table:
    """ORDER BY / LIMIT / OFFSET over a driver-resident result table
    (aggregate outputs are O(groups); row streams use the distributed
    top-k path before reaching here)."""
    order, limit, offset = _modifiers(node, select)
    if order:
        keys = []
        env = {c: table[c] for c in table.column_names}
        env.update(env_extra)
        sort_cols = []
        for i, (expr, desc, nf) in enumerate(order):
            arr = _eval_expr(expr, env, table.num_rows)
            if isinstance(arr, pa.ChunkedArray):
                arr = arr.combine_chunks()
            if nf:
                # per-key NULLS FIRST: a synthetic is-null key sorted
                # descending groups nulls ahead of the value order
                nname = f"__ordn{i}"
                table = table.append_column(
                    nname, pa.chunked_array([pc.is_null(arr)]))
                sort_cols.append((nname, "descending"))
                keys.append(nname)
            name = f"__ord{i}"
            table = table.append_column(name, pa.chunked_array([arr]))
            sort_cols.append((name, "descending" if desc else "ascending"))
            keys.append(name)
        idx = pc.sort_indices(table, sort_keys=sort_cols,
                              null_placement="at_end")
        table = table.take(idx).drop_columns(keys)
    if offset:
        table = table.slice(offset)
    if limit is not None:
        table = table.slice(0, limit)
    return table


def _modifiers(node: dict, select: list | None = None):
    """(order, limit, offset); with ``select`` given, ORDER BY
    ordinals (ORDER BY 2) resolve to the Nth select item."""
    order, limit, offset = [], None, 0
    for m in node.get("modifiers", []):
        if m["type"] == "ORDER_MODIFIER":
            for o in m["orders"]:
                desc = o["type"] == "DESCENDING"
                expr = o["expression"]
                if select is not None and expr.get("class") == "CONSTANT":
                    k = _const_value(expr)
                    if not isinstance(k, int) or not 1 <= k <= len(select):
                        raise SqlUnsupported(
                            f"ORDER BY ordinal {k!r} out of range")
                    expr = select[k - 1]
                    if expr["class"] == "STAR":
                        raise SqlUnsupported("ORDER BY ordinal of *")
                nf = o.get("null_order") == "NULLS_FIRST"
                order.append((expr, desc, nf))
        elif m["type"] == "LIMIT_MODIFIER":
            if m.get("limit"):
                limit = _const_value(m["limit"])
            if m.get("offset"):
                offset = _const_value(m["offset"])
        elif m["type"] == "DISTINCT_MODIFIER":
            pass  # handled by _distinct_modifier before dispatch
        else:
            raise SqlUnsupported(f"modifier {m['type']!r}")
    return order, limit, offset


def _stream_topk(ds, order: list, limit: int, offset: int,
                 project: list[str]) -> pa.Table:
    """Distributed ORDER BY + LIMIT over a row stream: every batch
    keeps its own top-(limit+offset) rows (vectorized sort), the
    driver merges the tiny survivors. Order keys must be plain
    columns here (checked by the caller)."""
    keep = limit + offset
    # per-key NULLS FIRST: arrow's null_placement is global, so each
    # NULLS FIRST key gets a hidden is-null bool key sorted desc
    nf_cols = [(f"__nf{i}", _colref(e))
               for i, (e, _, nf) in enumerate(order) if nf]
    sort_keys = []
    for i, (e, d, nf) in enumerate(order):
        if nf:
            sort_keys.append((f"__nf{i}", "descending"))
        sort_keys.append((_colref(e), "descending" if d else "ascending"))

    def _aug(t: pa.Table) -> pa.Table:
        for h, c in nf_cols:
            t = t.append_column(h, pc.is_null(t[c]))
        return t

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows <= keep:
            return batch.select(project)
        idx = pc.sort_indices(_aug(batch), sort_keys=sort_keys,
                              null_placement="at_end")
        return batch.take(idx[:keep]).select(project)

    parts = [b for b in ds.map_batches(
        partial, batch_format="pyarrow").iter_batches(
            batch_size=None, batch_format="pyarrow")]
    parts = [p for p in parts if p.num_rows]
    if not parts:
        return None
    allp = pa.concat_tables(parts, promote_options="permissive")
    idx = pc.sort_indices(_aug(allp), sort_keys=sort_keys,
                          null_placement="at_end")
    return allp.take(idx[offset:offset + limit])


# --------------------------------------------------------------------------
# entry point

def _extract_agg_exprs(node: dict):
    """Rewrite aggregates whose argument is an EXPRESSION
    (SUM(a*b), COUNT(CASE ...)) or that carry a FILTER clause onto
    hidden per-batch derived columns (``__e0``, ...), so the partial
    aggregation sees plain columns. Returns (node', derived) where
    derived maps hidden name -> ("expr", arg_node) or
    ("filtered", filter_node, arg_node|None)."""
    derived: list = []
    memo: dict = {}

    def mk(spec) -> str:
        key = json.dumps(spec, sort_keys=True, default=str)
        if key in memo:  # SUM(a*b) twice -> one hidden column
            return memo[key]
        nm = f"__e{len(derived)}"
        derived.append((nm, spec))
        memo[key] = nm
        return nm

    def walk(x):
        if isinstance(x, dict):
            if x.get("class") == "WINDOW":
                return x  # window children have their own machinery
            if x.get("class") == "FUNCTION" \
                    and x.get("function_name") in _AGG_FNS:
                flt = x.get("filter")
                ch = x.get("children") or []
                arg = ch[0] if ch else None
                complex_arg = arg is not None \
                    and arg.get("class") != "COLUMN_REF"
                if flt is None and not complex_arg:
                    return x
                y = dict(x, filter=None)
                if flt is not None:
                    nm = mk(("filtered", flt, arg))
                    if x["function_name"] == "count_star" or arg is None:
                        # COUNT(*) FILTER p -> COUNT(p-else-null)
                        y["function_name"] = "count"
                else:
                    nm = mk(("expr", arg))
                y["children"] = [{"class": "COLUMN_REF",
                                  "type": "COLUMN_REF", "alias": "",
                                  "column_names": [nm]}] + ch[1:]
                return y
            return {k: walk(v) for k, v in x.items()}
        if isinstance(x, list):
            return [walk(v) for v in x]
        return x

    node2 = dict(node)
    node2["select_list"] = walk(node["select_list"])
    if node.get("having") is not None:
        node2["having"] = walk(node["having"])
    node2["modifiers"] = walk(node.get("modifiers") or [])
    return node2, derived


def _canon_key(x) -> str:
    """Canonical form of an expression node for structural equality:
    aliases and source offsets are presentation, not meaning."""
    def strip(v):
        if isinstance(v, dict):
            return {k: strip(w) for k, w in v.items()
                    if k not in ("alias", "query_location")}
        if isinstance(v, list):
            return [strip(w) for w in v]
        return v
    return json.dumps(strip(x), sort_keys=True, default=str)


def _has_agg(x) -> bool:
    if isinstance(x, dict):
        if x.get("class") == "FUNCTION" \
                and x.get("function_name") in _AGG_FNS:
            return True
        return any(_has_agg(v) for v in x.values())
    if isinstance(x, list):
        return any(_has_agg(v) for v in x)
    return False


def _extract_group_exprs(node: dict, src_cols: list):
    """GROUP BY over expressions, select aliases, and ordinals:
    rewrite each non-column group key onto a hidden per-batch derived
    column (``__gN``) and point every structurally identical
    expression in SELECT / HAVING / ORDER BY at it, so the partial
    aggregation groups on a plain column. Aliases resolve only when
    the name is not a real source column (SQL's precedence);
    ``GROUP BY 1`` resolves to the first select item."""
    gexprs = node.get("group_expressions") or []
    if not gexprs:
        return node, []
    sel = node["select_list"]
    scols = set(src_cols)
    alias_map = {it["alias"]: it for it in sel
                 if isinstance(it, dict) and it.get("alias")}
    derived: list = []
    mapping: dict = {}
    new_g: list = []
    changed = False
    for g in gexprs:
        if g.get("type") == "VALUE_CONSTANT":
            v = _const_value(g)
            if isinstance(v, bool) or not isinstance(v, int) \
                    or not (1 <= v <= len(sel)):
                raise SqlUnsupported(f"GROUP BY ordinal {v!r}")
            g, changed = sel[v - 1], True
        if g.get("class") == "COLUMN_REF":
            nm = _colref(g)
            if nm in scols or nm not in alias_map:
                new_g.append(_synth_colref(nm))
                continue
            g, changed = alias_map[nm], True  # alias -> its expression
            if g.get("class") == "COLUMN_REF":
                new_g.append(_synth_colref(_colref(g)))
                continue
        if _has_agg(g) or _contains_window(g):
            raise SqlUnsupported("GROUP BY over an aggregate/window")
        key = _canon_key(g)
        if key not in mapping:  # the same expr twice -> one column
            mapping[key] = f"__g{len(derived)}"
            derived.append((mapping[key], ("expr", g)))
        new_g.append(_synth_colref(mapping[key]))
        changed = True
    if not changed:
        return node, []

    def repl(x):
        if isinstance(x, dict):
            if "class" in x and _canon_key(x) in mapping:
                cr = _synth_colref(mapping[_canon_key(x)])
                cr["alias"] = x.get("alias") or ""
                return cr
            if x.get("class") == "WINDOW":
                return x
            return {k: repl(v) for k, v in x.items()}
        if isinstance(x, list):
            return [repl(v) for v in x]
        return x

    new_sel = []
    for it in sel:
        if isinstance(it, dict) and it.get("class") != "STAR" \
                and not it.get("alias") and _canon_key(it) in mapping:
            # keep DuckDB's output name for the unaliased expression
            try:
                nm = _expr_name(it)
            except SqlUnsupported:
                nm = ""
            it2 = repl(it)
            if nm:
                it2 = dict(it2, alias=nm)
            new_sel.append(it2)
        else:
            new_sel.append(repl(it))
    node2 = dict(node)
    node2["group_expressions"] = new_g
    node2["select_list"] = new_sel
    if node.get("having") is not None:
        node2["having"] = repl(node["having"])
    node2["modifiers"] = repl(node.get("modifiers") or [])
    return node2, derived


class _DerivedSource:
    """Wraps a source with hidden per-batch derived columns
    (``__eN``): aggregate FILTER clauses and expression arguments
    evaluate vectorized inside the stream BEFORE the partial
    aggregation — the shuffle still carries only O(groups) rows."""

    unfiltered_dir = None  # decode-free aggregation is ineligible

    def __init__(self, src, derived: list):
        self.src = src
        self.derived = dict(derived)

    def columns(self) -> list[str]:
        return list(self.src.columns()) + list(self.derived)

    def _closure(self, names: list[str]) -> tuple[list[str], list[str]]:
        """(base source columns, derived names in insertion order) —
        derived expressions may reference EARLIER derived columns (an
        aggregate argument over a hidden group-key column)."""
        base: list = []
        seen: set = set()
        stack = list(names)
        while stack:
            c = stack.pop(0)
            if c in seen:
                continue
            seen.add(c)
            if c in self.derived:
                sub: set = set()
                for nd in self.derived[c][1:]:
                    if nd is not None:
                        _expr_columns(nd, sub)
                stack.extend(sorted(sub))
            else:
                base.append(c)
        der = [d for d in self.derived if d in seen]
        return list(dict.fromkeys(base)), der

    def stream(self, cols: list[str]):
        import numpy as np

        base, der_names = self._closure(cols)
        ds = self.src.stream(base)
        if not der_names:
            return ds
        want = list(cols)
        derived = self.derived

        def _arr(v, n):
            if isinstance(v, pa.Scalar):
                return pa.array([v.as_py()] * n, type=v.type)
            if isinstance(v, pa.ChunkedArray):
                return v.combine_chunks()
            return v

        def add(b: pa.Table) -> pa.Table:
            env = {c: b[c] for c in b.column_names}
            n = b.num_rows
            for c in der_names:
                spec = derived[c]
                if spec[0] == "filtered":
                    m = pc.fill_null(_arr(_eval_expr(spec[1], env, n),
                                          n).cast(pa.bool_()), False)
                    v = _arr(_eval_expr(spec[2], env, n), n) \
                        if spec[2] is not None \
                        else pa.array(np.ones(n, dtype=np.int8))
                    env[c] = pc.if_else(m, v, pa.scalar(None, v.type))
                else:
                    env[c] = _arr(_eval_expr(spec[1], env, n), n)
            return pa.table({c: env[c] for c in want})

        return ds.map_batches(add, batch_format="pyarrow")

    def empty(self, cols: list[str]) -> pa.Table:
        sch = self.stream(cols).schema()
        return pa.table({nm: pa.array([], type=t)
                         for nm, t in zip(sch.names, sch.types)})


class _MemSource:
    """Driver-resident table (a materialized CTE result): WHERE
    evaluates as one vectorized 3VL mask over the table — there are
    no zone maps to prune, the data already lives on the driver."""

    def __init__(self, table: pa.Table, where_node):
        if where_node is not None:
            env = {c: table[c] for c in table.column_names}
            m = _eval_expr(where_node, env, table.num_rows)
            if isinstance(m, pa.Scalar):
                table = table if m.as_py() else table.slice(0, 0)
            else:
                if isinstance(m, pa.ChunkedArray):
                    m = m.combine_chunks()
                table = table.filter(pc.fill_null(m, False))
        self.table = table

    def columns(self) -> list[str]:
        return list(self.table.column_names)

    def stream(self, cols: list[str]):
        import ray.data as rd

        # a 0-column selection loses num_rows: keep one column so
        # constant-only projections (FROM-less SELECT) see their row
        return rd.from_arrow(self.table.select(
            cols or self.table.column_names[:1]))

    def empty(self, cols: list[str]) -> pa.Table:
        return self.table.select(cols).slice(0, 0)

    unfiltered_dir = None


_CROSS_CAP_ROWS = 5_000_000


def _cross_source(ft: dict, tables: dict, where_node):
    """CROSS JOIN: both sides materialize (driver-bounded by contract
    — a cartesian product is only meaningful over small relations) and
    the product builds vectorized via repeat/tile index takes; the row
    cap refuses pathological crosses loudly instead of exploding."""
    import numpy as np

    def side_table(ref):
        node = {"type": "SELECT_NODE",
                "select_list": [dict(_STAR_NODE)],
                "from_table": ref, "where_clause": None,
                "modifiers": [], "cte_map": {"map": []},
                "group_expressions": [], "group_sets": [],
                "aggregate_handling": "STANDARD_HANDLING",
                "having": None, "sample": None, "qualify": None}
        return _materialize_result(_execute_node(node, tables))

    lt, rt = side_table(ft["left"]), side_table(ft["right"])
    if lt.num_rows * rt.num_rows > _CROSS_CAP_ROWS:
        raise SqlUnsupported(
            f"CROSS JOIN would produce {lt.num_rows * rt.num_rows} "
            f"rows (cap {_CROSS_CAP_ROWS}) — add a join condition")
    dup = set(lt.column_names) & set(rt.column_names)
    if dup:
        raise SqlUnsupported(
            f"CROSS JOIN duplicate column name(s) {sorted(dup)}: "
            "alias them apart in subqueries")
    li = np.repeat(np.arange(lt.num_rows, dtype=np.int64), rt.num_rows)
    ri = np.tile(np.arange(rt.num_rows, dtype=np.int64), lt.num_rows)
    cols = {c: lt[c].combine_chunks().take(pa.array(li))
            for c in lt.column_names}
    cols.update({c: rt[c].combine_chunks().take(pa.array(ri))
                 for c in rt.column_names})
    return _MemSource(pa.table(cols), where_node)


def _find_unnests(x, inside_agg=False, found=None):
    """Collect every UNNEST call in an expression tree; refuse the
    placements DuckDB's binder refuses (inside an aggregate)."""
    if found is None:
        found = []
    if isinstance(x, dict):
        if x.get("class") == "FUNCTION":
            fn = x.get("function_name")
            if fn == "unnest":
                if inside_agg:
                    raise SqlUnsupported("UNNEST inside an aggregate")
                found.append(x)
                # recursive unnest(unnest(..)) is a refusal, not a loop
                for c in x.get("children") or []:
                    if _find_unnests(c, inside_agg, []):
                        raise SqlUnsupported("nested UNNEST")
                return found
            inside_agg = inside_agg or fn in _AGG_FNS
        for v in x.values():
            _find_unnests(v, inside_agg, found)
    elif isinstance(x, list):
        for v in x:
            _find_unnests(v, inside_agg, found)
    return found


def _rewrite_unnest(src, node: dict, select: list):
    """UNNEST in the select list: rewrite each distinct unnest(arg)
    onto a hidden exploded column (``__unN``) provided by an
    _UnnestSource wrapper, so every downstream path (projection,
    ORDER BY/LIMIT, DISTINCT, GROUP BY over the exploded rows) sees
    plain columns. Multiple unnests zip DuckDB-style: each source row
    expands to the LONGEST list's length, shorter lists pad NULL;
    empty and NULL lists contribute zero rows of their own."""
    per_item = [_find_unnests(it) for it in select]
    if not any(per_item):
        return src, node, select
    for part in ("where_clause", "having", "qualify"):
        if node.get(part) is not None and _find_unnests(node[part]):
            raise SqlUnsupported(f"UNNEST in {part.split('_')[0].upper()}")
    for g in node.get("group_expressions") or []:
        if _find_unnests(g):
            raise SqlUnsupported("UNNEST in GROUP BY")
    args, keys = [], {}

    def hid(call: dict) -> str:
        ch = call.get("children") or []
        if len(ch) != 1:
            raise SqlUnsupported("unnest takes exactly one argument")
        k = _canon_key(ch[0])
        if k not in keys:
            keys[k] = f"__un{len(args)}"
            args.append(ch[0])
        return keys[k]

    def walk(x):
        if isinstance(x, dict):
            if x.get("class") == "FUNCTION" \
                    and x.get("function_name") == "unnest":
                return {"class": "COLUMN_REF", "type": "COLUMN_REF",
                        "alias": x.get("alias") or "",
                        "column_names": [hid(x)]}
            return {k: walk(v) for k, v in x.items()}
        if isinstance(x, list):
            return [walk(v) for v in x]
        return x

    select2 = []
    for it in select:
        nm = _expr_name(it)  # DuckDB's output name, e.g. unnest(l)
        it2 = walk(it)
        if not it2.get("alias"):
            it2["alias"] = nm
        select2.append(it2)
    node2 = dict(node)
    node2["select_list"] = select2
    node2["modifiers"] = walk(node.get("modifiers") or [])
    return _UnnestSource(src, args), node2, select2


class _UnnestSource:
    """Wraps a source with DuckDB-zip UNNEST columns: ``stream``
    explodes each batch with one np.repeat gather — row multiplicity
    is the max list length across ALL unnest args (so it is computed
    even for args the projection drops), base columns repeat, and
    shorter lists pad NULL."""

    def __init__(self, base, arg_nodes: list):
        self.base = base
        self.args = arg_nodes
        self.names = [f"__un{i}" for i in range(len(arg_nodes))]

    def columns(self) -> list[str]:
        return list(self.base.columns()) + list(self.names)

    def _base_need(self, cols: list[str]) -> list[str]:
        need: set = set()
        for a in self.args:
            _expr_columns(a, need)
        base_cols = [c for c in cols if c not in self.names]
        return list(dict.fromkeys(base_cols + sorted(need)))

    def stream(self, cols: list[str]):
        cols = list(cols) if cols else self.columns()
        read = self._base_need(cols)
        ds = self.base.stream(read)
        args, names = self.args, self.names
        want_un = [n for n in cols if n in names]

        def explode(b: pa.Table) -> pa.Table:
            env = {c: b[c] for c in b.column_names}
            lists = []
            for a in args:
                arr = _eval_expr(a, env, b.num_rows)
                if isinstance(arr, pa.Scalar):
                    arr = pa.array([arr.as_py()] * b.num_rows,
                                   type=arr.type)
                lists.append(_as_list_array(arr))
            bounds = [_list_bounds(la) for la in lists]
            mult = np.zeros(b.num_rows, dtype=np.int64)
            for _, lens, valid in bounds:
                mult = np.maximum(mult, np.where(valid, lens, 0))
            ridx = np.repeat(np.arange(b.num_rows), mult)
            starts = np.concatenate([[0], np.cumsum(mult)])[:-1]
            pos = np.arange(int(mult.sum())) - starts[ridx] \
                if len(ridx) else np.empty(0, dtype=np.int64)
            cols_out: dict = {}
            for c in cols:
                if c not in names:
                    cols_out[c] = b[c].combine_chunks().take(
                        pa.array(ridx, type=pa.int64()))
            for n, la, (off, lens, valid) in zip(names, lists, bounds):
                if n not in want_un:
                    continue
                ok = (pos < lens[ridx]) & valid[ridx]
                safe = np.where(ok, off[:-1][ridx] + pos, 0)
                if len(la.values) == 0:
                    cols_out[n] = pa.nulls(len(ridx),
                                           la.type.value_type)
                else:
                    taken = la.values.take(
                        pa.array(safe, type=pa.int64()))
                    cols_out[n] = _null_where(taken, ok)
            # emit in the requested column order (matches empty())
            cols_out = {c: cols_out[c] for c in cols if c in cols_out}
            return pa.table(cols_out) if cols_out else pa.table(
                {"__rows": pa.array(np.zeros(len(ridx), dtype=np.int8))}
            ).select([])

        out = ds.map_batches(explode, batch_format="pyarrow")
        return _with_typed_empty(out, self.empty(cols))

    def empty(self, cols: list[str]) -> pa.Table:
        cols = list(cols) if cols else self.columns()
        et = self.base.empty(self._base_need(cols))
        env = {c: et[c] for c in et.column_names}
        out: dict = {}
        for c in cols:
            if c in self.names:
                arr = _eval_expr(self.args[self.names.index(c)], env, 0)
                la = _as_list_array(arr)
                out[c] = pa.nulls(0, la.type.value_type)
            else:
                out[c] = et[c]
        return pa.table(out)

    unfiltered_dir = None


class _TableSource:
    """Single encoded table, WHERE compiled to the zone-pruned engine
    predicate tree. Conjuncts the tree language can't express (scalar
    functions, column-vs-column compares, arithmetic) ride along as a
    ``residual`` expression node, evaluated per batch as one
    vectorized 3VL mask AFTER the pruned scan — the supported
    conjuncts still prune partitions/chunks."""

    def __init__(self, out_dir: str, where_tree, residual=None):
        self.out_dir, self.where_tree = out_dir, where_tree
        self.residual = residual

    def columns(self) -> list[str]:
        return _dataset_columns(self.out_dir)

    def stream(self, cols: list[str]):
        if self.residual is None:
            return _scan_or_filter(self.out_dir, self.where_tree, cols)
        want = list(cols) if cols else self.columns()
        need: set = set()
        _expr_columns(self.residual, need)
        read = list(dict.fromkeys(
            want + [c for c in sorted(need) if c not in want]))
        ds = _scan_or_filter(self.out_dir, self.where_tree, read)
        resid = self.residual

        def filt(b: pa.Table) -> pa.Table:
            env = {c: b[c] for c in b.column_names}
            m = _eval_expr(resid, env, b.num_rows)
            if isinstance(m, pa.Scalar):
                out = b if m.as_py() is True else b.slice(0, 0)
            else:
                if isinstance(m, pa.ChunkedArray):
                    m = m.combine_chunks()
                out = b.filter(pc.fill_null(m, False))
            return out.select(want)

        out_ds = ds.map_batches(filt, batch_format="pyarrow")
        # Ray drops empty INPUT blocks before the UDF, so an all-
        # pruned upstream loses its schema through map_batches; a
        # typed zero-row union block keeps the contract that empty
        # results stay typed
        return _with_typed_empty(out_ds, self.empty(want))

    def empty(self, cols: list[str]) -> pa.Table:
        from .pipeline.query import _sidecar_empty

        return _sidecar_empty(self.out_dir, cols)

    @property
    def unfiltered_dir(self):
        return self.out_dir if self.where_tree is None \
            and self.residual is None else None


def _split_where(where, tables: dict, ocols: list[str], oalias: str):
    """Compile a WHERE clause for an encoded table: returns
    ``(tree, residual)`` where ``tree`` is the zone/Bloom-pruned
    engine predicate tree over the compilable AND-conjuncts (None if
    none compile) and ``residual`` is the AND of the rest as an
    expression node (None if everything compiled). The residual is
    dry-run on the empty schema so unsupported expressions fail on
    the driver, not inside a Ray task."""
    outer = (oalias, ocols)
    try:
        return _compile_pred(where, tables, any_col=ocols[0],
                             outer=outer), None
    except SqlUnsupported:
        pass
    trees, resid = [], []
    for c in _and_conjuncts(where):
        try:
            trees.append(_compile_pred(c, tables, any_col=ocols[0],
                                       outer=outer))
        except SqlUnsupported:
            resid.append(c)
    need: set = set()
    for r in resid:
        _expr_columns(r, need)
    unknown = need - set(ocols)
    if unknown:
        raise SqlUnsupported(
            f"unknown columns {sorted(unknown)} in WHERE")
    residual = _rebuild_and(resid)
    tree = trees[0] if len(trees) == 1 else (
        ("and", trees) if trees else None)
    return tree, residual


_JOIN_TYPES = {"INNER": "inner", "LEFT": "left",
               "RIGHT": "right", "OUTER": "full", "FULL": "full",
               "SEMI": "semi", "ANTI": "anti"}


def _derived_table(ft: dict, tables: dict):
    """Materialize a FROM-subquery (derived table) to a driver-side
    pa.Table — the same contract as a CTE. ``(...) s(a, b)`` column
    aliases rename the result."""
    alias = ft.get("alias")
    if not alias:
        raise SqlUnsupported("FROM subquery needs an alias")
    t = _materialize_result(
        _execute_node(ft["subquery"]["node"], tables))
    cna = ft.get("column_name_alias") or []
    if cna:
        if len(cna) != t.num_columns:
            raise SqlUnsupported(
                f"{len(cna)} column aliases for {t.num_columns} "
                "columns")
        t = t.rename_columns(list(cna))
    return alias, t


class _DsSource:
    """A FROM-subquery whose inner query stayed a lazy Dataset: the
    outer query streams over the inner one's batches — the derived
    rows (e.g. an UNNEST fan-out's exploded words) never materialize
    on the driver. The outer WHERE evaluates as one vectorized 3VL
    mask per batch; there are no zone maps mid-stream to prune."""

    def __init__(self, ds, empty: pa.Table, where_node,
                 rename: list | None = None):
        self.ds = ds
        self.rename = list(rename) if rename else None
        if self.rename:
            empty = empty.rename_columns(self.rename)
        self._empty = empty
        self.where = where_node
        if where_node is not None:
            # dry-run on the typed empty schema so unsupported WHERE
            # expressions refuse on the driver, not inside a Ray task
            env = {c: empty[c] for c in empty.column_names}
            _eval_expr(where_node, env, 0)

    def columns(self) -> list[str]:
        return list(self._empty.column_names)

    def stream(self, cols: list[str]):
        cols = list(cols) if cols else self.columns()
        where, rename = self.where, self.rename
        need = set(cols)
        if where is not None:
            _expr_columns(where, need)
        read = [c for c in self.columns() if c in need]

        def proj(b: pa.Table) -> pa.Table:
            if rename:
                b = b.rename_columns(rename)
            b = b.select(read)
            if where is not None:
                env = {c: b[c] for c in b.column_names}
                m = _eval_expr(where, env, b.num_rows)
                if isinstance(m, pa.Scalar):
                    b = b if m.as_py() else b.slice(0, 0)
                else:
                    if isinstance(m, pa.ChunkedArray):
                        m = m.combine_chunks()
                    b = b.filter(pc.fill_null(m.cast(pa.bool_()),
                                              False))
            return b.select(cols)

        out = self.ds.map_batches(proj, batch_format="pyarrow")
        return _with_typed_empty(out, self.empty(cols))

    def empty(self, cols: list[str]) -> pa.Table:
        return self._empty.select(cols).slice(0, 0)

    unfiltered_dir = None


def _stream_derived(ft: dict, tables: dict, where_node):
    """Source for a FROM-subquery: run the inner node; when the
    result is a lazy Dataset wrap it streaming (_DsSource), else fall
    back to the driver-side table contract (_MemSource) — either way
    the inner query executes exactly ONCE."""
    alias = ft.get("alias")
    if not alias:
        raise SqlUnsupported("FROM subquery needs an alias")
    import ray.data as rd

    res = _execute_node(ft["subquery"]["node"], tables)
    cna = ft.get("column_name_alias") or []
    if isinstance(res, rd.Dataset):
        sch = res.schema()
        names = list(sch.names) if sch is not None else []
        types = list(sch.types) if sch is not None else []
        if names and all(isinstance(t, pa.DataType) for t in types):
            if cna and len(cna) != len(names):
                raise SqlUnsupported(
                    f"{len(cna)} column aliases for {len(names)} "
                    "columns")
            empty = pa.table({n: pa.array([], type=t)
                              for n, t in zip(names, types)})
            return _DsSource(res, empty, where_node, cna or None)
    t = _materialize_result(res)
    if cna:
        if len(cna) != t.num_columns:
            raise SqlUnsupported(
                f"{len(cna)} column aliases for {t.num_columns} "
                "columns")
        t = t.rename_columns(list(cna))
    return _MemSource(t, where_node)


def _values_table(ft: dict) -> pa.Table:
    """A VALUES expression list evaluated to a driver table: DuckDB's
    default column names (col0, col1, ...); each column takes the
    first non-null cell's arrow type."""
    rows = ft.get("values") or []
    if not rows:
        raise SqlUnsupported("empty VALUES list")
    ncol = len(rows[0])
    cols = {}
    for j in range(ncol):
        cells = []
        for r in rows:
            if len(r) != ncol:
                raise SqlUnsupported("ragged VALUES rows")
            v = _eval_expr(r[j], {}, 1)
            s = v[0] if isinstance(v, (pa.Array, pa.ChunkedArray)) \
                else v
            cells.append(s.as_py())
        try:
            # Arrow's inference promotes like SQL (mixed int/float ->
            # double); incompatible cells (int + string) raise rather
            # than silently truncating to the first cell's type
            cols[f"col{j}"] = pa.array(cells)
        except pa.ArrowInvalid as e:
            raise SqlUnsupported(
                f"VALUES column {j} mixes incompatible types: {e}")
    return pa.table(cols)


class _JoinBase:
    """One table in a join chain: an encoded dir, a materialized CTE
    (pa.Table), or a derived table, with its alias and column set."""

    def __init__(self, ft: dict, tables: dict):
        if ft.get("type") == "_MATERIALIZED":
            # a bushy-side join subtree folded to a driver table: it
            # answers for EVERY alias it swallowed
            self.alias = "(" + " join ".join(ft["aliases"]) + ")"
            self.aliases = set(ft["aliases"])
            self.target = ft["table"]
        elif ft.get("type") == "SUBQUERY":
            self.alias, self.target = _derived_table(ft, tables)
            self.aliases = {self.alias}
        else:
            name = ft["table_name"]
            if name not in tables:
                raise KeyError(f"table {name!r} not provided "
                               f"(have: {sorted(tables)})")
            self.alias = ft.get("alias") or name
            self.aliases = {self.alias}
            self.target = tables[name]
        self.cols = _dataset_columns(self.target)
        self.colset = set(self.cols)


_STAR_NODE = {"class": "STAR", "type": "STAR", "alias": "",
              "relation_name": "", "exclude_list": [],
              "replace_list": [], "columns": False, "expr": None}


def _join_tree_aliases(ft: dict, out: list):
    if ft.get("type") == "JOIN":
        _join_tree_aliases(ft["left"], out)
        _join_tree_aliases(ft["right"], out)
    elif ft.get("type") in ("BASE_TABLE", "SUBQUERY"):
        out.append(ft.get("alias") or ft.get("table_name"))


def _materialize_bushy_side(ft: dict, tables: dict) -> dict:
    """One side of a join-of-joins (bushy tree) folds to a driver
    table: SELECT * over the subtree runs through the normal join
    machinery, and the result joins the other side as a single base
    answering for every alias it swallowed. Sound because the
    subtree's result is exactly its join semantics; sized like a CTE
    side (a huge bushy side belongs in an explicit CTE anyway)."""
    aliases: list = []
    _join_tree_aliases(ft, aliases)
    node = {"type": "SELECT_NODE", "select_list": [dict(_STAR_NODE)],
            "from_table": ft, "where_clause": None, "modifiers": [],
            "cte_map": {"map": []}, "group_expressions": [],
            "group_sets": [], "aggregate_handling":
            "STANDARD_HANDLING", "having": None, "sample": None,
            "qualify": None}
    t = _materialize_result(_execute_node(node, tables))
    return {"type": "_MATERIALIZED", "aliases": aliases, "table": t}


def _flip_jt(jt: str) -> str:
    if jt in ("semi", "anti"):
        raise SqlUnsupported(
            "SEMI/ANTI join with a nested join on the right "
            "(cannot commute) — rewrite left-deep")
    return {"inner": "inner", "left": "right",
            "right": "left", "full": "full"}[jt]


def _flatten_join(ft: dict, tables: dict, seen: set):
    """Flatten a JOIN tree into (bases, steps): steps[i] joins the
    accumulated stream over bases[0..i] with bases[i+1]. A join whose
    RIGHT side is itself a join commutes to the flipped join type
    (``A LEFT JOIN (B...) == (B...) RIGHT JOIN A``); a join of two
    joins (bushy tree) is refused."""
    jt_raw = ft.get("join_type", "INNER")
    if jt_raw not in _JOIN_TYPES:
        raise SqlUnsupported(f"join type {jt_raw!r}")
    jt = _JOIN_TYPES[jt_raw]
    cond, using = ft.get("condition"), ft.get("using_columns")
    left, right = ft["left"], ft["right"]
    # an ASOF join nested inside a chain folds to a driver table
    # (like a bushy side) — its own execution handles the lowering
    if left.get("type") == "JOIN" and left.get("ref_type") == "ASOF":
        left = _materialize_bushy_side(left, tables)
    if right.get("type") == "JOIN" and right.get("ref_type") == "ASOF":
        right = _materialize_bushy_side(right, tables)
    if left.get("type") == "JOIN" and right.get("type") == "JOIN":
        # bushy tree: fold the right subtree to a driver table and
        # continue left-deep against it
        right = _materialize_bushy_side(right, tables)
    if right.get("type") == "JOIN":
        left, right = right, left
        jt = _flip_jt(jt)
    if right.get("type") not in ("BASE_TABLE", "SUBQUERY",
                                 "_MATERIALIZED"):
        raise SqlUnsupported(f"join side type {right.get('type')!r}")
    if left.get("type") == "JOIN":
        bases, steps = _flatten_join(left, tables, seen)
    elif left.get("type") in ("BASE_TABLE", "SUBQUERY",
                              "_MATERIALIZED"):
        b0 = _JoinBase(left, tables)
        if b0.aliases & seen:
            raise SqlUnsupported(
                f"duplicate table alias {sorted(b0.aliases & seen)}")
        seen.update(b0.aliases)
        bases, steps = [b0], []
    else:
        raise SqlUnsupported(f"join side type {left.get('type')!r}")
    rb = _JoinBase(right, tables)
    if rb.aliases & seen:
        raise SqlUnsupported(
            f"duplicate table alias {sorted(rb.aliases & seen)}")
    seen.update(rb.aliases)
    bases.append(rb)
    steps.append((jt, cond, using))
    return bases, steps


def _split_on_residuals(cond: dict):
    """Partition an ON condition into (AND-of-equalities node,
    residual conjunct list). Returns None when there is no residual
    (the plain equi-join path needs no rewrite)."""
    eqs, resid = [], []

    def walk(c):
        if c.get("class") == "COMPARISON" \
                and c.get("type") == "COMPARE_EQUAL":
            eqs.append(c)
        elif c.get("class") == "CONJUNCTION" \
                and c.get("type") == "CONJUNCTION_AND":
            for ch in c["children"]:
                walk(ch)
        else:
            resid.append(c)

    walk(cond)
    if not resid:
        return None
    if not eqs:
        raise SqlUnsupported(
            "join needs at least one equality in ON (pure-inequality "
            "joins: use ASOF / range joins)")
    eq_cond = eqs[0] if len(eqs) == 1 else \
        {"class": "CONJUNCTION", "type": "CONJUNCTION_AND",
         "children": eqs}
    return eq_cond, resid


def _conj_equalities(cond: dict) -> list:
    """An ON condition as a list of (left_ref, right_ref) equality
    pairs: a single COMPARE_EQUAL or an AND of them."""
    if cond.get("class") == "COMPARISON" \
            and cond.get("type") == "COMPARE_EQUAL":
        return [(cond["left"], cond["right"])]
    if cond.get("class") == "CONJUNCTION" \
            and cond.get("type") == "CONJUNCTION_AND":
        out = []
        for ch in cond["children"]:
            out += _conj_equalities(ch)
        return out
    raise SqlUnsupported(
        "join condition must be an equality or an AND of equalities")


class _JoinSource:
    """N-way equi-join chain, flattened left-deep: the first pair of
    encoded tables goes through copartition_join (hash-bucketed
    exchange, Arrow hash join per bucket) and every further table
    joins the running stream via dataset_join (decode-once broadcast
    for small inner/left sides, the copartitioned exchange
    otherwise). WHERE runs as a 3VL batch filter AFTER all joins —
    exactly SQL's evaluation order, so outer joins keep their
    semantics. ON accepts one equality or an AND of equalities
    (multi-key joins bucket on the first pair); USING(c) lowers to
    the same-name equality with the coalesced output column."""

    def __init__(self, ft: dict, tables: dict, where_node):
        self.where_node = where_node
        self.bases, raw_steps = _flatten_join(ft, tables, set())
        # coalesce_owner: coalesced key column -> set of base indexes
        # that joined on it (the column survives ONCE, owned by the
        # earliest base)
        self.coalesce_owner: dict[str, set] = {}
        # bases on the right of a SEMI/ANTI step contribute no output
        # columns (they only gate left rows)
        self.hidden: set = set()
        # (base_idx, col) whose faithful values are COALESCED AWAY by
        # an outer join (Arrow keeps the PRESERVED side's key values;
        # the null-extended side's key is unrecoverable downstream)
        self.lost: set = set()
        self.steps = []
        extra_resid: list = []
        for i, (jt, cond, using) in enumerate(raw_steps):
            if cond is not None and not using:
                split = _split_on_residuals(cond)
                if split is not None:
                    # INNER joins: non-equality ON conjuncts move to
                    # the post-join 3VL filter (equivalent — inner
                    # joins only shrink). Outer/semi/anti ON residuals
                    # change null-extension/gating semantics: refuse.
                    eq_cond, resid = split
                    if jt != "inner":
                        raise SqlUnsupported(
                            "non-equality ON conditions are supported "
                            "for INNER joins only (move the predicate "
                            "to WHERE, or use ASOF/range joins)")
                    extra_resid.extend(resid)
                    cond = eq_cond
            lkeys, rkeys = self._attribute_keys(cond, using, i, jt)
            self.steps.append((jt, lkeys, rkeys))
            if jt in ("semi", "anti"):
                self.hidden.add(i + 1)
        if extra_resid:
            conj = list(extra_resid)
            if self.where_node is not None:
                conj.append(self.where_node)
            self.where_node = _rebuild_and(conj)

    # --- name attribution -------------------------------------------

    def _acc_base_of(self, col: str, hi: int, qual: str | None):
        """Index of the base in bases[0..hi] providing ``col``."""
        if qual is not None:
            for i, b in enumerate(self.bases[:hi + 1]):
                if qual in b.aliases:
                    if i in self.hidden:
                        raise SqlUnsupported(
                            f"{qual!r} is a SEMI/ANTI side: its "
                            "columns do not survive the join")
                    if col not in b.colset:
                        raise KeyError(f"column {col!r} not in table "
                                       f"{qual!r}")
                    if (i, col) in self.lost:
                        raise SqlUnsupported(
                            f"{qual}.{col} is on the null-extended "
                            "side of an outer join and its key was "
                            "coalesced away — SELECT/rename it in a "
                            "subquery before joining")
                    return i
            raise SqlUnsupported(f"unknown table qualifier {qual!r}")
        all_idxs = [i for i, b in enumerate(self.bases[:hi + 1])
                    if col in b.colset and i not in self.hidden]
        idxs = [i for i in all_idxs if (i, col) not in self.lost]
        if not idxs:
            own = self.coalesce_owner.get(col)
            if all_idxs and own is not None and set(all_idxs) <= own:
                # FULL-outer coalesced key: the single output column
                # is COALESCE(l, r); a bare reference means exactly
                # that (USING semantics)
                return min(all_idxs)
            raise KeyError(f"column {col!r} in no joined table")
        if len(idxs) > 1:
            own = self.coalesce_owner.get(col)
            if own is not None and set(idxs) <= own:
                return min(idxs)
            raise SqlUnsupported(
                f"column {col!r} exists in several joined tables: "
                "qualify it, or rename one side before encoding")
        return idxs[0]

    def _mark_coalesced(self, col: str, li: int, step: int, jt: str):
        """Bookkeeping for a same-name key pair, which Arrow coalesces
        into ONE output column: after an INNER join both sides'
        values are equal (both own the column); after an OUTER join
        only the PRESERVED side's values survive — the other side's
        become unrecoverable (``lost``). Bare references keep
        resolving to the coalesced column (DuckDB's USING
        semantics); qualified references to a lost side refuse."""
        own = self.coalesce_owner.setdefault(col, set())
        ri = step + 1
        if jt in ("inner", "semi", "anti"):
            own.update({li, ri})
        elif jt == "left":
            own.add(li)
            self.lost.add((ri, col))
        elif jt == "right":
            own.add(ri)
            self.lost.add((li, col))
        else:  # full outer: the coalesced column is COALESCE(l, r)
            own.update({li, ri})
            self.lost.add((li, col))
            self.lost.add((ri, col))

    def _attribute_keys(self, cond, using, step: int, jt: str):
        """(lkeys, rkeys) for steps[step]: lkeys live in bases[0..step]
        (the accumulated stream), rkeys in bases[step+1]."""
        rb = self.bases[step + 1]
        lkeys, rkeys = [], []
        if using:
            for u in using:
                col = u if isinstance(u, str) else \
                    (u.get("name") or u.get("column"))
                if col not in rb.colset:
                    raise KeyError(f"USING column {col!r} not in "
                                   f"{rb.alias!r}")
                li = self._acc_base_of(col, step, None)
                lkeys.append(col)
                rkeys.append(col)
                self._mark_coalesced(col, li, step, jt)
            return lkeys, rkeys
        if not cond:
            raise SqlUnsupported("CROSS JOIN / missing ON condition")
        for a, b in _conj_equalities(cond):
            sides = []
            for ref in (a, b):
                if ref.get("class") != "COLUMN_REF":
                    raise SqlUnsupported("join keys must be plain "
                                         "columns")
                names = ref["column_names"]
                col = names[-1]
                qual = names[0] if len(names) > 1 else None
                if qual is not None and qual in rb.aliases:
                    if col not in rb.colset:
                        raise KeyError(f"column {col!r} not in table "
                                       f"{qual!r}")
                    sides.append(("r", col, None))
                elif qual is None and col in rb.colset:
                    # bare name: right side wins only when the
                    # accumulated side does NOT also have it — except
                    # when the accumulated copy is a COALESCED join
                    # key (DuckDB's USING binding: the coalesced
                    # column is the visible one)
                    if any(col in bb.colset
                           for bb in self.bases[:step + 1]):
                        if col not in self.coalesce_owner:
                            raise SqlUnsupported(
                                f"ambiguous join key {col!r}: "
                                "qualify it")
                        li = self._acc_base_of(col, step, None)
                        sides.append(("l", col, li))
                    else:
                        sides.append(("r", col, None))
                else:
                    li = self._acc_base_of(col, step, qual)
                    sides.append(("l", col, li))
            d = {s[0]: s for s in sides}
            if set(d) != {"l", "r"}:
                raise SqlUnsupported("join condition must reference "
                                     "both sides")
            lk, rk = d["l"][1], d["r"][1]
            lkeys.append(lk)
            rkeys.append(rk)
            if lk == rk:
                self._mark_coalesced(lk, d["l"][2], step, jt)
        return lkeys, rkeys

    def _attribute(self, col: str) -> int:
        """Base index providing output column ``col`` (coalesced join
        keys attribute to the earliest participating base)."""
        return self._acc_base_of(col, len(self.bases) - 1, None)

    # --- interface ----------------------------------------------------

    def columns(self) -> list[str]:
        out: list[str] = []
        for i, b in enumerate(self.bases):
            if i in self.hidden:
                continue
            for c in b.cols:
                if c not in out:
                    out.append(c)
        return out

    def describe(self) -> list[str]:
        """Plan lines for explain_sql."""
        def side(b):
            return (f"{b.alias} [in-memory CTE, {b.target.num_rows} "
                    "rows]" if isinstance(b.target, pa.Table)
                    else f"{b.alias} [{b.target}]")

        lines = []
        for i, (jt, lkeys, rkeys) in enumerate(self.steps):
            rb = self.bases[i + 1]
            lhs = side(self.bases[0]) if i == 0 else "<stream>"
            op = "dataset_join (decode-once broadcast when the " \
                 "build side is small, hash-bucketed copartition " \
                 "exchange otherwise)"
            lines.append(f"{op} [{jt}] {lhs} ({','.join(lkeys)}) x "
                         f"{side(rb)} ({','.join(rkeys)})")
        if self.where_node is not None:
            lines.append("  where -> post-join 3VL batch filter "
                         "(SQL evaluation order)")
        return lines

    def stream(self, cols: list[str]):
        from .pipeline.join import dataset_join

        wcols: set = set()
        if self.where_node is not None:
            _expr_columns(self.where_node, wcols)
        request = list(dict.fromkeys(
            list(cols) + sorted(wcols - set(cols))))
        carry: list[list[str]] = [[] for _ in self.bases]
        for c in request:
            bi = self._attribute(c)
            if c not in carry[bi]:
                carry[bi].append(c)
        for i, (jt, lkeys, rkeys) in enumerate(self.steps):
            for lk in lkeys:
                bi = self._acc_base_of(lk, i, None)
                if lk not in carry[bi]:
                    carry[bi].append(lk)

        jt, lkeys, rkeys = self.steps[0]
        b0, b1 = self.bases[0], self.bases[1]
        if isinstance(b0.target, pa.Table):
            lneed = list(dict.fromkeys(lkeys + carry[0]))
            left0 = self._base_stream(b0, lneed)
        else:
            left0 = b0.target  # encoded dir: split straight from its
            # partitions (or broadcast-scan when the right side is
            # small) — dataset_join auto-selects
        ds = dataset_join(left0, b1.target, lkeys, rkeys,
                          carry[0], carry[1], join_type=jt)
        acc_cols = list(dict.fromkeys(carry[0] + carry[1]))
        for i in range(1, len(self.steps)):
            jt, lkeys, rkeys = self.steps[i]
            ds = dataset_join(ds, self.bases[i + 1].target, lkeys,
                              rkeys, acc_cols, carry[i + 1],
                              join_type=jt)
            acc_cols = list(dict.fromkeys(acc_cols + carry[i + 1]))

        wn = self.where_node
        want = list(cols)

        def post(b: pa.Table) -> pa.Table:
            if wn is not None:
                env = {c: b[c] for c in b.column_names}
                m = _eval_expr(wn, env, b.num_rows)
                if isinstance(m, pa.ChunkedArray):
                    m = m.combine_chunks()
                b = b.filter(pc.fill_null(m, False))
            return b.select(want)

        if wn is not None or want != acc_cols:
            ds = ds.map_batches(post, batch_format="pyarrow")
        try:
            # keep the schema alive through all-gated joins (an ANTI
            # join that drops every row yields zero blocks)
            ds = _with_typed_empty(ds, self._typed_empty(want))
        except KeyError:
            pass  # suffix-renamed columns: schema rides the blocks
        return ds

    @staticmethod
    def _base_stream(base: _JoinBase, cols: list[str]):
        import ray.data as rd

        from .pipeline.query import scan

        if isinstance(base.target, pa.Table):
            return rd.from_arrow(base.target.select(cols))
        return scan(base.target, columns=cols)

    def _typed_empty(self, cols: list[str]) -> pa.Table:
        """Zero-row join output typed from the providing bases'
        schema sidecars / in-memory schemas — no execution. Raises
        KeyError for names it cannot attribute (suffix-renamed
        collision columns); callers fall back to the stream schema."""
        out = {}
        for c in cols:
            t = None
            for i, b in enumerate(self.bases):
                if i in self.hidden or c not in b.colset:
                    continue
                t = (b.target.schema.field(c).type
                     if isinstance(b.target, pa.Table)
                     else _sidecar_type(b.target, c))
                break
            if t is None:
                raise KeyError(
                    f"cannot type empty join column {c!r} (no schema "
                    "sidecar on the providing table)")
            out[c] = pa.array([], type=t)
        return pa.table(out)

    def empty(self, cols: list[str]) -> pa.Table:
        try:
            return self._typed_empty(cols)
        except KeyError:
            sch = self.stream(cols).schema()
            if sch is None or not getattr(sch, "names", None):
                raise
            return pa.table({n: pa.array([], type=t)
                             for n, t in zip(sch.names, sch.types)})

    unfiltered_dir = None


def _asof_cond(cond: dict, lb, rb):
    """Split an ASOF ON condition into (lkey, rkey, lon, ron): an
    AND of exactly one equality plus exactly one NON-STRICT backward
    inequality (left.ts >= right.ts, either operand order)."""
    eqs, ineqs = [], []

    def side_of(ref):
        if ref.get("class") != "COLUMN_REF":
            raise SqlUnsupported("ASOF keys must be plain columns")
        names = ref["column_names"]
        col = names[-1]
        qual = names[0] if len(names) > 1 else None
        if qual in lb.aliases or (qual is None and col in lb.colset
                                  and col not in rb.colset):
            return ("l", col)
        if qual in rb.aliases or (qual is None and col in rb.colset
                                  and col not in lb.colset):
            return ("r", col)
        raise SqlUnsupported(
            f"cannot attribute ASOF key {col!r}: qualify it")

    for c in _and_conjuncts(cond):
        if c.get("class") != "COMPARISON":
            raise SqlUnsupported("ASOF ON must be comparisons")
        typ = c.get("type")
        s1, s2 = side_of(c["left"]), side_of(c["right"])
        if {s1[0], s2[0]} != {"l", "r"}:
            raise SqlUnsupported(
                "ASOF ON terms must reference both sides")
        if typ == "COMPARE_EQUAL":
            eqs.append((s1[1], s2[1]) if s1[0] == "l"
                       else (s2[1], s1[1]))
            continue
        strict_map = {"COMPARE_GREATERTHANOREQUALTO": False,
                      "COMPARE_LESSTHANOREQUALTO": False,
                      "COMPARE_GREATERTHAN": True,
                      "COMPARE_LESSTHAN": True}
        if typ not in strict_map:
            raise SqlUnsupported(f"ASOF inequality {typ!r}")
        ge = typ in ("COMPARE_GREATERTHANOREQUALTO",
                     "COMPARE_GREATERTHAN")
        backward = ge if s1[0] == "l" else not ge
        lref, rref = (s1, s2) if s1[0] == "l" else (s2, s1)
        ineqs.append((lref[1], rref[1],
                      "backward" if backward else "forward",
                      strict_map[typ]))
    if len(eqs) != 1 or len(ineqs) != 1:
        raise SqlUnsupported("ASOF ON must be exactly one equality "
                             "AND one inequality")
    return (*eqs[0], *ineqs[0])


class _AsofSource:
    """ASOF JOIN (DuckDB ref_type ASOF): lowers onto
    windows.asof_join — ONE co-partitioned union shuffle plus a
    vectorized segment-reset running-max merge per bucket. All four
    directions compile: backward/forward x strict/non-strict (forward
    negates the order key; strict flips the tie order — see
    windows.asof_join). INNER drops unmatched left rows (matched right
    ts is non-null), LEFT keeps them null-extended. Right columns
    colliding with left names surface with the ``_r`` suffix;
    qualified references resolve through that rename, and a bare
    collided name binds to the LEFT column. The right join key is
    coalesced away (reference the left one)."""

    unfiltered_dir = None

    def __init__(self, ft: dict, tables: dict):
        jt = _JOIN_TYPES.get(ft.get("join_type", "INNER"))
        if jt not in ("inner", "left"):
            raise SqlUnsupported(
                f"ASOF {ft.get('join_type')!r} JOIN (INNER/LEFT only)")
        self.inner = jt == "inner"
        lb, rb = _JoinBase(ft["left"], tables), \
            _JoinBase(ft["right"], tables)
        if lb.aliases & rb.aliases:
            raise SqlUnsupported("duplicate alias in ASOF join")
        cond = ft.get("condition")
        if not cond:
            raise SqlUnsupported("ASOF JOIN needs an ON condition")
        (self.lkey, self.rkey, self.lon, self.ron,
         self.direction, self.strict) = _asof_cond(cond, lb, rb)
        if self.ron == self.rkey:
            raise SqlUnsupported("ASOF ordering column = join key")
        self.lb, self.rb = lb, rb
        # output naming: left columns keep their names; right value
        # columns suffix _r on collision; the right key never surfaces
        self.rmap: dict = {}
        taken = set(lb.cols)
        for c in rb.cols:
            if c == self.rkey:
                continue
            out = c if c not in taken else c + "_r"
            if out in taken - {c} or out in self.rmap.values():
                raise SqlUnsupported(
                    f"ASOF output name collision on {out!r}")
            if out != c:
                taken.add(out)
            self.rmap[c] = out
        self.ron_out = self.rmap[self.ron]
        self.where_node = None  # set by _asof_source post-rewrite

    # --- node rewriting ---------------------------------------------

    def _resolve_qual(self, qual: str, col: str) -> str:
        if qual in self.lb.aliases:
            if col not in self.lb.colset:
                raise KeyError(f"column {col!r} not in table {qual!r}")
            return col
        if qual in self.rb.aliases:
            if col == self.rkey:
                raise SqlUnsupported(
                    f"{qual}.{col} is the ASOF join key, coalesced "
                    "away — reference the left side's key")
            if col not in self.rmap:
                raise KeyError(f"column {col!r} not in table {qual!r}")
            return self.rmap[col]
        raise SqlUnsupported(f"unknown table qualifier {qual!r}")

    def rewrite_node(self, node: dict) -> dict:
        def walk(x):
            if isinstance(x, dict):
                if x.get("class") == "COLUMN_REF":
                    names = x.get("column_names") or []
                    if len(names) > 1:
                        return dict(x, column_names=[
                            self._resolve_qual(names[0], names[-1])])
                    return x
                return {k: walk(v) for k, v in x.items()}
            if isinstance(x, list):
                return [walk(v) for v in x]
            return x

        node2 = dict(node)
        for k in ("select_list", "where_clause", "having", "qualify",
                  "group_expressions", "modifiers"):
            if node.get(k) is not None:
                node2[k] = walk(node[k])
        return node2

    # --- interface ----------------------------------------------------

    def columns(self) -> list[str]:
        return list(self.lb.cols) + [self.rmap[c] for c in self.rb.cols
                                     if c != self.rkey]

    def stream(self, cols: list[str]):
        from .windows import asof_join

        wcols: set = set()
        if self.where_node is not None:
            _expr_columns(self.where_node, wcols)
        request = list(dict.fromkeys(
            list(cols) + sorted(wcols - set(cols))))
        inv = {v: k for k, v in self.rmap.items()}
        lneed, rneed_orig = [], []
        for c in request:
            if c in self.lb.colset:
                lneed.append(c)
            elif c in inv:
                rneed_orig.append(inv[c])
            else:
                raise KeyError(f"column {c!r} in no ASOF side")
        lcols = list(dict.fromkeys(lneed + [self.lkey, self.lon]))
        rvals = list(dict.fromkeys(rneed_orig + [self.ron]))
        lds = _JoinSource._base_stream(self.lb, lcols)
        rds = _JoinSource._base_stream(
            self.rb, list(dict.fromkeys([self.rkey] + rvals)))
        # right side renames to output names up front (and its key to
        # the left key name — the union wants one `by` column)
        ren = {self.rkey: self.lkey,
               **{o: self.rmap[o] for o in rvals}}

        def _ren(b: pa.Table) -> pa.Table:
            return b.rename_columns([ren.get(c, c)
                                     for c in b.column_names])

        rds = rds.map_batches(_ren, batch_format="pyarrow")
        res = asof_join(lds, rds, on=self.lon, by=self.lkey,
                        left_cols=lcols,
                        right_cols=[self.rmap[o] for o in rvals],
                        right_on=self.ron_out,
                        direction=self.direction, strict=self.strict)
        wn, want, inner, ron_out = \
            self.where_node, list(cols), self.inner, self.ron_out

        def post(b: pa.Table) -> pa.Table:
            if inner:  # matched rows carry a non-null right ts
                b = b.filter(pc.is_valid(b[ron_out]))
            if wn is not None:
                env = {c: b[c] for c in b.column_names}
                m = _eval_expr(wn, env, b.num_rows)
                if isinstance(m, pa.ChunkedArray):
                    m = m.combine_chunks()
                b = b.filter(pc.fill_null(m, False))
            return b.select(want)

        return res.map_batches(post, batch_format="pyarrow")

    def empty(self, cols: list[str]) -> pa.Table:
        sch = self.stream(cols).schema()
        return pa.table({n: pa.array([], type=t)
                         for n, t in zip(sch.names, sch.types)})


def _asof_source(ft: dict, tables: dict, node: dict):
    src = _AsofSource(ft, tables)
    node2 = src.rewrite_node(node)
    src.where_node = node2.get("where_clause")
    return src, node2


_DELETE_RE = re.compile(
    r"^\s*DELETE\s+FROM\s+([A-Za-z_]\w*)\s*(WHERE\b.*)?$",
    re.IGNORECASE | re.DOTALL)
_UPDATE_RE = re.compile(
    r"^\s*UPDATE\s+([A-Za-z_]\w*)\s+SET\s(.*)$",
    re.IGNORECASE | re.DOTALL)
_INSERT_RE = re.compile(
    r"^\s*INSERT\s+INTO\s+([A-Za-z_]\w*)\s*"
    r"(?:\(\s*([^)]*?)\s*\))?\s*(VALUES\b.*|SELECT\b.*|FROM\b.*|WITH\b.*)$",
    re.IGNORECASE | re.DOTALL)


def _dml_target(tname: str, tables: dict):
    if tname not in tables:
        raise KeyError(f"table {tname!r} not provided "
                       f"(have: {sorted(tables)})")
    target = tables[tname]
    if not isinstance(target, str):
        raise SqlUnsupported(
            "DML (INSERT/UPDATE/DELETE) target must be an encoded "
            "directory")
    return target


def _dml_where_tree(node: dict, tables: dict, target: str, tname: str):
    where = node.get("where_clause")
    if where is None:
        raise SqlUnsupported(
            "DELETE/UPDATE need a WHERE clause "
            "(refusing an implicit full-table rewrite)")
    tree, residual = _split_where(where, tables,
                                  _dataset_columns(target), tname)
    if residual is not None or tree is None:
        raise SqlUnsupported(
            "DELETE/UPDATE WHERE must compile entirely to the "
            "zone-prunable predicate-tree language (scalar functions "
            "and column-vs-column compares cannot drive a partition "
            "rewrite)")
    return tree


def _run_delete(tname: str, rest: str, tables: dict) -> pa.Table:
    """DELETE FROM t WHERE ...: the WHERE compiles through the same
    SELECT parser (DuckDB's FROM-first syntax makes the rewrite a
    pure prefix swap), then lowers onto compact.delete_rows — zone
    maps prune partitions with provably no match, all-match
    partitions retire outright, partial matches rewrite under
    ``replaces`` lineage. Returns the one-row summary table."""
    node = _parse(f"FROM {tname} SELECT 1 {rest or ''}")
    target = _dml_target(tname, tables)
    tree = _dml_where_tree(node, tables, target, tname)
    from .pipeline.compact import delete_rows

    res = delete_rows(target, tree)
    return pa.table({k: pa.array([v], type=pa.int64())
                     for k, v in res.items()})


def _run_update(tname: str, rest: str, tables: dict) -> pa.Table:
    """UPDATE t SET c = expr[, ...] WHERE ...: rewritten to
    ``FROM t SELECT c = expr, ... WHERE ...`` (each SET item parses
    as a COMPARE_EQUAL node: left = target column, right = the
    assigned expression), then lowers onto compact.update_rows.
    Constant assignments ship as scalars; expression assignments
    compile to vectorized per-partition callables (dry-run on the
    typed empty schema so unsupported expressions fail on the
    driver). Returns the one-row summary table."""
    node = _parse(f"FROM {tname} SELECT {rest}")
    target = _dml_target(tname, tables)
    tree = _dml_where_tree(node, tables, target, tname)
    et = _TableSource(target, None)
    et = et.empty(et.columns())
    assignments: dict = {}
    for it in node["select_list"]:
        if it.get("class") != "COMPARISON" \
                or it.get("type") != "COMPARE_EQUAL" \
                or it["left"].get("class") != "COLUMN_REF":
            raise SqlUnsupported(
                "UPDATE SET items must be column = expression")
        col = _colref(it["left"])
        if col in assignments:
            raise SqlUnsupported(f"column {col!r} SET twice")
        expr = it["right"]
        if expr.get("class") == "CONSTANT":
            assignments[col] = _const_value(expr)
            continue
        _eval_expr(expr, {c: et[c] for c in et.column_names}, 0)

        def fn(table: pa.Table, _e=expr) -> pa.Array:
            env = {c: table[c] for c in table.column_names}
            v = _eval_expr(_e, env, table.num_rows)
            if isinstance(v, pa.Scalar):
                v = pa.array([v.as_py()] * table.num_rows,
                             type=v.type)
            return v.combine_chunks() \
                if isinstance(v, pa.ChunkedArray) else v

        assignments[col] = fn
    from .pipeline.compact import update_rows

    res = update_rows(target, tree, assignments)
    return pa.table({k: pa.array([v], type=pa.int64())
                     for k, v in res.items()})


def _run_insert(tname: str, collist: str | None, body: str,
                tables: dict) -> pa.Table:
    """INSERT INTO t [(cols)] VALUES ... | SELECT ...: an append is a
    new encode GENERATION — the source rows (a driver-side VALUES
    table or a streaming SELECT result) run through the full
    compression pipeline under the dir's recorded partitioning
    layout (_encode_meta.json), never a partition rewrite. Columns
    map positionally onto the column list (or the dir's full recorded
    schema) and cast to the recorded types; omitted columns surface
    as NULL through the schema-evolution read merge. Returns a
    one-row summary (rows_inserted, generation)."""
    import ray.data as rd

    from .pipeline.encode import (cluster_input_cols, clustering_kwargs,
                                  encode_dataset, generation_of_row,
                                  load_manifest, read_encode_meta,
                                  read_schema_sidecar)
    from .zorder import ZORDER_COL

    target = _dml_target(tname, tables)
    meta = read_encode_meta(target)
    sch = read_schema_sidecar(target)
    if meta is None or sch is None:
        raise SqlUnsupported(
            "INSERT needs the dir's _encode_meta.json/_schema.arrows "
            "(re-encode with a current version to record the layout)")
    is_zorder = bool(meta.get("zorder_cols"))
    if collist:
        names = [c.strip().strip('"') for c in collist.split(",")]
        unknown = set(names) - set(sch.names)
        if unknown:
            raise KeyError(f"unknown INSERT column(s) {sorted(unknown)}")
        if is_zorder and ZORDER_COL in names:
            raise SqlUnsupported(
                f"{ZORDER_COL!r} is derived from the dir's persisted "
                f"Z-order plan — omit it from the INSERT column list")
    else:
        # the Morton key re-derives from the persisted plan; the
        # source must not (and need not) supply it
        names = [n for n in sch.names
                 if not (is_zorder and n == ZORDER_COL)]
    required_cols = [meta["key_col"], meta["id_col"]] \
        + [c for c in cluster_input_cols(meta) if c != ZORDER_COL]
    for required in required_cols:
        if required not in names:
            raise SqlUnsupported(
                f"INSERT must supply the dir's partition key, id and "
                f"clustering columns ({required_cols}); missing "
                f"{required!r}")
    res = _execute_node(_parse(
        body if not body.lstrip().upper().startswith("VALUES")
        else f"SELECT * FROM ({body}) __v"), tables)
    if isinstance(res, pa.Table):
        res = rd.from_arrow(res)
    got = res.schema()
    if got is None or len(got.names) != len(names):
        hint = (f" (the {ZORDER_COL!r} column is derived — exclude it "
                f"from the source)" if is_zorder else "")
        raise SqlUnsupported(
            f"INSERT source has {len(got.names) if got else 0} "
            f"columns for {len(names)} target columns{hint}")
    types = {n: sch.field(n).type for n in names}
    src_names = list(got.names)

    def conform(b: pa.Table) -> pa.Table:
        cols = {}
        for sn, tn in zip(src_names, names):
            arr = b[sn]
            if not arr.type.equals(types[tn]):
                arr = pc.cast(arr, types[tn])
            cols[tn] = arr
        return pa.table(cols)

    ds = _with_typed_empty(
        res.map_batches(conform, batch_format="pyarrow"),
        pa.table({tn: pa.array([], types[tn]) for tn in names}))
    from .pipeline.encode import all_generations

    existing = all_generations(target)
    k = 0
    while f"ins{k:04d}" in existing:
        k += 1
    gen = f"ins{k:04d}"
    wc = meta.get("weight_col")
    man = encode_dataset(ds, target, key_col=meta["key_col"],
                         id_col=meta["id_col"],
                         weight_col=wc if wc in names else None,
                         generation=gen, **clustering_kwargs(meta))
    ins = sum(r["rows"] for r in man.to_pylist()
              if generation_of_row(r) == gen)
    return pa.table({"rows_inserted": pa.array([ins], pa.int64()),
                     "generation": pa.array([gen], pa.string())})


_MERGE_RE = re.compile(
    r"^\s*MERGE\s+INTO\s+([A-Za-z_]\w*)\s+USING\s+(.*)$",
    re.IGNORECASE | re.DOTALL)
_MERGE_TAIL_RE = re.compile(
    r"^\s*ON\s+(.+?)\s+WHEN\s+(.+)$", re.IGNORECASE | re.DOTALL)


def _parse_merge_source(rest: str, tables: dict):
    """USING <name> | (SELECT ...) alias — returns
    (src_table: pa.Table, src_alias: str, tail_after_source)."""
    rest = rest.lstrip()
    if rest.startswith("("):
        # paren depth must skip quoted spans (as split_statements does)
        # — a string literal containing ')' inside the subquery would
        # otherwise mis-split the statement
        depth, i, n = 0, 0, len(rest)
        while i < n:
            ch = rest[i]
            if ch in ("'", '"'):
                q = ch
                i += 1
                while i < n:
                    if rest[i] == q:
                        if i + 1 < n and rest[i + 1] == q:
                            i += 2
                            continue
                        break
                    i += 1
                if i >= n:
                    raise SqlUnsupported(
                        "unterminated quote in MERGE USING")
            elif ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        if depth != 0:
            raise SqlUnsupported("unbalanced parens in MERGE USING")
        inner, after = rest[1:i], rest[i + 1:]
        m = re.match(r"^\s*(?:AS\s+)?(?!ON\b)([A-Za-z_]\w*)\s+(.*)$",
                     after, re.IGNORECASE | re.DOTALL)
        if not m:
            raise SqlUnsupported("MERGE USING (subquery) needs an alias")
        alias, tail = m.group(1), m.group(2)
        res = _execute_node(_parse(inner), tables)
        if not isinstance(res, pa.Table):
            from .collect import collect_arrow

            res = collect_arrow(res)
        return res, alias, tail
    m = re.match(r"^([A-Za-z_]\w*)(?:\s+(?:AS\s+)?"
                 r"(?!ON\b)([A-Za-z_]\w*))?\s+(.*)$",
                 rest, re.IGNORECASE | re.DOTALL)
    if not m:
        raise SqlUnsupported("MERGE USING needs a table or (subquery)")
    name, alias, tail = m.group(1), m.group(2) or m.group(1), m.group(3)
    if name not in tables:
        raise KeyError(f"unknown table {name!r} in MERGE USING")
    target = tables[name]
    if isinstance(target, pa.Table):
        return target, alias, tail
    from .collect import collect_arrow
    from .pipeline.query import scan

    return collect_arrow(scan(target)), alias, tail


def _run_merge(tname: str, rest: str, tables: dict) -> pa.Table:
    """MERGE INTO t USING src ON t.k = src.k
    [WHEN MATCHED THEN UPDATE SET c = src.c | constant, ...]
    [WHEN NOT MATCHED THEN INSERT]
    — the upsert core, lowered onto compact.merge_rows (decode-free
    match pruning via an IN predicate over the src keys, partition
    rewrites under lineage, unmatched rows appended as an encode
    generation). The source is driver-resident by contract (an
    updates batch); constant assignments ride as synthetic src
    columns so every SET value ships to the rewrite tasks in the one
    broadcast. Returns a one-row summary."""
    from .pipeline.compact import merge_rows

    target = _dml_target(tname, tables)
    src, alias, tail = _parse_merge_source(rest, tables)
    m = _MERGE_TAIL_RE.match(tail)
    if not m:
        raise SqlUnsupported("MERGE needs ON ... WHEN ...")
    on, clauses = m.group(1), "WHEN " + m.group(2)
    onm = re.match(
        r"^\s*(?:(\w+)\.)?(\w+)\s*=\s*(?:(\w+)\.)?(\w+)\s*$", on)
    if not onm:
        raise SqlUnsupported("MERGE ON must be one equality")
    q1, c1, q2, c2 = onm.groups()
    # resolve which side is the target: explicit qualifiers win; with
    # both sides bare and different column names, src membership
    # disambiguates — and if BOTH bare names exist in src the binding
    # is ambiguous, so refuse rather than guess (a SQL binder would)
    if q1 == tname and q2 in (None, alias):
        tkey, skey = c1, c2
    elif q1 == alias and q2 in (None, tname):
        skey, tkey = c1, c2
    elif q2 == tname and q1 in (None, alias):
        skey, tkey = c1, c2
    elif q2 == alias and q1 in (None, tname):
        tkey, skey = c1, c2
    elif q1 is None and q2 is None:
        if c1 == c2:
            tkey = skey = c1
        else:
            in1, in2 = c1 in src.column_names, c2 in src.column_names
            if in1 == in2:
                raise SqlUnsupported(
                    f"MERGE ON {c1} = {c2} is ambiguous — qualify the "
                    f"sides as {tname}.<col> = {alias}.<col>")
            tkey, skey = (c2, c1) if in1 else (c1, c2)
    else:
        raise SqlUnsupported(
            f"MERGE ON qualifiers must name {tname!r} and {alias!r}")
    if skey not in src.column_names:
        raise KeyError(f"MERGE source has no column {skey!r}")
    if skey != tkey:
        if tkey in src.column_names:
            # renaming skey->tkey would mint a duplicate column and
            # fail later with an opaque pyarrow error — refuse clearly
            raise SqlUnsupported(
                f"MERGE source already has a column {tkey!r}; cannot "
                f"also rename join key {skey!r} to it — drop or alias "
                f"the source's {tkey!r} column in the USING query")
        src = src.rename_columns(
            [tkey if c == skey else c for c in src.column_names])
    upd = re.search(
        r"WHEN\s+MATCHED\s+THEN\s+UPDATE\s+SET\s+(.*?)"
        r"(?:\s+WHEN\s+NOT\s+MATCHED\b.*)?$",
        clauses, re.IGNORECASE | re.DOTALL)
    ins = re.search(r"WHEN\s+NOT\s+MATCHED\s+THEN\s+INSERT\s*$",
                    clauses, re.IGNORECASE)
    if not upd and not ins:
        raise SqlUnsupported(
            "MERGE needs WHEN MATCHED THEN UPDATE SET ... and/or "
            "WHEN NOT MATCHED THEN INSERT")
    set_cols: list[str] = []
    if upd:
        for part in upd.group(1).split(","):
            am = re.match(
                r"^\s*(\w+)\s*=\s*(?:(\w+)\.)?(\w+|'[^']*'|-?\d+(?:\.\d+)?)\s*$",
                part)
            if not am:
                raise SqlUnsupported(
                    f"MERGE SET assignment {part.strip()!r} — use "
                    "col = src.col or col = constant")
            col, qual, val = am.groups()
            if qual is not None or re.match(r"^\w+$", val) and \
                    not re.match(r"^-?\d", val) and val.lower() not in \
                    ("true", "false", "null"):
                if qual not in (None, alias):
                    raise SqlUnsupported(
                        f"MERGE SET value must come from {alias!r}")
                if val not in src.column_names:
                    raise KeyError(f"MERGE source has no column {val!r}")
                if val != col:
                    src = src.append_column(
                        f"__set_{col}", src[val])
                    col_src = f"__set_{col}"
                else:
                    col_src = val
            else:
                vlow = val.lower()
                lit = (None if vlow == "null" else vlow == "true"
                       if vlow in ("true", "false") else
                       val[1:-1] if val.startswith("'") else
                       float(val) if "." in val else int(val))
                src = src.append_column(
                    f"__set_{col}", pa.array([lit] * src.num_rows))
                col_src = f"__set_{col}"
            if col_src != col:
                # merge_rows SETs target col from the SAME-named src
                # column: materialize the value under the target name
                if col in src.column_names:
                    src = src.set_column(
                        src.column_names.index(col), col, src[col_src])
                else:
                    src = src.append_column(col, src[col_src])
                src = src.drop_columns([col_src])
            set_cols.append(col)
    res = merge_rows(target, tkey, src.select(
        [c for c in src.column_names if not c.startswith("__set_")]),
        set_cols, insert_unmatched=bool(ins))
    return pa.table({k: pa.array([v]) for k, v in res.items()})


_CTAS_RE = re.compile(
    r"^\s*CREATE\s+(OR\s+REPLACE\s+)?TABLE\s+([A-Za-z_]\w*)\s*"
    r"(?:PARTITION\s+BY\s*\(\s*([^)]+?)\s*\)\s*)?"
    r"AS\s+(SELECT\b.*|WITH\b.*|FROM\b.*|VALUES\b.*)$",
    re.IGNORECASE | re.DOTALL)
_DROP_RE = re.compile(
    r"^\s*DROP\s+TABLE\s+(?:(IF\s+EXISTS)\s+)?([A-Za-z_]\w*)\s*$",
    re.IGNORECASE)
_VACUUM_RE = re.compile(
    r"^\s*VACUUM\s+([A-Za-z_]\w*)\s*$", re.IGNORECASE)
_DESCRIBE_RE = re.compile(
    r"^\s*(?:DESCRIBE|DESC)\s+([A-Za-z_]\w*)\s*$", re.IGNORECASE)
_SHOW_TABLES_RE = re.compile(
    r"^\s*SHOW\s+TABLES\s*$", re.IGNORECASE)


def _run_describe(tname: str, tables: dict) -> pa.Table:
    """DESCRIBE t: (column_name, column_type, null) from the dir's
    read-time union schema — encoded dirs answer from the manifest
    union + typed-empty probe, memory tables from their own schema."""
    if tname not in tables:
        raise KeyError(f"unknown table {tname!r} "
                       f"(have: {sorted(tables)})")
    target = tables[tname]
    if isinstance(target, pa.Table):
        sch = target.schema
    else:
        from .pipeline.query import _sidecar_empty, scan

        cols = _dataset_columns(target)
        try:
            sch = _sidecar_empty(target, cols).schema
        except (FileNotFoundError, KeyError):
            # pre-sidecar dir (or evolution-added columns the sidecar
            # predates): one cheap schema probe off the stream
            sch = scan(target, columns=cols).schema().base_schema
    return pa.table({
        "column_name": pa.array([f.name for f in sch], pa.string()),
        "column_type": pa.array([str(f.type) for f in sch],
                                pa.string()),
        "null": pa.array(["YES"] * len(sch), pa.string()),
    })


def _run_show_tables(tables: dict) -> pa.Table:
    """SHOW TABLES: the session catalog, with rows/partitions for
    encoded dirs (from the manifest — no data read)."""
    from .pipeline.encode import load_manifest

    names, kinds, rows_c, parts_c = [], [], [], []
    for name in sorted(tables):
        target = tables[name]
        names.append(name)
        if isinstance(target, pa.Table):
            kinds.append("memory")
            rows_c.append(target.num_rows)
            parts_c.append(None)
        else:
            kinds.append("encoded")
            try:
                man = load_manifest(str(target))
                rows_c.append(sum(man["rows"].to_pylist()))
                parts_c.append(man.num_rows)
            except Exception:
                rows_c.append(None)
                parts_c.append(None)
    return pa.table({
        "name": pa.array(names, pa.string()),
        "kind": pa.array(kinds, pa.string()),
        "rows": pa.array(rows_c, pa.int64()),
        "partitions": pa.array(parts_c, pa.int64()),
    })


def _run_vacuum(tname: str, tables: dict) -> pa.Table:
    """VACUUM t: compact undersized partitions (the tails that
    INSERT/MERGE generation appends accumulate) via
    compact.compact — greedy same-source binning under replaces
    lineage, zone maps recomputed from the merged rows. Returns a
    one-row before/after summary."""
    from .pipeline.compact import compact
    from .pipeline.encode import load_manifest, read_encode_meta

    target = _dml_target(tname, tables)
    before = load_manifest(target).num_rows
    meta = read_encode_meta(target)
    man = compact(target,
                  sort_by=(meta or {}).get("id_col", "doc_id"),
                  collapse_generations=True)
    return pa.table({
        "table": pa.array([tname], pa.string()),
        "partitions_before": pa.array([before], pa.int64()),
        "partitions_after": pa.array([man.num_rows], pa.int64())})


def _run_ctas(replace: bool, name: str, partcols: str | None,
              body: str, tables: dict, workspace: str | None) -> pa.Table:
    """CREATE [OR REPLACE] TABLE name [PARTITION BY (key[, id])] AS
    SELECT ...: the result stream re-encodes through the full
    compression pipeline into ``<workspace>/<name>`` and registers in
    ``tables`` (the session catalog — callers keep the dict across
    statements). The streaming result never materializes on the
    driver. PARTITION BY names the encode layout: key column, and
    optionally the in-partition sort (id) column (defaults to the key
    — appends will reuse the recorded layout)."""
    import shutil

    import ray.data as rd

    from .pipeline.encode import encode_dataset

    if workspace is None:
        raise SqlUnsupported(
            "CREATE TABLE needs sql_query(..., workspace=dir) — the "
            "directory new encoded tables are created under")
    if not partcols:
        raise SqlUnsupported(
            "CREATE TABLE needs PARTITION BY (key_col[, id_col]) — "
            "the encode layout is explicit, never guessed")
    cols = [c.strip().strip('"') for c in partcols.split(",")]
    if len(cols) > 2:
        raise SqlUnsupported("PARTITION BY takes (key_col[, id_col])")
    key_col, id_col = cols[0], cols[-1]
    out = os.path.join(workspace, name)
    # crash recovery on entry: a previous run that died between the
    # two swap renames leaves out missing with an .old survivor —
    # restore it; orphaned .building dirs are incomplete by definition
    # and are removed so a failed plain CREATE never blocks retry
    import glob as _glob

    olds = sorted(p for p in _glob.glob(f"{out}.old.*")
                  if os.path.isdir(p))
    if olds and not os.path.isdir(out):
        os.rename(olds.pop(), out)
    for p in olds:
        shutil.rmtree(p, ignore_errors=True)
    for p in _glob.glob(f"{out}.building.*"):
        shutil.rmtree(p, ignore_errors=True)
    replacing = name in tables or os.path.exists(out)
    if replacing and not replace:
        raise ValueError(
            f"table {name!r} already exists (CREATE OR REPLACE "
            "TABLE to overwrite)")
    res = _execute_node(_parse(
        body if not body.lstrip().upper().startswith("VALUES")
        else f"SELECT * FROM ({body}) __v"), tables)
    if isinstance(res, pa.Table):
        res = rd.from_arrow(res)
    # ALWAYS encode into the .building side dir (replace or not): the
    # body may error, or SELECT from the table it replaces — the final
    # rename is the only commit point, so a crashed encode leaves no
    # half-built table dir behind
    build = f"{out}.building.{os.getpid()}"
    if os.path.isdir(build):
        shutil.rmtree(build)
    man = encode_dataset(res, build, key_col=key_col, id_col=id_col,
                         weight_col=None)
    if os.path.isdir(out):
        old = f"{out}.old.{os.getpid()}"
        os.rename(out, old)
        os.rename(build, out)
        shutil.rmtree(old, ignore_errors=True)
    else:
        os.rename(build, out)
    tables[name] = out
    rows = sum(man["rows"].to_pylist()) if man.num_rows else 0
    return pa.table({"table": pa.array([name], pa.string()),
                     "rows": pa.array([rows], pa.int64()),
                     "partitions": pa.array([man.num_rows], pa.int64())})


def _run_drop(if_exists: bool, name: str, tables: dict,
              workspace: str | None) -> pa.Table:
    """DROP TABLE [IF EXISTS] name: unregisters the table and deletes
    its directory — but only a directory under ``workspace`` (a table
    this session created via CTAS). Dirs registered from outside are
    data, not catalog entries: dropping them raises."""
    import shutil

    if name not in tables:
        if if_exists:
            return pa.table({"table": pa.array([name], pa.string()),
                             "dropped": pa.array([False])})
        raise KeyError(f"unknown table {name!r}")
    d = str(tables[name])
    inside = workspace is not None and \
        os.path.realpath(d).startswith(os.path.realpath(workspace) + os.sep)
    if not inside:
        raise SqlUnsupported(
            "DROP TABLE only deletes tables created under this "
            "session's workspace; unregister external dirs by "
            "removing them from the tables dict")
    del tables[name]
    if os.path.isdir(d):
        shutil.rmtree(d)
    return pa.table({"table": pa.array([name], pa.string()),
                     "dropped": pa.array([True])})


def sql_query(sql: str, tables: dict[str, str],
              workspace: str | None = None):
    """Execute ``sql`` against encoded directories: ``tables`` maps
    table names in the query to ``encode_parquet`` output dirs.
    SELECT returns a pyarrow Table (aggregates / ordered results) or
    a ray.data.Dataset (unordered row streams — kept lazy so callers
    can write_parquet without materializing). DELETE / UPDATE
    statements lower onto the engine's zone-pruned partition-rewrite
    machinery, INSERT appends a new encode generation, and
    CREATE TABLE ... PARTITION BY (...) AS SELECT encodes the result
    under ``workspace`` and registers it in ``tables`` (the dict is
    the session catalog). Each DML statement returns a one-row
    summary table."""
    stmt = sql.strip().rstrip(";")
    m = _DELETE_RE.match(stmt)
    if m:
        return _run_delete(m.group(1), m.group(2), tables)
    m = _UPDATE_RE.match(stmt)
    if m:
        return _run_update(m.group(1), m.group(2), tables)
    m = _INSERT_RE.match(stmt)
    if m:
        return _run_insert(m.group(1), m.group(2), m.group(3), tables)
    m = _MERGE_RE.match(stmt)
    if m:
        return _run_merge(m.group(1), m.group(2), tables)
    m = _CTAS_RE.match(stmt)
    if m:
        return _run_ctas(bool(m.group(1)), m.group(2), m.group(3),
                         m.group(4), tables, workspace)
    m = _DROP_RE.match(stmt)
    if m:
        return _run_drop(bool(m.group(1)), m.group(2), tables,
                         workspace)
    m = _VACUUM_RE.match(stmt)
    if m:
        return _run_vacuum(m.group(1), tables)
    m = _DESCRIBE_RE.match(stmt)
    if m:
        return _run_describe(m.group(1), tables)
    if _SHOW_TABLES_RE.match(stmt):
        return _run_show_tables(tables)
    return _execute_node(_parse(stmt), tables)


def _pruning_counts(out_dir: str, tree) -> tuple[int, int]:
    """(surviving, total) partitions for a compiled predicate tree,
    from manifest zone maps + partition Bloom filters — what
    compound_filter will actually schedule tasks for."""
    from .format import read_header
    from .pipeline.query import (_manifest_paths, _normalize_pred,
                                 _zone_pruner)

    rows = _manifest_paths(out_dir)
    if not rows:
        return 0, 0
    header0, _ = read_header(rows[0]["path"])
    excluded = _zone_pruner(header0, _normalize_pred(tree))
    surv = sum(1 for r in rows if not excluded(json.loads(r["col_stats"])))
    return surv, len(rows)


def explain_sql(sql: str, tables: dict[str, str]) -> str:
    """Human-readable compilation plan for ``sql``: which engine
    operator each clause lowers to, the compiled predicate tree, and
    the manifest-level partition pruning it would achieve. Subqueries
    are evaluated (they fold to constants / IN-sets at compile time);
    the main query is NOT executed (CTE bodies ARE — they fold to
    in-memory tables exactly as at run time)."""
    node = _parse(sql)
    lines: list[str] = []
    ctes = (node.get("cte_map") or {}).get("map") or []
    if ctes:
        tables = dict(tables)
        for entry in ctes:
            t = _materialize_result(
                _execute_node(entry["value"]["query"]["node"], tables))
            tables[entry["key"]] = t
            lines.append(f"cte {entry['key']} -> materialized "
                         f"in-memory table ({t.num_rows} rows)")
    ft = node["from_table"]
    has_window0 = any(it["class"] != "STAR" and _contains_window(it)
                      for it in node["select_list"])
    if not has_window0 and not node.get("qualify"):
        scols: list = []
        if ft.get("type") == "BASE_TABLE":
            tgt = tables.get(ft["table_name"])
            if isinstance(tgt, pa.Table):
                scols = list(tgt.column_names)
            elif isinstance(tgt, str):
                scols = _dataset_columns(tgt)
        node, _g_der = _extract_group_exprs(node, scols)
        if _g_der:
            lines.append(f"derive {len(_g_der)} hidden group-key "
                         "column(s) per batch (GROUP BY expressions)")
        node, _expl_derived = _extract_agg_exprs(node)
        if _expl_derived:
            lines.append(f"derive {len(_expl_derived)} hidden "
                         "column(s) per batch (aggregate expression "
                         "arguments / FILTER clauses)")
    select = node["select_list"]
    group_exprs = node.get("group_expressions") or []
    has_window = any(item["class"] != "STAR" and _contains_window(item)
                     for item in select)
    agg_atoms: list[tuple] = []
    if not has_window:
        for item in select:
            if item["class"] != "STAR":
                _collect_aggs(item, agg_atoms)
        if node.get("having"):
            _collect_aggs(node["having"], agg_atoms)
    distinct = _distinct_modifier(node)
    order, limit, offset = _modifiers(node, select)

    if ft.get("type") == "BASE_TABLE":
        tname = ft["table_name"]
        if tname not in tables:
            raise KeyError(f"table {tname!r} not provided")
        out_dir = tables[tname]
        if isinstance(out_dir, pa.Table):
            lines.append(f"scan {tname} [in-memory CTE, "
                         f"{out_dir.num_rows} rows]")
            if node.get("where_clause"):
                lines.append("  where -> vectorized 3VL mask over "
                             "the materialized table")
        else:
            lines.append(f"scan {tname} [{out_dir}]")
            if node.get("where_clause"):
                ocols = _dataset_columns(out_dir)
                tree, residual = _split_where(
                    node["where_clause"], tables, ocols,
                    ft.get("alias") or tname)
                if tree is not None:
                    lines.append(
                        f"  where -> compound_filter tree: {tree!r}")
                    surv, total = _pruning_counts(out_dir, tree)
                    lines.append(
                        "  partitions after zone/Bloom pruning: "
                        f"{surv}/{total}")
                if residual is not None:
                    lines.append("  where residual -> per-batch "
                                 "vectorized 3VL expression mask "
                                 "(post-scan, no pruning)")
    elif ft.get("type") == "JOIN" and ft.get("ref_type") == "ASOF":
        lines.append("asof join -> windows.asof_join: one "
                     "co-partitioned union shuffle + vectorized "
                     "segment-reset running-max merge per bucket"
                     + ("" if ft.get("join_type") == "LEFT"
                        else "; INNER filters matched rows"))
    elif ft.get("type") == "JOIN":
        src = _JoinSource(ft, tables, node.get("where_clause"))
        lines.extend(src.describe())
    else:
        raise SqlUnsupported(f"FROM type {ft.get('type')!r}")

    if has_window or node.get("qualify") is not None:
        lines.append("window functions -> hash-bucketed shuffle on "
                     "PARTITION BY keys + one vectorized segment pass "
                     "per bucket (O(buckets) Python)")
        if node.get("qualify") is not None:
            lines.append("  qualify -> post-window in-bucket filter "
                         "(hidden window columns dropped)")
    elif distinct:
        lines.append("distinct -> per-batch pyarrow distinct, driver "
                     "merge (O(distinct) state)")
    elif group_exprs or agg_atoms:
        keys = [_colref(g) for g in group_exprs
                if g["class"] == "COLUMN_REF"]
        atoms = sorted({a for a in agg_atoms})
        cd = [a for a in atoms if a[0] == "count_distinct"]
        reg = [a for a in atoms if a[0] != "count_distinct"]
        route = "streamed per-batch partial aggregation, driver merge"
        if ft.get("type") == "BASE_TABLE" \
                and isinstance(tables.get(ft["table_name"]), str) \
                and not node.get("where_clause") and len(keys) == 1 \
                and not keys[0].startswith("__g"):
            expand = []
            for fn, col in reg:
                expand += [("sum", col), ("count", col)] \
                    if fn == "avg" else [(fn, col)]
            if _decode_free_eligible(tables[ft["table_name"]], keys[0],
                                     expand) is not None:
                route = ("DECODE-FREE dict_group_aggregate (key codes "
                         "never materialize per row)")
        lines.append(f"group by {keys or '(global)'} -> {route}")
        if cd:
            lines.append(f"  count(distinct {[c for _, c in cd]}) -> "
                         "two-stage distinct (per-batch pairs, driver "
                         "valid-count)")
        if node.get("having"):
            lines.append("having -> driver filter over merged atoms")
    if order:
        how = "distributed per-batch partial top-k, driver merge" \
            if limit is not None and not (group_exprs or agg_atoms
                                          or distinct) \
            else "driver sort of the (small) result"
        lines.append(f"order by {[_expr_name(e) for e, *_ in order]} "
                     f"-> {how}")
    if limit is not None:
        lines.append(f"limit {limit}" + (f" offset {offset}"
                                         if offset else ""))
    return "\n".join(lines)


def _distinct_modifier(node: dict) -> bool:
    for m in node.get("modifiers", []):
        if m["type"] == "DISTINCT_MODIFIER":
            if m.get("distinct_on_targets"):
                raise SqlUnsupported("DISTINCT ON")
            return True
    return False


def _materialize_result(res) -> pa.Table:
    if isinstance(res, pa.Table):
        return res
    from .collect import collect_arrow

    return collect_arrow(res)


def _execute_node(node: dict, tables: dict[str, str]):
    ctes = (node.get("cte_map") or {}).get("map") or []
    if ctes:
        # non-recursive CTEs materialize in order (DuckDB's own
        # default for multiply-referenced CTEs); each becomes an
        # in-memory table visible to later CTEs and the main query.
        # A self-reference raises KeyError (registered only after its
        # body runs), which is also how RECURSIVE surfaces.
        tables = dict(tables)
        for entry in ctes:
            sub = entry["value"]["query"]["node"]
            tables[entry["key"]] = _materialize_result(
                _execute_node(sub, tables))
    if node.get("type") == "SET_OPERATION_NODE":
        return _run_set_operation(node, tables)
    if node.get("sample"):
        raise SqlUnsupported("TABLESAMPLE")
    if any(_has_subquery(it) for it in node["select_list"]):
        outer0 = None
        ft0 = node["from_table"] or {}
        if ft0.get("type") == "BASE_TABLE" \
                and ft0.get("table_name") in tables:
            outer0 = (ft0.get("alias") or ft0["table_name"],
                      _dataset_columns(tables[ft0["table_name"]]))
        node = dict(node)
        node["select_list"] = [
            _fold_any_exists(
                _fold_scalar_subqueries(it, tables, outer0),
                tables, outer0)
            for it in node["select_list"]]
    ft = node["from_table"]
    if ft.get("type") == "BASE_TABLE":
        tname = ft["table_name"]
        if tname not in tables:
            raise KeyError(f"table {tname!r} not provided "
                           f"(have: {sorted(tables)})")
        target = tables[tname]
        if isinstance(target, pa.Table):
            wn = node.get("where_clause")
            if wn is not None and _has_subquery(wn):
                # mem sources evaluate WHERE through _eval_expr,
                # which has no subquery machinery — pre-fold IN-
                # (subquery)/EXISTS into evaluable nodes
                wn = _fold_any_exists(
                    wn, tables,
                    (ft.get("alias") or tname,
                     list(target.column_names)))
            src = _MemSource(target, wn)
        else:
            where_tree = residual = None
            if node.get("where_clause"):
                ocols = _dataset_columns(target)
                where_tree, residual = _split_where(
                    node["where_clause"], tables, ocols,
                    ft.get("alias") or tname)
            src = _TableSource(target, where_tree, residual)
            if residual is not None:
                # dry-run the residual on the typed empty schema so
                # unsupported expressions raise on the driver
                et = src.empty(src.columns())
                _eval_expr(residual,
                           {c: et[c] for c in et.column_names}, 0)
    elif ft.get("type") == "JOIN" and ft.get("ref_type") == "ASOF":
        src, node = _asof_source(ft, tables, node)
    elif ft.get("type") == "JOIN" and ft.get("ref_type") == "CROSS":
        src = _cross_source(ft, tables, node.get("where_clause"))
    elif ft.get("type") == "JOIN":
        src = _JoinSource(ft, tables, node.get("where_clause"))
    elif ft.get("type") == "SUBQUERY":
        # derived table: stays a lazy stream when the inner query
        # does (UNNEST fan-outs, projections); materializes like a
        # CTE only when the inner result is already driver-sized
        src = _stream_derived(ft, tables, node.get("where_clause"))
    elif ft.get("type") == "EXPRESSION_LIST":
        # VALUES (...), (...): constant rows evaluate on the driver
        src = _MemSource(_values_table(ft), node.get("where_clause"))
    elif ft.get("type") == "EMPTY":
        # FROM-less SELECT: one synthetic row, expressions only
        src = _MemSource(pa.table({"__one": pa.array([1])}),
                         node.get("where_clause"))
    else:
        raise SqlUnsupported(f"FROM type {ft.get('type')!r}")

    select = node["select_list"]
    # UNNEST rewrites onto an exploding source wrapper; every later
    # path then sees plain columns
    src, node, select = _rewrite_unnest(src, node, select)
    don = None
    for m in node.get("modifiers", []):
        if m["type"] == "DISTINCT_MODIFIER" \
                and m.get("distinct_on_targets"):
            don = m["distinct_on_targets"]
    if don is not None:
        if node.get("group_expressions") or node.get("having"):
            raise SqlUnsupported("DISTINCT ON with GROUP BY")
        return _run_distinct_on(src, node, select, don)
    if node.get("qualify") is not None \
            or any(item["class"] != "STAR" and _contains_window(item)
                   for item in select):
        if node.get("group_expressions") or node.get("having"):
            return _run_window_over_groups(node, tables)
        return _run_window_query(src, node, select)
    # GROUP BY expressions / aliases / ordinals, then SUM(a*b) /
    # COUNT(CASE ...) / agg FILTER clauses: rewrite onto hidden
    # per-batch derived columns so the partial aggregation (and the
    # distinct/decode-free machinery) sees plain columns
    node, g_derived = _extract_group_exprs(node, src.columns())
    node, agg_derived = _extract_agg_exprs(node)
    select = node["select_list"]
    if g_derived or agg_derived:
        src = _DerivedSource(src, g_derived + agg_derived)
    group_exprs = node.get("group_expressions") or []
    agg_atoms: list[tuple] = []
    for item in select:
        if item["class"] != "STAR":
            _collect_aggs(item, agg_atoms)
    having = node.get("having")
    if having:
        _collect_aggs(having, agg_atoms)
    is_agg = bool(group_exprs) or bool(agg_atoms)
    # aggregates referenced only in ORDER BY (ORDER BY SUM(x) DESC)
    # must still become atoms; on a non-aggregate query they are a
    # binder error, matching SQL
    order_atoms: list[tuple] = []
    for e, *_ in _modifiers(node, select)[0]:
        try:
            _collect_aggs(e, order_atoms)
        except SqlUnsupported:
            pass  # row-path order exprs are validated downstream
    if order_atoms:
        if not is_agg:
            raise SqlUnsupported(
                "aggregate in ORDER BY without GROUP BY")
        agg_atoms += order_atoms

    if _distinct_modifier(node):
        if is_agg:
            raise SqlUnsupported("DISTINCT over aggregate output")
        return _run_distinct_query(src, node, select)
    if not is_agg:
        return _run_row_query(src, node, select)
    return _run_agg_query(src, node, select, group_exprs, agg_atoms,
                          having)


def _with_typed_empty(ds, empty: pa.Table):
    """Union a typed zero-row block onto a lazy Dataset so its schema
    survives even when every upstream block is dropped (Ray skips
    map_batches UDFs on empty input blocks, which orphans the schema
    of an all-filtered stream)."""
    import ray.data as rd

    return ds.union(rd.from_arrow(empty))


def _scan_or_filter(out_dir: str, where_tree, project: list[str]):
    from .pipeline.query import compound_filter, scan

    if where_tree is not None:
        return compound_filter(out_dir, where_tree, project)
    return scan(out_dir, columns=project)


def _dataset_columns(out_dir) -> list[str]:
    """Column names of an encoded dir in first-seen manifest order
    (the union across generations under schema evolution). A
    materialized CTE (pa.Table) answers from its schema."""
    if isinstance(out_dir, pa.Table):
        return list(out_dir.column_names)
    from .pipeline.query import _manifest_paths
    from .format import read_header

    rows = _manifest_paths(out_dir)
    if not rows:
        from .pipeline.encode import read_schema_sidecar

        sch = read_schema_sidecar(out_dir)
        if sch is None:
            raise FileNotFoundError(
                f"no committed partitions under {out_dir}")
        return list(sch.names)
    union: list[str] = []
    for r in rows:
        cs = r.get("col_stats")
        names = list(json.loads(cs).keys()) if cs else None
        if names is None:
            h, _ = read_header(r["path"])
            names = list(h["columns"].keys())
        for c in names:
            if c not in union:
                union.append(c)
    return union


def _synth_colref(name: str) -> dict:
    return {"class": "COLUMN_REF", "type": "COLUMN_REF",
            "column_names": [name]}


def _run_row_query(src, node: dict, select: list):
    star = any(item["class"] == "STAR" for item in select)
    src_cols = src.columns()
    if star:
        if len(select) != 1:
            raise SqlUnsupported("SELECT * mixed with expressions")
        project = list(src_cols)
        names = list(project)
    else:
        project, names = [], []
        for item in select:
            if item["class"] == "COLUMN_REF":
                project.append(_colref(item))
            else:
                need: set = set()
                _expr_columns(item, need)
                unknown = need - set(src_cols)
                if unknown:
                    raise KeyError(
                        f"unknown column(s) {sorted(unknown)} in "
                        "expression")
                project.extend(sorted(need))
            names.append(_expr_name(item))
    order, limit, offset = _modifiers(node, select)

    # ORDER BY an alias of a computed select item resolves to that
    # item's expression (SQL scoping: aliases are visible in ORDER BY)
    if not star:
        alias_map = {n: it for n, it in zip(names, select)}
        order = [(alias_map.get(_colref(e), e)
                  if e.get("class") == "COLUMN_REF"
                  and _colref(e) not in src_cols else e, d, nf)
                 for e, d, nf in order]

    # dedupe projection for the scan, keep select order for output
    scan_cols = list(dict.fromkeys(project))
    need = set(scan_cols)
    for e, *_ in order:
        _expr_columns(e, need)
    unknown = need - set(src_cols)
    if unknown:
        raise KeyError(f"unknown ORDER BY column(s) {sorted(unknown)}")
    scan_all = list(dict.fromkeys(list(scan_cols) + sorted(need - set(scan_cols))))

    # dry-run every computed select item / sort key on the typed empty
    # schema so unsupported expressions refuse on the DRIVER, never
    # from inside a Ray task mid-stream
    computed_items = [it for it in select
                      if not star and it["class"] != "COLUMN_REF"]
    computed_keys = [e for e, *_ in order
                     if e.get("class") != "COLUMN_REF"]
    if computed_items or computed_keys:
        et = src.empty(scan_all)
        env0 = {c: et[c] for c in et.column_names}
        for x in computed_items + computed_keys:
            try:
                _eval_expr(x, env0, 0)
            except SqlUnsupported:
                raise
            except Exception:
                pass  # 0-row kernel quirks: let the real run decide

    ds = src.stream(scan_all)

    computed_order = [e for e, *_ in order
                      if e.get("class") != "COLUMN_REF"]
    if computed_order:
        # evaluate computed sort keys into __ordN columns per batch,
        # then the plain-column paths below apply unchanged
        oexprs = [(f"__ord{i}", e) for i, (e, *_ ) in enumerate(order)]

        def add_keys(b: pa.Table) -> pa.Table:
            env = {c: b[c] for c in b.column_names}
            for nm, e in oexprs:
                arr = _eval_expr(e, env, b.num_rows)
                if isinstance(arr, pa.Scalar):
                    arr = pa.array([arr.as_py()] * b.num_rows,
                                   type=arr.type)
                if isinstance(arr, pa.ChunkedArray):
                    arr = arr.combine_chunks()
                b = b.append_column(nm, arr)
            return b

        ds = ds.map_batches(add_keys, batch_format="pyarrow")
        order = [(_synth_colref(nm), d, nf)
                 for (nm, _), (_, d, nf) in zip(oexprs, order)]
        scan_all = scan_all + [nm for nm, _ in oexprs]

    def finish(table: pa.Table) -> pa.Table:
        if star:
            return table.select(project)
        n = table.num_rows
        env = {c: table[c] for c in table.column_names}
        cols = {}
        for item, name in zip(select, names):
            if item["class"] == "COLUMN_REF":
                cols[name] = table[_colref(item)]
                continue
            arr = _eval_expr(item, env, n)
            if isinstance(arr, pa.Scalar):
                arr = (pa.nulls(n) if pa.types.is_null(arr.type)
                       else pa.array([arr.as_py()] * n, type=arr.type))
            cols[name] = arr
        return pa.table(cols) if cols else table

    if order and limit is not None:
        t = _stream_topk(ds, order, limit, offset, scan_all)
        if t is None:
            t = src.empty([c for c in scan_all
                           if not c.startswith("__ord")])
        return finish(t)
    if order:
        # full ordered result WITHOUT a limit: Ray's distributed
        # range-partitioned sort; stays a lazy Dataset so callers can
        # write_parquet without a driver materialization. Ray's
        # multi-key sort MIS-PARTITIONS null-bearing keys (observed
        # row DUPLICATION on Ray 2.49 when the first of several keys
        # holds nulls), so every key sorts as an (is-null companion,
        # null-filled key) pair: the companion dominates — the fill
        # value never affects order — nulls cannot reach the range
        # partitioner, and SQL's NULLS LAST default (or a requested
        # NULLS FIRST) comes out exactly.
        keys, desc, hidden = [], [], []
        for i, (e, d, nf) in enumerate(order):
            keys += [f"__nn{i}", f"__nk{i}"]
            desc += [bool(nf), d]  # is-null desc == NULLS FIRST
            hidden.append((i, _colref(e)))
        drop = [k for k in keys]

        def _aug_nullsafe(b: pa.Table) -> pa.Table:
            for i, c in hidden:
                arr = b[c]
                if pa.types.is_null(arr.type):
                    isn = pa.array(np.ones(b.num_rows, dtype=np.int8))
                    filled = pa.array(np.zeros(b.num_rows,
                                               dtype=np.int8))
                else:
                    isn = pc.cast(pc.is_null(arr), pa.int8())
                    filled = pc.fill_null(arr, _zero_scalar(arr.type))
                b = b.append_column(f"__nn{i}", isn)
                b = b.append_column(f"__nk{i}", filled)
            return b

        def _strip_nullsafe(b: pa.Table) -> pa.Table:
            return b.drop_columns(drop)

        sorted_ds = ds.map_batches(
            _aug_nullsafe, batch_format="pyarrow").sort(
                key=keys, descending=desc).map_batches(
                    _strip_nullsafe, batch_format="pyarrow")
    def _empty_out() -> pa.Table:
        return finish(src.empty(
            [c for c in scan_all if not c.startswith("__ord")]))

    if order:
        if star and scan_all == project:
            return sorted_ds
        return _with_typed_empty(
            sorted_ds.map_batches(finish, batch_format="pyarrow"),
            _empty_out())
    if limit is not None:
        from .collect import collect_arrow

        t = collect_arrow(ds.limit(limit + offset))
        if t.num_columns == 0:  # schema lost through empty blocks
            t = src.empty(scan_all)
        return finish(t.slice(offset, limit))
    if star and scan_all == project:
        return ds  # lazy stream
    if not star and names == project and scan_all == project \
            and all(it["class"] == "COLUMN_REF" for it in select):
        return ds  # pure projection, stays a lazy stream
    # projection with row-wise computed expressions: evaluate per
    # batch — the result stays a lazy stream, never driver-resident
    return _with_typed_empty(
        ds.map_batches(finish, batch_format="pyarrow"), _empty_out())


_WINDOW_TYPES = {"WINDOW_ROW_NUMBER", "WINDOW_RANK", "WINDOW_RANK_DENSE",
                 "WINDOW_LAG", "WINDOW_LEAD", "WINDOW_AGGREGATE",
                 "WINDOW_FIRST_VALUE", "WINDOW_LAST_VALUE",
                 "WINDOW_NTH_VALUE", "WINDOW_NTILE",
                 "WINDOW_PERCENT_RANK", "WINDOW_CUME_DIST"}

# window types whose frame clause changes the result (value windows
# honor ROWS frames exactly like running aggregates do)
_FRAMED_WINDOWS = {"WINDOW_AGGREGATE", "WINDOW_FIRST_VALUE",
                   "WINDOW_LAST_VALUE", "WINDOW_NTH_VALUE"}


def _extract_qualify_windows(q, counter: list | None = None):
    """Transformed copy of an expression with each inline WINDOW node
    replaced by a hidden-column ref (``__q0``, ``__q1``, ...);
    returns (expr, [(hidden_name, window_node, None), ...]). The
    hidden columns compute alongside the select-list windows in the
    same segment pass; QUALIFY filters per bucket and expression
    items evaluate per bucket, then the hidden columns drop.
    ``counter`` (a shared one-element list) keeps hidden names unique
    across several extractions in one query."""
    wins: list[tuple] = []
    if counter is None:
        counter = [0]

    def walk(n):
        if isinstance(n, dict):
            if n.get("class") == "WINDOW":
                nm = f"__q{counter[0]}"
                counter[0] += 1
                wins.append((nm, n, None))
                return {"class": "COLUMN_REF", "type": "COLUMN_REF",
                        "alias": "", "column_names": [nm]}
            return {k: walk(v) for k, v in n.items()}
        if isinstance(n, list):
            return [walk(v) for v in n]
        return n

    return walk(q), wins


def _frame_of(w: dict):
    """Normalize a WINDOW_AGGREGATE frame: ``("range",)`` for SQL's
    default (RANGE UNBOUNDED PRECEDING .. CURRENT ROW, peer-shared
    frame end) or ``("rows", preceding|None, following)`` for ROWS
    frames with constant bounds."""
    s, e = w.get("start"), w.get("end")
    if s == "UNBOUNDED_PRECEDING" and e == "CURRENT_ROW_RANGE":
        return ("range",)
    # VALUE-range frames (RANGE BETWEEN <const> PRECEDING/FOLLOWING):
    # frame = rows whose order-key VALUE lies in [key-p, key+f]
    if e in ("CURRENT_ROW_RANGE", "EXPR_FOLLOWING_RANGE") \
            or s in ("EXPR_PRECEDING_RANGE", "CURRENT_ROW_RANGE"):
        if e == "CURRENT_ROW_RANGE":
            vf = 0
        elif e == "EXPR_FOLLOWING_RANGE":
            vf = int(_const_value(w["end_expr"]))
        else:
            raise SqlUnsupported(f"window frame end {e!r}")
        if s == "EXPR_PRECEDING_RANGE":
            vp = int(_const_value(w["start_expr"]))
        elif s == "CURRENT_ROW_RANGE":
            vp = 0
        elif s == "UNBOUNDED_PRECEDING":
            vp = None
        else:
            raise SqlUnsupported(f"window frame start {s!r}")
        return ("vrange", vp, vf)
    if e == "CURRENT_ROW_ROWS":
        f = 0
    elif e == "EXPR_FOLLOWING_ROWS":
        f = int(_const_value(w["end_expr"]))
    else:
        raise SqlUnsupported(f"window frame end {e!r}")
    if s == "UNBOUNDED_PRECEDING":
        p = None
    elif s == "EXPR_PRECEDING_ROWS":
        p = int(_const_value(w["start_expr"]))
    else:
        raise SqlUnsupported(f"window frame start {s!r}")
    return ("rows", p, f)


def _contains_window(x) -> bool:
    if isinstance(x, dict):
        if x.get("class") == "WINDOW":
            return True
        return any(_contains_window(v) for v in x.values())
    if isinstance(x, list):
        return any(_contains_window(v) for v in x)
    return False


def _window_item(item: dict):
    """(window_node, cast_type|None) if this select item is a window
    expression (optionally CAST-wrapped), else None."""
    if item.get("class") == "WINDOW":
        return item, None
    if item.get("class") == "CAST" \
            and item["child"].get("class") == "WINDOW":
        return item["child"], item["cast_type"]["id"]
    return None


def _run_window_query(src, node: dict, select: list):
    """Window functions over the filtered stream: ROW_NUMBER / RANK /
    DENSE_RANK / LAG / LEAD / running SUM-COUNT-AVG, all sharing one
    OVER (PARTITION BY ... ORDER BY ...) spec. Scale shape =
    windows.ranked_gaps: one hash shuffle into ~2x-CPU coarse buckets
    co-locates each partition key's rows; inside a bucket ONE arrow
    sort + numpy segment arithmetic computes every window column at
    once — Python cost is O(buckets), not O(keys). Running aggregates
    follow SQL's default frame (RANGE UNBOUNDED PRECEDING .. CURRENT
    ROW): peers by the order key share the frame-end value."""
    import numpy as np

    wins: list[tuple] = []          # (out_name, wnode, cast)
    _qcounter = [0]                 # hidden-window name allocator
    passthru: list[str] = []        # plain projected columns
    names: list[str] = []
    sel_map: list[tuple] = []       # (out_name, source_col) per item
    for item in select:
        if item["class"] == "STAR":
            raise SqlUnsupported("SELECT * with window functions")
        w = _window_item(item)
        if w is not None:
            wnode, cast = w
            names.append(_expr_name(item))
            wins.append((names[-1], wnode, cast))
            sel_map.append((names[-1], names[-1]))
        elif item["class"] == "COLUMN_REF":
            passthru.append(_colref(item))
            names.append(_expr_name(item))
            sel_map.append((names[-1], _colref(item)))
        else:
            # general expression over stream columns and/or EMBEDDED
            # window expressions (ROUND(SUM(x) OVER ...), CASE, ...):
            # inline windows compute as hidden columns, the expression
            # evaluates per bucket after them
            expr2, ewins = _extract_qualify_windows(item, _qcounter)
            wins.extend(ewins)
            hidden = {nm for nm, _, _ in ewins}
            ecols: set = set()
            _expr_columns(expr2, ecols)
            passthru.extend(c for c in sorted(ecols)
                            if c not in passthru and c not in hidden)
            names.append(_expr_name(item))
            sel_map.append((names[-1], ("expr", expr2)))

    qualify = node.get("qualify")
    qexpr, qnames, qplain = None, [], []
    if qualify is not None:
        qexpr, qwins = _extract_qualify_windows(qualify, _qcounter)
        wins = wins + qwins
        qnames = [nm for nm, _, _ in qwins]
        qcols: set = set()
        _expr_columns(qexpr, qcols)
        out_name_set = {nm for nm, _ in sel_map}
        qplain = sorted(c for c in qcols
                        if c not in out_name_set and c not in qnames)

    spec = None
    for _, wnode, _ in wins:
        if wnode["type"] not in _WINDOW_TYPES:
            raise SqlUnsupported(f"window {wnode['type']!r}")
        if wnode.get("filter_expr") or wnode.get("ignore_nulls"):
            raise SqlUnsupported("window FILTER / IGNORE NULLS")
        if wnode["type"] in _FRAMED_WINDOWS:
            fr = _frame_of(wnode)  # raises on unsupported frames
            if fr[0] == "vrange" \
                    and wnode["type"] != "WINDOW_AGGREGATE":
                raise SqlUnsupported(
                    "RANGE value frames support only "
                    "sum/count/avg/min/max")
        if wnode["type"] == "WINDOW_AGGREGATE":
            if wnode["function_name"] not in ("sum", "count", "avg",
                                              "min", "max"):
                raise SqlUnsupported(
                    f"running {wnode['function_name']!r} "
                    "(sum/count/avg/min/max compile)")
        pk = tuple(_colref(p) for p in wnode.get("partitions", []))
        if any(p["class"] != "COLUMN_REF"
               for p in wnode.get("partitions", [])):
            raise SqlUnsupported("PARTITION BY must use plain columns")
        ob = tuple((_colref(o["expression"]),
                    o["type"] == "DESCENDING")
                   for o in (wnode.get("orders") or []))
        if any(o["expression"]["class"] != "COLUMN_REF"
               for o in (wnode.get("orders") or [])):
            raise SqlUnsupported("window ORDER BY must use plain columns")
        if spec is None:
            spec = (pk, ob)
        elif spec != (pk, ob):
            raise SqlUnsupported(
                "all window functions must share one OVER spec")
    if spec is None:
        raise SqlUnsupported(
            "QUALIFY without a window function — use WHERE")
    pkeys, orders = spec
    inject_onepart = False
    if not orders:
        # PARTITION-ONLY aggregates (SUM(x) OVER (PARTITION BY k)):
        # synthesize ORDER BY the first partition key — every row in
        # the partition is then an order-key PEER, and the default
        # RANGE frame's peer-shared end makes each running aggregate
        # equal the FULL-partition aggregate, which is exactly SQL's
        # whole-partition-frame semantics for an ORDER-BY-less OVER.
        # Rank/offset functions stay refused (their result would be
        # nondeterministic without an order).
        deterministic = all(w["type"] == "WINDOW_AGGREGATE"
                            and _frame_of(w) == ("range",)
                            for _, w, _ in wins)
        if pkeys and deterministic:
            orders = ((pkeys[0], False),)
        elif deterministic:
            # OVER (): ONE global partition — inject a hidden constant
            # column downstream and order by it (all rows peers, so
            # the peer-shared RANGE frame is the whole table)
            inject_onepart = True
            orders = (("__w1", False),)
        else:
            raise SqlUnsupported(
                "window functions need ORDER BY in OVER (only "
                "partition-only sum/count/avg/min/max aggregates with "
                "the default frame may omit it)")

    need = list(dict.fromkeys(
        c for c in
        passthru + list(pkeys) + [c for c, _ in orders]
        + [_colref(w["children"][0]) for _, w, _ in wins
           if w.get("children")
           and w["children"][0]["class"] == "COLUMN_REF"] + qplain
        if c != "__w1"))
    ds = src.stream(need)
    if inject_onepart:
        def _addone(b: pa.Table) -> pa.Table:
            return b.append_column(
                "__w1", pa.array(np.zeros(b.num_rows, dtype=np.int64)))

        ds = ds.map_batches(_addone, batch_format="pyarrow")

    from .hashing import hash_column

    import ray

    avail = int(ray.cluster_resources().get("CPU", 8)) \
        if ray.is_initialized() else 8
    n_buckets = max(8, 2 * avail)
    pk_list = list(pkeys)

    def _bk(col) -> "np.ndarray":
        # null-safe: NULL keys form their own partition group, so any
        # fixed bucket co-locates them (wpass re-groups by value)
        arr = col.combine_chunks() \
            if isinstance(col, pa.ChunkedArray) else col
        if arr.null_count:
            valid = pc.is_valid(arr).to_numpy(zero_copy_only=False)
            out = np.zeros(len(arr), dtype=np.int64)
            if valid.any():
                out[valid] = (hash_column(arr.drop_null())
                              % np.uint64(n_buckets)).astype(np.int64)
            return out
        return (hash_column(arr) % np.uint64(n_buckets)).astype(np.int64)

    def assign(batch: pa.Table) -> pa.Table:
        if pk_list:
            b = _bk(batch[pk_list[0]])
            for k in pk_list[1:]:
                b = (b * 31 + _bk(batch[k])) % n_buckets
        else:
            b = np.zeros(batch.num_rows, dtype=np.int64)
        return batch.append_column("_wb", pa.array(b))

    out_names = list(names)

    def _win_arg(w) -> str | None:
        ch = w.get("children") or []
        if ch and ch[0]["class"] == "COLUMN_REF":
            return _colref(ch[0])
        return None

    def _win_off(w) -> int:
        # LAG/LEAD offset; NTILE bucket count (children[0]);
        # NTH_VALUE position (children[1])
        if w["type"] == "WINDOW_NTILE":
            return int(_const_value(w["children"][0]))
        if w["type"] == "WINDOW_NTH_VALUE":
            return int(_const_value(w["children"][1]))
        return int(_const_value(w["offset_expr"])) \
            if w.get("offset_expr") else 1

    win_specs = [(nm, w["type"], w["function_name"],
                  _win_arg(w), _win_off(w),
                  _const_value(w["default_expr"])
                  if w.get("default_expr") else None,
                  cast,
                  _frame_of(w) if w["type"] in _FRAMED_WINDOWS
                  else None)
                 for nm, w, cast in wins]

    def wpass(t: pa.Table) -> pa.Table:
        t = t.drop_columns(["_wb"]) if "_wb" in t.column_names else t
        if t.num_rows == 0:
            return pa.table({})
        sort_keys = [(k, "ascending") for k in pk_list] + \
            [(c, "descending" if d else "ascending") for c, d in orders]
        t = t.take(pc.sort_indices(t, sort_keys=sort_keys,
                                   null_placement="at_end"))
        n = t.num_rows

        def col_np(c):
            a = t[c].combine_chunks()
            if pa.types.is_timestamp(a.type) or \
                    pa.types.is_duration(a.type):
                a = a.cast(pa.int64())
            return a

        def change_mask(cols):
            m = np.zeros(n, dtype=bool)
            m[0] = True
            for c in cols:
                a = col_np(c)
                neq = pc.fill_null(
                    pc.not_equal(a.slice(1), a.slice(0, n - 1)), False) \
                    .to_numpy(zero_copy_only=False)
                # null vs null: not_equal -> null -> False (same peer);
                # null vs value -> null too, so compare validity shifts
                va = pc.is_valid(a).to_numpy(zero_copy_only=False)
                m[1:] |= neq | (va[1:] != va[:-1])
            return m

        new_part = change_mask(pk_list) if pk_list \
            else np.r_[True, np.zeros(n - 1, dtype=bool)]
        new_peer = new_part | change_mask([c for c, _ in orders])
        starts = np.flatnonzero(new_part)
        lens = np.diff(np.concatenate([starts, [n]]))
        part_start = np.repeat(starts, lens)
        part_len = np.repeat(lens, lens)
        part_end_all = part_start + part_len - 1
        peer_starts = np.flatnonzero(new_peer)
        peer_lens = np.diff(np.concatenate([peer_starts, [n]]))
        peer_start = np.repeat(peer_starts, peer_lens)
        peer_end = np.repeat(peer_starts + peer_lens - 1, peer_lens)
        idx = np.arange(n, dtype=np.int64)

        vr_cache: dict = {}

        def vr_bounds(p, f):
            """Index bounds of the VALUE-range frame [key-p, key+f]
            per row: partitions' keys shift into disjoint numeric
            ranges (margin > p+f) so ONE global searchsorted answers
            every row without crossing a partition edge."""
            ck = (p, f)
            if ck in vr_cache:
                return vr_cache[ck]
            if len(orders) != 1 or orders[0][1]:
                raise SqlUnsupported(
                    "RANGE value frame needs exactly one ASCENDING "
                    "ORDER BY column")
            a = t[orders[0][0]].combine_chunks()
            if a.null_count:
                raise SqlUnsupported(
                    "RANGE value frame over a null-bearing order key")
            if pa.types.is_timestamp(a.type) or pa.types.is_date(a.type):
                a = a.cast(pa.int64())
            k = a.to_numpy(zero_copy_only=False)
            if k.dtype.kind not in "iuf":
                raise SqlUnsupported(
                    "RANGE value frame needs a numeric/timestamp "
                    "order key")
            seg_id = np.cumsum(new_part) - 1
            kmin = k.min()
            pad = (0 if p is None else p) + f + 1
            if k.dtype.kind in "iu":
                k64 = k.astype(np.int64)
                m_step = int(k64.max() - int(kmin)) + int(pad)
                if int(seg_id[-1]) and m_step > (2 ** 62) // int(
                        seg_id[-1] + 1):
                    raise SqlUnsupported(
                        "RANGE frame: order-key span too large to "
                        "shift-partition")
                shifted = (k64 - np.int64(kmin)) \
                    + seg_id * np.int64(m_step)
                qlo = shifted - np.int64(0 if p is None else p)
                qhi = shifted + np.int64(f)
            else:
                m_step = float(k.max() - kmin) + float(pad)
                shifted = (k - kmin) + seg_id.astype(np.float64) * m_step
                qlo = shifted - float(0 if p is None else p)
                qhi = shifted + float(f)
            lo = part_start if p is None \
                else np.searchsorted(shifted, qlo, side="left")
            hi = np.searchsorted(shifted, qhi, side="right") - 1
            vr_cache[ck] = (lo, hi)
            return lo, hi

        cols = {c: t[c] for c in t.column_names}
        for nm, wtype, fn, arg, off, dflt, cast, frame in win_specs:
            if wtype == "WINDOW_ROW_NUMBER":
                out = pa.array(idx - part_start + 1)
            elif wtype == "WINDOW_RANK":
                out = pa.array(peer_start - part_start + 1)
            elif wtype == "WINDOW_RANK_DENSE":
                c = np.cumsum(new_peer)
                out = pa.array(c - np.repeat(c[starts], lens) + 1)
            elif wtype in ("WINDOW_LAG", "WINDOW_LEAD"):
                a = t[arg].combine_chunks()
                # negative offsets flip direction (SQL: LAG(x,-1) ==
                # LEAD(x,1)); guard BOTH partition edges so a negative
                # offset never reads across a boundary
                src_idx = idx - off if wtype == "WINDOW_LAG" \
                    else idx + off
                part_end = np.repeat(starts + lens - 1, lens)
                valid = (src_idx >= part_start) & (src_idx <= part_end)
                gathered = a.take(pa.array(np.clip(src_idx, 0, n - 1)))
                fill = pa.scalar(dflt, type=a.type) if dflt is not None \
                    else pa.scalar(None, type=a.type)
                out = pc.if_else(pa.array(valid), gathered, fill)
            elif wtype in ("WINDOW_FIRST_VALUE", "WINDOW_LAST_VALUE",
                           "WINDOW_NTH_VALUE"):
                # frame-start / frame-end / nth-from-start gathers.
                # Default frame (RANGE UNBOUNDED .. CURRENT ROW):
                # start = partition start, end = last PEER row (SQL's
                # last_value surprise). ROWS frames with constant
                # bounds clamp at partition edges.
                a = t[arg].combine_chunks()
                if frame == ("range",):
                    lo, hi = part_start, peer_end
                else:
                    p_, f_ = frame[1], frame[2]
                    lo = part_start if p_ is None \
                        else np.maximum(idx - p_, part_start)
                    hi = np.minimum(idx + f_, part_end_all)
                if wtype == "WINDOW_FIRST_VALUE":
                    src_idx, ok = lo, hi >= lo
                elif wtype == "WINDOW_LAST_VALUE":
                    src_idx, ok = hi, hi >= lo
                else:  # NTH_VALUE(x, k): k-th row of the frame
                    if off < 1:
                        raise SqlUnsupported("nth_value position < 1")
                    src_idx = lo + (off - 1)
                    ok = src_idx <= hi
                gathered = a.take(pa.array(np.clip(src_idx, 0, n - 1)))
                out = pc.if_else(pa.array(ok), gathered,
                                 pa.scalar(None, type=a.type))
            elif wtype == "WINDOW_NTILE":
                # SQL NTILE: first (plen % k) tiles get ceil(plen/k)
                # rows, the rest floor(plen/k)
                k = off
                if k < 1:
                    raise SqlUnsupported("ntile bucket count < 1")
                r = idx - part_start
                q, rem = part_len // k, part_len % k
                thresh = rem * (q + 1)
                big = r < thresh
                tile = np.where(
                    big, r // np.maximum(q + 1, 1) + 1,
                    rem + (r - thresh) // np.maximum(q, 1) + 1)
                out = pa.array(tile.astype(np.int64))
            elif wtype == "WINDOW_PERCENT_RANK":
                rank0 = (peer_start - part_start).astype(np.float64)
                denom = np.maximum(part_len - 1, 1).astype(np.float64)
                out = pa.array(np.where(part_len > 1, rank0 / denom,
                                        0.0))
            elif wtype == "WINDOW_CUME_DIST":
                out = pa.array((peer_end - part_start + 1)
                               / part_len.astype(np.float64))
            elif fn in ("min", "max"):
                # segmented running min/max: sentinel-masked values
                # through pandas' cython groupby cummin/cummax (no
                # NaN semantics involved), exact for int64
                import pandas as pd

                a0 = t[arg].combine_chunks()
                if pa.types.is_string(a0.type) \
                        or pa.types.is_large_string(a0.type):
                    raise SqlUnsupported(
                        f"running {fn} over strings")
                a = col_np(arg)
                valid = pc.is_valid(a).to_numpy(zero_copy_only=False)
                isint = pa.types.is_integer(a.type)
                if isint:
                    v = pc.fill_null(a, 0).to_numpy(
                        zero_copy_only=False).astype(np.int64)
                    sent = np.iinfo(np.int64).min if fn == "max" \
                        else np.iinfo(np.int64).max
                else:
                    v = np.where(valid, pc.fill_null(a, 0).cast(
                        pa.float64()).to_numpy(zero_copy_only=False),
                        0.0)
                    sent = -np.inf if fn == "max" else np.inf
                vm = np.where(valid, v, sent)
                seg_id = np.cumsum(new_part) - 1
                if frame is not None and frame[0] == "vrange":
                    lo, hi = vr_bounds(frame[1], frame[2])
                    r = _rmq_minmax(vm, lo, hi, fn == "max")
                    cv0 = np.concatenate(
                        ([0], np.cumsum(valid.astype(np.int64))))
                    runc = cv0[hi + 1] - cv0[lo]
                elif frame[0] == "rows" and frame[1] is not None:
                    # bounded ROWS frame: each partition's values sit
                    # in an expanded array with p sentinels before and
                    # f after, so one vectorized sliding-window
                    # min/max never reads across a partition edge
                    p_, f_ = frame[1], frame[2]
                    if p_ + f_ > 65536:
                        raise SqlUnsupported(
                            f"ROWS frame width {p_ + f_ + 1} "
                            "(cap 65537)")
                    from numpy.lib.stride_tricks import \
                        sliding_window_view
                    e_idx = idx + p_ * (seg_id + 1) + f_ * seg_id
                    total = int(n + (seg_id[-1] + 1) * (p_ + f_))
                    exp = np.full(total, sent, dtype=vm.dtype)
                    exp[e_idx] = vm
                    sw = sliding_window_view(exp, p_ + f_ + 1)
                    r = (sw.max(axis=1) if fn == "max"
                         else sw.min(axis=1))[e_idx - p_]
                    part_end = np.repeat(starts + lens - 1, lens)
                    hi = np.minimum(idx + f_, part_end)
                    lo = np.maximum(idx - p_, part_start)
                    cv0 = np.concatenate(
                        ([0], np.cumsum(valid.astype(np.int64))))
                    runc = cv0[hi + 1] - cv0[lo]
                else:
                    g = pd.Series(vm).groupby(seg_id)
                    r = (g.cummax() if fn == "max" else g.cummin()) \
                        .to_numpy()
                    cv = np.cumsum(valid.astype(np.int64))
                    runc = cv - np.repeat(
                        cv[starts] - valid[starts].astype(np.int64),
                        lens)
                    if frame == ("range",):
                        # peers share the frame-end value
                        r = r[peer_end]
                        runc = runc[peer_end]
                    elif frame[2] > 0:
                        # ROWS ... n FOLLOWING: cummax/cummin at
                        # frame end
                        part_end = np.repeat(starts + lens - 1, lens)
                        hi = np.minimum(idx + frame[2], part_end)
                        r = r[hi]
                        runc = runc[hi]
                out = pa.array(r.astype(np.int64) if isint else r)
                out = pc.if_else(pa.array(runc > 0), out,
                                 pa.scalar(None, out.type))
                if out.type != a0.type:
                    out = pc.cast(out, a0.type)
            else:  # WINDOW_AGGREGATE: running sum / count / avg
                if fn == "count" and arg is None:
                    vals = np.ones(n, dtype=np.int64)
                    valid = np.ones(n, dtype=bool)
                elif fn == "count":
                    # COUNT(col) needs validity only (col may be any
                    # type, including string)
                    valid = pc.is_valid(t[arg].combine_chunks()) \
                        .to_numpy(zero_copy_only=False)
                    vals = valid.astype(np.int64)
                else:
                    a = col_np(arg)
                    valid = pc.is_valid(a).to_numpy(zero_copy_only=False)
                    vals = a.cast(pa.float64()).to_numpy(
                        zero_copy_only=False) \
                        if pa.types.is_floating(a.type) \
                        else pc.fill_null(a, 0).to_numpy(
                            zero_copy_only=False).astype(np.int64)
                    vals = np.where(valid, vals, 0)
                isfloat = vals.dtype.kind == "f"
                if frame[0] == "vrange":
                    # VALUE-range frame: [key-p, key+f] index bounds
                    # from the shifted searchsorted (see vr_bounds);
                    # exact prefix diffs for ints, float64 prefix
                    # diffs for floats (summation-order ULPs absorbed
                    # by the caller's rounding, as with any RANGE
                    # engine difference)
                    lo, hi = vr_bounds(frame[1], frame[2])
                    cv0 = np.concatenate(
                        ([0], np.cumsum(valid.astype(np.int64))))
                    runc = cv0[hi + 1] - cv0[lo]
                    cs0 = np.concatenate(
                        ([vals.dtype.type(0)], np.cumsum(vals)))
                    run = cs0[hi + 1] - cs0[lo]
                elif frame[0] == "rows" and not (frame[1] is None
                                                 and frame[2] == 0):
                    # constant-bound ROWS frame, clamped at partition
                    # edges: exact prefix-sum differences for ints;
                    # floats re-add the window left-to-right (shifted
                    # adds) so the summation order matches a
                    # sequential evaluation instead of accumulating
                    # prefix-difference error; an unbounded start with
                    # FOLLOWING takes the sequential cumsum at the
                    # frame end
                    p, f = frame[1], frame[2]
                    part_end = np.repeat(starts + lens - 1, lens)
                    hi = np.minimum(idx + f, part_end)
                    lo = part_start if p is None \
                        else np.maximum(idx - p, part_start)
                    cv0 = np.concatenate(
                        ([0], np.cumsum(valid.astype(np.int64))))
                    runc = cv0[hi + 1] - cv0[lo]
                    if isfloat and p is not None:
                        run = np.zeros(n, dtype=np.float64)
                        for d in range(-p, f + 1):
                            srci = np.clip(idx + d, 0, n - 1)
                            ok = (idx + d >= lo) & (idx + d <= hi)
                            run = run + np.where(ok, vals[srci], 0.0)
                    elif isfloat:
                        import pandas as pd

                        seg_id = np.cumsum(new_part) - 1
                        seqc = pd.Series(vals).groupby(seg_id) \
                            .cumsum().to_numpy()
                        run = seqc[hi]
                    else:
                        cs0 = np.concatenate(([vals.dtype.type(0)],
                                              np.cumsum(vals)))
                        run = cs0[hi + 1] - cs0[lo]
                else:
                    # unbounded-start frames: per-partition SEQUENTIAL
                    # accumulation (pandas' cython groupby cumsum) for
                    # floats — bit-compatible with a running
                    # evaluation; exact prefix diffs for ints
                    if isfloat:
                        import pandas as pd

                        seg_id = np.cumsum(new_part) - 1
                        run = pd.Series(vals).groupby(seg_id) \
                            .cumsum().to_numpy()
                    else:
                        cs = np.cumsum(vals)
                        run = cs - np.repeat(
                            cs[starts] - vals[starts], lens)
                    cv = np.cumsum(valid.astype(np.int64))
                    runc = cv - np.repeat(
                        cv[starts] - valid[starts].astype(np.int64),
                        lens)
                    if frame == ("range",):
                        run = run[peer_end]
                        runc = runc[peer_end]
                if fn == "count":
                    out = pa.array(runc.astype(np.int64))
                elif fn == "sum":
                    out = pc.if_else(pa.array(runc > 0), pa.array(run),
                                     pa.scalar(None, pa.array(run).type))
                else:  # avg
                    avg = np.divide(run.astype(np.float64),
                                    np.maximum(runc, 1))
                    out = pc.if_else(pa.array(runc > 0),
                                     pa.array(avg),
                                     pa.scalar(None, pa.float64()))
            if cast is not None:
                out = pc.cast(out, _TYPE_MAP[cast])
            cols[nm] = out
        proj = {}
        for nm, srccol in sel_map:
            if isinstance(srccol, tuple):  # ("expr", node)
                v = _eval_expr(srccol[1], cols, n)
                if isinstance(v, pa.Scalar):
                    v = pa.array([v.as_py()] * n, type=v.type)
                proj[nm] = v
            else:
                proj[nm] = cols[srccol]
        if qexpr is not None:
            # QUALIFY: filter on window values inside the bucket,
            # then drop the hidden helper columns
            for nm in qnames:
                proj[nm] = cols[nm]
            for c in qplain:
                proj.setdefault(c, cols[c])
            res = pa.table(proj)
            env = {c: res[c] for c in res.column_names}
            m = _eval_expr(qexpr, env, res.num_rows)
            if isinstance(m, pa.ChunkedArray):
                m = m.combine_chunks()
            res = res.filter(pc.fill_null(m, False))
            return res.select([nm for nm, _ in sel_map])
        return pa.table(proj)

    out = (ds.map_batches(assign, batch_format="pyarrow")
             .groupby("_wb")
             .map_groups(wpass, batch_format="pyarrow"))
    try:
        # typed zero-row block so an all-filtered input keeps the
        # output schema (Ray's groupby emits nothing for an empty
        # stream): run the whole window pass over ONE synthetic row
        # of type-appropriate constants, then slice it away
        from .collect import _fill_zero

        et = src.empty(need)
        dummy = pa.table({f.name: _fill_zero(pa.nulls(1, f.type))
                          for f in et.schema})
        if inject_onepart:
            dummy = _addone(dummy)
        out = _with_typed_empty(out, wpass(assign(dummy)).slice(0, 0))
    except Exception:
        pass  # exotic column types: the schema rides the blocks

    order, limit, offset = _modifiers(node, select)
    if order and limit is not None:
        for e, *_ in order:
            if e.get("class") != "COLUMN_REF":
                raise SqlUnsupported("ORDER BY expression after window")
        t = _stream_topk(out, order, limit, offset, out_names)
        if t is None:
            from .collect import collect_arrow

            t = collect_arrow(out)  # typed empty
        return t
    if order or limit is not None:
        from .collect import collect_arrow

        t = collect_arrow(out)
        return _apply_order_limit(t, node, {}, [], select)
    return out


def _strip_volatile(x):
    """Copy with parse-position and alias metadata removed, so two
    spellings of the same aggregate hash identically."""
    if isinstance(x, dict):
        return {k: _strip_volatile(v) for k, v in x.items()
                if k not in ("query_location", "alias")}
    if isinstance(x, list):
        return [_strip_volatile(v) for v in x]
    return x


def _rewrite_aggs(x, atoms: list, names: dict):
    """Transformed copy of an expression with every aggregate
    FUNCTION node replaced by a hidden-column ref; ``atoms`` collects
    (hidden_name, original_node) once per distinct aggregate."""
    if isinstance(x, dict):
        if x.get("class") == "FUNCTION" \
                and x.get("function_name") in _AGG_FNS:
            key = json.dumps(_strip_volatile(x), sort_keys=True)
            if key not in names:
                names[key] = f"__agg{len(names)}"
                atoms.append((names[key], x))
            return {"class": "COLUMN_REF", "type": "COLUMN_REF",
                    "alias": x.get("alias") or _expr_name(x),
                    "column_names": [names[key]]}
        return {k: _rewrite_aggs(v, atoms, names) for k, v in x.items()}
    if isinstance(x, list):
        return [_rewrite_aggs(v, atoms, names) for v in x]
    return x


def _run_window_over_groups(node: dict, tables: dict):
    """Window functions (and/or QUALIFY) over a GROUP BY: SQL
    evaluates aggregation (and HAVING) BEFORE windows, so the
    aggregate runs first as an internal query and the windows run
    over its O(groups) materialized result — the same shape as a
    window over a materialized CTE. Aggregate expressions anywhere in
    the select list, OVER clauses, QUALIFY or ORDER BY rewrite to
    hidden columns of the inner result."""
    atoms: list = []
    names: dict = {}
    select2 = [_rewrite_aggs(it, atoms, names)
               for it in node["select_list"]]
    qualify2 = _rewrite_aggs(node["qualify"], atoms, names) \
        if node.get("qualify") is not None else None
    mods2 = _rewrite_aggs(node.get("modifiers") or [], atoms, names)

    inner = dict(node)
    key_items = []
    for g in node.get("group_expressions") or []:
        if g["class"] != "COLUMN_REF":
            raise SqlUnsupported("GROUP BY expressions must be columns")
        key_items.append(g)
    inner["select_list"] = key_items + [dict(a, alias=nm)
                                        for nm, a in atoms]
    inner["modifiers"] = []
    inner["qualify"] = None
    inner["cte_map"] = None  # already folded by the caller
    res = _execute_node(inner, tables)
    mem = _materialize_result(res)

    # ORDER BY may reference aggregates that the select list does
    # not project: rename the hidden ref to the projected alias when
    # one exists, else project it under its own hidden name and drop
    # the column from the final result
    hidden_used: set = set()

    def scan(x):
        if isinstance(x, dict):
            cn = x.get("column_names")
            if x.get("class") == "COLUMN_REF" and cn \
                    and str(cn[-1]).startswith("__agg"):
                hidden_used.add(cn[-1])
            for v in x.values():
                scan(v)
        elif isinstance(x, list):
            for v in x:
                scan(v)

    scan(mods2)
    alias_of = {}
    for it in select2:
        cn = it.get("column_names")
        if it.get("class") == "COLUMN_REF" and cn \
                and cn[-1] in hidden_used:
            alias_of[cn[-1]] = it.get("alias") or cn[-1]

    def rename(x):
        if isinstance(x, dict):
            cn = x.get("column_names")
            if x.get("class") == "COLUMN_REF" and cn \
                    and cn[-1] in alias_of and alias_of[cn[-1]] != cn[-1]:
                return dict(x, column_names=[alias_of[cn[-1]]])
            return {k: rename(v) for k, v in x.items()}
        if isinstance(x, list):
            return [rename(v) for v in x]
        return x

    mods2 = rename(mods2)
    drops = sorted(h for h in hidden_used if h not in alias_of)
    select2 = list(select2) + [
        {"class": "COLUMN_REF", "type": "COLUMN_REF", "alias": h,
         "column_names": [h]} for h in drops]

    outer = dict(node)
    outer["select_list"] = select2
    outer["qualify"] = qualify2
    outer["modifiers"] = mods2
    outer["group_expressions"] = []
    outer["group_sets"] = None
    outer["having"] = None
    outer["where_clause"] = None
    res = _run_window_query(_MemSource(mem, None), outer, select2)
    if drops:
        if isinstance(res, pa.Table):
            res = res.drop_columns(drops)
        else:
            keepc = [c for c in res.schema().names if c not in drops]
            res = res.map_batches(
                lambda b, k=keepc: b.select(k), batch_format="pyarrow")
    return res


def _has_subquery(x) -> bool:
    if isinstance(x, dict):
        if x.get("class") == "SUBQUERY":
            return True
        return any(_has_subquery(v) for v in x.values())
    if isinstance(x, list):
        return any(_has_subquery(v) for v in x)
    return False


def _const_node(v, alias: str = ""):
    if v is None or isinstance(v, bool):
        tid = "BOOLEAN" if isinstance(v, bool) else "INTEGER"
    elif isinstance(v, int):
        tid = "BIGINT"
    elif isinstance(v, float):
        tid = "DOUBLE"
    elif isinstance(v, str):
        tid = "VARCHAR"
    else:
        raise SqlUnsupported(
            f"scalar subquery yielding {type(v).__name__}")
    return {"class": "CONSTANT", "type": "VALUE_CONSTANT",
            "alias": alias,
            "value": {"type": {"id": tid, "type_info": None},
                      "is_null": v is None, "value": v}}


def _fold_any_exists(x, tables: dict, outer=None):
    """Rewrite IN-(subquery) / EXISTS subqueries into expression-
    evaluable nodes for the paths that run through _eval_expr (mem
    sources, SELECT-list booleans): an uncorrelated ANY-equality
    becomes a constant COMPARE_IN (skipped when the set has NULLs —
    the predicate-tree path owns those 3VL cases), EXISTS becomes a
    constant or a coalesce(outer-key IN keys, FALSE) via the standard
    decorrelation."""
    if isinstance(x, dict):
        if x.get("class") == "SUBQUERY":
            st = x.get("subquery_type")
            sub = x["subquery"]["node"]
            if st == "ANY" \
                    and x.get("comparison_type") == "COMPARE_EQUAL" \
                    and _decorrelate(sub, tables, outer) is None:
                res = _materialize_result(_execute_node(sub, tables))
                if res.num_columns == 1:
                    vals = res.column(0).to_pylist()
                    if not any(v is None for v in vals):
                        return {"class": "OPERATOR",
                                "type": "COMPARE_IN",
                                "alias": x.get("alias") or "",
                                "children": [x["child"]] + [
                                    _const_node(v) for v in
                                    dict.fromkeys(vals)]}
                return x
            if st == "EXISTS":
                dec = _decorrelate(sub, tables, outer)
                if dec is None:
                    res = _materialize_result(
                        _execute_node(sub, tables))
                    return _const_node(res.num_rows > 0,
                                       alias=x.get("alias") or "")
                (ocol, icol), resid = dec
                sub2 = dict(sub)
                sub2["select_list"] = [
                    {"class": "COLUMN_REF", "type": "COLUMN_REF",
                     "alias": "", "column_names": [icol]}]
                sub2["where_clause"] = _rebuild_and(resid)
                sub2["modifiers"] = []
                res = _materialize_result(_execute_node(sub2, tables))
                keys = [v for v in
                        dict.fromkeys(res.column(0).to_pylist())
                        if v is not None]
                in_node = {"class": "OPERATOR", "type": "COMPARE_IN",
                           "alias": "",
                           "children": [
                               {"class": "COLUMN_REF",
                                "type": "COLUMN_REF", "alias": "",
                                "column_names": [ocol]}] + [
                               _const_node(v) for v in keys]} \
                    if keys else _const_node(False)
                return {"class": "OPERATOR",
                        "type": "OPERATOR_COALESCE",
                        "alias": x.get("alias") or "",
                        "children": [in_node, _const_node(False)]}
            return x
        return {k: _fold_any_exists(v, tables, outer)
                for k, v in x.items()}
    if isinstance(x, list):
        return [_fold_any_exists(v, tables, outer) for v in x]
    return x


def _fold_scalar_subqueries(x, tables: dict, outer=None):
    """Scalar subqueries in the SELECT list: uncorrelated ones fold to
    constants at compile time (each runs once); correlated ones (the
    _decorrelate equality shape) lower to a broadcast key->value
    lookup node (_corr_scalar_map) — one inner execution, no per-row
    re-evaluation."""
    if isinstance(x, dict):
        if x.get("class") == "SUBQUERY" \
                and x.get("subquery_type") == "SCALAR":
            dec = _decorrelate(x["subquery"]["node"], tables, outer)
            if dec is not None:
                return _corr_scalar_map(x, dec, tables)
            return _const_node(_scalar_subquery(x, tables),
                               alias=x.get("alias") or "")
        return {k: _fold_scalar_subqueries(v, tables, outer)
                for k, v in x.items()}
    if isinstance(x, list):
        return [_fold_scalar_subqueries(v, tables, outer) for v in x]
    return x


def _run_distinct_on(src, node: dict, select: list, targets: list):
    """DISTINCT ON (k, ...) lowers onto the window path: a hidden
    ROW_NUMBER() OVER (PARTITION BY k... ORDER BY the query's
    ORDER BY keys beyond the targets) = 1 QUALIFY — one bucket
    shuffle, the kept row picked inside its bucket, never
    materializing the unfiltered input."""
    for tgt in targets:
        if tgt.get("class") != "COLUMN_REF":
            raise SqlUnsupported("DISTINCT ON targets must be columns")
    tcols = [_colref(t) for t in targets]
    orders = []
    for m in node.get("modifiers", []):
        if m["type"] == "ORDER_MODIFIER":
            for o in m["orders"]:
                e = o["expression"]
                if e.get("class") == "COLUMN_REF" \
                        and _colref(e) in tcols:
                    continue  # constant within the partition
                orders.append(o)
    if not orders:
        raise SqlUnsupported(
            "DISTINCT ON needs ORDER BY tie-break keys beyond the "
            "targets (the kept row is otherwise nondeterministic)")
    win = {"class": "WINDOW", "type": "WINDOW_ROW_NUMBER",
           "alias": "", "function_name": "row_number", "schema": "",
           "children": [], "partitions": [dict(t) for t in targets],
           "orders": orders, "distinct": False,
           "start": "UNBOUNDED_PRECEDING", "end": "CURRENT_ROW_RANGE",
           "offset_expr": None, "default_expr": None,
           "filter_expr": None, "ignore_nulls": False}
    one = {"class": "CONSTANT", "type": "VALUE_CONSTANT",
           "value": {"type": {"id": "INTEGER", "type_info": None},
                     "is_null": False, "value": 1}}
    q = {"class": "COMPARISON", "type": "COMPARE_EQUAL",
         "left": win, "right": one}
    if node.get("qualify") is not None:
        q = {"class": "CONJUNCTION", "type": "CONJUNCTION_AND",
             "children": [node["qualify"], q]}
    node2 = dict(node)
    node2["qualify"] = q
    node2["modifiers"] = [m for m in node.get("modifiers", [])
                          if m["type"] != "DISTINCT_MODIFIER"]
    return _run_window_query(src, node2, select)


def _run_set_operation(node: dict, tables: dict[str, str]):
    """UNION [ALL]: both sides execute independently; ALL unions the
    lazy streams (no materialization), plain UNION distinct-merges
    driver-side tables (per-batch distinct first keeps driver state
    at O(distinct))."""
    setop = node.get("setop_type")
    if setop not in ("UNION", "INTERSECT", "EXCEPT",
                     "UNION_BY_NAME"):
        raise SqlUnsupported(f"set operation {setop!r}")
    sel = node.get("left") or {}
    while sel.get("type") == "SET_OPERATION_NODE":
        sel = sel.get("left") or {}
    setop_select = sel.get("select_list")
    sides = [_execute_node(node[s], tables) for s in ("left", "right")]
    if setop == "UNION_BY_NAME":
        # align columns BY NAME (first-seen order across both sides);
        # a side missing a column contributes typed NULLs for it
        side_names = [list(r.column_names) if isinstance(r, pa.Table)
                      else list(r.schema().names) for r in sides]
        all_names = list(dict.fromkeys(side_names[0] + side_names[1]))
        mats = [_materialize_result(r) for r in sides]
        types = {}
        for m in mats:
            for f in m.schema:
                types.setdefault(f.name, f.type)
        aligned = []
        for m in mats:
            cols = {}
            for c in all_names:
                cols[c] = m[c] if c in m.column_names \
                    else pa.nulls(m.num_rows, types[c])
            aligned.append(pa.table(cols))
        sides = aligned
        setop = "UNION"
    names = None
    for i, r in enumerate(sides):
        cols = r.column_names if isinstance(r, pa.Table) else r.schema().names
        if names is None:
            names = cols
        elif list(cols) != list(names):
            if len(cols) != len(names):
                raise SqlUnsupported(
                    f"UNION sides have different column counts: "
                    f"{names} vs {cols}")
            # set operations are POSITIONAL; the first side names
            # the output (SQL standard)
            if isinstance(r, pa.Table):
                sides[i] = r.rename_columns(list(names))
            else:
                want = list(names)

                def _rn(b: pa.Table, want=want) -> pa.Table:
                    return b.rename_columns(want)

                sides[i] = r.map_batches(_rn, batch_format="pyarrow")
    has_mods = bool(node.get("modifiers"))
    if setop in ("INTERSECT", "EXCEPT"):
        t = _intersect_except(sides, list(names), setop,
                              bool(node.get("setop_all")))
        return _apply_order_limit(t, node, {}, [], setop_select) \
            if has_mods else t
    if node.get("setop_all"):
        import ray.data as rd

        ds_sides = [r if not isinstance(r, pa.Table)
                    else rd.from_arrow(r) for r in sides]
        u = ds_sides[0].union(ds_sides[1])
        if not has_mods:
            return u
        from .collect import collect_arrow

        # ORDER BY / LIMIT over the union: driver-resident like every
        # ordered aggregate result
        return _apply_order_limit(collect_arrow(u), node, {}, [],
                                  setop_select)
    from .collect import collect_arrow

    from .collect import group_aggregate

    def _distinct_batch(b: pa.Table, c) -> pa.Table:
        from .collect import group_aggregate as ga

        return ga(b, c, [])

    tabs = []
    for r in sides:
        if not isinstance(r, pa.Table):
            # distinct per batch before collecting (map-side combine)
            cols = r.schema().names
            r = collect_arrow(r.map_batches(
                lambda b, c=list(cols): _distinct_batch(b, c),
                batch_format="pyarrow"))
        tabs.append(r)
    allp = pa.concat_tables(tabs, promote_options="permissive")
    t = group_aggregate(allp, allp.column_names, [])
    return _apply_order_limit(t, node, {}, [], setop_select) \
        if has_mods else t


def _side_value_counts(r, cols: list[str]) -> pa.Table:
    """(cols..., __n) distinct value counts of one set-operation side;
    streams collapse per batch first (map-side combine) so driver
    state is O(distinct)."""
    from .collect import collect_arrow, group_aggregate

    def _shape(g: pa.Table, n_col: str) -> pa.Table:
        return pa.table({**{c: g[c] for c in cols},
                         "__n": pc.cast(g[n_col], pa.int64())})

    if isinstance(r, pa.Table):
        return _shape(group_aggregate(r, cols, [([], "count_all")]),
                      "count_all")

    def part(b: pa.Table, c=list(cols)) -> pa.Table:
        from .collect import group_aggregate as ga

        return ga(b, c, [([], "count_all")])

    parts = collect_arrow(r.map_batches(part, batch_format="pyarrow"))
    if parts.num_rows == 0:
        return _shape(parts.append_column(
            "count_all", pa.array([], type=pa.int64())), "count_all") \
            if "count_all" not in parts.column_names \
            else _shape(parts, "count_all")
    return _shape(group_aggregate(parts, cols,
                                  [("count_all", "sum")]),
                  "count_all_sum")


def _intersect_except(sides, names: list[str], setop: str,
                      all_rows: bool) -> pa.Table:
    """INTERSECT / EXCEPT [ALL]: per-side distinct value counts
    (Arrow's hash aggregate groups NULL keys together — SQL set-op
    null semantics), merged by a second null-safe group-by instead of
    a join (Arrow joins would treat NULL keys as non-matching), then
    multiplicity math: min(l, r) / max(l - r, 0) for ALL, membership
    for DISTINCT."""
    import numpy as np

    lc = _side_value_counts(sides[0], names)
    rc = _side_value_counts(sides[1], names)
    zero_l = pa.array(np.zeros(rc.num_rows, dtype=np.int64))
    zero_r = pa.array(np.zeros(lc.num_rows, dtype=np.int64))
    lt = pa.table({**{c: lc[c] for c in names},
                   "__l": lc["__n"].combine_chunks().cast(pa.int64()),
                   "__r": zero_r})
    rt = pa.table({**{c: rc[c] for c in names},
                   "__l": zero_l,
                   "__r": rc["__n"].combine_chunks().cast(pa.int64())})
    from .collect import group_aggregate

    both = group_aggregate(
        pa.concat_tables([lt, rt], promote_options="permissive"),
        names, [("__l", "sum"), ("__r", "sum")])
    ln = both["__l_sum"].to_numpy(zero_copy_only=False)
    rn = both["__r_sum"].to_numpy(zero_copy_only=False)
    if setop == "INTERSECT":
        out_n = np.minimum(ln, rn) if all_rows             else ((ln > 0) & (rn > 0)).astype(np.int64)
    else:  # EXCEPT
        out_n = np.maximum(ln - rn, 0) if all_rows             else ((ln > 0) & (rn == 0)).astype(np.int64)
    idx = np.repeat(np.arange(both.num_rows, dtype=np.int64), out_n)
    return both.select(names).take(pa.array(idx))


def _run_distinct_query(src, node: dict, select: list):
    """SELECT DISTINCT cols: per-batch pyarrow distinct (group_by with
    no aggregates — the map-side combine), merged on the driver;
    O(distinct combinations) driver state, the data never collects."""
    project = []
    for item in select:
        base = item["child"] if item["class"] == "CAST" else item
        if base["class"] != "COLUMN_REF":
            raise SqlUnsupported("DISTINCT projects plain columns")
        project.append(_colref(base))
    cols = list(dict.fromkeys(project))
    ds = src.stream(cols)

    def part(batch: pa.Table) -> pa.Table:
        from .collect import group_aggregate as ga

        return ga(batch, cols, [])

    parts = [b for b in ds.map_batches(
        part, batch_format="pyarrow").iter_batches(
            batch_size=None, batch_format="pyarrow")]
    parts = [p for p in parts if p.num_rows]
    if parts:
        from .collect import group_aggregate

        table = group_aggregate(
            pa.concat_tables(parts, promote_options="permissive"),
            cols, [])
    else:
        table = src.empty(cols)

    cols_out = {}
    for item in select:
        name = _expr_name(item)
        if item["class"] == "CAST":
            cols_out[name] = pc.cast(table[_colref(item["child"])],
                                     _TYPE_MAP[item["cast_type"]["id"]])
        else:
            cols_out[name] = table[_colref(item)]
    table = pa.table(cols_out)
    return _apply_order_limit(table, node, {}, [], select)


def _run_agg_query(src, node: dict, select: list,
                   group_exprs: list, agg_atoms: list, having):
    keys = []
    for g in group_exprs:
        if g["class"] != "COLUMN_REF":
            raise SqlUnsupported("GROUP BY expressions must be columns")
        keys.append(_colref(g))
    # expand avg into sum+count for the partial path; keep the avg
    # atom itself for env building
    atoms = []
    seen = set()
    for fn, col in agg_atoms:
        k = (fn, col)
        if k in seen:
            continue
        seen.add(k)
        atoms.append(k)
    partial_atoms = []
    pseen = set()
    for fn, col in atoms:
        if fn == "avg":
            expand = [("sum", col), ("count", col)]
        elif fn in _VAR_FNS:
            expand = [("sum", col), ("count", col), ("sumsq", col)]
        elif fn == "bool_and":
            expand = [("bool_min", col)]
        elif fn == "bool_or":
            expand = [("bool_max", col)]
        else:
            expand = [(fn, col)]
        for e in expand:
            if e not in pseen:
                pseen.add(e)
                partial_atoms.append(e)

    cd_atoms = sorted({(f, c) for f, c in partial_atoms
                       if _is_special_agg(f)})
    reg_atoms = [a for a in partial_atoms if not _is_special_agg(a[0])]
    if cd_atoms and not any(f == "count_star" for f, _ in reg_atoms):
        # group enumerator: every group gets a row even when only
        # COUNT(DISTINCT) was selected
        reg_atoms.append(("count_star", None))

    merged = None
    if src.unfiltered_dir is not None and len(keys) == 1:
        merged = _decode_free_group_agg(src.unfiltered_dir, keys[0],
                                        reg_atoms)
    if merged is None:
        vcols = sorted({c for _, c in reg_atoms if c is not None})
        need = list(dict.fromkeys(keys + vcols))
        if not need:
            need = src.columns()[:1]
        ds = src.stream(need)
        merged = _partial_agg_stream(ds, keys, reg_atoms)

    group_sets = node.get("group_sets") or []
    multi_sets = len(group_sets) > 1 or (
        group_sets and sorted(group_sets[0]) != list(range(len(keys))))
    if multi_sets:
        if cd_atoms:
            raise SqlUnsupported(
                "COUNT(DISTINCT)/approx_count_distinct with ROLLUP/"
                "CUBE/GROUPING SETS (distinct state does not "
                "re-aggregate through the level derivation)")
        if merged is None:
            # zero groups: only the grand-total set emits (COUNT 0)
            cols: dict = {k: pa.array([], type=pa.string())
                          for k in keys}
            for fn, c in partial_atoms:
                nm = "count_star()" if fn == "count_star" \
                    else f"{fn}({c})"
                if fn.startswith("count"):
                    et = pa.int64()
                elif fn in ("bool_min", "bool_max"):
                    et = pa.int8()
                else:
                    et = pa.float64()
                cols[nm] = pa.array([], type=et)
            merged = pa.table(cols)
        merged = _grouping_sets(merged, keys, group_sets)

    env, n = _agg_env(merged, keys,
                      [a for a in atoms if not _is_special_agg(a[0])])
    if merged is not None:
        for k in keys:
            gcol = f"__grouping_{k}"
            if gcol in merged.column_names:
                env[("grouping", k)] = merged[gcol]
    for fn, col in cd_atoms:
        if fn == "count_distinct":
            env[("agg", fn, col)] = _count_distinct_counts(
                src, keys, col, merged, n)
        elif fn == "approx_count_distinct":
            env[("agg", fn, col)] = _approx_distinct_counts(
                src, keys, col, merged, n)
        elif fn.startswith(("quantile_cont@", "quantile_disc@")):
            kind, p = fn.split("@")
            env[("agg", fn, col)] = _grouped_quantile_values(
                src, keys, col, merged, n, float(p),
                disc=kind.endswith("disc"))
        elif fn.startswith(("arg_max@", "arg_min@")):
            env[("agg", fn, col)] = _arg_extreme_values(
                src, keys, col, merged, n, by=fn.split("@", 1)[1],
                biggest=fn.startswith("arg_max@"))
        elif fn.startswith(("string_agg@", "string_agg_distinct@")):
            sep, spec = json.loads(fn.split("@", 1)[1])
            env[("agg", fn, col)] = _collected_agg_values(
                src, keys, col, merged, n, spec, sep=sep,
                distinct=fn.startswith("string_agg_distinct@"))
        elif fn.startswith(("array_agg@", "array_agg_distinct@")):
            spec = json.loads(fn.split("@", 1)[1])
            env[("agg", fn, col)] = _collected_agg_values(
                src, keys, col, merged, n, spec, sep=None,
                distinct=fn.startswith("array_agg_distinct@"))
        else:  # sum_distinct / avg_distinct
            env[("agg", fn, col)] = _distinct_agg_values(
                src, keys, col, merged, n, fn.split("_")[0])
    if having is not None:
        mask = _eval_expr(having, env, n)
        if isinstance(mask, pa.ChunkedArray):
            mask = mask.combine_chunks()
        mask = pc.fill_null(mask, False)
        env = {k: (v.filter(mask)
                   if isinstance(v, (pa.Array, pa.ChunkedArray)) else v)
               for k, v in env.items()}
        n = int(pc.sum(pc.cast(mask, pa.int64())).as_py() or 0)

    cols, names = [], []
    for item in select:
        if item["class"] == "STAR":
            raise SqlUnsupported("SELECT * with aggregates")
        arr = _eval_expr(item, env, n)
        if isinstance(arr, pa.Scalar):
            arr = pa.array([arr.as_py()] * n, type=arr.type)
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        names.append(_expr_name(item))
        cols.append(arr)
    table = pa.table(dict(zip(names, cols))) if names else pa.table({})
    # ORDER BY may reference aggregate atoms not in the select list
    return _apply_order_limit(table, node, env, atoms, select)


def split_statements(script: str) -> list[str]:
    """Split a SQL script into statements on ';', honoring single- and
    double-quoted tokens (with doubled-quote escapes), line comments
    (``-- ...``) and block comments (``/* ... */``). Empty statements
    drop; comments do not survive into the statements."""
    out, buf = [], []
    i, n = 0, len(script)
    while i < n:
        ch = script[i]
        if ch in ("'", '"'):
            q = ch
            buf.append(ch)
            i += 1
            while i < n:
                buf.append(script[i])
                if script[i] == q:
                    if i + 1 < n and script[i + 1] == q:
                        buf.append(q)
                        i += 2
                        continue
                    i += 1
                    break
                i += 1
            continue
        if ch == "-" and i + 1 < n and script[i + 1] == "-":
            while i < n and script[i] != "\n":
                i += 1
            continue
        if ch == "/" and i + 1 < n and script[i + 1] == "*":
            j = script.find("*/", i + 2)
            i = n if j < 0 else j + 2
            continue
        if ch == ";":
            s = "".join(buf).strip()
            if s:
                out.append(s)
            buf = []
            i += 1
            continue
        buf.append(ch)
        i += 1
    s = "".join(buf).strip()
    if s:
        out.append(s)
    return out


def run_script(script: str, tables: dict[str, str],
               workspace: str | None = None):
    """Execute a multi-statement SQL script against one shared session
    catalog (``tables`` — CTAS registrations persist across
    statements). Yields ``(statement, result)`` pairs; row streams
    stay lazy."""
    for stmt in split_statements(script):
        yield stmt, sql_query(stmt, tables, workspace=workspace)
