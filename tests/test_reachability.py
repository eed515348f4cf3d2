"""Reachability guard: every top-level function and class in
``arcade_ray/`` is reachable from an entry point, not only from tests.

The graph is name-based and built from the AST alone (nothing is
imported). A top-level definition references every name, attribute,
imported name and identifier-shaped string constant in its body; a
module-level assignment ``X = ...`` is a node of its own. The roots are
every name referenced in the entry points (the CLI, the driver queries,
``__ray_entry__.py``, ``jobs/``, ``bench.py``, ``perfbench/``,
``tools/``), the lazy ``_API`` exports of ``arcade_ray/__init__.py``,
module-level statements that run on import, and dunder names. Two
definitions that share a name share a node, so the graph over-approximates
reachability: a name it reports is unreachable for certain.
"""

import ast
import pathlib

REPO = pathlib.Path(__file__).resolve().parents[1]
PKG = REPO / "arcade_ray"
ENTRY_FILES = [PKG / "cli.py", PKG / "__main__.py", PKG / "entry_queries.py",
               REPO / "__ray_entry__.py", REPO / "bench.py"]
ENTRY_DIRS = [REPO / "jobs", REPO / "perfbench", REPO / "tools"]

# Test-only code that stays, one reason each. Their own helpers count
# as reached through them. Delete an entry together with the code it
# names, or when an entry point starts using it.
ALLOWED = {
    # public surface with tests but no entry point yet (ROADMAP item 4)
    "register_int_codec": "codec plug-in API for user code",
    "unregister_int_codec": "codec plug-in API for user code",
    "registered_codecs": "codec plug-in API for user code",
    "sorted_scan": "globally ordered scan; no driver query yet",
    "resize_images": "media operator; no driver query yet",
    "kmv_overlap": "KMV Jaccard estimate; no caller yet",
}


def _refs(node: ast.AST) -> set[str]:
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rsplit(".", 1)[-1])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) \
                and n.value.isidentifier():
            out.add(n.value)
    return out


def _py_files(root: pathlib.Path):
    return sorted(p for p in root.rglob("*.py") if "__pycache__" not in p.parts)


def _graph():
    """-> (definitions {name: [file:line]}, edges {name: refs}, roots)."""
    defs: dict[str, list[str]] = {}
    edges: dict[str, set[str]] = {}
    roots: set[str] = set()
    for p in _py_files(PKG):
        tree = ast.parse(p.read_text())
        where = p.relative_to(REPO)
        for st in tree.body:
            if isinstance(st, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
                defs.setdefault(st.name, []).append(f"{where}:{st.lineno}")
                edges.setdefault(st.name, set()).update(_refs(st))
            elif isinstance(st, (ast.Assign, ast.AnnAssign)):
                targets = st.targets if isinstance(st, ast.Assign) \
                    else [st.target]
                for t in targets:
                    for n in ast.walk(t):
                        if isinstance(n, ast.Name):
                            edges.setdefault(n.id, set()).update(_refs(st))
            elif not isinstance(st, (ast.Import, ast.ImportFrom)):
                roots |= _refs(st)
        if p.name == "__init__.py" and p.parent == PKG:
            for st in tree.body:
                if isinstance(st, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "_API"
                        for t in st.targets):
                    roots |= {k.value for k in st.value.keys}
    for p in ENTRY_FILES + [q for d in ENTRY_DIRS for q in _py_files(d)]:
        roots |= _refs(ast.parse(p.read_text()))
    roots |= {n for n in defs if n.startswith("__") and n.endswith("__")}
    return defs, edges, roots


def _reachable(edges: dict[str, set[str]], roots: set[str]) -> set[str]:
    seen, todo = set(), list(roots)
    while todo:
        n = todo.pop()
        if n in seen:
            continue
        seen.add(n)
        todo.extend(edges.get(n, ()))
    return seen


def test_no_test_only_library_code():
    """A top-level definition in arcade_ray/ that no entry point reaches
    is test-only (or dead) code: delete it, give it a caller, or
    allowlist it with its reason."""
    defs, edges, roots = _graph()
    live = _reachable(edges, roots | set(ALLOWED))
    entry_mods = {str(p.relative_to(REPO)) for p in ENTRY_FILES}
    bad = sorted(
        f"{loc} {name}" for name, locs in defs.items()
        if name not in live
        for loc in locs if loc.split(":")[0] not in entry_mods)
    assert not bad, "unreachable from every entry point:\n" + "\n".join(bad)


def test_allowlist_is_current():
    """Every allowlisted name still exists and is still unreachable."""
    defs, edges, roots = _graph()
    live = _reachable(edges, roots)
    stale = sorted(n for n in ALLOWED if n not in defs or n in live)
    assert not stale, f"allowlist entries to remove: {stale}"
