"""Static check of the source and test files: every top-level import is
read somewhere in its module."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# top-level imports no code in their module reads, each with why it stays
UNREAD_IMPORTS = {
    "weightcalc.homology.resolution.nullspace_mod": "bench/test_trace_counts.py checks that the tracer patches this copied binding; moving it waits for a benchmark change (ROADMAP item 6)",
}


def _module_name(path: Path) -> str:
    rel = path.relative_to(ROOT / "src" if path.is_relative_to(ROOT / "src") else ROOT)
    parts = rel.with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _unread_imports(path: Path) -> set[str]:
    """Names bound by the module's top-level imports that it never reads;
    `__future__` imports and names listed in `__all__` are left out."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = set()
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names if a.name != "*")
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    read = {
        n.id
        for n in ast.walk(tree)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return bound - read - exported


def test_no_unread_imports():
    unread = {
        f"{_module_name(path)}.{name}"
        for top in ("src", "tests")
        for path in sorted((ROOT / top).rglob("*.py"))
        for name in _unread_imports(path)
    }
    assert unread == set(UNREAD_IMPORTS)
