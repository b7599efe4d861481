"""Static checks of the source and test files: every top-level import is
read somewhere in its module, every definition in `src/` is read by
some `src/` module, and only `characters` forms character residues."""

from __future__ import annotations

import ast
from pathlib import Path

import weightcalc

ROOT = Path(__file__).resolve().parent.parent

# top-level imports no code in their module reads, each with why it stays
UNREAD_IMPORTS = {
    "weightcalc.homology.resolution.nullspace_mod": "bench/test_trace_counts.py checks that the tracer patches this copied binding; moving it waits for a benchmark change (ROADMAP item 9)",
    "weightcalc.cli.minimal_resolution": "bench/test_trace_counts.py checks that the tracer patches this copied binding; moving it waits for a benchmark change (ROADMAP item 9)",
}

# definitions no `src/` module reads, each with why it stays
UNREAD_DEFINITIONS = {
    "weightcalc.homology.linalg.nullspace_mod": "bench/test_trace_counts.py checks that the tracer patches its copied binding in `resolution`; deleting it waits for a benchmark change (ROADMAP item 9)",
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


def _definitions(tree: ast.Module) -> dict[str, str]:
    """Top-level functions and classes, and the methods of those classes
    other than dunders: the bare name of each, by its name within the
    module."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    out[f"{node.name}.{item.name}"] = item.name
    return out


def test_every_src_definition_is_read_in_src():
    # what only the tests read belongs in `tests/`; a read is a loaded
    # name or attribute, so an import alone does not count
    trees = {
        _module_name(path): ast.parse(path.read_text(), filename=str(path))
        for path in sorted((ROOT / "src").rglob("*.py"))
    }
    read = set(weightcalc.__all__)
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
    unread = {
        f"{module}.{qualname}"
        for module, tree in trees.items()
        for qualname, name in _definitions(tree).items()
        if name not in read
    }
    assert unread == set(UNREAD_DEFINITIONS)


def test_only_characters_forms_character_residues():
    # a residue mod p**f - 1 is formed by `characters.twisted_char`
    # alone; `weights` defines the modulus
    found = [
        f"{_module_name(path)}:{n.lineno}: {ast.unparse(n)}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        if _module_name(path) not in ("weightcalc.characters", "weightcalc.weights")
        for n in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(n, ast.Attribute) and n.attr == "q_minus_one")
        or (
            isinstance(n, ast.BinOp)
            and isinstance(n.op, ast.Pow)
            and (getattr(n.left, "id", None) == "p" or getattr(n.left, "attr", None) == "p")
        )
    ]
    assert found == []
