"""Source hygiene of the package, read with ast: every top-level import is
used by its module, and every module-level private name is used somewhere
in src/."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hmaxwell"
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(SRC.glob("*.py"))}


def dotted(node):
    """'a.b.c' for a Name or an Attribute chain on a Name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def loaded_paths(tree):
    """Every dotted name read anywhere in the module."""
    return {path for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(getattr(node, "ctx", None), ast.Load)
            and (path := dotted(node)) is not None}


def imported(tree):
    """(what must be read, source line) per top-level import binding: the
    alias or bound name, or the full dotted path of a plain 'import a.b'."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if isinstance(node, ast.Import) and alias.asname is None:
                    yield alias.name, node.lineno
                else:
                    yield alias.asname or alias.name, node.lineno


def test_every_top_level_import_is_used():
    unused = []
    for name, tree in MODULES.items():
        if name == "__init__.py":
            continue  # re-exports
        used = loaded_paths(tree)
        for binding, line in imported(tree):
            if not any(path == binding or path.startswith(binding + ".")
                       for path in used):
                unused.append(f"{name}:{line} {binding}")
    assert not unused, unused


def private_definitions(tree):
    """Module-level _names bound by def, class or assignment (no dunders)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def test_every_private_module_name_is_used():
    reads = set()
    for tree in MODULES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                reads.update(alias.name for alias in node.names)
    dead = [f"{name}:{line} {priv}" for name, tree in MODULES.items()
            for priv, line in private_definitions(tree) if priv not in reads]
    assert not dead, dead
