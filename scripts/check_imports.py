#!/usr/bin/env python3
"""Report imports that a module never uses, and private module-level names
that their own module never reads.

A name counts as used when the module reads it anywhere or lists it in
``__all__``.  A private name is a module-level function, class or
assigned name with a leading underscore; one its module never reads is
dead, whatever other modules import it.  Exits 1 when anything is found.

Usage: check_imports.py PATH...   (files, or directories searched for *.py)
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _used_names(tree: ast.Module) -> set[str]:
    """The names the module reads, with those listed in ``__all__``."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) for each name the module imports and never uses."""
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = _used_names(tree)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def unread_private_names(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) for each private module-level function, class or
    assigned name that the module defines and never reads."""
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    used = _used_names(tree)
    return sorted((line, name) for name, line in defined.items() if name not in used)


def main(paths: list[str]) -> int:
    files = [
        f for p in map(Path, paths)
        for f in (sorted(p.rglob("*.py")) if p.is_dir() else [p])
    ]
    found = 0
    for f in files:
        tree = ast.parse(f.read_text())
        for line, name in unused_imports(tree):
            print(f"{f}:{line}: {name} imported but unused")
            found += 1
        for line, name in unread_private_names(tree):
            print(f"{f}:{line}: private {name} never read in its module")
            found += 1
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
