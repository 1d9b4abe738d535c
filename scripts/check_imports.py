#!/usr/bin/env python3
"""Report imports that a module never uses.

A name counts as used when the module reads it anywhere or lists it in
``__all__``.  Exits 1 when some import is unused.

Usage: check_imports.py PATH...   (files, or directories searched for *.py)
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each name the source imports and never uses."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def main(paths: list[str]) -> int:
    files = [
        f for p in map(Path, paths)
        for f in (sorted(p.rglob("*.py")) if p.is_dir() else [p])
    ]
    found = 0
    for f in files:
        for line, name in unused_imports(f.read_text()):
            print(f"{f}:{line}: {name} imported but unused")
            found += 1
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
