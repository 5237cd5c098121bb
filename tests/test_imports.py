"""Every import is used: each name an import statement binds is loaded
somewhere in the same file. A deletion that leaves its imports behind
fails here, in the package, the tests, the demos and the benchmark.

``from __future__`` imports bind no name and are skipped. The check reads
the sources with ``ast`` and imports nothing.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIRECTORIES = ("src/star_isac", "tests", "demos", "perfbench",
               "perfbench/tests")


def bound_names(tree):
    """{name: line} of every name an import in the tree binds."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                bound[alias.asname or alias.name.partition(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def test_every_imported_name_is_used():
    unused = []
    for directory in DIRECTORIES:
        for path in sorted((ROOT / directory).glob("*.py")):
            tree = ast.parse(path.read_text())
            loaded = {node.id for node in ast.walk(tree)
                      if isinstance(node, ast.Name)
                      and isinstance(node.ctx, ast.Load)}
            unused += [f"{path.relative_to(ROOT)}:{line} {name}"
                       for name, line in bound_names(tree).items()
                       if name not in loaded]
    assert unused == [], "imported but never used: " + ", ".join(unused)
