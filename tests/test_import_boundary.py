"""Nothing under ``src/`` imports the test tree.

The oracles under ``tests/`` (the stream-by-stream pricing reference,
the cache simulator, trace replay, the exact heap merge, the pipeline
model) check the shipped code from outside.  A shipped module that
imported one would make the library depend on its own test suite.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

_IMPORTERS = ("import_module", "__import__")


def imported_modules(tree):
    """Every absolute module name a module imports, statically or by a
    constant-string ``importlib.import_module``/``__import__`` call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module:
                yield node.module
        elif isinstance(node, ast.Call) and node.args:
            func = node.func
            name = getattr(func, "attr", getattr(func, "id", None))
            first = node.args[0]
            if name in _IMPORTERS and isinstance(first, ast.Constant):
                yield str(first.value)


def test_no_module_under_src_imports_tests():
    files = sorted(SRC.rglob("*.py"))
    assert files
    offenders = [
        f"{path.relative_to(SRC.parent)}: {name}"
        for path in files
        for name in imported_modules(ast.parse(path.read_text(), str(path)))
        if name == "tests" or name.startswith("tests.")
    ]
    assert offenders == []
