"""Source hygiene: every top-level import of the package is used, every
module-level private function or class is referenced elsewhere in the
package, and every name a module exports in ``__all__`` exists."""

import ast
import importlib
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "pinchlab").glob("*.py"))
MODULES = ["pinchlab"] + [
    f"pinchlab.{path.stem}" for path in SOURCES if path.stem not in ("__init__", "__main__")
]


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used and name not in exported]


def test_unused_import_detector():
    source = "import os\nimport numpy as np\nfrom .a import b, c\n__all__ = ['c']\nnp.pi\n"
    assert _unused_imports(source) == ["os (line 1)", "b (line 3)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_top_level_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def _unreferenced_private_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level private functions and classes (``_name``, not dunder) that
    no other top-level statement of any source names, as a variable or as an
    attribute: a helper that calls only itself counts as unreferenced."""
    statements = [(stem, node) for stem, text in sources.items() for node in ast.parse(text).body]
    names_in = {
        id(node): {sub.id if isinstance(sub, ast.Name) else sub.attr
                   for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute))}
        for _, node in statements
    }
    return [
        f"{stem}.{node.name}"
        for stem, node in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and not any(node.name in names_in[id(other)] for _, other in statements if other is not node)
    ]


def test_dead_private_definition_detector():
    sources = {
        "a": "def _used():\n    pass\ndef _dead():\n    return _dead()\nclass _Gone:\n    pass\n",
        "b": "from a import _used\nx = a._used\n",
    }
    assert _unreferenced_private_definitions(sources) == ["a._dead", "a._Gone"]


def test_no_dead_private_definitions():
    # a helper that lost its last caller is deleted with it
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert _unreferenced_private_definitions(sources) == []


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale __all__ entry breaks ``from pinchlab.<module> import *`` and any
    # tool that walks the exports (the benchmark's tracer wraps each of them)
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
