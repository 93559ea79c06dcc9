"""Source hygiene: every top-level import of the package is used, every
private function, class or method is referenced elsewhere in the package,
and every name a module exports in ``__all__`` exists."""

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
    """Private functions and classes (``_name``, not dunder), at module level
    or in the body of a module-level class, that nothing outside themselves
    names, as a variable or as an attribute: a top-level definition counts the
    other top-level statements of every source, a method those and the other
    members of its class.  A helper that calls only itself is unreferenced."""
    statements = [(stem, node) for stem, text in sources.items() for node in ast.parse(text).body]

    def names(node) -> set[str]:
        return {sub.id if isinstance(sub, ast.Name) else sub.attr
                for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute))}

    names_in = {id(node): names(node) for _, node in statements}
    for _, cls in statements:
        if isinstance(cls, ast.ClassDef):
            names_in.update((id(member), names(member)) for member in cls.body)

    def private(node) -> bool:
        return (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name.startswith("_") and not node.name.startswith("__"))

    def named(node, others) -> bool:
        return any(node.name in names_in[id(other)] for other in others if other is not node)

    top = [node for _, node in statements]
    dead = [f"{stem}.{node.name}" for stem, node in statements if private(node) and not named(node, top)]
    for stem, cls in statements:
        if isinstance(cls, ast.ClassDef):
            others = [node for node in top if node is not cls] + cls.body
            dead += [f"{stem}.{cls.name}.{member.name}" for member in cls.body
                     if private(member) and not named(member, others)]
    return dead


def test_dead_private_definition_detector():
    sources = {
        "a": "def _used():\n    pass\ndef _dead():\n    return _dead()\nclass _Gone:\n    pass\n"
             "class Kept:\n    def _loop(self):\n        return self._loop()\n"
             "    def _called(self):\n        pass\n    def run(self):\n        return self._called()\n"
             "    def _outside(self):\n        pass\n    def __init__(self):\n        pass\n",
        "b": "from a import _used\nx = a._used\ny = a.Kept()._outside\n",
    }
    assert _unreferenced_private_definitions(sources) == ["a._dead", "a._Gone", "a.Kept._loop"]


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


STATUS_LITERALS = {"pass", "fail", "not-applicable"}


def _literal_lines(source: str, words) -> list[int]:
    """Lines of ``source`` holding a string constant that is one of ``words``."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Constant) and node.value in words})


def test_status_literal_detector():
    source = 'x = "pass" if ok else "fail"\ny = f"passed {x}"\n"""pass"""\nz = ("not-applicable",)\n'
    assert _literal_lines(source, STATUS_LITERALS) == [1, 3, 4]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.stem != "report"], ids=lambda path: path.name)
def test_verdict_statuses_are_spelled_only_in_report(path):
    # a stage is decided through StageVerdict's constructors, so the status
    # vocabulary lives in one module
    assert _literal_lines(path.read_text(encoding="utf-8"), STATUS_LITERALS) == []


@pytest.mark.parametrize("path", [p for p in SOURCES if p.stem != "geometry"], ids=lambda path: path.name)
def test_model_kinds_and_library_names_are_spelled_only_in_geometry(path):
    # a model kind is a factory of geometry.MODELS and a library model a spec of
    # geometry.LIBRARY; every other module reads them from there
    from pinchlab import geometry

    words = set(geometry.MODELS) | set(geometry.LIBRARY)
    assert _literal_lines(path.read_text(encoding="utf-8"), words) == []


def _id_keyed_lines(source: str) -> list[int]:
    """Lines of ``source`` that key a container by an object's identity: a
    call of the builtin ``id`` as a subscript, a dict key, the key of a
    ``get``, ``setdefault`` or ``pop``, or the left side of ``in``."""

    def is_id(node) -> bool:
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "id")

    keys = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript):
            keys.append(node.slice)
        elif isinstance(node, ast.Dict):
            keys += [key for key in node.keys if key is not None]
        elif isinstance(node, ast.DictComp):
            keys.append(node.key)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("get", "setdefault", "pop") and node.args):
            keys.append(node.args[0])
        elif isinstance(node, ast.Compare) and isinstance(node.ops[0], (ast.In, ast.NotIn)):
            keys.append(node.left)
    return sorted({key.lineno for key in keys if is_id(key)})


def test_id_keyed_cache_detector():
    source = (
        "cache[id(model)] = fit\n"
        "fits = {id(m): m.fit for m in models}\n"
        "x = cache.get(id(model))\n"
        "seen = {id(a): 1, 'b': 2}\n"
        "if id(model) not in cache:\n"
        "    pass\n"
        "print(id(model))\n"
        "y = cache[ident(model)]\n"
        "z = obj.id(model)\n"
        "w = cache.setdefault(id(model), [])\n"
    )
    assert _id_keyed_lines(source) == [1, 2, 3, 4, 5, 10]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_cache_is_keyed_by_object_identity(path):
    # a result that depends on an object is kept on that object (as a model
    # keeps its pinching report, growth fits and solve grid's warp) and freed
    # with it; an id() can be reused by a new object once the old one is freed
    assert _id_keyed_lines(path.read_text(encoding="utf-8")) == []
