"""The package namespace: every exported name resolves, and the modules
form one layer order with no back edges."""

import ast
from pathlib import Path

import worldtrack

# each module may import only modules before it; the package root is last
LAYERS = ("errors", "geometry", "data", "camera", "bench", "seqio", "oracle", "losses",
          "gradcheck", "cli", "__init__")


def test_all_names_resolve():
    missing = [name for name in worldtrack.__all__ if not hasattr(worldtrack, name)]
    assert missing == []
    assert len(set(worldtrack.__all__)) == len(worldtrack.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from worldtrack import *", namespace)
    assert set(worldtrack.__all__) <= namespace.keys()


def _package_imports(source: str):
    """The package modules ``source`` imports: ``from .x import ...`` and
    ``from . import x``, where ``from . import __version__`` names none."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                yield node.module
            else:
                yield from (a.name for a in node.names if a.name != "__version__")


def test_modules_import_only_earlier_layers():
    src = Path(worldtrack.__file__).parent
    assert sorted(p.stem for p in src.glob("*.py")) == sorted(LAYERS)
    back_edges = [
        f"{name} -> {dep}"
        for name in LAYERS
        for dep in _package_imports((src / f"{name}.py").read_text())
        if dep not in LAYERS[:LAYERS.index(name)]
    ]
    assert back_edges == []
