"""Source lint: no new import cycle between the packages of ``repro``.

The layers are meant to stack (``sim`` at the bottom, ``cli`` at the
top), so a package that imports a package which imports it back ties
two layers together.  This test walks ``src/repro`` with :mod:`ast` and
builds the package-level import graph from every import statement —
module-level, function-local (lazy) and ``TYPE_CHECKING``-guarded
alike.  A top-level module such as ``cli.py`` counts as its own
package.  The mutually importing pairs must stay within
:data:`_ALLOWED`, the cycles that remain to be cut: shrink the set as
each one goes, never grow it.
"""

from __future__ import annotations

import ast
import os

import repro

_SRC_ROOT = os.path.dirname(os.path.abspath(repro.__file__))

#: package pairs that still import each other
_ALLOWED = {
    frozenset({"core", "supervisor"}),
    frozenset({"core", "rejuvenation"}),
    frozenset({"obs", "sim"}),
}


def _package(parts):
    """The top-level package of a module path under ``repro``."""
    return parts[0] if parts else "repro"


def _imported_modules(tree, package_parts):
    """Every ``repro`` module path (parts below ``repro``) imported."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "repro":
                    yield parts[1:]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package_parts[:len(package_parts) - node.level + 1]
            elif node.module.split(".")[0] == "repro":
                base = []
            else:
                continue
            module = node.module.split(".") if node.module else []
            if not node.level:
                module = module[1:]
            parts = base + module
            if parts:
                yield parts
            else:
                # ``from .. import name`` at the top: a submodule or
                # subpackage if one exists, else the root package
                for alias in node.names:
                    path = os.path.join(_SRC_ROOT, alias.name)
                    is_module = os.path.isdir(path) \
                        or os.path.exists(path + ".py")
                    yield [alias.name] if is_module else []


def _import_graph():
    edges = {}
    for dirpath, _dirnames, filenames in os.walk(_SRC_ROOT):
        for name in filenames:
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            parts = os.path.relpath(path, _SRC_ROOT)[:-3].split(os.sep)
            package_parts = parts[:-1]
            if parts[-1] == "__init__":
                parts = package_parts
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=path)
            source = _package(parts)
            for target in _imported_modules(tree, package_parts):
                dest = _package(target)
                if dest != source:
                    edges.setdefault(source, set()).add(dest)
    return edges


def test_no_new_package_import_cycles():
    edges = _import_graph()
    mutual = {frozenset({a, b}) for a, targets in edges.items()
              for b in targets if a in edges.get(b, ())}
    new = sorted(" <-> ".join(sorted(pair)) for pair in mutual - _ALLOWED)
    assert not new, (
        "packages that import each other (keep imports pointing down "
        "the layer order):\n  " + "\n  ".join(new))


def test_walk_counts_lazy_and_type_checking_imports():
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from ..sim import engine\n"
        "def build():\n"
        "    from ..obs.metrics import fold\n"
        "    import repro.fleet.campaign\n"
        "    from .. import cli, reference_mode\n")
    found = {_package(parts) for parts in _imported_modules(tree, ["core"])}
    assert found == {"sim", "obs", "fleet", "cli", "repro"}
