"""Every module under ``src/repro`` is reached from the CLI or a benchmark.

``src/`` holds what a figure or a benchmark runs; a module that nothing
reaches from ``repro.cli``, ``repro.__main__`` or a file under
``benchmarks/`` belongs in ``tests/`` or nowhere.  The check reads the
source with :mod:`ast` and executes nothing:

* ``import a.b`` is an edge to ``a.b``;
* ``from pkg import Name`` is an edge to the module that *defines*
  ``Name`` (a submodule of that name, or the module whose top level binds
  it), following re-exports through package ``__init__`` files;
* a package ``__init__`` runs whenever one of its submodules is imported,
  so it is reached with them, but its re-exports are not edges: only the
  imports that code in the ``__init__`` itself uses are;
* a string naming a module (``import_module("repro.x")`` in a benchmark)
  is an edge too.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"
PACKAGE = "repro"
ROOT_MODULES = ("repro.cli", "repro.__main__")


def _module_paths() -> dict[str, Path]:
    paths: dict[str, Path] = {}
    for path in sorted((SRC / PACKAGE).rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        paths[".".join(parts)] = path
    return paths


MODULES = _module_paths()


def _is_package(module: str) -> bool:
    return MODULES[module].name == "__init__.py"


@lru_cache(maxsize=None)
def _tree(module: str) -> ast.Module:
    return ast.parse(MODULES[module].read_text(), filename=str(MODULES[module]))


def _absolute(module: str | None, level: int, importer: str | None) -> str:
    """The absolute name of an ``ImportFrom`` target."""
    if not level:
        return module or ""
    if importer is None:  # a benchmark's import of its own sibling file
        return ""
    base = importer.split(".")
    if not _is_package(importer):
        base.pop()
    base = base[: len(base) - (level - 1)]
    return ".".join(base + ([module] if module else []))


def _top_level_bindings(module: str) -> tuple[set[str], dict[str, tuple[str, str]]]:
    """Names ``module`` defines itself, and names it imports ``from`` elsewhere."""
    defined: set[str] = set()
    imported: dict[str, tuple[str, str]] = {}
    for node in _tree(module).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                defined.update(
                    n.id for n in ast.walk(target) if isinstance(n, ast.Name)
                )
        elif isinstance(node, ast.ImportFrom):
            source = _absolute(node.module, node.level, module)
            for alias in node.names:
                imported[alias.asname or alias.name] = (source, alias.name)
    return defined, imported


@lru_cache(maxsize=None)
def _defining_module(source: str, name: str) -> str | None:
    """The in-package module that defines ``name`` as seen from ``source``."""
    if f"{source}.{name}" in MODULES:
        return f"{source}.{name}"
    if source not in MODULES:
        return None
    defined, imported = _top_level_bindings(source)
    if name in defined or name not in imported:
        return source
    return _defining_module(*imported[name])


def _used_names(module: str) -> set[str]:
    """Names a module's own code loads (its ``__all__`` list aside)."""
    names: set[str] = set()
    for node in _tree(module).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            continue
        names.update(
            n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        )
    return names


def _edges(tree: ast.Module, importer: str | None) -> set[str]:
    """In-package modules that ``tree`` (the code of ``importer``) reaches."""
    reexporter = importer is not None and _is_package(importer)
    used = _used_names(importer) if reexporter else set()
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if alias.name in MODULES and (not reexporter or bound in used):
                    found.add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            source = _absolute(node.module, node.level, importer)
            for alias in node.names:
                if reexporter and (alias.asname or alias.name) not in used:
                    continue
                target = _defining_module(source, alias.name)
                if target is not None:
                    found.add(target)
        elif isinstance(node, ast.Constant) and node.value in MODULES:
            found.add(node.value)
    return found


def _with_packages(module: str) -> list[str]:
    """``module`` and every package ``__init__`` importing it runs."""
    parts = module.split(".")
    return [".".join(parts[:i]) for i in range(1, len(parts) + 1)]


def reached_modules() -> set[str]:
    """Every ``src/repro`` module reachable from the CLI and the benchmarks."""
    frontier: list[str] = list(ROOT_MODULES)
    for path in sorted((REPO_ROOT / "benchmarks").rglob("*.py")):
        frontier.extend(_edges(ast.parse(path.read_text(), filename=str(path)), None))
    reached: set[str] = set()
    while frontier:
        for module in _with_packages(frontier.pop()):
            if module in reached:
                continue
            reached.add(module)
            frontier.extend(_edges(_tree(module), module))
    return reached


def test_roots_exist():
    for module in ROOT_MODULES:
        assert module in MODULES


def test_from_import_resolves_through_reexports():
    # ``repro.cloud`` re-exports FaaSClient; the edge lands on its definer.
    assert _defining_module("repro.cloud", "FaaSClient") == "repro.cloud.api"
    assert _defining_module("repro.experiments", "base") == "repro.experiments.base"


def test_every_src_module_is_reached():
    unreached = sorted(set(MODULES) - reached_modules())
    assert not unreached, (
        f"{len(unreached)} module(s) under src/repro are reached from neither "
        f"repro.cli nor benchmarks/: {unreached}"
    )
