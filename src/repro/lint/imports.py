"""Static import graph over a ``repro`` source tree.

Built purely from the AST — every ``import``/``from ... import`` in a
module, including the lazy function-body imports the codebase uses to
keep startup cheap, becomes an edge.  So does the step from each
module to its parent package, because Python runs the package's
``__init__`` before the module (``from repro.te.lp import X`` runs
``repro/__init__.py`` and ``repro/te/__init__.py`` too).  The graph
powers both the layering rules (L001-L005 check the transitive
closure) and the artifact fingerprints
(:func:`repro.fingerprint.import_closure` hashes the closure of an
entry module).

Only edges *inside* the linted package (``repro.*``) are recorded:
stdlib and third-party imports are irrelevant to layering and are
already outside the fingerprint contract.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable


@dataclass(frozen=True)
class ImportEdge:
    """One ``importer -> imported`` edge with its source location."""

    imported: str
    line: int


@dataclass
class ImportGraph:
    """Adjacency of intra-package imports, keyed by dotted module name."""

    #: dotted module name -> source path (for reporting)
    files: dict[str, Path] = field(default_factory=dict)
    #: dotted module name -> outgoing edges, sorted by (imported, line)
    edges: dict[str, tuple[ImportEdge, ...]] = field(default_factory=dict)

    @property
    def modules(self) -> tuple[str, ...]:
        return tuple(sorted(self.files))

    def imports_of(self, module: str) -> tuple[ImportEdge, ...]:
        return self.edges.get(module, ())

    def closure(self, roots: Iterable[str]) -> set[str]:
        """Every module reachable from ``roots`` (roots included)."""
        seen: set[str] = set()
        queue = deque(sorted(set(roots)))
        while queue:
            module = queue.popleft()
            if module in seen:
                continue
            seen.add(module)
            for edge in self.edges.get(module, ()):
                if edge.imported not in seen:
                    queue.append(edge.imported)
        return seen

    def path_between(self, start: str, targets: set[str]) -> list[str] | None:
        """Shortest import chain from ``start`` into ``targets`` (BFS)."""
        if start in targets:
            return [start]
        parents: dict[str, str] = {}
        queue = deque([start])
        seen = {start}
        while queue:
            module = queue.popleft()
            for edge in self.edges.get(module, ()):
                if edge.imported in seen:
                    continue
                parents[edge.imported] = module
                if edge.imported in targets:
                    chain = [edge.imported]
                    while chain[-1] != start:
                        chain.append(parents[chain[-1]])
                    return list(reversed(chain))
                seen.add(edge.imported)
                queue.append(edge.imported)
        return None


def module_name_for(path: Path, package_root: Path) -> str:
    """Dotted name of ``path`` under ``package_root``'s *parent*.

    ``package_root`` is the directory of the top-level package (e.g.
    ``src/repro``); ``src/repro/state/model.py`` -> ``repro.state.model``,
    ``src/repro/state/__init__.py`` -> ``repro.state``.
    """
    relative = path.resolve().relative_to(package_root.resolve().parent)
    parts = list(relative.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _resolve_from(
    module: str, is_package: bool, node: ast.ImportFrom, universe: set[str]
) -> list[str]:
    """Targets of a ``from X import a, b`` — submodules when they exist."""
    if node.level == 0:
        base = node.module or ""
    else:
        # relative import: climb `level` packages from the importer
        parts = module.split(".")
        if not is_package:
            parts = parts[:-1]
        climb = node.level - 1
        if climb:
            parts = parts[:-climb] if climb < len(parts) else []
        base = ".".join(parts + ([node.module] if node.module else []))
    if not base and not node.names:
        return []
    targets: list[str] = []
    for alias in node.names:
        candidate = f"{base}.{alias.name}" if base else alias.name
        if candidate in universe:
            targets.append(candidate)
        elif base:
            targets.append(base)
    return targets


def build_import_graph(package_root: Path) -> ImportGraph:
    """Parse every ``.py`` under ``package_root`` into an ImportGraph."""
    package_root = package_root.resolve()
    top = package_root.name
    files: dict[str, Path] = {}
    trees: dict[str, tuple[ast.Module, bool]] = {}
    for path in sorted(package_root.rglob("*.py")):
        name = module_name_for(path, package_root)
        files[name] = path
        trees[name] = (
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path)),
            path.name == "__init__.py",
        )
    universe = set(files)
    edges: dict[str, tuple[ImportEdge, ...]] = {}
    prefix = top + "."
    for name, (tree, is_package) in trees.items():
        found: dict[str, int] = {}

        def record(target: str, line: int) -> None:
            # clamp to the nearest module that actually exists (an
            # ``import repro.state.model`` also imports repro.state)
            while target and target not in universe:
                target = target.rpartition(".")[0]
            if target and target != name and line < found.get(target, 1 << 30):
                found[target] = line

        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == top or alias.name.startswith(prefix):
                        record(alias.name, node.lineno)
            elif isinstance(node, ast.ImportFrom):
                for target in _resolve_from(name, is_package, node, universe):
                    if target == top or target.startswith(prefix):
                        record(target, node.lineno)
        # importing a module first runs its parent package's __init__,
        # before the module's first line, even if it names its parent later
        parent = name.rpartition(".")[0]
        if parent in universe:
            found[parent] = 1
        edges[name] = tuple(
            ImportEdge(imported=target, line=line)
            for target, line in sorted(found.items())
        )
    return ImportGraph(files=files, edges=edges)
