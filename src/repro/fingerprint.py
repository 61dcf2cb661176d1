"""Source-code fingerprints for content-addressed caching.

Both caches in the repository — the telemetry summary cache
(:mod:`repro.telemetry.cache`) and the experiment artifact store
(:mod:`repro.experiments.store`) — key their entries on a hash that
includes the *code* that produced the value, so editing any module in
the producing chain transparently invalidates old entries.  This
module holds the hashing primitive they share and derives the module
set to hash from the static import graph (:func:`import_closure`), so
no cache keeps a hand-written list that can drift from the code.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - the graph is built lazily
    from repro.lint.imports import ImportGraph

_fingerprint_cache: dict[tuple[str, ...], str] = {}


def fingerprint_modules(module_names: Iterable[str]) -> str:
    """SHA-256 over the source bytes of the named modules (memoised).

    Module names are imported on first use; order does not matter (the
    digest walks them sorted), so callers can declare dependencies in
    whatever order reads best.
    """
    key = tuple(sorted(set(module_names)))
    if not key:
        raise ValueError("fingerprint needs at least one module")
    cached = _fingerprint_cache.get(key)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    for name in key:
        module = importlib.import_module(name)
        path = getattr(module, "__file__", None)
        if path is None:  # pragma: no cover - builtins have no source
            digest.update(name.encode("utf-8"))
        else:
            digest.update(Path(path).read_bytes())
    result = digest.hexdigest()
    _fingerprint_cache[key] = result
    return result


@functools.cache
def _package_graph() -> ImportGraph:
    from repro.lint.imports import build_import_graph

    return build_import_graph(Path(__file__).resolve().parent)


@functools.cache
def import_closure(root: str) -> tuple[str, ...]:
    """Every ``repro`` module statically reachable from ``root``, sorted.

    Walks the AST import graph the layering rules use
    (:func:`repro.lint.imports.build_import_graph`), so lazy
    function-body imports count like module-level ones.  Modules under
    ``[fingerprint] exempt`` in ``repro/lint/layers.toml`` (observability
    and presentation layers proven result-inert) are left out.
    """
    from repro.lint.layers import load_contract

    contract = load_contract()
    return tuple(
        sorted(
            m for m in _package_graph().closure([root]) if not contract.is_exempt(m)
        )
    )
