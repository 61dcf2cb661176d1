"""L001-L004: import-DAG layering, declared in ``layers.toml``.

Generalizes PR 7's ad-hoc runtime probe (import :mod:`repro.state`,
assert no simulator landed in ``sys.modules``) into a static, transitive
check over the whole :class:`~repro.lint.imports.ImportGraph`: for every
contract rule, no module in its ``scope`` may reach a module in its
``forbid`` list.  Because the graph includes lazy function-body imports,
this is *stricter* than the runtime probe — a deferred import that only
fires on an error path still violates the boundary.

The contract file is TOML; on Python < 3.11 (no :mod:`tomllib`) a
restricted built-in parser covers the subset the contract uses (string
scalars, string arrays, ``[[rules]]`` array-of-tables, ``[fingerprint]``
table) so the 3.10 CI lane lints identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.lint.imports import ImportGraph
from repro.lint.model import RULES, Finding

DEFAULT_CONTRACT = Path(__file__).with_name("layers.toml")


@dataclass(frozen=True)
class LayerRule:
    code: str
    title: str
    scope: tuple[str, ...]
    forbid: tuple[str, ...]


@dataclass(frozen=True)
class LayerContract:
    rules: tuple[LayerRule, ...]
    fingerprint_exempt: tuple[str, ...]

    def is_exempt(self, module: str) -> bool:
        """True when ``module`` is left out of artifact fingerprints."""
        return _under(module, self.fingerprint_exempt)


def _parse_toml_minimal(text: str) -> dict[str, Any]:
    """Parse the restricted TOML subset ``layers.toml`` uses.

    Supports comments, ``key = "string"``, ``key = <int>``,
    ``key = ["a", "b"]`` (single line), ``[table]`` and ``[[array]]``
    headers — exactly what the contract needs, nothing more.
    """
    root: dict[str, Any] = {}
    current: dict[str, Any] = root
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[[") and line.endswith("]]"):
            name = line[2:-2].strip()
            current = {}
            root.setdefault(name, []).append(current)
        elif line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            current = root.setdefault(name, {})
        else:
            key, _, value = line.partition("=")
            current[key.strip()] = _parse_value(value.strip())
    return root


def _parse_value(value: str) -> Any:
    if value.startswith("[") and value.endswith("]"):
        inner = value[1:-1].strip()
        if not inner:
            return []
        return [_parse_value(item.strip()) for item in inner.split(",") if item.strip()]
    if value.startswith('"') and value.endswith('"'):
        return value[1:-1]
    return int(value)


def load_contract(path: Path | None = None) -> LayerContract:
    """Read the layering contract (tomllib when available)."""
    path = path or DEFAULT_CONTRACT
    text = path.read_text(encoding="utf-8")
    try:
        import tomllib

        payload = tomllib.loads(text)
    except ModuleNotFoundError:  # Python 3.10
        payload = _parse_toml_minimal(text)
    rules = tuple(
        LayerRule(
            code=entry["code"],
            title=entry["title"],
            scope=tuple(entry["scope"]),
            forbid=tuple(entry["forbid"]),
        )
        for entry in payload.get("rules", [])
    )
    exempt = tuple(payload.get("fingerprint", {}).get("exempt", []))
    return LayerContract(rules=rules, fingerprint_exempt=exempt)


def _under(module: str, prefixes: tuple[str, ...]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


def check_layers(
    graph: ImportGraph,
    contract: LayerContract,
    relpath: dict[str, str],
) -> list[Finding]:
    """Every contract rule against every scoped module in ``graph``.

    ``relpath`` maps dotted module names to the path string findings
    should carry (relative to the lint root).
    """
    findings: list[Finding] = []
    for rule in contract.rules:
        scoped = [m for m in graph.modules if _under(m, rule.scope)]
        forbidden = {
            m for m in graph.modules if _under(m, rule.forbid)
        }
        if not forbidden:
            continue
        for module in scoped:
            reachable = graph.closure([module]) & forbidden
            if not reachable:
                continue
            target = min(reachable)
            chain = graph.path_between(module, {target}) or [module, target]
            # report at the direct import that starts the chain
            first_hop = chain[1] if len(chain) > 1 else target
            line = next(
                (
                    e.line
                    for e in graph.imports_of(module)
                    if e.imported == first_hop
                ),
                1,
            )
            findings.append(
                Finding(
                    path=relpath.get(module, module),
                    line=line,
                    col=1,
                    code=rule.code,
                    message=(
                        f"{module} reaches forbidden module {target} "
                        f"(via {' -> '.join(chain)}); {rule.title}"
                    ),
                    hint=RULES[rule.code].hint,
                )
            )
    return sorted(findings)
