"""The lint driver: discovery, caching, suppression, aggregation.

Deterministic by construction — files are discovered in sorted order,
findings are sorted on ``(path, line, col, code)``, and the on-disk
result cache is *content-keyed*: a file's per-file findings are stored
under ``sha256(source bytes + rule configuration + analyzer
fingerprint)``, so a cache hit is exact by definition and editing any
analyzer module (or the name catalog) invalidates every entry, the same
contract the telemetry summary cache follows.  Graph rules (L001-L005)
always run fresh — they are whole-package properties, cheap next
to parsing.

``REPRO_NO_CACHE=1`` (or ``cache=False``) bypasses the cache, as
everywhere else in the repository.
"""

from __future__ import annotations

import ast
import hashlib
import io
import json
import os
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.baseline import Baseline, apply_baseline, load_baseline
from repro.lint.layers import (
    LayerContract,
    check_layers,
    check_reachability,
    load_contract,
)
from repro.lint.model import PRAGMA_RE, RULES, Finding, parse_pragmas, split_suppressed
from repro.lint.rules import RuleConfig, check_file

_CACHE_SCHEMA = 1


@dataclass
class LintResult:
    """Everything one lint run learned, already partitioned."""

    findings: list[Finding] = field(default_factory=list)
    pragma_suppressed: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    n_files: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def counts_by_code(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return counts

    def to_payload(self) -> dict:
        return {
            "schema": 1,
            "clean": self.clean,
            "n_files": self.n_files,
            "counts": self.counts_by_code(),
            "findings": [f.to_payload() for f in self.findings],
            "suppressed": {
                "pragma": [f.to_payload() for f in self.pragma_suppressed],
                "baseline": [f.to_payload() for f in self.baselined],
            },
        }


def discover_files(paths: list[Path]) -> list[Path]:
    """Sorted ``.py`` files under ``paths`` (files pass through)."""
    files: set[Path] = set()
    for path in paths:
        if path.is_dir():
            files.update(p for p in path.rglob("*.py"))
        elif path.suffix == ".py":
            files.add(path)
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")
    return sorted(p.resolve() for p in files)


def module_name_of(path: Path) -> str:
    """Dotted module name, walking up while ``__init__.py`` exists."""
    path = path.resolve()
    parts = [path.stem] if path.name != "__init__.py" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    return ".".join(reversed(parts)) or path.stem


def _package_roots(files: list[Path]) -> list[Path]:
    """Distinct top-level package directories among ``files``."""
    roots: set[Path] = set()
    for path in files:
        parent = path.parent
        if not (parent / "__init__.py").exists():
            continue
        while (parent.parent / "__init__.py").exists():
            parent = parent.parent
        roots.add(parent)
    return sorted(roots)


def _cache_dir() -> Path | None:
    if os.environ.get("REPRO_NO_CACHE"):
        return None
    base = os.environ.get("REPRO_CACHE_DIR")
    root = Path(base) if base else Path.home() / ".cache" / "repro"
    return root / "lint"


_ANALYZER_FINGERPRINT: str | None = None


def _analyzer_fingerprint() -> str:
    """Digest over the analyzer's own source (cache invalidation)."""
    global _ANALYZER_FINGERPRINT
    if _ANALYZER_FINGERPRINT is None:
        from repro.fingerprint import fingerprint_modules

        _ANALYZER_FINGERPRINT = fingerprint_modules(
            [
                "repro.lint.baseline",
                "repro.lint.imports",
                "repro.lint.layers",
                "repro.lint.model",
                "repro.lint.rules",
                "repro.lint.runner",
            ]
        )
    return _ANALYZER_FINGERPRINT


def _config_digest(config: RuleConfig) -> str:
    payload = {
        "schema": _CACHE_SCHEMA,
        "wall": config.wall_clock_allowed,
        "random": config.randomness_allowed,
        "order": config.order_sensitive,
        "json": config.canonical_json,
        "enabled": sorted(config.enabled),
        "catalog": sorted(config.resolved_catalog()),
        "analyzer": _analyzer_fingerprint(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _check_file_cached(
    path: Path,
    source: str,
    module: str,
    config: RuleConfig,
    config_digest: str,
    cache_dir: Path | None,
) -> list[Finding]:
    key = hashlib.sha256(
        (config_digest + "\x00" + module + "\x00" + source).encode("utf-8")
    ).hexdigest()
    if cache_dir is not None:
        entry = cache_dir / f"{key}.json"
        if entry.exists():
            try:
                payload = json.loads(entry.read_text(encoding="utf-8"))
                return [Finding.from_payload(p) for p in payload["findings"]]
            except (ValueError, KeyError):
                pass  # corrupt entry: recompute and overwrite
    tree = ast.parse(source, filename=str(path))
    findings = check_file(module, tree, config)
    if cache_dir is not None:
        cache_dir.mkdir(parents=True, exist_ok=True)
        tmp = cache_dir / f".{key}.tmp"
        tmp.write_text(
            json.dumps(
                {"findings": [f.to_payload() for f in findings]},
                sort_keys=True,
            ),
            encoding="utf-8",
        )
        os.replace(tmp, cache_dir / f"{key}.json")
    return findings


def _unused_pragma_findings(
    source: str, relpath: str, used_lines: set[int]
) -> list[Finding]:
    """One P001 per pragma whose codes suppressed nothing (strict)."""
    findings: list[Finding] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return findings
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = PRAGMA_RE.search(tok.string)
        if not match:
            continue
        lineno = tok.start[0]
        covers = {lineno}
        if tok.line.lstrip().startswith("#"):
            covers.add(lineno + 1)
        if covers & used_lines:
            continue
        findings.append(
            Finding(
                path=relpath,
                line=lineno,
                col=tok.start[1] + match.start() + 1,
                code="P001",
                message=(
                    f"pragma allow[{match.group(1)}] suppresses no finding"
                ),
                hint=RULES["P001"].hint,
            )
        )
    return findings


def lint_paths(
    paths: list[Path],
    *,
    base: Path | None = None,
    config: RuleConfig | None = None,
    contract: LayerContract | None = None,
    baseline: Baseline | None = None,
    strict: bool = False,
    cache: bool | None = None,
    graph_rules: bool = True,
) -> LintResult:
    """Lint ``paths`` and return the partitioned result.

    ``base`` anchors the relative paths findings carry (default: cwd).
    ``strict`` additionally reports stale baseline entries (B001) and
    dead pragmas (P001).
    """
    base = (base or Path.cwd()).resolve()
    config = config or RuleConfig()
    contract = contract or load_contract()
    baseline = baseline or load_baseline(None)
    files = discover_files(paths)
    cache_dir = _cache_dir() if cache in (None, True) else None
    config_digest = _config_digest(config)

    def rel(path: Path) -> str:
        try:
            return path.resolve().relative_to(base).as_posix()
        except ValueError:
            return path.as_posix()

    raw: list[Finding] = []
    pragma_suppressed: list[Finding] = []
    strict_extras: list[Finding] = []
    for path in files:
        source = path.read_text(encoding="utf-8")
        module = module_name_of(path)
        relpath = rel(path)
        per_file = [
            Finding(
                path=relpath,
                line=f.line,
                col=f.col,
                code=f.code,
                message=f.message,
                hint=f.hint,
            )
            for f in _check_file_cached(
                path, source, module, config, config_digest, cache_dir
            )
        ]
        pragmas = parse_pragmas(source)
        active, suppressed = split_suppressed(per_file, pragmas)
        raw.extend(active)
        pragma_suppressed.extend(suppressed)
        if strict:
            strict_extras.extend(
                _unused_pragma_findings(
                    source, relpath, {f.line for f in suppressed}
                )
            )

    if graph_rules:
        from repro.lint.imports import build_import_graph

        linted_rel = {rel(p) for p in files}
        for root in _package_roots(files):
            graph = build_import_graph(root)
            relpaths = {
                name: rel(path) for name, path in graph.files.items()
            }
            # the graph spans the whole package (closure needs it), but
            # only modules the user asked to lint may yield findings
            layer_findings = [
                f
                for f in check_layers(graph, contract, relpaths)
                + check_reachability(graph, contract, relpaths)
                if f.path in linted_rel
            ]
            raw.extend(layer_findings)

    active, baselined, stale = apply_baseline(raw, baseline, strict=strict)
    findings = sorted(active + stale + (strict_extras if strict else []))
    return LintResult(
        findings=findings,
        pragma_suppressed=sorted(pragma_suppressed),
        baselined=sorted(baselined),
        n_files=len(files),
    )
