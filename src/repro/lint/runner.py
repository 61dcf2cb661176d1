"""The lint driver: discovery, suppression, aggregation.

Deterministic by construction — files are discovered in sorted order
and findings are sorted on ``(path, line, col, code)``.  Every run
parses every file: the graph rules (L001-L005) run once per package,
since they are whole-package properties, then per-file rules
(D001-D004, T001) run file by file, and each file's pragmas suppress
its per-file and graph findings alike (P001 flags the pragmas that
suppressed nothing).
"""

from __future__ import annotations

import ast
import io
import tokenize
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.lint.imports import build_import_graph
from repro.lint.layers import (
    LayerContract,
    check_layers,
    check_reachability,
    load_contract,
)
from repro.lint.model import PRAGMA_RE, RULES, Finding, parse_pragmas, split_suppressed
from repro.lint.rules import RuleConfig, check_file


@dataclass
class LintResult:
    """Everything one lint run learned, already partitioned."""

    findings: list[Finding] = field(default_factory=list)
    pragma_suppressed: list[Finding] = field(default_factory=list)
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


def _unused_pragma_findings(
    source: str, relpath: str, used_lines: set[int]
) -> list[Finding]:
    """One P001 per pragma whose codes suppressed nothing."""
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
) -> LintResult:
    """Lint ``paths`` and return the partitioned result.

    ``base`` anchors the relative paths findings carry (default: cwd).
    """
    base = (base or Path.cwd()).resolve()
    config = config or RuleConfig()
    contract = contract or load_contract()
    files = discover_files(paths)

    def rel(path: Path) -> str:
        try:
            return path.resolve().relative_to(base).as_posix()
        except ValueError:
            return path.as_posix()

    linted_rel = {rel(p) for p in files}
    graph_findings: dict[str, list[Finding]] = {}
    for root in _package_roots(files):
        graph = build_import_graph(root)
        relpaths = {name: rel(path) for name, path in graph.files.items()}
        # the graph spans the whole package (closure needs it), but
        # only modules the user asked to lint may yield findings
        for f in check_layers(graph, contract, relpaths) + check_reachability(
            graph, contract, relpaths
        ):
            if f.path in linted_rel:
                graph_findings.setdefault(f.path, []).append(f)

    findings: list[Finding] = []
    pragma_suppressed: list[Finding] = []
    for path in files:
        source = path.read_text(encoding="utf-8")
        relpath = rel(path)
        tree = ast.parse(source, filename=str(path))
        # a file's pragmas cover its graph findings too: L001-L004 sit
        # on the import line, L005 on line 1
        candidates = [
            replace(f, path=relpath)
            for f in check_file(module_name_of(path), tree, config)
        ] + graph_findings.get(relpath, [])
        active, suppressed = split_suppressed(candidates, parse_pragmas(source))
        findings.extend(active)
        pragma_suppressed.extend(suppressed)
        findings.extend(
            _unused_pragma_findings(source, relpath, {f.line for f in suppressed})
        )

    return LintResult(
        findings=sorted(findings),
        pragma_suppressed=sorted(pragma_suppressed),
        n_files=len(files),
    )
