"""``repro lint`` — the analyzer's front end.

Exit codes (stable, documented in README):

* ``0`` — clean: no active findings (pragma-suppressed ones don't count);
* ``1`` — findings reported;
* ``2`` — usage error (unknown rule code, bad path, bad format).

``--explain CODE`` prints a rule's rationale and fix-it guidance;
``--format json`` prints the machine-readable findings.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.lint.model import RULES
from repro.lint.runner import LintResult, lint_paths

USAGE_ERROR = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "determinism & layering static analysis "
            "(rules: " + ", ".join(sorted(RULES)) + ")"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--explain",
        metavar="CODE",
        help="print one rule's rationale and fix-it hint, then exit",
    )
    return parser


def explain(code: str) -> int:
    rule = RULES.get(code.upper())
    if rule is None:
        print(
            f"unknown rule code {code!r} (known: {', '.join(sorted(RULES))})",
            file=sys.stderr,
        )
        return USAGE_ERROR
    print(f"{rule.code}: {rule.title}")
    print()
    print(f"  why: {rule.rationale}")
    print()
    print(f"  fix: {rule.hint}")
    print()
    print(f"  suppress: # repro: allow[{rule.code}] -- <reason>")
    return 0


def render_text(result: LintResult) -> str:
    lines = [f.render() for f in result.findings]
    counts = result.counts_by_code()
    summary = (
        f"{len(result.findings)} finding(s) in {result.n_files} file(s)"
        + (
            " [" + ", ".join(f"{c}={n}" for c, n in sorted(counts.items())) + "]"
            if counts
            else ""
        )
        + f"; suppressed: {len(result.pragma_suppressed)} pragma"
    )
    lines.append(summary)
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad usage already
        return int(exc.code or 0)
    if args.explain:
        return explain(args.explain)

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(
            f"no such path(s): {', '.join(str(p) for p in missing)}",
            file=sys.stderr,
        )
        return USAGE_ERROR
    result = lint_paths(paths)
    if args.format == "json":
        print(json.dumps(result.to_payload(), sort_keys=True, indent=1))
    else:
        print(render_text(result))
    return 0 if result.clean else 1
