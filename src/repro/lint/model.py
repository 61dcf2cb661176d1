"""Findings, rule metadata and pragma suppression for :mod:`repro.lint`.

A *finding* is one violation of one rule at one source location.  Every
rule has a stable code (``D001`` ... ``T001``), a one-line title, a
rationale and a fix-it hint — ``repro lint --explain CODE`` prints the
latter two verbatim, and the JSON output embeds the hint so CI
annotations stay actionable.

Suppression is explicit and auditable, never silent: an inline pragma
``# repro: allow[D001]`` (optionally ``allow[D001,D003]``, optionally
followed by ``-- reason``) on the offending line, or on a comment-only
line immediately above it.  A pragma that suppresses nothing is itself
a finding (**P001**).
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Any, Iterable

#: grammar of the inline suppression comment
PRAGMA_RE = re.compile(
    r"#\s*repro:\s*allow\[\s*([A-Z]\d{3}(?:\s*,\s*[A-Z]\d{3})*)\s*\]"
)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, ordered for deterministic output."""

    path: str  #: posix-style path relative to the lint root
    line: int
    col: int
    code: str
    message: str
    hint: str = field(compare=False, default="")

    def to_payload(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "hint": self.hint,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass(frozen=True)
class Rule:
    """Stable metadata for one rule code (see ``--explain``)."""

    code: str
    title: str
    rationale: str
    hint: str


RULES: dict[str, Rule] = {}


def _rule(code: str, title: str, rationale: str, hint: str) -> Rule:
    rule = Rule(code=code, title=title, rationale=rationale, hint=hint)
    RULES[code] = rule
    return rule


_rule(
    "D001",
    "wall-clock call outside the observability layer",
    "Journaled records, artifact payloads and golden outputs must be "
    "derived from simulated time only: a time.time()/datetime.now()/"
    "perf_counter() value baked into a result makes two identical runs "
    "byte-diff dirty and breaks crash-recovery byte-equivalence.  Only "
    "repro.obs may read the wall clock (profiling tracks are stripped "
    "before CI diffs them).",
    "Use the engine's SimClock for anything that lands in a result; for "
    "profiling, route through repro.obs summaries (Summary.time) or "
    "spans.",
)
_rule(
    "D002",
    "unseeded or module-level randomness",
    "The global `random` module and numpy's module-level generator are "
    "process-wide mutable state: draw order depends on import order and "
    "worker scheduling, so results stop being a function of the seed.  "
    "Every stream must come from repro.seeds.component_rng(seed, name) "
    "or an explicitly threaded numpy Generator.",
    "Replace with component_rng(seed, \"<component>\") from repro.seeds "
    "(or accept an np.random.Generator argument).",
)
_rule(
    "D003",
    "unsorted iteration over a set or dict.keys()",
    "Set iteration order depends on PYTHONHASHSEED and insertion "
    "history; dict.keys() merely inherits insertion order.  In the "
    "deterministic layers (state, te, recovery, engine) any such loop "
    "that feeds ordered output — journal lines, LP variable order, "
    "event sequences — must fix its order explicitly.",
    "Wrap the iterable in sorted(...) (keys are strings/ints "
    "everywhere it matters), or iterate a list built in a known order.",
)
_rule(
    "D004",
    "non-canonical json.dump(s) in serialization code",
    "Journal frames, checkpoints, artifact stores and fingerprints are "
    "byte-compared (CRC-framed WAL records, golden diffs, CI byte "
    "diffs).  A json.dumps() without sort_keys=True serializes dict "
    "insertion order, so a semantically identical payload can produce "
    "different bytes.",
    "Pass sort_keys=True (and keep separators/indent consistent with "
    "the surrounding writer).",
)
_rule(
    "L001",
    "repro.state must stay below the simulators and controller",
    "The immutable state layer is the substrate every upper layer "
    "shares; an import of repro.sim, repro.core.controller or "
    "repro.experiments from inside it would invert the DAG and make "
    "snapshot semantics depend on scenario code (PR 7 enforced this "
    "with an ad-hoc runtime sys.modules probe; this rule proves it "
    "statically, transitively).",
    "Move the dependency up: pass data in, or relocate the helper to "
    "the layer that needs it.  The contract lives in repro/lint/"
    "layers.toml.",
)
_rule(
    "L002",
    "the engine hosts scenarios; it never imports experiment plumbing",
    "repro.engine is the deterministic kernel under the BVT testbed, "
    "and its SimClock times the controller runs.  Importing "
    "repro.experiments, repro.sim or the CLI from it would couple event "
    "dispatch and sim time to registry/artifact code and create import "
    "cycles.",
    "Scenario-specific behaviour belongs in repro.sim.*, repro.bvt or "
    "the experiment registry, wired in via sources/handlers.  The "
    "contract lives in repro/lint/layers.toml.",
)
_rule(
    "L003",
    "repro.obs observes; it must not import what it observes",
    "Observability attaches from outside (explicit spans, a bound sim "
    "clock, engine observer hooks) and is proven byte-inert.  If repro.obs imported "
    "the engine, controller, simulators or TE it could no longer be "
    "non-invasive — and every layer that reports into it would become "
    "an import cycle.",
    "Keep repro.obs dependent on the stdlib only; exchange data via "
    "duck-typed payloads (see Tracer.on_event).  The contract lives in "
    "repro/lint/layers.toml.",
)
_rule(
    "L004",
    "the scenario settler is a plain loop; it never reaches the engine",
    "Ticket what-ifs and cable drills have no timeline: "
    "repro.sim.whatif.settle_scenarios decides every value up front and "
    "the callers wrap them in one pass over the input.  An import of "
    "repro.engine, repro.telemetry or repro.bvt from either module would "
    "bring back the event machinery (and its import closure) that the "
    "answer never needed.",
    "Keep timed runs (the controller runs over telemetry, the testbed "
    "on the engine) in their own modules; the settler and its callers "
    "take topology, demands and SRLGs as data.  "
    "The contract lives in repro/lint/layers.toml.",
)
_rule(
    "L005",
    "module unreachable from every entry point",
    "A module that no entry point (the `repro` console script, "
    "`python -m repro`) imports, directly or "
    "lazily, runs only under tests, benches or examples: no command "
    "reproduces what it claims, yet it is kept, linted and documented.  "
    "The roots live in repro/lint/layers.toml [reachability].",
    "Route the module into a registered experiment or CLI command that "
    "runs it, or delete it with its tests and examples.",
)
_rule(
    "T001",
    "trace/metric name off-catalog or not dotted lowercase",
    "Span, point-event, metric and engine-event names are "
    "a public, grep-able surface (Perfetto tracks, Prometheus series, "
    "events.jsonl).  Names must be dotted lowercase "
    "(component.thing[.detail]) and declared in the central catalog "
    "repro.obs.names.CATALOG, which the exporters also read — so code "
    "and docs cannot drift apart.",
    "Rename to `component.thing` style and add the name with a short "
    "description to CATALOG in src/repro/obs/names.py.",
)
_rule(
    "P001",
    "pragma suppresses nothing",
    "An `# repro: allow[CODE]` comment whose code never fires on that "
    "line is dead weight: it documents an exemption that does not "
    "exist and would silently swallow a future, different finding.",
    "Delete the pragma, or fix its code/placement so it covers the "
    "finding it was written for.",
)


def parse_pragmas(source: str) -> dict[int, set[str]]:
    """Map line number -> codes allowed there.

    A pragma on a code line covers that line; a pragma on a
    comment-only line also covers the next line (for expressions too
    long to share a line with their justification).  Only real comment
    tokens count — a pragma quoted inside a string or docstring (like
    the examples in this module) is documentation, not suppression.
    """
    allowed: dict[int, set[str]] = {}
    try:
        tokens = list(
            tokenize.generate_tokens(io.StringIO(source).readline)
        )
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return allowed
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = PRAGMA_RE.search(tok.string)
        if not match:
            continue
        lineno = tok.start[0]
        codes = {c.strip() for c in match.group(1).split(",")}
        allowed.setdefault(lineno, set()).update(codes)
        if tok.line.lstrip().startswith("#"):
            allowed.setdefault(lineno + 1, set()).update(codes)
    return allowed


def split_suppressed(
    findings: Iterable[Finding], pragmas: dict[int, set[str]]
) -> tuple[list[Finding], list[Finding]]:
    """Partition ``findings`` into (active, pragma-suppressed)."""
    active: list[Finding] = []
    suppressed: list[Finding] = []
    for finding in findings:
        if finding.code in pragmas.get(finding.line, ()):
            suppressed.append(finding)
        else:
            active.append(finding)
    return active, suppressed
