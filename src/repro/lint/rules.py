"""Per-file AST rules: D001-D004 (determinism) and T001 (naming).

One traversal per file (:func:`check_file`) collects every finding; the
runner handles pragmas.  Each rule is scoped the way the determinism
contract is scoped:

* **D001** — wall-clock reads, everywhere except the observability
  modules (:data:`WALL_CLOCK_ALLOWED`), which own the profiling clock;
* **D002** — process-global randomness, everywhere except
  :mod:`repro.seeds` (the one place allowed to construct generators
  from raw material);
* **D003** — unsorted set/``dict.keys()`` iteration, inside the
  deterministic packages (:data:`ORDER_SENSITIVE_PACKAGES`) whose loop
  order reaches journals, LP columns and event sequences;
* **D004** — ``json.dump(s)`` without ``sort_keys=True``, inside
  serialization modules (dotted name containing a
  :data:`CANONICAL_JSON_MODULES` component);
* **T001** — string-literal names passed to span/point/metric and
  engine publish/subscribe calls must be dotted lowercase and in
  the :mod:`repro.obs.names` catalog.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Iterator

from repro.lint.model import RULES, Finding

#: modules (by dotted prefix) that own the wall clock
WALL_CLOCK_ALLOWED = ("repro.obs",)

#: wall-clock callables, by origin module
_WALL_CLOCK_FNS = {
    "time": {
        "time", "time_ns", "monotonic", "monotonic_ns",
        "perf_counter", "perf_counter_ns", "localtime", "gmtime",
    },
    "datetime": {"now", "utcnow", "today"},
}

#: modules allowed to construct raw randomness
RANDOMNESS_ALLOWED = ("repro.seeds",)

#: numpy.random attributes that are *not* module-level draws
_NP_RANDOM_OK = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64",
}

#: packages whose iteration order reaches ordered output
ORDER_SENSITIVE_PACKAGES = (
    "repro.state", "repro.te", "repro.recovery", "repro.engine",
)

#: dotted-name components that mark a module as serialization code
CANONICAL_JSON_MODULES = (
    "journal", "serialize", "store", "fingerprint", "io", "cache", "spec",
)

#: call names whose string-literal first argument is a T001 name
NAME_BEARING_CALLS = frozenset(
    {
        "span", "point",                       # repro.obs.trace
        "counter", "gauge", "histogram", "summary",  # repro.obs.metrics
        "publish", "subscribe",                # repro.engine kernel
    }
)

#: `component.thing[.detail]` — dotted lowercase, no leading digits
NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")


@dataclass(frozen=True)
class RuleConfig:
    """Scoping knobs, overridable so fixtures can exercise every path."""

    wall_clock_allowed: tuple[str, ...] = WALL_CLOCK_ALLOWED
    randomness_allowed: tuple[str, ...] = RANDOMNESS_ALLOWED
    order_sensitive: tuple[str, ...] = ORDER_SENSITIVE_PACKAGES
    canonical_json: tuple[str, ...] = CANONICAL_JSON_MODULES
    #: catalog of declared trace/metric names; None loads repro.obs.names
    catalog: frozenset[str] | None = None
    enabled: frozenset[str] = field(
        default_factory=lambda: frozenset(
            {"D001", "D002", "D003", "D004", "T001"}
        )
    )

    def resolved_catalog(self) -> frozenset[str]:
        if self.catalog is not None:
            return self.catalog
        from repro.obs.names import CATALOG

        return frozenset(CATALOG)


def _in(module: str, prefixes: tuple[str, ...]) -> bool:
    return any(
        module == p or module.startswith(p + ".") for p in prefixes
    )


def _component_match(module: str, components: tuple[str, ...]) -> bool:
    parts = set(module.split("."))
    return any(c in parts for c in components)


class _FileVisitor(ast.NodeVisitor):
    """Single-pass collector for the per-file rules."""

    def __init__(self, module: str, config: RuleConfig) -> None:
        self.module = module
        self.config = config
        self.findings: list[Finding] = []
        # import aliases seen in this file: alias -> canonical dotted name
        self.module_aliases: dict[str, str] = {}
        # names bound by `from X import y`: local name -> "X.y"
        self.from_imports: dict[str, str] = {}
        self.check_wall = "D001" in config.enabled and not _in(
            module, config.wall_clock_allowed
        )
        self.check_random = "D002" in config.enabled and not _in(
            module, config.randomness_allowed
        )
        self.check_order = "D003" in config.enabled and _in(
            module, config.order_sensitive
        )
        self.check_json = "D004" in config.enabled and _component_match(
            module, config.canonical_json
        )
        self.check_names = "T001" in config.enabled
        self._catalog = (
            config.resolved_catalog() if self.check_names else frozenset()
        )

    # -- shared helpers ----------------------------------------------------

    def _add(self, code: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                path="",  # runner fills in the relative path
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                code=code,
                message=message,
                hint=RULES[code].hint,
            )
        )

    def _canonical(self, node: ast.expr) -> str | None:
        """Dotted origin of a Name/Attribute, through import aliases."""
        if isinstance(node, ast.Name):
            if node.id in self.module_aliases:
                return self.module_aliases[node.id]
            if node.id in self.from_imports:
                return self.from_imports[node.id]
            return None
        if isinstance(node, ast.Attribute):
            base = self._canonical(node.value)
            return f"{base}.{node.attr}" if base else None
        return None

    # -- import tracking ---------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.module_aliases[alias.asname or alias.name.split(".")[0]] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )
            if alias.asname:
                self.module_aliases[alias.asname] = alias.name
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                self.from_imports[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
        self.generic_visit(node)

    # -- the rules ---------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        if self.check_wall:
            self._check_wall_clock(node)
        if self.check_random:
            self._check_randomness(node)
        if self.check_json:
            self._check_canonical_json(node)
        if self.check_names:
            self._check_name(node)
        self.generic_visit(node)

    def _check_wall_clock(self, node: ast.Call) -> None:
        origin = self._canonical(node.func)
        if origin is None:
            return
        head, _, fn = origin.rpartition(".")
        for mod, fns in _WALL_CLOCK_FNS.items():
            if fn in fns and (head == mod or head.endswith("." + mod)):
                self._add(
                    "D001",
                    node,
                    f"wall-clock call {origin}() outside "
                    f"{'/'.join(self.config.wall_clock_allowed)}",
                )
                return
        # `from time import perf_counter` style
        if origin in ("time.time", "datetime.datetime.now"):
            self._add("D001", node, f"wall-clock call {origin}()")

    def _check_randomness(self, node: ast.Call) -> None:
        origin = self._canonical(node.func)
        if origin is None:
            return
        if origin.startswith("random.") or origin == "random.Random":
            self._add(
                "D002",
                node,
                f"stdlib {origin}() draws from process-global state; "
                "use repro.seeds.component_rng",
            )
            return
        for base in ("numpy.random.", "np.random."):
            if origin.startswith(base):
                fn = origin[len(base):]
                if fn.split(".")[0] not in _NP_RANDOM_OK:
                    self._add(
                        "D002",
                        node,
                        f"module-level numpy.random.{fn}() bypasses "
                        "component-keyed seeding; use "
                        "repro.seeds.component_rng",
                    )
                return

    def _check_canonical_json(self, node: ast.Call) -> None:
        origin = self._canonical(node.func)
        if origin not in ("json.dump", "json.dumps"):
            return
        if any(k.arg == "sort_keys" for k in node.keywords):
            return
        self._add(
            "D004",
            node,
            f"{origin}() without sort_keys=True in serialization "
            f"module {self.module}",
        )

    def _check_name(self, node: ast.Call) -> None:
        func = node.func
        fn_name = (
            func.attr
            if isinstance(func, ast.Attribute)
            else func.id if isinstance(func, ast.Name) else None
        )
        if fn_name not in NAME_BEARING_CALLS or not node.args:
            return
        first = node.args[0]
        if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
            return
        name = first.value
        # only audit names that *look like* observability names: dotted
        # identifiers.  Plain strings ("utf-8", file names, messages)
        # fall outside the convention's domain.
        if "." not in name or not re.match(r"^[\w.]+$", name):
            return
        if not NAME_RE.match(name):
            self._add(
                "T001",
                first,
                f"name {name!r} is not dotted lowercase "
                "(component.thing[.detail])",
            )
        elif name not in self._catalog:
            self._add(
                "T001",
                first,
                f"name {name!r} passed to {fn_name}() is not declared "
                "in repro.obs.names.CATALOG",
            )

    # D003: unsorted iteration -------------------------------------------

    def _is_set_expr(self, node: ast.expr, bindings: dict[str, bool]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            origin = self._canonical(node.func)
            fn = (
                node.func.id
                if isinstance(node.func, ast.Name)
                else origin.rpartition(".")[2] if origin else None
            )
            if fn in ("set", "frozenset") and origin in (None, "set", "frozenset"):
                return True
            if isinstance(node.func, ast.Name) and node.func.id in (
                "set",
                "frozenset",
            ):
                return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left, bindings) or self._is_set_expr(
                node.right, bindings
            )
        if isinstance(node, ast.Name):
            return bindings.get(node.id, False)
        return False

    def _is_keys_call(self, node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "keys"
            and not node.args
            and not node.keywords
        )

    def _check_iter(self, iter_node: ast.expr, bindings: dict[str, bool]) -> None:
        if self._is_set_expr(iter_node, bindings):
            self._add(
                "D003",
                iter_node,
                "iteration over a set has hash-seed-dependent order; "
                "wrap in sorted(...)",
            )
        elif self._is_keys_call(iter_node):
            self._add(
                "D003",
                iter_node,
                "iteration over dict.keys() relies on insertion order; "
                "wrap in sorted(...)",
            )

    def _scan_order(self, scope: ast.AST) -> None:
        """Walk one function (or the module body) for unsorted loops."""
        bindings: dict[str, bool] = {}
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    bindings[target.id] = self._is_set_expr(node.value, bindings)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    bindings[node.target.id] = self._is_set_expr(
                        node.value, bindings
                    )
        for node in ast.walk(scope):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                self._check_iter(node.iter, bindings)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                for gen in node.generators:
                    self._check_iter(gen.iter, bindings)


def iter_scopes(tree: ast.Module) -> Iterator[ast.AST]:
    """The module body and each function, as independent D003 scopes."""
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def check_file(module: str, tree: ast.Module, config: RuleConfig) -> list[Finding]:
    """Run every per-file rule over one parsed module."""
    visitor = _FileVisitor(module, config)
    visitor.visit(tree)
    if visitor.check_order:
        seen: set[tuple[int, int]] = set()
        module_visitor = visitor
        for scope in iter_scopes(tree):
            if isinstance(scope, ast.Module):
                # module scope: only top-level statements, so function
                # bodies are judged with their local bindings instead
                top = ast.Module(
                    body=[
                        s
                        for s in scope.body
                        if not isinstance(
                            s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                        )
                    ],
                    type_ignores=[],
                )
                module_visitor._scan_order(top)
            else:
                module_visitor._scan_order(scope)
        # a nested function is walked by both its parent scope and its
        # own; dedupe on location
        deduped: list[Finding] = []
        for finding in visitor.findings:
            key = (finding.line, finding.col)
            if finding.code == "D003":
                if key in seen:
                    continue
                seen.add(key)
            deduped.append(finding)
        visitor.findings = deduped
    return sorted(visitor.findings)
