"""The central name catalog: shape, uniqueness, and HELP integration."""

import ast
import pathlib
import re

import repro
from repro.obs import metrics as obs_metrics
from repro.obs.export import prometheus_text
from repro.obs.names import (
    CATALOG,
    EVENTS,
    METRICS,
    NAME_PATTERN,
    POINTS,
    SPANS,
    describe,
)


class TestCatalogShape:
    def test_every_name_matches_the_convention(self):
        pattern = re.compile(NAME_PATTERN)
        for name in CATALOG:
            assert pattern.match(name), name

    def test_no_collisions_between_groups(self):
        total = len(SPANS) + len(POINTS) + len(METRICS) + len(EVENTS)
        assert len(CATALOG) == total

    def test_every_description_is_nonempty(self):
        for name, description in CATALOG.items():
            assert description.strip(), name

    def test_describe(self):
        assert describe("te.solve") == SPANS["te.solve"]
        assert describe("no.such.name") is None

    def test_every_name_is_used(self):
        # T001 checks that every name in use is declared; this is the
        # converse, so an entry outliving its emitter fails too
        package = pathlib.Path(repro.__file__).parent
        literals = set()
        for path in package.rglob("*.py"):
            if path.name == "names.py" and path.parent.name == "obs":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            literals.update(
                node.value
                for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
            )
        assert sorted(set(CATALOG) - literals) == []


class TestPrometheusHelp:
    def test_catalogued_metric_gets_help_line(self):
        registry = obs_metrics.MetricsRegistry()
        registry.counter("controller.rounds").inc()
        text = prometheus_text(registry)
        assert "# HELP controller_rounds TE rounds executed" in text

    def test_uncatalogued_metric_still_exports(self):
        registry = obs_metrics.MetricsRegistry()
        registry.counter("adhoc.series").inc()
        text = prometheus_text(registry)
        assert "adhoc_series 1" in text
        assert "# HELP adhoc_series" not in text
