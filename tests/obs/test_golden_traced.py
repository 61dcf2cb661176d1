"""The sim-time side of a trace is deterministic.

Two traced runs of the same seeded scenario produce byte-identical span
trees and wall-stripped Chrome traces.  That tracing never changes the
results themselves is proved by the golden knob matrix
(tests/engine/test_golden_equivalence.py), which runs every golden with
tracing on and off.
"""

import json

from repro.obs.export import span_tree_json, strip_wall, chrome_trace
from repro.obs.trace import Tracer, tracing
from tests.golden.scenarios import SCENARIOS


def test_traced_testbed_span_tree_is_deterministic(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")

    def traced() -> Tracer:
        tracer = Tracer()
        with tracing(tracer):
            SCENARIOS["testbed"]()
        return tracer

    a, b = traced(), traced()
    assert span_tree_json(a) == span_tree_json(b)
    stripped_a = json.dumps(strip_wall(chrome_trace(a)), sort_keys=True)
    stripped_b = json.dumps(strip_wall(chrome_trace(b)), sort_keys=True)
    assert stripped_a == stripped_b
