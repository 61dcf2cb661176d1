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


def test_each_run_under_one_tracer_reports_its_own_sim_time():
    """The reactive golden makes three runs under one tracer; each span
    tree covers its own run's horizon and round times."""
    tracer = Tracer()
    with tracing(tracer):
        SCENARIOS["reactive"]()
    scheduled = [14400.0 * i for i in range(12)]
    # the dip crosses the configured threshold at 89100 s
    with_emergency = sorted(scheduled + [89100.0])
    want = {
        "scheduled": scheduled,
        "reactive": with_emergency,
        "proactive": with_emergency,
    }
    runs = [n for n in tracer.span_tree() if n["name"] == "sim.reactive"]
    assert [r["attrs"]["mode"] for r in runs] == list(want)
    for run in runs:
        assert (run["sim_start_s"], run["sim_end_s"]) == (0.0, 171900.0)
        rounds = [
            c["sim_start_s"] for c in run["children"] if c["name"] == "controller.round"
        ]
        assert rounds == want[run["attrs"]["mode"]]
        assert run["attrs"]["n_rounds"] == len(rounds)
    # the runs bound their clocks only for their own duration
    assert tracer._sim_now() is None
