"""Golden equivalence with the legacy loops, under every how-to-run knob.

The JSON files under ``tests/golden/`` were generated by the
pre-engine, hand-rolled simulation loops (see that package's
docstring).  These tests prove — not assert — that the controller
replay and reaction loops, the engine-hosted testbed, and the what-if
and cable-impact loops over the scenario settler, reproduce those
results *bit-identically* for fixed seeds: the comparison is on the
canonical JSON text, so every float must match to the last bit.

A traced run must show it was traced: the testbed through the engine
events the tracer observed, the plain loops (which build no engine)
through their own span and its size attribute.

Every golden runs under every how-to-run knob that applies to it, all
crossed in one matrix (see ``AXES``); a knob that changed a result
would break the byte comparison.  The all-defaults case keeps the bare
scenario name as its id.
"""

import itertools
import pathlib
from contextlib import nullcontext

import pytest

from repro.obs.trace import Tracer, tracing
from tests.golden.scenarios import JOURNAL_MODES, SCENARIOS, canonical_json

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "golden"

#: per golden, knob -> values (the default first)
_TE_CACHE = {"te_cache": (None, False)}
_TRACE = {"trace": (False, True)}
AXES = {
    "replay": {**_TE_CACHE, **_TRACE, "journal": JOURNAL_MODES},
    "reactive": {**_TE_CACHE, **_TRACE, "journal": JOURNAL_MODES},
    "whatif": {**_TE_CACHE, **_TRACE, "workers": (1, 4)},
    "network_availability": {**_TE_CACHE, **_TRACE, "workers": (1, 4)},
    "testbed": _TRACE,
}

#: each plain loop's own span and the size attribute it carries
_LOOP_SPANS = {
    "replay": ("sim.replay", "n_rounds"),
    "reactive": ("sim.reactive", "n_rounds"),
    "whatif": ("sim.whatif", "n_tickets"),
    "network_availability": ("sim.network_availability", "n_cables"),
}


#: how a knob at a non-default value shows in the test id
_LABEL = {
    "te_cache": "nocache", "trace": "traced", "journal": "journal-{}", "workers": "workers{}"
}


def _cases():
    for name in sorted(SCENARIOS):
        axes = AXES[name]
        for values in itertools.product(*axes.values()):
            knobs = dict(zip(axes, values))
            changed = [_LABEL[k].format(v) for k, v in knobs.items() if v != axes[k][0]]
            yield pytest.param(name, knobs, id="-".join([name, *changed]))


@pytest.mark.parametrize("name, knobs", _cases())
def test_engine_matches_legacy_golden(name, knobs, tmp_path):
    knobs = dict(knobs)
    tracer = Tracer() if knobs.pop("trace") else None
    if knobs.get("journal") is not None:
        knobs["journal_dir"] = str(tmp_path)
    with tracing(tracer) if tracer is not None else nullcontext():
        got = canonical_json(SCENARIOS[name](**knobs))
    want = (GOLDEN_DIR / f"{name}.json").read_text()
    assert got == want, (
        f"{name!r} under {knobs} (traced: {tracer is not None}) "
        "diverged from the legacy-captured golden; if the change is "
        "intentional, regenerate via tests/golden/generate_goldens.py and "
        "explain why in the commit"
    )
    if tracer is not None:
        # the run really was traced: spans opened, and the engine
        # observed or the plain loop's own span recorded
        assert tracer.spans, f"{name!r} ran without opening a single span"
        if name in _LOOP_SPANS:
            span_name, attr = _LOOP_SPANS[name]
            spans = [s for s in tracer.spans if s.name == span_name]
            # the last such span is the run the golden compares (a crashed
            # run's span closes before its size is known)
            assert spans and attr in spans[-1].attrs, (
                f"{name!r} ran without its {span_name!r} span carrying {attr!r}"
            )
        else:
            assert tracer.events, f"{name!r} ran without the engine being observed"
