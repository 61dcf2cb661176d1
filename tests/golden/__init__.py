"""Golden equivalence corpus for the engine refactor.

:mod:`tests.golden.scenarios` defines fixed-seed scenario builders and
canonical metric serialization; the committed ``*.json`` files were
generated from the pre-engine (hand-rolled loop) implementations via
``python tests/golden/generate_goldens.py``.  The controller
replay and reaction loops, the engine-hosted testbed and the what-if
and cable-impact loops must reproduce them byte-for-byte — see
``tests/engine/test_golden_equivalence.py``.
"""
