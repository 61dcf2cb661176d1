"""`repro.lint` — determinism & layering static analysis (DESIGN.md §5i).

Proves the determinism contract the goldens only *sample* — at the AST
level, over every path, exercised or not (stdlib :mod:`ast` only, no
new dependencies):

* **D001** wall-clock calls outside the observability layer;
* **D002** unseeded / module-level randomness instead of
  :func:`repro.seeds.component_rng`;
* **D003** unsorted set / ``dict.keys()`` iteration in the
  order-sensitive layers (state, te, recovery, engine);
* **D004** ``json.dump(s)`` without ``sort_keys=True`` in
  journal/serialize/fingerprint code;
* **L001-L004** import-DAG layering, declared in ``layers.toml``
  (state below sim/controller, engine below experiments, obs
  non-invasive, the scenario settler off the engine) — checked
  transitively, lazy imports included;
* **T001** trace/metric names dotted lowercase and declared in the
  :mod:`repro.obs.names` catalog.

Suppression is explicit: ``# repro: allow[CODE] -- reason`` inline, or
a committed ``lint-baseline.json`` entry for burn-down debt.  Strict
mode (the CI gate) also flags stale baseline entries (**B001**) and
dead pragmas (**P001**).

Quickstart::

    repro lint --strict src/            # the CI gate
    repro lint --explain D003           # why + how to fix
    python -m repro.lint --format json  # machine-readable findings

The analyzer is itself deterministic: sorted findings, content-keyed
result cache (``REPRO_NO_CACHE`` bypasses), and it lints itself clean
(``tests/lint/test_self_lint.py``).
"""
