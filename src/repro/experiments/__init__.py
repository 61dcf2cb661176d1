"""repro.experiments — declarative scenario specs, sweeps and artifacts.

The subsystem splits "what to run" from "how it ran":

* :mod:`repro.experiments.spec` — frozen, serialisable
  :class:`ScenarioSpec` / :class:`Sweep` definitions (TOML/JSON files).
* :mod:`repro.experiments.registry` — the named experiments
  (:func:`experiment_names`), parameter resolution and the
  content-addressed :func:`spec_key` (resolved params + code
  fingerprint).
* :mod:`repro.experiments.store` — one run = one directory of keyed
  artifacts plus an append-only ``manifest.jsonl`` journal.
* :mod:`repro.experiments.runner` — :func:`run_sweep` /
  :func:`resume_sweep` over the shared worker pool.
* :mod:`repro.experiments.compare` — diff two runs, or one run against
  the paper's headline claims.
"""
