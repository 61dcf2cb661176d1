"""repro — a full reproduction of *Run, Walk, Crawl: Towards Dynamic
Link Capacities* (Singh, Ghobadi, Foerster, Filer, Gill — HotNets 2017).

The package is layered bottom-up:

* :mod:`repro.optics` — modulation ladder, constellations, fiber/EDFA
  noise budgets, impairment events;
* :mod:`repro.telemetry` — synthetic 2.5-year / 15-minute SNR telemetry
  for a ~2,000-wavelength backbone, plus HDR/range/failure statistics;
* :mod:`repro.tickets` — the 7-month failure-ticket corpus and its
  root-cause analyses;
* :mod:`repro.bvt` — a bandwidth-variable-transceiver simulator with
  the standard (laser power-cycle, ~68 s) and efficient (in-service,
  ~35 ms) modulation-change procedures;
* :mod:`repro.net` / :mod:`repro.te` — WAN topologies, demands, and
  LP-based TE algorithms (max throughput, min-penalty-at-max-throughput,
  max concurrent flow, SWAN-, B4- and CSPF-style allocators);
* :mod:`repro.core` — the paper's contribution: Algorithm-1 topology
  augmentation, the Figure-8 unsplittable-flow gadget, the Theorem-1
  equivalence checker, run/walk/crawl policies, and the closed-loop
  dynamic-capacity controller;
* :mod:`repro.sim` — availability and throughput-gain simulations;
* :mod:`repro.analysis` — per-figure data generators and renderers.

Quickstart::

    from repro.analysis.figures import fig7_example
    print(fig7_example())

Every subpackage ``__init__`` holds only its docstring, so import each
name from the module that defines it.
"""

__version__ = "1.0.0"
