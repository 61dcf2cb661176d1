"""Traffic-engineering substrate.

These are the "existing TE algorithms" of the paper's Section 4 — the
consumers of the graph abstraction.  None of them knows anything about
SNR or dynamic capacities; they see a topology of capacitated links,
some of which happen to carry a penalty, and demands:

* :mod:`~repro.te.lp` — the edge-based multicommodity LP core
  (maximum throughput, two-phase min-penalty-at-max-throughput,
  max-concurrent-flow), solved with scipy's HiGHS backend;
* :mod:`~repro.te.incremental` — the round-to-round solve accelerator:
  structure reuse, exact solution memoization and batched what-if
  solves (bit-identical to fresh solves; see that module's docstring);
* :mod:`~repro.te.maxflow` — single-commodity max flow / min-cost
  max-flow on the link-expanded graph (networkx cross-check);
* :mod:`~repro.te.pathlp` — the path-based (k tunnels per demand) LP
  SWAN and B4 deploy;
* :mod:`~repro.te.swan` — SWAN-style priority-class allocation;
* :mod:`~repro.te.b4` — B4-style max-min fair progressive filling;
* :mod:`~repro.te.cspf` — a greedy CSPF (MPLS-TE auto-bandwidth style)
  baseline that routes each demand unsplit;
* :mod:`~repro.te.solution` — the common solution/validation object.
"""
