"""Network substrate: topologies, demands and path utilities.

The traffic-engineering layer (:mod:`repro.te`) and the paper's graph
abstraction (:mod:`repro.core`) both operate on the structures defined
here:

* :class:`~repro.net.topology.Topology` — a directed capacitated graph
  whose links also carry upgrade headroom and penalties (the ``U`` and
  ``P`` matrices of Algorithm 1);
* canonical WAN topologies (:mod:`~repro.net.topologies`);
* gravity-model traffic matrices (:mod:`~repro.net.demands`);
* k-shortest-path computation (:mod:`~repro.net.paths`).
"""
