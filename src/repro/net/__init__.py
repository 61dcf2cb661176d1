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

from repro.net.topology import Link, Topology
from repro.net.demands import (
    Demand,
    demands_by_priority,
    gravity_demands,
    scale_demands,
    total_volume_gbps,
    uniform_demands,
)
from repro.net.topologies import (
    abilene,
    b4_like,
    figure7_topology,
    line_topology,
    random_wan,
    us_backbone_like,
)
from repro.net.paths import LinkPath, k_shortest_paths, path_capacity, shortest_path
from repro.net.srlg import SrlgMap, degrade_cable, duplex_srlgs, fail_cable
from repro.net.plant import FiberPlant, PlantConfig, PlantSegment
from repro.net.topologies import SITE_COORDINATES, site_coordinates

__all__ = [
    "Link",
    "Topology",
    "Demand",
    "demands_by_priority",
    "gravity_demands",
    "scale_demands",
    "total_volume_gbps",
    "uniform_demands",
    "abilene",
    "b4_like",
    "figure7_topology",
    "line_topology",
    "random_wan",
    "us_backbone_like",
    "LinkPath",
    "k_shortest_paths",
    "path_capacity",
    "shortest_path",
    "SrlgMap",
    "degrade_cable",
    "duplex_srlgs",
    "fail_cable",
    "FiberPlant",
    "PlantConfig",
    "PlantSegment",
    "SITE_COORDINATES",
    "site_coordinates",
]
