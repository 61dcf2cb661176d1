"""The Figures 5/6 testbed harness.

The paper's testbed is "one fiber link connected to a BVT"; the authors
change the link's modulation 200 times and plot the latency CDF, and
capture constellation diagrams at 100/150/200 Gbps.  This harness runs
the same experiment against the simulator:

* :meth:`Testbed.run_modulation_changes` cycles through the capacity
  ladder ``n`` times for each procedure and collects downtime samples;
* :meth:`Testbed.capture_constellation` samples the received
  constellation at the testbed's operating SNR for any supported rate.

The repeat-trial experiment is an engine scenario sharing the BVT's
clock: every ladder target is a ``bvt.request`` event, the handler
drives the hardware model (which advances the shared clock by each
step's drawn duration) and publishes a ``bvt.reconfigured`` completion
carrying the change result — the latency stream Figure 6b plots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bvt.transceiver import Bvt, ChangeProcedure
from repro.engine.kernel import Engine, Event
from repro.engine.sources import SequenceSource
from repro.optics.constellation import Constellation, ConstellationSample
from repro.obs import trace as _trace
from repro.optics.fiber import FiberCable, LineSystem
from repro.optics.modulation import DEFAULT_MODULATIONS, ModulationTable


@dataclass(frozen=True)
class TestbedReport:
    """Latency samples from a repeat-trial modulation-change experiment."""

    standard_downtimes_s: np.ndarray
    efficient_downtimes_s: np.ndarray

    @property
    def n_trials(self) -> int:
        return len(self.standard_downtimes_s)

    @property
    def standard_mean_s(self) -> float:
        return float(np.mean(self.standard_downtimes_s))

    @property
    def efficient_mean_s(self) -> float:
        return float(np.mean(self.efficient_downtimes_s))

    @property
    def speedup(self) -> float:
        """How much faster the efficient procedure is, on average."""
        return self.standard_mean_s / self.efficient_mean_s


class Testbed:
    """One short fiber link plus a BVT, as in the paper's evaluation board.

    The default line system is a single 40 km span — short enough that
    every modulation closes with plenty of margin, as the constellation
    figures in the paper suggest.
    """

    #: rates whose constellations the paper shows in Figure 5
    FIGURE5_CAPACITIES_GBPS = (100.0, 150.0, 200.0)

    # not a pytest test class, despite the name
    __test__ = False

    def __init__(
        self,
        *,
        table: ModulationTable = DEFAULT_MODULATIONS,
        n_spans: int = 1,
        span_length_km: float = 40.0,
        seed: int = 68,
    ):
        self.table = table
        self.line_system = LineSystem(
            FiberCable("testbed-fiber", span_length_km, n_spans),
            launch_power_dbm=0.0,
        )
        self.bvt = Bvt(table=table)
        self._rng = np.random.default_rng(seed)

    @property
    def snr_db(self) -> float:
        """Operating SNR of the testbed link."""
        return self.line_system.snr_db()

    def _ladder_cycle(self, n_changes: int) -> list[float]:
        """A deterministic sequence of distinct target capacities."""
        ladder = list(self.table.capacities_gbps)
        targets = []
        current = self.bvt.capacity_gbps
        i = 0
        while len(targets) < n_changes:
            candidate = ladder[i % len(ladder)]
            i += 1
            if candidate != current:
                targets.append(candidate)
                current = candidate
        return targets

    def run_modulation_changes(
        self, n_changes: int = 200, *, procedure: ChangeProcedure
    ) -> np.ndarray:
        """Perform ``n_changes`` distinct re-modulations; return downtimes (s)."""
        if n_changes <= 0:
            raise ValueError("need at least one change")
        downtimes: list[float] = []
        engine = Engine(clock=self.bvt.clock)

        def on_request(event: Event) -> None:
            _, capacity = event.payload
            result = self.bvt.change_modulation(
                capacity, self._rng, procedure=procedure
            )
            downtimes.append(result.downtime_s)
            engine.publish("bvt.reconfigured", result)

        engine.subscribe("bvt.request", on_request)
        engine.add_source(
            SequenceSource(
                "bvt.request",
                self._ladder_cycle(n_changes),
                time_s=self.bvt.clock.now_s,
            )
        )
        _trace.observe_engine(engine)
        with _trace.span(
            "testbed.modulation_changes",
            procedure=procedure.value,
            n_changes=n_changes,
        ):
            engine.run()
        return np.asarray(downtimes)

    def run_figure6_experiment(self, n_changes: int = 200) -> TestbedReport:
        """The full Figure-6b experiment: both procedures, ``n_changes`` each."""
        standard = self.run_modulation_changes(
            n_changes, procedure=ChangeProcedure.STANDARD
        )
        efficient = self.run_modulation_changes(
            n_changes, procedure=ChangeProcedure.EFFICIENT
        )
        return TestbedReport(
            standard_downtimes_s=standard, efficient_downtimes_s=efficient
        )

    def capture_constellation(
        self, capacity_gbps: float, n_symbols: int = 2000
    ) -> ConstellationSample:
        """Figure 5: the received constellation at one capacity.

        The BVT is re-modulated (efficiently) to the requested rate and
        the receiver cloud is sampled at the testbed's line SNR.
        """
        fmt = self.table.format_for_capacity(capacity_gbps)
        if not fmt.supports(self.snr_db):
            raise ValueError(
                f"testbed SNR {self.snr_db:.1f} dB cannot close "
                f"{capacity_gbps} Gbps (needs {fmt.required_snr_db} dB)"
            )
        self.bvt.change_modulation(
            capacity_gbps, self._rng, procedure=ChangeProcedure.EFFICIENT
        )
        constellation = Constellation(fmt.name)
        return constellation.sample(n_symbols, self.snr_db, self._rng)
