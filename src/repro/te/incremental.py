"""Incremental TE solving: structure reuse, memoization, batched what-ifs.

The paper's control loop re-runs an *unmodified* TE algorithm every
telemetry round — and its own §2 data says SNR (hence the capacity
vector) is stable for 83% of links, so most rounds hand the solver an
LP it has already seen.  This module exploits that in three layers:

1. **Structure reuse** — the assembled :class:`~repro.te.lp.
   MultiCommodityLp` (conservation/capacity blocks, the HiGHS models
   built from them, the variable layout) is cached keyed on the
   *structure* of the instance: node set, link ids/endpoints in
   insertion order, and the demand list.  A round that only changed link capacities rebinds the
   cached instance (an O(n_links) RHS update) instead of reassembling
   O(n_demands x n_links) constraint blocks.
2. **Exact solution memoization** — when the full numeric state
   (capacities, penalties, demands, objective) matches a recent round,
   the stored solver vector is replayed through the LP's own
   extraction, skipping the solve entirely.  The solver is
   deterministic, so identical inputs produce identical outputs and a
   memo hit is *bit-identical* to a fresh solve — the golden
   equivalence suite runs with the cache on.  A bounded LRU (not just
   the previous round) catches run/walk/crawl-style oscillation
   between a few recurring states.
3. **Batched what-if** — independent scenario solves (ticket replays,
   per-cable failure drills) fan out over the shared
   :mod:`repro.parallel` pool; every worker keeps its own structure
   cache, so "the same cable, degraded" reuses the assembled blocks
   worker-locally.

Invalidation needs no explicit hooks: any link appearing, disappearing
(e.g. forced dark by a fault) or changing endpoints changes the
structure key; any capacity/penalty/demand change changes the memo
key.  Both fall out of keying on values instead of mutating state.

``REPRO_TE_NO_CACHE=1`` (or the blanket ``REPRO_NO_CACHE=1``) disables
every layer; the CLI's ``--no-te-cache`` flag sets it for a run.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

import numpy as np

from repro import perf
from repro.net.demands import Demand
from repro.net.topology import Topology
from repro.parallel import pool_map, resolve_workers
from repro.state import NetworkState, capacity_digest, demand_digest, structure_digest
from repro.te.lp import LpOutcome, MultiCommodityLp
from repro.te.solution import TeSolution

#: disable only the TE solve cache
NO_TE_CACHE_ENV = "REPRO_TE_NO_CACHE"
#: the blanket cache kill-switch (shared with the telemetry summary cache)
NO_CACHE_ENV = "REPRO_NO_CACHE"

_TRUTHY = ("1", "true", "yes")

#: objectives the memo layer may replay (all deterministic HiGHS solves)
SOLVE_METHODS = (
    "max_throughput",
    "min_penalty_at_max_throughput",
    "min_max_utilization",
    "max_concurrent_flow",
)

#: recent numeric states remembered per cache (run/walk/crawl oscillation
#: revisits a handful of states, not hundreds)
DEFAULT_MEMO_SIZE = 16
#: assembled LP structures kept per cache (per distinct link/demand set)
DEFAULT_STRUCTURE_SIZE = 8


def te_cache_enabled(override: bool | None = None) -> bool:
    """Should TE solves go through the cache?

    An explicit ``override`` wins; otherwise the cache is on unless
    ``REPRO_TE_NO_CACHE`` or ``REPRO_NO_CACHE`` is truthy.
    """
    if override is not None:
        return override
    for env in (NO_TE_CACHE_ENV, NO_CACHE_ENV):
        if os.environ.get(env, "").lower() in _TRUTHY:
            return False
    return True


def structure_key(
    topology: Topology,
    demands: Sequence[Demand],
    *,
    state: NetworkState | None = None,
) -> Hashable:
    """What determines the LP's *shape*: nodes, link wiring, demand list.

    Link order matters (it is the variable layout), so the key keeps
    insertion order.  Demand volumes are included because they set the
    throughput-variable bounds; two demand sets differing only in
    volume could share constraint blocks, but keeping volumes in the
    structure key makes the memo key below a pure numeric suffix.

    The wiring half of the key is :attr:`NetworkState.structure_id` —
    passing the ``state`` a topology was materialized from reuses its
    cached digest and, by construction, produces the identical tuple.
    """
    wiring = structure_digest(topology) if state is None else state.structure_id
    return wiring + (demand_digest(demands),)


def numeric_key(
    topology: Topology, *, state: NetworkState | None = None
) -> Hashable:
    """The per-round numbers (:attr:`NetworkState.capacity_digest`):
    capacities and penalties in link order."""
    return capacity_digest(topology) if state is None else state.capacity_digest


@dataclass(frozen=True)
class _MemoEntry:
    """A solved state: the raw solver vector plus outcome metadata."""

    x: np.ndarray
    objective_value: float
    status: str
    concurrency: float | None


class TeSolveCache:
    """Bounded structure + exact-solution caches for one solve stream.

    One instance per controller (or pool worker): the caches are not
    thread-safe and sharing one across concurrent scenario streams
    would interleave their LRU orders non-deterministically.

    Determinism argument, in full: a structure hit rebinds the cached
    ``MultiCommodityLp`` to the round's topology — the constraint
    blocks are value-identical to what fresh assembly would build
    (same index arithmetic over the same wiring; the capacity RHS is
    rewritten in place, the penalty vector lazily rebuilt) — so HiGHS
    sees the same matrices and returns the same vector.  A memo hit
    replays a stored solver vector through ``_extract`` against the
    rebound topology, which is exactly what the original solve did
    with the same numbers.  Either way the result is bit-identical to
    an uncached solve; the golden suite and the ``te-cache`` CI job
    enforce it byte-for-byte.
    """

    def __init__(
        self,
        *,
        memo_size: int = DEFAULT_MEMO_SIZE,
        structure_size: int = DEFAULT_STRUCTURE_SIZE,
    ):
        if memo_size < 0 or structure_size < 1:
            raise ValueError("memo_size must be >= 0 and structure_size >= 1")
        self.memo_size = memo_size
        self.structure_size = structure_size
        self._structures: OrderedDict[Hashable, MultiCommodityLp] = OrderedDict()
        self._memo: OrderedDict[Hashable, _MemoEntry] = OrderedDict()

    # -- structure layer ---------------------------------------------------

    def lp(
        self,
        topology: Topology,
        demands: Sequence[Demand],
        *,
        state: NetworkState | None = None,
    ) -> MultiCommodityLp:
        """An assembled LP for this instance, reusing cached structure."""
        return self._lp_for(
            structure_key(topology, demands, state=state), topology, demands
        )

    def _lp_for(
        self, skey: Hashable, topology: Topology, demands: Sequence[Demand]
    ) -> MultiCommodityLp:
        lp = self._structures.get(skey)
        if lp is None:
            perf.event("te.cache.structure_miss")
            lp = MultiCommodityLp(topology, demands)
            self._structures[skey] = lp
            while len(self._structures) > self.structure_size:
                self._structures.popitem(last=False)
        else:
            perf.event("te.cache.structure_hit")
            self._structures.move_to_end(skey)
            lp.rebind(topology)
        return lp

    # -- memo layer --------------------------------------------------------

    def solve(
        self,
        topology: Topology,
        demands: Sequence[Demand],
        method: str = "min_penalty_at_max_throughput",
        *,
        state: NetworkState | None = None,
    ) -> LpOutcome:
        """Solve (or replay) one state under the named objective.

        With ``state`` (the :class:`NetworkState` the topology was
        materialized from, or a snapshot of it) both cache keys come
        from the state's cached digests —
        ``(state.structure_id, state.capacity_digest)`` — which are
        tuple-identical to the topology-derived keys, so mixing keyed
        styles against one cache cannot double-solve or mis-hit.
        """
        if method not in SOLVE_METHODS:
            raise ValueError(
                f"unknown solve method {method!r} (valid: {SOLVE_METHODS})"
            )
        skey = structure_key(topology, demands, state=state)
        mkey = (skey, numeric_key(topology, state=state), method)
        entry = self._memo.get(mkey)
        if entry is not None:
            perf.event("te.cache.memo_hit")
            self._memo.move_to_end(mkey)
            lp = self._lp_for(skey, topology, demands)
            with perf.timer("te.cache.replay"):
                solution = lp._extract(entry.x)
            return LpOutcome(
                solution=solution,
                objective_value=entry.objective_value,
                status=entry.status,
                concurrency=entry.concurrency,
                x=entry.x,
            )
        perf.event("te.cache.memo_miss")
        lp = self._lp_for(skey, topology, demands)
        outcome: LpOutcome = getattr(lp, method)()
        if self.memo_size and outcome.x is not None:
            self._memo[mkey] = _MemoEntry(
                x=outcome.x,
                objective_value=outcome.objective_value,
                status=outcome.status,
                concurrency=outcome.concurrency,
            )
            while len(self._memo) > self.memo_size:
                self._memo.popitem(last=False)
        return outcome

    def clear(self) -> None:
        self._structures.clear()
        self._memo.clear()

    @property
    def n_structures(self) -> int:
        return len(self._structures)

    @property
    def n_memo_entries(self) -> int:
        return len(self._memo)


class CachedTeAlgorithm:
    """A drop-in TE algorithm callable backed by a :class:`TeSolveCache`.

    ``(topology, demands) -> TeSolution`` with the named LP objective —
    the same signature the controller injects, so SWAN/B4/CSPF-style
    custom callables remain untouched while the default LP objective
    gets the accelerator.
    """

    def __init__(
        self,
        method: str = "min_penalty_at_max_throughput",
        *,
        cache: TeSolveCache | None = None,
    ):
        if method not in SOLVE_METHODS:
            raise ValueError(
                f"unknown solve method {method!r} (valid: {SOLVE_METHODS})"
            )
        self.method = method
        self.cache = cache if cache is not None else TeSolveCache()

    def __call__(
        self,
        topology: Topology,
        demands: Sequence[Demand],
        *,
        state: NetworkState | None = None,
    ) -> TeSolution:
        if state is None:
            # key on a verbatim snapshot: digests computed once, cached
            state = NetworkState.snapshot(topology, label="te.solve")
        return self.cache.solve(
            topology, demands, method=self.method, state=state
        ).solution


# -- batched what-if solves ------------------------------------------------

_worker_state = threading.local()


def worker_cache() -> TeSolveCache:
    """The calling worker's private :class:`TeSolveCache`.

    Thread-local so both pool flavours are safe: a process-pool worker
    gets one cache per process, the thread-pool fallback one per
    thread.  Scenario solves are pure functions of their inputs, so
    which worker solves which scenario cannot change any value.
    """
    cache = getattr(_worker_state, "te_cache", None)
    if cache is None:
        cache = _worker_state.te_cache = TeSolveCache()
    return cache


def _throughput_job(
    job: tuple[
        Topology | NetworkState,
        tuple[Demand, ...],
        Callable[[Topology, Sequence[Demand]], TeSolution] | None,
        bool,
    ],
) -> float:
    """One scenario's total throughput (module-level: picklable)."""
    scenario, demands, te_algorithm, use_cache = job
    if isinstance(scenario, NetworkState):
        # materialize in the worker; the state's cached digests key the
        # worker-local cache without re-walking the topology
        state: NetworkState | None = scenario
        topology = scenario.to_topology()
    else:
        state, topology = None, scenario
    if te_algorithm is not None:
        return te_algorithm(topology, demands).total_allocated_gbps
    if use_cache:
        outcome = worker_cache().solve(
            topology, demands, method="max_throughput", state=state
        )
    else:
        outcome = MultiCommodityLp(topology, demands).max_throughput()
    return outcome.objective_value


def batch_throughput(
    scenarios: Sequence[Topology | NetworkState],
    demands: Sequence[Demand],
    *,
    te_algorithm: Callable[[Topology, Sequence[Demand]], TeSolution]
    | None = None,
    workers: int | None = None,
    te_cache: bool | None = None,
) -> list[float]:
    """Total throughput of independent scenarios, in input order.

    Scenarios are :class:`Topology` objects or :class:`NetworkState`
    forks (materialized worker-side via
    :meth:`~repro.state.NetworkState.to_topology`, which preserves
    link order — the results are identical either way).  The default
    (``te_algorithm=None``) solves the max-throughput LP through
    per-worker structure caches — degrade-style scenarios that share
    wiring with an earlier scenario skip reassembly.  A custom
    ``te_algorithm`` is called as-is (it must be picklable to benefit
    from a process pool).  Results are returned in input order and are
    identical for any worker count, including serial.
    """
    use_cache = te_cache_enabled(te_cache)
    demands = tuple(demands)
    jobs = [
        (scenario, demands, te_algorithm, use_cache) for scenario in scenarios
    ]
    n_workers = resolve_workers(workers)
    with perf.timer(
        "te.batch.throughput", n_scenarios=len(jobs), workers=n_workers
    ):
        if n_workers > 1 and len(jobs) > 1:
            return list(pool_map(_throughput_job, jobs, n_workers))
        return [_throughput_job(job) for job in jobs]
