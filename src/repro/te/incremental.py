"""Incremental TE solving: structure reuse, memoization, batched what-ifs.

The paper's control loop re-runs an *unmodified* TE algorithm every
telemetry round — and its own §2 data says SNR (hence the capacity
vector) is stable for 83% of links, so most rounds hand the solver an
LP it has already seen.  This module exploits that in four layers:

1. **Structure reuse** — the assembled :class:`~repro.te.lp.
   MultiCommodityLp` (conservation/capacity blocks, the HiGHS models
   built from them, the variable layout) is cached keyed on the
   *structure* of the instance: node set, link ids/endpoints in
   insertion order, and each demand's ``(src, dst)`` in list order.
   A round or query that changed only link capacities or demand
   volumes rebinds the cached instance (an O(n_links + n_demands)
   in-place bounds update; only the max-concurrent-flow models, which
   hold volumes in their matrix, are reassembled) instead of
   reassembling O(n_demands x n_links) constraint blocks.
2. **Exact solution memoization** — when the full numeric state
   (capacities, penalties, demand volumes and priorities, objective)
   matches a recent round, the stored solver vector is replayed
   through the LP's own extraction, skipping the solve entirely.  The
   solver is deterministic, so identical inputs produce identical
   outputs and a memo hit is *bit-identical* to a fresh solve — the
   golden equivalence suite runs with the cache on.  A bounded LRU
   (not just the previous round) catches run/walk/crawl-style
   oscillation between a few recurring states.
3. **Value-only what-if solves** — independent scenario solves (ticket
   replays, per-cable failure drills) need one number each, the total
   throughput.  :func:`solve_throughput` (and :func:`batch_throughput`,
   which fans scenarios out over the shared :mod:`repro.parallel`
   pool) solves a :class:`NetworkState` through one path,
   :meth:`TeSolveCache.throughput`: it keys the structure and memo
   layers on ``state.structure_id`` and ``state.capacity_digest``,
   binds the digest's capacities (already in the LP's link order) and
   the demand volumes into the cached model through
   :meth:`MultiCommodityLp.bind` — the same in-place update
   :meth:`~MultiCommodityLp.rebind` uses — and returns ``(value, x)``
   with no :class:`Topology` materialized and no :class:`TeSolution`
   extracted.  Only a structure miss materializes the state, once, to
   assemble.  The value is :func:`~repro.te.lp.total_throughput`, the
   sum :meth:`MultiCommodityLp.max_throughput` reports too, so a memo
   entry written by either path serves the other bit for bit.  Every
   worker keeps its own cache, so "the same cable, degraded" and "the
   same plant, a new traffic matrix" reuse the assembled blocks
   worker-locally.
4. **Round reuse** — a controller round whose augment → TE → translate
   inputs repeat a recent round's (:func:`round_key`: each live real
   link's ``(link_id, capacity, headroom)``, the traffic memory that
   prices upgrades, and the demands) reuses that round's translated
   decision from a :class:`RoundMemo`, so no working topology, G',
   state snapshot or :class:`TeSolution` is built.  Only the
   controller's own cached default TE algorithm gets one, and it is
   dropped whenever the TE algorithm, ladder or topology it was
   filled under changes (:meth:`RoundMemo.serves`).

Invalidation needs no explicit hooks: any link appearing, disappearing
(e.g. forced dark by a fault) or changing endpoints, and any demand
endpoint change, changes the structure key; any capacity, penalty,
volume or priority change changes the memo key.  Both fall out of
keying on values instead of mutating state.

The ``te_cache=`` argument of the entry points is the one switch:
``False`` bypasses every layer; ``None`` (the default) and ``True``
use the cache.  Results are bit-identical either way — the golden
knob matrix (``tests/engine/test_golden_equivalence.py``) runs every
golden with the cache on and off.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.net.demands import Demand
from repro.net.topology import Topology
from repro.obs import metrics as _metrics
from repro.parallel import pool_map, resolve_workers
from repro.state.digest import capacity_digest, demand_digest, structure_digest
from repro.state.model import NetworkState
from repro.te.lp import LpOutcome, MultiCommodityLp
from repro.te.solution import TeSolution

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


def structure_key(
    network: Topology | NetworkState, demands: Sequence[Demand]
) -> Hashable:
    """What determines the LP's *shape*: nodes, link wiring, demand pairs.

    Link and demand order matter (they are the variable layout), so the
    key keeps both in list order.  Demand volumes and priorities are
    left out: volumes only bound the throughput variables, which
    :meth:`MultiCommodityLp.bind` rewrites in place, so they belong
    to the memo key with the capacities.

    The wiring half of the key is :attr:`NetworkState.structure_id` for
    a state (its cached digest) and :func:`structure_digest` for a
    topology; a state and the topology it materializes give the
    identical tuple.
    """
    if isinstance(network, NetworkState):
        wiring = network.structure_id
    else:
        wiring = structure_digest(network)
    return wiring + (tuple((d.src, d.dst) for d in demands),)


def numeric_key(network: Topology | NetworkState) -> Hashable:
    """The per-round numbers (:attr:`NetworkState.capacity_digest`):
    capacities and penalties in link order."""
    if isinstance(network, NetworkState):
        return network.capacity_digest
    return capacity_digest(network)


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
    ``MultiCommodityLp`` to the round's topology and demands — the
    model arrays are value-identical to what fresh assembly would build
    (same index arithmetic over the same wiring and demand pairs; the
    capacity RHS and the throughput bounds are rewritten in place, the
    penalty vector and any model with volumes in its matrix lazily
    rebuilt) — so HiGHS sees the same matrices and returns the same
    vector.  The value path (:meth:`throughput`) binds the same
    numbers, read from a state's digests instead of a topology,
    through the same routine (:meth:`MultiCommodityLp.bind`).  A memo
    hit replays a stored solver vector through ``_extract`` against
    the rebound topology and demands, which is exactly what the
    original solve did with the same numbers.  Either
    way the result is bit-identical to an uncached solve; the golden
    knob matrix enforces it byte-for-byte.
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
            structure_key(topology if state is None else state, demands),
            topology,
            demands,
        )

    def _cached_lp(self, skey: Hashable) -> MultiCommodityLp | None:
        lp = self._structures.get(skey)
        if lp is None:
            _metrics.counter("te.cache.structure_miss").inc()
        else:
            _metrics.counter("te.cache.structure_hit").inc()
            self._structures.move_to_end(skey)
        return lp

    def _assemble(
        self, skey: Hashable, topology: Topology, demands: Sequence[Demand]
    ) -> MultiCommodityLp:
        lp = self._structures[skey] = MultiCommodityLp(topology, demands)
        while len(self._structures) > self.structure_size:
            self._structures.popitem(last=False)
        return lp

    def _lp_for(
        self, skey: Hashable, topology: Topology, demands: Sequence[Demand]
    ) -> MultiCommodityLp:
        lp = self._cached_lp(skey)
        if lp is None:
            return self._assemble(skey, topology, demands)
        lp.rebind(topology, demands)
        return lp

    # -- memo layer --------------------------------------------------------

    def _recall(
        self,
        network: Topology | NetworkState,
        demands: Sequence[Demand],
        method: str,
    ) -> tuple[Hashable, Hashable, _MemoEntry | None]:
        """The structure key, the memo key and the memo entry, if any."""
        skey = structure_key(network, demands)
        mkey = (skey, numeric_key(network), demand_digest(demands), method)
        entry = self._memo.get(mkey)
        if entry is None:
            _metrics.counter("te.cache.memo_miss").inc()
        else:
            _metrics.counter("te.cache.memo_hit").inc()
            self._memo.move_to_end(mkey)
        return skey, mkey, entry

    def _remember(self, mkey: Hashable, entry: _MemoEntry) -> None:
        if self.memo_size:
            self._memo[mkey] = entry
            while len(self._memo) > self.memo_size:
                self._memo.popitem(last=False)

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
        skey, mkey, entry = self._recall(
            topology if state is None else state, demands, method
        )
        lp = self._lp_for(skey, topology, demands)
        if entry is not None:
            with _metrics.summary("te.cache.replay").time():
                solution = lp._extract(entry.x)
            return LpOutcome(
                solution=solution,
                objective_value=entry.objective_value,
                status=entry.status,
                concurrency=entry.concurrency,
                x=entry.x,
            )
        outcome: LpOutcome = getattr(lp, method)()
        if outcome.x is not None:
            self._remember(
                mkey,
                _MemoEntry(
                    x=outcome.x,
                    objective_value=outcome.objective_value,
                    status=outcome.status,
                    concurrency=outcome.concurrency,
                ),
            )
        return outcome

    def throughput(
        self, state: NetworkState, demands: Sequence[Demand]
    ) -> tuple[float, np.ndarray]:
        """The value path: one state's max-throughput value and vector.

        What :meth:`solve` with ``method="max_throughput"`` returns as
        ``(objective_value, x)``, bit for bit and under the same memo
        key, without a :class:`Topology` or a :class:`TeSolution`: a
        memo hit returns the stored value and vector; a structure hit
        binds ``state.capacity_digest`` (capacities and penalties in
        the LP's link order) and the demand volumes into the cached
        model through :meth:`MultiCommodityLp.bind`.  Only a structure
        miss materializes the state, once, to assemble.
        """
        skey, mkey, entry = self._recall(state, demands, "max_throughput")
        if entry is not None:
            return entry.objective_value, entry.x
        lp = self._cached_lp(skey)
        if lp is None:
            lp = self._assemble(skey, state.to_topology(), demands)
        else:
            lp.bind(*state.capacity_digest, demands)
        value, x = lp.throughput()
        self._remember(
            mkey,
            _MemoEntry(x=x, objective_value=value, status="optimal", concurrency=None),
        )
        return value, x

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


# -- round reuse -------------------------------------------------------------


def round_key(
    rows: Sequence[tuple[str, float, float]],
    traffic: Mapping[str, float],
    demands: Sequence[Demand],
) -> Hashable:
    """Everything one controller round's augment → TE → translate reads.

    ``rows`` holds ``(link_id, capacity, headroom)`` per live real link
    in link order (endpoints and weights come from the fixed physical
    topology); ``traffic`` is the per-link traffic memory the penalty
    policy prices each upgrade with; the demands enter as their
    :func:`~repro.state.digest.demand_digest`.  Equal keys mean equal
    inputs, so a reused round's decision is the one a fresh
    computation would reach.
    """
    return (tuple(rows), tuple(traffic.items()), demand_digest(demands))


class RoundMemo:
    """An LRU of whole rounds, :func:`round_key` -> decision, holding
    at most :data:`DEFAULT_MEMO_SIZE`.

    ``scope`` holds the objects the stored decisions were computed
    under (the TE algorithm, the ladder, ...); the owner asks
    :meth:`serves` before each lookup and starts a new memo when any
    of them was replaced.
    """

    def __init__(self, scope: tuple[object, ...]):
        self.scope = scope
        self._entries: OrderedDict[Hashable, object] = OrderedDict()

    def serves(self, scope: tuple[object, ...]) -> bool:
        """True when ``scope`` is, object for object, this memo's."""
        return len(scope) == len(self.scope) and all(
            a is b for a, b in zip(scope, self.scope)
        )

    def get(self, key: Hashable) -> object | None:
        entry = self._entries.get(key)
        if entry is None:
            _metrics.counter("te.cache.round_miss").inc()
        else:
            _metrics.counter("te.cache.round_hit").inc()
            self._entries.move_to_end(key)
        return entry

    def put(self, key: Hashable, entry: object) -> None:
        self._entries[key] = entry
        while len(self._entries) > DEFAULT_MEMO_SIZE:
            self._entries.popitem(last=False)


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


def solve_throughput(
    scenario: Topology | NetworkState,
    demands: Sequence[Demand],
    *,
    te_cache: bool | None = None,
) -> tuple[float, np.ndarray]:
    """One scenario's max-throughput value and solver vector, solved on
    the calling thread.

    The solve behind :func:`batch_throughput`, value-only: no
    :class:`TeSolution` is extracted.  The flow block of ``x`` follows
    the scenario's live links in order (for a state,
    :meth:`NetworkState.live_links`).  A state goes through the calling
    worker's :func:`worker_cache` by :meth:`TeSolveCache.throughput`,
    keyed and bound from its own digests; a topology is keyed through a
    verbatim snapshot.  ``te_cache=False`` materializes once and
    assembles a fresh LP (``None`` caches, like ``True``); the results
    are bit-identical either way, and equal to
    ``MultiCommodityLp(topology, demands).max_throughput()``'s
    ``objective_value`` and ``x``.
    """
    if isinstance(scenario, NetworkState):
        state = scenario
    else:
        state = NetworkState.snapshot(scenario, label="te.solve")
    if te_cache is False:
        return MultiCommodityLp(state.to_topology(), demands).throughput()
    return worker_cache().throughput(state, demands)


def _throughput_job(
    job: tuple[Topology | NetworkState, tuple[Demand, ...], bool | None],
) -> float:
    """One scenario's total throughput (module-level: picklable)."""
    scenario, demands, te_cache = job
    return solve_throughput(scenario, demands, te_cache=te_cache)[0]


def batch_throughput(
    scenarios: Sequence[Topology | NetworkState],
    demands: Sequence[Demand],
    *,
    workers: int | None = None,
    te_cache: bool | None = None,
) -> list[float]:
    """Total throughput of independent scenarios, in input order.

    Scenarios are :class:`Topology` objects or :class:`NetworkState`
    forks, each solved value-only by :func:`solve_throughput` through
    per-worker structure caches: a state whose wiring an earlier
    scenario shares is bound straight into the cached model, with no
    topology materialized and no reassembly.  Results are returned in input order and are
    identical for any worker count, including serial.  ``te_cache=False``
    bypasses the structure caches; ``None`` uses them, like ``True``.
    """
    demands = tuple(demands)
    jobs = [(scenario, demands, te_cache) for scenario in scenarios]
    n_workers = resolve_workers(workers)
    with _metrics.summary("te.batch.throughput").time(
        n_scenarios=len(jobs), workers=n_workers
    ):
        if n_workers > 1 and len(jobs) > 1:
            return list(pool_map(_throughput_job, jobs, n_workers))
        return [_throughput_job(job) for job in jobs]
