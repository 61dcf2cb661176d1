"""Per-layer self-time, measured from outside by wrapping public callables.

:class:`LayerTracer` is a context manager that replaces each layer's
entry points (class methods or module attributes) with timing wrappers
and puts the originals back on exit, also when the body raises.  Self
time comes from a call stack: every wrapped call charges its elapsed
time to its caller's child total, and its own self time is its elapsed
time minus that child total, so a nested call such as
``te.incremental`` -> ``linprog`` -> HiGHS is never counted twice.

Nothing under ``src/`` is edited: the wrappers are installed on the
live objects for the duration of one traced phase only.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable


@dataclass(frozen=True)
class Layer:
    """One wrapped entry point.

    ``target`` is ``"module:attr"`` or ``"module:Class.attr"``.  Several
    entry points may share one ``name``; their self times add up.
    ``timed=False`` only counts calls: the time stays with the caller
    (used for ``os.fsync``, whose cost belongs to the journal write
    that issued it).  ``count`` maps a call's return value to a number
    added to the entry point's item total (engine events dispatched).
    """

    name: str
    target: str
    timed: bool = True
    count: Callable[[Any], float] | None = None


def _engine_events(stats: Any) -> float:
    return float(stats.n_events)


#: every layer the traced run measures, in the order of the metric table
LAYERS: tuple[Layer, ...] = (
    Layer("te.lp.highs", "scipy.optimize._linprog_highs:_highs_wrapper"),
    Layer("te.lp.linprog_wrapper", "repro.te.lp:linprog"),
    Layer("te.lp.assemble", "repro.te.lp:MultiCommodityLp.__init__"),
    Layer("te.lp.extract", "repro.te.lp:MultiCommodityLp._extract"),
    Layer("te.incremental", "repro.te.incremental:TeSolveCache.solve"),
    # replay_tickets calls the name it imported, so wrap it there
    Layer("te.incremental", "repro.sim.whatif:batch_throughput"),
    Layer(
        "recovery.journal.append",
        "repro.recovery.journal:StateJournal.append_transition",
    ),
    Layer(
        "recovery.journal.commit_round",
        "repro.recovery.journal:StateJournal.commit_round",
    ),
    Layer(
        "recovery.journal.checkpoint",
        "repro.recovery.journal:StateJournal.maybe_checkpoint",
    ),
    Layer("recovery.journal.fsync", "os:fsync", timed=False),
    Layer("state.commit", "repro.state.store:StateStore.commit"),
    Layer("state.evolve", "repro.state.model:NetworkState.evolve"),
    Layer("state.to_topology", "repro.state.model:NetworkState.to_topology"),
    Layer("core.controller", "repro.core.controller:DynamicCapacityController.step"),
    # the controller calls the names it imported, so wrap them there
    Layer("core.augmentation", "repro.core.controller:augment_topology"),
    Layer("core.translation", "repro.core.controller:translate"),
    Layer("bvt.change", "repro.bvt.transceiver:Bvt.change_modulation"),
    Layer("engine", "repro.engine.kernel:Engine.run", count=_engine_events),
)


def resolve(target: str) -> tuple[Any, str]:
    """The object that owns ``target``'s attribute, and its name."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class LayerTracer:
    """Wrap every layer's entry points for the duration of a ``with``.

    After the block: ``self_s[name]`` is a layer's self time in seconds,
    ``calls[target]`` and ``items[target]`` the per-entry-point call and
    return-value counts, and ``nested[(target, layer)]`` how many calls
    of ``target`` had a call of ``layer`` somewhere beneath them.
    """

    def __init__(self, layers: tuple[Layer, ...] = LAYERS):
        self.layers = layers
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.items: dict[str, float] = defaultdict(float)
        self.nested: dict[tuple[str, str], int] = defaultdict(int)
        # one frame per active wrapped call: [child seconds, layers below]
        self._stack: list[list[Any]] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "LayerTracer":
        try:
            for layer in self.layers:
                owner, attr = resolve(layer.target)
                # the owner's own attribute: restoring it is exact
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(layer, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc: Any) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, layer: Layer, fn: Callable[..., Any]) -> Callable[..., Any]:
        name, target = layer.name, layer.target
        calls, stack = self.calls, self._stack
        if not layer.timed:

            @functools.wraps(fn)
            def counted(*args: Any, **kwargs: Any) -> Any:
                calls[target] += 1
                return fn(*args, **kwargs)

            return counted

        self_s, items, nested, count = self.self_s, self.items, self.nested, layer.count

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            calls[target] += 1
            frame: list[Any] = [0.0, set()]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_s[name] += elapsed - frame[0]
                below = frame[1]
                for layer_below in below:
                    nested[(target, layer_below)] += 1
                if stack:
                    parent = stack[-1]
                    parent[0] += elapsed
                    parent[1] |= below
                    parent[1].add(name)
            if count is not None:
                items[target] += count(result)
            return result

        return timed

    def layer_calls(self, name: str) -> int:
        """Calls of every entry point of layer ``name``."""
        return sum(
            self.calls[layer.target] for layer in self.layers if layer.name == name
        )

    def hit_ratio(self, target: str, miss_layer: str) -> float:
        """Share of ``target`` calls that reached no ``miss_layer`` call."""
        total = self.calls[target]
        if total == 0:
            return 0.0
        return (total - self.nested[(target, miss_layer)]) / total


def layer_metrics(
    tracer: LayerTracer, n_ops: int, op_seconds: float
) -> dict[str, tuple[float, str]]:
    """Per-op layer metrics of one traced phase: name -> (value, unit)."""
    ms = 1e3 / n_ops

    def self_ms(name: str) -> tuple[float, str]:
        return tracer.self_s[name] * ms, "ms"

    def per_op(name: str) -> tuple[float, str]:
        return tracer.layer_calls(name) / n_ops, "count"

    solve = "repro.te.incremental:TeSolveCache.solve"
    attributed = sum(tracer.self_s.values())
    return {
        "te.lp.highs_ms_per_op": self_ms("te.lp.highs"),
        "te.lp.solves_per_op": per_op("te.lp.highs"),
        "te.lp.linprog_wrapper_ms_per_op": self_ms("te.lp.linprog_wrapper"),
        "te.lp.assemble_ms_per_op": self_ms("te.lp.assemble"),
        "te.lp.assemblies_per_op": per_op("te.lp.assemble"),
        "te.lp.extract_ms_per_op": self_ms("te.lp.extract"),
        "te.incremental.self_ms_per_op": self_ms("te.incremental"),
        "te.incremental.memo_hit_ratio": (
            tracer.hit_ratio(solve, "te.lp.linprog_wrapper"),
            "ratio",
        ),
        "te.incremental.structure_hit_ratio": (
            tracer.hit_ratio(solve, "te.lp.assemble"),
            "ratio",
        ),
        "recovery.journal.append_ms_per_op": self_ms("recovery.journal.append"),
        "recovery.journal.commit_round_ms_per_op": self_ms(
            "recovery.journal.commit_round"
        ),
        "recovery.journal.checkpoint_ms_per_op": self_ms(
            "recovery.journal.checkpoint"
        ),
        "recovery.journal.fsyncs_per_op": per_op("recovery.journal.fsync"),
        "state.commit_ms_per_op": self_ms("state.commit"),
        "state.commits_per_op": per_op("state.commit"),
        "state.evolve_ms_per_op": self_ms("state.evolve"),
        "state.to_topology_ms_per_op": self_ms("state.to_topology"),
        "core.controller.self_ms_per_op": self_ms("core.controller"),
        "core.augmentation.ms_per_op": self_ms("core.augmentation"),
        "core.translation.ms_per_op": self_ms("core.translation"),
        "bvt.change_ms_per_op": self_ms("bvt.change"),
        "bvt.reconfigurations_per_op": per_op("bvt.change"),
        "engine.self_ms_per_op": self_ms("engine"),
        "engine.events_per_op": (
            tracer.items["repro.engine.kernel:Engine.run"] / n_ops,
            "count",
        ),
        "unattributed_ms_per_op": ((op_seconds - attributed) * ms, "ms"),
    }
