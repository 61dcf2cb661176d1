"""Declarative scenario specs and sweep grids.

A :class:`ScenarioSpec` names one concrete experiment run: which
registered experiment (:mod:`repro.experiments.registry`) to execute
and with which parameters (backbone config knobs, topology size, demand
model, policy/TE variant, seed, ...).  A :class:`Sweep` is a base spec
plus *axes* — parameter grids expanded by cartesian product into
concrete specs, e.g. seeds x TE interval x policy.

Both are frozen, hashable, and serialisable to/from plain dicts, JSON
and TOML, so a sweep can live in a checked-in file and its expansion is
reproducible byte-for-byte.  Content addressing (spec hash + code
fingerprint) lives in :func:`repro.experiments.registry.spec_key`,
because the code fingerprint depends on which experiment the spec
names.

Spec files look like::

    name = "quick"
    experiment = "reactive"

    [params]
    days = 2.0

    [axes]
    seed = [1, 2]
    policy = ["run", "walk"]

``[params]`` holds values shared by every point; each ``[axes]`` entry
is swept.  A file with no ``[axes]`` is a single-run sweep.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

def _freeze(value: Any) -> Any:
    """Canonicalise a parameter value into a hashable, JSON-able form."""
    if isinstance(value, bool) or value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    raise TypeError(
        f"unsupported parameter value {value!r} "
        f"(use JSON scalars or lists of them)"
    )


def _thaw(value: Any) -> Any:
    """The JSON-ready mirror of :func:`_freeze` (tuples back to lists)."""
    if isinstance(value, tuple):
        return [_thaw(v) for v in value]
    return value


def _freeze_params(params: Mapping[str, Any]) -> tuple[tuple[str, Any], ...]:
    for key in params:
        if not isinstance(key, str) or not key:
            raise TypeError(f"parameter names must be non-empty strings, got {key!r}")
    return tuple((k, _freeze(v)) for k, v in sorted(params.items()))


@dataclass(frozen=True)
class ScenarioSpec:
    """One named, concrete experiment run.

    ``params`` is stored as a sorted tuple of pairs so the spec is
    hashable and its serialised form is canonical — two specs with the
    same content always produce the same payload and therefore the same
    artifact key.
    """

    name: str
    experiment: str
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a spec needs a name")
        if not self.experiment:
            raise ValueError("a spec names an experiment")
        object.__setattr__(self, "params", _freeze_params(dict(self.params)))

    @classmethod
    def create(cls, name: str, experiment: str, **params: Any) -> "ScenarioSpec":
        return cls(name=name, experiment=experiment, params=_freeze_params(params))

    def params_dict(self) -> dict[str, Any]:
        """The parameters as a plain dict (values thawed to JSON types)."""
        return {k: _thaw(v) for k, v in self.params}

    def with_params(self, **overrides: Any) -> "ScenarioSpec":
        merged = self.params_dict()
        merged.update(overrides)
        return ScenarioSpec(
            name=self.name, experiment=self.experiment, params=_freeze_params(merged)
        )

    # -- serialisation -----------------------------------------------------

    def to_payload(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "experiment": self.experiment,
            "params": self.params_dict(),
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        return cls(
            name=str(payload["name"]),
            experiment=str(payload["experiment"]),
            params=_freeze_params(dict(payload.get("params", {}))),
        )

    def canonical_json(self) -> str:
        """The byte-stable serialisation hashed into the artifact key."""
        return json.dumps(self.to_payload(), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Sweep:
    """A base spec plus parameter grids, expanded by cartesian product.

    Axis order is the order given (not sorted): the first axis varies
    slowest, exactly like nested for-loops, so run ordering — and
    therefore progress output — is predictable.
    """

    name: str
    experiment: str
    params: tuple[tuple[str, Any], ...] = ()
    axes: tuple[tuple[str, tuple[Any, ...]], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a sweep needs a name")
        if not self.experiment:
            raise ValueError("a sweep names an experiment")
        object.__setattr__(self, "params", _freeze_params(dict(self.params)))
        seen = set()
        frozen_axes = []
        for axis, values in self.axes:
            values = tuple(_freeze(v) for v in values)
            if not values:
                raise ValueError(f"axis {axis!r} has no values")
            if axis in seen:
                raise ValueError(f"duplicate axis {axis!r}")
            if axis in dict(self.params):
                raise ValueError(f"axis {axis!r} also set in params")
            seen.add(axis)
            frozen_axes.append((axis, values))
        object.__setattr__(self, "axes", tuple(frozen_axes))

    @classmethod
    def create(
        cls,
        name: str,
        experiment: str,
        params: Mapping[str, Any] | None = None,
        axes: Mapping[str, Iterable[Any]] | None = None,
    ) -> "Sweep":
        return cls(
            name=name,
            experiment=experiment,
            params=_freeze_params(dict(params or {})),
            axes=tuple((k, tuple(v)) for k, v in (axes or {}).items()),
        )

    @property
    def n_points(self) -> int:
        n = 1
        for _, values in self.axes:
            n *= len(values)
        return n

    def expand(self) -> list[ScenarioSpec]:
        """Every concrete point of the grid, in nested-loop order.

        Point names append the axis assignments to the sweep name
        (``quick/policy=run,seed=1``) so artifacts and manifests read
        without a decoder ring.
        """
        base = dict(self.params)
        if not self.axes:
            return [ScenarioSpec(self.name, self.experiment, _freeze_params(base))]
        names = [axis for axis, _ in self.axes]
        grids = [values for _, values in self.axes]
        points = []
        for combo in itertools.product(*grids):
            assignment = dict(zip(names, combo))
            label = ",".join(f"{k}={_thaw(v)}" for k, v in sorted(assignment.items()))
            points.append(
                ScenarioSpec(
                    name=f"{self.name}/{label}",
                    experiment=self.experiment,
                    params=_freeze_params({**base, **assignment}),
                )
            )
        return points

    # -- serialisation -----------------------------------------------------

    def to_payload(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "experiment": self.experiment,
            "params": {k: _thaw(v) for k, v in self.params},
            "axes": {k: [_thaw(v) for v in values] for k, values in self.axes},
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "Sweep":
        if "experiment" not in payload:
            from repro.experiments.registry import experiment_names

            raise KeyError(
                f"sweep {payload.get('name')!r} names no experiment "
                f"(known: {', '.join(experiment_names())})"
            )
        return cls.create(
            name=str(payload["name"]),
            experiment=str(payload["experiment"]),
            params=dict(payload.get("params", {})),
            axes={k: list(v) for k, v in dict(payload.get("axes", {})).items()},
        )

    def canonical_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True, separators=(",", ":"))


# -- file formats ----------------------------------------------------------


def load_sweep(path: str | Path) -> Sweep:
    """Read a sweep definition from a ``.toml`` or ``.json`` file."""
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() == ".toml":
        try:
            import tomllib
        except ModuleNotFoundError as exc:  # pragma: no cover - py<3.11
            raise RuntimeError(
                "TOML sweep files need Python >= 3.11 (tomllib); "
                "use the JSON format instead"
            ) from exc
        payload = tomllib.loads(text)
    else:
        payload = json.loads(text)
    return Sweep.from_payload(payload)
