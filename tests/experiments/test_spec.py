"""Tests for scenario specs and sweep grids."""

import json

import pytest

from repro.experiments.spec import ScenarioSpec, Sweep, load_sweep


class TestScenarioSpec:
    def test_create_and_params_roundtrip(self):
        spec = ScenarioSpec.create("s", "study", cables=4, years=0.5)
        assert spec.params_dict() == {"cables": 4, "years": 0.5}

    def test_params_are_canonical(self):
        a = ScenarioSpec.create("s", "study", cables=4, years=0.5)
        b = ScenarioSpec.create("s", "study", years=0.5, cables=4)
        assert a == b
        assert hash(a) == hash(b)
        assert a.canonical_json() == b.canonical_json()

    def test_hashable(self):
        spec = ScenarioSpec.create("s", "study", scales=[0.5, 1.0])
        assert spec in {spec}

    def test_lists_frozen_to_tuples(self):
        spec = ScenarioSpec.create("s", "throughput", scales=[0.5, 1.0])
        assert spec.params == (("scales", (0.5, 1.0)),)
        assert spec.params_dict() == {"scales": [0.5, 1.0]}

    def test_rejects_non_json_values(self):
        with pytest.raises(TypeError, match="unsupported parameter"):
            ScenarioSpec.create("s", "study", rng=object())

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            ScenarioSpec.create("", "study")
        with pytest.raises(ValueError):
            ScenarioSpec.create("s", "")

    def test_payload_roundtrip(self):
        spec = ScenarioSpec.create("s", "study", cables=4)
        assert ScenarioSpec.from_payload(spec.to_payload()) == spec

    def test_with_params_overrides(self):
        spec = ScenarioSpec.create("s", "study", cables=4, seed=1)
        bumped = spec.with_params(seed=2)
        assert bumped.params_dict() == {"cables": 4, "seed": 2}
        assert spec.params_dict()["seed"] == 1  # original untouched


class TestSweep:
    def test_expand_cartesian_product(self):
        sweep = Sweep.create(
            "q", "reactive", axes={"seed": [1, 2], "policy": ["run", "walk"]}
        )
        points = sweep.expand()
        assert sweep.n_points == len(points) == 4
        assert {p.params_dict()["seed"] for p in points} == {1, 2}
        assert {p.params_dict()["policy"] for p in points} == {"run", "walk"}

    def test_expansion_order_is_nested_loop(self):
        sweep = Sweep.create("q", "reactive", axes={"seed": [1, 2], "x": [3, 4]})
        combos = [(p.params_dict()["seed"], p.params_dict()["x"])
                  for p in sweep.expand()]
        assert combos == [(1, 3), (1, 4), (2, 3), (2, 4)]

    def test_point_names_are_readable(self):
        sweep = Sweep.create("q", "reactive", axes={"seed": [7]})
        assert sweep.expand()[0].name == "q/seed=7"

    def test_no_axes_is_single_run(self):
        sweep = Sweep.create("q", "study", params={"cables": 3})
        points = sweep.expand()
        assert len(points) == 1
        assert points[0].name == "q"
        assert points[0].params_dict() == {"cables": 3}

    def test_base_params_shared_by_every_point(self):
        sweep = Sweep.create(
            "q", "reactive", params={"days": 0.5}, axes={"seed": [1, 2]}
        )
        assert all(p.params_dict()["days"] == 0.5 for p in sweep.expand())

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            Sweep.create("q", "reactive", axes={"seed": []})

    def test_axis_overlapping_params_rejected(self):
        with pytest.raises(ValueError, match="also set in params"):
            Sweep.create(
                "q", "reactive", params={"seed": 1}, axes={"seed": [1, 2]}
            )

    def test_payload_roundtrip(self):
        sweep = Sweep.create(
            "q", "reactive", params={"days": 0.5}, axes={"seed": [1, 2]}
        )
        assert Sweep.from_payload(sweep.to_payload()) == sweep


class TestSweepFiles:
    def test_json_roundtrip(self, tmp_path):
        sweep = Sweep.create(
            "q", "reactive", params={"days": 0.5}, axes={"seed": [1, 2]}
        )
        path = tmp_path / "s.json"
        path.write_text(json.dumps(sweep.to_payload(), sort_keys=True))
        assert load_sweep(path) == sweep

    def test_toml_roundtrip(self, tmp_path):
        sweep = Sweep.create(
            "q", "reactive",
            params={"days": 0.5, "policy": "run"},
            axes={"seed": [1, 2], "mode": ["reactive", "proactive"]},
        )
        path = tmp_path / "s.toml"
        path.write_text(
            'name = "q"\n'
            'experiment = "reactive"\n'
            "\n"
            "[params]\n"
            "days = 0.5\n"
            'policy = "run"\n'
            "\n"
            "[axes]\n"
            "seed = [1, 2]\n"
            'mode = ["reactive", "proactive"]\n'
        )
        assert load_sweep(path) == sweep

    def test_checked_in_example_loads(self):
        from pathlib import Path

        example = Path(__file__).parents[2] / "examples" / "sweeps" / "quick.toml"
        sweep = load_sweep(example)
        assert sweep.experiment == "reactive"
        assert sweep.n_points == 4
