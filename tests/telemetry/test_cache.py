"""Tests for the content-addressed summary cache."""

import pytest

from repro.optics.modulation import DEFAULT_MODULATIONS, ModulationTable
from repro.telemetry import cache
from repro.telemetry.dataset import BackboneConfig, BackboneDataset


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(cache.CACHE_DIR_ENV, str(tmp_path / "cache"))
    monkeypatch.delenv(cache.NO_CACHE_ENV, raising=False)
    return tmp_path / "cache"


@pytest.fixture()
def tiny_config():
    return BackboneConfig.small(years=0.05, n_cables=2, seed=11)


class TestSwitches:
    def test_dir_from_env(self, isolated_cache):
        assert cache.cache_dir() == isolated_cache

    def test_enabled_by_default(self):
        assert cache.cache_enabled() is True

    def test_env_disables(self, monkeypatch):
        monkeypatch.setenv(cache.NO_CACHE_ENV, "1")
        assert cache.cache_enabled() is False

    def test_override_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(cache.NO_CACHE_ENV, "1")
        assert cache.cache_enabled(True) is True
        monkeypatch.delenv(cache.NO_CACHE_ENV)
        assert cache.cache_enabled(False) is False


class TestKeys:
    def test_stable_for_equal_inputs(self, tiny_config):
        a = cache.dataset_key(tiny_config, DEFAULT_MODULATIONS)
        b = cache.dataset_key(tiny_config, DEFAULT_MODULATIONS)
        assert a == b

    def test_config_changes_key(self, tiny_config):
        other = BackboneConfig.small(years=0.05, n_cables=2, seed=12)
        assert cache.dataset_key(tiny_config, DEFAULT_MODULATIONS) != cache.dataset_key(
            other, DEFAULT_MODULATIONS
        )

    def test_table_changes_key(self, tiny_config):
        trimmed = ModulationTable(list(DEFAULT_MODULATIONS)[:3])
        assert cache.dataset_key(tiny_config, DEFAULT_MODULATIONS) != cache.dataset_key(
            tiny_config, trimmed
        )

    def test_key_includes_code_fingerprint(self, tiny_config, monkeypatch):
        before = cache.dataset_key(tiny_config, DEFAULT_MODULATIONS)
        monkeypatch.setattr(cache, "code_fingerprint", lambda: "different")
        assert cache.dataset_key(tiny_config, DEFAULT_MODULATIONS) != before

    def test_code_fingerprint_covers_optics_units(self, monkeypatch):
        # repro.optics.fiber takes its dB conversions from repro.optics.units
        hashed: list[str] = []
        monkeypatch.setattr(
            cache, "fingerprint_modules", lambda modules: hashed.extend(modules) or "x"
        )
        cache.code_fingerprint()
        assert "repro.optics.units" in hashed


class TestRoundTrip:
    def test_miss_on_empty_cache(self):
        assert cache.load("deadbeef") is None

    def test_store_then_load(self, tiny_config):
        summaries = BackboneDataset(tiny_config).summaries(cache=False)
        key = cache.dataset_key(tiny_config, DEFAULT_MODULATIONS)
        cache.store(key, summaries)
        assert cache.load(key) == summaries

    def test_corrupt_entry_is_a_miss_and_removed(self, tiny_config):
        key = cache.dataset_key(tiny_config, DEFAULT_MODULATIONS)
        path = cache.cache_dir() / f"summaries-{key}.json"
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert cache.load(key) is None
        assert not path.exists()

    def test_clear(self, tiny_config):
        summaries = BackboneDataset(tiny_config).summaries(cache=False)
        cache.store("aaaa", summaries)
        cache.store("bbbb", summaries)
        assert cache.clear() == 2
        assert cache.load("aaaa") is None


class TestDatasetIntegration:
    def test_warm_run_equals_cold_run(self, tiny_config):
        dataset = BackboneDataset(tiny_config)
        cold = dataset.summaries()
        warm = dataset.summaries()
        assert warm == cold

    def test_warm_run_skips_synthesis(self, tiny_config):
        from repro.obs import metrics

        dataset = BackboneDataset(tiny_config)
        dataset.summaries()
        with metrics.isolated() as reg:
            dataset.summaries()
        assert reg.counter_value("synthesis.cache_hit") == 1
        assert reg.get_summary("synthesis.summaries") is None

    def test_no_cache_keeps_disk_untouched(self, tiny_config, isolated_cache):
        BackboneDataset(tiny_config).summaries(cache=False)
        assert not isolated_cache.exists()
