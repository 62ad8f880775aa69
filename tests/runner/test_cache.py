"""Shard-cache correctness: round-trips, corruption handling, stats."""

import json

from repro.experiments.acceptance import SweepConfig
from repro.runner import FsStore, decompose_sweep, execute_units, run_unit

CONFIG = SweepConfig(label="cache-test", m=2, samples_per_bucket=2)
ALGOS = ("cu-udp-edf-vd",)


def make_unit(index: int = 4):
    return decompose_sweep(CONFIG, ALGOS)[index]


class TestRoundTrip:
    def test_store_then_load(self, tmp_path):
        cache = FsStore(tmp_path)
        unit = make_unit()
        outcome = run_unit(unit)
        cache.store(unit, outcome)
        assert cache.load(unit) == outcome
        assert (cache.hits, cache.misses, cache.stored) == (1, 0, 1)

    def test_cold_cache_misses(self, tmp_path):
        cache = FsStore(tmp_path)
        assert cache.load(make_unit()) is None
        assert (cache.hits, cache.misses) == (0, 1)

    def test_key_is_stable_and_config_sensitive(self, tmp_path):
        cache = FsStore(tmp_path)
        unit = make_unit()
        assert cache.key(unit) == cache.key(make_unit())
        other_cfg = SweepConfig(label="cache-test", m=4, samples_per_bucket=2)
        other = decompose_sweep(other_cfg, ALGOS)[4]
        assert cache.key(unit) != cache.key(other)
        more_algos = decompose_sweep(CONFIG, ("cu-udp-edf-vd", "ca-f-f-ey"))[4]
        assert cache.key(unit) != cache.key(more_algos)


class TestCorruption:
    """A damaged shard must be detected and silently recomputed."""

    def _primed(self, tmp_path):
        cache = FsStore(tmp_path)
        unit = make_unit()
        cache.store(unit, run_unit(unit))
        return cache, unit

    def test_garbage_bytes_rejected(self, tmp_path):
        cache, unit = self._primed(tmp_path)
        cache.shard_path(unit).write_text("not json at all {{{")
        assert cache.load(unit) is None
        assert cache.rejected == 1

    def test_truncated_write_rejected(self, tmp_path):
        cache, unit = self._primed(tmp_path)
        path = cache.shard_path(unit)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert cache.load(unit) is None
        assert cache.rejected == 1

    def test_tampered_payload_rejected(self, tmp_path):
        cache, unit = self._primed(tmp_path)
        path = cache.shard_path(unit)
        data = json.loads(path.read_text())
        data["samples"] = -3
        path.write_text(json.dumps(data))
        assert cache.load(unit) is None

    def test_wrong_algorithm_set_rejected(self, tmp_path):
        cache, unit = self._primed(tmp_path)
        path = cache.shard_path(unit)
        data = json.loads(path.read_text())
        data["ratios"] = {"someone-else": 0.5}
        path.write_text(json.dumps(data))
        assert cache.load(unit) is None

    def test_corrupted_shard_is_recomputed_not_loaded(self, tmp_path):
        cache, unit = self._primed(tmp_path)
        good = run_unit(unit)
        cache.shard_path(unit).write_text('{"key": "wrong"}')
        outcomes = execute_units([unit], cache=cache)
        assert outcomes == [good]
        # the recompute repaired the cache in place
        assert cache.load(unit) == good


class TestResume:
    def test_partial_campaign_only_computes_missing_shards(self, tmp_path):
        cache = FsStore(tmp_path)
        units = decompose_sweep(CONFIG, ALGOS)
        # interrupted run: only the first three shards landed
        for unit in units[:3]:
            cache.store(unit, run_unit(unit))
        stored_before = cache.stored
        execute_units(units, cache=cache)
        assert cache.hits == 3
        assert cache.stored - stored_before == len(units) - 3
