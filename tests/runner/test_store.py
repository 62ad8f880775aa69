"""ShardStore interface: both layouts validate, quarantine and recompute.

``tests/runner/test_cache.py`` pins the :class:`~repro.runner.store.
FsStore` (filesystem) behavior; this suite runs the same corruption battery
through the :class:`~repro.runner.store.ShardStore` interface against
*every* registered layout, plus the ObjectStore-specific semantics
(flat put/get/exists blobs, first-writer-wins puts) and the cross-layout
contract: identical keys, identical payload bytes.
"""

import json

import pytest

from repro.experiments.acceptance import SweepConfig
from repro.runner import (
    FsStore,
    ObjectStore,
    create_store,
    decompose_sweep,
    execute_units,
    run_unit,
    unit_key,
)
from repro.runner.store import STORES, encode_outcome

CONFIG = SweepConfig(label="store-test", m=2, samples_per_bucket=2)
ALGOS = ("cu-udp-edf-vd",)


def make_unit(index: int = 4):
    return decompose_sweep(CONFIG, ALGOS)[index]


def blob_path(store, unit):
    """Where a unit's blob lives, regardless of layout."""
    return store._blob_path(store.key(unit))


@pytest.fixture(params=sorted(STORES))
def store(request, tmp_path):
    return create_store(request.param, tmp_path)


class TestInterface:
    def test_registry_covers_both_layouts(self):
        assert STORES == {"fs": FsStore, "object": ObjectStore}
        for kind, cls in STORES.items():
            assert cls.kind == kind

    def test_create_store_rejects_unknown_kind(self, tmp_path):
        with pytest.raises(ValueError, match="unknown shard store"):
            create_store("s3", tmp_path)

    def test_round_trip(self, store):
        unit = make_unit()
        outcome = run_unit(unit)
        store.store(unit, outcome)
        assert store.load(unit) == outcome
        assert (store.hits, store.misses, store.stored) == (1, 0, 1)

    def test_cold_store_misses(self, store):
        assert store.load(make_unit()) is None
        assert (store.hits, store.misses) == (0, 1)

    def test_blob_primitives(self, store):
        key = unit_key(make_unit())
        assert not store.exists(key)
        assert store.get(key) is None
        store.put(key, "payload\n")
        assert store.exists(key)
        assert store.get(key) == "payload\n"
        store.discard(key)
        assert not store.exists(key)
        store.discard(key)  # idempotent on absent blobs


class TestCorruptionEveryLayout:
    """Damage quarantines as a miss and is recomputed — in any layout."""

    def _primed(self, store):
        unit = make_unit()
        store.store(unit, run_unit(unit))
        return unit

    def test_garbage_bytes_rejected(self, store):
        unit = self._primed(store)
        blob_path(store, unit).write_text("not json at all {{{")
        assert store.load(unit) is None
        assert store.rejected == 1

    def test_truncated_write_rejected(self, store):
        unit = self._primed(store)
        path = blob_path(store, unit)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert store.load(unit) is None
        assert store.rejected == 1

    def test_tampered_payload_rejected(self, store):
        unit = self._primed(store)
        path = blob_path(store, unit)
        data = json.loads(path.read_text())
        data["samples"] = -3
        path.write_text(json.dumps(data))
        assert store.load(unit) is None

    def test_key_mismatch_rejected(self, store):
        unit = self._primed(store)
        path = blob_path(store, unit)
        data = json.loads(path.read_text())
        data["key"] = "0" * 64
        path.write_text(json.dumps(data))
        assert store.load(unit) is None

    def test_corrupted_shard_is_recomputed_not_loaded(self, store):
        unit = self._primed(store)
        good = run_unit(unit)
        blob_path(store, unit).write_text('{"key": "wrong"}')
        outcomes = execute_units([unit], cache=store)
        assert outcomes == [good]
        assert store.load(unit) == good


class TestObjectStoreSemantics:
    def test_flat_layout_under_objects(self, tmp_path):
        store = ObjectStore(tmp_path)
        unit = make_unit()
        path = store.store(unit, run_unit(unit))
        assert path == tmp_path / "objects" / store.key(unit)

    def test_put_is_first_writer_wins(self, tmp_path):
        store = ObjectStore(tmp_path)
        store.put("deadbeef", "first\n")
        store.put("deadbeef", "second\n")
        assert store.get("deadbeef") == "first\n"


class TestCrossLayoutContract:
    def test_same_keys_same_bytes(self, tmp_path):
        fs = FsStore(tmp_path / "fs")
        obj = ObjectStore(tmp_path / "obj")
        for unit in decompose_sweep(CONFIG, ALGOS):
            outcome = run_unit(unit)
            fs_path = fs.store(unit, outcome)
            obj_path = obj.store(unit, outcome)
            assert fs.key(unit) == obj.key(unit) == unit_key(unit)
            assert fs_path.read_bytes() == obj_path.read_bytes()
            assert fs_path.read_text() == encode_outcome(unit, outcome)

    def test_either_layout_resumes_the_other_logically(self, tmp_path):
        """A shard computed under one layout hits when its bytes are
        copied into the other — content addressing carries across."""
        fs = FsStore(tmp_path / "fs")
        obj = ObjectStore(tmp_path / "obj")
        unit = make_unit()
        outcome = run_unit(unit)
        fs.store(unit, outcome)
        obj.put(obj.key(unit), fs.get(fs.key(unit)))
        assert obj.load(unit) == outcome
