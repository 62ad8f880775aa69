"""Differential contract of the campaign fabric.

Every executor backend (``serial`` / ``cluster``) crossed with every
shard store (``fs`` / ``object``) must produce **bit-identical**
``SweepResult``s, WAR tables and shard payload bytes on fig3-style
(implicit) and fig5-style (constrained) slices — including cluster runs
where workers are SIGKILLed mid-shard.  Backends decide *where* units
run and stores decide *how* shards persist; neither may leave a
fingerprint on the science.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.acceptance import SweepConfig
from repro.experiments.weighted import weighted_acceptance_ratio
from repro.runner import (
    ClusterBackend,
    ExecutorBackend,
    SerialBackend,
    create_store,
    registered_backends,
    resolve_backend,
    run_sweep,
)
from repro.runner.store import STORES
from repro.util.env import RUNNER_BACKENDS

#: One implicit-deadline (fig3-style) and one constrained-deadline
#: (fig5-style) slice, small enough that the full matrix stays fast.
SLICES = {
    "fig3": (
        SweepConfig(label="fabric-fig3", m=2, samples_per_bucket=3),
        ("cu-udp-edf-vd", "ca-nosort-f-f-edf-vd"),
    ),
    "fig5": (
        SweepConfig(
            label="fabric-fig5",
            m=2,
            deadline_type="constrained",
            samples_per_bucket=3,
        ),
        ("cu-udp-ecdf", "ca-f-f-ey"),
    ),
}

BACKENDS = registered_backends()


def war_table(result) -> dict[str, float]:
    """The paper's headline metric, per algorithm, for one sweep."""
    return {
        name: weighted_acceptance_ratio(result.buckets, series)
        for name, series in result.ratios.items()
    }


def blob_map(store) -> dict[str, str]:
    """Every shard blob in a store, keyed by content hash."""
    root = Path(store.root)
    if store.kind == "fs":
        return {p.stem: p.read_text() for p in root.rglob("*.json")}
    objects = root / "objects"
    if not objects.is_dir():
        return {}
    return {p.name: p.read_text() for p in objects.iterdir()}


@pytest.fixture(scope="module")
def reference():
    """Serial, uncached ground truth per slice: result + WAR table."""
    out = {}
    for slice_name, (config, algos) in SLICES.items():
        result = run_sweep(config, algos)
        out[slice_name] = (result, war_table(result))
    return out


@pytest.fixture(scope="module")
def reference_blobs(reference, tmp_path_factory):
    """Canonical shard bytes per slice (serial run through an FsStore)."""
    out = {}
    for slice_name, (config, algos) in SLICES.items():
        store = create_store("fs", tmp_path_factory.mktemp(f"ref-{slice_name}"))
        run_sweep(config, algos, cache=store)
        out[slice_name] = blob_map(store)
        assert out[slice_name], "reference run must persist shards"
    return out


class TestBackendStoreMatrix:
    """2 backends x 2 stores, each slice: results, WARs and bytes agree."""

    @pytest.mark.parametrize("slice_name", sorted(SLICES))
    @pytest.mark.parametrize("store_kind", sorted(STORES))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bit_identical(
        self, backend, store_kind, slice_name, reference, reference_blobs, tmp_path
    ):
        config, algos = SLICES[slice_name]
        store = create_store(store_kind, tmp_path)
        result = run_sweep(config, algos, jobs=2, cache=store, backend=backend)
        expected, expected_war = reference[slice_name]
        assert result == expected
        assert war_table(result) == expected_war
        # identical keys, identical payload bytes — regardless of layout
        assert blob_map(store) == reference_blobs[slice_name]

    def test_sweep_result_json_is_backend_invariant(self, reference):
        config, algos = SLICES["fig3"]
        expected, _ = reference["fig3"]
        expected_json = json.dumps(
            {"buckets": expected.buckets, "ratios": expected.ratios},
            sort_keys=True,
        )
        for backend in BACKENDS:
            result = run_sweep(config, algos, jobs=2, backend=backend)
            got = json.dumps(
                {"buckets": result.buckets, "ratios": result.ratios},
                sort_keys=True,
            )
            assert got == expected_json, f"{backend} drifted from serial"


class TestKilledWorkers:
    """The matrix holds even when cluster workers die mid-campaign."""

    @pytest.mark.parametrize("store_kind", sorted(STORES))
    def test_crashed_workers_still_bit_identical(
        self, store_kind, reference, reference_blobs, tmp_path, monkeypatch
    ):
        config, algos = SLICES["fig3"]
        monkeypatch.setenv("REPRO_RUNNER_FAULT", "crash:rate=0.3")
        monkeypatch.setenv("REPRO_RUNNER_FAULT_DIR", str(tmp_path / "markers"))
        store = create_store(store_kind, tmp_path / "store")
        backend = ClusterBackend(2, heartbeat_interval=0.2)
        result = run_sweep(config, algos, jobs=2, cache=store, backend=backend)
        expected, expected_war = reference["fig3"]
        assert result == expected
        assert war_table(result) == expected_war
        assert blob_map(store) == reference_blobs["fig3"]
        # the fault actually fired and was recovered from
        assert backend.stats["retries"] > 0
        assert backend.stats["lost_workers"] > 0


class TestResolution:
    """Backend selection: instance > name > env knob > auto."""

    def test_explicit_instance_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNNER_BACKEND", "serial")
        instance = ClusterBackend(2)
        assert resolve_backend(instance, jobs=1, pending=1) is instance

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNNER_BACKEND", "cluster")
        backend = resolve_backend("serial", jobs=4, pending=10)
        assert isinstance(backend, SerialBackend)

    def test_env_knob_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNNER_BACKEND", "cluster")
        backend = resolve_backend(None, jobs=4, pending=10)
        assert isinstance(backend, ClusterBackend)
        assert backend.workers == 4

    def test_auto_picks_cluster_for_parallel_work(self, monkeypatch):
        monkeypatch.delenv("REPRO_RUNNER_BACKEND", raising=False)
        backend = resolve_backend(None, jobs=4, pending=10)
        assert isinstance(backend, ClusterBackend)
        assert backend.workers == 4
        # single job, or a single pending unit, stays in-process
        assert isinstance(
            resolve_backend(None, jobs=1, pending=10), SerialBackend
        )
        assert isinstance(
            resolve_backend(None, jobs=4, pending=1), SerialBackend
        )

    def test_workers_never_exceed_pending(self):
        backend = resolve_backend("cluster", jobs=8, pending=3)
        assert backend.workers == 3

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown executor backend"):
            resolve_backend("threads", jobs=2, pending=2)

    def test_retired_pool_backend_names_the_valid_ones(self):
        with pytest.raises(ValueError, match=r"'pool'; known: serial\|cluster"):
            resolve_backend("pool", jobs=2, pending=2)

    def test_registered_backends_is_the_env_list(self):
        assert registered_backends() == RUNNER_BACKENDS == ("serial", "cluster")

    def test_every_registered_backend_instantiates(self):
        for name in registered_backends():
            backend = resolve_backend(name, jobs=2, pending=4)
            assert isinstance(backend, ExecutorBackend)
            assert backend.name == name
