"""Fault injection: killed and hung workers mid-shard.

The env-triggered hook in the cluster worker entry point
(:mod:`repro.runner.faults`) SIGKILLs or hangs workers *after* they
claim a unit and *before* they report its outcome — the exact window
the heartbeat/lease machinery exists for.  These tests assert the
ISSUE's fault-tolerance criteria end to end:

* a crashed worker's units are re-dispatched and the run converges to
  results bit-identical to a serial sweep, merged exactly once;
* a SIGKILLed worker is detected and replaced well within one heartbeat
  interval (process liveness, not heartbeat staleness, drives it);
* a hung worker is reclaimed through the opt-in lease, while healthy
  shards — running or waiting for a worker — are never retried;
* a unit that keeps failing surfaces as a typed
  :class:`~repro.runner.executor.WorkerCrashError` naming the unit's
  content key, attempt count and last heartbeat age.
"""

import io
import time

import pytest

from repro.experiments.acceptance import SweepConfig
from repro.runner import (
    ClusterBackend,
    FsStore,
    ProgressReporter,
    WorkerCrashError,
    WorkUnit,
    decompose_sweep,
    execute_units,
    run_sweep,
    run_unit,
    unit_key,
)
from repro.runner.faults import FaultSpec, parse_fault_spec

CONFIG = SweepConfig(label="fault-test", m=2, samples_per_bucket=3)
ALGOS = ("cu-udp-edf-vd", "ca-nosort-f-f-edf-vd")


@pytest.fixture(scope="module")
def serial():
    return run_sweep(CONFIG, ALGOS)


@pytest.fixture(scope="module")
def doomed_bucket():
    """A mid-sweep bucket to aim faults at."""
    return decompose_sweep(CONFIG, ALGOS)[4].bucket


def bad_unit() -> WorkUnit:
    """A unit whose execution raises (bucket off the sweep grid)."""
    good = decompose_sweep(CONFIG, ALGOS)[0]
    return WorkUnit(
        config=good.config, bucket=0.123456789, algorithms=good.algorithms
    )


class TestCrashRecovery:
    def test_sigkill_recovers_within_one_heartbeat_interval(
        self, serial, doomed_bucket, tmp_path, monkeypatch
    ):
        """Acceptance criterion: recovery inside one heartbeat interval.

        With a 10s heartbeat the staleness path would need >= 20s; the
        whole campaign (including detecting, replacing the killed worker
        and re-running its unit) must finish far inside a single
        interval, proving detection rides process liveness.
        """
        monkeypatch.setenv("REPRO_RUNNER_FAULT", f"crash:bucket={doomed_bucket}")
        monkeypatch.setenv("REPRO_RUNNER_FAULT_DIR", str(tmp_path / "markers"))
        backend = ClusterBackend(2, heartbeat_interval=10.0)
        started = time.monotonic()
        result = run_sweep(CONFIG, ALGOS, jobs=2, backend=backend)
        elapsed = time.monotonic() - started
        assert result == serial
        assert backend.stats["lost_workers"] >= 1
        assert backend.stats["retries"] >= 1
        assert elapsed < backend.heartbeat_interval

    def test_exactly_once_merge_and_store(
        self, serial, doomed_bucket, tmp_path, monkeypatch
    ):
        """Re-dispatch must not double-merge or double-store any shard."""
        monkeypatch.setenv("REPRO_RUNNER_FAULT", f"crash:bucket={doomed_bucket}")
        monkeypatch.setenv("REPRO_RUNNER_FAULT_DIR", str(tmp_path / "markers"))
        store = FsStore(tmp_path / "store")
        progress = ProgressReporter(stream=io.StringIO(), clock=lambda: 0.0)
        backend = ClusterBackend(2, heartbeat_interval=0.5)
        result = run_sweep(
            CONFIG, ALGOS, jobs=2, cache=store, backend=backend, progress=progress
        )
        units = decompose_sweep(CONFIG, ALGOS)
        assert result == serial
        # every shard merged exactly once, stored exactly once
        assert progress.completed == progress.total == len(units)
        assert store.stored == len(units)
        assert backend.stats["duplicates"] == 0
        # the recovery is visible on the progress line
        assert progress.retried >= 1
        assert "retried" in progress.summary_line()

    def test_random_worker_loss_converges(self, serial, tmp_path, monkeypatch):
        """A 30% deterministic-random unit kill rate still converges."""
        monkeypatch.setenv("REPRO_RUNNER_FAULT", "crash:rate=0.3")
        monkeypatch.setenv("REPRO_RUNNER_FAULT_DIR", str(tmp_path / "markers"))
        backend = ClusterBackend(3, heartbeat_interval=0.2)
        result = run_sweep(CONFIG, ALGOS, jobs=3, backend=backend)
        assert result == serial
        assert backend.stats["retries"] >= 1


class TestSlowShards:
    def test_healthy_shards_on_one_worker_are_never_retried(self):
        """A lease times only the unit a worker holds, never a queued one.

        One worker, twelve real shards, and a lease longer than any shard
        but shorter than half the batch: the later units wait longer than
        the lease before a worker takes them, and nothing may count that
        wait against them.
        """
        config = SweepConfig(label="slow-shards", m=4, samples_per_bucket=4)
        unit = decompose_sweep(config, ("cu-udp-ecdf", "ca-f-f-ey"))[2]
        expected = run_unit(unit)
        start = time.monotonic()
        run_unit(unit)
        shard = time.monotonic() - start
        units = [unit] * 12
        backend = ClusterBackend(1, lease_timeout=4.0 * shard)
        assert backend.lease_timeout < len(units) * shard / 2
        outcomes = execute_units(units, jobs=1, backend=backend)
        assert outcomes == [expected] * len(units)
        assert backend.stats["retries"] == 0
        assert backend.stats["duplicates"] == 0
        assert backend.stats["lost_workers"] == 0


class TestHangRecovery:
    def test_hung_worker_reclaimed_via_lease_timeout(
        self, serial, doomed_bucket, tmp_path, monkeypatch
    ):
        """A hung worker keeps heartbeating — only the lease catches it."""
        monkeypatch.setenv("REPRO_RUNNER_FAULT", f"hang:bucket={doomed_bucket}")
        monkeypatch.setenv("REPRO_RUNNER_FAULT_DIR", str(tmp_path / "markers"))
        backend = ClusterBackend(2, heartbeat_interval=0.2, lease_timeout=0.5)
        result = run_sweep(CONFIG, ALGOS, jobs=2, backend=backend)
        assert result == serial
        assert backend.stats["lost_workers"] >= 1
        assert backend.stats["retries"] >= 1


class TestGiveUp:
    def test_persistent_crash_raises_typed_error(
        self, doomed_bucket, monkeypatch
    ):
        """No marker dir: the fault repeats until max_attempts, then a
        WorkerCrashError names the missing shard."""
        monkeypatch.setenv("REPRO_RUNNER_FAULT", f"crash:bucket={doomed_bucket}")
        monkeypatch.delenv("REPRO_RUNNER_FAULT_DIR", raising=False)
        backend = ClusterBackend(2, heartbeat_interval=0.2, max_attempts=2)
        doomed = [u for u in decompose_sweep(CONFIG, ALGOS)
                  if u.bucket == doomed_bucket]
        with pytest.raises(WorkerCrashError) as excinfo:
            execute_units(doomed, jobs=2, backend=backend)
        err = excinfo.value
        assert err.unit == doomed[0]
        assert err.unit_key == unit_key(doomed[0])
        assert err.attempts == 2
        assert err.heartbeat_age is not None
        assert err.unit_key[:12] in str(err)

    def test_unit_exception_on_cluster_carries_traceback(self):
        unit = bad_unit()
        backend = ClusterBackend(1, heartbeat_interval=0.5, max_attempts=2)
        with pytest.raises(WorkerCrashError) as excinfo:
            execute_units([unit], jobs=1, backend=backend)
        err = excinfo.value
        assert err.attempts == 2
        assert err.unit_key == unit_key(unit)
        assert "ValueError" in err.detail
        assert backend.stats["worker_errors"] == 2


class TestForensics:
    """With a journal active, crashes leave a durable postmortem trail."""

    def test_give_up_carries_a_postmortem_pinning_the_cause(
        self, doomed_bucket, tmp_path, monkeypatch
    ):
        """Acceptance criterion: the bundle names the killed unit, the
        attempt count and the heartbeat age — and the injected fault."""
        journal_path = tmp_path / "journal.jsonl"
        fault = f"crash:bucket={doomed_bucket}"
        monkeypatch.setenv("REPRO_RUNNER_FAULT", fault)
        monkeypatch.delenv("REPRO_RUNNER_FAULT_DIR", raising=False)
        monkeypatch.setenv("REPRO_OBS_JOURNAL", str(journal_path))
        backend = ClusterBackend(2, heartbeat_interval=0.2, max_attempts=2)
        doomed = [u for u in decompose_sweep(CONFIG, ALGOS)
                  if u.bucket == doomed_bucket]
        with pytest.raises(WorkerCrashError) as excinfo:
            execute_units(doomed, jobs=2, backend=backend)
        err = excinfo.value
        bundle = err.postmortem
        assert bundle is not None
        assert bundle["unit"] == err.unit_key == unit_key(doomed[0])
        assert bundle["attempts"] == err.attempts == 2
        assert bundle["last_heartbeat_age"] is not None
        assert bundle["fault"]["spec"] == fault
        assert bundle["last_claim"]["key"] == err.unit_key
        # a worker really claimed it before dying
        assert bundle["worker"]["pid"] is not None
        # the bundle was dumped next to the journal, and the error's
        # detail points a human at it
        dump = journal_path.parent / f"postmortem-{err.unit_key[:12]}.json"
        assert dump.is_file()
        assert "postmortem for unit" in err.detail
        assert str(dump) in err.detail
        # the give-up itself is durable
        from repro.obs.journal import read_events

        crashes = [e for e in read_events(journal_path) if e["ev"] == "crash"]
        assert crashes and crashes[-1]["key"] == err.unit_key
        assert crashes[-1]["attempts"] == 2

    def test_every_reclaim_journals_forensics(
        self, serial, doomed_bucket, tmp_path, monkeypatch
    ):
        """Even when the retry succeeds, the reclaim's evidence survives
        in the journal: bundle + marker naming the injected fault."""
        journal_path = tmp_path / "journal.jsonl"
        monkeypatch.setenv("REPRO_RUNNER_FAULT", f"crash:bucket={doomed_bucket}")
        monkeypatch.setenv("REPRO_RUNNER_FAULT_DIR", str(tmp_path / "markers"))
        monkeypatch.setenv("REPRO_OBS_JOURNAL", str(journal_path))
        backend = ClusterBackend(2, heartbeat_interval=0.2)
        result = run_sweep(CONFIG, ALGOS, jobs=2, backend=backend)
        assert result == serial  # journaling + forensics stay observe-only

        from repro.obs.journal import read_events

        events = read_events(journal_path)
        doomed_keys = {
            unit_key(u) for u in decompose_sweep(CONFIG, ALGOS)
            if u.bucket == doomed_bucket
        }
        reclaims = [e for e in events if e["ev"] == "reclaim"]
        assert {e["key"] for e in reclaims} <= doomed_keys
        assert reclaims, "the injected crash must force a reclaim"
        bundles = [e["bundle"] for e in events if e["ev"] == "postmortem"]
        assert bundles
        for bundle in bundles:
            assert bundle["unit"] in doomed_keys
            assert bundle["last_claim"] is not None
            assert f"{bundle['unit']}.crash" in bundle["fault"]["markers"]
        # no postmortem files for recovered units — only give-ups dump
        assert not list(journal_path.parent.glob("postmortem-*.json"))


class TestFaultSpecParsing:
    def test_parses_all_forms(self):
        assert parse_fault_spec("crash:all") == FaultSpec("crash", "all")
        assert parse_fault_spec("hang:bucket=0.55") == FaultSpec(
            "hang", "bucket", 0.55
        )
        assert parse_fault_spec("crash:rate=0.1") == FaultSpec(
            "crash", "rate", 0.1
        )

    @pytest.mark.parametrize(
        "bad",
        ["crash", "explode:all", "crash:some", "crash:rate=2.0",
         "hang:bucket=mid", ":all"],
    )
    def test_rejects_typos_loudly(self, bad):
        with pytest.raises(ValueError):
            parse_fault_spec(bad)

    def test_rate_selector_is_deterministic(self):
        units = decompose_sweep(CONFIG, ALGOS)
        spec = parse_fault_spec("crash:rate=0.5")
        picks = [spec.matches(u, unit_key(u)) for u in units]
        assert picks == [spec.matches(u, unit_key(u)) for u in units]
        assert any(picks) and not all(picks)
