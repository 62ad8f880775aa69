"""The cluster worker fleet: forked once, reused across sweeps.

A fleet is reused only while the state its workers were forked under is
unchanged (demand kernel, obs recorder, ``REPRO_*`` environment); any
change re-forks.  Aborted sweeps — a crash give-up, a consumer
exception — close it, and no report from an earlier sweep is ever
merged into a later one.  Samples reach reused workers over the task
pipe, evictions included.  And no worker outlives its conductor, even
one that is SIGKILLed.
"""

import dataclasses
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro import obs
from repro.analysis import dbf
from repro.experiments.acceptance import SweepConfig, clear_samples
from repro.experiments.figures import figure_plan
from repro.runner import (
    ClusterBackend,
    FsStore,
    WorkerCrashError,
    decompose_sweep,
    execute_units,
    run_sweep,
)
from repro.runner.cluster import worker_pids

CONFIG = SweepConfig(label="fleet-test", m=2, samples_per_bucket=3)
ALGOS = ("cu-udp-edf-vd", "ca-nosort-f-f-edf-vd")
SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture(scope="module")
def serial():
    return run_sweep(CONFIG, ALGOS)


@pytest.fixture
def metrics():
    obs.clear()
    previous = obs.set_recorder(obs.MetricsRecorder(obs.REGISTRY))
    try:
        yield obs.REGISTRY
    finally:
        obs.set_recorder(previous)
        obs.clear()


def cluster_sweep(config=CONFIG, **kwargs):
    backend = ClusterBackend(2, heartbeat_interval=0.5)
    return run_sweep(config, ALGOS, jobs=2, backend=backend, **kwargs), backend


def alive(pid: int) -> bool:
    """Whether ``pid`` still runs (a zombie awaiting its reaper does not)."""
    if Path("/proc").is_dir():
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except FileNotFoundError:
            return False
        return stat.rsplit(")", 1)[1].split()[0] != "Z"
    try:  # pragma: no cover - no procfs
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestReuse:
    def test_unchanged_state_reuses_the_fleet(self, serial, metrics):
        first, backend = cluster_sweep()
        pids = worker_pids()
        assert len(pids) == 2 and backend.stats["spawns"] == 2
        second, backend = cluster_sweep()
        assert first == second == serial
        assert worker_pids() == pids
        assert backend.stats["spawns"] == 0
        assert metrics.counters("runner.")["runner.spawns"] == 2

    @pytest.mark.parametrize("change", ["kernel", "env", "recorder"])
    def test_changed_fork_state_reforks(self, change, serial, monkeypatch):
        first, _ = cluster_sweep()
        pids = worker_pids()
        previous_kernel = dbf.demand_kernel()
        previous_recorder = obs.get_recorder()
        try:
            if change == "kernel":
                dbf.set_demand_kernel("block" if previous_kernel == "qpa" else "qpa")
            elif change == "env":
                monkeypatch.setenv("REPRO_OBS_JOURNAL_FLUSH", "7.5")
            else:
                obs.set_recorder(obs.MetricsRecorder(obs.REGISTRY))
            second, backend = cluster_sweep()
        finally:
            dbf.set_demand_kernel(previous_kernel)
            obs.set_recorder(previous_recorder)
        assert first == second == serial
        assert backend.stats["spawns"] == 2
        assert not set(worker_pids()) & set(pids)
        assert not any(alive(pid) for pid in pids), "the old fleet is closed"

    def test_fault_env_set_after_a_sweep_reaches_the_workers(
        self, serial, tmp_path, monkeypatch
    ):
        """Workers forked before ``REPRO_RUNNER_FAULT`` was set would never
        fault: the fleet must re-fork, and the faults must fire."""
        cluster_sweep()
        monkeypatch.setenv("REPRO_RUNNER_FAULT", "crash:rate=0.3")
        monkeypatch.setenv("REPRO_RUNNER_FAULT_DIR", str(tmp_path / "markers"))
        result, backend = cluster_sweep()
        assert result == serial
        assert backend.stats["retries"] > 0

    def test_straggler_reports_from_an_earlier_sweep_are_dropped(self, serial):
        from repro.runner import cluster

        other = decompose_sweep(dataclasses.replace(CONFIG, label="other"), ALGOS)
        bogus = execute_units(other[:1], backend="serial")[0]
        cluster_sweep()
        fleet = cluster._FLEET
        seq = fleet.seq
        assert seq > 0
        # What a worker still busy with an earlier sweep's unit would send:
        # a bogus outcome for position 0, and an error, both with old seqs.
        fleet.result_q.put(("done", 0, seq - 1, 0, bogus, None, []))
        fleet.result_q.put(("error", 1, seq - 2, 1, "Traceback: stale"))
        result, backend = cluster_sweep()
        assert result == serial
        assert backend.stats["duplicates"] == 0
        assert backend.stats["worker_errors"] == 0
        assert backend.stats["retries"] == 0


class TestSamplesOverThePipe:
    def test_parent_eviction_reaches_reused_workers(self, metrics):
        """A sample the parent evicted is not reused by a worker that still
        held it: after ``clear_samples`` the next sweep generates anew."""
        plan = figure_plan("fig7a", 2, m_values=(2,))
        buckets = len(decompose_sweep(plan[0].config, plan[0].algorithms))
        for job in plan[:2]:
            run_sweep(job.config, job.algorithms, jobs=2, backend="cluster")
        counters = metrics.counters("generator.")
        assert counters["generator.samples"] == buckets
        assert counters["generator.reused"] == buckets
        clear_samples()
        job = plan[2]
        run_sweep(job.config, job.algorithms, jobs=2, backend="cluster")
        counters = metrics.counters("generator.")
        assert counters["generator.samples"] == 2 * buckets
        assert counters["generator.reused"] == buckets
        assert metrics.counters("runner.")["runner.spawns"] == 2


    def test_group_change_keeps_every_sample_counted(self, metrics):
        """Each group is generated once and reused by every sibling sweep
        after it, across a group change that evicts the last group in
        the parent and in every reused worker."""
        plan = figure_plan("fig7a", 2, m_values=(2, 4))
        groups = {job.config.m for job in plan}
        assert len(groups) == 2
        buckets = sum(
            len(decompose_sweep(job.config, job.algorithms))
            for job in plan if job.config.service == plan[0].config.service
        )
        for job in plan:
            run_sweep(job.config, job.algorithms, jobs=2, backend="cluster")
        counters = metrics.counters("generator.")
        assert counters["generator.samples"] == buckets
        assert counters["generator.reused"] == (len(plan) // 2 - 1) * buckets


class FailingStore(FsStore):
    """Raises on the first shard write, after noting the live workers."""

    def __init__(self, root, backend):
        super().__init__(root)
        self.backend = backend
        self.pids: list[int] = []

    def store(self, unit, outcome):
        self.pids = self.backend._fleet.pids()
        raise OSError("disk full")


class TestAbortedSweeps:
    def test_consumer_exception_closes_the_fleet(self, serial, tmp_path):
        cluster_sweep()
        backend = ClusterBackend(2, heartbeat_interval=0.5)
        store = FailingStore(tmp_path / "store", backend)
        with pytest.raises(OSError, match="disk full"):
            run_sweep(CONFIG, ALGOS, jobs=2, cache=store, backend=backend)
        assert len(store.pids) == 2
        assert worker_pids() == []
        assert not any(alive(pid) for pid in store.pids)
        result, backend = cluster_sweep()
        assert result == serial
        assert backend.stats["spawns"] == 2
        assert not set(worker_pids()) & set(store.pids)
        assert backend.stats["duplicates"] == 0

    def test_worker_crash_error_closes_the_fleet(self, serial, monkeypatch):
        units = decompose_sweep(CONFIG, ALGOS)
        doomed = units[4]
        monkeypatch.setenv("REPRO_RUNNER_FAULT", f"crash:bucket={doomed.bucket}")
        monkeypatch.delenv("REPRO_RUNNER_FAULT_DIR", raising=False)
        backend = ClusterBackend(2, heartbeat_interval=0.2, max_attempts=2)
        with pytest.raises(WorkerCrashError):
            execute_units(units, jobs=2, backend=backend)
        assert worker_pids() == []
        monkeypatch.delenv("REPRO_RUNNER_FAULT")
        result, backend = cluster_sweep()
        assert result == serial
        assert backend.stats["spawns"] == 2
        assert backend.stats["duplicates"] == 0
        assert backend.stats["retries"] == 0


CONDUCTOR = textwrap.dedent(
    """
    import sys, threading, time
    from repro.experiments.acceptance import SweepConfig
    from repro.runner import ClusterBackend, run_sweep
    from repro.runner.cluster import worker_pids

    config = SweepConfig(label="orphan-test", m=2, samples_per_bucket=2)
    algos = ("cu-udp-edf-vd",)
    backend = ClusterBackend(2, heartbeat_interval={heartbeat})
    if sys.argv[1] == "idle":
        run_sweep(config, algos, jobs=2, backend=backend)
        print(*worker_pids(), flush=True)
        time.sleep(60)
    else:
        def report():
            while backend._fleet is None or not all(backend._fleet.procs):
                time.sleep(0.05)
            print(*backend._fleet.pids(), flush=True)

        threading.Thread(target=report, daemon=True).start()
        run_sweep(config, algos, jobs=2, backend=backend)
    """
)


class TestOrphans:
    @pytest.mark.parametrize("phase", ["idle", "busy"])
    def test_workers_exit_when_their_conductor_is_killed(self, phase):
        """A SIGKILLed conductor leaves no worker behind, whether its
        fleet idles between sweeps or is mid-unit (a hung fault)."""
        heartbeat = 0.5
        env = dict(os.environ, PYTHONPATH=SRC)
        env.pop("REPRO_RUNNER_FAULT_DIR", None)
        if phase == "busy":
            env["REPRO_RUNNER_FAULT"] = "hang:all"
        conductor = subprocess.Popen(
            [sys.executable, "-c", CONDUCTOR.format(heartbeat=heartbeat), phase],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            pids = [int(pid) for pid in conductor.stdout.readline().split()]
            assert len(pids) == 2 and all(alive(pid) for pid in pids)
        finally:
            conductor.send_signal(signal.SIGKILL)
            conductor.wait()
            conductor.stdout.close()
        deadline = time.monotonic() + 2 * heartbeat
        while any(alive(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not [pid for pid in pids if alive(pid)], "orphaned workers"
