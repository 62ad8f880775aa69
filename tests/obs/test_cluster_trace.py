"""Chrome-trace export under the cluster backend (satellite).

A traced cluster campaign — including one whose workers are SIGKILLed
mid-shard — must produce a coherent Trace Event dump: worker processes
appear as their own pid rows, the conductor's span tree nests in time,
every worker shard lands inside the conductor's sweep window (the
monotonic clock is system-wide), and each worker's own row is free of
overlaps (a worker executes one shard at a time).
"""

import os

import pytest

from repro import obs
from repro.experiments.acceptance import SweepConfig
from repro.runner import ClusterBackend, run_sweep

CONFIG = SweepConfig(label="cluster-trace", m=2, samples_per_bucket=3)
ALGOS = ("cu-udp-edf-vd", "ca-nosort-f-f-edf-vd")


@pytest.fixture
def traced_killed_run(tmp_path, monkeypatch):
    """Spans from a traced cluster sweep with a real worker kill."""
    monkeypatch.setenv("REPRO_RUNNER_FAULT", "crash:rate=0.3")
    monkeypatch.setenv("REPRO_RUNNER_FAULT_DIR", str(tmp_path / "markers"))
    obs.clear()
    previous = obs.set_recorder(obs.TraceRecorder(obs.REGISTRY))
    try:
        backend = ClusterBackend(2, heartbeat_interval=0.2)
        with obs.span("campaign", campaign="trace-test"):
            run_sweep(CONFIG, ALGOS, jobs=2, backend=backend)
        assert backend.stats["lost_workers"] >= 1, "fault must really fire"
        yield obs.spans(), obs.chrome_trace(obs.spans())
    finally:
        obs.set_recorder(previous)
        obs.clear()


class TestClusterChromeTrace:
    def test_worker_pid_rows(self, traced_killed_run):
        spans, doc = traced_killed_run
        events = doc["traceEvents"]
        conductor = os.getpid()
        shard_pids = {e["pid"] for e in events if e["name"] == "shard"}
        assert conductor not in shard_pids
        assert len(shard_pids) >= 2, "replacement workers get their own rows"
        assert {e["pid"] for e in events if e["name"] in ("campaign", "sweep")} \
            == {conductor}

    def test_conductor_span_tree_nests(self, traced_killed_run):
        spans, doc = traced_killed_run
        by_name = {}
        for event in doc["traceEvents"]:
            by_name.setdefault(event["name"], []).append(event)
        campaign = by_name["campaign"][0]
        assert campaign["args"].get("parent_span") is None
        for sweep in by_name["sweep"]:
            assert sweep["args"]["parent_span"] == "campaign"
            assert sweep["ts"] >= campaign["ts"]
            assert sweep["ts"] + sweep["dur"] <= (
                campaign["ts"] + campaign["dur"] + 1.0  # rounding slack, us
            )

    def test_worker_shards_land_inside_a_sweep_window(self, traced_killed_run):
        """Cross-process us timestamps share one monotonic axis."""
        spans, doc = traced_killed_run
        events = doc["traceEvents"]
        windows = [
            (e["ts"], e["ts"] + e["dur"])
            for e in events
            if e["name"] == "sweep"
        ]
        shards = [e for e in events if e["name"] == "shard"]
        assert len(shards) > 0
        for shard in shards:
            assert shard["ts"] >= 0 and shard["dur"] >= 0
            assert any(
                start - 1.0 <= shard["ts"] and
                shard["ts"] + shard["dur"] <= end + 1.0
                for start, end in windows
            ), "shard executed outside every sweep window"

    def test_each_worker_row_is_monotone(self, traced_killed_run):
        """One worker runs one shard at a time — its row never overlaps."""
        spans, doc = traced_killed_run
        rows: dict[int, list] = {}
        for event in doc["traceEvents"]:
            if event["name"] == "shard":
                rows.setdefault(event["pid"], []).append(event)
        for pid, events in rows.items():
            events.sort(key=lambda e: e["ts"])
            for earlier, later in zip(events, events[1:]):
                assert later["ts"] >= earlier["ts"] + earlier["dur"] - 1.0, (
                    f"worker {pid} shards overlap"
                )

    def test_shard_spans_survive_worker_attribution(self, traced_killed_run):
        spans, _doc = traced_killed_run
        shard_records = [r for r in spans if r.name == "shard"]
        assert all(r.attrs.get("backend") == "cluster" for r in shard_records)
        # every journaled shard ran in some worker, none in the conductor
        assert all(r.pid != os.getpid() for r in shard_records)
