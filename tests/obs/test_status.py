"""``repro status``: the event fold, straggler rule and rendering."""

import json

import pytest

from repro.cli import main
from repro.obs.journal import Journal, JournalFollower
from repro.obs.status import (
    MIN_LATENCY_SAMPLES,
    CampaignStatus,
    render_status,
)


def ev(kind: str, mono: float, **fields) -> dict:
    return {"ev": kind, "mono": mono, "ts": 1000.0 + mono, "pid": 1, **fields}


def executed(status: CampaignStatus, n: int, seconds: float, t0: float = 0.0):
    """Feed n claim/exec-done pairs of the given latency."""
    for i in range(n):
        key = f"unit-{seconds}-{i}"
        status.apply(ev("claim", t0 + i, key=key, label="fig3", m=2))
        status.apply(
            ev(
                "exec-done",
                t0 + i + seconds,
                key=key,
                label="fig3",
                m=2,
                seconds=seconds,
            )
        )
        status.apply(ev("done", t0 + i + seconds, key=key, label="fig3", m=2))


class TestFold:
    def test_progress_counts(self):
        status = CampaignStatus(straggler_factor=4.0)
        status.apply(ev("open", 0.0, schema="repro-journal/1", campaign="c"))
        status.apply(
            ev("sweep-start", 0.1, label="fig3", m=2, units=10, cached=4)
        )
        executed(status, 3, 0.05, t0=0.2)
        assert status.campaign == "c"
        assert status.total_units() == 10
        assert status.done_units() == 4 + 3  # cached count as done
        assert status.sweeps[("fig3", 2)].cached == 4
        assert not status.ended
        status.apply(ev("campaign-end", 9.0))
        assert status.ended

    def test_fault_counters(self):
        status = CampaignStatus(straggler_factor=4.0)
        status.apply(ev("retry", 1.0, key="k", label="fig3", m=2, attempt=2))
        status.apply(ev("worker-lost", 1.1, slot=0, heartbeat_age=0.4))
        status.apply(ev("lease-expired", 1.2, key="k", slot=1))
        status.apply(ev("workers", 1.3, alive=1, total=2))
        status.apply(ev("crash", 1.4, key="k", attempts=3))
        assert status.retries == 1
        assert status.lost_workers == 1
        assert status.lease_expiries == 1
        assert (status.workers_alive, status.workers_total) == (1, 2)
        assert status.crashes == 1

    def test_latency_quantiles(self):
        status = CampaignStatus(straggler_factor=4.0)
        executed(status, 20, 0.1)
        quantiles = status.latency_quantiles()
        # geometric buckets: within one bucket ratio of exact
        assert 0.09 <= quantiles["p50"] <= 0.12
        assert 0.09 <= quantiles["p99"] <= 0.12

    def test_any_prefix_is_a_valid_state(self):
        events = [
            ev("open", 0.0, schema="repro-journal/1"),
            ev("sweep-start", 0.1, label="fig3", m=2, units=2, cached=0),
            ev("claim", 0.2, key="a", label="fig3", m=2),
            ev("exec-done", 0.4, key="a", label="fig3", m=2, seconds=0.2),
            ev("done", 0.4, key="a", label="fig3", m=2),
        ]
        for cut in range(len(events) + 1):
            status = CampaignStatus(straggler_factor=4.0).absorb(events[:cut])
            render_status(status, now=1.0)  # must never raise
            assert status.events == cut


class TestStragglers:
    def test_flags_only_old_inflight_units(self):
        status = CampaignStatus(straggler_factor=4.0)
        executed(status, MIN_LATENCY_SAMPLES, 0.1, t0=0.0)
        t = 100.0
        status.apply(ev("claim", t, key="slowpoke", label="fig3", m=2,
                        bucket=0.55))
        status.apply(ev("claim", t, key="fresh", label="fig3", m=2))
        p95 = status.shard_seconds.quantile(0.95)
        threshold = 4.0 * p95
        # fresh claims are not stragglers...
        assert status.stragglers(now=t + threshold * 0.5) == []
        # ...until their age passes k x p95
        found = status.stragglers(now=t + threshold + 1.0)
        assert {s.key for s in found} == {"slowpoke", "fresh"}
        assert all(s.age > s.threshold for s in found)

    def test_disarmed_below_min_samples(self):
        status = CampaignStatus(straggler_factor=4.0)
        executed(status, MIN_LATENCY_SAMPLES - 1, 0.1)
        status.apply(ev("claim", 50.0, key="old", label="fig3", m=2))
        assert status.stragglers(now=1e9) == []

    def test_done_and_reclaim_clear_inflight(self):
        status = CampaignStatus(straggler_factor=4.0)
        executed(status, MIN_LATENCY_SAMPLES, 0.1)
        status.apply(ev("claim", 50.0, key="a", label="fig3", m=2))
        status.apply(ev("claim", 50.0, key="b", label="fig3", m=2))
        status.apply(ev("done", 51.0, key="a", label="fig3", m=2))
        status.apply(ev("reclaim", 51.0, key="b", label="fig3", m=2, slot=0))
        assert status.stragglers(now=1e9) == []

    def test_exec_start_refreshes_the_claim_stamp(self):
        """A re-dispatched unit's age measures the current attempt."""
        status = CampaignStatus(straggler_factor=4.0)
        executed(status, MIN_LATENCY_SAMPLES, 0.1)
        status.apply(ev("claim", 10.0, key="a", label="fig3", m=2))
        status.apply(ev("exec-start", 500.0, key="a", label="fig3", m=2))
        assert status.inflight["a"][0] == 500.0


class TestRender:
    def test_render_mentions_everything(self):
        status = CampaignStatus(straggler_factor=4.0)
        status.apply(ev("open", 0.0, schema="repro-journal/1", campaign="camp"))
        status.apply(
            ev("sweep-start", 0.1, label="fig3", m=2, units=5, cached=1)
        )
        executed(status, MIN_LATENCY_SAMPLES, 0.1, t0=0.2)
        status.apply(ev("workers", 1.0, alive=2, total=2))
        status.apply(ev("retry", 1.1, key="k", label="fig3", m=2))
        status.apply(ev("worker-lost", 1.2, slot=0))
        status.apply(ev("claim", 2.0, key="straggling-unit", label="fig3",
                        m=2, bucket=0.6))
        text = render_status(status, now=2.0 + 1000.0)
        for needle in (
            "camp", "running", "workers: 2/2", "shard seconds", "p95",
            "1 retried", "1 workers lost", "fig3", "straggling-u",
            "stragglers (k=4)",
        ):
            assert needle in text, f"{needle!r} missing from:\n{text}"


class TestCli:
    @pytest.mark.parametrize("bad", ["0.5", "0.999"])
    def test_factor_validated(self, tmp_path, bad):
        path = tmp_path / "j.jsonl"
        path.write_text("")
        with pytest.raises(SystemExit, match="--straggler-factor"):
            main(["status", str(path), "--straggler-factor", bad])

    def test_factor_default_and_flag(self, tmp_path, capsys):
        assert CampaignStatus().straggler_factor == 4.0
        events = [
            *(ev("exec-done", i, key=f"k{i}", label="fig3", m=2, seconds=0.1)
              for i in range(MIN_LATENCY_SAMPLES)),
            ev("claim", 10.0, key="slow", label="fig3", m=2),
            ev("campaign-end", 100.0),
        ]
        path = tmp_path / "j.jsonl"
        path.write_text("".join(json.dumps(e) + "\n" for e in events))
        assert main(["status", str(path)]) == 0
        assert "stragglers (k=4)" in capsys.readouterr().out
        assert main(["status", str(path), "--straggler-factor", "1000"]) == 0
        assert "stragglers" not in capsys.readouterr().out


class TestFollowIntegration:
    def test_status_tracks_a_growing_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        follower = JournalFollower(path)
        status = CampaignStatus(straggler_factor=4.0)

        journal.emit("open", schema="repro-journal/1", campaign="grow")
        journal.emit("sweep-start", label="fig3", m=2, units=2, cached=0)
        status.absorb(follower.poll())
        assert status.total_units() == 2 and status.done_units() == 0

        journal.emit("done", key="a", label="fig3", m=2)
        journal.emit("campaign-end")
        status.absorb(follower.poll())
        assert status.done_units() == 1
        assert status.ended
        journal.close()
