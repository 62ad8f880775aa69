"""The one journal fold: resumed journals, one tally, and its views.

``repro status``, ``repro report`` and the progress line all read
:class:`~repro.obs.fold.JournalFold`.  Pinned here: a resumed campaign's
``open`` starts a new run (status shows the latest, report sums them
with per-run wall spans), a live run's progress reporter and the fold of
the journal it wrote agree on every count, and for any event stream the
report projection and the status view agree on every count they share.
"""

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.experiments.figures import figure_plan
from repro.obs.fold import JournalFold
from repro.obs.journal import (
    JournalFollower,
    emit_open,
    journal_env,
    read_events,
)
from repro.obs.report import summarize_journal
from repro.obs.status import CampaignStatus, render_status
from repro.runner import (
    FabricObserver,
    ProgressReporter,
    create_store,
    decompose_sweep,
    run_sweep,
    run_unit,
)
from repro.runner import executor as executor_module


@pytest.fixture(autouse=True)
def _no_ambient_journal(monkeypatch):
    monkeypatch.delenv("REPRO_OBS_JOURNAL", raising=False)


def ev(kind: str, mono: float, **fields) -> dict:
    return {"ev": kind, "mono": mono, "ts": 1000.0 + mono, "pid": 1, **fields}


def run_events(t0: float, units: int, cached: int, seconds: float = 0.1):
    """One campaign run: ``units`` shards, ``cached`` of them from cache."""
    events = [
        ev("open", t0, schema="repro-journal/1", campaign="camp"),
        ev("campaign-start", t0, campaign="camp"),
        ev("sweep-start", t0 + 0.1, label="fig3", m=2, units=units,
           cached=cached),
    ]
    t = t0 + 0.1
    for i in range(units - cached):
        key = f"k{i}"
        events.append(ev("claim", t, key=key, label="fig3", m=2))
        t += seconds
        events.append(ev("exec-done", t, key=key, label="fig3", m=2,
                         seconds=seconds))
        events.append(ev("done", t, key=key, label="fig3", m=2))
    events.append(ev("campaign-end", t + 0.1, campaign="camp"))
    return events


#: A 3-shard campaign, then the same command resumed 100 s later: every
#: shard now comes from the cache.
FIRST = run_events(0.0, units=3, cached=0)
RESUMED = run_events(100.0, units=3, cached=3)


def write(path, events):
    path.write_text("".join(json.dumps(e) + "\n" for e in events))
    return path


class TestResumedJournal:
    def test_open_starts_a_new_run(self):
        fold = JournalFold().absorb(FIRST + RESUMED)
        assert len(fold.runs()) == 2
        assert fold.earlier[0].done_units() == 3
        assert fold.earlier[0].shard_seconds.count == 3
        assert (fold.total_units(), fold.done_units()) == (3, 3)
        assert fold.cached_units() == 3
        assert fold.shard_seconds.count == 0
        assert fold.events == len(RESUMED)

    def test_status_shows_the_latest_run(self):
        status = CampaignStatus().absorb(FIRST + RESUMED)
        text = render_status(status)
        assert text.startswith(
            f"camp: finished — 3/3 shards ({len(RESUMED)} events)"
        )
        assert " fig3  2   3/3       3        0" in text

    def test_resume_open_resets_ended(self):
        status = CampaignStatus().absorb(FIRST)
        assert status.ended
        status.apply(RESUMED[0])
        assert not status.ended
        assert render_status(status).startswith("camp: running — 0/0 shards")

    def test_follower_keeps_tailing_after_a_resume(self, tmp_path):
        path = tmp_path / "j.jsonl"
        follower = JournalFollower(path)
        status = CampaignStatus()
        write(path, FIRST)
        status.absorb(follower.poll())
        assert status.ended and status.done_units() == 3
        with open(path, "a") as handle:
            handle.write(json.dumps(RESUMED[0]) + "\n")
        status.absorb(follower.poll())
        assert not status.ended
        with open(path, "a") as handle:
            handle.writelines(json.dumps(e) + "\n" for e in RESUMED[1:])
        status.absorb(follower.poll())
        assert status.ended
        assert (status.done_units(), status.total_units()) == (3, 3)

    def test_follow_cli_waits_for_the_resumed_run(
        self, tmp_path, monkeypatch, capsys
    ):
        """``--follow`` must not exit on the first run's ``campaign-end``."""
        path = write(tmp_path / "j.jsonl", FIRST + RESUMED[:3])
        rest = iter([RESUMED[3:]])

        def sleep(_seconds):
            with open(path, "a") as handle:
                handle.writelines(json.dumps(e) + "\n" for e in next(rest))

        monkeypatch.setattr("time.sleep", sleep)
        assert main(["status", str(path), "--follow", "--interval", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("camp: running — 3/3 shards")
        assert out[out.rindex("camp: "):].startswith(
            "camp: finished — 3/3 shards"
        )

    def test_report_sums_runs_with_per_run_wall(self, tmp_path):
        summary = summarize_journal(write(tmp_path / "j.jsonl", FIRST + RESUMED))
        first = JournalFold().absorb(FIRST)
        assert summary.executed == 3
        assert summary.cached == 3
        # the 100 s idle gap before the resume is no wall time
        assert summary.wall_seconds == pytest.approx(
            first.wall_seconds() + 0.2
        )
        assert summary.shards_per_sec == pytest.approx(
            3 / summary.wall_seconds
        )

    def test_report_survives_a_restarted_monotonic_clock(self, tmp_path):
        resumed = run_events(-50.0, units=3, cached=1)
        summary = summarize_journal(write(tmp_path / "j.jsonl", FIRST + resumed))
        spans = [JournalFold().absorb(r).wall_seconds() for r in (FIRST, resumed)]
        assert summary.executed == 5
        assert summary.wall_seconds == pytest.approx(sum(spans))
        assert all(span > 0 for span in spans)


class TestOneTally:
    """A live run's reporter and the fold of its journal agree."""

    @pytest.mark.parametrize("backend", ["serial", "cluster"])
    def test_progress_matches_the_journal_fold(
        self, backend, tmp_path, monkeypatch
    ):
        if backend == "cluster":
            monkeypatch.setenv("REPRO_RUNNER_FAULT", "crash:rate=0.3")
            monkeypatch.setenv("REPRO_RUNNER_FAULT_DIR", str(tmp_path / "m"))
            monkeypatch.setenv("REPRO_RUNNER_HEARTBEAT", "0.5")
        job = figure_plan("fig3", 2, m_values=(2,))[0]
        store = create_store("fs", tmp_path / "cache")
        # a warm store for three units the fault spares, so cached moves
        for unit in decompose_sweep(job.config, job.algorithms)[:3]:
            store.store(unit, run_unit(unit))
        path = tmp_path / "journal.jsonl"
        progress = ProgressReporter(stream=io.StringIO())
        with journal_env(path) as journal:
            emit_open(journal, campaign="one-tally")
            run_sweep(job.config, job.algorithms, jobs=2, cache=store,
                      progress=progress, backend=backend)
            journal.emit("campaign-end")
        fold = JournalFold().absorb(read_events(path))
        counts = (fold.done_units(), fold.total_units(), fold.cached_units(),
                  fold.retries, fold.lost_workers)
        assert (progress.completed, progress.total, progress.cached,
                progress.retried, progress.lost) == counts
        assert progress.completed == progress.total > progress.cached == 3
        if backend == "cluster":
            assert fold.retries >= 1 and fold.lost_workers >= 1
        summary = summarize_journal(path)
        assert (summary.cached, summary.retries, summary.lost_workers) == (
            fold.cached_units(), fold.retries, fold.lost_workers
        )
        assert summary.executed == fold.shard_seconds.count


class TestPublish:
    def test_no_event_is_built_without_a_sink(self, monkeypatch):
        """The no-journal, no-progress path never hashes a unit key."""

        def boom(unit):
            raise AssertionError("event built with no sink on")

        monkeypatch.setattr(executor_module, "unit_key", boom)
        FabricObserver().publish("done", unit=object())

    def test_one_publish_reaches_both_sinks(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_JOURNAL", str(tmp_path / "j.jsonl"))
        progress = ProgressReporter(stream=io.StringIO())
        observer = FabricObserver(progress)
        observer.publish("sweep-start", label="fig3", m=2, units=2, cached=0)
        observer.worker_lost(0, 0.5)
        journal_fold = JournalFold().absorb(read_events(tmp_path / "j.jsonl"))
        assert (progress.total, progress.lost) == (2, 1)
        assert (journal_fold.total_units(), journal_fold.lost_workers) == (2, 1)


# -- property: report projection and status view agree -------------------------
_SWEEPS = st.sampled_from([("fig3", 2), ("fig3", 4), ("fig4", 2)])
_KEYS = st.sampled_from(["a", "b", "c"])


@st.composite
def _event(draw):
    kind = draw(st.sampled_from([
        "open", "campaign-start", "campaign-end", "sweep-start", "claim",
        "exec-start", "exec-done", "done", "retry", "reclaim",
        "worker-lost", "lease-expired", "workers", "crash", "postmortem",
    ]))
    label, m = draw(_SWEEPS)
    fields = {"label": label, "m": m, "key": draw(_KEYS)}
    if kind == "open":
        fields = {"schema": "repro-journal/1", "campaign": "c"}
    elif kind == "sweep-start":
        units = draw(st.integers(0, 6))
        fields.update(units=units, cached=draw(st.integers(0, units)))
    elif kind == "exec-done":
        fields["seconds"] = draw(st.floats(0.0, 5.0))
    elif kind == "workers":
        total = draw(st.integers(1, 4))
        fields = {"alive": draw(st.integers(0, total)), "total": total}
    return kind, fields


@st.composite
def _stream(draw):
    """Well-formed journals: events on a non-decreasing mono clock, each
    ``open`` (after the first event) beginning a resumed run whose clock
    may have restarted."""
    events, mono = [], draw(st.floats(0.0, 100.0))
    for kind, fields in draw(st.lists(_event(), max_size=40)):
        if kind == "open" and events and draw(st.booleans()):
            mono = draw(st.floats(0.0, 100.0))  # rebooted host
        mono += draw(st.floats(0.0, 3.0))
        events.append(ev(kind, mono, **fields))
    return events


def _runs(events):
    runs = [[]]
    for event in events:
        if event["ev"] == "open" and runs[-1]:
            runs.append([])
        runs[-1].append(event)
    return runs


@settings(max_examples=150, deadline=None)
@given(_stream(), st.data())
def test_report_and_status_agree_on_shared_counts(events, data):
    events = events[: data.draw(st.integers(0, len(events)))]
    summary = summarize_journal("j.jsonl", events=events)
    statuses = [CampaignStatus().absorb(run) for run in _runs(events)]
    latest = CampaignStatus().absorb(events)
    render_status(latest, now=1e6)  # never raises on any prefix
    # status shows the latest run ...
    assert (latest.done_units(), latest.total_units(), latest.retries,
            latest.lost_workers, latest.events) == (
        statuses[-1].done_units(), statuses[-1].total_units(),
        statuses[-1].retries, statuses[-1].lost_workers, statuses[-1].events)
    # ... and report sums the status views of every run
    assert summary.executed == sum(s.shard_seconds.count for s in statuses)
    assert summary.cached == sum(
        p.cached for s in statuses for p in s.sweeps.values())
    assert summary.retries == sum(s.retries for s in statuses)
    assert summary.lost_workers == sum(s.lost_workers for s in statuses)
    assert summary.wall_seconds == pytest.approx(
        sum(s.wall_seconds() for s in statuses))
    assert summary.wall_seconds >= 0
    for key, sweep in summary.sweeps.items():
        assert sweep["executed"] == sum(
            s.sweeps[key].shard_seconds.count
            for s in statuses if key in s.sweeps)
    # independent counts straight off the event list
    assert summary.retries == sum(e["ev"] == "retry" for e in events)
    assert summary.lost_workers == sum(e["ev"] == "worker-lost" for e in events)
    assert summary.executed == sum(e["ev"] == "exec-done" for e in events)
    assert summary.cached == sum(
        e["cached"] for e in events if e["ev"] == "sweep-start")
