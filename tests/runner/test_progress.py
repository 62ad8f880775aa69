"""Progress reporter: the event fold it renders, ETA math, rendering."""

import io

from repro.runner import ProgressReporter, format_eta


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make(label="test"):
    clock = FakeClock()
    stream = io.StringIO()
    reporter = ProgressReporter(
        stream=stream, label=label, min_interval=0.0, clock=clock
    )
    return reporter, stream, clock


class TestFormatEta:
    def test_scales(self):
        assert format_eta(42) == "42s"
        assert format_eta(190) == "3m10s"
        assert format_eta(7500) == "2h05m"
        assert format_eta(-5) == "0s"


def sweep(units: int, cached: int = 0, label: str = "fig3") -> dict:
    return {"ev": "sweep-start", "label": label, "m": 2, "units": units,
            "cached": cached}


DONE = {"ev": "done", "label": "fig3", "m": 2}
RETRY = {"ev": "retry", "label": "fig3", "m": 2}
LOST = {"ev": "worker-lost", "slot": 0}


def feed(reporter, *events):
    for event in events:
        reporter.apply(dict(event))


class TestReporter:
    def test_counts_and_cached(self):
        reporter, _, _ = make()
        feed(reporter, sweep(3, cached=1), DONE)
        assert (reporter.completed, reporter.total, reporter.cached) == (2, 3, 1)

    def test_eta_scales_elapsed_by_remaining(self):
        reporter, _, clock = make()
        feed(reporter, sweep(4))
        clock.now = 10.0
        feed(reporter, DONE)
        # 1 of 4 shards took 10s -> 3 remain -> 30s
        assert reporter.eta_seconds() == 30.0

    def test_eta_none_before_any_completion(self):
        reporter, _, _ = make()
        feed(reporter, sweep(2))
        assert reporter.eta_seconds() is None

    def test_incremental_totals(self):
        reporter, _, _ = make()
        feed(reporter, sweep(2), sweep(3, label="fig4"))
        assert reporter.total == 5

    def test_status_line_mentions_progress_and_cache(self):
        reporter, _, clock = make(label="fig3")
        feed(reporter, sweep(2, cached=1))
        clock.now = 5.0
        line = reporter.status_line()
        assert "fig3: 1/2 shards" in line
        assert "1 cached" in line
        assert "eta" in line

    def test_finish_terminates_the_line(self):
        reporter, stream, _ = make()
        feed(reporter, sweep(1), DONE)
        reporter.finish()
        text = stream.getvalue()
        assert text.endswith("\n")
        assert "1/1 shards" in text
        assert "done in" in text

    def test_elapsed_seconds_tracks_clock(self):
        reporter, _, clock = make()
        assert reporter.elapsed_seconds() == 0.0  # before any work
        feed(reporter, sweep(1))
        clock.now = 7.5
        assert reporter.elapsed_seconds() == 7.5

    def test_summary_line_wall_time_and_cache(self):
        reporter, _, clock = make(label="campaign")
        feed(reporter, sweep(3, cached=2))
        clock.now = 190.0
        feed(reporter, DONE)
        assert reporter.summary_line() == (
            "campaign: 3 shards in 3m10s (2 from cache)"
        )

    def test_summary_line_singular_shard_no_cache_suffix(self):
        reporter, _, clock = make(label="fig4")
        feed(reporter, sweep(1))
        clock.now = 42.0
        feed(reporter, DONE)
        assert reporter.summary_line() == "fig4: 1 shard in 42s"

    def test_lost_workers_in_status_and_summary(self):
        """Cluster fault history summarizes without the journal."""
        reporter, _, clock = make(label="fig3")
        feed(reporter, sweep(4), RETRY, LOST)
        clock.now = 10.0
        feed(reporter, DONE, DONE, DONE, DONE)
        assert reporter.lost == 1
        assert "1 retried" in reporter.status_line()
        assert "1 lost" in reporter.status_line()
        summary = reporter.summary_line()
        assert "1 retried" in summary
        assert "1 worker lost/reclaimed" in summary

    def test_lost_workers_pluralize(self):
        reporter, _, clock = make(label="fig3")
        feed(reporter, sweep(1), LOST, LOST)
        clock.now = 1.0
        feed(reporter, DONE)
        assert "2 workers lost/reclaimed" in reporter.summary_line()

    def test_no_lost_suffix_on_clean_runs(self):
        reporter, _, clock = make(label="fig3")
        feed(reporter, sweep(1))
        clock.now = 1.0
        feed(reporter, DONE)
        assert "lost" not in reporter.summary_line()

    def test_workers_shown_while_running(self):
        reporter, _, _ = make(label="fig3")
        feed(reporter, sweep(2), {"ev": "workers", "alive": 1, "total": 2})
        assert "workers 1/2" in reporter.status_line()
        feed(reporter, DONE, DONE)
        assert "workers" not in reporter.status_line()

    def test_write_summary_appends_line(self):
        reporter, stream, clock = make()
        feed(reporter, sweep(1))
        clock.now = 1.0
        feed(reporter, DONE)
        reporter.finish()
        reporter.write_summary()
        assert stream.getvalue().endswith(reporter.summary_line() + "\n")

    def test_render_throttled_by_min_interval(self):
        clock = FakeClock()
        stream = io.StringIO()
        reporter = ProgressReporter(
            stream=stream, min_interval=10.0, clock=clock
        )
        feed(reporter, sweep(5))
        first_len = len(stream.getvalue())
        feed(reporter, DONE)  # within the interval -> no re-render
        assert len(stream.getvalue()) == first_len
        clock.now = 11.0
        feed(reporter, DONE)
        assert len(stream.getvalue()) > first_len

    def test_completion_forces_a_render(self):
        clock = FakeClock()
        stream = io.StringIO()
        reporter = ProgressReporter(
            stream=stream, min_interval=10.0, clock=clock
        )
        feed(reporter, sweep(2), DONE)
        feed(reporter, DONE)  # the last shard renders despite the interval
        assert stream.getvalue().endswith("2/2 shards (done in 0s)")
