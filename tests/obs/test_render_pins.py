"""Render-identity pins for the three journal views.

``repro status``, ``repro report`` and the progress line all render one
journal fold.  The expected texts in ``data/render_pins.json`` were
recorded from the separate per-view tallies that preceded the fold, over
the event streams the status, report and progress suites build; every
rendered byte must still match.
"""

import io
import json
from pathlib import Path

import pytest

from repro.obs.report import compare_runs, render_report, summarize_journal
from repro.obs.status import MIN_LATENCY_SAMPLES, CampaignStatus, render_status
from repro.runner import ProgressReporter
from tests.obs.test_run_report import write_journal
from tests.obs.test_status import ev, executed

EXPECTED = json.loads(
    (Path(__file__).parent / "data" / "render_pins.json").read_text()
)


class _Capture(list):
    """Stands in for a fold to collect what ``executed`` feeds it."""

    apply = list.append


def _executed(n: int, seconds: float, t0: float = 0.0) -> list[dict]:
    events = _Capture()
    executed(events, n, seconds, t0)
    return list(events)


def status_streams() -> dict[str, tuple[list[dict], float | None]]:
    """name -> (events, now) for every pinned ``render_status`` call."""
    render = [
        ev("open", 0.0, schema="repro-journal/1", campaign="camp"),
        ev("sweep-start", 0.1, label="fig3", m=2, units=5, cached=1),
        *_executed(MIN_LATENCY_SAMPLES, 0.1, t0=0.2),
        ev("workers", 1.0, alive=2, total=2),
        ev("retry", 1.1, key="k", label="fig3", m=2),
        ev("worker-lost", 1.2, slot=0),
        ev("claim", 2.0, key="straggling-unit", label="fig3", m=2,
           bucket=0.6),
    ]
    progress = [
        ev("open", 0.0, schema="repro-journal/1", campaign="c"),
        ev("sweep-start", 0.1, label="fig3", m=2, units=10, cached=4),
        *_executed(3, 0.05, t0=0.2),
        ev("campaign-end", 9.0),
    ]
    faults = [
        ev("retry", 1.0, key="k", label="fig3", m=2, attempt=2),
        ev("worker-lost", 1.1, slot=0, heartbeat_age=0.4),
        ev("lease-expired", 1.2, key="k", slot=1),
        ev("workers", 1.3, alive=1, total=2),
        ev("crash", 1.4, key="k", attempts=3),
    ]
    stragglers = [
        *_executed(MIN_LATENCY_SAMPLES, 0.1),
        ev("claim", 100.0, key="slowpoke", label="fig3", m=2, bucket=0.55),
        ev("claim", 100.0, key="fresh", label="fig3", m=2),
    ]
    prefix = [
        ev("open", 0.0, schema="repro-journal/1"),
        ev("sweep-start", 0.1, label="fig3", m=2, units=2, cached=0),
        ev("claim", 0.2, key="a", label="fig3", m=2),
        ev("exec-done", 0.4, key="a", label="fig3", m=2, seconds=0.2),
        ev("done", 0.4, key="a", label="fig3", m=2),
    ]
    streams = {
        "render": (render, 1002.0),
        "progress": (progress, None),
        "faults": (faults, None),
        "stragglers": (stragglers, 200.0),
    }
    for cut in range(len(prefix) + 1):
        streams[f"prefix-{cut}"] = (prefix[:cut], 1.0)
    return streams


def report_renders(tmp_path) -> dict[str, str]:
    """name -> pinned ``render_report`` text over synthetic journals."""
    run = summarize_journal(write_journal(tmp_path / "run.jsonl", 0.1, 10))
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    fast = summarize_journal(write_journal(tmp_path / "fast.jsonl", 0.05))
    slow = summarize_journal(write_journal(tmp_path / "slow.jsonl", 0.5))
    return {
        "run": render_report([run]),
        "empty": render_report([summarize_journal(empty)]),
        "diff": render_report([fast, slow], compare_runs(slow, fast), 0.2),
        "self": render_report([run], compare_runs(run, run), 0.2),
    }


def sweep(units: int, cached: int = 0, label: str = "fig3") -> dict:
    return {"ev": "sweep-start", "label": label, "m": 2, "units": units,
            "cached": cached}


DONE = {"ev": "done", "label": "fig3", "m": 2}
RETRY = {"ev": "retry", "label": "fig3", "m": 2}
LOST = {"ev": "worker-lost", "slot": 0}

#: name -> (label, steps); a float step advances the fake clock to it,
#: a dict step is one event applied to the reporter.
PROGRESS_RUNS = {
    "counts-and-cached": ("test", [sweep(3, cached=1), DONE]),
    "eta": ("test", [sweep(4), 10.0, DONE]),
    "eta-none": ("test", [sweep(2)]),
    "incremental": ("test", [sweep(2), sweep(3, label="fig4")]),
    "cache-line": ("fig3", [sweep(2, cached=1), 5.0]),
    "finished": ("test", [sweep(1), DONE]),
    "wall-and-cache": ("campaign", [sweep(3, cached=2), 190.0, DONE]),
    "singular": ("fig4", [sweep(1), 42.0, DONE]),
    "faults": ("fig3", [sweep(4), RETRY, LOST, 10.0, DONE, DONE, DONE, DONE]),
    "lost-plural": ("fig3", [sweep(1), LOST, LOST, 1.0, DONE]),
    "workers": ("fig3", [
        sweep(3), {"ev": "workers", "alive": 1, "total": 2}, 4.0, DONE,
    ]),
}


def progress_lines() -> dict[str, list[str]]:
    lines = {}
    for name, (label, steps) in PROGRESS_RUNS.items():
        now = [0.0]
        reporter = ProgressReporter(
            stream=io.StringIO(), label=label, min_interval=0.0,
            clock=lambda: now[0],
        )
        for step in steps:
            if isinstance(step, float):
                now[0] = step
            else:
                reporter.apply(dict(step))
        lines[name] = [reporter.status_line(), reporter.summary_line()]
    return lines


@pytest.mark.parametrize("name", sorted(status_streams()))
def test_render_status(name):
    events, now = status_streams()[name]
    status = CampaignStatus(straggler_factor=4.0).absorb(events)
    assert render_status(status, now=now) == EXPECTED["status"][name]


def test_render_report(tmp_path):
    assert report_renders(tmp_path) == EXPECTED["report"]


def test_progress_lines():
    assert progress_lines() == EXPECTED["progress"]
