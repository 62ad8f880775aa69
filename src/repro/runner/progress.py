"""Progress and ETA reporting for campaign runs.

A campaign at paper scale executes hundreds of shards for minutes to
hours; :class:`ProgressReporter` keeps a single self-overwriting status
line on a stream (stderr by default) with completion counts, cache hits,
fault-recovery retries, executor worker liveness and a smoothed ETA
merged across however many sweeps (and whichever backend) the campaign
runs.  It counts nothing itself: the fabric publishes each lifecycle
event once (:meth:`~repro.runner.executor.FabricObserver.publish`), and
the reporter applies it to a :class:`~repro.obs.fold.JournalFold`, the
same fold ``repro status`` and ``repro report`` read from the journal.
The reporter only renders the status line, the ETA and the summary
line.  It is injectable, so tests can drive it with events, a fake
clock and a ``StringIO``.
"""

from __future__ import annotations

import sys
from typing import Callable, TextIO

from repro.obs import clock as _clock
from repro.obs.fold import JournalFold

__all__ = ["ProgressReporter", "format_eta"]


def format_eta(seconds: float) -> str:
    """Humanize a duration: ``42s``, ``3m10s``, ``2h05m``."""
    seconds = max(0, int(round(seconds)))
    if seconds < 60:
        return f"{seconds}s"
    minutes, secs = divmod(seconds, 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


class ProgressReporter:
    """Renders ``done/total`` + ETA from a fold of the run's events.

    The total grows with each ``sweep-start`` because a campaign
    discovers its sweeps one figure at a time; retries and lost workers
    never touch it, since a re-dispatched unit completes exactly once.
    The ETA simply scales elapsed wall time by the remaining fraction,
    which converges quickly since shards are similarly sized.
    """

    def __init__(
        self,
        stream: TextIO | None = None,
        label: str = "run",
        min_interval: float = 0.2,
        clock: Callable[[], float] = _clock.monotonic,
    ):
        self._stream = stream if stream is not None else sys.stderr
        self.label = label
        self.min_interval = min_interval
        self._clock = clock
        self._started: float | None = None
        self._last_render = float("-inf")
        self.fold = JournalFold()

    def apply(self, event: dict) -> None:
        """Fold one lifecycle event and refresh the line (always once the
        event completed the last announced shard)."""
        if self._started is None:
            self._started = self._clock()
        completed = self.completed
        self.fold.apply(event)
        self._render(force=completed < self.completed == self.total)

    @property
    def total(self) -> int:
        return self.fold.total_units()

    @property
    def completed(self) -> int:
        return self.fold.done_units()

    @property
    def cached(self) -> int:
        return self.fold.cached_units()

    @property
    def retried(self) -> int:
        return self.fold.retries

    @property
    def lost(self) -> int:
        return self.fold.lost_workers

    def finish(self) -> None:
        """Render the final state and terminate the status line."""
        self._render(force=True)
        self._stream.write("\n")
        self._stream.flush()

    # -- rendering --------------------------------------------------------------
    def elapsed_seconds(self) -> float:
        """Wall time (monotonic) since the first event."""
        return 0.0 if self._started is None else self._clock() - self._started

    def summary_line(self) -> str:
        """Final one-line wall-time summary for the whole run."""
        shard_word = "shard" if self.completed == 1 else "shards"
        line = (
            f"{self.label}: {self.completed} {shard_word} in "
            f"{format_eta(self.elapsed_seconds())}"
        )
        extras = []
        if self.cached:
            extras.append(f"{self.cached} from cache")
        if self.retried:
            extras.append(f"{self.retried} retried")
        if self.lost:
            word = "worker" if self.lost == 1 else "workers"
            extras.append(f"{self.lost} {word} lost/reclaimed")
        if extras:
            line += f" ({', '.join(extras)})"
        return line

    def write_summary(self) -> None:
        """Emit :meth:`summary_line` on the stream (after :meth:`finish`)."""
        self._stream.write(self.summary_line() + "\n")
        self._stream.flush()

    def eta_seconds(self) -> float | None:
        """Estimated remaining seconds, or ``None`` before any signal."""
        if self._started is None or self.completed == 0:
            return None
        remaining = self.total - self.completed
        if remaining <= 0:
            return 0.0
        elapsed = self._clock() - self._started
        return elapsed / self.completed * remaining

    def status_line(self) -> str:
        parts = [f"{self.label}: {self.completed}/{self.total} shards"]
        if self.cached:
            parts.append(f"{self.cached} cached")
        if self.retried:
            parts.append(f"{self.retried} retried")
        if self.lost:
            parts.append(f"{self.lost} lost")
        fold = self.fold
        if fold.workers_total is not None and self.completed < self.total:
            parts.append(f"workers {fold.workers_alive}/{fold.workers_total}")
        eta = self.eta_seconds()
        if eta is not None and self.completed < self.total:
            parts.append(f"eta {format_eta(eta)}")
        elif self._started is not None and self.completed >= self.total:
            parts.append(f"done in {format_eta(self._clock() - self._started)}")
        return parts[0] + (f" ({', '.join(parts[1:])})" if parts[1:] else "")

    def _render(self, force: bool = False) -> None:
        now = self._clock()
        if not force and now - self._last_render < self.min_interval:
            return
        self._last_render = now
        self._stream.write("\r\x1b[2K" + self.status_line())
        self._stream.flush()
