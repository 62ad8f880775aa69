"""One fold over the event journal, read by every journal view.

:class:`JournalFold` applies journal events (see :mod:`repro.obs.journal`)
one at a time and keeps the one tally that ``repro status``
(:mod:`repro.obs.status`), ``repro report`` (:mod:`repro.obs.report`)
and the live progress line (:mod:`repro.runner.progress`) render:
per-sweep total/done/cached/retried counts and executed shard seconds,
busy seconds, fault counters, worker liveness, in-flight units and the
mono span.  Each event kind is counted in :meth:`JournalFold.apply` and
nowhere else.  The fold is pure and incremental (any prefix of a
journal is a valid state), which is what lets ``repro status --follow``
tail a running campaign.

A resumed campaign appends to the same journal, so every ``open`` after
the first starts a new *run*.  The fold's own fields always describe the
latest run; :attr:`JournalFold.earlier` keeps the finished ones for the
views that sum over runs.  Each run spans its own first-to-last mono
stamp, so the idle gap before a resume is never counted as wall time,
and a monotonic clock that restarted between runs cannot skew it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from repro.obs.registry import Histogram

__all__ = ["JournalFold", "SweepTally", "latency_quantiles"]


def latency_quantiles(histogram: Histogram) -> dict[str, float | None]:
    """The p50/p95/p99 shard-seconds estimates of ``histogram``."""
    return {
        "p50": histogram.quantile(0.5),
        "p95": histogram.quantile(0.95),
        "p99": histogram.quantile(0.99),
    }


@dataclass
class SweepTally:
    """One ``(label, m)`` sweep's counts within a run."""

    total: int = 0
    done: int = 0
    cached: int = 0
    retried: int = 0
    #: seconds of each executed shard (``count`` is the executed total)
    shard_seconds: Histogram = field(default_factory=Histogram)


class JournalFold:
    """Incremental tally of journal events: the latest run, plus earlier ones."""

    def __init__(self):
        #: finished runs of a resumed journal, oldest first
        self.earlier: list[JournalFold] = []
        self._start_run()

    def _start_run(self) -> None:
        self.events = 0
        self.campaign: str | None = None
        self.ended = False
        self.workers_alive: int | None = None
        self.workers_total: int | None = None
        self.lost_workers = 0
        self.lease_expiries = 0
        self.retries = 0
        self.crashes = 0
        self.postmortems = 0
        self.busy_seconds = 0.0
        self.shard_seconds = Histogram()
        self.sweeps: dict[tuple[str, int | None], SweepTally] = {}
        #: key -> (start mono, label, m, bucket) for units in flight
        self.inflight: dict[str, tuple[float, str, int | None, float | None]] = {}
        self.first_mono: float | None = None
        self.last_mono: float | None = None

    # -- folding ------------------------------------------------------------
    def absorb(self, events) -> JournalFold:
        for event in events:
            self.apply(event)
        return self

    def apply(self, event: dict) -> None:
        ev = event.get("ev")
        if ev == "open" and self.events:
            # A resumed campaign: close this run, start the next.  The
            # copy keeps this run's objects; _start_run rebinds fresh ones.
            finished = copy.copy(self)
            finished.earlier = []
            self.earlier.append(finished)
            self._start_run()
        self.events += 1
        mono = event.get("mono")
        if isinstance(mono, (int, float)):
            self.first_mono = mono if self.first_mono is None else self.first_mono
            self.last_mono = mono
        if ev in ("open", "campaign-start"):
            self.campaign = event.get("campaign") or self.campaign
        elif ev == "campaign-end":
            self.ended = True
        elif ev == "sweep-start":
            sweep = self._sweep(event)
            sweep.total += int(event.get("units", 0))
            sweep.cached += int(event.get("cached", 0))
            sweep.done += int(event.get("cached", 0))
        elif ev == "done":
            self._sweep(event).done += 1
            self.inflight.pop(event.get("key", ""), None)
        elif ev == "claim" or ev == "exec-start":
            key = event.get("key")
            if key and isinstance(mono, (int, float)):
                # exec-start refreshes a claim's stamp: age then measures
                # the *attempt*, not time spent waiting in the queue.
                self.inflight[key] = (
                    mono,
                    event.get("label", "?"),
                    event.get("m"),
                    event.get("bucket"),
                )
        elif ev == "exec-done":
            self.inflight.pop(event.get("key", ""), None)
            seconds = event.get("seconds")
            if isinstance(seconds, (int, float)):
                self.shard_seconds.observe(seconds)
                self._sweep(event).shard_seconds.observe(seconds)
                self.busy_seconds += seconds
        elif ev == "retry":
            self.retries += 1
            self._sweep(event).retried += 1
        elif ev == "reclaim":
            self.inflight.pop(event.get("key", ""), None)
        elif ev == "worker-lost":
            self.lost_workers += 1
        elif ev == "lease-expired":
            self.lease_expiries += 1
        elif ev == "workers":
            self.workers_alive = event.get("alive")
            self.workers_total = event.get("total")
        elif ev == "crash":
            self.crashes += 1
        elif ev == "postmortem":
            self.postmortems += 1

    def _sweep(self, event: dict) -> SweepTally:
        key = (event.get("label", "?"), event.get("m"))
        sweep = self.sweeps.get(key)
        if sweep is None:
            sweep = self.sweeps[key] = SweepTally()
        return sweep

    # -- derived views --------------------------------------------------------
    def runs(self) -> list[JournalFold]:
        """Every run in journal order; the fold itself is the latest."""
        return [*self.earlier, self]

    def total_units(self) -> int:
        return sum(s.total for s in self.sweeps.values())

    def done_units(self) -> int:
        return sum(s.done for s in self.sweeps.values())

    def cached_units(self) -> int:
        return sum(s.cached for s in self.sweeps.values())

    def wall_seconds(self) -> float:
        """This run's first-to-last mono span (0.0 before two stamps)."""
        if self.first_mono is None or self.last_mono is None:
            return 0.0
        return self.last_mono - self.first_mono

    def utilization(self) -> float | None:
        """Busy worker seconds over available worker seconds, so far."""
        wall = self.wall_seconds()
        if not self.workers_total or wall <= 0:
            return None
        return min(1.0, self.busy_seconds / (self.workers_total * wall))

    def latency_quantiles(self) -> dict[str, float | None]:
        return latency_quantiles(self.shard_seconds)
