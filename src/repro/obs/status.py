"""Live campaign status from the event journal: ``repro status``.

:class:`CampaignStatus` is the journal fold (:class:`~repro.obs.fold.
JournalFold`) plus the straggler rule, and :func:`render_status` turns
it into the text block the CLI prints: workers alive, per-sweep
progress, fault counters, shard-latency quantiles and stragglers.  A
resumed campaign's journal holds several runs; the status shows the
latest one, so ``--follow`` keeps tailing after a resume's ``open``.

Straggler rule: a unit is *in flight* from its ``claim``/``exec-start``
event until its ``done``/``exec-done``; once at least
:data:`MIN_LATENCY_SAMPLES` shard latencies are known, any in-flight
unit older than ``k`` × the running shard-seconds p95 is flagged
(``k`` = ``--straggler-factor``, default 4.0).  Ages are computed on
the monotonic clock, which is system-wide on Linux — comparable between
the campaign's workers and the status process watching them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import clock
from repro.obs.fold import JournalFold
from repro.util.tables import format_table

__all__ = ["CampaignStatus", "Straggler", "render_status"]

#: Latency samples required before straggler detection arms: a p95 over
#: a handful of shards is noise, and flagging the first slow bucket of a
#: fresh campaign would cry wolf on every run.
MIN_LATENCY_SAMPLES = 5


@dataclass(frozen=True)
class Straggler:
    """One in-flight unit whose age exceeds the straggler threshold."""

    key: str
    label: str
    m: int | None
    bucket: float | None
    age: float
    threshold: float


class CampaignStatus(JournalFold):
    """The journal fold with the straggler rule of a live status view."""

    def __init__(self, straggler_factor: float = 4.0):
        super().__init__()
        self.straggler_factor = straggler_factor

    def stragglers(self, now: float | None = None) -> list[Straggler]:
        """In-flight units older than ``k`` × the running p95.

        ``now`` defaults to this process's monotonic clock for a live
        campaign, and to the journal's last timestamp once the campaign
        ended (nothing can be "in flight" relative to a later wall).
        """
        if self.shard_seconds.count < MIN_LATENCY_SAMPLES:
            return []
        p95 = self.shard_seconds.quantile(0.95)
        if not p95:
            return []
        threshold = self.straggler_factor * p95
        if now is None:
            now = self.last_mono if self.ended else clock.monotonic()
        if now is None:
            return []
        found = [
            Straggler(
                key=key,
                label=label,
                m=m,
                bucket=bucket,
                age=now - since,
                threshold=threshold,
            )
            for key, (since, label, m, bucket) in self.inflight.items()
            if now - since > threshold
        ]
        return sorted(found, key=lambda s: s.age, reverse=True)


def render_status(status: CampaignStatus, now: float | None = None) -> str:
    """The human status block ``repro status`` prints."""
    title = status.campaign or "campaign"
    state = "finished" if status.ended else "running"
    lines = [f"{title}: {state} — {status.done_units()}/"
             f"{status.total_units()} shards ({status.events} events)"]
    if status.workers_total is not None:
        line = f"workers: {status.workers_alive}/{status.workers_total} alive"
        utilization = status.utilization()
        if utilization is not None:
            line += f", utilization {utilization:.0%}"
        lines.append(line)
    quantiles = status.latency_quantiles()
    if status.shard_seconds.count:
        lines.append(
            "shard seconds: "
            + "  ".join(
                f"{name} {value:.3f}"
                for name, value in quantiles.items()
                if value is not None
            )
            + f"  (n={status.shard_seconds.count})"
        )
    faults = []
    if status.retries:
        faults.append(f"{status.retries} retried")
    if status.lost_workers:
        faults.append(f"{status.lost_workers} workers lost")
    if status.lease_expiries:
        faults.append(f"{status.lease_expiries} leases expired")
    if status.crashes:
        faults.append(f"{status.crashes} units given up")
    if faults:
        lines.append("faults: " + ", ".join(faults))
    if status.sweeps:
        rows = [
            [
                label,
                "-" if m is None else m,
                f"{p.done}/{p.total}",
                p.cached,
                p.retried,
            ]
            for (label, m), p in sorted(
                status.sweeps.items(), key=lambda kv: (kv[0][0], kv[0][1] or 0)
            )
        ]
        lines.append("")
        lines.append(
            format_table(
                ["sweep", "m", "done", "cached", "retried"],
                rows,
                title="progress",
            )
        )
    stragglers = status.stragglers(now)
    if stragglers:
        lines.append("")
        lines.append(
            format_table(
                ["unit", "sweep", "m", "bucket", "age s", "> k*p95 s"],
                [
                    [
                        s.key[:12],
                        s.label,
                        "-" if s.m is None else s.m,
                        "-" if s.bucket is None else s.bucket,
                        round(s.age, 2),
                        round(s.threshold, 2),
                    ]
                    for s in stragglers
                ],
                title=f"stragglers (k={status.straggler_factor:g})",
            )
        )
    return "\n".join(lines)
