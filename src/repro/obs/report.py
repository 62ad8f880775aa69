"""Cross-run regression reports from event journals: ``repro report``.

A journal (:mod:`repro.obs.journal`) outlives the campaign that wrote
it, so two journals — today's run and last week's — can be compared long
after both processes exited.  :func:`summarize_journal` projects one
journal's fold (:class:`~repro.obs.fold.JournalFold`, the tally that
``repro status`` and the progress line render too) into a
:class:`RunSummary` (shards executed, wall seconds, throughput,
shard-latency quantiles, per-sweep breakdowns, fault counters), summed
over the runs of a resumed campaign.  :func:`compare_runs` diffs a
summary against a baseline and flags regressions past a configurable
threshold; :func:`render_report` renders the per-figure/per-bucket
tables.  The CLI exits non-zero when any comparison regresses, which is
what makes ``repro report --baseline BENCH_fabric.json`` a ready-made
CI perf tripwire.

Baselines come in two shapes and :func:`load_baseline` accepts both:

* another journal (JSONL) — summarized exactly like the current run;
* a committed ``BENCH_*.json`` artifact — mined for its best
  ``shards_per_sec`` figure (every fabric/telemetry bench artifact
  reports one per backend) and, when present, shard-seconds quantiles.

The regression rule is deliberately one-sided and simple: with
threshold ``t`` (default :data:`DEFAULT_THRESHOLD`), throughput must not
drop below ``baseline * (1 - t)`` and p95 shard latency must not rise
above ``baseline * (1 + t)``.  CI passes a generous ``t`` because 1-CPU
runners are noisy; the default suits a developer's own machine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.fold import JournalFold, latency_quantiles
from repro.obs.registry import Histogram
from repro.util.tables import format_table

__all__ = [
    "DEFAULT_THRESHOLD",
    "RunSummary",
    "Comparison",
    "summarize_journal",
    "load_baseline",
    "compare_runs",
    "render_report",
]

#: Default maximum tolerated fractional drift before a run "regresses".
DEFAULT_THRESHOLD = 0.2


@dataclass
class RunSummary:
    """One run reduced to the numbers two runs can be compared on."""

    name: str
    campaign: str | None = None
    executed: int = 0
    cached: int = 0
    retries: int = 0
    lost_workers: int = 0
    wall_seconds: float = 0.0
    busy_seconds: float = 0.0
    shards_per_sec: float | None = None
    latency: dict[str, float | None] = field(default_factory=dict)
    #: (label, m) -> {"executed", "seconds", "p50", "p95", "p99"}
    sweeps: dict[tuple[str, int | None], dict] = field(default_factory=dict)
    #: True when this summary came from a BENCH_*.json artifact rather
    #: than a journal (no sweeps / fault counters to show).
    synthetic: bool = False


@dataclass(frozen=True)
class Comparison:
    """One metric of one run measured against the baseline."""

    run: str
    metric: str
    current: float
    baseline: float
    #: current / baseline (>1 is faster for throughput, slower for latency).
    ratio: float
    regressed: bool


def summarize_journal(path: str | Path, events=None) -> RunSummary:
    """Reduce a journal to a :class:`RunSummary`: a projection of its fold.

    ``events`` short-circuits the file read when the caller already
    holds the parsed list (tests, ``repro report`` over many journals).
    A resumed campaign's runs are summed: counters add up, and wall
    time is the sum of each run's own mono span.
    """
    from repro.obs.journal import read_events

    if events is None:
        events = read_events(path)
    fold = JournalFold().absorb(events)
    runs = fold.runs()
    overall = Histogram()
    per_sweep: dict[tuple[str, int | None], Histogram] = {}
    for run in runs:
        overall.merge_state(run.shard_seconds.state())
        for key, sweep in run.sweeps.items():
            if sweep.shard_seconds.count:
                per_sweep.setdefault(key, Histogram()).merge_state(
                    sweep.shard_seconds.state()
                )
    summary = RunSummary(
        name=str(path),
        campaign=fold.campaign,
        executed=overall.count,
        cached=sum(run.cached_units() for run in runs),
        retries=sum(run.retries for run in runs),
        lost_workers=sum(run.lost_workers for run in runs),
        wall_seconds=sum(run.wall_seconds() for run in runs),
        busy_seconds=sum(run.busy_seconds for run in runs),
        latency=latency_quantiles(overall),
    )
    if summary.executed and summary.wall_seconds > 0:
        summary.shards_per_sec = summary.executed / summary.wall_seconds
    summary.sweeps = {
        key: {
            "executed": histogram.count,
            "seconds": round(histogram.total, 6),
            **latency_quantiles(histogram),
        }
        for key, histogram in sorted(
            per_sweep.items(), key=lambda kv: (kv[0][0], kv[0][1] or 0)
        )
    }
    return summary


# -- baselines -------------------------------------------------------------------
def _mine(node, key: str, found: list) -> None:
    if isinstance(node, dict):
        for name, value in node.items():
            if name == key and isinstance(value, (int, float)):
                found.append(float(value))
            else:
                _mine(value, key, found)
    elif isinstance(node, list):
        for value in node:
            _mine(value, key, found)


def _bench_baseline(path: Path, payload: dict) -> RunSummary:
    """A pseudo-summary mined from a committed ``BENCH_*.json`` artifact.

    Takes the *best* ``shards_per_sec`` the artifact reports (bench
    artifacts record one per backend/mode; the gate should compare
    against what the machine proved it can do) and shard-seconds
    quantiles when the artifact carries them under ``shard_seconds``.
    """
    throughput: list[float] = []
    _mine(payload, "shards_per_sec", throughput)
    summary = RunSummary(name=str(path), synthetic=True)
    if throughput:
        summary.shards_per_sec = max(throughput)
    p95: list[float] = []
    _mine(payload.get("shard_seconds", {}), "p95", p95)
    p50: list[float] = []
    _mine(payload.get("shard_seconds", {}), "p50", p50)
    summary.latency = {
        "p50": min(p50) if p50 else None,
        "p95": min(p95) if p95 else None,
        "p99": None,
    }
    return summary


def load_baseline(path: str | Path) -> RunSummary:
    """Summarize a baseline: a journal (JSONL) or a ``BENCH_*.json``."""
    path = Path(path)
    raw = path.read_text(encoding="utf-8")
    stripped = raw.lstrip()
    if stripped.startswith("{"):
        try:
            payload = json.loads(raw)
        except ValueError:
            payload = None
        if isinstance(payload, dict) and "ev" not in payload:
            return _bench_baseline(path, payload)
    return summarize_journal(path)


# -- regression diff --------------------------------------------------------------
def compare_runs(
    current: RunSummary,
    baseline: RunSummary,
    threshold: float = DEFAULT_THRESHOLD,
) -> list[Comparison]:
    """Diff ``current`` against ``baseline``.

    Only metrics both sides actually have are compared — a bench-artifact
    baseline without latency quantiles gates throughput alone.
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    comparisons: list[Comparison] = []
    if current.shards_per_sec and baseline.shards_per_sec:
        ratio = current.shards_per_sec / baseline.shards_per_sec
        comparisons.append(
            Comparison(
                run=current.name,
                metric="shards_per_sec",
                current=current.shards_per_sec,
                baseline=baseline.shards_per_sec,
                ratio=ratio,
                regressed=ratio < 1.0 - threshold,
            )
        )
    for quantile in ("p50", "p95", "p99"):
        now = current.latency.get(quantile)
        then = baseline.latency.get(quantile)
        if now and then:
            ratio = now / then
            comparisons.append(
                Comparison(
                    run=current.name,
                    metric=f"shard_seconds.{quantile}",
                    current=now,
                    baseline=then,
                    ratio=ratio,
                    regressed=ratio > 1.0 + threshold,
                )
            )
    return comparisons


# -- rendering --------------------------------------------------------------------
def _round(value: float | None, digits: int = 4) -> float | str:
    return "-" if value is None else round(value, digits)


def render_report(
    summaries: list[RunSummary],
    comparisons: list[Comparison] | None = None,
    threshold: float = DEFAULT_THRESHOLD,
) -> str:
    """The text block ``repro report`` prints."""
    blocks: list[str] = []
    rows = [
        [
            Path(s.name).name,
            s.campaign or "-",
            s.executed,
            s.cached,
            s.retries,
            s.lost_workers,
            _round(s.wall_seconds, 2),
            _round(s.shards_per_sec, 2),
            _round(s.latency.get("p50")),
            _round(s.latency.get("p95")),
            _round(s.latency.get("p99")),
        ]
        for s in summaries
    ]
    blocks.append(
        format_table(
            [
                "run", "campaign", "executed", "cached", "retried",
                "lost", "wall s", "shards/s", "p50 s", "p95 s", "p99 s",
            ],
            rows,
            title="runs",
        )
    )
    for summary in summaries:
        if not summary.sweeps:
            continue
        blocks.append("")
        blocks.append(
            format_table(
                ["sweep", "m", "executed", "seconds", "p50 s", "p95 s", "p99 s"],
                [
                    [
                        label,
                        "-" if m is None else m,
                        stats["executed"],
                        _round(stats["seconds"], 2),
                        _round(stats["p50"]),
                        _round(stats["p95"]),
                        _round(stats["p99"]),
                    ]
                    for (label, m), stats in summary.sweeps.items()
                ],
                title=f"sweeps — {Path(summary.name).name}",
            )
        )
    if comparisons is not None:
        blocks.append("")
        if comparisons:
            blocks.append(
                format_table(
                    ["run", "metric", "current", "baseline", "ratio", "verdict"],
                    [
                        [
                            Path(c.run).name,
                            c.metric,
                            _round(c.current),
                            _round(c.baseline),
                            _round(c.ratio, 3),
                            "REGRESSED" if c.regressed else "ok",
                        ]
                        for c in comparisons
                    ],
                    title=f"baseline diff (threshold {threshold:g})",
                )
            )
        else:
            blocks.append(
                "baseline diff: no comparable metrics (baseline has no "
                "throughput or latency figures)"
            )
    return "\n".join(blocks)
