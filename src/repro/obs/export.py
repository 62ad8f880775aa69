"""Exporters: JSON snapshot, human table, Chrome-trace span dump.

Three read-only views over the same recorded state:

* :func:`to_json` — the ``BENCH_obs.json``-compatible snapshot (flat
  counters, gauges, histogram summaries with p50/p95/p99, span census);
* :func:`render_table` — the ASCII diagnostics block the CLI prints;
* :func:`chrome_trace` / :func:`write_chrome_trace` — the Trace Event
  Format dump loadable in Perfetto (https://ui.perfetto.dev) or
  ``about:tracing``: one complete ("ph": "X") event per span,
  microsecond timestamps, workers appearing as their own pid rows.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.registry import MetricsRegistry
from repro.obs.recorder import SpanRecord
from repro.util.tables import format_table

__all__ = [
    "snapshot_summary",
    "to_json",
    "render_table",
    "chrome_trace",
    "write_chrome_trace",
]

#: Format marker of the JSON snapshot, bumped on breaking shape changes.
SNAPSHOT_SCHEMA = "repro-obs-snapshot/1"


def snapshot_summary(registry: MetricsRegistry) -> dict:
    """Histogram summaries (count/total/min/max/p50/p95/p99) by name."""
    return {
        name: histogram.summary()
        for name, histogram in registry.histograms().items()
    }


def to_json(
    registry: MetricsRegistry,
    spans: list[SpanRecord] | None = None,
    mode: str = "off",
) -> dict:
    """The ``BENCH_obs.json``-compatible snapshot of one process's view.

    The active demand kernel is stamped alongside the mode so every
    exported snapshot (``--obs-out``, trace artifacts, BENCH files) is
    self-describing about the machinery that produced its counters —
    ``repro trace --demand-kernel block`` and a default run are otherwise
    indistinguishable on disk.  (Additive field; the schema stays
    ``repro-obs-snapshot/1``.)
    """
    # Deferred: repro.analysis.dbf imports repro.obs at module load.
    from repro.analysis.dbf import demand_kernel

    spans = spans or []
    by_name: dict[str, int] = {}
    for record in spans:
        by_name[record.name] = by_name.get(record.name, 0) + 1
    return {
        "schema": SNAPSHOT_SCHEMA,
        "mode": mode,
        "kernel": demand_kernel(),
        "counters": {
            name: value for name, value in sorted(registry.counters().items())
        },
        "gauges": registry.gauges(),
        "histograms": snapshot_summary(registry),
        "spans": {"count": len(spans), "by_name": by_name},
    }


def render_table(registry: MetricsRegistry, spans: list[SpanRecord] | None = None) -> str:
    """Human diagnostics block: one table per populated metric kind."""
    parts = []
    counters = registry.counters()
    nonzero = {name: value for name, value in counters.items() if value}
    if nonzero:
        parts.append(
            format_table(
                ["counter", "value"],
                [[name, nonzero[name]] for name in sorted(nonzero)],
                title="obs counters",
            )
        )
    gauges = registry.gauges()
    if gauges:
        parts.append(
            format_table(
                ["gauge", "value"],
                [[name, round(gauges[name], 4)] for name in sorted(gauges)],
                title="obs gauges",
            )
        )
    histograms = registry.histograms()
    if histograms:
        rows = []
        for name in sorted(histograms):
            s = histograms[name].summary()
            rows.append(
                [name, s["count"], s["p50"], s["p95"], s["p99"], s["max"]]
            )
        parts.append(
            format_table(
                ["histogram", "count", "p50", "p95", "p99", "max"],
                rows,
                title="obs histograms",
            )
        )
    if spans:
        by_name: dict[str, list[float]] = {}
        for record in spans:
            by_name.setdefault(record.name, []).append(record.duration)
        rows = [
            [name, len(durations), round(sum(durations), 4)]
            for name, durations in sorted(by_name.items())
        ]
        parts.append(
            format_table(
                ["span", "count", "total s"],
                rows,
                title="obs spans",
            )
        )
    return "\n\n".join(parts)


def chrome_trace(spans: list[SpanRecord]) -> dict:
    """Trace Event Format document for Perfetto / ``about:tracing``."""
    events = []
    for record in spans:
        args = {str(k): v for k, v in record.attrs.items()}
        if record.parent is not None:
            args["parent_span"] = record.parent
        events.append(
            {
                "name": record.name,
                "cat": "repro",
                "ph": "X",
                "ts": round(record.start * 1e6, 3),
                "dur": round(record.duration * 1e6, 3),
                "pid": record.pid,
                "tid": record.tid,
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans: list[SpanRecord], path: str | Path) -> Path:
    """Write the Chrome-trace dump to ``path`` and return it."""
    path = Path(path)
    path.write_text(
        json.dumps(chrome_trace(spans), indent=2) + "\n", encoding="utf-8"
    )
    return path
