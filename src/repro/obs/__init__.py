"""repro.obs — unified metrics, tracing spans and profiling hooks.

The observability spine of the repo: one process-local
:class:`~repro.obs.registry.MetricsRegistry` (:data:`REGISTRY`), one
injectable recorder (:func:`set_recorder`) gating all *optional*
instrumentation, and nestable :func:`span` contexts feeding the
Chrome-trace export.  Design rules, relied on everywhere:

* **Observe-only.**  Nothing in this package influences analysis
  verdicts, figure ratios, WAR tables or shard-cache identity; the
  differential test suite runs sweeps with recording off and on and
  asserts bit-identical outputs.
* **One branch when off.**  With the default :class:`~repro.obs.recorder.
  NullRecorder` installed, every instrumentation site reduces to an
  ``active()``/``tracing()`` check.  (The demand-kernel counters predate
  this subsystem and stay *always on* as a registry counter scope — plain
  dict increments, exactly their historical cost — because the CLI
  pipeline diagnostics must work without any knob.)
* **Mergeable.**  Worker processes ship their registry snapshot and spans
  back to the parent (:func:`capture_payload` / :func:`absorb_payload`)
  and the parent folds them in associatively, so parallel runs report the
  same totals as serial ones.

The ``REPRO_OBS`` env knob (``off`` | ``metrics`` | ``trace``, parsed by
:func:`repro.util.env.obs_mode_from_env`) selects the recorder once at
import, mirroring the ``REPRO_DBF_KERNEL`` knob pattern; :func:`set_recorder`
overrides it at runtime (tests, the ``repro trace`` command).
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.obs import clock
from repro.obs.export import (
    chrome_trace,
    render_table,
    snapshot_summary,
    to_json,
    write_chrome_trace,
)
from repro.obs.journal import (
    JOURNAL_SCHEMA,
    Journal,
    JournalFollower,
    active_journal,
    journal_env,
    open_journal,
    read_events,
)
from repro.obs.recorder import (
    MetricsRecorder,
    NullRecorder,
    Recorder,
    SpanRecord,
    TraceRecorder,
    span_context,
)
from repro.obs.registry import Histogram, MetricsRegistry
from repro.util.env import obs_mode_from_env

__all__ = [
    "REGISTRY",
    "Histogram",
    "MetricsRegistry",
    "Recorder",
    "NullRecorder",
    "MetricsRecorder",
    "TraceRecorder",
    "SpanRecord",
    "active",
    "tracing",
    "mode",
    "get_recorder",
    "set_recorder",
    "span",
    "spans",
    "clear",
    "capture_payload",
    "absorb_payload",
    "snapshot",
    "to_json",
    "render_table",
    "snapshot_summary",
    "chrome_trace",
    "write_chrome_trace",
    "clock",
    "JOURNAL_SCHEMA",
    "Journal",
    "JournalFollower",
    "active_journal",
    "journal_env",
    "open_journal",
    "read_events",
]

#: The process-wide metrics registry.  Never replaced — counter scopes
#: hand out live references — only reset.
REGISTRY = MetricsRegistry()

_RECORDER: Recorder = NullRecorder(REGISTRY)


def get_recorder() -> Recorder:
    """The currently installed recorder."""
    return _RECORDER


def set_recorder(recorder: Recorder) -> Recorder:
    """Install ``recorder`` and return the previous one (for restoring)."""
    global _RECORDER
    previous = _RECORDER
    _RECORDER = recorder
    return previous


def active() -> bool:
    """True when optional metric instrumentation should record."""
    return _RECORDER.enabled


def tracing() -> bool:
    """True when spans are being collected."""
    return _RECORDER.records_spans


def mode() -> str:
    """The effective mode string (``off`` / ``metrics`` / ``trace``)."""
    if _RECORDER.records_spans:
        return "trace"
    return "metrics" if _RECORDER.enabled else "off"


def span(name: str, /, **attrs):
    """Nestable tracing context; a near-no-op unless tracing is on."""
    return span_context(_RECORDER, name, attrs)


def spans() -> list[SpanRecord]:
    """The spans collected so far in this process (empty unless tracing)."""
    return list(getattr(_RECORDER, "spans", ()))


def clear() -> None:
    """Reset the registry and drop collected spans (counter-scope dicts
    stay registered and are zeroed in place)."""
    REGISTRY.reset()
    collected = getattr(_RECORDER, "spans", None)
    if collected is not None:
        collected.clear()


def snapshot() -> dict:
    """The registry's picklable snapshot (counters/gauges/histograms)."""
    return REGISTRY.snapshot()


# -- worker -> parent transport ----------------------------------------------
def capture_payload() -> dict:
    """Everything this process recorded, as one picklable payload.

    Pool workers call :func:`clear` before a unit and this afterwards, so
    the payload is exactly the unit's contribution and the parent can
    merge payloads in any order without double counting.
    """
    return {"registry": REGISTRY.snapshot(), "spans": spans()}


def absorb_payload(payload: dict | None) -> None:
    """Fold a worker's :func:`capture_payload` into this process."""
    if not payload:
        return
    REGISTRY.merge(payload.get("registry", {}))
    if _RECORDER.records_spans:
        for record in payload.get("spans", ()):
            _RECORDER.record_span(record)


# -- env-knob configuration ---------------------------------------------------
def _configure_from_env() -> None:
    knob = obs_mode_from_env()
    if knob == "metrics":
        set_recorder(MetricsRecorder(REGISTRY))
    elif knob == "trace":
        set_recorder(TraceRecorder(REGISTRY))


_configure_from_env()
