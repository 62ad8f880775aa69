"""Crash forensics: postmortem bundles assembled from the event journal.

When the cluster backend gives up on a unit (``WorkerCrashError``) — and
on every lost-worker reclaim along the way — the conductor turns the
journal's raw event stream into a *postmortem bundle*: the dead worker's
last claim, its heartbeat history and last-heartbeat age, the unit's
full attempt chain, the fault spec and marker files active at the time,
and the last spans the worker shipped before dying.  The bundle is
attached to the error (``WorkerCrashError.postmortem``), journaled as a
``postmortem`` event, and dumped as ``postmortem-<unit>.json`` next to
the journal, so "why is shard X missing" is answerable from artifacts
alone — no re-run, no debugger, no surviving process required.

The assembly is pure (events in, dict out) and tolerant: every section
degrades to an empty value when the journal never saw the corresponding
events (e.g. a serial run has no claims or heartbeats), because a
postmortem must never raise while reporting someone else's death.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.obs.journal import read_events

__all__ = [
    "POSTMORTEM_SCHEMA",
    "assemble_postmortem",
    "write_postmortem",
    "describe_postmortem",
]

#: Format marker for the bundle (journals carry :data:`~repro.obs.
#: journal.JOURNAL_SCHEMA`; bundles version independently).
POSTMORTEM_SCHEMA = "repro-postmortem/1"

#: Unit-lifecycle events that belong in the attempt timeline.
_TIMELINE = (
    "claim", "exec-start", "exec-done", "retry", "reclaim",
    "lease-expired", "done", "crash",
)

#: Heartbeat stamps kept per bundle — enough to see the cadence and the
#: silence, not enough to drown the file.
HEARTBEAT_LIMIT = 20


def _fault_context(key: str) -> dict:
    """The fault-injection state active for ``key`` right now.

    Marker files are how :func:`repro.runner.faults.maybe_inject`
    coordinates fault-at-most-once, so a ``<key>.crash`` marker is
    direct evidence the crash fault fired for exactly this unit.
    """
    spec = os.environ.get("REPRO_RUNNER_FAULT", "")
    markers: list[str] = []
    marker_dir = os.environ.get("REPRO_RUNNER_FAULT_DIR", "")
    if marker_dir and os.path.isdir(marker_dir):
        markers = sorted(
            name
            for name in os.listdir(marker_dir)
            if name.startswith(key)
        )
    return {"spec": spec, "markers": markers}


def assemble_postmortem(source, key: str) -> dict:
    """Build the postmortem bundle for unit ``key``.

    ``source`` is a journal path or an already-parsed event list (the
    conductor re-reads the file; tests hand events straight in).
    """
    events = source if isinstance(source, list) else read_events(source)
    timeline = [
        event
        for event in events
        if event.get("key") == key and event.get("ev") in _TIMELINE
    ]
    claims = [event for event in timeline if event["ev"] == "claim"]
    last_claim = claims[-1] if claims else None
    retries = [event for event in timeline if event["ev"] == "retry"]
    # Dispatch attempts: every retry re-dispatches once on top of the
    # initial dispatch; claims undercount when a worker dies between
    # receiving a unit and journaling its claim, so take whichever chain
    # saw more.
    attempts = max(len(claims), len(retries) + 1 if retries else 1)
    for event in retries:
        if isinstance(event.get("attempt"), int):
            attempts = max(attempts, event["attempt"])

    worker_pid = last_claim.get("pid") if last_claim else None
    worker_slot = last_claim.get("slot") if last_claim else None
    heartbeats = [
        event
        for event in events
        if event.get("ev") == "heartbeat" and event.get("pid") == worker_pid
    ][-HEARTBEAT_LIMIT:]
    lost = [
        event
        for event in events
        if event.get("ev") == "worker-lost" and event.get("slot") == worker_slot
    ]

    # Age of the worker's last sign of life, measured at the moment the
    # conductor acted on the death (reclaim/crash event) — falling back
    # to the journal's end when the run was cut down before reacting.
    reference = None
    for event in reversed(timeline):
        if event["ev"] in ("reclaim", "crash") and isinstance(
            event.get("mono"), (int, float)
        ):
            reference = event["mono"]
            break
    if reference is None and events:
        reference = events[-1].get("mono")
    last_sign = None
    for event in heartbeats + ([last_claim] if last_claim else []):
        mono = event.get("mono")
        if isinstance(mono, (int, float)):
            last_sign = mono if last_sign is None else max(last_sign, mono)
    heartbeat_age = (
        round(reference - last_sign, 6)
        if reference is not None and last_sign is not None
        else None
    )

    last_spans = None
    if worker_pid is not None:
        for event in reversed(events):
            if event.get("ev") == "exec-done" and event.get("pid") == worker_pid:
                last_spans = {
                    "key": event.get("key"),
                    "spans": event.get("spans"),
                    "seconds": event.get("seconds"),
                }
                break

    return {
        "schema": POSTMORTEM_SCHEMA,
        "unit": key,
        "attempts": attempts,
        "last_claim": last_claim,
        "worker": {"slot": worker_slot, "pid": worker_pid},
        "last_heartbeat_age": heartbeat_age,
        "heartbeats": heartbeats,
        "worker_lost": lost,
        "timeline": timeline,
        "last_spans": last_spans,
        "fault": _fault_context(key),
    }


def write_postmortem(bundle: dict, directory: str | Path) -> Path:
    """Dump ``bundle`` as ``postmortem-<unit>.json`` under ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"postmortem-{bundle['unit'][:12]}.json"
    path.write_text(json.dumps(bundle, indent=2) + "\n", encoding="utf-8")
    return path


def describe_postmortem(bundle: dict, path: Path | None = None) -> str:
    """One human paragraph for ``WorkerCrashError.detail``."""
    parts = [f"postmortem for unit {bundle['unit'][:12]}"]
    worker = bundle.get("worker") or {}
    if worker.get("pid") is not None:
        parts.append(
            f"last claimed by worker slot {worker.get('slot')} "
            f"(pid {worker.get('pid')})"
        )
    parts.append(f"{bundle.get('attempts', 0)} attempt(s)")
    age = bundle.get("last_heartbeat_age")
    if age is not None:
        parts.append(f"last heartbeat {age:.2f}s before give-up")
    fault = bundle.get("fault") or {}
    if fault.get("spec"):
        parts.append(f"active fault spec {fault['spec']!r}")
    if fault.get("markers"):
        parts.append(f"fault markers {fault['markers']}")
    if path is not None:
        parts.append(f"bundle at {path}")
    return ", ".join(parts)
