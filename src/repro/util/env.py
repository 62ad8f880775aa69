"""Validated parsing of the repo-wide environment knobs.

Two knobs control experiment scale everywhere (figures, benchmarks, CI):

* ``REPRO_SAMPLES`` — task sets per ``UB`` bucket (the paper used 1000).
* ``REPRO_M`` — comma-separated processor counts (the paper swept 2,4,8).

One more selects the demand kernel of :mod:`repro.analysis.dbf`:

* ``REPRO_DBF_KERNEL`` — one of :data:`DBF_KERNELS`: ``qpa`` (default)
  or ``block``, the demand-kernel stack used for shrink descents.
  ``block`` commits multi-task shrinks in one step and is sound only:
  every set it accepts is schedulable, but it can accept sets ``qpa``
  rejects (see :func:`repro.analysis.dbf.set_demand_kernel`).  The
  in-order breakpoint walk is not a kernel value: it is the tests'
  oracle for ``qpa``.  The resolution order
  is instance (``set_demand_kernel``) > CLI (``--demand-kernel``) >
  this knob > default.

And one selects the observability recorder of :mod:`repro.obs`:

* ``REPRO_OBS`` — ``off`` (default, null recorder), ``metrics``
  (counters/gauges/histograms) or ``trace`` (metrics plus tracing spans
  for the Chrome-trace export).  Recording never changes results — it
  only decides what diagnostics are collected alongside them.

Two configure the durable telemetry plane of :mod:`repro.obs.journal`:

* ``REPRO_OBS_JOURNAL`` — path of the append-only JSONL event journal
  the conductor and every worker write; empty (default) disables the
  journal.  Like ``REPRO_OBS``, journaling never changes results.
* ``REPRO_OBS_JOURNAL_FLUSH`` — cadence in seconds of the periodic
  registry snapshots and worker heartbeat stamps journaled alongside the
  per-unit events (default 2.0).

Four configure the campaign fabric of :mod:`repro.runner`:

* ``REPRO_RUNNER_BACKEND`` — ``serial`` or ``cluster`` executor
  backend; empty (default) auto-selects ``cluster`` when more than one
  job and more than one pending unit are in play, ``serial`` otherwise.
* ``REPRO_RUNNER_STORE`` — ``fs`` (default, the two-level fan-out
  layout) or ``object`` (flat content-keyed bucket) shard-store layout.
* ``REPRO_RUNNER_HEARTBEAT`` — cluster worker heartbeat interval in
  seconds (default 2.0).
* ``REPRO_RUNNER_LEASE`` — cluster work-unit lease in seconds; a worker
  holding one unit longer is presumed hung, put down and its unit
  re-dispatched.  Empty (default) sets no lease, so a slow shard on a
  live, heartbeating worker is never killed.

This module is the single parsing/validation point; the figure defaults,
the benchmark harness and the analysis kernel all delegate here so a
malformed knob fails the same way everywhere.
"""

from __future__ import annotations

import os

__all__ = [
    "positive_int_env",
    "positive_float_env",
    "samples_from_env",
    "m_values_from_env",
    "demand_kernel_from_env",
    "obs_mode_from_env",
    "journal_path_from_env",
    "journal_flush_interval_from_env",
    "runner_backend_from_env",
    "runner_store_from_env",
    "heartbeat_interval_from_env",
    "lease_timeout_from_env",
]

#: Valid ``REPRO_OBS`` values, in increasing collection order.
OBS_MODES = ("off", "metrics", "trace")

#: Valid demand kernels, in increasing machinery order — the one list the
#: analysis, the env knob and the CLI all read.  ``block`` is sound only
#: (it may accept more than ``qpa``).
DBF_KERNELS = ("qpa", "block")

#: Valid executor backends, in increasing machinery order ("" = auto) —
#: the one list the runner, the env knob and the CLI all read.
RUNNER_BACKENDS = ("serial", "cluster")

#: Valid shard-store layouts.
RUNNER_STORES = ("fs", "object")


def positive_int_env(name: str, fallback: int) -> int:
    """Read a positive integer from the environment, or ``fallback``.

    Raises :class:`ValueError` for non-integer or non-positive values —
    a silent fallback would make a typo look like a tiny run.
    """
    raw = os.environ.get(name, "")
    if not raw:
        return fallback
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def positive_float_env(name: str, fallback: float | None) -> float | None:
    """Read a positive float from the environment, or ``fallback``.

    Same contract as :func:`positive_int_env`: malformed values raise
    instead of silently running with a surprising timeout.
    """
    raw = os.environ.get(name, "")
    if not raw:
        return fallback
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {raw!r}") from None
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def samples_from_env(fallback: int = 100) -> int:
    """Samples per ``UB`` bucket: ``REPRO_SAMPLES`` or ``fallback``."""
    return positive_int_env("REPRO_SAMPLES", fallback)


def demand_kernel_from_env(fallback: str = "qpa") -> str:
    """Demand kernel: ``REPRO_DBF_KERNEL`` or ``fallback``.

    Accepts exactly the names in :data:`DBF_KERNELS`; anything else
    raises :class:`ValueError`: a typo must not silently run a benchmark
    on the wrong machinery.
    """
    raw = os.environ.get("REPRO_DBF_KERNEL", "")
    if not raw:
        return fallback
    if raw not in DBF_KERNELS:
        raise ValueError(
            f"REPRO_DBF_KERNEL must be one of {'|'.join(DBF_KERNELS)}, "
            f"got {raw!r}"
        )
    return raw


def obs_mode_from_env(fallback: str = "off") -> str:
    """Observability mode: ``REPRO_OBS`` or ``fallback``.

    Accepts exactly ``off``, ``metrics`` or ``trace``; anything else
    raises :class:`ValueError` — a typo must not silently disable the
    diagnostics a run was supposed to collect.
    """
    raw = os.environ.get("REPRO_OBS", "")
    if not raw:
        return fallback
    if raw not in OBS_MODES:
        raise ValueError(
            f"REPRO_OBS must be one of {'|'.join(OBS_MODES)}, got {raw!r}"
        )
    return raw


def journal_path_from_env(fallback: str = "") -> str:
    """Event-journal path: ``REPRO_OBS_JOURNAL`` or ``fallback``.

    ``""`` means "no journal".  A value naming an existing *directory*
    raises — the journal is one JSONL file per campaign, and silently
    appending nothing while a campaign runs would defeat the whole
    point of durable telemetry.
    """
    raw = os.environ.get("REPRO_OBS_JOURNAL", "")
    if not raw:
        return fallback
    if raw.strip() != raw or not raw.strip():
        raise ValueError(
            f"REPRO_OBS_JOURNAL must be a file path, got {raw!r}"
        )
    if os.path.isdir(raw):
        raise ValueError(
            f"REPRO_OBS_JOURNAL must name a file, not a directory: {raw!r}"
        )
    return raw


def journal_flush_interval_from_env(fallback: float = 2.0) -> float:
    """Journal snapshot/heartbeat cadence (s): ``REPRO_OBS_JOURNAL_FLUSH``."""
    return positive_float_env("REPRO_OBS_JOURNAL_FLUSH", fallback)


def runner_backend_from_env(fallback: str = "") -> str:
    """Executor backend: ``REPRO_RUNNER_BACKEND`` or ``fallback``.

    ``""`` means "auto": pick ``cluster`` or ``serial`` from the
    ``jobs`` and pending-unit counts.  Anything other than
    :data:`RUNNER_BACKENDS` raises — running a campaign on the wrong
    backend because of a typo would waste hours, not milliseconds.
    """
    raw = os.environ.get("REPRO_RUNNER_BACKEND", "")
    if not raw:
        return fallback
    if raw not in RUNNER_BACKENDS:
        raise ValueError(
            f"REPRO_RUNNER_BACKEND must be one of "
            f"{'|'.join(RUNNER_BACKENDS)}, got {raw!r}"
        )
    return raw


def runner_store_from_env(fallback: str = "fs") -> str:
    """Shard-store layout: ``REPRO_RUNNER_STORE`` or ``fallback``."""
    raw = os.environ.get("REPRO_RUNNER_STORE", "")
    if not raw:
        return fallback
    if raw not in RUNNER_STORES:
        raise ValueError(
            f"REPRO_RUNNER_STORE must be one of "
            f"{'|'.join(RUNNER_STORES)}, got {raw!r}"
        )
    return raw


def heartbeat_interval_from_env(fallback: float = 2.0) -> float:
    """Cluster heartbeat interval (s): ``REPRO_RUNNER_HEARTBEAT`` or ``fallback``."""
    return positive_float_env("REPRO_RUNNER_HEARTBEAT", fallback)


def lease_timeout_from_env() -> float | None:
    """Cluster unit lease (s): ``REPRO_RUNNER_LEASE``, or ``None`` (no lease)."""
    return positive_float_env("REPRO_RUNNER_LEASE", None)


def m_values_from_env(fallback: tuple[int, ...] = (2, 4, 8)) -> tuple[int, ...]:
    """Processor counts to sweep: ``REPRO_M`` (comma-separated) or ``fallback``."""
    raw = os.environ.get("REPRO_M", "")
    if not raw:
        return fallback
    values = []
    for part in raw.split(","):
        part = part.strip()
        try:
            value = int(part)
        except ValueError:
            raise ValueError(
                f"REPRO_M must be comma-separated integers, got {raw!r}"
            ) from None
        if value <= 0:
            raise ValueError(f"REPRO_M entries must be positive, got {value}")
        values.append(value)
    if not values:
        raise ValueError(f"REPRO_M must name at least one processor count, got {raw!r}")
    return tuple(values)
