"""Shard execution through the campaign fabric.

The contract, relied on by the equivalence tests: for a fixed config and
algorithm list, :func:`run_sweep` returns a result **bit-identical** to
``AcceptanceSweep(config).run(...)`` no matter the executor backend, the
job count, the shard store's state, or the order workers finish in.
Determinism comes for free from the per-replicate RNG derivation (see
:mod:`repro.util.rng`); this module only has to preserve unit identity
and merge in bucket order.

The heavy lifting lives one layer down: :mod:`repro.runner.executor`
defines the ``ExecutorBackend`` protocol (in-process ``serial`` and the
parallel ``cluster`` of :mod:`repro.runner.cluster`) and
:mod:`repro.runner.store` the ``ShardStore`` persistence interface.  This module is the conductor:
load what the store already has, hand the rest to a backend, absorb obs
payloads, record outcomes and publish their lifecycle events.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro import obs
from repro.obs import clock
from repro.obs.journal import active_journal
from repro.experiments.acceptance import (
    BucketOutcome,
    SweepConfig,
    SweepResult,
    merge_outcomes,
)
from repro.runner.executor import (
    ExecutorBackend,
    FabricObserver,
    default_jobs,
    resolve_backend,
)
from repro.runner.units import WorkUnit, decompose_sweep
from repro.util.env import journal_flush_interval_from_env

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runner.progress import ProgressReporter
    from repro.runner.store import ShardStore

__all__ = ["default_jobs", "execute_units", "run_sweep"]


def execute_units(
    units: Sequence[WorkUnit],
    *,
    jobs: int = 1,
    cache: "ShardStore | None" = None,
    progress: "ProgressReporter | None" = None,
    backend: "str | ExecutorBackend | None" = None,
) -> list[BucketOutcome]:
    """Run every unit, preferring stored shards, and return them in order.

    ``backend`` picks the executor (``"serial"`` / ``"cluster"``, a
    ready instance, or ``None`` to consult ``REPRO_RUNNER_BACKEND`` and
    fall back to the auto rule: ``cluster`` when ``jobs`` and the
    pending unit count both exceed one, in-process serial otherwise).
    Every backend produces bit-identical outcomes; the serial path is
    what ``cluster`` is verified against.

    The conductor publishes the sweep's shape (``sweep-start`` with
    unit/cached counts), each merged outcome (``done``) and
    ``sweep-done`` through the :class:`FabricObserver`: to the journal
    when ``REPRO_OBS_JOURNAL`` is set (plus a registry ``snapshot``
    every journal-flush interval) and to ``progress``'s fold.  All of it
    is observe-only: outcomes, cache writes and merge order are
    untouched, which the journal differential suite asserts.
    """
    observer = FabricObserver(progress)
    outcomes: list[BucketOutcome | None] = [None] * len(units)
    pending: list[int] = []
    for idx, unit in enumerate(units):
        cached = cache.load(unit) if cache is not None else None
        if cached is not None:
            outcomes[idx] = cached
        else:
            pending.append(idx)

    if units:
        config = units[0].config
        observer.publish(
            "sweep-start",
            label=config.label,
            m=config.m,
            units=len(units),
            cached=len(units) - len(pending),
            pending=len(pending),
        )

    if pending:
        journal = active_journal()
        flush_every = journal_flush_interval_from_env()
        last_snapshot = clock.monotonic()
        executor = resolve_backend(
            backend, jobs=jobs, pending=len(pending), observer=observer
        )
        executor.submit([units[i] for i in pending])
        try:
            for result in executor.as_completed():
                if result.payload is not None:
                    obs.absorb_payload(result.payload)
                idx = pending[result.pos]
                outcomes[idx] = result.outcome
                if cache is not None:
                    cache.store(units[idx], result.outcome)
                observer.publish("done", units[idx])
                if journal is not None:
                    now = clock.monotonic()
                    if now - last_snapshot >= flush_every:
                        journal.emit("snapshot", registry=obs.snapshot())
                        last_snapshot = now
        finally:
            executor.shutdown()

    if units:
        observer.publish("sweep-done", label=config.label, m=config.m)
    return [outcome for outcome in outcomes if outcome is not None]


def run_sweep(
    config: SweepConfig,
    algorithm_names: Sequence[str],
    *,
    jobs: int = 1,
    cache: "ShardStore | None" = None,
    progress: "ProgressReporter | None" = None,
    backend: "str | ExecutorBackend | None" = None,
    diagnostics: list | None = None,
) -> SweepResult:
    """One full acceptance sweep through the shard runner.

    ``backend`` picks the executor; results and cache identities are the
    same under every backend — see :mod:`repro.runner.executor`.
    When a ``diagnostics`` list is passed, the raw per-bucket outcomes are
    appended to it so callers can render the settled-by report
    (:func:`~repro.experiments.acceptance.settled_summary`); the demand-
    kernel half (:func:`~repro.experiments.acceptance.kernel_summary`)
    reads the obs registry, which the shard runs populate either way.
    """
    names = list(algorithm_names)
    units = decompose_sweep(config, names)
    with obs.span("sweep", label=config.label, m=config.m):
        outcomes = execute_units(
            units, jobs=jobs, cache=cache, progress=progress, backend=backend
        )
    if diagnostics is not None:
        diagnostics.extend(outcomes)
    return merge_outcomes(config, names, outcomes)
