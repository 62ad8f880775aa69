"""Batched partitioning over columnar task-set batches.

:func:`partition_batch` answers the sweep question — does
:func:`repro.core.allocator.partition` succeed? — for every set of a
:class:`~repro.model.batch.TaskSetBatch` at once, settling as much as
possible from the utilization columns alone:

1. the exact prefilter bank (:mod:`repro.analysis.prefilter`) rejects sets
   whose column sums prove partition failure for *any* allocation order;
2. the **utilization-ledger replay** walks the actual allocation loop —
   same task order, same fit order, same probe arithmetic — for every
   pending set in lockstep, answering the admission probes through the
   test's O(1) :class:`~repro.analysis.prefilter.ProbeScreen`.  For EDF-VD
   the screen is complete and the whole partition is a pure function of
   the ledger; for EY/ECDF the screen covers the utilization-decided
   region and a set drops out the moment a probe would need dbf work;
3. everything still pending falls through to the incremental per-taskset
   :func:`partition` path on lazily materialized task sets.

Exactness
---------
Step ``k`` of the replay places the ``k``-th task of every live set at
once over ``(4, sets, cores)`` float64 ledgers of ``(U_LL, U_LH, U_HH,
U_res)``.  A verdict equals the scalar ``partition(...).success`` because
every operation is the scalar walk's, element by element:

* the candidate sums are ``ledger + increment``, where a term the scalar
  ``+=`` fold of :class:`~repro.core.allocator.ProcessorState` skips adds
  ``0.0`` — exact on the non-negative sums;
* numpy's elementwise ``+ - * /`` are the IEEE double operations of the
  Python expressions, in the same order and without FMA contraction, so
  fit metrics and :meth:`ProbeScreen.decide_many` codes are bit-identical
  to the properties and ``decide`` verdicts they transcribe;
* the allocation order is one ``np.lexsort`` and the fit order a
  ``kind="stable"`` argsort, both stable and carrying the callable rules'
  tie keys (task id, core index).

A set whose first non-reject core is undecided drops to the scalar path;
an invalid probe re-runs the scalar ``decide``, which raises the error a
one-set walk raises.  The differential suite in
``tests/core/test_partition_batch.py`` asserts the equality across
strategies, tests, core counts and service models rather than trusting
the argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.model import TaskSetBatch
from repro import obs as _obs
from repro.analysis.interface import SchedulabilityTest
from repro.analysis.prefilter import (
    PrefilterBank,
    ProbeScreen,
    default_prefilter_bank,
)
from repro.core.allocator import (
    PartitioningStrategy,
    UnsupportedTasksetError,
    partition,
)

__all__ = ["BatchPartitionOutcome", "partition_batch"]


@dataclass
class BatchPartitionOutcome:
    """Per-set verdicts of one batched partitioning run.

    ``accepted[i]`` is exactly ``partition(batch.taskset(i), ...).success``;
    ``settled[i]`` records which mechanism produced it — a prefilter name
    (``"sum-lo"``, ``"sum-hi"``, ``"lone-task"``), ``"ledger"`` for the
    columnar replay, or ``"full"`` for the per-taskset fallback.
    """

    accepted: list[bool] = field(default_factory=list)
    settled: list[str] = field(default_factory=list)

    @property
    def accepted_count(self) -> int:
        """Number of sets partitioned successfully."""
        return sum(self.accepted)

    def settled_counts(self) -> dict[str, int]:
        """How many sets each mechanism settled (the per-filter report)."""
        counts: dict[str, int] = {}
        for source in self.settled:
            counts[source] = counts.get(source, 0) + 1
        return counts


def _validate_batch_support(
    batch: TaskSetBatch,
    test: SchedulabilityTest,
    strategy: PartitioningStrategy,
) -> None:
    """The batch-level twin of ``partition``'s up-front support gates.

    Mirrors the per-set checks on the columns: every registered test
    requires constrained deadlines (``D <= T``) and implicit-only tests
    (``supports_deadline_type("constrained")`` is False) require ``D == T``
    — the exact structure :meth:`SchedulabilityTest.supports` inspects.
    Empty sets are exempt, as in the scalar path.
    """
    service = batch.service_model
    if len(batch) and batch.n_tasks and not test.supports_service_model(service):
        raise UnsupportedTasksetError(
            strategy.name,
            test.name,
            f"the test does not analyze LC tasks under the "
            f"{service.spec()!r} service model (see "
            "SchedulabilityTest.supports_service_model)",
        )
    implicit_only = not test.supports_deadline_type("constrained")
    bad = (
        (batch.deadline != batch.period)
        if implicit_only
        else (batch.deadline > batch.period)
    )
    if bad.any():
        raise UnsupportedTasksetError(
            strategy.name,
            test.name,
            "the batch contains task sets that violate the test's model "
            "assumptions (see SchedulabilityTest.supports, e.g. EDF-VD "
            "requires implicit deadlines)",
        )


#: The :class:`ProcessorState` fit metrics, term for term, over a ``(4,
#: ...)`` ledger of ``(U_LL, U_LH, U_HH, U_res)``.
_FIT_METRICS = {
    "difference": lambda led: led[2] - led[1],
    "res-difference": lambda led: (led[2] + led[3]) - led[1],
    "u-hh": lambda led: led[2],
    "u-lo": lambda led: led[0] + led[1],
}


def _fit_key(spec: tuple, ledger: np.ndarray):
    kind = spec[0]
    if kind == "first":
        return np.zeros(ledger.shape[1:])
    if kind not in ("worst", "best") or spec[1] not in _FIT_METRICS:
        raise ValueError(f"unknown fit spec {spec!r}")
    metric = _FIT_METRICS[spec[1]](ledger)
    return metric if kind == "worst" else -metric


def _fit_order(hc_spec, lc_spec, ledger: np.ndarray, high: np.ndarray):
    """Core try order per set (row) — the ``fit_spec`` twin: a stable
    argsort of ``metric`` (``worst``), ``-metric`` (``best``) or 0.0
    (``first``), i.e. the ``(metric, j)`` / ``(-metric, j)`` sort keys."""
    key = _fit_key(hc_spec, ledger)
    if lc_spec != hc_spec:
        key = np.where(high[:, None], key, _fit_key(lc_spec, ledger))
    return key.argsort(axis=1, kind="stable")


def _allocation_order(batch: TaskSetBatch, pending: np.ndarray, spec: tuple):
    """``(set_of, position, ordered)``: ``ordered[p]`` is the row that set
    ``set_of[p]`` allocates ``position[p]``-th — the ``order_spec`` twin as
    one ``np.lexsort`` over ``(set, class, -u_own, tie)``.  ``tie`` is the
    task-id order: real ids for a materialized set; the local row index for
    an unmaterialized one, which materializes with increasing ids.
    """
    starts = batch.offsets[pending]
    counts = batch.offsets[pending + 1] - starts
    seg = np.cumsum(counts) - counts
    set_of = np.repeat(np.arange(len(pending)), counts)
    position = np.arange(len(set_of)) - np.repeat(seg, counts)
    rows = starts[set_of] + position
    high = batch.is_high[rows]
    kind = spec[0]
    if kind == "ca-nosort":
        return set_of, position, rows[np.lexsort((position, ~high, set_of))]
    tie = position.copy()
    slot = dict(zip(pending.tolist(), seg.tolist()))
    for index, ts in batch._sets.items():
        if index in slot:
            tie[slot[index] : slot[index] + len(ts)] = [t.task_id for t in ts]
    u_lo = batch.u_lo[rows]
    minus_own = -np.where(high, batch.u_hi[rows], u_lo)
    if kind == "ca":
        keys = (tie, minus_own, ~high, set_of)
    elif kind == "cu":
        keys = (tie, minus_own, set_of)
    elif kind == "heavy-lc-first":
        heavy_high_light = np.where(high, 1, np.where(u_lo >= spec[1], 0, 2))
        keys = (tie, minus_own, heavy_high_light, set_of)
    else:
        raise ValueError(f"unknown order spec {spec!r}")
    return set_of, position, rows[np.lexsort(keys)]


def _lockstep_replay(
    batch: TaskSetBatch,
    pending: np.ndarray,
    m: int,
    screen: ProbeScreen,
    strategy: PartitioningStrategy,
) -> np.ndarray:
    """Every pending set's allocation walk, one task of each per step.

    Step ``k`` probes the ``k``-th task of every live set on all cores
    at once over ``(4, sets, cores)`` ledgers of ``(U_LL, U_LH, U_HH,
    U_res)``; a set leaves the live arrays when it finishes, fails or
    turns undecided.  Returns one code per pending set: 1 accepted, 0
    rejected, -1 undecided (the set falls through to :func:`partition`).
    """
    n_sets = len(pending)
    counts = batch.offsets[pending + 1] - batch.offsets[pending]
    n_max = int(counts.max())
    set_of, position, ordered = _allocation_order(
        batch, pending, strategy.order_spec
    )
    high_o = batch.is_high[ordered]
    u_lo_o = batch.u_lo[ordered]
    step = np.zeros((n_max, 4, n_sets))  # ledger increment of step k
    step[position, 0, set_of] = np.where(high_o, 0.0, u_lo_o)
    step[position, 1, set_of] = np.where(high_o, u_lo_o, 0.0)
    step[position, 2, set_of] = np.where(high_o, batch.u_hi[ordered], 0.0)
    service = batch.service_model
    if service is not None and not service.is_full_drop:
        step[position, 3, set_of] = np.where(high_o, 0.0, batch.u_res[ordered])
    high = np.zeros((n_max, n_sets), dtype=bool)
    high[position, set_of] = high_o
    implicit_o = batch.deadline[ordered] == batch.period[ordered]
    all_implicit = bool(implicit_o.all())
    if not all_implicit:
        task_implicit = np.zeros((n_max, n_sets), dtype=bool)
        task_implicit[position, set_of] = implicit_o
        core_implicit = np.ones((n_sets, m), dtype=bool)

    hc_spec, lc_spec = strategy.hc_fit_spec, strategy.lc_fit_spec
    reorder = hc_spec[0] != "first" or lc_spec[0] != "first"
    verdict = np.ones(n_sets, dtype=np.int8)
    ends = set(counts.tolist())
    live = np.arange(n_sets)
    ledger = np.zeros((4, n_sets, m))
    keep = counts > 0
    for k in range(n_max):
        if not keep.all():
            # compress keeps the ledger C-contiguous for the flat commit
            live, ledger = live[keep], ledger.compress(keep, 1)
            step, high = step.compress(keep, 2), high.compress(keep, 1)
            if not all_implicit:
                task_implicit = task_implicit.compress(keep, 1)
                core_implicit = core_implicit[keep]
            if not len(live):
                break
        base = np.arange(0, len(live) * m, m)
        cand = ledger + step[k][:, :, None]
        implicit = (
            True if all_implicit else core_implicit & task_implicit[k][:, None]
        )
        codes = screen.decide_many(*cand, implicit)
        fitted, fit = codes, None
        if reorder:
            fit = _fit_order(hc_spec, lc_spec, ledger, high[k])
            fitted = codes.ravel()[base[:, None] + fit]
        first = (fitted != 0).argmax(axis=1)
        got = fitted.ravel()[base + first]
        core = first if fit is None else fit.ravel()[base + first]
        placed = got == 1
        if not placed.all():
            for r in np.flatnonzero(got == -2).tolist():
                # Invalid input at the first non-reject core: the scalar
                # probe raises the ValueError a one-set walk would.
                j = int(core[r])
                imp = True if all_implicit else bool(implicit[r, j])
                screen.decide(*cand[:, r, j].tolist(), imp)
            verdict[live[got == 0]] = 0
            verdict[live[got < 0]] = -1
        index = base + core
        ledger.reshape(4, -1)[:, index] = cand.reshape(4, -1)[:, index]
        if not all_implicit:
            core_implicit.reshape(-1)[index] = implicit.reshape(-1)[index]
        keep = placed & (counts[live] > k + 1) if k + 1 in ends else placed
    return verdict


def partition_batch(
    batch: TaskSetBatch,
    m: int,
    test: SchedulabilityTest,
    strategy: PartitioningStrategy,
    *,
    incremental: bool = True,
    bank: PrefilterBank | None = None,
) -> BatchPartitionOutcome:
    """Partition every set of ``batch``; see module docstring.

    ``accepted[i]`` equals ``partition(batch.taskset(i), m, test, strategy,
    incremental=incremental).success`` for every set — the settling layers
    only change *how cheaply* the boolean is obtained.  Raises
    :class:`UnsupportedTasksetError` up front when the batch violates the
    test's model assumptions (the batch-level twin of the scalar gates) and
    ``ValueError`` when ``m`` is not positive.
    """
    if m <= 0:
        raise ValueError(f"m must be positive, got {m}")
    outcome = BatchPartitionOutcome()
    if len(batch) == 0:
        return outcome
    _validate_batch_support(batch, test, strategy)

    if bank is None:
        bank = default_prefilter_bank()
    report = bank.apply(batch, m, test)

    screen = test.batch_screen()
    pending = [i for i, source in enumerate(report.settled) if source is None]
    ledger: dict[int, int] = {}
    if screen is not None and strategy.replayable and pending:
        codes = _lockstep_replay(batch, np.array(pending), m, screen, strategy)
        ledger = dict(zip(pending, codes.tolist()))

    for i in range(len(batch)):
        source = report.settled[i]
        if source is not None:
            outcome.accepted.append(False)
            outcome.settled.append(source)
            continue
        verdict = ledger.get(i, -1)
        if verdict >= 0:
            outcome.accepted.append(verdict == 1)
            outcome.settled.append("ledger")
            continue
        result = partition(
            batch.taskset(i), m, test, strategy, incremental=incremental
        )
        outcome.accepted.append(result.success)
        outcome.settled.append("full")
    if _obs.active():
        # Counters total across runs; the histograms keep the per-run
        # settle distribution (one observation per stage per batch).
        for source, count in outcome.settled_counts().items():
            _obs.REGISTRY.add(f"prefilter.{source}", count)
            _obs.REGISTRY.observe(f"prefilter.{source}.settled", float(count))
    return outcome
