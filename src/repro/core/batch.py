"""Batched partitioning over columnar task-set batches.

:func:`partition_batch` answers the sweep question — does
:func:`repro.core.allocator.partition` succeed? — for every set of a
:class:`~repro.model.batch.TaskSetBatch` under every algorithm of a shard
at once, settling as much as possible from the utilization columns alone:

1. the exact prefilter bank (:mod:`repro.analysis.prefilter`) rejects sets
   whose column sums prove partition failure for *any* allocation order;
2. the **utilization-ledger replay** walks the actual allocation loop —
   same task order, same fit order, same probe arithmetic — for every
   pending set in lockstep, answering the admission probes through the
   test's O(1) :class:`~repro.analysis.prefilter.ProbeScreen`, one replay
   per screen class for all algorithms whose tests share it.  For EDF-VD
   the screen is complete and the whole partition is a pure function of
   the ledger; for EY/ECDF the screen covers the utilization-decided
   region and a set drops out the moment a probe would need dbf work;
3. everything still pending falls through to the incremental per-taskset
   :func:`partition` path on lazily materialized task sets.

Exactness
---------
A replay row is one (algorithm, pending set) pair; step ``k`` places the
``k``-th task of every live row at once over ``(4, rows, cores)`` float64
ledgers of ``(U_LL, U_LH, U_HH, U_res)``.  A verdict equals the scalar
``partition(...).success`` because each row gets exactly its own
algorithm's scalar operations, element by element:

* the candidate sums are ``ledger + increment``, where a term the scalar
  ``+=`` fold of :class:`~repro.core.allocator.ProcessorState` skips adds
  ``0.0`` — exact on the non-negative sums.  A task's increment does not
  depend on when it is placed, so one ``(4, tasks)`` table serves all rows;
* numpy's elementwise ``+ - * /`` are the IEEE double operations of the
  Python expressions, in the same order and without FMA contraction, so
  fit metrics and :meth:`ProbeScreen.decide_many` codes are bit-identical
  to the properties and ``decide`` verdicts they transcribe;
* each row reads its tasks from its own strategy's allocation order (one
  ``np.lexsort`` per order spec) and ranks cores by a ``kind="stable"``
  argsort of its own strategy's fit key (zero for ``first``, whose stable
  argsort is the identity); both carry the callable rules' tie keys.

A set whose first non-reject core is undecided drops to the scalar path;
an invalid probe re-runs the scalar ``decide``, whose error is raised in
algorithm list order, as a loop of single-algorithm calls would.
``tests/core/test_partition_batch.py`` asserts all of this differentially.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.model import TaskSetBatch
from repro import obs as _obs
from repro.analysis.dbf import kernel_counters
from repro.analysis.interface import SchedulabilityTest
from repro.analysis.prefilter import PrefilterBank, ProbeScreen, default_prefilter_bank
from repro.core.allocator import PartitioningStrategy, UnsupportedTasksetError, partition

__all__ = ["BatchPartitionOutcome", "partition_batch"]


@dataclass
class BatchPartitionOutcome:
    """Per-set verdicts of one algorithm in a batched partitioning run.

    ``accepted[i]`` is exactly ``partition(batch.taskset(i), ...).success``;
    ``settled[i]`` records which mechanism produced it — a prefilter name
    (``"sum-lo"``, ``"sum-hi"``, ``"lone-task"``), ``"ledger"`` for the
    columnar replay, or ``"full"`` for the per-taskset fallback.
    ``kernel`` holds the demand-kernel counter deltas of this algorithm's
    own prefilter and fallback work.
    """

    accepted: list[bool] = field(default_factory=list)
    settled: list[str] = field(default_factory=list)
    kernel: dict[str, int] = field(default_factory=dict)

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


def _fit_key(specs: list[tuple], spec_of: np.ndarray, ledger: np.ndarray):
    """Core sort key per row (set), the ``fit_spec`` twin: row ``r`` ranks
    cores by ``specs[spec_of[r]]`` — ``metric`` (``worst``), ``-metric``
    (``best``) or 0.0 (``first``), so a stable argsort gives the callable
    rules' ``(metric, j)`` / ``(-metric, j)`` order.  None: no reordering.
    """
    key = None
    for index, spec in enumerate(specs):
        if spec[0] == "first":
            continue
        if spec[0] not in ("worst", "best") or spec[1] not in _FIT_METRICS:
            raise ValueError(f"unknown fit spec {spec!r}")
        metric = _FIT_METRICS[spec[1]](ledger)
        metric = metric if spec[0] == "worst" else -metric
        key = np.where((spec_of == index)[:, None], metric, 0.0 if key is None else key)
    return key


def _allocation_orders(batch: TaskSetBatch, specs) -> np.ndarray:
    """The ``order_spec`` twins, concatenated: entry ``n * tasks +
    offsets[i] + k`` is the row set ``i`` allocates ``k``-th under
    ``specs[n]``, one ``np.lexsort`` over ``(set, class, -u_own, tie)`` per
    spec.  ``tie`` is the task-id order: real ids for a materialized set;
    the local row index for an unmaterialized one (ids increase with it).
    """
    offsets, high, u_lo = batch.offsets, batch.is_high, batch.u_lo
    set_of = np.repeat(np.arange(len(batch)), np.diff(offsets))
    position = np.arange(batch.n_tasks) - offsets[set_of]
    tie = position.copy()
    for index, ts in batch._sets.items():
        tie[offsets[index] : offsets[index + 1]] = [t.task_id for t in ts]
    minus_own = -np.where(high, batch.u_hi, u_lo)
    orders = []
    for spec in specs:
        kind = spec[0]
        if kind == "ca-nosort":
            keys = (position, ~high, set_of)
        elif kind == "ca":
            keys = (tie, minus_own, ~high, set_of)
        elif kind == "cu":
            keys = (tie, minus_own, set_of)
        elif kind == "heavy-lc-first":
            heavy_high_light = np.where(high, 1, np.where(u_lo >= spec[1], 0, 2))
            keys = (tie, minus_own, heavy_high_light, set_of)
        else:
            raise ValueError(f"unknown order spec {spec!r}")
        orders.append(np.lexsort(keys))
    return np.concatenate(orders)


def _lockstep_replay(batch, m, screen: ProbeScreen, strategies, pending):
    """The walks of ``pending[s]`` under ``strategies[s]``, one task per
    row per step: row ``r`` walks ``sets[r]`` under ``strategies[alg[r]]``
    until it finishes, fails or turns undecided.  Returns per strategy one
    code per pending set — 1 accepted, 0 rejected, -1 undecided (left to
    :func:`partition`) — and ``{s: the error of s's first invalid probe}``.
    """
    specs = list(dict.fromkeys(s.order_spec for s in strategies))
    order = _allocation_orders(batch, specs)
    sizes = [len(sets) for sets in pending]
    alg = np.repeat(np.arange(len(strategies)), sizes)
    sets = np.concatenate(pending)
    offsets, high = batch.offsets, batch.is_high
    first_task = [specs.index(s.order_spec) * batch.n_tasks for s in strategies]
    start = np.array(first_task)[alg] + offsets[sets]
    counts = offsets[sets + 1] - offsets[sets]
    increments = np.zeros((4, batch.n_tasks))  # placing a task adds its column
    np.copyto(increments[0], batch.u_lo, where=~high)
    np.copyto(increments[1], batch.u_lo, where=high)
    np.copyto(increments[2], batch.u_hi, where=high)
    service = batch.service_model
    if service is not None and not service.is_full_drop:
        np.copyto(increments[3], batch.u_res, where=~high)
    task_implicit = batch.deadline == batch.period
    all_implicit = bool(task_implicit.all())
    core_implicit = np.ones((len(sets), m), dtype=bool)
    pairs = [(s.hc_fit_spec, s.lc_fit_spec) for s in strategies]
    fits = list(dict.fromkeys(spec for pair in pairs for spec in pair))
    hc_of = np.array([fits.index(hc) for hc, _ in pairs])
    lc_of = np.array([fits.index(lc) for _, lc in pairs])
    reorder = any(spec[0] != "first" for spec in fits)
    verdict = np.ones(len(sets), dtype=np.int8)
    errors: dict[int, ValueError] = {}
    ends = set(counts.tolist())
    bases = np.arange(0, len(sets) * m, m)
    live = np.arange(len(sets))
    ledger = np.zeros((4, len(sets), m))
    keep = counts > 0
    for k in range(int(counts.max())):
        if not keep.all():
            # compress keeps the ledger C-contiguous for the flat commit
            live, alg, start = live[keep], alg[keep], start[keep]
            ledger, core_implicit = ledger.compress(keep, 1), core_implicit[keep]
            if not len(live):
                break
        base = bases[: len(live)]
        tasks = order[start + k]
        cand = ledger + increments[:, tasks][:, :, None]
        implicit = all_implicit or core_implicit & task_implicit[tasks][:, None]
        codes = screen.decide_many(*cand, implicit)
        fitted, fit = codes, None
        if reorder:
            key = _fit_key(fits, np.where(high[tasks], hc_of[alg], lc_of[alg]), ledger)
            if key is not None:
                fit = key.argsort(axis=1, kind="stable")
                fitted = codes.ravel()[base[:, None] + fit]
        first = (fitted != 0).argmax(axis=1)
        got = fitted.ravel()[base + first]
        core = first if fit is None else fit.ravel()[base + first]
        placed = got == 1
        if not placed.all():
            for r in np.flatnonzero(got == -2).tolist():
                # Invalid input at the first non-reject core: keep the
                # ValueError the scalar probe of a one-set walk raises.
                a, j = int(alg[r]), int(core[r])
                try:
                    if a not in errors:
                        imp = all_implicit or bool(implicit[r, j])
                        screen.decide(*cand[:, r, j].tolist(), imp)
                except ValueError as error:
                    errors[a] = error
            verdict[live[got == 0]] = 0
            verdict[live[got < 0]] = -1
        index = base + core
        ledger.reshape(4, -1)[:, index] = cand.reshape(4, -1)[:, index]
        if not all_implicit:
            core_implicit.reshape(-1)[index] = implicit.reshape(-1)[index]
        keep = placed & (counts[live] > k + 1) if k + 1 in ends else placed
    return np.split(verdict, np.cumsum(sizes)[:-1]), errors


def _add_kernel_delta(into: dict[str, int], before: dict[str, int]) -> None:
    for key, value in kernel_counters().items():
        if value != before[key]:
            into[key] = into.get(key, 0) + value - before[key]


def partition_batch(
    batch: TaskSetBatch,
    m: int,
    algorithms: Sequence[tuple[SchedulabilityTest, PartitioningStrategy]],
    *,
    incremental: bool = True,
    banks: Sequence[PrefilterBank | None] | None = None,
) -> list[BatchPartitionOutcome]:
    """Partition every set of ``batch`` under each ``(test, strategy)``
    pair of ``algorithms``; see module docstring.

    ``outcomes[a].accepted[i]`` equals ``partition(batch.taskset(i), m,
    test, strategy, incremental=incremental).success`` for pair ``a``; the
    verdicts, ``prefilter.<source>`` observations and errors are those of
    one single-pair call per pair in list order.  ``banks[a]`` is pair
    ``a``'s prefilter bank (None: a fresh one).  Raises
    :class:`UnsupportedTasksetError` when the batch violates a test's model
    assumptions and ``ValueError`` when ``m`` is not positive.
    """
    if m <= 0:
        raise ValueError(f"m must be positive, got {m}")
    outcomes = [BatchPartitionOutcome() for _ in algorithms]
    if len(batch) == 0:
        return outcomes
    reports, pending = [], []
    groups: dict[type, tuple[ProbeScreen, list[int]]] = {}
    for a, (test, strategy) in enumerate(algorithms):
        _validate_batch_support(batch, test, strategy)
        bank = (banks[a] if banks else None) or default_prefilter_bank()
        before = kernel_counters()
        reports.append(bank.apply(batch, m, test).settled)
        _add_kernel_delta(outcomes[a].kernel, before)
        pending.append(np.flatnonzero([source is None for source in reports[a]]))
        screen = test.batch_screen()
        if screen is not None and strategy.replayable and len(pending[a]):
            # one replay per screen class
            groups.setdefault(type(screen), (screen, []))[1].append(a)
    codes, errors = {}, {}  # per algorithm: {set: ledger code}, replay error
    for screen, members in groups.values():
        verdicts, group_errors = _lockstep_replay(
            batch, m, screen,
            [algorithms[a][1] for a in members], [pending[a] for a in members],
        )
        for g, a in enumerate(members):
            codes[a] = dict(zip(pending[a].tolist(), verdicts[g].tolist()))
            if g in group_errors:
                errors[a] = group_errors[g]

    for a, (test, strategy) in enumerate(algorithms):
        if a in errors:
            raise errors[a]
        outcome, code = outcomes[a], codes.get(a, {})
        before = kernel_counters()
        for i, source in enumerate(reports[a]):
            accepted = False
            if source is None and code.get(i, -1) >= 0:
                accepted, source = code[i] == 1, "ledger"
            elif source is None:
                accepted, source = partition(
                    batch.taskset(i), m, test, strategy, incremental=incremental
                ).success, "full"
            outcome.accepted.append(accepted)
            outcome.settled.append(source)
        _add_kernel_delta(outcome.kernel, before)
        if _obs.active():
            # Counters total across runs; the histograms keep the per-run
            # settle distribution (one observation per stage per batch).
            for source, count in outcome.settled_counts().items():
                _obs.REGISTRY.add(f"prefilter.{source}", count)
                _obs.REGISTRY.observe(f"prefilter.{source}.settled", float(count))
    return outcomes
