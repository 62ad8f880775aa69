"""Columnar task-set batches — the struct-of-arrays twin of ``TaskSet``.

The sweep engines process thousands of generated task sets per utilization
bucket.  Holding each as a :class:`~repro.model.taskset.TaskSet` of frozen
:class:`~repro.model.task.MCTask` objects is convenient for the analyses but
wasteful for the cross-taskset axis: most buckets are settled by pure
arithmetic over per-task utilization columns (exact prefilters, the
utilization-ledger replay in :mod:`repro.core.batch`), and object
materialization is only ever needed for the sets that fall through to the
full per-taskset analysis path.

:class:`TaskSetBatch` therefore stores one flat int64/float64 column per
task field across *all* sets of a batch, plus an ``offsets`` index marking
the per-set segments (``offsets[i]:offsets[i+1]`` are set ``i``'s rows —
the CSR layout).  Task sets materialize lazily and individually:
:meth:`TaskSetBatch.taskset` builds (and caches) real ``MCTask`` objects
for one set only when a consumer genuinely needs them.

Numeric equivalence contract
----------------------------
Every derived column equals the corresponding ``MCTask`` property float-for-
float: utilizations are computed with the same ``wcet / period`` division on
the same integers, so a pipeline that sums batch columns in task order
reproduces the object path's arithmetic exactly.  This is what lets the
batched sweep pipeline (:mod:`repro.experiments.acceptance`) stay
bit-identical to the scalar one.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.model.criticality import Criticality
from repro.model.task import MCTask
from repro.model.taskset import TaskSet

__all__ = ["TaskColumns", "TaskSetBatch"]


def _decode_degraded(high: bool, value: int) -> int | None:
    """The one -1-sentinel decode for degraded-service column fields.

    Degraded budgets/periods apply to LC tasks only and -1 encodes "unset"
    — every consumer building tasks or task proxies from columns goes
    through this helper so the convention cannot drift between them.
    """
    return None if (high or value < 0) else value


def _row_task(
    period: int,
    wcet_lo: int,
    wcet_hi: int,
    deadline: int,
    high: bool,
    wcet_degraded: int,
    period_degraded: int,
    task_id: int = -1,
) -> MCTask:
    """One column row as a freshly constructed ``MCTask`` (``task_id`` -1:
    the next process-wide id)."""
    return MCTask(
        period=period,
        criticality=Criticality.HC if high else Criticality.LC,
        wcet_lo=wcet_lo,
        wcet_hi=wcet_hi,
        deadline=deadline,
        wcet_degraded=_decode_degraded(high, wcet_degraded),
        period_degraded=_decode_degraded(high, period_degraded),
        task_id=task_id,
    )


@dataclass(frozen=True)
class TaskColumns:
    """Numeric columns of a single task set (one generator realization).

    The column-level unit the generator produces before any ``MCTask``
    exists; :meth:`materialize` packages it into a ``TaskSet`` with tasks
    constructed in column order (HC rows first by generator convention),
    which assigns task ids and names exactly as the scalar generation loop
    always did.  ``wcet_degraded`` uses -1 for "unset" (``None``).
    """

    period: np.ndarray  #: int64
    wcet_lo: np.ndarray  #: int64
    wcet_hi: np.ndarray  #: int64
    deadline: np.ndarray  #: int64
    is_high: np.ndarray  #: bool
    wcet_degraded: np.ndarray  #: int64, -1 = None
    period_degraded: np.ndarray  #: int64, -1 = None

    def __len__(self) -> int:
        return len(self.period)

    def materialize(
        self, service_model=None, first_id: int | None = None
    ) -> TaskSet:
        """Build the equivalent ``TaskSet`` (fresh task ids, in order).

        ``first_id`` numbers the tasks ``first_id, first_id + 1, ...`` (and
        names them after those ids) instead of drawing process-wide ids.
        """
        tasks = [
            _row_task(
                int(self.period[i]),
                int(self.wcet_lo[i]),
                int(self.wcet_hi[i]),
                int(self.deadline[i]),
                bool(self.is_high[i]),
                int(self.wcet_degraded[i]),
                int(self.period_degraded[i]),
                -1 if first_id is None else first_id + i,
            )
            for i in range(len(self.period))
        ]
        return TaskSet(tasks, service_model=service_model)

    @classmethod
    def from_taskset(cls, taskset: TaskSet) -> "TaskColumns":
        """Columns of an existing task set (row order = task order)."""
        n = len(taskset)
        period = np.empty(n, dtype=np.int64)
        wcet_lo = np.empty(n, dtype=np.int64)
        wcet_hi = np.empty(n, dtype=np.int64)
        deadline = np.empty(n, dtype=np.int64)
        is_high = np.empty(n, dtype=bool)
        wcet_degraded = np.full(n, -1, dtype=np.int64)
        period_degraded = np.full(n, -1, dtype=np.int64)
        for i, task in enumerate(taskset):
            period[i] = task.period
            wcet_lo[i] = task.wcet_lo
            wcet_hi[i] = task.wcet_hi
            deadline[i] = task.deadline
            is_high[i] = task.is_high
            if task.wcet_degraded is not None:
                wcet_degraded[i] = task.wcet_degraded
            if task.period_degraded is not None:
                period_degraded[i] = task.period_degraded
        return cls(
            period, wcet_lo, wcet_hi, deadline, is_high,
            wcet_degraded, period_degraded,
        )


@dataclass(frozen=True)
class _TaskRow:
    """The numeric task surface service models read, without an ``MCTask``.

    Exposes exactly the fields and derived properties the registered
    :class:`~repro.degradation.service.ServiceModel` implementations touch;
    anything beyond it raises ``AttributeError``, which callers treat as
    "materialize the real tasks instead" — never a silently wrong value.
    """

    period: int
    wcet_lo: int
    wcet_hi: int
    deadline: int
    is_high: bool
    wcet_degraded: int | None
    period_degraded: int | None

    @property
    def utilization_lo(self) -> float:
        return self.wcet_lo / self.period

    @property
    def utilization_hi(self) -> float:
        return self.wcet_hi / self.period


def _concat(columns: Sequence[TaskColumns], field: str, dtype) -> np.ndarray:
    if not columns:
        return np.empty(0, dtype=dtype)
    return np.concatenate([getattr(c, field) for c in columns])


class TaskSetBatch:
    """A batch of task sets in struct-of-arrays (CSR) layout.

    ``len(batch)`` is the number of *sets*; ``batch.n_tasks`` the total row
    count.  Carries the same optional LC service model a ``TaskSet`` does
    (string specs parse, ``FullDrop`` normalizes to the drop-at-switch
    default), and propagates it into every materialized set.
    """

    __slots__ = (
        "offsets", "period", "wcet_lo", "wcet_hi", "deadline", "is_high",
        "wcet_degraded", "period_degraded", "_service", "_sets",
        "_u_lo", "_u_hi", "_u_res", "replay_cache",
    )

    #: the stored columns, in :meth:`arrays` / :meth:`from_arrays` order
    ARRAYS = (
        "offsets", "period", "wcet_lo", "wcet_hi", "deadline", "is_high",
        "wcet_degraded", "period_degraded",
    )

    def __init__(self, columns: Sequence[TaskColumns], service_model=None):
        counts = np.fromiter(
            (len(c) for c in columns), dtype=np.int64, count=len(columns)
        )
        self.offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(counts)]
        )
        self.period = _concat(columns, "period", np.int64)
        self.wcet_lo = _concat(columns, "wcet_lo", np.int64)
        self.wcet_hi = _concat(columns, "wcet_hi", np.int64)
        self.deadline = _concat(columns, "deadline", np.int64)
        self.is_high = _concat(columns, "is_high", bool)
        self.wcet_degraded = _concat(columns, "wcet_degraded", np.int64)
        self.period_degraded = _concat(columns, "period_degraded", np.int64)
        self._init_caches(service_model)

    @classmethod
    def from_arrays(
        cls, arrays: Sequence[np.ndarray], service_model=None
    ) -> "TaskSetBatch":
        """A batch over existing columns (:meth:`arrays` order), shared, not
        copied; every cache starts empty, as in a freshly built batch."""
        batch = cls.__new__(cls)
        for name, array in zip(cls.ARRAYS, arrays, strict=True):
            setattr(batch, name, array)
        batch._init_caches(service_model)
        return batch

    def arrays(self) -> tuple[np.ndarray, ...]:
        """``offsets`` then the 7 task columns — what :meth:`from_arrays` takes."""
        return tuple(getattr(self, name) for name in self.ARRAYS)

    def _init_caches(self, service_model) -> None:
        if isinstance(service_model, str):
            from repro.degradation.service import parse_service_model

            service_model = parse_service_model(service_model)
        self._service = service_model
        #: lazily materialized TaskSet per set index
        self._sets: dict[int, TaskSet] = {}
        self._u_lo: np.ndarray | None = None
        self._u_hi: np.ndarray | None = None
        self._u_res: np.ndarray | None = None
        #: memo for derived values consumers recompute across passes
        #: when several algorithms walk the same batch (the prefilter
        #: sums); purely a cost cache
        self.replay_cache: dict = {}

    # -- construction --------------------------------------------------------
    @classmethod
    def from_tasksets(
        cls, tasksets: Iterable[TaskSet], service_model=None
    ) -> "TaskSetBatch":
        """Columnar view of existing task sets.

        The originals are kept and returned by :meth:`taskset`, so a
        round-trip through the batch preserves object identity (task ids,
        names and all).  ``service_model`` defaults to the first set's; a
        mixed-service batch is rejected — one batch, one service contract.
        """
        tasksets = list(tasksets)
        if service_model is None and tasksets:
            service_model = tasksets[0].service_model
        batch = cls(
            [TaskColumns.from_taskset(ts) for ts in tasksets],
            service_model=service_model,
        )
        batch_key = (
            None
            if batch._service is None or batch._service.is_full_drop
            else batch._service.key()
        )
        for i, ts in enumerate(tasksets):
            if ts._service_key() != batch_key:
                raise ValueError(
                    "mixed service models in one batch: set "
                    f"{i} carries {ts.service_model!r}"
                )
            batch._sets[i] = ts
        return batch

    # -- sizing --------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.offsets) - 1

    @property
    def n_tasks(self) -> int:
        """Total task rows across all sets."""
        return int(self.offsets[-1])

    @property
    def service_model(self):
        """The batch-wide LC service model (None = drop-at-switch)."""
        return self._service

    def set_slice(self, index: int) -> slice:
        """Row slice of set ``index`` into the flat columns."""
        return slice(int(self.offsets[index]), int(self.offsets[index + 1]))

    # -- materialization -----------------------------------------------------
    def columns(self, index: int) -> TaskColumns:
        """The :class:`TaskColumns` of one set (views, no copies)."""
        rows = self.set_slice(index)
        return TaskColumns(
            self.period[rows], self.wcet_lo[rows], self.wcet_hi[rows],
            self.deadline[rows], self.is_high[rows],
            self.wcet_degraded[rows], self.period_degraded[rows],
        )

    def row_task(self, row: int) -> MCTask:
        """One flat column row as a fresh ``MCTask`` (no set materialized).

        Shares the sentinel decode and construction of
        :meth:`TaskColumns.materialize`, so a row-built singleton is
        parameterized exactly like the task a full materialization would
        contain (ids/names aside) — the lone-task prefilter relies on this.
        """
        return _row_task(
            int(self.period[row]),
            int(self.wcet_lo[row]),
            int(self.wcet_hi[row]),
            int(self.deadline[row]),
            bool(self.is_high[row]),
            int(self.wcet_degraded[row]),
            int(self.period_degraded[row]),
        )

    def taskset(self, index: int) -> TaskSet:
        """Materialize (and cache) set ``index`` as a real ``TaskSet``."""
        ts = self._sets.get(index)
        if ts is None:
            ts = self.columns(index).materialize(service_model=self._service)
            self._sets[index] = ts
        return ts

    def to_tasksets(self) -> list[TaskSet]:
        """All sets, materialized."""
        return [self.taskset(i) for i in range(len(self))]

    # -- derived columns -----------------------------------------------------
    @property
    def u_lo(self) -> np.ndarray:
        """Per-task LO utilization column (``wcet_lo / period``, float64).

        Elementwise IEEE division on the same integers as
        :attr:`MCTask.utilization_lo` — bit-identical per entry.
        """
        if self._u_lo is None:
            self._u_lo = self.wcet_lo / self.period
        return self._u_lo

    @property
    def u_hi(self) -> np.ndarray:
        """Per-task HI utilization column (``wcet_hi / period``)."""
        if self._u_hi is None:
            self._u_hi = self.wcet_hi / self.period
        return self._u_hi

    @property
    def u_res(self) -> np.ndarray:
        """Per-task residual HI-mode utilization under the service model.

        All zeros under drop-at-switch.  A model whose own class defines
        ``residual_column`` (``ImpreciseBudget``, ``ElasticPeriod``) builds
        the column in one numpy pass.  Every other degraded model — a
        subclass overriding ``degraded_budget`` included — gets each value
        from :meth:`ServiceModel.residual_utilization`, the reference
        implementation, consulted through a lightweight column-row proxy
        so the whole batch need not materialize task objects just for this
        column.  A model reaching beyond the numeric task surface falls
        back to the materialized tasks (exact either way, just slower).
        """
        if self._u_res is None:
            service = self._service
            if service is None or service.is_full_drop:
                self._u_res = np.zeros(self.n_tasks)
            elif "residual_column" in type(service).__dict__:
                self._u_res = service.residual_column(self)
            else:
                column = np.zeros(self.n_tasks)
                for row in range(self.n_tasks):
                    high = bool(self.is_high[row])
                    proxy = _TaskRow(
                        int(self.period[row]),
                        int(self.wcet_lo[row]),
                        int(self.wcet_hi[row]),
                        int(self.deadline[row]),
                        high,
                        _decode_degraded(high, int(self.wcet_degraded[row])),
                        _decode_degraded(high, int(self.period_degraded[row])),
                    )
                    try:
                        column[row] = service.residual_utilization(proxy)
                    except AttributeError:
                        return self._u_res_materialized()
                self._u_res = column
        return self._u_res

    def _u_res_materialized(self) -> np.ndarray:
        """Residual column via real task objects (exotic-model fallback)."""
        column = np.zeros(self.n_tasks)
        for i in range(len(self)):
            rows = self.set_slice(i)
            column[rows] = [
                self._service.residual_utilization(t) for t in self.taskset(i)
            ]
        self._u_res = column
        return column

    def sum_per_set(self, column: np.ndarray) -> np.ndarray:
        """Per-set sums of a task column (float64, one entry per set).

        Summation order within a segment is numpy's (pairwise), which may
        differ from the object path's left fold in the last few ulps —
        consumers comparing against per-core thresholds must use a margin
        (see :mod:`repro.analysis.prefilter` for the soundness argument).
        """
        if len(self) == 0:
            return np.empty(0)
        sums = np.add.reduceat(
            np.concatenate([column, np.zeros(1)]), self.offsets[:-1]
        )
        # reduceat on an empty segment returns the element at the offset
        # (the first element of the *next* segment); force empty sets to 0.
        empty = self.offsets[:-1] == self.offsets[1:]
        if empty.any():
            sums = np.where(empty, 0.0, sums)
        return sums

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TaskSetBatch({len(self)} sets, {self.n_tasks} tasks)"
