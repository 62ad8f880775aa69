"""LO-criticality service models — what happens to LC tasks in HI mode.

The classical Vestal interpretation (and the DATE 2017 paper) *drops* every
LC task at the mode switch.  Two well-studied relaxations keep LC tasks
alive at a reduced service level instead:

* **Imprecise / degraded budgets** (Burns & Baruah; Liu et al., "EDF-VD
  scheduling of mixed-criticality systems with degraded quality
  guarantees"; Gu & Easwaran, arXiv:2004.02400): an LC task keeps a reduced
  HI-mode budget ``C^HI = floor(rho * C^LO)`` per job.
* **Elastic periods** (Su & Zhu, DATE 2013; Chen et al., arXiv:1711.00100):
  an LC task keeps its full budget but its period (and deadline) is
  stretched by a factor ``lambda`` in HI mode, shrinking its HI-mode rate
  to ``u / lambda``.

A :class:`ServiceModel` captures one such policy as three per-task
quantities — the HI-mode budget, period and deadline of an LC task — from
which every layer derives what it needs:

* the *residual utilization* ``u^res = C^HI / T^HI`` feeds the extended
  EDF-VD utilization test and the residual-aware UDP difference metric;
* the HI-mode sporadic abstraction ``(C^HI, T^HI)`` (with carry-over
  reduction budget ``C^LO``) feeds the dbf-based EY/ECDF analyses;
* the simulator policies truncate budgets / stretch releases accordingly.

``FullDrop`` is the neutral element: residual utilization 0, no HI-mode
demand, drop-at-switch runtime semantics — every consumer treats it (and a
missing service model) exactly as the historical behavior, bit-identically.

Per-task overrides: an :class:`~repro.model.task.MCTask` may carry explicit
``wcet_degraded`` / ``period_degraded`` fields (e.g. filled in by the
generator's ``degradation_factor`` knob); models consult those before their
own formula, so heterogeneous degradation coexists with the uniform knobs.
"""

from __future__ import annotations

import abc
import math
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.task import MCTask
    from repro.model.taskset import TaskSet

__all__ = [
    "ServiceModel",
    "FullDrop",
    "ImpreciseBudget",
    "ElasticPeriod",
    "FULL_DROP",
    "parse_service_model",
    "register_service_model",
    "registered_service_models",
]


class ServiceModel(abc.ABC):
    """HI-mode service contract for LC tasks; see module docstring.

    Instances are immutable value objects: equality and hashing go through
    :meth:`key`, and :meth:`spec` round-trips through
    :func:`parse_service_model` (the form carried by sweep configs, cache
    keys and the CLI).
    """

    #: short stable identifier (the spec prefix)
    name: str = "abstract"

    # -- the contract -------------------------------------------------------
    @abc.abstractmethod
    def degraded_budget(self, task: "MCTask") -> int:
        """HI-mode per-job budget of LC ``task`` (0 = dropped)."""

    def degraded_period(self, task: "MCTask") -> int:
        """HI-mode minimum release separation of LC ``task``."""
        return task.period

    def degraded_deadline(self, task: "MCTask") -> int:
        """HI-mode relative deadline of LC ``task``.

        Stretched by the same absolute amount as the period, which keeps
        implicit deadlines implicit and constrained deadlines constrained.
        """
        return task.deadline + (self.degraded_period(task) - task.period)

    # -- derived quantities -------------------------------------------------
    @property
    def is_full_drop(self) -> bool:
        """True when this model reproduces drop-at-switch semantics."""
        return False

    def residual_utilization(self, task: "MCTask") -> float:
        """HI-mode utilization an LC ``task`` retains (0.0 for HC tasks)."""
        if task.is_high:
            return 0.0
        budget = self.degraded_budget(task)
        if budget <= 0:
            return 0.0
        return budget / self.degraded_period(task)

    def lc_hi_parameters(self, task: "MCTask") -> tuple[int, int] | None:
        """``(budget, period)`` of ``task``'s HI-mode sporadic abstraction.

        None when the task contributes no HI-mode demand (HC tasks are the
        analyses' business; LC tasks with a zero budget are dropped).  The
        budget is clamped to ``C^LO`` — no service model may *increase* an
        LC task's per-job demand.
        """
        if task.is_high:
            return None
        budget = min(self.degraded_budget(task), task.wcet_lo)
        if budget <= 0:
            return None
        return budget, self.degraded_period(task)

    # -- identity -----------------------------------------------------------
    @abc.abstractmethod
    def key(self) -> tuple:
        """Hashable identity; equal keys mean interchangeable models."""

    def spec(self) -> str:
        """Parseable string form (inverse of :func:`parse_service_model`)."""
        parts = self.key()
        if len(parts) == 1:
            return parts[0]
        return f"{parts[0]}:{parts[1]}"

    def describe(self) -> str:
        """Short human-readable label for reports."""
        return self.spec()

    def apply(self, taskset: "TaskSet") -> "TaskSet":
        """``taskset`` with this service model attached (tasks untouched)."""
        return taskset.with_service_model(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ServiceModel):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.spec()!r}>"


class FullDrop(ServiceModel):
    """The classical model: LC tasks are abandoned at the mode switch."""

    name = "full-drop"

    def degraded_budget(self, task: "MCTask") -> int:
        return 0

    @property
    def is_full_drop(self) -> bool:
        return True

    def key(self) -> tuple:
        return ("full-drop",)


class ImpreciseBudget(ServiceModel):
    """Imprecise-MC model: LC tasks keep ``floor(rho * C^LO)`` in HI mode.

    ``rho = 0`` degenerates to dropping every LC job (but is *not*
    ``is_full_drop`` — it still exercises the degradation machinery, which
    the consistency tests rely on); ``rho = 1`` keeps full LC service.
    A task's explicit ``wcet_degraded`` field overrides the formula.
    """

    name = "imprecise"

    def __init__(self, rho: float):
        if not 0.0 <= rho <= 1.0:
            raise ValueError(f"rho must be in [0, 1], got {rho}")
        self.rho = float(rho)

    def degraded_budget(self, task: "MCTask") -> int:
        if task.is_high:
            return task.wcet_hi
        if task.wcet_degraded is not None:
            return task.wcet_degraded
        return int(math.floor(self.rho * task.wcet_lo))

    def residual_column(self, columns) -> np.ndarray:
        """:meth:`residual_utilization` of every row of ``columns`` at once.

        ``columns`` has the int64 columns ``period``, ``wcet_lo``,
        ``wcet_degraded`` (-1 = unset) and the bool ``is_high`` (a
        :class:`~repro.model.batch.TaskSetBatch` or ``TaskColumns``).  The
        same IEEE multiply, ``floor`` and divide on the same integers, so
        each entry equals the per-task value bit for bit.
        """
        budget = np.where(
            columns.wcet_degraded >= 0,
            columns.wcet_degraded,
            np.floor(self.rho * columns.wcet_lo),
        )
        return _residual(budget, columns.period, columns.is_high)

    def key(self) -> tuple:
        return ("imprecise", self.rho)


class ElasticPeriod(ServiceModel):
    """Elastic model: LC periods stretch by ``lambda`` in HI mode.

    Budgets stay at ``C^LO``; the HI-mode rate shrinks to ``u / lambda``.
    A task's explicit ``period_degraded`` field overrides the formula.
    """

    name = "elastic"

    def __init__(self, stretch: float):
        if stretch < 1.0:
            raise ValueError(f"stretch factor must be >= 1, got {stretch}")
        self.stretch = float(stretch)

    def degraded_budget(self, task: "MCTask") -> int:
        return task.wcet_hi if task.is_high else task.wcet_lo

    def degraded_period(self, task: "MCTask") -> int:
        if task.is_high:
            return task.period
        if task.period_degraded is not None:
            return task.period_degraded
        return int(math.ceil(self.stretch * task.period))

    def residual_column(self, columns) -> np.ndarray:
        """:meth:`residual_utilization` of every row of ``columns`` at once
        (``period_degraded`` in place of ``wcet_degraded``; see
        :meth:`ImpreciseBudget.residual_column`): the same multiply,
        ``ceil`` and divide as :meth:`degraded_period`."""
        period = np.where(
            columns.period_degraded >= 0,
            columns.period_degraded,
            np.ceil(self.stretch * columns.period),
        )
        return _residual(columns.wcet_lo, period, columns.is_high)

    def key(self) -> tuple:
        return ("elastic", self.stretch)


def _residual(
    budget: np.ndarray, period: np.ndarray, is_high: np.ndarray
) -> np.ndarray:
    """``budget / period`` on LC rows with a positive budget, 0.0 elsewhere
    (float64) — :meth:`ServiceModel.residual_utilization` per row."""
    column = np.zeros(len(period))
    np.divide(budget, period, out=column, where=~is_high & (budget > 0))
    return column


#: Shared default instance (stateless, safe to share).
FULL_DROP = FullDrop()


_MODELS: dict[str, Callable[[str | None], ServiceModel]] = {}


def register_service_model(
    name: str, factory: Callable[[str | None], ServiceModel]
) -> None:
    """Register a service-model factory under its spec prefix.

    ``factory`` receives the text after the ``:`` in a spec (None when the
    spec is the bare name) and returns a model instance.
    """
    _MODELS[name] = factory


def registered_service_models() -> tuple[str, ...]:
    """Names of all registered service models, sorted."""
    return tuple(sorted(_MODELS))


def _require_param(name: str, param: str | None) -> float:
    if param is None:
        raise ValueError(
            f"service model {name!r} needs a parameter, e.g. {name}:0.5"
        )
    try:
        return float(param)
    except ValueError:
        raise ValueError(
            f"invalid parameter {param!r} for service model {name!r}"
        ) from None


register_service_model(
    "full-drop",
    lambda param: FULL_DROP
    if param is None
    else (_ for _ in ()).throw(ValueError("full-drop takes no parameter")),
)
register_service_model(
    "imprecise", lambda param: ImpreciseBudget(_require_param("imprecise", param))
)
register_service_model(
    "elastic", lambda param: ElasticPeriod(_require_param("elastic", param))
)


def parse_service_model(
    spec: "str | ServiceModel | None",
) -> ServiceModel:
    """Coerce ``spec`` to a :class:`ServiceModel`.

    Accepts an existing model, None/'' (→ :data:`FULL_DROP`) or a spec
    string ``name`` / ``name:param`` (e.g. ``imprecise:0.5``,
    ``elastic:2.0``).
    """
    if spec is None or spec == "":
        return FULL_DROP
    if isinstance(spec, ServiceModel):
        return spec
    if not isinstance(spec, str):
        raise TypeError(
            f"service model spec must be a string or ServiceModel, "
            f"got {type(spec).__name__}"
        )
    name, _, param = spec.partition(":")
    try:
        factory = _MODELS[name]
    except KeyError:
        known = ", ".join(registered_service_models())
        raise ValueError(
            f"unknown service model {name!r}; known models: {known}"
        ) from None
    return factory(param if param != "" else None)
