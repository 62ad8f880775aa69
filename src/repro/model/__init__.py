"""Dual-criticality sporadic task model.

The model follows Section II of the paper: each task is a tuple
``(T, chi, C_L, C_H, D)`` with criticality ``chi`` in ``{LC, HC}``, LO/HI-mode
execution requirements ``C_L <= C_H`` (``C_L == C_H`` for LC tasks by
convention), minimum release separation ``T`` and relative deadline ``D``
(``D == T`` implicit-deadline, ``D <= T`` constrained-deadline).  Task sets
exist as objects (:class:`TaskSet` of :class:`MCTask`) and as columns
(:class:`TaskSetBatch`, the CSR layout the sweeps run on); the README's
"Architecture: the columnar batch pipeline" shows where each is used.
"""

from repro.model.batch import TaskColumns, TaskSetBatch
from repro.model.criticality import Criticality
from repro.model.task import MCTask
from repro.model.taskset import TaskSet, UtilizationSummary
from repro.model.validation import (
    TaskModelError,
    validate_task,
    validate_taskset,
)

__all__ = [
    "Criticality",
    "MCTask",
    "TaskColumns",
    "TaskSet",
    "TaskSetBatch",
    "UtilizationSummary",
    "TaskModelError",
    "validate_task",
    "validate_taskset",
]

# repro.model.transforms is import-cycle-free but pulls in numpy; import it
# lazily through its own module path (documented in the package docstring).
