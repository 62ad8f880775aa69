"""Demand-bound-function machinery for dual-criticality systems (S2).

This module implements the two-mode demand abstraction used by the
Ekberg-Yi (EY, ECRTS 2012) and ECDF (Easwaran, RTSS 2013) tests:

LO mode
    Every task contributes the standard sporadic dbf with its LO-mode WCET
    and its *LO-mode deadline* (the virtual deadline ``Dv_i <= D_i`` for HC
    tasks, the real deadline for LC tasks)::

        dbf_LO(i, l) = max(0, floor((l - d_i) / T_i) + 1) * C_i^L

HI mode
    Under the classical drop-at-switch semantics LC tasks contribute
    nothing.  An HC task behaves like a sporadic task whose deadline is the
    *residual* ``D_i - Dv_i``, with a correction for the carry-over job (the
    job active at the mode-switch instant): if the switch occurs ``d`` time
    units before the job's virtual deadline, LO-mode schedulability
    guarantees the job already executed at least ``C_i^L - d``, so::

        dbf_HI(i, l) = (floor(x / T_i) + 1) * C_i^H - max(0, C_i^L - x mod T_i)

    for ``x = l - (D_i - Dv_i) >= 0`` (0 otherwise).  This is the EY bound;
    it is tight for the single-task abstraction (the carry-over position that
    maximizes demand is exactly ``d = x mod T_i``).

Residual LC service (degradation models, :mod:`repro.degradation`)
    When the task set carries a service model that keeps LC tasks alive in
    HI mode (imprecise budgets ``C^HI = floor(rho C^L)`` or elastic periods
    ``T^HI = ceil(lambda T)``), each such LC task contributes the same
    EY-shaped bound with residual deadline 0 (its LO deadline *is* its real
    deadline), HI budget ``C^HI`` and HI period ``T^HI``::

        dbf_HI^LC(i, l) = (floor(l / T_i^HI) + 1) * C_i^HI
                          - min(C_i^HI, max(0, C_i^L - l mod T_i^HI))

    The extra inner ``min`` clamps the carry-over reduction at the degraded
    budget: LO-mode progress (``>= C^L - d`` by deadline distance ``d``)
    can discharge at most the whole degraded allowance.  For HC tasks the
    clamp is inert (``C^H >= C^L``), which is why one generalized formula
    serves both and the drop-at-switch results stay bit-identical.

Trigger refinement (used by ECDF)
    In a partitioned system a core enters HI mode only when one of *its own*
    HC tasks exhausts its LO budget.  The triggering job has executed exactly
    ``C_j^L``, so its carry-over demand is at most ``C_j^H - C_j^L`` — which
    is ``min(C_j^L, x_j mod T_j)`` less than the EY bound assumes.  Since
    *some* local HC task must be the trigger, the total HI demand can be
    soundly reduced by ``min_j`` of that quantity (0 for tasks whose
    carry-over deadline falls outside the window).

Check points
    Total demand minus ``l`` is piecewise linear and convex between
    *breakpoints* (dbf jumps at ``d_i + k T_i`` and carry-over ramp ends at
    ``d_i + k T_i + C_i^L``), so evaluating at every breakpoint plus the
    horizon is exact.  The horizon is the classical bound: any violation
    satisfies ``l < sum(u_i * max(0, T_i - d_i)) / (1 - U)``.

Violation search
    The predicate both checks decide — ``exists l: dbf(l) > l`` — has two
    exact deciders here.  The **forward walk** visits the check points
    up to the horizon in order, one scalar evaluation each, and stops at
    the first violation (:func:`first_violation`, the differential
    oracle).  The **QPA search** (after Zhang & Burns'
    Quick Processor-demand Analysis) runs the backward fixed-point
    iteration ``l <- dbf(l)`` / ``l <- max breakpoint < l`` from the
    horizon down; because every demand function here is a monotone
    non-decreasing step/ramp function whose violations occur at
    breakpoints, the iteration decides the predicate exactly and — when it
    stops on a violation — stops on the **largest** violating length
    (every iterate bounds all violations from above).  The earliest
    violation, which the tuning descent consumes, is then recovered by the
    forward walk up to the witness; boolean consumers stop at the witness.
    Monotonicity holds for the *refined* HI demand too: the trigger cut of
    task ``j`` grows only inside task ``j``'s own carry-over ramp, where
    its dbf term grows at the same unit rate, so ``dbf - cut_j`` is
    non-decreasing for every ``j`` and the refined demand is their max.
    An O(n·k) Fisher–Baruah-style upper-bound screen
    (:func:`approx_accepts`) settles clear passes of the shrink descent's
    LO probes before their exact search runs.
    :func:`set_demand_kernel` picks the shrink descent's kernel: ``qpa``
    or ``block``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.model import MCTask, TaskSet
from repro.obs import REGISTRY as _OBS_REGISTRY
from repro.util.env import DBF_KERNELS, demand_kernel_from_env

__all__ = [
    "DEFAULT_HORIZON_CAP",
    "DemandScenario",
    "HorizonExceeded",
    "LoShrinkProbe",
    "approx_accepts",
    "demand_kernel",
    "first_violation",
    "kernel_counters",
    "lo_feasible_exact",
    "lo_mode_tasks",
    "overload_marker",
    "qpa_violation_search",
    "reset_kernel_counters",
    "set_demand_kernel",
    "sporadic_dbf",
    "hi_mode_dbf",
    "lc_hi_mode_dbf",
    "lc_hi_mode_entries",
    "lc_hi_mode_tasks",
]

#: Above this horizon the dbf tests conservatively reject (sound: they never
#: unsafely accept).  Only near-saturated cores hit the cap.
DEFAULT_HORIZON_CAP = 100_000


class HorizonExceeded(Exception):
    """The dbf check horizon exceeds the configured cap.

    Callers treat this as "not schedulable" (conservative rejection).
    """


def sporadic_dbf(wcet: int, deadline: int, period: int, length: int) -> int:
    """Standard sporadic demand bound ``max(0, floor((l-D)/T)+1) * C``."""
    if length < deadline:
        return 0
    return ((length - deadline) // period + 1) * wcet


def hi_mode_dbf(task: MCTask, virtual_deadline: int, length: int) -> int:
    """EY HI-mode demand bound of one HC task (scalar reference version).

    ``virtual_deadline`` is the LO-mode deadline ``Dv_i``; see module
    docstring.  Used by tests and as a readable specification of the
    per-point sum :func:`_hi_point_demand` evaluates.
    """
    if not task.is_high:
        return 0
    residual = task.deadline - virtual_deadline
    x = length - residual
    if x < 0:
        return 0
    jobs = x // task.period + 1
    reduction = max(0, task.wcet_lo - (x % task.period))
    return jobs * task.wcet_hi - reduction


def lc_hi_mode_dbf(
    budget: int, period: int, wcet_lo: int, length: int
) -> int:
    """HI-mode demand bound of one degraded LC task (scalar reference).

    ``budget``/``period`` are the HI-mode sporadic parameters the service
    model assigns (see module docstring); ``wcet_lo`` is the LO-mode budget
    whose guaranteed progress discharges the carry-over job.  Used by tests
    as the readable specification of :func:`_hi_point_demand`'s LC terms.
    """
    if budget <= 0 or length < 0:
        return 0
    jobs = length // period + 1
    reduction = min(budget, max(0, wcet_lo - (length % period)))
    return jobs * budget - reduction


def lc_hi_mode_entries(taskset: TaskSet) -> list[tuple[int, "_ModeTask"]]:
    """``(task_id, HI-mode _ModeTask)`` for each contributing LC task of
    ``taskset`` under its attached service model (empty under
    drop-at-switch).

    The single definition of the degraded-LC abstraction — residual
    deadline 0, degraded budget/period, the LO budget as the carry-over
    reduction allowance — shared by :class:`DemandScenario` and the
    memo-backed :class:`~repro.analysis.vdtuning.DemandEngine` (which also
    needs the ids for its HI-mode memo keys), so the two can never drift
    apart and break their bit-identical parity.
    """
    service = taskset.service_model
    if service is None or service.is_full_drop:
        return []
    out = []
    for task in taskset:
        params = service.lc_hi_parameters(task)
        if params is None:
            continue
        budget, period = params
        out.append((task.task_id, _ModeTask(budget, 0, period, task.wcet_lo)))
    return out


def lc_hi_mode_tasks(taskset: TaskSet) -> list["_ModeTask"]:
    """The :class:`_ModeTask` half of :func:`lc_hi_mode_entries`."""
    return [mode_task for _, mode_task in lc_hi_mode_entries(taskset)]


def overload_marker(tasks) -> int:
    """The violation *marker* reported when a mode's utilization exceeds 1.

    With total utilization above 1 a demand violation is guaranteed at
    *some* interval length, so the checks short-circuit instead of scanning
    for the exact point.  The value they report — the smallest deadline of
    the mode's tasks (0 for an empty list) — is a **marker, not the
    earliest violating length**: a smaller breakpoint may well violate too.
    Callers must treat any non-None violation as "infeasible here" and may
    only use the returned length as a monotone scan hint, never as the
    exact violation front.  Both :meth:`DemandScenario.lo_violation` and
    :meth:`DemandScenario.hi_violation` (and the engine's HI checks in
    :mod:`repro.analysis.vdtuning`) share this one definition so the
    convention cannot drift between the modes.
    """
    return min((t.deadline for t in tasks), default=0)


#: Exact-step depth of the dbf upper-bound accept screen.  Sound for
#: every positive value; larger values trade screen cost for coverage.
_APPROX_K = 3

#: QPA iteration budget per search before falling back to the forward walk
#: (a cost valve, not a correctness bound: an aborted search simply hands
#: the rest of the decision to the oracle walk).
_QPA_ITER_CAP = 256


# -- kernel selection and diagnostics ---------------------------------------

# Consumed once at import (the kernel's inner loops must not re-read the
# environment); the CLI's
# ``--demand-kernel`` both exports the env var (for spawned workers) and
# calls :func:`set_demand_kernel` (for this process), so the effective
# resolution order is instance > CLI > env > default.
_KERNEL = demand_kernel_from_env()

# The kernel diagnostics live on the obs registry as the "dbf" counter
# scope: the registry hands back a plain mutable dict, so the hot loops
# below keep their historical ``_COUNTERS[key] += 1`` cost while snapshots,
# worker->parent merging and the exporters see the values as ``dbf.<key>``.
# They are always on (no REPRO_OBS gate) — the pipeline diagnostics the
# CLI prints must work out of the box.
_COUNTERS = _OBS_REGISTRY.counter_scope(
    "dbf",
    (
        "qpa-accept",  # checks settled by a QPA pass
        "approx-accept",  # LO shrink probes settled by the upper-bound screen
        "qpa-iterations",  # total backward fixed-point iterations
        "qpa-runs",  # number of QPA searches started
        "floor-reject",  # unrefined tuning stages rejected at the V* floor
        "floor-reject-refined",  # refined (ECDF) stages rejected there
    ),
)


def demand_kernel() -> str:
    """The active demand kernel (one of :data:`DBF_KERNELS`)."""
    return _KERNEL


def set_demand_kernel(name: str) -> str:
    """Select the demand kernel; returns the previous one.

    ``"qpa"`` (the default) runs the backward fixed-point search and the
    scalar shrink descent; ``"block"`` keeps the QPA decision
    procedure and additionally lets the shrink descent commit *blocks* of
    V* jumps across several tasks per exact probe
    (:mod:`repro.analysis.dbf_block`) — it relaxes the bit-identical
    *trajectory* contract to soundness only (every accept is schedulable
    at its committed virtual deadlines, but it can accept a set the scalar
    descent rejects, and iteration counts and committed virtual deadlines
    may differ).  Both decide the violation predicate exactly, so every
    violation point is the forward walk's (:func:`first_violation`, kept
    as the tests' oracle).  The startup default comes from
    ``REPRO_DBF_KERNEL`` (:func:`repro.util.env.demand_kernel_from_env`);
    this call overrides it for the current process.
    """
    global _KERNEL
    if name not in DBF_KERNELS:
        raise ValueError(
            f"unknown demand kernel {name!r}; choose from {'|'.join(DBF_KERNELS)}"
        )
    previous = _KERNEL
    _KERNEL = name
    return previous


def kernel_counters() -> dict[str, int]:
    """Snapshot of the process-local kernel diagnostics counters."""
    return dict(_COUNTERS)


def reset_kernel_counters() -> None:
    """Zero the kernel diagnostics counters (process-local)."""
    for key in _COUNTERS:
        _COUNTERS[key] = 0


def _lo_point_demand(tasks, length: int) -> int:
    """Scalar LO-mode demand at one length (the QPA evaluation function)."""
    total = 0
    for t in tasks:
        x = length - t.deadline
        if x >= 0:
            total += (x // t.period + 1) * t.wcet
    return total


def _hi_point_demand(
    tasks,
    length: int,
    refine: bool,
    n_trigger: int | None = None,
) -> int:
    """Total HI-mode demand of ``tasks`` at one length.

    Per task the EY term of :func:`hi_mode_dbf`, with the carry-over
    reduction clamped at the task's HI budget (inert for HC tasks, where
    ``wcet >= wcet_lo``; load-bearing for degraded LC entries, whose
    budget may undercut ``C^L``).  With ``refine`` the smallest trigger
    cut is subtracted; a task whose window has not opened cuts 0.  Only
    the first ``n_trigger`` tasks (default: all — correct whenever the
    list is HC-only) can be the mode-switch trigger; degraded LC entries
    never trigger, so callers mixing them in pass the HC count.
    """
    if n_trigger is None:
        n_trigger = len(tasks)
    total = 0
    min_cut = None
    # The clamps are written as compares: this is the kernel's hottest
    # loop, and builtin min/max calls cost more than the arithmetic.
    for index, mode_task in enumerate(tasks):
        x = length - mode_task.deadline
        if x >= 0:
            period = mode_task.period
            wcet = mode_task.wcet
            residue = x % period
            cut = mode_task.wcet_lo
            if residue < cut:
                # inside the carry-over ramp: reduction C_L - residue,
                # at most the HI budget
                reduction = cut - residue
                cut = residue
                total += (x // period + 1) * wcet - (
                    wcet if reduction > wcet else reduction
                )
            else:
                total += (x // period + 1) * wcet
        else:
            cut = 0
        if index < n_trigger and (min_cut is None or cut < min_cut):
            min_cut = cut
    if refine and min_cut is not None:
        total -= min_cut
    return total


def _prev_breakpoint(tasks, length: int, ramps: bool) -> int | None:
    """Largest demand breakpoint strictly below ``length``, or None.

    Breakpoints are the dbf jump points ``d_i + k T_i`` and — with
    ``ramps`` — the carry-over ramp ends ``d_i + k T_i + min(C_i^L, T_i)``,
    exactly the families :meth:`DemandScenario._breakpoints` enumerates.
    """
    best = -1
    for t in tasks:
        d = t.deadline
        if d < length:
            candidate = d + ((length - 1 - d) // t.period) * t.period
            if candidate > best:
                best = candidate
        if ramps and t.wcet_lo > 0:
            end = d + (t.wcet_lo if t.wcet_lo < t.period else t.period)
            if end < length:
                candidate = end + ((length - 1 - end) // t.period) * t.period
                if candidate > best:
                    best = candidate
    return best if best >= 0 else None


def _next_breakpoint(tasks, length: int, ramps: bool) -> int | None:
    """Smallest demand breakpoint at or above ``length``, or None.

    The forward twin of :func:`_prev_breakpoint`, enumerating the same
    jump/ramp-end families — the step of :func:`first_violation`.
    """
    best = None
    for t in tasks:
        d = t.deadline
        if d >= length:
            candidate = d
        else:
            candidate = d - ((d - length) // t.period) * t.period
        if best is None or candidate < best:
            best = candidate
        if ramps and t.wcet_lo > 0:
            end = d + (t.wcet_lo if t.wcet_lo < t.period else t.period)
            if end < length:
                end = end - ((end - length) // t.period) * t.period
            if end < best:
                best = end
    return best


def _adjacent_breakpoints(tasks, length: int) -> tuple[int | None, int | None]:
    """``(_prev_breakpoint(tasks, length, True), _next_breakpoint(tasks,
    length, True))`` in one pass over ``tasks``: each family's largest
    point below ``length`` is one period under its smallest point at or
    above it, when that is not the family's first point."""
    below, above = -1, None
    for t in tasks:
        d, period = t.deadline, t.period
        if d >= length:
            candidate = d
        else:
            candidate = d - ((d - length) // period) * period
            if candidate - period > below:
                below = candidate - period
        if above is None or candidate < above:
            above = candidate
        if t.wcet_lo > 0:
            end = d + (t.wcet_lo if t.wcet_lo < period else period)
            if end < length:
                end = end - ((end - length) // period) * period
                if end - period > below:
                    below = end - period
            if end < above:
                above = end
    return (below if below >= 0 else None), above


def first_violation(
    tasks,
    start: int,
    horizon: int,
    demand_at,
    ramps: bool,
    stop: int | None = None,
) -> tuple[int, int] | None:
    """Earliest check point ``l >= start`` with ``demand_at(l) > l``.

    Returns ``(l, demand_at(l))`` or None.  The check points are the
    breakpoints in ``[start, horizon]`` plus the horizon itself — the
    multiset :meth:`DemandScenario._breakpoints` enumerates, restricted to
    ``l >= start`` — and, with ``stop``, only those below ``stop``.  They
    are visited in order with :func:`_next_breakpoint`, one scalar demand
    evaluation each, so an early violation costs a few points however far
    the horizon lies.
    """
    end = horizon if stop is None else min(horizon, stop - 1)
    point = start
    while point <= end:
        point = _next_breakpoint(tasks, point, ramps)
        if point is None or point > horizon:
            point = horizon
        if point > end:
            return None
        demand = demand_at(point)
        if demand > point:
            return (point, demand)
        point += 1
    return None


def qpa_violation_search(
    tasks,
    horizon: int,
    demand_at,
    ramps: bool,
    max_iters: int | None = None,
) -> tuple[str, int | None, int]:
    """Backward fixed-point search for ``exists l <= horizon: demand(l) > l``.

    Returns ``(status, witness, iterations)`` with status ``"pass"`` (no
    violation in ``[0, horizon]``), ``"violation"`` (``witness`` is the
    **largest** violating length — every iterate bounds all violations
    from above, so stopping on one proves the region above it clean), or
    ``"abort"`` (iteration budget exhausted; ``witness`` is the current
    iterate, which bounds every violating check point from above, so the
    caller's forward fallback only needs to walk up to it).

    Exactness requires ``demand_at`` to be monotone non-decreasing with
    all violations at breakpoints — true for the LO demand, the unrefined
    HI demand and the refined HI demand (see module docstring).  The
    iteration: start at the horizon; while ``demand(l) <= l``, step to
    ``demand(l)`` when that descends, else to the largest breakpoint below
    ``l``; stop with a pass when demand drops to the smallest breakpoint
    (below which demand is 0) or no breakpoint remains.
    """
    if not tasks or horizon < 0:
        return ("pass", None, 0)
    floor = min(t.deadline for t in tasks)
    limit = _QPA_ITER_CAP if max_iters is None else max_iters
    t = horizon
    iterations = 0
    _COUNTERS["qpa-runs"] += 1
    while t >= 0:
        iterations += 1
        if iterations > limit:
            _COUNTERS["qpa-iterations"] += iterations
            return ("abort", t, iterations)
        demand = demand_at(t)
        if demand > t:
            _COUNTERS["qpa-iterations"] += iterations
            return ("violation", t, iterations)
        if demand <= floor:
            break
        if demand < t:
            t = demand
        else:
            below = _prev_breakpoint(tasks, t, ramps)
            if below is None:
                break
            t = below
    _COUNTERS["qpa-iterations"] += iterations
    return ("pass", None, iterations)


def _screen_points(tasks, horizon: int, k: int) -> list[int]:
    """Candidate maxima of the k-step upper bound in ``[0, horizon]``.

    Every jump and kink of the bound: the first ``k+1`` step points of
    each task (the ``k+1``-th is the blend point where the staircase meets
    its utilization-slope chord) and the horizon.  Between consecutive
    candidates the bound is linear, so checking the bound at these points
    bounds it everywhere.  Unsorted and not deduplicated: the screen only
    asks whether *some* point fails.
    """
    points = [horizon]
    for t in tasks:
        d = t.deadline
        if d <= horizon:
            points.extend(range(d, min(d + k * t.period, horizon) + 1, t.period))
    return points


def approx_accepts(tasks, horizon: int, k: int | None = None) -> bool:
    """Sound LO accept screen: True proves ``demand(l) <= l`` on
    ``[0, horizon]``.

    Fisher–Baruah-style k-step bound: each task contributes its exact
    staircase below its blend point ``d + k T`` and the integer-ceiling
    chord ``ceil(C (l - d + T) / T)`` — the line through the staircase
    corners, an upper bound of the demand — above it.  The total bound is
    piecewise linear between the O(n·k) candidate points, so demand fits
    everywhere iff the bound fits at each of them.  The cores this runs on
    hold a handful of tasks, so the bound is a scalar integer fold that
    stops at the first point where it exceeds ``l``.  A False return
    proves nothing (the screen is an accept filter, not a decider).
    """
    if not tasks or horizon < 0:
        return True  # empty region or no demand: nothing can violate
    if k is None:
        k = _APPROX_K
    for point in _screen_points(tasks, horizon, k):
        bound = 0
        for t in tasks:
            x = point - t.deadline
            if x < 0:
                continue
            c, p = t.wcet, t.period
            if x < k * p:
                bound += (x // p + 1) * c
            else:
                bound -= (-c * (x + p)) // p  # integer ceiling of the chord
        if bound > point:
            return False
    return True


@dataclass(frozen=True)
class _ModeTask:
    """Effective sporadic parameters of one task in one mode."""

    wcet: int
    deadline: int
    period: int
    wcet_lo: int  # carry-over reduction budget (HI mode only)


def _lo_violation_scan(
    tasks: list["_ModeTask"], horizon: int, localize: bool = True
) -> int | None:
    """A LO-mode violation in ``(0, horizon]``.

    The QPA search decides the predicate.  With ``localize`` (the
    callers' default contract) the result is the earliest violation: a
    found QPA witness goes back to the forward walk for localization.  Boolean callers pass
    ``localize=False`` and get the witness itself — the **largest**
    violating breakpoint — with no forward walk.
    """
    demand_at = partial(_lo_point_demand, tasks)
    status, bound, _ = qpa_violation_search(tasks, horizon, demand_at, ramps=False)
    if status == "pass":
        _COUNTERS["qpa-accept"] += 1
        return None
    if status == "violation" and not localize:
        return bound
    # A witness or an aborted search's last iterate bounds every violation
    # from above, so the forward walk stops there — usually a small prefix
    # of the horizon.
    found = first_violation(tasks, 0, bound, demand_at, ramps=False)
    return None if found is None else found[0]


def lo_mode_tasks(
    taskset: TaskSet, virtual_deadlines: dict[int, int]
) -> list[_ModeTask]:
    """LO-mode :class:`_ModeTask` list of ``taskset``, in task order.

    HC tasks run to their virtual deadline (missing entries default to
    the real deadline), LC tasks to their real one.  The single
    definition shared by :class:`DemandScenario` and
    ``DemandEngine.lo_feasible``, which builds no HI side.  Raises
    ``ValueError`` for a virtual deadline outside ``[C_L, D]``.
    """
    out = []
    for task in taskset:
        deadline = task.deadline
        if task.is_high:
            dv = virtual_deadlines.get(task.task_id, deadline)
            if not task.wcet_lo <= dv <= deadline:
                raise ValueError(
                    f"{task.name}: virtual deadline {dv} outside "
                    f"[{task.wcet_lo}, {deadline}]"
                )
            deadline = dv
        out.append(_ModeTask(task.wcet_lo, deadline, task.period, task.wcet_lo))
    return out


def lo_feasible_exact(tasks: list["_ModeTask"], cap: int) -> bool:
    """Exact LO-mode feasibility of ``tasks`` under the horizon-cap gates.

    The verdict of :meth:`DemandScenario.lo_violation` on an already built
    mode-task list — same float-folded horizon bound, same conservative
    False on overload or cap overrun — decided at witness level: a QPA
    pass returns True and a QPA violation returns False without
    localizing the earliest violating length.  Only an aborted search
    runs the forward walk.  Used by ``DemandEngine.lo_feasible``.
    """
    try:
        horizon = DemandScenario._horizon(tasks, cap)
    except HorizonExceeded:
        return False
    if horizon is None:
        return False  # utilization above 1: guaranteed violation
    if horizon == 0:
        return True
    return _lo_violation_scan(tasks, horizon, localize=False) is None


class DemandScenario:
    """Demand checks for a task set under fixed virtual deadlines.

    Parameters
    ----------
    taskset:
        The tasks on one processor.
    virtual_deadlines:
        Mapping ``task_id -> Dv`` for HC tasks; missing entries default to
        the real deadline.  ``C_i^L <= Dv_i <= D_i`` is required.
    horizon_cap:
        Upper limit on the dbf check horizon; beyond it the check raises
        :class:`HorizonExceeded`.
    """

    def __init__(
        self,
        taskset: TaskSet,
        virtual_deadlines: dict[int, int] | None = None,
        horizon_cap: int = DEFAULT_HORIZON_CAP,
    ):
        virtual_deadlines = virtual_deadlines or {}
        self.taskset = taskset
        self.horizon_cap = horizon_cap
        self._lo: list[_ModeTask] = lo_mode_tasks(taskset, virtual_deadlines)
        self._hi: list[_ModeTask] = [
            _ModeTask(
                task.wcet_hi,
                task.deadline - virtual_deadlines.get(task.task_id, task.deadline),
                task.period,
                task.wcet_lo,
            )
            for task in taskset
            if task.is_high
        ]
        #: degraded LC tasks' HI-mode abstraction (empty under drop
        #: semantics); appended *after* the HC entries wherever the two are
        #: combined, so the trigger refinement can stay HC-only by count.
        self._hi_lc: list[_ModeTask] = lc_hi_mode_tasks(taskset)

    # -- horizons ----------------------------------------------------------
    @staticmethod
    def _horizon(tasks: list[_ModeTask], cap: int) -> int | None:
        """Check horizon for ``tasks``; None means "demand always exceeds"
        (utilization >= 1), so the caller should reject immediately.
        """
        total_u = sum(t.wcet / t.period for t in tasks)
        if total_u > 1.0 + 1e-12:
            return None
        numerator = sum(
            (t.wcet / t.period)
            * (t.period - t.deadline if t.period > t.deadline else 0)
            for t in tasks
        )
        if numerator == 0:
            return 0  # implicit-deadline EDF case: nothing to check
        if total_u >= 1.0 - 1e-12:
            # Utilization exactly 1 with deadline < period somewhere: the
            # classical bound diverges; fall back to the cap (conservative).
            raise HorizonExceeded(f"utilization {total_u:.6f} ~ 1, bound diverges")
        bound = math.ceil(numerator / (1.0 - total_u))
        if bound > cap:
            raise HorizonExceeded(f"bound {bound} exceeds cap {cap}")
        return bound

    # -- check point construction -------------------------------------------
    @staticmethod
    def _breakpoints(tasks: list[_ModeTask], horizon: int, ramps: bool) -> np.ndarray:
        """All dbf breakpoints of ``tasks`` in ``[0, horizon]`` plus horizon.

        Sorted but *not* deduplicated — the whole-array form of the check
        points :func:`first_violation` visits one by one, kept for
        :class:`LoShrinkProbe`, whose closed-form V* needs every point at
        once.
        """
        families = []
        for t in tasks:
            if t.deadline > horizon:
                continue
            jumps = np.arange(t.deadline, horizon + 1, t.period, dtype=np.int64)
            families.append(jumps)
            if ramps and t.wcet_lo > 0:
                ends = jumps + min(t.wcet_lo, t.period)
                families.append(ends[ends <= horizon])
        families.append(np.asarray([horizon], dtype=np.int64))
        return np.sort(np.concatenate(families))

    # -- demand evaluation ----------------------------------------------------
    @staticmethod
    def _lo_demand(tasks: list[_ModeTask], points: np.ndarray) -> np.ndarray:
        """:func:`_lo_point_demand` at every point of ``points``."""
        total = np.zeros(len(points), dtype=np.int64)
        for t in tasks:
            x = points - t.deadline
            active = x >= 0
            jobs = np.where(active, x // t.period + 1, 0)
            total += jobs * t.wcet
        return total

    # -- public checks ----------------------------------------------------------
    def lo_violation(self) -> int | None:
        """Smallest interval length where LO-mode demand exceeds supply.

        Returns None when the LO-mode dbf test passes.  Raises
        :class:`HorizonExceeded` when the horizon cap is hit.

        When total utilization exceeds 1 a violation is guaranteed at
        *some* length; the check short-circuits and reports
        :func:`overload_marker` — the smallest LO deadline, which is **not
        necessarily the earliest violating length** (a smaller breakpoint
        may violate).  Callers must interpret any non-None return as
        "infeasible", never as an exact violation front; see the marker
        contract on :func:`overload_marker`.
        """
        horizon = self._horizon(self._lo, self.horizon_cap)
        if horizon is None:
            return overload_marker(self._lo)
        if horizon == 0:
            return None
        return _lo_violation_scan(self._lo, horizon)

    def hi_violation(self, refine: bool = False) -> int | None:
        """Smallest interval length where HI-mode demand exceeds supply.

        ``refine`` enables the ECDF trigger refinement (the trigger must be
        a *local HC* task, so degraded LC entries never contribute to the
        refinement min).  A core without HC tasks can never switch modes
        locally, so it vacuously passes — degraded LC demand included, as
        it only materializes after a switch.  As in :meth:`lo_violation`,
        HI utilization above 1 short-circuits with the same
        :func:`overload_marker` convention — the smallest residual
        deadline, a marker rather than the exact earliest violation.
        """
        if not self._hi:
            return None
        tasks = self._hi + self._hi_lc
        horizon = self._horizon(tasks, self.horizon_cap)
        if horizon is None:
            return overload_marker(tasks)
        # Even at horizon 0 the carry-over term can demand C_H - C_L at l=0;
        # always include the breakpoints up to at least the first deadlines.
        horizon = max(horizon, max(t.deadline for t in tasks))
        if horizon > self.horizon_cap:
            raise HorizonExceeded(f"bound {horizon} exceeds cap {self.horizon_cap}")
        demand_at = partial(
            _hi_point_demand, tasks, refine=refine, n_trigger=len(self._hi)
        )
        status, bound, _ = qpa_violation_search(tasks, horizon, demand_at, ramps=True)
        if status == "pass":
            _COUNTERS["qpa-accept"] += 1
            return None
        # Earliest violation <= witness (or the aborted search's last
        # iterate): walk only that prefix.
        found = first_violation(tasks, 0, bound, demand_at, ramps=True)
        return None if found is None else found[0]

    def schedulable(self, refine: bool = False) -> bool:
        """LO and HI checks both pass (conservative False on horizon cap)."""
        try:
            return self.lo_violation() is None and self.hi_violation(refine) is None
        except HorizonExceeded:
            return False

    # -- introspection helpers (used by tuning algorithms) ---------------------
    def lo_demand_at(self, length: int) -> int:
        """Total LO-mode demand at one interval length."""
        return _lo_point_demand(self._lo, length)

    def lo_shrink_probe(self, task: MCTask) -> "LoShrinkProbe":
        """Fast repeated LO checks while varying ``task``'s virtual deadline.

        Used by the tuning engine's binary search; see
        :class:`LoShrinkProbe`.
        """
        return LoShrinkProbe(self, task)

    def hi_demand_at(self, length: int, refine: bool = False) -> int:
        """Total HI-mode demand at one interval length."""
        return _hi_point_demand(
            self._hi + self._hi_lc, length, refine, len(self._hi)
        )


class LoShrinkProbe:
    """Repeated LO-mode feasibility checks varying one task's deadline.

    The tuning engine binary-searches the largest virtual-deadline shrink
    of a single HC task that keeps the LO check feasible; re-running the
    full :class:`DemandScenario` per probe recomputes every task's dbf.
    This helper precomputes the *other* tasks' demand (and slack) once, at
    a horizon that is sound for every probe (the probed task pinned at its
    minimal deadline, which maximizes demand and therefore the classical
    bound), leaving each probe a pair of vectorized comparisons.

    Verdicts match ``DemandScenario(..., {task: vd}).lo_violation() is
    None`` exactly, except that the shared worst-case horizon may hit the
    cap where a per-probe horizon would not — in which case the probe
    reports infeasible (conservative, consistent with the tests' sufficient-
    only contract).
    """

    def __init__(self, scenario: DemandScenario, task: MCTask):
        if not task.is_high:
            raise ValueError(f"{task.name}: only HC deadlines are tunable")
        self._task = task
        others = []
        found = False
        for mode_task, source in zip(scenario._lo, scenario.taskset):
            if source.task_id == task.task_id:
                found = True
                continue
            others.append(mode_task)
        if not found:
            raise ValueError(f"{task.name} is not part of the scenario")
        # Horizon with the probed task at its minimal deadline (max demand).
        worst = others + [
            _ModeTask(task.wcet_lo, task.wcet_lo, task.period, task.wcet_lo)
        ]
        horizon = DemandScenario._horizon(worst, scenario.horizon_cap)
        self._infeasible_always = horizon is None  # utilization > 1
        self._horizon = horizon or 0
        if self._infeasible_always or self._horizon == 0:
            self._points_o = np.empty(0, dtype=np.int64)
            self._slack_o = np.empty(0, dtype=np.int64)
            return
        points = DemandScenario._breakpoints(others, self._horizon, ramps=False)
        demand = DemandScenario._lo_demand(others, points)
        self._points_o = points
        self._slack_o = points - demand  # slack available to the probed task

    def feasible(self, virtual_deadline: int) -> bool:
        """LO check verdict with the probed task at ``virtual_deadline``."""
        task = self._task
        if not task.wcet_lo <= virtual_deadline <= task.deadline:
            raise ValueError(
                f"{task.name}: virtual deadline {virtual_deadline} outside "
                f"[{task.wcet_lo}, {task.deadline}]"
            )
        if self._infeasible_always:
            return False
        if self._horizon == 0:
            return True
        # Probed task's demand at the other tasks' breakpoints.
        x = self._points_o - virtual_deadline
        jobs = np.where(x >= 0, x // task.period + 1, 0)
        if np.any(jobs * task.wcet_lo > self._slack_o):
            return False
        return self._own_feasible(virtual_deadline)

    def _own_feasible(self, virtual_deadline: int) -> bool:
        """The own-breakpoint half of :meth:`feasible`.

        Callers that already know the other-breakpoint half holds (its
        per-point bounds invert in closed form and are monotone in the
        deadline) may query this directly; ``feasible`` is the conjunction
        and :meth:`vstar_own` inverts this half's boundary.
        """
        task = self._task
        if self._infeasible_always:
            return False
        if self._horizon == 0:
            return True
        # Check at the probed task's own breakpoints (its demand steps up
        # there; the other tasks' demand is a step function evaluated by
        # rank lookup against their precomputed breakpoints).
        own = np.arange(
            virtual_deadline, self._horizon + 1, task.period, dtype=np.int64
        )
        if len(own) == 0:
            return True
        own_demand = (
            (own - virtual_deadline) // task.period + 1
        ) * task.wcet_lo
        if len(self._points_o):
            idx = np.searchsorted(self._points_o, own, side="right") - 1
            others_at_own = np.where(
                idx >= 0,
                self._points_o[np.maximum(idx, 0)]
                - self._slack_o[np.maximum(idx, 0)],
                0,
            )
        else:
            others_at_own = np.zeros(len(own), dtype=np.int64)
        return not np.any(own_demand + others_at_own > own)

    def vstar_own(self, floor_v: int) -> int | None:
        """Minimal :meth:`_own_feasible` deadline in ``[floor_v, D]``.

        Inverts the own-breakpoint half in closed form over the whole
        other-breakpoint window instead of bisecting it.  For the probed
        task (``C = C_L``, period ``T``) the own half fails for deadline
        ``v`` iff some own point ``l = v + jT <= horizon`` has
        ``(j+1) C > slack(l)``, where within the others' region ``i``
        (from ``p_i`` up to the next breakpoint) the slack is
        ``slack_o[i] + (l - p_i)``.  For each region the smallest job
        count that can fail at all is
        ``j* = max(slack_o[i] // C, ceil((p_i - D) / T), 0)``
        (below ``slack_o[i] // C`` the region start already has enough
        slack; below the middle term no ``v <= D`` reaches the region),
        and the largest failing ``l`` at that count is

            ``min(p_{i+1} - 1, p_i + (j*+1) C - 1 - slack_o[i],
            D + j* T, horizon)``

        — every term non-increasing in ``j``, so ``j*`` dominates all
        larger counts and ``v = l - j* T`` is the region's largest failing
        deadline.  Duplicate breakpoints make a region empty; the
        ``l >= p_i`` mask voids it.

        Requires ``slack_o >= 0`` everywhere and ``floor_v`` at or above
        the other-breakpoint floor (as :meth:`min_feasible_deadline`
        guarantees): there the own half is the whole, monotone verdict, so
        the value is exactly the bisection's.  Returns None when even
        ``D`` fails.
        """
        task = self._task
        # C > T puts the worst-case utilization above 1, so such a probe is
        # always-infeasible and never reaches the closed form.
        if self._infeasible_always:
            return None
        c, t, d = task.wcet_lo, task.period, task.deadline
        points_o, slack_o = self._points_o, self._slack_o
        if len(points_o) == 0:
            return floor_v
        jmin = slack_o // c
        jlo = -((d - points_o) // t)  # ceil((p - d) / t) in floor division
        jstar = np.maximum(np.maximum(jmin, jlo), 0)
        p_next = np.empty_like(points_o)
        p_next[:-1] = points_o[1:]
        p_next[-1] = self._horizon + 1
        l_cand = np.minimum(
            np.minimum(p_next - 1, points_o + (jstar + 1) * c - 1 - slack_o),
            np.minimum(d + jstar * t, self._horizon),
        )
        valid = l_cand >= points_o
        if not valid.any():
            return floor_v
        maxfail = int((l_cand - jstar * t)[valid].max())
        if maxfail >= d:
            return None
        return max(floor_v, maxfail + 1)

    def min_feasible_deadline(self) -> int | None:
        """Smallest deadline ``V*`` that :meth:`feasible` accepts; None
        when even the task's full deadline fails.

        The first half of :meth:`feasible` (own demand against the other
        tasks' slack at *their* breakpoints) inverts in closed form: at
        slack ``s`` the task may place at most ``s // C_L`` jobs, giving a
        per-point lower bound on the deadline.  Their max is the floor
        above which that half holds, and :meth:`vstar_own` finds the
        own-half boundary from there.
        """
        task = self._task
        if self._infeasible_always:
            return None
        floor_v = task.wcet_lo
        if len(self._points_o):
            if int(self._slack_o.min()) < 0:
                return None  # the other tasks alone overrun: never feasible
            bounds = (
                self._points_o
                - (self._slack_o // task.wcet_lo) * task.period
                + 1
            )
            floor_v = max(floor_v, int(bounds.max()))
        if floor_v > task.deadline:
            return None
        return self.vstar_own(floor_v)
