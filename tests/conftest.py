"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.analysis import dbf, vdtuning
from repro.analysis.dbf import DemandScenario, HorizonExceeded, hi_mode_dbf
from repro.analysis.vdtuning import (
    TuningOutcome,
    _invert_shrink,
    _rank_candidates,
)
from repro.experiments.acceptance import clear_samples
from repro.model import Criticality, MCTask, TaskSet
from repro.runner.cluster import close_workers


@pytest.fixture(autouse=True)
def fresh_sample_store():
    """Every test starts with no retained task-set samples, so a test that
    counts or patches generation never meets another test's sample."""
    clear_samples()
    yield
    clear_samples()


@pytest.fixture(autouse=True)
def fresh_workers():
    """Every test ends by closing the process's cluster worker fleet.

    A fleet is reused while the state it was forked under (demand
    kernel, obs recorder, ``REPRO_*`` environment) is unchanged, but a
    monkeypatch is invisible to that check: a worker forked before one
    would never see it.  Closing after each test keeps a patch from
    reaching, or missing, another test's workers.
    """
    yield
    close_workers()


def hc_task(
    period: int,
    wcet_lo: int,
    wcet_hi: int,
    deadline: int | None = None,
    name: str = "",
) -> MCTask:
    """Shorthand HC task builder used across the suite."""
    return MCTask(
        period=period,
        criticality=Criticality.HC,
        wcet_lo=wcet_lo,
        wcet_hi=wcet_hi,
        deadline=period if deadline is None else deadline,
        name=name,
    )


def lc_task(
    period: int, wcet: int, deadline: int | None = None, name: str = ""
) -> MCTask:
    """Shorthand LC task builder used across the suite."""
    return MCTask(
        period=period,
        criticality=Criticality.LC,
        wcet_lo=wcet,
        wcet_hi=wcet,
        deadline=period if deadline is None else deadline,
        name=name,
    )


@pytest.fixture
def simple_mixed_taskset() -> TaskSet:
    """A small clearly-schedulable dual-criticality set (one core)."""
    return TaskSet(
        [
            hc_task(100, 10, 20, name="h1"),
            hc_task(200, 20, 50, name="h2"),
            lc_task(50, 5, name="l1"),
            lc_task(250, 25, name="l2"),
        ]
    )


@pytest.fixture
def heavy_taskset() -> TaskSet:
    """A set no uniprocessor MC test can accept (U_HH > 1)."""
    return TaskSet(
        [
            hc_task(100, 40, 80, name="h1"),
            hc_task(100, 30, 60, name="h2"),
            lc_task(100, 30, name="l1"),
        ]
    )


@contextmanager
def forward_oracle():
    """Decide every demand check by the in-order breakpoint walk.

    Every QPA search aborts before its first iteration, so each caller
    falls back to :func:`repro.analysis.dbf.first_violation` over its
    whole range, and the descent's LO upper-bound screen settles nothing:
    the oracle the ``qpa`` kernel must match answer for answer.  The scalar
    ``qpa`` descent runs on top of it.
    """
    def never(*args, **kwargs):
        return False

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dbf, "_QPA_ITER_CAP", 0)
        patch.setattr(vdtuning, "approx_accepts", never)
        previous = dbf.set_demand_kernel("qpa")
        try:
            yield
        finally:
            dbf.set_demand_kernel(previous)


# The shrink primitives in their plain forms: the oracles of the closed
# forms the descent inlines (vdtuning._rank_candidates, DemandEngine.hi_gain).

def hi_gain(task: MCTask, vd_now: int, shrink: int, length: int) -> int:
    """HI-demand reduction at ``length`` when ``Dv`` shrinks by ``shrink``."""
    return hi_mode_dbf(task, vd_now, length) - hi_mode_dbf(
        task, vd_now - shrink, length
    )


def min_shrink_for_gain(task: MCTask, vd_now: int, length: int) -> int | None:
    """Smallest shrink with positive HI-demand gain at ``length``; None if
    no shrink up to the structural limit (``Dv >= C_L``) helps."""
    max_shrink = vd_now - task.wcet_lo
    if max_shrink <= 0:
        return None
    residual = task.deadline - vd_now
    x = length - residual
    if x < 0:
        return None  # shrinking moves the carry-over even further out
    r0 = x % task.period
    # Inside the carry-over ramp every unit shrink gains one unit; above the
    # ramp the first ``r0 - C_L + 1`` units gain nothing.
    first = 1 if r0 < task.wcet_lo else (r0 - task.wcet_lo + 1)
    if first > max_shrink:
        return None
    return first


def shrink_to_clear(
    task: MCTask, vd_now: int, length: int, deficit: int
) -> int:
    """Smallest shrink whose HI gain at ``length`` reaches
    ``min(deficit, the task's maximum achievable gain)``.

    When the task alone cannot clear the deficit, this still returns the
    *minimal* shrink realizing its best contribution — over-shrinking would
    needlessly inflate LO-mode demand and strand later adjustments.
    Relies on HI-demand being non-increasing in the shrink amount; the
    minimal shrink is recovered in closed form by inverting the task's
    single-task HI staircase
    (:func:`repro.analysis.vdtuning._invert_shrink`), which the
    differential suite checks against the historical bisection
    (:func:`shrink_to_clear_bisect`) point for point.
    """
    max_shrink = vd_now - task.wcet_lo
    target = min(deficit, hi_gain(task, vd_now, max_shrink, length))
    if target <= 0:
        return max_shrink
    return _invert_shrink(task, vd_now, length, target)


def shrink_to_clear_bisect(
    task: MCTask, vd_now: int, length: int, deficit: int
) -> int:
    """The historical bisection — the differential oracle for
    :func:`shrink_to_clear` (identical results, O(log D) gain probes)."""
    max_shrink = vd_now - task.wcet_lo
    target = min(deficit, hi_gain(task, vd_now, max_shrink, length))
    if target <= 0:
        return max_shrink
    lo, hi = 1, max_shrink
    while lo < hi:
        mid = (lo + hi) // 2
        if hi_gain(task, vd_now, mid, length) >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def scan_hi_check(taskset, vd, refine, horizon_cap):
    """Earliest HI violation and the demand there, by a full scan from 0
    on a fresh :class:`DemandScenario`: no memo and no scan hint."""
    scenario = DemandScenario(taskset, vd, horizon_cap=horizon_cap)
    violation = scenario.hi_violation(refine=refine)
    if violation is None:
        return None, None
    return violation, scenario.hi_demand_at(violation, refine=refine)


def oracle_descent(high_tasks, vd, policy, refine, engine):
    """The shrink descent as a plain step loop: per iteration one full HI
    scan (:func:`scan_hi_check`), a fresh ranking and one LO probe, with
    no trajectory replay and no scan front."""
    vd = dict(vd)
    frozen: set[int] = set()
    for iteration in range(1, vdtuning._MAX_ITERATIONS + 1):
        try:
            violation, demand = scan_hi_check(
                engine.taskset, vd, refine, engine.horizon_cap
            )
        except HorizonExceeded:
            return TuningOutcome(False, vd, iteration, "HI horizon cap exceeded")
        if violation is None:
            return TuningOutcome(True, vd, iteration)
        ranked = _rank_candidates(
            high_tasks, vd, violation, demand - violation, policy, engine
        )
        candidate = next(
            ((task, desired) for _, task, desired in ranked
             if task.task_id not in frozen),
            None,
        )
        if candidate is None:
            return TuningOutcome(
                False, vd, iteration, f"no shrinkable task at l*={violation}"
            )
        task, desired = candidate
        shrink = engine.max_lo_feasible_shrink(vd, task, desired)
        if shrink == 0 or engine.hi_gain(task, vd[task.task_id], shrink, violation) <= 0:
            frozen.add(task.task_id)
            continue
        vd[task.task_id] -= shrink
        frozen.clear()
    return TuningOutcome(False, vd, vdtuning._MAX_ITERATIONS, "iteration cap reached")


# The tuning entry in its historical order: the oracle of the uniform-first
# stage body (vdtuning._tune_stage) and the one-screen stage loop.

def oracle_tune(taskset, policy, refine, horizon_cap, engine):
    """One tuning stage as it ran before the uniform search moved first:
    the utilization screen, the LO check at full deadlines, the HI check
    at ``Dv = C_L``, the uniform-scaling search, the V* floor and the
    descent, each on every stage."""
    if policy not in ("steepest", "ratio"):
        raise ValueError(f"unknown tuning policy {policy!r}")
    high_tasks = list(taskset.high_tasks)
    vd = {t.task_id: t.deadline for t in high_tasks}
    util = taskset.utilization
    if util.u_lo > 1.0 + 1e-9 or util.u_hh > 1.0 + 1e-9:
        return TuningOutcome(False, vd, 0, "utilization above 1")
    if taskset.is_implicit_deadline and util.u_ll + util.u_hh <= 1.0 + 1e-9:
        return TuningOutcome(True, vd, 0, "plain-EDF reserve (a + c <= 1)")
    if not engine.lo_feasible(vd):
        return TuningOutcome(False, vd, 0, "LO-mode infeasible at full deadlines")
    if high_tasks:
        floor_vd = {t.task_id: t.wcet_lo for t in high_tasks}
        try:
            floor_violation = engine.hi_violation(floor_vd, refine)
        except HorizonExceeded:
            return TuningOutcome(False, vd, 0, "HI horizon cap exceeded")
        if floor_violation is not None:
            return TuningOutcome(
                False, vd, 0, f"HI infeasible even at minimal Dv (l*={floor_violation})"
            )
        uniform = vdtuning._uniform_scaling_search(high_tasks, refine, engine)
        if uniform is not None:
            return uniform
        violation = vdtuning._vstar_floor_violation(high_tasks, vd, engine, refine)
        if violation is not None:
            return TuningOutcome(
                False, vd, 0, f"HI infeasible at V* floor (l*={violation})"
            )
    if dbf.demand_kernel() == "block":
        return vdtuning._descend_block(high_tasks, vd, policy, refine, engine)
    return vdtuning._descend(high_tasks, vd, policy, refine, engine)


def oracle_stages(taskset, stages, horizon_cap, engine):
    """The stage chain with :func:`oracle_tune` per stage, each stage
    screening again."""
    for policy, refine in stages:
        outcome = oracle_tune(taskset, policy, refine, horizon_cap, engine)
        if outcome.schedulable:
            break
    return outcome
