"""Differential suite for the QPA demand kernel.

The QPA backward fixed-point search, the Fisher–Baruah-style upper-bound
screens and the descent warm starts are all *cost* layers: every verdict,
violation point and tuning outcome must equal the forward breakpoint
oracle's.  These tests assert that equivalence — across random task sets,
service models, refinement on/off, scenario- and engine-level entry points
— plus the closed-form shrink inversion and the closed-form V* against
the historical bisections.  ``"forward"`` names the walk as an oracle
(:func:`tests.conftest.forward_oracle`), not a kernel.  The forward walk
itself (``first_violation``) is anchored to a whole-array reference scan:
``_breakpoints`` with ``_lo_demand`` / :func:`reference_hi_demand`,
including when an aborted QPA search bounds the walk by its last iterate.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis import dbf, vdtuning
from repro.analysis.dbf import (
    DemandScenario,
    LoShrinkProbe,
    _ModeTask,
    _adjacent_breakpoints,
    _hi_point_demand,
    _lo_point_demand,
    _next_breakpoint,
    _prev_breakpoint,
    approx_accepts,
    demand_kernel,
    first_violation,
    lo_feasible_exact,
    qpa_violation_search,
    set_demand_kernel,
)
from repro.analysis.vdtuning import (
    DemandEngine,
    _invert_shrink,
    run_tuning_stages,
)
from repro.degradation.service import parse_service_model
from repro.model import Criticality, MCTask, TaskSet
from repro.util.env import DBF_KERNELS
from tests.conftest import (
    forward_oracle,
    hi_gain,
    oracle_descent,
    shrink_to_clear,
    shrink_to_clear_bisect,
)


@pytest.fixture
def qpa_kernel():
    previous = set_demand_kernel("qpa")
    yield
    set_demand_kernel(previous)


def run_with_kernel(kernel, fn):
    """``fn()`` under a demand kernel, or under the in-order walk
    (:func:`tests.conftest.forward_oracle`) for ``"forward"``."""
    if kernel == "forward":
        with forward_oracle():
            return fn()
    previous = set_demand_kernel(kernel)
    try:
        return fn()
    finally:
        set_demand_kernel(previous)


# -- task-set generation -----------------------------------------------------

@st.composite
def mc_taskset(draw, implicit=None):
    """A small random dual-criticality task set (optionally implicit)."""
    n = draw(st.integers(min_value=1, max_value=5))
    tasks = []
    for _ in range(n):
        period = draw(st.integers(min_value=4, max_value=60))
        high = draw(st.booleans())
        wcet_lo = draw(st.integers(min_value=1, max_value=max(1, period // 2)))
        if implicit is None:
            make_implicit = draw(st.booleans())
        else:
            make_implicit = implicit
        if high:
            wcet_hi = draw(st.integers(min_value=wcet_lo, max_value=period))
            floor = max(wcet_hi, wcet_lo)
        else:
            wcet_hi = wcet_lo
            floor = wcet_lo
        deadline = (
            period
            if make_implicit
            else draw(st.integers(min_value=floor, max_value=period))
        )
        tasks.append(
            MCTask(
                period=period,
                criticality=Criticality.HC if high else Criticality.LC,
                wcet_lo=wcet_lo,
                wcet_hi=wcet_hi,
                deadline=deadline,
            )
        )
    return TaskSet(tasks)


def hc_set(rows):
    """A task set of HC tasks from ``(T, C_L, C_H, D)`` rows."""
    return TaskSet(
        [
            MCTask(
                period=period,
                criticality=Criticality.HC,
                wcet_lo=wcet_lo,
                wcet_hi=wcet_hi,
                deadline=deadline,
            )
            for period, wcet_lo, wcet_hi, deadline in rows
        ]
    )


@st.composite
def scenario_inputs(draw):
    """(taskset, virtual deadlines, service spec) for scenario checks."""
    ts = draw(mc_taskset())
    vd = {}
    for task in ts:
        if task.is_high:
            vd[task.task_id] = draw(
                st.integers(min_value=task.wcet_lo, max_value=task.deadline)
            )
    service = draw(
        st.sampled_from(["full-drop", "imprecise:0.5", "elastic:1.5"])
    )
    return ts, vd, service


@st.composite
def saturated_inputs(draw):
    """Scenario inputs whose HC tasks load HI mode to 85-99%, so the check
    horizon spans hundreds of breakpoints and violations sit far from 0."""
    n = draw(st.integers(min_value=2, max_value=4))
    periods = [draw(st.integers(min_value=10, max_value=40)) for _ in range(n)]
    weights = [draw(st.integers(min_value=1, max_value=10)) for _ in range(n)]
    target = draw(st.floats(min_value=0.9, max_value=0.99))
    tasks, vd = [], {}
    for period, weight in zip(periods, weights):
        wcet_hi = max(1, int(period * target * weight / sum(weights)))
        wcet_lo = draw(st.integers(min_value=1, max_value=wcet_hi))
        deadline = draw(st.integers(min_value=wcet_hi, max_value=period))
        task = MCTask(
            period=period,
            criticality=Criticality.HC,
            wcet_lo=wcet_lo,
            wcet_hi=wcet_hi,
            deadline=deadline,
        )
        tasks.append(task)
        vd[task.task_id] = draw(st.integers(min_value=wcet_lo, max_value=deadline))
    if draw(st.booleans()):
        tasks.append(
            MCTask(
                period=40,
                criticality=Criticality.LC,
                wcet_lo=1,
                wcet_hi=1,
                deadline=draw(st.integers(min_value=1, max_value=40)),
            )
        )
    service = draw(
        st.sampled_from(["full-drop", "imprecise:0.5", "elastic:1.5"])
    )
    return TaskSet(tasks), vd, service


def attach(ts, service):
    if service == "full-drop":
        return ts
    return TaskSet(list(ts), service_model=parse_service_model(service))


def reference_hi_demand(
    tasks: list[_ModeTask],
    points: np.ndarray,
    refine: bool,
    n_trigger: int | None = None,
) -> np.ndarray:
    """Total HI-mode demand of ``tasks`` at each point.

    The per-task carry-over reduction is clamped at the task's HI
    budget (inert for HC tasks, where ``wcet >= wcet_lo``; load-bearing
    for degraded LC entries, whose budget may undercut ``C^L``).  Only
    the first ``n_trigger`` tasks (default: all — correct whenever the
    list is HC-only) can be the mode-switch trigger; degraded LC
    entries never trigger, so callers mixing them in pass the HC count.
    """
    if n_trigger is None:
        n_trigger = len(tasks)
    total = np.zeros(len(points), dtype=np.int64)
    min_trigger_cut = None
    for index, t in enumerate(tasks):
        x = points - t.deadline
        active = x >= 0
        xa = np.where(active, x, 0)
        jobs = xa // t.period + 1
        residue = xa % t.period
        reduction = np.minimum(t.wcet, np.maximum(0, t.wcet_lo - residue))
        total += np.where(active, jobs * t.wcet - reduction, 0)
        if refine and index < n_trigger:
            cut = np.where(active, np.minimum(t.wcet_lo, residue), 0)
            if min_trigger_cut is None:
                min_trigger_cut = cut
            else:
                min_trigger_cut = np.minimum(min_trigger_cut, cut)
    if refine and min_trigger_cut is not None:
        total -= min_trigger_cut
    return total


def reference_violations(tasks, horizon, ramps, demand_fn) -> list[int]:
    """Every violating check point of the whole-array scan, ascending."""
    points = DemandScenario._breakpoints(tasks, horizon, ramps=ramps)
    return [int(p) for p in points[demand_fn(points) > points]]


def demand_modes(scenario):
    """``(tasks, ramps, array demand, point demand)`` for LO, HI and
    refined HI.  The HI rows carry the scenario's degraded LC entries
    after the HC ones, so ``n_trigger < len(tasks)`` whenever a service
    model keeps LC tasks alive."""
    lo = scenario._lo
    yield (
        lo,
        False,
        lambda points: DemandScenario._lo_demand(lo, points),
        lambda length: _lo_point_demand(lo, length),
    )
    if not scenario._hi:
        return
    hi = scenario._hi + scenario._hi_lc
    n = len(scenario._hi)
    for refine in (False, True):
        yield (
            hi,
            True,
            lambda points, r=refine: reference_hi_demand(hi, points, r, n),
            lambda length, r=refine: _hi_point_demand(hi, length, r, n),
        )


def lo_verdict(ts, vd, cap):
    """The scenario's LO verdict, a horizon-cap overrun counting as False."""
    try:
        return DemandScenario(ts, vd, horizon_cap=cap).lo_violation() is None
    except dbf.HorizonExceeded:
        return False


# -- kernel primitives -------------------------------------------------------

class TestQPASearch:
    @given(scenario_inputs())
    @settings(max_examples=120, deadline=None)
    def test_qpa_matches_breakpoint_oracle(self, inputs):
        """QPA decides exactly the forward oracle's predicate, and a
        violation witness is the largest violating breakpoint."""
        ts, vd, service = inputs
        scenario = DemandScenario(attach(ts, service), vd)
        for tasks, ramps, refine in (
            (scenario._lo, False, False),
            (scenario._hi + scenario._hi_lc, True, False),
            (scenario._hi + scenario._hi_lc, True, True),
        ):
            if not tasks:
                continue
            horizon = 200
            n_trigger = len(scenario._hi) if ramps else None
            if ramps:
                demand_at = lambda t: _hi_point_demand(
                    tasks, t, refine, n_trigger
                )
            else:
                demand_at = lambda t: _lo_point_demand(tasks, t)
            status, witness, iterations = qpa_violation_search(
                tasks, horizon, demand_at, ramps=ramps, max_iters=10_000
            )
            points = DemandScenario._breakpoints(tasks, horizon, ramps=ramps)
            violating = [int(p) for p in points if demand_at(int(p)) > int(p)]
            assert status in ("pass", "violation")
            if status == "pass":
                assert not violating
            else:
                assert violating
                assert witness == max(violating)
            assert iterations >= 1

    @given(scenario_inputs(), st.integers(min_value=0, max_value=150))
    @settings(max_examples=80, deadline=None)
    def test_breakpoint_walkers_are_inverse(self, inputs, point):
        ts, vd, service = inputs
        scenario = DemandScenario(attach(ts, service), vd)
        tasks = scenario._lo
        nxt = _next_breakpoint(tasks, point, ramps=False)
        if nxt is not None:
            assert nxt >= point
            # nothing between point and nxt
            assert _prev_breakpoint(tasks, nxt, ramps=False) is None or (
                _prev_breakpoint(tasks, nxt, ramps=False) < point
                or _prev_breakpoint(tasks, nxt, ramps=False) < nxt
            )
            prev = _prev_breakpoint(tasks, nxt + 1, ramps=False)
            assert prev == nxt
        # The fused HI-mode pair the descent's scan peek takes its front from.
        hi_tasks = scenario._hi + scenario._hi_lc
        assert _adjacent_breakpoints(hi_tasks, point) == (
            _prev_breakpoint(hi_tasks, point, ramps=True),
            _next_breakpoint(hi_tasks, point, ramps=True),
        )

    @given(scenario_inputs())
    @settings(max_examples=100, deadline=None)
    def test_upper_bound_screen_is_sound(self, inputs):
        """approx_accepts == True implies the exact LO scan finds no
        violation (for every k)."""
        ts, vd, service = inputs
        tasks = DemandScenario(attach(ts, service), vd)._lo
        horizon = 150
        points = DemandScenario._breakpoints(tasks, horizon, ramps=False)
        demand = DemandScenario._lo_demand(tasks, points)
        for k in (1, 2, 5):
            if approx_accepts(tasks, horizon, k=k):
                assert not (demand > points).any()

    def test_refined_hi_demand_is_monotone(self):
        """The refined demand is non-decreasing (the property QPA's
        exactness rests on): dbf - cut_j is non-decreasing for every j."""
        tasks = [
            _ModeTask(16, 8, 42, 7),
            _ModeTask(9, 3, 20, 4),
            _ModeTask(5, 0, 11, 5),
        ]
        previous = None
        for t in range(0, 300):
            value = _hi_point_demand(tasks, t, True, len(tasks))
            if previous is not None:
                assert value >= previous, f"refined demand dropped at {t}"
            previous = value


# -- scenario- and engine-level differentials --------------------------------

class TestKernelEquivalence:
    @given(scenario_inputs())
    @settings(max_examples=100, deadline=None)
    def test_scenario_checks_identical(self, inputs):
        ts, vd, service = inputs
        tagged = attach(ts, service)

        def checks():
            scenario = DemandScenario(tagged, vd)
            try:
                lo = ("lo", scenario.lo_violation())
            except dbf.HorizonExceeded:
                lo = ("lo", "raise")
            out = [lo]
            for refine in (False, True):
                try:
                    out.append((refine, scenario.hi_violation(refine=refine)))
                except dbf.HorizonExceeded:
                    out.append((refine, "raise"))
            return out

        assert run_with_kernel("forward", checks) == run_with_kernel(
            "qpa", checks
        )

    @given(mc_taskset(), st.sampled_from(["full-drop", "imprecise:0.5", "elastic:1.5"]))
    # A scan front set to the last violation skipped an earlier one on
    # these two (steepest + refine and steepest unrefined).
    @example(
        ts=hc_set([(43, 13, 19, 35), (85, 19, 19, 63), (40, 8, 8, 36)]),
        service="full-drop",
    )
    @example(
        ts=hc_set([(140, 23, 37, 89), (168, 4, 11, 103), (100, 21, 32, 70)]),
        service="full-drop",
    )
    @settings(max_examples=60, deadline=None)
    def test_tuning_outcomes_identical(self, ts, service):
        """run_tuning_stages returns the identical TuningOutcome —
        including the iteration count, i.e. the descent trajectory — for
        EY, ECDF and steepest + refine chains on the memo-backed engine,
        under qpa and under the forward-walk oracle, as on a fresh side
        whose descent takes every HI answer from an independent full scan
        from 0 (:func:`tests.conftest.oracle_descent`)."""
        tagged = attach(ts, service)
        chains = (
            (("steepest", False),),
            (("steepest", True),),
            (("ratio", True), ("steepest", True), ("steepest", False)),
        )
        for stages in chains:
            def run():
                engine = DemandEngine(tagged, 100_000, memo={})
                return run_tuning_stages(tagged, stages, 100_000, engine=engine)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(vdtuning, "_descend", oracle_descent)
                fresh = run_with_kernel("qpa", run)
            assert run_with_kernel("qpa", run) == fresh
            assert run_with_kernel("forward", run) == fresh

    @pytest.mark.parametrize(
        "params, service, refined_at_floor",
        [
            # (period, HC?, C_L, C_H, D) per task; each pin's scalar
            # descent ran 28-40 iterations before the V* floor settled its
            # unrefined stage.
            (
                [(37, True, 6, 6, 24), (32, True, 5, 12, 32),
                 (36, True, 4, 14, 27), (5, False, 1, 1, 1)],
                "full-drop",
                True,
            ),
            (
                [(20, True, 2, 3, 20), (39, True, 6, 15, 39),
                 (9, True, 2, 4, 9), (34, False, 8, 8, 34),
                 (14, False, 4, 4, 14)],
                "full-drop",
                False,
            ),
            (
                [(35, True, 4, 16, 33), (28, True, 1, 5, 23),
                 (21, True, 5, 5, 19), (28, False, 1, 1, 26),
                 (17, False, 5, 5, 6)],
                "imprecise:0.5",
                True,
            ),
            (
                [(38, True, 10, 19, 38), (7, True, 1, 2, 7),
                 (9, False, 3, 3, 9), (12, False, 2, 2, 12)],
                "imprecise:0.5",
                True,
            ),
            # ECDF's refined stages descended 46 (ratio) and 43 (steepest)
            # iterations to "no shrinkable task" before the refined floor.
            (
                [(29, True, 4, 18, 28), (40, True, 2, 14, 36),
                 (20, False, 8, 8, 11)],
                "full-drop",
                True,
            ),
        ],
    )
    def test_floor_reject_identical(self, params, service, refined_at_floor):
        """Pinned V* floor rejects: the unrefined stage (EY's only one,
        ECDF's last) stops at the floor, and so do ECDF's refined stages
        where ``refined_at_floor``, each with the identical outcome
        (detail, zero iterations, virtual deadlines) under every kernel
        and under the forward-walk oracle.  Every floor reject's verdict
        is the one the full-scan descent reaches with the floor off."""
        tagged = attach(
            TaskSet(
                [
                    MCTask(
                        period=period,
                        criticality=Criticality.HC if high else Criticality.LC,
                        wcet_lo=wcet_lo,
                        wcet_hi=wcet_hi,
                        deadline=deadline,
                    )
                    for period, high, wcet_lo, wcet_hi, deadline in params
                ]
            ),
            service,
        )
        chains = (
            (("steepest", False),),
            (("ratio", True), ("steepest", True), ("steepest", False)),
        )
        for stages in chains:
            def run():
                return run_tuning_stages(
                    tagged, stages, 100_000, engine=DemandEngine(tagged, 100_000)
                )

            outcomes = [
                run_with_kernel(kernel, run) for kernel in ("forward",) + DBF_KERNELS
            ]
            first = outcomes[0]
            assert not first.schedulable
            assert first.detail.startswith("HI infeasible at V* floor (l*=")
            assert first.iterations == 0
            assert all(other == first for other in outcomes[1:])
        for policy, refine in chains[1]:
            def stage():
                return vdtuning.tune_virtual_deadlines(
                    tagged, policy, refine, 100_000
                )

            outcomes = [
                run_with_kernel(kernel, stage) for kernel in ("forward",) + DBF_KERNELS
            ]
            first = outcomes[0]
            assert all(other == first for other in outcomes[1:])
            at_floor = first.detail.startswith("HI infeasible at V* floor (l*=")
            assert at_floor == (refined_at_floor or not refine)
            if not at_floor:
                continue
            assert first.iterations == 0
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(vdtuning, "_vstar_floor_violation", lambda *_: None)
                patch.setattr(vdtuning, "_descend", oracle_descent)
                descended = run_with_kernel("qpa", stage)
            assert descended.schedulable == first.schedulable
            assert descended.iterations > 0

    def test_anchor_dominance_regression(self, qpa_kernel):
        """Pinned regression: QPA's witness is the largest *breakpoint*
        violation, but a dominated assignment's breakpoints differ — the
        warm-start anchor must bound the largest violating *integer*
        (demand(witness) - 1), or this engine accepts an infeasible
        assignment.  Derived from a real fig5 divergence."""
        task = MCTask(
            period=42,
            criticality=Criticality.HC,
            wcet_lo=7,
            wcet_hi=16,
            deadline=18,
        )
        ts = TaskSet([task])
        engine = DemandEngine(ts, 100_000, memo={})
        full = {task.task_id: task.deadline}
        shrunk = {task.task_id: 10}
        # Prime the anchor via the full-deadline check, then query the
        # dominated assignment whose own breakpoint (t = 8) violates.
        engine.hi_feasible(full, False)
        fast = engine.hi_feasible(shrunk, False)
        scenario = DemandScenario(ts, shrunk)
        assert fast == (scenario.hi_violation(refine=False) is None)
        assert fast is False

    @pytest.mark.parametrize("kernel", DBF_KERNELS)
    @given(mc_taskset(implicit=False))
    @settings(max_examples=40, deadline=None)
    def test_lo_feasible_exact_matches_scenario(self, kernel, ts):
        """The witness-level boolean returns the forward oracle's verdict
        under every kernel."""
        tasks = [
            _ModeTask(t.wcet_lo, t.deadline, t.period, t.wcet_lo) for t in ts
        ]
        scenario = DemandScenario(ts, {})
        expected = run_with_kernel(
            "forward", lambda: lo_verdict(ts, {}, scenario.horizon_cap)
        )
        assert run_with_kernel(
            kernel, lambda: lo_feasible_exact(tasks, scenario.horizon_cap)
        ) == expected

    @pytest.mark.parametrize("kernel", DBF_KERNELS)
    @given(scenario_inputs())
    @settings(max_examples=40, deadline=None)
    def test_engine_lo_feasible_matches_scenario(self, kernel, inputs):
        """``DemandEngine.lo_feasible`` is the scenario's LO verdict, on
        a fresh memo and on one memo shared across probes.

        Each prefix of the set is probed the way a core's analysis context
        probes it — the committed tasks plus one candidate, on a memo
        shared across candidates — at full deadlines and at the drawn
        virtual deadlines, with constrained deadlines and degraded service
        in the mix."""
        ts, vd, service = inputs
        shared: dict = {}
        for size in range(1, len(ts) + 1):
            candidate = attach(TaskSet(list(ts)[:size]), service)
            high = [t for t in candidate if t.is_high]
            full = {t.task_id: t.deadline for t in high}
            drawn = {t.task_id: vd[t.task_id] for t in high}
            for assignment in (full, drawn):
                expected = run_with_kernel(
                    "forward", lambda: lo_verdict(candidate, assignment, 100_000)
                )
                for memo in (None, shared):
                    engine = DemandEngine(candidate, 100_000, memo=memo)
                    assert run_with_kernel(
                        kernel, lambda: engine.lo_feasible(assignment)
                    ) == expected

    @pytest.mark.parametrize("kernel", DBF_KERNELS)
    def test_engine_lo_feasible_horizon_cap_is_false(self, kernel):
        """A LO horizon past the cap counts as infeasible."""
        ts = TaskSet(
            [
                MCTask(period=50, criticality=Criticality.HC, wcet_lo=10,
                       wcet_hi=12, deadline=30),
                MCTask(period=40, criticality=Criticality.LC, wcet_lo=10,
                       wcet_hi=10, deadline=25),
            ]
        )
        full = {ts[0].task_id: 30}
        with pytest.raises(dbf.HorizonExceeded):
            DemandScenario(ts, full, horizon_cap=10).lo_violation()
        engine = DemandEngine(ts, 10)
        assert run_with_kernel(kernel, lambda: engine.lo_feasible(full)) is False
        assert DemandEngine(ts, 100_000).lo_feasible(full)


# -- closed-form shrink inversion --------------------------------------------

@st.composite
def shrink_case(draw):
    period = draw(st.integers(min_value=3, max_value=50))
    wcet_lo = draw(st.integers(min_value=1, max_value=period))
    wcet_hi = draw(st.integers(min_value=wcet_lo, max_value=period))
    deadline = draw(st.integers(min_value=wcet_hi, max_value=period))
    task = MCTask(
        period=period,
        criticality=Criticality.HC,
        wcet_lo=wcet_lo,
        wcet_hi=wcet_hi,
        deadline=deadline,
    )
    vd_now = draw(st.integers(min_value=wcet_lo, max_value=deadline))
    length = draw(st.integers(min_value=0, max_value=400))
    deficit = draw(st.integers(min_value=1, max_value=80))
    return task, vd_now, length, deficit


class TestShrinkInversion:
    @given(shrink_case())
    @settings(max_examples=300, deadline=None)
    def test_closed_form_equals_bisection(self, case):
        task, vd_now, length, deficit = case
        assert shrink_to_clear(task, vd_now, length, deficit) == (
            shrink_to_clear_bisect(task, vd_now, length, deficit)
        )

    @given(shrink_case())
    @settings(max_examples=200, deadline=None)
    def test_inversion_is_minimal(self, case):
        task, vd_now, length, deficit = case
        max_shrink = vd_now - task.wcet_lo
        target = min(deficit, hi_gain(task, vd_now, max_shrink, length))
        if target <= 0:
            return
        shrink = _invert_shrink(task, vd_now, length, target)
        assert 1 <= shrink <= max_shrink
        assert hi_gain(task, vd_now, shrink, length) >= target
        if shrink > 1:
            assert hi_gain(task, vd_now, shrink - 1, length) < target


# -- closed-form V* ----------------------------------------------------------

@st.composite
def vstar_inputs(draw):
    """A task set plus one of its HC tasks to probe."""
    ts = draw(mc_taskset())
    high = [t for t in ts if t.is_high]
    if not high:
        ts = TaskSet(
            list(ts)
            + [
                MCTask(
                    period=20,
                    criticality=Criticality.HC,
                    wcet_lo=3,
                    wcet_hi=6,
                    deadline=16,
                )
            ]
        )
        high = [t for t in ts if t.is_high]
    task = high[draw(st.integers(min_value=0, max_value=len(high) - 1))]
    return ts, task


class TestVstarOwn:
    @given(vstar_inputs())
    @settings(max_examples=200, deadline=None)
    def test_matches_own_feasible_boundary(self, inputs):
        """vstar_own equals the minimal v in [floor_v, deadline] accepted
        by LoShrinkProbe._own_feasible (None when even the full deadline
        fails) — the value a bisection over that half settles on."""
        ts, task = inputs
        try:
            probe = LoShrinkProbe(DemandScenario(ts), task)
        except dbf.HorizonExceeded:
            return  # busy period past the cap; no probe to compare
        if probe._infeasible_always or probe._horizon == 0:
            return
        if len(probe._points_o) and (probe._slack_o < 0).any():
            return  # others alone infeasible: V* is None before vstar_own
        # The others-half floor: minimal v whose demand at the others'
        # breakpoints fits their slack (monotone in v by construction).
        floor_v = None
        for v in range(task.wcet_lo, task.deadline + 1):
            x = probe._points_o - v
            jobs = np.where(x >= 0, x // task.period + 1, 0)
            if not np.any(jobs * task.wcet_lo > probe._slack_o):
                floor_v = v
                break
        if floor_v is None:
            return  # no feasible deadline at all
        expected = None
        for v in range(floor_v, task.deadline + 1):
            if probe._own_feasible(v):
                expected = v
                break
        assert probe.vstar_own(floor_v) == expected

    def test_empty_window_returns_floor(self):
        task = MCTask(
            period=10,
            criticality=Criticality.HC,
            wcet_lo=2,
            wcet_hi=4,
            deadline=8,
        )
        probe = LoShrinkProbe.__new__(LoShrinkProbe)
        probe._task = task
        probe._infeasible_always = False
        probe._horizon = 100
        probe._points_o = np.empty(0, dtype=np.int64)
        probe._slack_o = np.empty(0, dtype=np.int64)
        assert probe.vstar_own(3) == 3

    @pytest.mark.parametrize("kernel", DBF_KERNELS)
    @given(
        mc_taskset(),
        st.sampled_from(["full-drop", "imprecise:0.5", "elastic:1.5"]),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_warm_shrink_equals_bisection_under_every_kernel(
        self, kernel, ts, service, data
    ):
        """Under every kernel max_lo_feasible_shrink — accept screens
        first, closed-form V* behind them, cached across repeated asks —
        returns the shrink a desired-bounded bisection over the scenario's
        LoShrinkProbe finds, and so does the shrink implied by
        lo_min_deadline's closed-form V*."""
        tagged = attach(ts, service)
        high = [t for t in tagged if t.is_high]
        if not high:
            return
        vd = {
            t.task_id: data.draw(
                st.integers(min_value=t.wcet_lo, max_value=t.deadline)
            )
            for t in high
        }
        asks = [
            (task, data.draw(st.integers(1, vd[task.task_id] - task.wcet_lo)))
            for task in high
            if vd[task.task_id] > task.wcet_lo
        ]

        def bisection():
            scenario = DemandScenario(tagged, vd, horizon_cap=100_000)
            out = []
            for task, desired in asks:
                base = vd[task.task_id]
                try:
                    probe = scenario.lo_shrink_probe(task)
                except dbf.HorizonExceeded:
                    out.append(0)
                    continue
                lo, hi = 0, desired
                while lo < hi:
                    mid = (lo + hi + 1) // 2
                    if probe.feasible(base - mid):
                        lo = mid
                    else:
                        hi = mid - 1
                out.append(lo)
            return out * 2

        def shrinks():
            engine = DemandEngine(tagged, 100_000)
            # Ask twice so the second round answers from the warm cache.
            return [
                engine.max_lo_feasible_shrink(vd, task, desired)
                for _ in range(2)
                for task, desired in asks
            ]

        def implied():
            engine = DemandEngine(tagged, 100_000, memo={})
            out = []
            for task, desired in asks:
                v_star = engine.lo_min_deadline(vd, task)
                slack = 0 if v_star is None else vd[task.task_id] - v_star
                out.append(min(desired, max(0, slack)))
            return out * 2

        expected = bisection()
        assert run_with_kernel(kernel, shrinks) == expected
        assert run_with_kernel(kernel, implied) == expected

    @pytest.mark.parametrize("kernel", DBF_KERNELS)
    def test_wcet_above_period_never_shrinks_via_engine(self, kernel):
        """A C_L > T task overloads LO mode on its own, so the engine
        reports no feasible deadline before any V* inversion runs."""
        task = MCTask(
            period=5,
            criticality=Criticality.HC,
            wcet_lo=6,
            wcet_hi=6,
            deadline=8,
        )
        other = MCTask(
            period=20,
            criticality=Criticality.LC,
            wcet_lo=1,
            wcet_hi=1,
            deadline=20,
        )
        ts = TaskSet([task, other])
        vd = {task.task_id: task.deadline}

        def query():
            engine = DemandEngine(ts, 100_000)
            return (
                engine.lo_min_deadline(vd, task),
                engine.max_lo_feasible_shrink(vd, task, 2),
            )

        assert run_with_kernel(kernel, query) == (None, 0)


# -- kernel switch / counters -------------------------------------------------

class TestKernelControls:
    @pytest.mark.parametrize("name", DBF_KERNELS)
    def test_kernel_switch_round_trip(self, name):
        """set_demand_kernel accepts every name the env knob and the CLI
        offer, and hands back the previous kernel."""
        before = demand_kernel()
        assert before in DBF_KERNELS
        previous = set_demand_kernel(name)
        try:
            assert previous == before
            assert demand_kernel() == name
        finally:
            set_demand_kernel(previous)
        assert demand_kernel() == before

    @pytest.mark.parametrize(
        "name", ["sideways", "vec", "VEC", "", "qpa ", "Forward", "forward"]
    )
    def test_unknown_kernel_rejected(self, name):
        """Unknown names, the retired ``vec`` and ``forward`` among them,
        are refused with the list of valid kernels: no case folding, no
        trimming, no empty fallback, and the active kernel stays as it
        was."""
        before = demand_kernel()
        with pytest.raises(
            ValueError, match="unknown demand kernel .*; choose from qpa\\|block$"
        ):
            set_demand_kernel(name)
        assert demand_kernel() == before

    def test_counters_accumulate_and_reset(self, qpa_kernel):
        dbf.reset_kernel_counters()
        ts = TaskSet(
            [
                MCTask(
                    period=20,
                    criticality=Criticality.HC,
                    wcet_lo=2,
                    wcet_hi=4,
                    deadline=12,
                )
            ]
        )
        DemandScenario(ts, {ts[0].task_id: 6}).schedulable()
        counters = dbf.kernel_counters()
        assert set(counters) == {
            "qpa-accept",
            "approx-accept",
            "qpa-iterations",
            "qpa-runs",
            "floor-reject",
            "floor-reject-refined",
        }
        assert sum(counters.values()) > 0
        dbf.reset_kernel_counters()
        assert sum(dbf.kernel_counters().values()) == 0


# -- the forward walk ---------------------------------------------------------

class TestFirstViolation:
    @given(
        scenario_inputs(),
        st.integers(min_value=0, max_value=150),
        st.integers(min_value=0, max_value=160),
        st.one_of(st.none(), st.integers(min_value=0, max_value=170)),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_scan(self, inputs, horizon, start, stop, ramps):
        """The walk returns the first violating check point of the whole
        array scan at or after ``start`` and below ``stop``, with the demand
        there — LO, HI and refined HI, ramps on and off, degraded LC rows
        (``n_trigger < len(tasks)``) included."""
        ts, vd, service = inputs
        scenario = DemandScenario(attach(ts, service), vd)
        for tasks, _, demand_fn, demand_at in demand_modes(scenario):
            points = DemandScenario._breakpoints(tasks, horizon, ramps=ramps)
            demand = demand_fn(points)
            mask = (points >= start) & (demand > points)
            if stop is not None:
                mask &= points < stop
            expected = None
            if mask.any():
                where = int(np.argmax(mask))
                expected = (int(points[where]), int(demand[where]))
            found = first_violation(tasks, start, horizon, demand_at, ramps, stop)
            assert found == expected

    @pytest.mark.parametrize("horizon", [36, 37, 40])
    @pytest.mark.parametrize("ramps", [False, True])
    def test_visits_each_check_point_once_in_order(self, horizon, ramps):
        """Without a violation the walk evaluates exactly the distinct
        reference check points, ascending — the horizon once, whether or
        not it is itself a breakpoint (36 is a jump, 37 a ramp end)."""
        tasks = [_ModeTask(3, 6, 10, 2), _ModeTask(1, 4, 16, 1)]
        seen = []

        def demand_at(length):
            seen.append(length)
            return 0

        assert first_violation(tasks, 0, horizon, demand_at, ramps) is None
        reference = DemandScenario._breakpoints(tasks, horizon, ramps)
        assert seen == sorted(set(reference.tolist()))
        assert seen[-1] == horizon

    def test_violation_at_horizon_breakpoint(self):
        tasks = [_ModeTask(3, 6, 10, 2)]
        demand_at = lambda length: length + 1 if length == 26 else 0
        assert first_violation(tasks, 0, 26, demand_at, True) == (26, 27)
        assert first_violation(tasks, 0, 26, demand_at, True, stop=26) is None

    def test_stop_excludes_a_horizon_past_the_last_breakpoint(self):
        """With no breakpoint left before the horizon, the horizon is the
        next check point, and a ``stop`` at or below it excludes it."""
        tasks = [_ModeTask(1, 50, 100, 1)]
        demand_at = lambda length: length + 1
        assert first_violation(tasks, 9, 10, demand_at, False) == (10, 11)
        assert first_violation(tasks, 9, 10, demand_at, False, stop=11) == (10, 11)
        assert first_violation(tasks, 9, 10, demand_at, False, stop=10) is None

    def test_start_past_horizon_finds_nothing(self):
        tasks = [_ModeTask(5, 3, 10, 5)]
        demand_at = lambda length: _lo_point_demand(tasks, length)
        assert first_violation(tasks, 0, 20, demand_at, False) == (3, 5)
        assert first_violation(tasks, 21, 20, demand_at, False) is None
        assert first_violation(tasks, 0, 20, demand_at, False, stop=3) is None

    @pytest.mark.parametrize("refine", [False, True])
    def test_zero_wcet_lo_has_no_ramp_family(self, refine):
        """``wcet_lo = 0`` contributes jumps only, like ``_breakpoints``,
        and no carry-over reduction or trigger cut."""
        tasks = [_ModeTask(7, 2, 9, 0), _ModeTask(4, 5, 12, 3)]
        horizon = 60
        reference = reference_violations(
            tasks, horizon, True,
            lambda points: reference_hi_demand(tasks, points, refine),
        )
        found = first_violation(
            tasks, 0, horizon,
            lambda length: _hi_point_demand(tasks, length, refine),
            ramps=True,
        )
        assert reference and found[0] == reference[0]
        seen = []
        first_violation(
            tasks, 0, horizon, lambda length: seen.append(length) or 0, True
        )
        assert seen == sorted(
            set(DemandScenario._breakpoints(tasks, horizon, True).tolist())
        )


# -- aborted QPA searches bound the forward fallback --------------------------

class TestAbortBound:
    @given(
        st.one_of(scenario_inputs(), saturated_inputs()),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_last_iterate_bounds_every_violation(self, inputs, cap):
        """An aborted search's last iterate lies at or above every violating
        check point, so the walk up to it finds the earliest violation."""
        ts, vd, service = inputs
        scenario = DemandScenario(attach(ts, service), vd)
        horizon = 400
        for tasks, ramps, demand_fn, demand_at in demand_modes(scenario):
            status, bound, _ = qpa_violation_search(
                tasks, horizon, demand_at, ramps=ramps, max_iters=cap
            )
            if status != "abort":
                continue
            violating = reference_violations(tasks, horizon, ramps, demand_fn)
            assert all(point <= bound for point in violating)
            found = first_violation(tasks, 0, bound, demand_at, ramps)
            assert (found and found[0]) == (violating[0] if violating else None)

    @pytest.mark.parametrize("narrow", [False, True])
    @given(
        st.one_of(scenario_inputs(), saturated_inputs()),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=80, deadline=None)
    def test_capped_checks_equal_forward(self, narrow, inputs, cap):
        """With QPA forced to abort after 1-3 iterations, the scenario- and
        engine-level checks still return the forward kernel's answers.

        ``narrow`` shrinks the engine's first window to one point (its
        width is a cost choice only), so most HI checks reach the QPA
        search and the forward fallback behind it."""
        ts, vd, service = inputs
        tagged = attach(ts, service)
        hi_meta = DemandEngine._hi_meta

        def narrow_meta(engine, sig, tasks):
            state, _ = hi_meta(engine, sig, tasks)
            return (state, float("inf"))

        def outcome(fn):
            try:
                return fn()
            except dbf.HorizonExceeded:
                return "raise"

        def checks():
            scenario = DemandScenario(tagged, vd)
            out = [outcome(scenario.lo_violation)]
            banked = DemandEngine(tagged, 100_000, memo={})
            fresh = DemandEngine(tagged, 100_000, memo={})
            out.append(outcome(lambda: banked.lo_feasible(vd)))
            for refine in (False, True):
                out.append(outcome(lambda: scenario.hi_violation(refine=refine)))
                out.append(outcome(lambda: banked.hi_feasible(vd, refine)))
                out.append(outcome(lambda: banked.hi_check(vd, refine)))
                out.append(outcome(lambda: fresh.hi_check(vd, refine)))
            return out

        expected = run_with_kernel("forward", checks)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dbf, "_QPA_ITER_CAP", cap)
            if narrow:
                patch.setattr(DemandEngine, "_hi_meta", narrow_meta)
            assert run_with_kernel("qpa", checks) == expected

    @pytest.mark.parametrize(
        "params, deadlines, service, cap, refine, expected",
        [
            # (period, HC?, C_L, C_H, D) per task; Dv per HC task
            (
                [(16, True, 3, 5, 9), (21, True, 2, 13, 21),
                 (40, False, 1, 1, 18)],
                [5, 4], "full-drop", 3, False, (39, 40),
            ),
            (
                [(31, True, 1, 3, 18), (10, True, 1, 8, 8)],
                [1, 1], "imprecise:0.5", 1, False, (18, 19),
            ),
        ],
    )
    def test_fallback_walks_up_to_the_last_iterate(
        self, params, deadlines, service, cap, refine, expected
    ):
        """Pinned: behind a one-point first window and an aborted search,
        the earliest violation lies above half the search's last iterate,
        so a fallback walk cut short of that iterate would miss it."""
        ts = attach(
            TaskSet(
                [
                    MCTask(
                        period=period,
                        criticality=Criticality.HC if high else Criticality.LC,
                        wcet_lo=wcet_lo,
                        wcet_hi=wcet_hi,
                        deadline=deadline,
                    )
                    for period, high, wcet_lo, wcet_hi, deadline in params
                ]
            ),
            service,
        )
        vd = {
            t.task_id: v for t, v in zip([t for t in ts if t.is_high], deadlines)
        }
        hi_meta = DemandEngine._hi_meta

        def narrow_meta(engine, sig, tasks):
            state, _ = hi_meta(engine, sig, tasks)
            return (state, float("inf"))

        def check():
            return DemandEngine(ts, 100_000).hi_check(vd, refine)[:2]

        assert run_with_kernel("forward", check) == expected
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dbf, "_QPA_ITER_CAP", cap)
            patch.setattr(DemandEngine, "_hi_meta", narrow_meta)
            assert run_with_kernel("qpa", check) == expected

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_floor_fallback_finds_violation_past_screen_points(self, cap):
        """Pinned: at the V* floor (every HC task at ``Dv = C^L``) the
        refined HI demand first violates at 49, past every step point the
        k-step screen would check and out of the capped search's reach, so
        only the forward fallback up to the last iterate settles it — and
        the tuning rejects there, at the floor."""
        ts = hc_set([(12, 6, 6, 7), (27, 8, 13, 21)])
        floor_vd = {t.task_id: t.wcet_lo for t in ts}
        floor_tasks = DemandScenario(ts, floor_vd)._hi
        assert floor_tasks == [_ModeTask(6, 1, 12, 6), _ModeTask(13, 13, 27, 8)]
        assert reference_violations(
            floor_tasks, 400, True,
            lambda points: reference_hi_demand(floor_tasks, points, True),
        )[0] == 49
        assert 49 not in dbf._screen_points(floor_tasks, 400, dbf._APPROX_K)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dbf, "_QPA_ITER_CAP", cap)
            engine = DemandEngine(ts, 100_000, memo={})
            assert run_with_kernel(
                "qpa", lambda: engine.hi_violation(floor_vd, True)
            ) == 49
            outcome = run_with_kernel(
                "qpa",
                lambda: vdtuning.tune_virtual_deadlines(ts, "ratio", True, 100_000),
            )
        assert not outcome.schedulable
        assert outcome.detail == "HI infeasible even at minimal Dv (l*=49)"

    @given(
        st.one_of(mc_taskset(), saturated_inputs().map(lambda inputs: inputs[0])),
        st.integers(min_value=1, max_value=3),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_capped_floor_check_equals_reference(self, ts, cap, refine):
        """The tuning's floor-HI decision (every HC task at ``Dv = C^L``)
        under an aborting QPA: the engine returns the reference scan's
        earliest violation over the scenario's own horizon."""
        high = [t for t in ts if t.is_high]
        if not high:
            return
        floor_vd = {t.task_id: t.wcet_lo for t in high}
        floor_tasks = DemandScenario(ts, floor_vd)._hi
        cap_horizon = 100_000
        try:
            horizon = DemandScenario._horizon(floor_tasks, cap_horizon)
        except dbf.HorizonExceeded:
            return
        if horizon is None:
            return  # overload: the marker convention, not an exact front
        horizon = max(horizon, max(t.deadline for t in floor_tasks))
        if horizon > cap_horizon:
            return
        violating = reference_violations(
            floor_tasks, horizon, True,
            lambda points: reference_hi_demand(floor_tasks, points, refine),
        )
        expected = violating[0] if violating else None
        hi_meta = DemandEngine._hi_meta

        def narrow_meta(engine, sig, tasks):
            state, _ = hi_meta(engine, sig, tasks)
            return (state, float("inf"))

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dbf, "_QPA_ITER_CAP", cap)
            patch.setattr(DemandEngine, "_hi_meta", narrow_meta)
            engine = DemandEngine(ts, cap_horizon, memo={})
            assert run_with_kernel(
                "qpa", lambda: engine.hi_violation(floor_vd, refine)
            ) == expected
