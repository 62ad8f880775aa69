"""Differential suite for the QPA demand kernel (PR 5).

The QPA backward fixed-point search, the Fisher–Baruah-style upper-bound
screens and the descent warm starts are all *cost* layers: every verdict,
violation point and tuning outcome must equal the forward breakpoint
oracle's.  These tests assert that equivalence — across random task sets,
service models, refinement on/off, scenario- and engine-level entry points
— plus the closed-form shrink inversion and the closed-form V* against
the historical bisections, and the window-tiling regression of
``_window_points``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import dbf
from repro.analysis.dbf import (
    DemandScenario,
    LoShrinkProbe,
    _ModeTask,
    _first_violation,
    _hi_point_demand,
    _lo_point_demand,
    _next_breakpoint,
    _prev_breakpoint,
    approx_accepts,
    demand_kernel,
    lo_feasible_exact,
    qpa_violation_search,
    set_demand_kernel,
)
from repro.analysis.vdtuning import (
    DemandEngine,
    _hi_gain,
    _invert_shrink,
    _shrink_to_clear,
    _shrink_to_clear_bisect,
    _window_points,
    run_tuning_stages,
)
from repro.degradation.service import parse_service_model
from repro.model import Criticality, MCTask, TaskSet
from repro.util.env import DBF_KERNELS


@pytest.fixture
def qpa_kernel():
    previous = set_demand_kernel("qpa")
    yield
    set_demand_kernel(previous)


def run_with_kernel(kernel, fn):
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


def attach(ts, service):
    if service == "full-drop":
        return ts
    return TaskSet(list(ts), service_model=parse_service_model(service))


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

    @given(scenario_inputs())
    @settings(max_examples=100, deadline=None)
    def test_upper_bound_screen_is_sound(self, inputs):
        """approx_accepts == True implies the exact scan finds no
        violation (for every k, both modes, refined and not)."""
        ts, vd, service = inputs
        scenario = DemandScenario(attach(ts, service), vd)
        horizon = 150
        for tasks, hi in ((scenario._lo, False), (scenario._hi + scenario._hi_lc, True)):
            if not tasks:
                continue
            for k in (1, 2, 5):
                if not approx_accepts(tasks, horizon, hi=hi, k=k):
                    continue
                points = DemandScenario._breakpoints(tasks, horizon, ramps=hi)
                if hi:
                    demand = DemandScenario._hi_demand(
                        tasks, points, False, len(scenario._hi)
                    )
                    refined = DemandScenario._hi_demand(
                        tasks, points, True, len(scenario._hi)
                    )
                    assert not (refined > points).any()
                else:
                    demand = DemandScenario._lo_demand(tasks, points)
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
    @settings(max_examples=60, deadline=None)
    def test_tuning_outcomes_identical(self, ts, service):
        """run_tuning_stages returns the identical TuningOutcome —
        including the iteration count, i.e. the descent trajectory — under
        both kernels, for EY and ECDF chains, fresh and memo-backed
        engines alike."""
        tagged = attach(ts, service)
        chains = (
            (("steepest", False),),
            (("ratio", True), ("steepest", True), ("steepest", False)),
        )
        for stages in chains:
            outcomes = []
            for kernel in ("forward", "qpa"):
                for memo in (None, {}):
                    def run():
                        engine = DemandEngine(tagged, 100_000, memo=memo)
                        return run_tuning_stages(
                            tagged, stages, 100_000, engine=engine
                        )
                    outcomes.append(run_with_kernel(kernel, run))
            first = outcomes[0]
            for other in outcomes[1:]:
                assert other.schedulable == first.schedulable
                assert other.virtual_deadlines == first.virtual_deadlines
                assert other.detail == first.detail
                assert other.iterations == first.iterations

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

    @given(mc_taskset(implicit=False))
    @settings(max_examples=40, deadline=None)
    def test_lo_feasible_exact_matches_scenario(self, ts):
        tasks = [
            _ModeTask(t.wcet_lo, t.deadline, t.period, t.wcet_lo) for t in ts
        ]
        scenario = DemandScenario(ts, {})
        try:
            expected = scenario.lo_violation() is None
        except dbf.HorizonExceeded:
            expected = False
        assert lo_feasible_exact(tasks, scenario.horizon_cap) == expected


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
        assert _shrink_to_clear(task, vd_now, length, deficit) == (
            _shrink_to_clear_bisect(task, vd_now, length, deficit)
        )

    @given(shrink_case())
    @settings(max_examples=200, deadline=None)
    def test_inversion_is_minimal(self, case):
        task, vd_now, length, deficit = case
        max_shrink = vd_now - task.wcet_lo
        target = min(deficit, _hi_gain(task, vd_now, max_shrink, length))
        if target <= 0:
            return
        shrink = _invert_shrink(task, vd_now, length, target)
        assert 1 <= shrink <= max_shrink
        assert _hi_gain(task, vd_now, shrink, length) >= target
        if shrink > 1:
            assert _hi_gain(task, vd_now, shrink - 1, length) < target


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
        """Under every kernel the memo-backed max_lo_feasible_shrink —
        accept screens first, closed-form V* behind them, cached across
        repeated asks — returns the memo-free bisection's shrink, and so
        does the shrink implied by lo_min_deadline's closed-form V*."""
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

        def shrinks(memo):
            engine = DemandEngine(tagged, 100_000, memo=memo)
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

        expected = run_with_kernel("forward", lambda: shrinks(None))
        assert run_with_kernel(kernel, lambda: shrinks({})) == expected
        assert run_with_kernel(kernel, implied) == expected

    @pytest.mark.parametrize("kernel", DBF_KERNELS)
    def test_wcet_above_period_never_shrinks_via_engine(self, kernel):
        """A C_L > T task overloads LO mode on its own, so both engines
        report no feasible deadline before any V* inversion runs."""
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
            warm = DemandEngine(ts, 100_000, memo={})
            cold = DemandEngine(ts, 100_000)
            return (
                warm.lo_min_deadline(vd, task),
                warm.max_lo_feasible_shrink(vd, task, 2),
                cold.max_lo_feasible_shrink(vd, task, 2),
            )

        assert run_with_kernel(kernel, query) == (None, 0, 0)


# -- window tiling regression (satellite) ------------------------------------

class TestWindowTiling:
    @given(scenario_inputs(), st.integers(min_value=1, max_value=40))
    @settings(max_examples=80, deadline=None)
    def test_window_tiles_reproduce_breakpoint_multiset(self, inputs, width):
        """Tiling the axis with _window_points reproduces the exact
        _breakpoints multiset — the property the windowed scan's
        correctness (and the simplified clamps) rests on."""
        ts, vd, service = inputs
        scenario = DemandScenario(attach(ts, service), vd)
        for tasks, ramps in (
            (scenario._lo, False),
            (scenario._hi + scenario._hi_lc, True),
        ):
            if not tasks:
                continue
            horizon = 120
            tiles = []
            start = 0
            while start <= horizon:
                tiles.append(
                    _window_points(tasks, horizon, start, start + width, ramps)
                )
                start += width
            tiled = np.sort(np.concatenate(tiles))
            reference = DemandScenario._breakpoints(tasks, horizon, ramps)
            assert tiled.tolist() == reference.tolist()


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
        "name", ["sideways", "vec", "VEC", "", "qpa ", "Forward"]
    )
    def test_unknown_kernel_rejected(self, name):
        """Unknown names, the retired ``vec`` among them, are refused with
        the list of valid kernels: no case folding, no trimming, no empty
        fallback, and the active kernel stays as it was."""
        before = demand_kernel()
        with pytest.raises(
            ValueError, match="unknown demand kernel .*forward\\|qpa\\|block"
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
            "approx-reject",
            "qpa-iterations",
            "qpa-runs",
        }
        assert sum(counters.values()) > 0
        dbf.reset_kernel_counters()
        assert sum(dbf.kernel_counters().values()) == 0


class TestForwardOracle:
    @given(scenario_inputs())
    @settings(max_examples=60, deadline=None)
    def test_first_violation_agrees_with_pointwise_scan(self, inputs):
        """The chunked forward scan (the oracle itself) equals a naive
        full-array evaluation — anchoring the whole differential chain."""
        ts, vd, service = inputs
        scenario = DemandScenario(attach(ts, service), vd)
        tasks = scenario._lo
        horizon = 100
        points = DemandScenario._breakpoints(tasks, horizon, ramps=False)
        found = _first_violation(
            points, lambda chunk: DemandScenario._lo_demand(tasks, chunk)
        )
        demand = DemandScenario._lo_demand(tasks, points)
        mask = demand > points
        expected = int(points[np.argmax(mask)]) if mask.any() else None
        assert found == expected
