"""The scalar k-step screen against its numpy reference.

``repro.analysis.dbf.approx_accepts`` folds the Fisher–Baruah-style
upper bound over its candidate points in pure Python and stops at the
first failing point.  The functions below are the vectorized screen it
replaced, kept in its LO form as a differential oracle: both must return the
same boolean on every input, since the screen's verdicts feed every
deterministic counter of the tuning descent.

The HI side has no screen: its degenerate shapes (residual deadline 0,
``wcet_lo = 0``, ``wcet_lo > period``, a degraded LC budget below
``C^L``) go straight to the exact search, so the tests that pin them
compare that search against a scan of every integer length.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.dbf import (
    DemandScenario,
    _ModeTask,
    _hi_point_demand,
    approx_accepts,
    first_violation,
    qpa_violation_search,
    sporadic_dbf,
)
from repro.degradation.service import parse_service_model
from repro.model import Criticality, MCTask, TaskSet


def reference_ub_screen_points(tasks, horizon: int, k: int) -> np.ndarray:
    """Candidate maxima of the k-step upper bound in ``[0, horizon]``."""
    families = [np.asarray([horizon], dtype=np.int64)]
    for t in tasks:
        if t.deadline > horizon:
            continue
        families.append(
            np.arange(
                t.deadline,
                min(t.deadline + k * t.period, horizon) + 1,
                t.period,
                dtype=np.int64,
            )
        )
    return np.concatenate(families)


def reference_approx_accepts(tasks, horizon: int, k: int) -> bool:
    """The numpy k-step screen: staircase below ``d + kT``, integer-ceiling
    chord from there on, checked at every candidate point at once."""
    if not tasks or horizon < 0:
        return True
    points = reference_ub_screen_points(tasks, horizon, k)
    deadline = np.array([t.deadline for t in tasks], dtype=np.int64)[:, None]
    period = np.array([t.period for t in tasks], dtype=np.int64)[:, None]
    wcet = np.array([t.wcet for t in tasks], dtype=np.int64)[:, None]
    x = points[None, :] - deadline
    active = x >= 0
    xa = np.where(active, x, 0)
    stair = (xa // period + 1) * wcet
    chord = -((-wcet * (xa + period)) // period)
    exact = points[None, :] < deadline + k * period
    total = np.where(active, np.where(exact, stair, chord), 0).sum(axis=0)
    return bool((total <= points).all())


def scan_hi_violation(tasks, horizon: int, refine: bool, n_trigger=None):
    """Earliest integer ``l`` in ``[0, horizon]`` with HI demand above
    ``l``, found by evaluating every length, breakpoint or not."""
    for length in range(horizon + 1):
        if _hi_point_demand(tasks, length, refine, n_trigger) > length:
            return length
    return None


def assert_exact_hi_matches_scan(tasks, horizon: int, refine: bool, n_trigger=None):
    """The QPA search and the forward walk over the ramped breakpoints
    agree with :func:`scan_hi_violation` on ``[0, horizon]``."""
    expected = scan_hi_violation(tasks, horizon, refine, n_trigger)
    demand_at = lambda length: _hi_point_demand(tasks, length, refine, n_trigger)
    status, _, _ = qpa_violation_search(tasks, horizon, demand_at, ramps=True)
    assert status == ("pass" if expected is None else "violation")
    found = first_violation(tasks, 0, horizon, demand_at, ramps=True)
    assert (found and found[0]) == expected


@st.composite
def mode_task(draw):
    """One mode task, including the degenerate shapes real lists can hold:
    deadline 0 and ``wcet = 0``."""
    period = draw(st.integers(min_value=1, max_value=60))
    return _ModeTask(
        wcet=draw(st.integers(min_value=0, max_value=period)),
        deadline=draw(st.integers(min_value=0, max_value=2 * period)),
        period=period,
        wcet_lo=draw(st.integers(min_value=0, max_value=period + 5)),
    )


@st.composite
def screen_case(draw):
    tasks = draw(st.lists(mode_task(), min_size=1, max_size=20))
    smallest = min(t.deadline for t in tasks)
    horizon = draw(
        st.one_of(
            st.just(0),
            st.integers(min_value=-1, max_value=max(-1, smallest - 1)),
            st.integers(min_value=0, max_value=5_000),
        )
    )
    return tasks, horizon, draw(st.sampled_from([1, 2, 3, 5]))


class TestScreenOracle:
    @given(screen_case())
    @settings(max_examples=400, deadline=None)
    def test_scalar_screen_matches_numpy_reference(self, case):
        tasks, horizon, k = case
        assert approx_accepts(tasks, horizon, k=k) == (
            reference_approx_accepts(tasks, horizon, k)
        )

    def test_default_k_matches_reference(self):
        """``k=None`` reads the module's configured depth."""
        from repro.analysis.dbf import _APPROX_K

        tasks = [_ModeTask(3, 5, 10, 2), _ModeTask(4, 9, 14, 4)]
        for horizon in (0, 4, 30, 200):
            assert approx_accepts(tasks, horizon) == (
                reference_approx_accepts(tasks, horizon, _APPROX_K)
            )

    @pytest.mark.parametrize("horizon", [0, 7, 40, 400])
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_zero_residual_deadline(self, horizon, k):
        """An HC task whose virtual deadline is its real deadline enters HI
        mode with residual deadline 0: its first step sits at ``l = 0``.
        The screen counts that step on any list holding it, and the exact
        HI search finds the scan's earliest violation with it in place."""
        task = MCTask(
            period=20, criticality=Criticality.HC, wcet_lo=3, wcet_hi=7,
            deadline=15,
        )
        other = MCTask(
            period=30, criticality=Criticality.HC, wcet_lo=2, wcet_hi=5,
            deadline=30,
        )
        ts = TaskSet([task, other])
        scenario = DemandScenario(ts, {task.task_id: 15, other.task_id: 20})
        tasks = scenario._hi
        assert tasks[0].deadline == 0
        assert approx_accepts(tasks, horizon, k=k) == (
            reference_approx_accepts(tasks, horizon, k)
        )
        for refine in (False, True):
            assert_exact_hi_matches_scan(tasks, horizon, refine)

    @pytest.mark.parametrize("horizon", [0, 2, 3, 25, 300])
    @pytest.mark.parametrize("refine", [False, True])
    def test_zero_lo_budget(self, refine, horizon):
        """``wcet_lo = 0`` adds no ramp ends, no carry-over reduction and no
        trigger cut: the HI demand is the plain sporadic demand."""
        tasks = [_ModeTask(4, 3, 10, 0), _ModeTask(2, 6, 7, 0)]
        assert (
            DemandScenario._breakpoints(tasks, horizon, ramps=True).tolist()
            == DemandScenario._breakpoints(tasks, horizon, ramps=False).tolist()
        )
        for length in range(horizon + 1):
            assert _hi_point_demand(tasks, length, refine) == sum(
                sporadic_dbf(t.wcet, t.deadline, t.period, length) for t in tasks
            )
        assert_exact_hi_matches_scan(tasks, horizon, refine)
        for k in (1, 2, 3, 5):
            assert approx_accepts(tasks, horizon, k=k) == (
                reference_approx_accepts(tasks, horizon, k)
            )

    @pytest.mark.parametrize("horizon", [0, 10, 16, 60, 500])
    def test_lo_budget_above_period(self, horizon):
        """``wcet_lo > period`` clips the ramp at ``min(C^L, T)``, which puts
        each ramp end on the next jump; the jumps alone then carry every
        violation the exact HI search must find."""
        tasks = [_ModeTask(9, 4, 6, 11), _ModeTask(1, 2, 9, 3)]
        clipped = [_ModeTask(9, 4, 6, 11)]
        assert set(
            DemandScenario._breakpoints(clipped, horizon, ramps=True).tolist()
        ) == set(DemandScenario._breakpoints(clipped, horizon, ramps=False).tolist())
        for refine in (False, True):
            assert_exact_hi_matches_scan(tasks, horizon, refine)
        for k in (1, 2, 3, 5):
            assert approx_accepts(tasks, horizon, k=k) == (
                reference_approx_accepts(tasks, horizon, k)
            )

    def test_carry_over_clamped_at_degraded_budget(self):
        """A degraded LC task's carry-over reduction stops at its budget.

        At ``l = 0`` the HC task at ``Dv = D`` demands ``3 - 2 = 1``; the
        imprecise LC task (``C^L = 5``, budget ``floor(0.4 * 5) = 2``)
        demands ``2 - min(2, 5) = 0``.  The total 1 exceeds 0, so the HI
        check fails at ``l = 0``; an unclamped reduction (``2 - 5``) would
        pass there.
        """
        hc = MCTask(
            period=20, criticality=Criticality.HC, wcet_lo=2, wcet_hi=3,
            deadline=20,
        )
        lc = MCTask(
            period=10, criticality=Criticality.LC, wcet_lo=5, wcet_hi=5,
            deadline=10,
        )
        service = parse_service_model("imprecise:0.4")
        ts = TaskSet([hc, lc], service_model=service)
        scenario = DemandScenario(ts, {hc.task_id: 20})
        tasks = scenario._hi + scenario._hi_lc
        assert tasks[1] == _ModeTask(2, 0, 10, 5)
        assert scenario.hi_demand_at(0) == 1
        assert scenario.hi_violation() == 0
        assert_exact_hi_matches_scan(tasks, 40, False, len(scenario._hi))

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_lo_tasks_of_a_scenario(self, k):
        """The screen's real input: the LO list of a mixed scenario, an HC
        task at a virtual deadline below its real one included."""
        hc = MCTask(
            period=20, criticality=Criticality.HC, wcet_lo=3, wcet_hi=7,
            deadline=15,
        )
        lc = MCTask(
            period=30, criticality=Criticality.LC, wcet_lo=4, wcet_hi=4,
            deadline=25,
        )
        tasks = DemandScenario(TaskSet([hc, lc]), {hc.task_id: 6})._lo
        assert tasks[0].deadline == 6
        for horizon in (0, 5, 6, 40, 400):
            assert approx_accepts(tasks, horizon, k=k) == (
                reference_approx_accepts(tasks, horizon, k)
            )

    def test_blend_point_takes_the_chord(self):
        """At and past ``l = d + kT`` the bound is the chord, not the
        staircase.

        Task A (C = 9, d = 9, T = 10) and task B (C = 2, d = 20) at horizon
        20, where the exact demand is ``18 + 2 = 20`` and fits.  With
        ``k = 1`` the point 20 lies past A's blend point 19, so A counts
        its chord ``ceil(9 * 21 / 10) = 19`` and the screen rejects; with
        ``k = 2`` A is still on its staircase, so the screen accepts.
        """
        tasks = [_ModeTask(9, 9, 10, 9), _ModeTask(2, 20, 100, 2)]
        assert approx_accepts(tasks, 20, k=1) is False
        assert reference_approx_accepts(tasks, 20, 1) is False
        assert approx_accepts(tasks, 20, k=2) is True
        assert reference_approx_accepts(tasks, 20, 2) is True

    def test_empty_and_negative_horizon_accept(self):
        assert approx_accepts([], 50) is True
        assert approx_accepts([_ModeTask(99, 0, 10, 1)], -1) is True
