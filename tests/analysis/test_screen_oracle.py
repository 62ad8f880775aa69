"""The scalar k-step screen against its numpy reference.

``repro.analysis.dbf.approx_accepts`` folds the Fisher–Baruah-style
upper bound over its candidate points in pure Python and stops at the
first failing point.  The functions below are the vectorized screen it
replaced, kept verbatim as a differential oracle: both must return the
same boolean on every input, since the screen's verdicts feed every
deterministic counter of the tuning descent.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.dbf import DemandScenario, _ModeTask, approx_accepts
from repro.degradation.service import parse_service_model
from repro.model import Criticality, MCTask, TaskSet


def reference_ub_screen_points(
    tasks, horizon: int, k: int, ramps: bool
) -> np.ndarray:
    """Candidate maxima of the k-step upper bound in ``[0, horizon]``."""
    families = [np.asarray([horizon], dtype=np.int64)]
    for t in tasks:
        if t.deadline > horizon:
            continue
        jumps = np.arange(
            t.deadline,
            min(t.deadline + k * t.period, horizon) + 1,
            t.period,
            dtype=np.int64,
        )
        families.append(jumps)
        if ramps and t.wcet_lo > 0:
            ends = jumps + min(t.wcet_lo, t.period)
            families.append(ends[ends <= horizon])
    return np.concatenate(families)


def reference_approx_accepts(tasks, horizon: int, hi: bool, k: int) -> bool:
    """The numpy k-step screen: staircase below ``d + kT``, integer-ceiling
    chord from there on, checked at every candidate point at once."""
    if not tasks or horizon < 0:
        return True
    points = reference_ub_screen_points(tasks, horizon, k, ramps=hi)
    deadline = np.array([t.deadline for t in tasks], dtype=np.int64)[:, None]
    period = np.array([t.period for t in tasks], dtype=np.int64)[:, None]
    wcet = np.array([t.wcet for t in tasks], dtype=np.int64)[:, None]
    x = points[None, :] - deadline
    active = x >= 0
    xa = np.where(active, x, 0)
    stair = (xa // period + 1) * wcet
    if hi:
        wcet_lo = np.array([t.wcet_lo for t in tasks], dtype=np.int64)[:, None]
        stair = stair - np.minimum(wcet, np.maximum(0, wcet_lo - xa % period))
    chord = -((-wcet * (xa + period)) // period)
    exact = points[None, :] < deadline + k * period
    total = np.where(active, np.where(exact, stair, chord), 0).sum(axis=0)
    return bool((total <= points).all())


@st.composite
def mode_task(draw):
    """One mode task, including the degenerate shapes real lists can hold:
    residual deadline 0, ``wcet_lo = 0`` and ``wcet_lo > period``."""
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
    return (
        tasks,
        horizon,
        draw(st.booleans()),
        draw(st.sampled_from([1, 2, 3, 5])),
    )


class TestScreenOracle:
    @given(screen_case())
    @settings(max_examples=400, deadline=None)
    def test_scalar_screen_matches_numpy_reference(self, case):
        tasks, horizon, hi, k = case
        assert approx_accepts(tasks, horizon, hi=hi, k=k) == (
            reference_approx_accepts(tasks, horizon, hi, k)
        )

    @pytest.mark.parametrize("hi", [False, True])
    def test_default_k_matches_reference(self, hi):
        """``k=None`` reads the module's configured depth, as before."""
        from repro.analysis.dbf import _APPROX_K

        tasks = [_ModeTask(3, 5, 10, 2), _ModeTask(4, 9, 14, 4)]
        for horizon in (0, 4, 30, 200):
            assert approx_accepts(tasks, horizon, hi=hi) == (
                reference_approx_accepts(tasks, horizon, hi, _APPROX_K)
            )

    @pytest.mark.parametrize("horizon", [0, 7, 40, 400])
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_zero_residual_deadline(self, horizon, k):
        """An HC task whose virtual deadline is its real deadline enters HI
        mode with residual deadline 0: its first step sits at ``l = 0``."""
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
        assert approx_accepts(tasks, horizon, hi=True, k=k) == (
            reference_approx_accepts(tasks, horizon, True, k)
        )

    @pytest.mark.parametrize("hi", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_zero_lo_budget(self, hi, k):
        """``wcet_lo = 0`` adds no ramp ends and no carry-over reduction."""
        tasks = [_ModeTask(4, 3, 10, 0), _ModeTask(2, 6, 7, 0)]
        for horizon in (0, 2, 3, 25, 300):
            assert approx_accepts(tasks, horizon, hi=hi, k=k) == (
                reference_approx_accepts(tasks, horizon, hi, k)
            )

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_lo_budget_above_period(self, k):
        """``wcet_lo > period`` clips the ramp at ``min(C^L, T)``, which puts
        each ramp end on the next jump."""
        tasks = [_ModeTask(9, 4, 6, 11), _ModeTask(1, 2, 9, 3)]
        for horizon in (0, 10, 16, 60, 500):
            assert approx_accepts(tasks, horizon, hi=True, k=k) == (
                reference_approx_accepts(tasks, horizon, True, k)
            )

    def test_carry_over_clamped_at_degraded_budget(self):
        """A degraded LC task's carry-over reduction stops at its budget.

        At ``l = 0`` the HC task at ``Dv = D`` demands ``3 - 2 = 1``; the
        imprecise LC task (``C^L = 5``, budget ``floor(0.4 * 5) = 2``)
        demands ``2 - min(2, 5) = 0``.  The bound 1 exceeds 0, so the screen
        rejects; an unclamped reduction (``2 - 5``) would accept.
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
        assert reference_approx_accepts(tasks, 0, True, 1) is False
        assert approx_accepts(tasks, 0, hi=True, k=1) is False

    def test_blend_point_takes_the_chord(self):
        """At ``l = d + kT`` the bound is the chord, not the staircase.

        One HI task (C = 8, d = 5, T = 10, C^L = 4) at horizon 15: the
        staircase at 15 is ``2*8 - 4 = 12`` and fits, the chord is
        ``ceil(8 * 20 / 10) = 16`` and does not.  With ``k = 1`` the point
        15 is the blend point, so the screen rejects; with ``k = 2`` it is
        still on the staircase, so the screen accepts.
        """
        tasks = [_ModeTask(8, 5, 10, 4)]
        assert approx_accepts(tasks, 15, hi=True, k=1) is False
        assert reference_approx_accepts(tasks, 15, True, 1) is False
        assert approx_accepts(tasks, 15, hi=True, k=2) is True
        assert reference_approx_accepts(tasks, 15, True, 2) is True

    def test_empty_and_negative_horizon_accept(self):
        assert approx_accepts([], 50, hi=False) is True
        assert approx_accepts([_ModeTask(99, 0, 10, 1)], -1, hi=True) is True
