"""Unit tests for the virtual-deadline tuning engine."""

import pytest

from repro.analysis.dbf import DEFAULT_HORIZON_CAP, DemandScenario
from repro.analysis.vdtuning import TuningOutcome, tune_virtual_deadlines
from repro.model import TaskSet

from tests.conftest import (
    hc_task,
    hi_gain,
    lc_task,
    min_shrink_for_gain,
    shrink_to_clear,
)


class TestShrinkPrimitives:
    def test_hi_gain_positive_inside_ramp(self):
        task = hc_task(20, 4, 8)
        # vd=12 -> residual 8; at l=9 residue 1 (inside ramp): unit shrink
        # moves the carry-over one unit earlier -> one more reduction unit.
        assert hi_gain(task, 12, 1, 9) == 1

    def test_hi_gain_zero_above_ramp(self):
        task = hc_task(20, 4, 8)
        # at l=16 residue 8 >= C_L: unit shrink gains nothing.
        assert hi_gain(task, 12, 1, 16) == 0

    def test_min_shrink_reaches_ramp(self):
        task = hc_task(20, 4, 8)
        # residue 8, C_L 4: need 8-4+1 = 5 units to start gaining.
        assert min_shrink_for_gain(task, 12, 16) == 5

    def test_min_shrink_none_when_structurally_blocked(self):
        task = hc_task(20, 4, 8)
        # vd == C_L: no room at all.
        assert min_shrink_for_gain(task, 4, 16) is None

    def test_min_shrink_none_before_residual(self):
        task = hc_task(20, 4, 8)
        # l < residual: shrinking pushes the carry-over further out.
        assert min_shrink_for_gain(task, 12, 5) is None

    def test_shrink_to_clear_monotone(self):
        task = hc_task(50, 10, 30)
        for deficit in (1, 3, 7):
            shrink = shrink_to_clear(task, 40, 30, deficit)
            gained = hi_gain(task, 40, shrink, 30)
            assert gained >= min(
                deficit, hi_gain(task, 40, 40 - task.wcet_lo, 30)
            )
            if shrink > 1:
                assert hi_gain(task, 40, shrink - 1, 30) < deficit or (
                    gained == hi_gain(task, 40, shrink - 1, 30)
                )


class TestTuneVirtualDeadlines:
    def test_schedulable_set_accepted_with_valid_vds(self, simple_mixed_taskset):
        outcome = tune_virtual_deadlines(
            simple_mixed_taskset, "steepest", False, DEFAULT_HORIZON_CAP
        )
        assert outcome.schedulable
        for task in simple_mixed_taskset.high_tasks:
            vd = outcome.virtual_deadlines[task.task_id]
            assert task.wcet_lo <= vd <= task.deadline
        # This set sits in the plain-EDF reserve region (a + c <= 1), so the
        # certificate is the reservation argument, not the dbf pair.
        assert "plain-EDF" in outcome.detail

    def test_dbf_certificate_when_tuning_engages(self):
        """Outside the fast-accept regions the returned vds must pass both
        dbf checks."""
        ts = TaskSet(
            [hc_task(100, 10, 60, name="h"), lc_task(100, 50, name="l")]
        )
        outcome = tune_virtual_deadlines(ts, "steepest", False, DEFAULT_HORIZON_CAP)
        assert outcome.schedulable
        assert "plain-EDF" not in outcome.detail
        scenario = DemandScenario(ts, outcome.virtual_deadlines)
        assert scenario.lo_violation() is None
        assert scenario.hi_violation() is None

    def test_utilization_overload_rejected_fast(self, heavy_taskset):
        outcome = tune_virtual_deadlines(
            heavy_taskset, "steepest", False, DEFAULT_HORIZON_CAP
        )
        assert not outcome.schedulable
        assert outcome.iterations == 0
        assert "utilization" in outcome.detail

    def test_lo_infeasible_rejected(self):
        # Utilization is only 0.5 but the tight deadlines make the LO dbf
        # fail with full (untuned) deadlines -> reject immediately.
        ts = TaskSet(
            [
                hc_task(100, 30, 35, deadline=30, name="a"),
                lc_task(100, 20, deadline=40, name="b"),
            ]
        )
        outcome = tune_virtual_deadlines(ts, "steepest", False, DEFAULT_HORIZON_CAP)
        assert not outcome.schedulable
        assert "LO-mode" in outcome.detail

    def test_requires_tuning_to_accept(self):
        """A set that fails with Dv=D but passes after shrinking.

        a + c = 1.1 rules out the plain-EDF reserve; the carry-over
        ``C_H - C_L = 50`` due immediately fails the untouched HI check, so
        acceptance requires an actual deadline adjustment.
        """
        ts = TaskSet([hc_task(100, 10, 60, name="h"), lc_task(100, 50, name="l")])
        assert DemandScenario(ts).hi_violation() is not None
        outcome = tune_virtual_deadlines(ts, "steepest", False, DEFAULT_HORIZON_CAP)
        assert outcome.schedulable
        assert outcome.virtual_deadlines[ts[0].task_id] < 100

    def test_policies_agree_on_easy_sets(self, simple_mixed_taskset):
        steepest = tune_virtual_deadlines(
            simple_mixed_taskset, "steepest", False, DEFAULT_HORIZON_CAP
        )
        ratio = tune_virtual_deadlines(
            simple_mixed_taskset, "ratio", True, DEFAULT_HORIZON_CAP
        )
        assert steepest.schedulable and ratio.schedulable

    def test_unknown_policy_rejected(self, simple_mixed_taskset):
        with pytest.raises(ValueError, match="policy"):
            tune_virtual_deadlines(
                simple_mixed_taskset, "newton", False, DEFAULT_HORIZON_CAP
            )

    def test_outcome_is_dataclass_with_iterations(self, simple_mixed_taskset):
        outcome = tune_virtual_deadlines(
            simple_mixed_taskset, "steepest", False, DEFAULT_HORIZON_CAP
        )
        assert isinstance(outcome, TuningOutcome)
        # Fast-accept paths legitimately report zero descent iterations.
        assert outcome.iterations >= 0
        assert outcome.schedulable
