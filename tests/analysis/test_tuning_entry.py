"""The tuning entry: uniform accept first, one utilization screen.

:func:`repro.analysis.vdtuning._tune_stage` runs the uniform-scaling
search before the two rejects its accepts imply (LO at full deadlines,
HI at ``Dv = C_L``), and :func:`~repro.analysis.vdtuning.run_tuning_stages`
and :class:`~repro.analysis.context.DemandContext` screen utilization
once per analysis instead of once per stage.  These tests hold both to
the historical order (``tests.conftest.oracle_tune`` /
``oracle_stages``), outcome for outcome: verdict, virtual deadlines,
iteration count and detail string.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import vdtuning
from repro.analysis.context import DemandContext
from repro.analysis.ecdf import ECDFTest
from repro.analysis.ey import EYTest
from repro.analysis.vdtuning import (
    DemandEngine,
    TuningOutcome,
    run_tuning_stages,
    tune_virtual_deadlines,
)
from repro.degradation.service import parse_service_model
from repro.model import TaskSet
from tests.analysis.test_descent_replay import (
    CAP,
    SERVICES,
    candidates,
    core_probes,
    make,
    task_params,
)
from tests.conftest import oracle_stages, oracle_tune

EY = (("steepest", False),)
ECDF = (("ratio", True), ("steepest", True), ("steepest", False))
CHAINS = (EY, ECDF, (("ratio", True),), (("steepest", True),))

#: Caps up to the largest ``D - C_L`` the task strategies draw (29) reach
#: the horizon-cap outcomes, and the guard ``max(D - C_L) <= horizon_cap``
#: on either side.
caps = st.sampled_from([CAP]) | st.integers(min_value=4, max_value=30)


def compare_chain(sets, stages, cap):
    """The stage chain and each of its stages against the oracle, over
    one core's probe sequence; each side keeps one memo per entry point,
    as a context does."""
    memos = {"new": {}, "old": {}, "new-stage": {}, "old-stage": {}}
    for ts in sets:
        got = run_tuning_stages(ts, stages, cap, DemandEngine(ts, cap, memo=memos["new"]))
        want = oracle_stages(ts, stages, cap, DemandEngine(ts, cap, memo=memos["old"]))
        assert got == want, (ts, stages, cap)
        for policy, refine in stages:
            got = tune_virtual_deadlines(
                ts, policy, refine, cap, DemandEngine(ts, cap, memo=memos["new-stage"])
            )
            want = oracle_tune(
                ts, policy, refine, cap, DemandEngine(ts, cap, memo=memos["old-stage"])
            )
            assert got == want, (ts, policy, refine, cap)


class TestRunTuningStages:
    @given(core_probes(), st.sampled_from(CHAINS), caps)
    @settings(max_examples=150, deadline=None)
    def test_outcomes_equal_the_historical_order(self, probes, stages, cap):
        """EY and ECDF chains, refine on and off, drop and degraded
        service, on a growing LC set that shares one memo."""
        hcs, lcs, service = probes
        compare_chain(candidates(hcs, lcs, service), stages, cap)


class TestDemandContext:
    @pytest.mark.parametrize("service", SERVICES)
    @pytest.mark.parametrize("test_cls", [EYTest, ECDFTest])
    @given(
        st.lists(
            st.booleans().flatmap(task_params), min_size=1, max_size=6
        ),
        caps,
    )
    @settings(max_examples=40, deadline=None)
    def test_commit_sequence_equals_the_historical_order(
        self, test_cls, service, params, cap
    ):
        """Probe each task on one core and commit the accepted ones: every
        analysis equals the historical chain on the candidate, and a
        probe that reaches the stage loop returns its full outcome."""
        model = None if service == "full-drop" else parse_service_model(service)
        test = test_cls(horizon_cap=cap)
        context = test.make_context(service=model)
        ran: list[TuningOutcome] = []
        run_stages = vdtuning._run_stages

        def spy(engine, stages):
            ran.append(run_stages(engine, stages))
            return ran[-1]

        oracle_memo: dict = {}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(vdtuning, "_run_stages", spy)
            for row in params:
                task = make(*row)
                candidate = TaskSet(list(context.tasks) + [task], service_model=model)
                want = oracle_stages(
                    candidate, context.stages, cap,
                    DemandEngine(candidate, cap, memo=oracle_memo),
                )
                ran.clear()
                result = context.analyze(task)
                if ran:
                    assert ran == [want]
                assert (
                    result.schedulable, result.virtual_deadlines, result.detail
                ) == (want.schedulable, want.virtual_deadlines, want.detail)
                if result.schedulable:
                    context.commit(task)


def outcome(rows, stages, cap=CAP):
    """The chain's outcome on ``rows`` (period, HC?, C_L, C_H, D), checked
    against the historical order on a fresh engine first."""
    ts = TaskSet([make(*row) for row in rows])
    got = run_tuning_stages(ts, stages, cap)
    assert got == oracle_stages(ts, stages, cap, DemandEngine(ts, cap))
    return ts, got


class TestPinnedOutcomes:
    @pytest.mark.parametrize("stages", [EY, ECDF])
    def test_lo_infeasible_at_full_deadlines(self, stages):
        """The uniform search runs first and finds its best assignment
        LO-infeasible; the LO reject follows."""
        _, got = outcome(
            [(20, True, 2, 2, 20), (19, False, 5, 5, 6), (3, False, 1, 1, 1)], stages
        )
        assert got.detail == "LO-mode infeasible at full deadlines"

    @pytest.mark.parametrize("stages", [EY, ECDF])
    def test_hi_infeasible_at_wcet_lo(self, stages):
        _, got = outcome([(10, True, 2, 6, 6), (20, True, 6, 7, 9)], stages)
        assert got.detail == "HI infeasible even at minimal Dv (l*=4)"

    @pytest.mark.parametrize("stages", [EY, ECDF])
    def test_utilization_above_one(self, stages):
        ts, got = outcome([(27, True, 1, 23, 26), (28, True, 4, 22, 22)], stages)
        assert got == TuningOutcome(
            False, {t.task_id: t.deadline for t in ts}, 0, "utilization above 1"
        )

    @pytest.mark.parametrize("stages", [EY, ECDF])
    def test_plain_edf_reserve(self, stages):
        ts, got = outcome([(12, True, 2, 8, 12)], stages)
        assert got == TuningOutcome(
            True, {t.task_id: 12 for t in ts}, 0, "plain-EDF reserve (a + c <= 1)"
        )

    @pytest.mark.parametrize("stages", [EY, ECDF])
    def test_guard_keeps_the_horizon_reject(self, stages):
        """``D - C_L = 89`` exceeds the cap of 50, so the HI check at
        ``C_L`` widens its horizon past the cap and rejects, although
        uniform scaling alone would accept: the guard skips the search
        here."""
        ts, got = outcome([(100, True, 10, 20, 99)], stages, cap=50)
        assert got.detail == "HI horizon cap exceeded"
        (task,) = ts
        for _, refine in stages:
            uniform = vdtuning._uniform_scaling_search(
                [task], refine, DemandEngine(ts, 50)
            )
            assert uniform is not None and uniform.schedulable


class TestPolicyCheck:
    def test_chain_checks_every_stage_before_the_screen(self):
        """A screened set runs no stage, yet an unknown policy in any
        stage of the chain is reported."""
        ts = TaskSet([make(12, True, 2, 8, 12)])
        with pytest.raises(ValueError, match="policy"):
            run_tuning_stages(ts, (("ratio", True), ("newton", False)), CAP)
        with pytest.raises(ValueError, match="at least one"):
            run_tuning_stages(ts, (), CAP)

    def test_context_checks_its_chain_once(self):
        with pytest.raises(ValueError, match="policy"):
            DemandContext(ECDFTest(), (("newton", False),), CAP)
