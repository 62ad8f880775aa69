"""Differential suite for the block demand kernel.

The block kernel relaxes the trajectory contract of forward/qpa:
instead of one exact HI probe per single-task shrink,
:func:`plan_block` walks the ranked candidates against a virtual copy of
the assignment and commits the whole block of boundary jumps under a
single probe.  Its contract is *sound only*: every set it accepts is
schedulable (LO and HI demand checks pass at the committed virtual
deadlines), but it may accept a set the scalar descent rejects
(:data:`BLOCK_ONLY_ACCEPT` is one).  What this suite pins is that
contract, the forward/qpa verdict identity, that every committed jump
lands at or above the scalar kernel's V* boundary, and that every
committed joint assignment is LO-feasible outright.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis.dbf import (
    DemandScenario,
    HorizonExceeded,
    demand_kernel,
    set_demand_kernel,
)
from repro.analysis.dbf_block import (
    block_counters,
    plan_block,
    reset_block_counters,
)
from repro.analysis.vdtuning import (
    DemandEngine,
    _rank_candidates,
    run_tuning_stages,
)
from repro.degradation.service import parse_service_model
from repro.model import Criticality, MCTask, TaskSet
from repro.util.env import DBF_KERNELS

KERNELS = ("forward", "qpa", "block")

SERVICES = ("full-drop", "imprecise:0.5", "elastic:1.5")

CHAINS = (
    (("steepest", False),),
    (("ratio", True), ("steepest", True), ("steepest", False)),
)


#: Two HC tasks (T, C_L, C_H, D) = (33, 13, 22, 33), (11, 2, 3, 8) under
#: drop semantics: the scalar EY descent rejects it ("no shrinkable task
#: at l*=29"), while a memo-backed block descent accepts it.
BLOCK_ONLY_ACCEPT = TaskSet(
    [
        MCTask(period=33, criticality=Criticality.HC, wcet_lo=13, wcet_hi=22,
               deadline=33),
        MCTask(period=11, criticality=Criticality.HC, wcet_lo=2, wcet_hi=3,
               deadline=8),
    ]
)


def run_with_kernel(kernel, fn):
    previous = set_demand_kernel(kernel)
    try:
        return fn()
    finally:
        set_demand_kernel(previous)


# -- task-set generation -----------------------------------------------------

@st.composite
def mc_taskset(draw):
    """A small random dual-criticality task set (the qpa suite's shape)."""
    n = draw(st.integers(min_value=1, max_value=5))
    tasks = []
    for _ in range(n):
        period = draw(st.integers(min_value=4, max_value=60))
        high = draw(st.booleans())
        wcet_lo = draw(st.integers(min_value=1, max_value=max(1, period // 2)))
        if high:
            wcet_hi = draw(st.integers(min_value=wcet_lo, max_value=period))
            floor = max(wcet_hi, wcet_lo)
        else:
            wcet_hi = wcet_lo
            floor = wcet_lo
        deadline = (
            period
            if draw(st.booleans())
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


def attach(ts, service):
    if service == "full-drop":
        return ts
    return TaskSet(list(ts), service_model=parse_service_model(service))


def accept_is_certified(ts, outcome, refine):
    """Whether an accepted TuningOutcome's certificate holds.

    The plain-EDF fast accept keeps the full deadlines and is certified
    by the utilization bound (EDF-VD at x = 1), not by the demand checks;
    every other accept must pass the LO and HI demand checks at its
    virtual deadlines.
    """
    if outcome.detail.startswith("plain-EDF reserve"):
        util = ts.utilization
        return ts.is_implicit_deadline and util.u_ll + util.u_hh <= 1.0 + 1e-9
    return DemandScenario(ts, outcome.virtual_deadlines).schedulable(
        refine=refine
    )


# -- registration ------------------------------------------------------------

class TestKernelRegistration:
    def test_round_trip(self):
        previous = set_demand_kernel("block")
        try:
            assert demand_kernel() == "block"
        finally:
            set_demand_kernel(previous)
        assert demand_kernel() == previous

    def test_block_in_registry(self):
        assert "block" in DBF_KERNELS

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown demand kernel"):
            set_demand_kernel("blocc")


# -- three-kernel verdict equivalence ---------------------------------------

class TestVerdictEquivalence:
    @given(mc_taskset(), st.sampled_from(SERVICES), st.data())
    @settings(max_examples=100, deadline=None)
    def test_scenario_checks_identical(self, ts, service, data):
        """Block keeps QPA's decision procedure, so LO and HI verdicts
        and earliest-violation witnesses agree across all three kernels,
        with refinement on and off."""
        tagged = attach(ts, service)
        vd = {
            t.task_id: data.draw(
                st.integers(min_value=t.wcet_lo, max_value=t.deadline)
            )
            for t in tagged
            if t.is_high
        }

        def checks():
            scenario = DemandScenario(tagged, vd)
            try:
                out = [("lo", scenario.lo_violation())]
            except HorizonExceeded:
                out = [("lo", "raise")]
            for refine in (False, True):
                try:
                    out.append((refine, scenario.hi_violation(refine=refine)))
                except HorizonExceeded:
                    out.append((refine, "raise"))
            return out

        results = [run_with_kernel(k, checks) for k in KERNELS]
        assert results[0] == results[1] == results[2]

    @given(mc_taskset(), st.sampled_from(SERVICES))
    @example(BLOCK_ONLY_ACCEPT, "full-drop")
    @settings(max_examples=60, deadline=None)
    def test_tuning_verdicts_identical(self, ts, service):
        """run_tuning_stages gives forward and qpa the same verdict, fresh
        and memo-backed engines, both stage chains; every block accept is
        schedulable at its committed virtual deadlines.

        Unlike the qpa suite this deliberately does NOT compare iteration
        counts or the tuned deadlines, and block need not match the
        others' verdict: it is sound only.
        """
        tagged = attach(ts, service)
        for stages in CHAINS:
            refine = any(r for _, r in stages)
            verdicts = []
            block_outcomes = []
            for kernel in KERNELS:
                for memo in (None, {}):
                    def run():
                        engine = DemandEngine(tagged, 100_000, memo=memo)
                        return run_tuning_stages(
                            tagged, stages, 100_000, engine=engine
                        )
                    outcome = run_with_kernel(kernel, run)
                    if kernel == "block":
                        block_outcomes.append(outcome)
                    else:
                        verdicts.append(outcome.schedulable)
            assert len(set(verdicts)) == 1
            for outcome in block_outcomes:
                if outcome.schedulable:
                    assert accept_is_certified(tagged, outcome, refine)


class TestBlockSoundOnly:
    """Block may accept what forward/qpa reject, and such an accept is
    still schedulable at the virtual deadlines it commits."""

    STAGES = (("steepest", False),)

    def tune(self, kernel, memo):
        def run():
            engine = DemandEngine(BLOCK_ONLY_ACCEPT, 100_000, memo=memo)
            return run_tuning_stages(
                BLOCK_ONLY_ACCEPT, self.STAGES, 100_000, engine=engine
            )
        return run_with_kernel(kernel, run)

    @pytest.mark.parametrize("kernel", ["forward", "qpa"])
    @pytest.mark.parametrize("memo", [None, {}], ids=["fresh", "memo"])
    def test_scalar_descent_rejects(self, kernel, memo):
        outcome = self.tune(kernel, memo)
        assert not outcome.schedulable
        assert "no shrinkable task at l*=29" in outcome.detail

    def test_block_accepts_schedulable_deadlines(self):
        outcome = self.tune("block", {})
        assert outcome.schedulable
        assert DemandScenario(
            BLOCK_ONLY_ACCEPT, outcome.virtual_deadlines
        ).schedulable(refine=False)


# -- the joint-jump soundness property ---------------------------------------

class TestPlanBlockSoundness:
    @given(
        mc_taskset(),
        st.sampled_from(SERVICES),
        st.sampled_from(["steepest", "ratio"]),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_commits_never_overshoot_scalar_vstar(
        self, ts, service, policy, refine
    ):
        """Every planned jump lands at or above the scalar kernel's V*
        boundary at the pre-jump assignment, and the joint post-jump
        assignment is LO-feasible outright.

        The oracle is deliberately independent machinery: the memo-free
        engine's ``max_lo_feasible_shrink``, a ``feasible(v)`` bisection
        instead of the closed-form V* the block planner uses.
        """
        tagged = attach(ts, service)
        high = [t for t in tagged if t.is_high]
        if not high:
            return
        vd = {t.task_id: t.deadline for t in high}
        by_id = {t.task_id: t for t in high}

        def plan():
            engine = DemandEngine(tagged, 100_000, memo={})
            try:
                violation, demand = engine.hi_check(vd, refine)
            except HorizonExceeded:
                return None
            if violation is None:
                return None
            ranked = _rank_candidates(
                high, vd, violation, demand - violation, policy, engine
            )
            return plan_block(engine, vd, ranked, set(), violation)

        commits = run_with_kernel("block", plan)
        if not commits:
            return

        def oracle_floors():
            oracle = DemandEngine(tagged, 100_000)
            floors = {}
            for tid in commits:
                task = by_id[tid]
                full = vd[tid] - task.wcet_lo
                shrink = oracle.max_lo_feasible_shrink(vd, task, full)
                # A zero shrink leaves V* unresolved between D and "never".
                floors[tid] = vd[tid] - shrink if shrink else None
            return floors

        floors = run_with_kernel("qpa", oracle_floors)
        for tid, v_new in commits.items():
            v_star = floors[tid]
            assert v_star is not None, (
                f"block jumped task {tid} the scalar oracle cannot shrink"
            )
            assert v_new >= v_star, (
                f"block jump for task {tid} overshot the scalar V* "
                f"boundary: {v_new} < {v_star}"
            )
            assert v_new < vd[tid]

        joint = dict(vd)
        joint.update(commits)

        def joint_feasible():
            try:
                return DemandScenario(tagged, joint).lo_violation()
            except HorizonExceeded:
                return None

        assert run_with_kernel("forward", joint_feasible) is None


# -- diagnostics -------------------------------------------------------------

class TestBlockCounters:
    def test_counters_tick_and_reset(self):
        """A demand-heavy ensemble drives the planner: jumps commit,
        settled tasks accumulate, and reset zeroes the scope."""
        from repro.analysis.ey import EYTest
        from repro.generator import GeneratorConfig, MCTaskSetGenerator
        from repro.util.rng import derive_rng

        generator = MCTaskSetGenerator(
            GeneratorConfig(m=1, p_high=0.5, deadline_type="constrained")
        )
        sets = []
        index = 0
        while len(sets) < 40 and index < 1000:
            ts = generator.generate(
                derive_rng("block-counters", index), 0.35, 0.3, 0.45
            )
            index += 1
            if ts is not None:
                sets.append(ts)

        reset_block_counters()
        assert all(value == 0 for value in block_counters().values())

        def analyse():
            test = EYTest()
            return [test.is_schedulable(ts) for ts in sets]

        verdicts_block = run_with_kernel("block", analyse)
        counters = block_counters()
        assert counters["block-jumps"] > 0
        assert counters["block-settled"] >= counters["block-jumps"]

        # Verdict parity on the same ensemble, qpa as the oracle.
        verdicts_qpa = run_with_kernel("qpa", analyse)
        assert verdicts_block == verdicts_qpa

        reset_block_counters()
        assert all(value == 0 for value in block_counters().values())


# -- figure-level differential (slow tier) -----------------------------------

@pytest.mark.slow
class TestFigureVerdictParity:
    """fig3–fig7 at miniature scale: the full figure outputs — acceptance
    ratios, sample counts and WAR tables — must be identical under all
    three kernels at this scale (block is sound only, so this is observed
    parity, not its contract)."""

    @pytest.mark.parametrize(
        "name,kwargs",
        [
            ("fig3", {}),
            ("fig4", {}),
            ("fig5", {}),
            ("fig6a", {"ph_values": (0.3, 0.7)}),
            ("fig6b", {"ph_values": (0.3, 0.7)}),
            ("fig7a", {"deg_values": (0.25, 0.75)}),
            ("fig7b", {"deg_values": (1.5,)}),
        ],
    )
    def test_figures_verdict_identical(self, name, kwargs):
        from repro.experiments import run_figure
        from repro.experiments.export import figure_result_to_dict

        results = {}
        for kernel in KERNELS:
            results[kernel] = run_with_kernel(
                kernel,
                lambda: figure_result_to_dict(
                    run_figure(name, samples=2, m_values=(2,), **kwargs)
                ),
            )
        reference = results["forward"]
        for kernel in KERNELS[1:]:
            assert results[kernel] == reference, (
                f"{name}: {kernel} kernel diverged from the forward oracle"
            )
