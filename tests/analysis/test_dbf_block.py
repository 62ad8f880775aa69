"""Differential suite for the block demand kernel (PR 10).

The block kernel relaxes the trajectory contract one notch: instead of
one exact HI probe per single-task shrink, :func:`plan_block` walks the
ranked candidates against a virtual copy of the assignment and commits
the whole block of boundary jumps under a single probe.  What must hold
— and what this suite pins — is the *verdict* contract: accept/reject
flags, acceptance ratios and figure outputs are identical to the
forward/qpa kernels, every committed jump lands at or above the
scalar kernel's V* boundary, and every committed joint assignment is
LO-feasible outright.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

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
    @settings(max_examples=60, deadline=None)
    def test_tuning_verdicts_identical(self, ts, service):
        """run_tuning_stages agrees on the *verdict* under all three
        kernels, fresh and memo-backed engines, both stage chains.

        Unlike the qpa suite this deliberately does NOT compare iteration
        counts or the tuned deadlines — diverging there is the block
        kernel's contract.  A block-accepted assignment is instead
        checked for LO feasibility outright.
        """
        tagged = attach(ts, service)
        for stages in CHAINS:
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
                    verdicts.append(outcome.schedulable)
                    if kernel == "block":
                        block_outcomes.append(outcome)
            assert len(set(verdicts)) == 1
            for outcome in block_outcomes:
                if not outcome.schedulable:
                    continue
                try:
                    violation = DemandScenario(
                        tagged, outcome.virtual_deadlines
                    ).lo_violation()
                except HorizonExceeded:
                    continue
                assert violation is None


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
    three kernels.  This is the verdict level the shard store and the
    verdict cache key on."""

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
