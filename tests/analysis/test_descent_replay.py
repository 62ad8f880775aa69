"""The split shrink descent: a cached HI trajectory plus one LO search.

On a memo-backed engine :func:`repro.analysis.vdtuning._descend` no longer
walks every step with a LO probe.  It fetches the core's HI-only
trajectory (built once per HC set, degraded-LC members, policy and
refinement), bisects it for the last LO-feasible prefix, commits that
prefix and runs the step loop from there.  These tests hold it to the step
loop it replaces, transcribed below as the oracle, outcome for outcome:
verdict, virtual deadlines, iteration count and detail string.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import event, given, settings, strategies as st

from repro import obs
from repro.analysis import vdtuning
from repro.analysis.dbf import HorizonExceeded, set_demand_kernel
from repro.analysis.vdtuning import (
    DemandEngine,
    TuningOutcome,
    _descend,
    _rank_candidates,
    run_tuning_stages,
)
from repro.degradation.service import parse_service_model
from repro.model import Criticality, MCTask, TaskSet
from repro.obs.registry import MetricsRegistry

CAP = 100_000
SERVICES = ("full-drop", "imprecise:0.5", "elastic:1.5")
STAGES = (("steepest", False), ("ratio", False), ("steepest", True), ("ratio", True))
ECDF_CHAIN = (("ratio", True), ("steepest", True), ("steepest", False))


def oracle_descent(high_tasks, vd, policy, refine, engine):
    """The step loop as it ran before trajectories were cached: one HI
    check, a fresh ranking and one LO probe per iteration."""
    vd = dict(vd)
    frozen: set[int] = set()
    front = 0
    for iteration in range(1, vdtuning._MAX_ITERATIONS + 1):
        try:
            violation, demand = engine.hi_check(vd, refine, not_before=front)
        except HorizonExceeded:
            return TuningOutcome(False, vd, iteration, "HI horizon cap exceeded")
        if violation is None:
            return TuningOutcome(True, vd, iteration)
        front = violation
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


def make(period, high, wcet_lo, wcet_hi, deadline):
    return MCTask(
        period=period,
        criticality=Criticality.HC if high else Criticality.LC,
        wcet_lo=wcet_lo,
        wcet_hi=wcet_hi,
        deadline=deadline,
    )


def candidates(hc_params, lc_params, service="full-drop"):
    """One core's probe sequence: the HC tasks with a growing LC set, as
    an analysis context probes them (one task-id namespace per core)."""
    model = None if service == "full-drop" else parse_service_model(service)
    hcs = [make(*p) for p in hc_params]
    lcs = [make(*p) for p in lc_params]
    return [
        TaskSet(hcs + lcs[:count], service_model=model)
        for count in range(len(lcs) + 1)
    ]


def full_deadlines(ts):
    return {t.task_id: t.deadline for t in ts.high_tasks}


@contextmanager
def recording():
    """A fresh registry with metric recording on."""
    fresh = MetricsRegistry()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(obs, "REGISTRY", fresh)
        previous = obs.set_recorder(obs.MetricsRecorder(fresh))
        try:
            yield fresh
        finally:
            obs.set_recorder(previous)


@pytest.fixture
def registry():
    with recording() as fresh:
        yield fresh


KERNELS = ("forward", "qpa")


@contextmanager
def demand_kernel(name):
    previous = set_demand_kernel(name)
    try:
        yield
    finally:
        set_demand_kernel(previous)


@pytest.fixture(params=KERNELS)
def kernel(request):
    with demand_kernel(request.param):
        yield request.param


def compare_probes(sets, policy, refine, cap=CAP):
    """Split descent vs oracle over one core's probe sequence, each side
    on its own shared memo (so both see the memo history a context
    builds).  Returns the split outcomes."""
    split_memo, oracle_memo = {}, {}
    outcomes = []
    for ts in sets:
        high = list(ts.high_tasks)
        vd = full_deadlines(ts)
        got = _descend(high, vd, policy, refine, DemandEngine(ts, cap, memo=split_memo))
        want = oracle_descent(
            high, vd, policy, refine, DemandEngine(ts, cap, memo=oracle_memo)
        )
        assert got == want, (ts, policy, refine, cap)
        outcomes.append(got)
    return outcomes


def replays(ts, monkeypatch):
    """EY's unrefined ``_descend`` of ``ts`` on a fresh memo, with the
    ``(trajectory steps, steps replayed)`` of each replay."""
    seen = []
    replay = vdtuning._replay_trajectory

    def spy(high, vd, policy, refine, engine):
        steps, _ = vdtuning._hi_trajectory(high, vd, policy, refine, engine)
        done, front = replay(high, vd, policy, refine, engine)
        seen.append((len(steps), done))
        return done, front

    monkeypatch.setattr(vdtuning, "_replay_trajectory", spy)
    outcome = _descend(
        list(ts.high_tasks), full_deadlines(ts), "steepest", False,
        DemandEngine(ts, CAP, memo={}),
    )
    return outcome, seen


# -- hypothesis differential -------------------------------------------------

@st.composite
def task_params(draw, high):
    period = draw(st.integers(min_value=3, max_value=30))
    wcet_lo = draw(st.integers(min_value=1, max_value=max(1, period // 3)))
    wcet_hi = (
        draw(st.integers(min_value=wcet_lo, max_value=period)) if high else wcet_lo
    )
    deadline = draw(st.integers(min_value=wcet_hi, max_value=period))
    return (period, high, wcet_lo, wcet_hi, deadline)


@st.composite
def core_probes(draw):
    """1-3 HC tasks and an LC set of 0-3 tasks, under one service model."""
    hcs = draw(st.lists(task_params(True), min_size=1, max_size=3))
    lcs = draw(st.lists(task_params(False), min_size=0, max_size=3))
    return hcs, lcs, draw(st.sampled_from(SERVICES))


class TestDifferential:
    @pytest.mark.parametrize("kernel_name", KERNELS)
    @given(core_probes(), st.sampled_from(STAGES))
    @settings(max_examples=150, deadline=None)
    def test_split_descent_equals_step_loop(self, kernel_name, probes, stage):
        """Both policies, both refinements, all three service models, both
        scalar kernels; repeat probes of a growing LC set share one memo,
        so later probes replay the first probe's trajectory."""
        hcs, lcs, service = probes
        policy, refine = stage
        with demand_kernel(kernel_name), recording() as registry:
            compare_probes(candidates(hcs, lcs, service), policy, refine)
        counters = registry.counters("descent.")
        event(f"replayed={counters.get('descent.replayed', 0) > 0}")
        event(f"reused={counters.get('descent.trajectory-reuse', 0) > 0}")
        event(f"lo-checks>1={counters.get('descent.lo-checks', 0) > 1}")

    @pytest.mark.parametrize("kernel_name", KERNELS)
    @given(core_probes())
    @settings(max_examples=60, deadline=None)
    def test_tuning_chain_equals_step_loop(self, kernel_name, probes):
        """The whole ECDF chain (uniform search, V* floor, three stages) on
        a shared memo, against the same chain with the oracle loop."""
        hcs, lcs, service = probes
        sets = candidates(hcs, lcs, service)
        split_memo, oracle_memo = {}, {}
        with demand_kernel(kernel_name):
            got = [
                run_tuning_stages(
                    ts, ECDF_CHAIN, CAP, DemandEngine(ts, CAP, memo=split_memo)
                )
                for ts in sets
            ]
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(vdtuning, "_descend", oracle_descent)
                want = [
                    run_tuning_stages(
                        ts, ECDF_CHAIN, CAP, DemandEngine(ts, CAP, memo=oracle_memo)
                    )
                    for ts in sets
                ]
        assert got == want


# -- pinned edge cases -----------------------------------------------------------

#: (period, HC?, C_L, C_H, D) rows
SIX_STEPS = [(15, True, 4, 10, 10)]
BINDS_AT_START = (
    [(10, True, 2, 4, 8)],
    [(23, False, 10, 10, 16), (18, False, 4, 4, 4)],
)
BINDS_AT_LAST = [(7, True, 1, 3, 3), (9, True, 1, 4, 6)]


class TestPinned:
    def test_whole_trajectory_replays(self, kernel, registry, monkeypatch):
        (ts,) = candidates(SIX_STEPS, [])
        outcome, seen = replays(ts, monkeypatch)
        assert seen == [(6, 6)]
        assert outcome == oracle_descent(
            list(ts.high_tasks), full_deadlines(ts), "steepest", False,
            DemandEngine(ts, CAP, memo={}),
        )
        assert outcome.schedulable and outcome.iterations == 7
        counters = registry.counters("descent.")
        assert counters["descent.trajectories"] == 1
        assert counters["descent.replayed"] == 6
        assert counters["descent.lo-checks"] == 1

    def test_lo_binds_at_step_zero(self, kernel, monkeypatch):
        hcs, lcs = BINDS_AT_START
        *_, ts = candidates(hcs, lcs)
        outcome, seen = replays(ts, monkeypatch)
        assert seen == [(2, 0)]
        assert outcome.iterations == 2 and not outcome.schedulable
        compare_probes(candidates(hcs, lcs), "steepest", False)

    def test_lo_binds_at_last_step(self, kernel, monkeypatch):
        (ts,) = candidates(BINDS_AT_LAST, [])
        outcome, seen = replays(ts, monkeypatch)
        assert seen == [(7, 6)]
        assert outcome == TuningOutcome(
            False, outcome.virtual_deadlines, 8, "no shrinkable task at l*=4"
        )
        compare_probes([ts], "steepest", False)

    def test_repeat_probes_reuse_the_trajectory(self, kernel, registry):
        """Growing the LC set keeps the HC set: one trajectory serves
        every probe, and the LO search alone places each replay."""
        sets = candidates(SIX_STEPS, [(23, False, 5, 5, 16), (18, False, 3, 3, 6)])
        outcomes = compare_probes(sets, "steepest", False)
        assert [(o.schedulable, o.iterations) for o in outcomes] == [
            (True, 7), (True, 7), (False, 5)
        ]
        assert registry.counters("descent.") == {
            "descent.trajectories": 1,
            "descent.trajectory-reuse": 2,
            "descent.replayed": 6 + 6 + 3,
            "descent.lo-checks": 1 + 1 + 3,
        }

    def test_cap_guard_keeps_the_step_loop(self, kernel, registry):
        """With the all-``C_L`` LO horizon above the cap the descent walks
        step by step and builds or reuses no trajectory."""
        _, lcs = BINDS_AT_START
        sets = candidates(SIX_STEPS, lcs)
        clear = [vdtuning._lo_cap_clear(DemandEngine(ts, 20)) for ts in sets]
        assert clear == [True, False, False]
        compare_probes(sets, "steepest", False, cap=20)
        counters = registry.counters("descent.")
        assert counters["descent.trajectories"] == 1
        assert "descent.trajectory-reuse" not in counters

    def test_cap_guard_is_needed(self, kernel, monkeypatch):
        """Here a probe's worst-case LO horizon overruns the cap of 8, so
        the probe rejects a shrink the exact LO check accepts: replaying
        past it would leave the step loop's trajectory."""
        sets = candidates(
            [(17, True, 5, 16, 17), (23, True, 5, 16, 22), (14, True, 4, 13, 13)],
            [(23, False, 7, 7, 8)],
        )
        compare_probes(sets, "steepest", False, cap=8)
        monkeypatch.setattr(vdtuning, "_lo_cap_clear", lambda engine: True)
        with pytest.raises(AssertionError):
            compare_probes(sets, "steepest", False, cap=8)

    def test_hi_horizon_overrun_mid_trajectory(self, kernel, monkeypatch):
        """A trajectory can end in a HI horizon overrun after some steps.
        Real inputs do not reach it (a step moves a carry-over at most
        one past the violation, which lies below the shrinking bound), so
        the overrun is forced: residual deadlines above 4 raise, in the
        trajectory build and in the loop's checks alike."""
        meta_of = vdtuning._hi_meta_of

        def tight_meta(tasks, horizon_cap):
            state, density = meta_of(tasks, horizon_cap)
            if state[0] == "h" and max(t.deadline for t in tasks) > 4:
                state = ("raise", HorizonExceeded("residual above 4"))
            return (state, density)

        monkeypatch.setattr(vdtuning, "_hi_meta_of", tight_meta)
        (ts,) = candidates(SIX_STEPS, [])
        engine = DemandEngine(ts, CAP, memo={})
        steps, end = vdtuning._hi_trajectory(
            list(ts.high_tasks), full_deadlines(ts), "steepest", False, engine
        )
        assert len(steps) >= 1 and end[0] == "raise"
        outcomes = compare_probes(candidates(SIX_STEPS, [(12, False, 1, 1, 12)]),
                                  "steepest", False)
        assert outcomes[0].detail == "HI horizon cap exceeded"
        assert outcomes[0].iterations == len(steps) + 1

    @pytest.mark.parametrize("cap_first, cap_later", [(3, 3), (3, 400), (400, 3)])
    def test_iteration_cap(self, kernel, monkeypatch, cap_first, cap_later):
        """The iteration cap cuts both loops at the same point, also when
        the trajectory was built under another cap."""
        sets = candidates(SIX_STEPS, [(12, False, 1, 1, 12)])
        split_memo, oracle_memo = {}, {}
        for ts, cap in zip(sets, (cap_first, cap_later)):
            monkeypatch.setattr(vdtuning, "_MAX_ITERATIONS", cap)
            high, vd = list(ts.high_tasks), full_deadlines(ts)
            got = _descend(high, vd, "steepest", False,
                           DemandEngine(ts, CAP, memo=split_memo))
            want = oracle_descent(high, vd, "steepest", False,
                                  DemandEngine(ts, CAP, memo=oracle_memo))
            assert got == want
            if cap == 3:
                assert got.detail == "iteration cap reached"
                assert got.iterations == 3
        # The HI answers banked at hand-off points are the checks' own.
        (ts, _) = sets
        for key, value in split_memo.items():
            if key[0] == "hi":
                vd = {task_id: v for task_id, v in key[1]}
                fresh = DemandEngine(ts, CAP, memo={}).hi_check(vd, key[2])
                assert value == ("value", fresh), key

    def test_memo_free_engine_keeps_the_step_loop(self, registry):
        (ts,) = candidates(SIX_STEPS, [])
        outcome = _descend(
            list(ts.high_tasks), full_deadlines(ts), "steepest", False,
            DemandEngine(ts, CAP),
        )
        assert outcome.schedulable and outcome.iterations == 7
        assert not registry.counters("descent.")
