"""The V* floor reject of the tuning stages.

Before a stage (EY, and each of ECDF's three) pays a shrink descent,
:func:`repro.analysis.vdtuning._vstar_floor_violation` puts every HC task
at its minimal LO-feasible deadline V* (the other tasks at their full
deadlines) and runs one HI check with the stage's own refinement; a
violation there rejects the stage.  These tests pin the lemma the reject
rests on by brute force over every virtual-deadline assignment of tiny
task sets, refined and unrefined, and check that the reject never changes
a verdict of the descent it replaces.  The uniform-scaling bisection's
ceiling rests on the same lemma (HI demand is monotone in every virtual
deadline); its tests close the file.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

from repro.analysis import dbf
from repro.analysis.dbf import DemandScenario, HorizonExceeded
from repro.analysis.vdtuning import (
    DemandEngine,
    _descend,
    _uniform_hi_phase,
    _uniform_scaling_search,
    _vstar_floor_violation,
    run_tuning_stages,
    tune_virtual_deadlines,
)
from repro.degradation.service import parse_service_model
from repro.model import Criticality, MCTask, TaskSet

CAP = 100_000
FLOOR = "HI infeasible at V* floor"
SERVICES = ("full-drop", "imprecise:0.5", "elastic:1.5")
EY_CHAIN = (("steepest", False),)
ECDF_CHAIN = (("ratio", True), ("steepest", True), ("steepest", False))


def attach(tasks, service):
    if service == "full-drop":
        return TaskSet(tasks)
    return TaskSet(tasks, service_model=parse_service_model(service))


def full_deadlines(ts):
    return {t.task_id: t.deadline for t in ts.high_tasks}


def floor_deadlines(ts, engine):
    """The floor assignment F exactly as the reject builds it."""
    vd = full_deadlines(ts)
    floor = {}
    for task in ts.high_tasks:
        v_min = engine.lo_min_deadline(vd, task)
        floor[task.task_id] = task.wcet_lo if v_min is None else v_min
    return floor


def tiny_taskset(rng, service):
    """1-3 HC tasks and 0-1 LC task, integer parameters, D <= T <= 12."""
    tasks = []
    for _ in range(int(rng.integers(1, 4))):
        period = int(rng.integers(3, 13))
        wcet_lo = int(rng.integers(1, max(2, period // 2 + 1)))
        wcet_hi = int(rng.integers(wcet_lo, period + 1))
        deadline = int(rng.integers(wcet_hi, period + 1))
        tasks.append(
            MCTask(
                period=period,
                criticality=Criticality.HC,
                wcet_lo=wcet_lo,
                wcet_hi=wcet_hi,
                deadline=deadline,
            )
        )
    for _ in range(int(rng.integers(0, 2))):
        period = int(rng.integers(3, 13))
        wcet_lo = int(rng.integers(1, max(2, period // 2 + 1)))
        tasks.append(
            MCTask(
                period=period,
                criticality=Criticality.LC,
                wcet_lo=wcet_lo,
                wcet_hi=wcet_lo,
                deadline=int(rng.integers(wcet_lo, period + 1)),
            )
        )
    return attach(tasks, service)


def lo_feasible(ts, vd):
    try:
        return DemandScenario(ts, vd, horizon_cap=CAP).lo_violation() is None
    except HorizonExceeded:
        return False


def hi_passes(ts, vd, refine):
    try:
        scenario = DemandScenario(ts, vd, horizon_cap=CAP)
        return scenario.hi_violation(refine=refine) is None
    except HorizonExceeded:
        return False


class TestExhaustiveOracle:
    @pytest.mark.parametrize("refine", (False, True), ids=("unrefined", "refined"))
    @pytest.mark.parametrize("service", SERVICES)
    def test_floor_reject_leaves_no_acceptable_assignment(self, service, refine):
        """Whenever a stage stops at the floor, every LO-feasible
        assignment in ``prod [C_L_i, D_i]`` dominates the floor and fails
        that stage's HI check (refined for ECDF's first two stages) — so
        no stage that needs both could have accepted.  (Sets an earlier
        gate settles are skipped: most of them violate at the floor
        trivially, by HI overload.)"""
        policy = "ratio" if refine else "steepest"
        rng = np.random.default_rng(15)
        rejects = 0
        for _ in range(3000):
            ts = tiny_taskset(rng, service)
            high = list(ts.high_tasks)
            vd = full_deadlines(ts)
            fresh = _vstar_floor_violation(high, vd, DemandEngine(ts, CAP), refine)
            warm = DemandEngine(ts, CAP, memo={})
            _vstar_floor_violation(high, vd, warm, not refine)  # shared memo
            assert _vstar_floor_violation(high, vd, warm, refine) == fresh
            outcome = tune_virtual_deadlines(ts, policy, refine, CAP)
            if not outcome.detail.startswith(FLOOR):
                continue
            assert outcome.detail == f"{FLOOR} (l*={fresh})"
            rejects += 1
            floor = floor_deadlines(ts, warm)
            assert floor == floor_deadlines(ts, DemandEngine(ts, CAP))
            ranges = [range(t.wcet_lo, t.deadline + 1) for t in high]
            for values in itertools.product(*ranges):
                assignment = {t.task_id: v for t, v in zip(high, values)}
                if not lo_feasible(ts, assignment):
                    continue
                assert all(
                    assignment[tid] >= floor[tid] for tid in floor
                ), (ts, assignment, floor)
                assert not hi_passes(ts, assignment, refine), (
                    ts,
                    assignment,
                    floor,
                )
        assert rejects >= 30, "the corpus must exercise the floor reject"


@st.composite
def heavy_taskset(draw):
    """Small sets whose HC tasks fill most of the HI utilization budget
    and whose LC tasks carry much of the LO load.  Only a few percent of
    draws reach the floor reject; the tiny corpus below counts its own."""
    implicit = draw(st.booleans())
    tasks = []
    room_hi = room_lo = 1.0
    for _ in range(draw(st.integers(min_value=2, max_value=3))):
        period = draw(st.integers(min_value=4, max_value=30))
        top = max(1, int(period * room_hi))
        wcet_hi = draw(st.integers(min_value=max(1, 3 * top // 4), max_value=top))
        wcet_lo = draw(st.integers(min_value=1, max_value=max(1, wcet_hi // 2)))
        room_hi -= wcet_hi / period
        room_lo -= wcet_lo / period
        deadline = (
            period
            if implicit
            else draw(st.integers(min_value=wcet_hi, max_value=period))
        )
        tasks.append(
            MCTask(
                period=period,
                criticality=Criticality.HC,
                wcet_lo=wcet_lo,
                wcet_hi=wcet_hi,
                deadline=deadline,
            )
        )
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        period = draw(st.integers(min_value=4, max_value=30))
        top = max(1, int(period * room_lo))
        wcet_lo = draw(st.integers(min_value=max(1, top // 2), max_value=top))
        room_lo -= wcet_lo / period
        deadline = (
            period
            if implicit
            else draw(st.integers(min_value=wcet_lo, max_value=period))
        )
        tasks.append(
            MCTask(
                period=period,
                criticality=Criticality.LC,
                wcet_lo=wcet_lo,
                wcet_hi=wcet_lo,
                deadline=deadline,
            )
        )
    assume(room_hi >= -1e-9 and room_lo >= -1e-9)
    return attach(tasks, draw(st.sampled_from(SERVICES)))


def rebuilt_stage_accepts(ts, policy, refine):
    """A stage's verdict on the path before the floor reject existed,
    rebuilt from the parts the reject replaces: the uniform-scaling
    search, then the scalar descent, each on a fresh engine."""
    high = list(ts.high_tasks)
    if _uniform_scaling_search(high, refine, DemandEngine(ts, CAP)) is not None:
        return True
    descent = _descend(
        high, full_deadlines(ts), policy, refine, DemandEngine(ts, CAP)
    )
    return descent.schedulable


def assert_chains_keep_verdicts(ts):
    """Every floor reject must be a reject of the path it short-cuts, so
    the EY and ECDF chains keep their old verdicts.  (Stages the floor
    does not settle run code the reject leaves untouched.)  Returns the
    number of floor rejects seen."""
    rejects = 0
    for stages in (EY_CHAIN, ECDF_CHAIN):
        verdicts = []
        for policy, refine in stages:
            outcome = tune_virtual_deadlines(ts, policy, refine, CAP)
            if outcome.detail.startswith(FLOOR):
                rejects += 1
                assert not rebuilt_stage_accepts(ts, policy, refine), ts
            verdicts.append(outcome.schedulable)
        assert run_tuning_stages(ts, stages, CAP).schedulable == any(verdicts)
    return rejects


class TestVerdictDifferential:
    @given(heavy_taskset())
    @settings(max_examples=300, deadline=None)
    def test_stages_match_the_descent_path(self, ts):
        if assert_chains_keep_verdicts(ts):
            event("floor-reject")

    def test_tiny_corpus_matches_the_descent_path(self):
        """The exhaustive oracle's corpus, where floor rejects are
        common enough to count."""
        rng = np.random.default_rng(15)
        rejects = 0
        for index in range(600):
            ts = tiny_taskset(rng, SERVICES[index % len(SERVICES)])
            rejects += assert_chains_keep_verdicts(ts)
        assert rejects >= 20


class TestRefinedStages:
    def test_refined_descent_accepts_behind_an_unrefined_floor_reject(self):
        """The trigger refinement can accept what the unrefined floor
        rejects, so a refined stage checks the floor with its own
        refinement: here ECDF's first stage passes its refined floor check
        and accepts after a descent (11 scalar iterations) while EY stops
        at the floor."""
        ts = TaskSet(
            [
                MCTask(period=10, criticality=Criticality.HC, wcet_lo=2,
                       wcet_hi=3, deadline=7),
                MCTask(period=22, criticality=Criticality.HC, wcet_lo=4,
                       wcet_hi=8, deadline=13),
                MCTask(period=19, criticality=Criticality.LC, wcet_lo=8,
                       wcet_hi=8, deadline=14),
            ]
        )
        ey = run_tuning_stages(ts, EY_CHAIN, CAP)
        assert not ey.schedulable
        assert ey.detail.startswith(FLOOR)
        high = list(ts.high_tasks)
        engine = DemandEngine(ts, CAP)
        assert _vstar_floor_violation(high, full_deadlines(ts), engine, True) is None
        refined = tune_virtual_deadlines(ts, "ratio", True, CAP)
        assert refined.schedulable and refined.iterations > 0  # a descent
        assert run_tuning_stages(ts, ECDF_CHAIN, CAP).schedulable


def hc_set(params):
    return TaskSet(
        [
            MCTask(
                period=period,
                criticality=Criticality.HC,
                wcet_lo=wcet_lo,
                wcet_hi=wcet_hi,
                deadline=deadline,
            )
            for period, wcet_lo, wcet_hi, deadline in params
        ]
    )


def bisect(ts, refine, ceiling):
    """``_uniform_hi_phase`` on a fresh engine, with the bisection
    ceiling on or dropped; returns the best assignment, the engine's memo
    and the QPA iterations it took."""
    engine = DemandEngine(ts, CAP)
    dbf.reset_kernel_counters()
    if ceiling:
        best = _uniform_hi_phase(list(ts.high_tasks), refine, engine)
    else:
        hi_feasible = DemandEngine.hi_feasible
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                DemandEngine,
                "hi_feasible",
                lambda self, vd, refine, ceiling=None: hi_feasible(self, vd, refine),
            )
            best = _uniform_hi_phase(list(ts.high_tasks), refine, engine)
    return best, engine._memo, dbf.kernel_counters()["qpa-iterations"]


def assert_hi_entries_exact(memo, ts):
    """Every ``("hi", ...)`` and ``("hib", ...)`` entry equals a fresh
    engine's full check at that assignment."""
    for key, value in memo.items():
        if key[0] not in ("hi", "hib"):
            continue
        kind, sig, refine = key
        if sig and sig[-1][0] == "lc":
            sig = sig[:-1]
        try:
            fresh = DemandEngine(ts, CAP).hi_check(dict(sig), refine)
        except HorizonExceeded:
            assert kind == "hi" and value[0] == "raise", key
            continue
        if kind == "hi":
            assert value == ("value", fresh), key
        else:
            assert value == (fresh[0] is None), key


class TestBisectionCeiling:
    """Each failing probe of the uniform-scaling bisection bounds the
    violations of every later (dominated) probe, and the later QPA
    searches start at that ceiling: a cost hint only."""

    @given(heavy_taskset(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_same_best_and_exact_memo(self, ts, refine):
        best, memo, _ = bisect(ts, refine, ceiling=True)
        assert bisect(ts, refine, ceiling=False)[0] == best
        assert_hi_entries_exact(memo, ts)

    @pytest.mark.parametrize(
        "params, refine",
        [
            ([(29, 1, 14, 19), (37, 11, 19, 27)], False),
            ([(19, 5, 9, 11), (46, 6, 24, 46)], True),
        ],
    )
    def test_pinned_sets_take_fewer_qpa_iterations(self, params, refine):
        ts = hc_set(params)
        best, memo, with_ceiling = bisect(ts, refine, ceiling=True)
        unbounded, _, without = bisect(ts, refine, ceiling=False)
        assert best == unbounded
        assert with_ceiling < without
        assert_hi_entries_exact(memo, ts)
