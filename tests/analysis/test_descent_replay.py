"""The split shrink descent: a cached HI trajectory plus one LO search.

:func:`repro.analysis.vdtuning._descend` does not walk every step with
a LO probe.  It fetches the core's HI-only
trajectory (built once per HC set, degraded-LC members, policy and
refinement), bisects it for the last LO-feasible prefix, commits that
prefix and runs the step loop from there.  These tests hold it to the
plain step loop (``tests.conftest.oracle_descent``, whose HI checks are
full scans from 0), outcome for outcome: verdict, virtual deadlines,
iteration count and detail string.  They also audit the memo: every
``("hi", ...)`` entry a descent leaves must be the exact answer at its
assignment, whichever probe and scan front wrote it.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import event, example, given, settings, strategies as st

from repro import obs
from repro.analysis import vdtuning
from repro.analysis.dbf import DemandScenario, HorizonExceeded, set_demand_kernel
from repro.analysis.vdtuning import (
    DemandEngine,
    TuningOutcome,
    _descend,
    run_tuning_stages,
    tune_virtual_deadlines,
)
from repro.degradation.service import parse_service_model
from repro.experiments.acceptance import AcceptanceSweep
from repro.experiments.algorithms import get_algorithm
from repro.experiments.figures import figure_plan
from repro.model import Criticality, MCTask, TaskSet
from repro.obs.registry import MetricsRegistry
from tests.conftest import oracle_descent, scan_hi_check

CAP = 100_000
SERVICES = ("full-drop", "imprecise:0.5", "elastic:1.5")
STAGES = (("steepest", False), ("ratio", False), ("steepest", True), ("ratio", True))
ECDF_CHAIN = (("ratio", True), ("steepest", True), ("steepest", False))


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


@contextmanager
def demand_kernel(name):
    previous = set_demand_kernel(name)
    try:
        yield
    finally:
        set_demand_kernel(previous)


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


#: HC sets on which a scan front set to the last violation skipped an
#: earlier violation: a shrink turned an integer inside a ramp piece below
#: the front into a violating breakpoint.  (period, HC?, C_L, C_H, D) rows,
#: with the stage that reaches it.
FRONT_PINS = (
    (
        [(43, True, 13, 19, 35), (85, True, 19, 19, 63), (40, True, 8, 8, 36)],
        ("steepest", True),
    ),
    (
        [(140, True, 23, 37, 89), (168, True, 4, 11, 103), (100, True, 21, 32, 70)],
        ("steepest", False),
    ),
)


def pinned(test):
    """Add every :data:`FRONT_PINS` set, LC-free under drop semantics, as
    an explicit example of a ``(probes, stage)`` property."""
    for hcs, stage in FRONT_PINS:
        test = example(probes=(hcs, [], "full-drop"), stage=stage)(test)
    return test


class TestDifferential:
    @given(core_probes(), st.sampled_from(STAGES))
    @pinned
    @settings(max_examples=150, deadline=None)
    def test_split_descent_equals_step_loop(self, probes, stage):
        """Both policies, both refinements, all three service models;
        repeat probes of a growing LC set share one memo, so later probes
        replay the first probe's trajectory."""
        hcs, lcs, service = probes
        policy, refine = stage
        with recording() as registry:
            compare_probes(candidates(hcs, lcs, service), policy, refine)
        counters = registry.counters("descent.")
        event(f"replayed={counters.get('descent.replayed', 0) > 0}")
        event(f"reused={counters.get('descent.trajectory-reuse', 0) > 0}")
        event(f"lo-checks>1={counters.get('descent.lo-checks', 0) > 1}")

    @given(core_probes())
    @settings(max_examples=60, deadline=None)
    def test_tuning_chain_equals_step_loop(self, probes):
        """The whole ECDF chain (uniform search, V* floor, three stages) on
        a shared memo, against the same chain with the oracle loop."""
        hcs, lcs, service = probes
        sets = candidates(hcs, lcs, service)
        split_memo, oracle_memo = {}, {}
        with demand_kernel("qpa"):
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


def audit_hi_entries(memo, sets, cap=CAP):
    """Every ``("hi", sig, refine)`` entry of ``memo`` equals a fresh
    engine's check at that assignment; ``sets`` are the probes that
    filled it (their HC ids and degraded-LC ids name the key's probe)."""
    probes = {}
    for ts in sets:
        engine = DemandEngine(ts, cap)
        probes[engine._high_ids, engine._lc_sig] = ts
    for key, value in memo.items():
        if key[0] != "hi":
            continue
        _, sig, refine = key
        lc = ()
        if sig and sig[-1][0] == "lc":
            sig, lc = sig[:-1], sig[-1][1:]
        ts = probes[tuple(task_id for task_id, _ in sig), lc]
        try:
            fresh = ("value", DemandEngine(ts, cap).hi_check(dict(sig), refine))
        except HorizonExceeded:
            fresh = ("raise",)
        assert value[: len(fresh)] == fresh, key


@contextmanager
def audit_lo_and_unib():
    """Check every ``DemandEngine.lo_feasible`` answer and every uniform
    HI phase (``("lo", ...)`` and ``("unib", ...)`` memo entries) against
    a fresh engine's, whichever earlier probe wrote the entry."""
    lo_feasible = DemandEngine.lo_feasible
    hi_phase = vdtuning._uniform_hi_phase

    def fresh(engine):
        return DemandEngine(engine.taskset, engine.horizon_cap)

    def lo_spy(engine, vd):
        got = lo_feasible(engine, vd)
        assert got == lo_feasible(fresh(engine), vd), (engine.taskset, vd)
        return got

    def hi_phase_spy(high_tasks, refine, engine):
        got = hi_phase(high_tasks, refine, engine)
        assert got == hi_phase(high_tasks, refine, fresh(engine)), (
            engine.taskset, refine,
        )
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DemandEngine, "lo_feasible", lo_spy)
        patch.setattr(vdtuning, "_uniform_hi_phase", hi_phase_spy)
        yield


class TestMemoAudit:
    @pytest.mark.parametrize("service", SERVICES)
    @pytest.mark.parametrize("kernel_name", ("qpa", "block"))
    @given(core_probes(), st.sampled_from(STAGES))
    @pinned
    @settings(max_examples=60, deadline=None)
    def test_hi_entries_are_exact(self, kernel_name, service, probes, stage):
        """After each probe of a growing LC set on one memo — the public
        tuning path: uniform search, V* floor, then the descent — every
        cached HI answer is the exact one, whichever probe and scan front
        wrote it."""
        hcs, lcs, _ = probes
        policy, refine = stage
        sets = candidates(hcs, lcs, service)
        memo: dict = {}
        with demand_kernel(kernel_name):
            for ts in sets:
                tune_virtual_deadlines(
                    ts, policy, refine, CAP, engine=DemandEngine(ts, CAP, memo=memo)
                )
                audit_hi_entries(memo, sets)

    @given(core_probes())
    @settings(max_examples=100, deadline=None)
    def test_lo_and_unib_answers_are_exact(self, probes):
        """The ECDF chain, then every single stage, over a growing LC set
        on one memo: every LO verdict and every uniform HI phase equals a
        fresh engine's, so neither the refinement flag nor the LC members
        a key leaves out can serve a wrong hit."""
        hcs, lcs, service = probes
        memo: dict = {}
        with audit_lo_and_unib():
            for ts in candidates(hcs, lcs, service):
                run_tuning_stages(ts, ECDF_CHAIN, CAP, DemandEngine(ts, CAP, memo=memo))
                for policy, refine in STAGES:
                    tune_virtual_deadlines(
                        ts, policy, refine, CAP, DemandEngine(ts, CAP, memo=memo)
                    )

    @pytest.mark.parametrize("algorithm_name", ["ca-f-f-ey", "cu-udp-ecdf"])
    @pytest.mark.parametrize("figure", ["fig4", "fig5"])
    def test_partition_memos_are_exact(self, figure, algorithm_name, monkeypatch):
        """Whole m = 4 partitions of seed-0 figure sets: every core's
        shared memo holds only exact HI answers, and serves only exact
        LO verdicts and uniform HI phases."""
        (job,) = figure_plan(figure, 8, m_values=(4,))
        sweep = AcceptanceSweep(job.config)
        algorithm = get_algorithm(algorithm_name)
        filled: dict[int, tuple[dict, list]] = {}
        run_stages = vdtuning._run_stages

        def spy(engine, stages):
            memo, probed = filled.setdefault(id(engine._memo), (engine._memo, []))
            probed.append(engine.taskset)
            return run_stages(engine, stages)

        monkeypatch.setattr(vdtuning, "_run_stages", spy)
        with demand_kernel("qpa"), audit_lo_and_unib():
            for bucket, points in sweep.bucket_points().items():
                if not 0.5 <= bucket <= 0.8:
                    continue
                batch = sweep.batch_for_bucket(bucket, points)
                for index in range(min(2, len(batch))):
                    algorithm.partition(batch.taskset(index), 4)
        assert filled
        for memo, probed in filled.values():
            audit_hi_entries(memo, probed, cap=algorithm.test.horizon_cap)


class TestScanFront:
    """The front a HI check returns (``vdtuning._hi_answer``) is sound:
    no integer below it violates, now or after any later shrink, so a
    check hinted there finds what a full scan finds."""

    @staticmethod
    def drawn_check(probes, service, refine, data):
        """A drawn core and assignment, its checked answer, and a drawn
        later assignment that shrinks some virtual deadlines further."""
        hcs, lcs, _ = probes
        ts = candidates(hcs, lcs, service)[-1]
        vd = {
            t.task_id: data.draw(st.integers(t.wcet_lo, t.deadline))
            for t in ts.high_tasks
        }
        try:
            answer = DemandEngine(ts, CAP).hi_check(vd, refine)
        except HorizonExceeded:
            answer = None
        shrunk = {
            t.task_id: data.draw(st.integers(t.wcet_lo, vd[t.task_id]))
            for t in ts.high_tasks
        }
        return ts, answer, shrunk

    @pytest.mark.parametrize("service", SERVICES)
    @pytest.mark.parametrize("refine", [False, True])
    @given(core_probes(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_no_integer_below_the_front_violates(self, refine, service, probes, data):
        ts, answer, shrunk = self.drawn_check(probes, service, refine, data)
        if answer is None or answer[0] is None:
            return
        violation, _, front = answer
        assert 0 <= front <= violation
        scenario = DemandScenario(ts, shrunk)
        for length in range(front):
            assert scenario.hi_demand_at(length, refine) <= length, length

    @pytest.mark.parametrize("service", SERVICES)
    @pytest.mark.parametrize("refine", [False, True])
    @given(core_probes(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_check_from_the_front_equals_a_full_scan(
        self, refine, service, probes, data
    ):
        ts, answer, shrunk = self.drawn_check(probes, service, refine, data)
        if answer is None:
            return

        def outcome(fn):
            try:
                return fn()
            except HorizonExceeded:
                return "raise"

        hinted = outcome(
            lambda: DemandEngine(ts, CAP).hi_check(shrunk, refine, answer[2])[:2]
        )
        assert hinted == outcome(lambda: scan_hi_check(ts, shrunk, refine, CAP))

    def test_pass_has_front_zero(self):
        (ts,) = candidates([(20, True, 2, 3, 20)], [])
        vd = {t.task_id: 2 for t in ts.high_tasks}
        assert DemandEngine(ts, CAP).hi_check(vd, False) == (None, None, 0)

    def test_overload_marker_leaves_the_front(self):
        """HI utilization above 1 reports the marker, the smallest
        residual deadline; no breakpoint lies below it, so its front is
        0 and a descent's front stays where it was."""
        (ts,) = candidates([(10, True, 2, 6, 10), (10, True, 2, 6, 10)], [])
        vd = {t.task_id: 4 for t in ts.high_tasks}
        violation, demand, front = DemandEngine(ts, CAP).hi_check(vd, False)
        assert violation == 6 and demand > violation
        assert front == 0


# -- pinned edge cases -----------------------------------------------------------

#: (period, HC?, C_L, C_H, D) rows
SIX_STEPS = [(15, True, 4, 10, 10)]
BINDS_AT_START = (
    [(10, True, 2, 4, 8)],
    [(23, False, 10, 10, 16), (18, False, 4, 4, 4)],
)
BINDS_AT_LAST = [(7, True, 1, 3, 3), (9, True, 1, 4, 6)]


class TestPinned:
    def test_whole_trajectory_replays(self, registry, monkeypatch):
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

    def test_lo_binds_at_step_zero(self, monkeypatch):
        hcs, lcs = BINDS_AT_START
        *_, ts = candidates(hcs, lcs)
        outcome, seen = replays(ts, monkeypatch)
        assert seen == [(2, 0)]
        assert outcome.iterations == 2 and not outcome.schedulable
        compare_probes(candidates(hcs, lcs), "steepest", False)

    def test_lo_binds_at_last_step(self, monkeypatch):
        (ts,) = candidates(BINDS_AT_LAST, [])
        outcome, seen = replays(ts, monkeypatch)
        assert seen == [(7, 6)]
        assert outcome == TuningOutcome(
            False, outcome.virtual_deadlines, 8, "no shrinkable task at l*=4"
        )
        compare_probes([ts], "steepest", False)

    def test_repeat_probes_reuse_the_trajectory(self, registry):
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

    def test_cap_guard_keeps_the_step_loop(self, registry):
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

    def test_cap_guard_is_needed(self, monkeypatch):
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

    def test_hi_horizon_overrun_mid_trajectory(self, monkeypatch):
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

        scan = DemandScenario.hi_violation

        def tight_scan(scenario, refine=False):
            if max(t.deadline for t in scenario._hi + scenario._hi_lc) > 4:
                raise HorizonExceeded("residual above 4")
            return scan(scenario, refine)

        monkeypatch.setattr(vdtuning, "_hi_meta_of", tight_meta)
        monkeypatch.setattr(DemandScenario, "hi_violation", tight_scan)
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
    def test_iteration_cap(self, monkeypatch, cap_first, cap_later):
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
        audit_hi_entries(split_memo, sets)
