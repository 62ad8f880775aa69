"""Property-based tests for the dbf machinery (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.analysis.dbf import DemandScenario, HorizonExceeded, hi_mode_dbf, sporadic_dbf
from repro.model import Criticality, MCTask, TaskSet


@st.composite
def hc_with_vd(draw):
    """An HC task together with a legal virtual deadline."""
    period = draw(st.integers(min_value=5, max_value=60))
    wcet_lo = draw(st.integers(min_value=1, max_value=max(1, period // 2)))
    wcet_hi = draw(st.integers(min_value=wcet_lo, max_value=period))
    deadline = draw(st.integers(min_value=wcet_hi, max_value=period))
    vd = draw(st.integers(min_value=wcet_lo, max_value=deadline))
    task = MCTask(
        period=period,
        criticality=Criticality.HC,
        wcet_lo=wcet_lo,
        wcet_hi=wcet_hi,
        deadline=deadline,
    )
    return task, vd


@given(
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=0, max_value=300),
)
def test_sporadic_dbf_monotone_and_bounded(wcet, deadline, period, length):
    value = sporadic_dbf(wcet, deadline, period, length)
    assert value >= 0
    assert value <= sporadic_dbf(wcet, deadline, period, length + 1)
    # linear upper bound used for the horizon argument
    u = wcet / period
    assert value <= u * length + u * max(0, period - deadline) + 1e-9


@given(hc_with_vd(), st.integers(min_value=0, max_value=400))
def test_hi_mode_dbf_monotone(pair, length):
    task, vd = pair
    assert hi_mode_dbf(task, vd, length) <= hi_mode_dbf(task, vd, length + 1)


@given(hc_with_vd(), st.integers(min_value=0, max_value=400))
def test_hi_mode_dbf_nonnegative_and_bounded(pair, length):
    task, vd = pair
    value = hi_mode_dbf(task, vd, length)
    assert value >= 0
    # never exceeds the unreduced step function
    residual = task.deadline - vd
    raw = sporadic_dbf(task.wcet_hi, residual, task.period, length) if residual else (
        (length // task.period + 1) * task.wcet_hi
    )
    assert value <= raw + task.wcet_hi  # crude envelope


@st.composite
def lc_task(draw):
    period = draw(st.integers(min_value=5, max_value=60))
    wcet = draw(st.integers(min_value=1, max_value=max(1, period // 2)))
    deadline = draw(st.integers(min_value=wcet, max_value=period))
    return MCTask(
        period=period,
        criticality=Criticality.LC,
        wcet_lo=wcet,
        wcet_hi=wcet,
        deadline=deadline,
    )


@given(
    st.lists(hc_with_vd(), min_size=1, max_size=4),
    st.lists(lc_task(), max_size=2),
    st.sampled_from(["full-drop", "imprecise:0.5", "elastic:1.5"]),
    st.data(),
)
@settings(max_examples=60)
def test_shrinking_vd_never_helps_lo_never_hurts_hi(pairs, lcs, service, data):
    """Shrinking any one virtual deadline by one never lowers LO demand
    and never raises HI demand at any length, refined or not, with
    degraded LC entries in HI mode: lemma (a) behind the descent's scan
    front (:func:`repro.analysis.vdtuning._hi_answer`)."""
    ts = TaskSet([task for task, _ in pairs] + lcs, service_model=service)
    vd = {task.task_id: v for task, v in pairs}
    task, v = data.draw(st.sampled_from(pairs))
    if v <= task.wcet_lo:
        return
    loose = DemandScenario(ts, vd)
    tight = DemandScenario(ts, {**vd, task.task_id: v - 1})
    for length in range(0, 3 * max(t.period for t in ts)):
        assert tight.lo_demand_at(length) >= loose.lo_demand_at(length)
        for refine in (False, True):
            assert tight.hi_demand_at(length, refine) <= loose.hi_demand_at(
                length, refine
            ), (length, refine)


@given(st.lists(hc_with_vd(), min_size=1, max_size=4))
@settings(max_examples=40)
def test_scalar_and_vector_paths_agree(pairs):
    tasks = TaskSet([p[0] for p in pairs])
    vd = {p[0].task_id: p[1] for p in pairs}
    scenario = DemandScenario(tasks, vd)
    for length in range(0, 150, 11):
        manual = sum(hi_mode_dbf(t, vd[t.task_id], length) for t in tasks)
        assert scenario.hi_demand_at(length, refine=False) == manual


@given(st.lists(hc_with_vd(), min_size=1, max_size=4))
@settings(max_examples=40)
def test_refinement_sound_and_no_larger(pairs):
    tasks = TaskSet([p[0] for p in pairs])
    vd = {p[0].task_id: p[1] for p in pairs}
    scenario = DemandScenario(tasks, vd)
    for length in range(0, 150, 13):
        refined = scenario.hi_demand_at(length, refine=True)
        plain = scenario.hi_demand_at(length, refine=False)
        assert 0 <= refined <= plain


@given(st.lists(hc_with_vd(), min_size=1, max_size=4))
@settings(max_examples=30)
def test_violation_reporting_consistent(pairs):
    """If a violation is reported, demand indeed exceeds supply there.

    The exact-point guarantee only applies below the utilization
    short-circuit (above 1 the reported length is just a marker).
    """
    tasks = TaskSet([p[0] for p in pairs])
    if sum(t.utilization_hi for t in tasks) > 1.0:
        return
    vd = {p[0].task_id: p[1] for p in pairs}
    scenario = DemandScenario(tasks, vd)
    try:
        violation = scenario.hi_violation(refine=False)
    except HorizonExceeded:
        return
    if violation is not None:
        assert scenario.hi_demand_at(violation) > violation
