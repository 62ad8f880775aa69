"""Prefilter bank exactness: every settle equals the full partition outcome.

The bank's contract is *reject-only and exact*: a filter may settle a set
only when :func:`repro.core.allocator.partition` provably fails for it.
These tests verify the contract both on crafted boundary cases (sum just
above/below ``m``, a lone infeasible task) and empirically on random
generated buckets across strategies × tests × service models — every
settled set is re-partitioned the slow way and must fail.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import get_test
from repro.analysis.prefilter import (
    SUM_MARGIN,
    DemandPreScreen,
    EDFVDScreen,
    PrefilterBank,
    ProbeScreen,
    default_prefilter_bank,
)
from repro.analysis.context import DemandContext
from repro.core import get_strategy, partition
from repro.generator import GeneratorConfig, MCTaskSetGenerator
from repro.model import MCTask, TaskSet, TaskSetBatch
from repro.util.rng import derive_rng


def generated_batch(
    m=2, deadline_type="implicit", service=None, count=30, label="pf"
):
    gen = MCTaskSetGenerator(GeneratorConfig(m=m, deadline_type=deadline_type))
    columns = []
    for k in range(count):
        u_hh = 0.2 + (k % 8) * 0.1
        u_lh = min(u_hh, 0.1 + (k % 4) * 0.1)
        u_ll = 0.1 + (k % 6) * 0.12
        cols = gen.generate_columns(
            derive_rng(label, deadline_type, k), u_hh, u_lh, u_ll
        )
        if cols is not None:
            columns.append(cols)
    return TaskSetBatch(columns, service_model=service)


class TestSumFilters:
    def test_sum_lo_fires_only_above_margin(self):
        # m=1: two tasks at u=0.6 sum to 1.2 > 1 + margin -> certain reject.
        heavy = TaskSet(
            [
                MCTask(period=10, criticality="LC", wcet_lo=6, wcet_hi=6),
                MCTask(period=10, criticality="LC", wcet_lo=6, wcet_hi=6),
            ]
        )
        light = TaskSet(
            [MCTask(period=10, criticality="LC", wcet_lo=6, wcet_hi=6)]
        )
        batch = TaskSetBatch.from_tasksets([heavy, light])
        report = default_prefilter_bank().apply(batch, 1, get_test("ey"))
        assert report.settled[0] == "sum-lo"
        assert report.settled[1] is None
        assert report.counts["sum-lo"] == 1

    def test_sum_hi_fires_for_hc_overload(self):
        overload = TaskSet(
            [
                MCTask(period=10, criticality="HC", wcet_lo=2, wcet_hi=7),
                MCTask(period=10, criticality="HC", wcet_lo=2, wcet_hi=7),
            ]
        )
        batch = TaskSetBatch.from_tasksets([overload])
        report = default_prefilter_bank().apply(batch, 1, get_test("ey"))
        assert report.settled[0] == "sum-hi"

    @pytest.mark.parametrize("test_name", ["edf-vd", "ey", "ecdf", "amc-max"])
    @pytest.mark.parametrize("strategy_name", ["ca-udp", "cu-udp", "ca-f-f"])
    def test_every_settle_is_a_true_partition_failure(
        self, test_name, strategy_name
    ):
        deadline_type = "implicit" if test_name == "edf-vd" else "constrained"
        batch = generated_batch(m=2, deadline_type=deadline_type)
        test = get_test(test_name)
        report = default_prefilter_bank().apply(batch, 2, test)
        fired = [i for i, s in enumerate(report.settled) if s is not None]
        for i in fired:
            result = partition(
                batch.taskset(i), 2, test, get_strategy(strategy_name)
            )
            assert not result.success

    def test_margin_constant_is_conservative(self):
        # The soundness argument needs the margin to dominate the tests'
        # acceptance epsilon for any realistic core count.
        assert SUM_MARGIN >= 50 * 1e-9


class TestLoneTaskFilter:
    def test_lone_infeasible_task_settles_set(self):
        # C_H > D: unschedulable alone under every constrained-deadline
        # test, hence under any partition of any superset.
        doomed = MCTask(
            period=100, criticality="HC", wcet_lo=10, wcet_hi=60, deadline=40
        )
        filler = MCTask(period=100, criticality="LC", wcet_lo=5, wcet_hi=5)
        batch = TaskSetBatch.from_tasksets([TaskSet([doomed, filler])])
        for test_name in ("ey", "ecdf", "amc-max"):
            test = get_test(test_name)
            report = default_prefilter_bank().apply(batch, 4, test)
            assert report.settled[0] == "lone-task"
            result = partition(batch.taskset(0), 4, test, get_strategy("cu-udp"))
            assert not result.success

    def test_monotonicity_opt_out_disables_filter(self):
        doomed = MCTask(
            period=100, criticality="HC", wcet_lo=10, wcet_hi=60, deadline=40
        )
        batch = TaskSetBatch.from_tasksets([TaskSet([doomed])])
        test = get_test("ey")
        test.is_subset_monotone = False
        report = default_prefilter_bank().apply(batch, 4, test)
        assert report.settled[0] is None

    def test_filter_has_no_opt_out(self):
        """The filter is gated on subset monotonicity alone: a bare bank
        runs it, and the bank takes no switch to turn it off."""
        doomed = MCTask(
            period=100, criticality="HC", wcet_lo=10, wcet_hi=60, deadline=40
        )
        batch = TaskSetBatch.from_tasksets([TaskSet([doomed])])
        report = PrefilterBank().apply(batch, 4, get_test("ey"))
        assert report.settled[0] == "lone-task"
        with pytest.raises(TypeError):
            PrefilterBank(lone_task=False)


class TestDemandPreScreenMirrorsContext:
    """Screen verdicts must equal context probe verdicts wherever decided."""

    @pytest.mark.parametrize("test_name", ["ey", "ecdf"])
    def test_screen_agrees_with_context_probes(self, test_name):
        test = get_test(test_name)
        screen = test.batch_screen()
        assert isinstance(screen, DemandPreScreen)
        batch = generated_batch(m=2, deadline_type="implicit", label="screen")
        rng = np.random.default_rng(7)
        for i in range(len(batch)):
            taskset = batch.taskset(i)
            context = test.make_context(None)
            a = b = c = 0.0
            implicit = True
            for task in taskset:
                ca, cb, cc = a, b, c
                if task.is_high:
                    cb += task.utilization_lo
                    cc += task.utilization_hi
                else:
                    ca += task.utilization_lo
                verdict = screen.decide(
                    ca, cb, cc, 0.0, implicit and task.implicit_deadline
                )
                probed = context.probe(task)
                if verdict is not None:
                    assert verdict == probed
                if probed and rng.random() < 0.9:
                    context.commit(task)
                    a, b, c = ca, cb, cc
                    implicit = implicit and task.implicit_deadline


# -- decide_many == decide ---------------------------------------------------

_EPS = 1e-9
#: The screens' thresholds, each with its neighbouring doubles.
_EDGES = [
    edge
    for target in (1.0 + _EPS, 1.0 - _EPS, 1.0, 0.0, _EPS, -_EPS)
    for edge in (
        np.nextafter(np.nextafter(target, -2.0), -2.0),
        np.nextafter(target, -2.0),
        target,
        np.nextafter(target, 2.0),
        np.nextafter(np.nextafter(target, 2.0), 2.0),
    )
]
_values = st.one_of(
    st.sampled_from(_EDGES),
    st.floats(min_value=-1e-8, max_value=1.5, allow_nan=False),
)


@st.composite
def probe_sums(draw):
    """One probe's ``(a, b, c, u_res, implicit)``, biased to the gates.

    Partner sums are aimed at the thresholds: ``a + c`` and ``a + b`` at
    ``1 + 1e-9`` (give or take an ulp), ``b`` at 0 or ``c``, ``u_res`` at
    0 or ``a`` — so each gate is probed on both sides of its boundary.
    """
    a = draw(_values)
    partner = st.one_of(
        _values, st.sampled_from([edge - a for edge in _EDGES])
    )
    c = draw(partner)
    b = draw(st.one_of(partner, st.sampled_from([0.0, c, c + _EPS])))
    u_res = draw(
        st.one_of(
            _values,
            st.sampled_from([0.0, a, a + _EPS, np.nextafter(a + _EPS, 3.0)]),
        )
    )
    return float(a), float(b), float(c), float(u_res), draw(st.booleans())


def scalar_codes(screen, probes):
    codes = []
    for probe in probes:
        try:
            verdict = screen.decide(*probe)
        except ValueError:
            codes.append(-2)
            continue
        codes.append(-1 if verdict is None else int(verdict))
    return codes


def vector_codes(decide_many, probes, all_implicit=False):
    a, b, c, u_res, implicit = (np.array(col) for col in zip(*probes))
    codes = decide_many(a, b, c, u_res, True if all_implicit else implicit)
    assert codes.dtype == np.int8 and codes.shape == a.shape
    return codes.tolist()


class TestDecideManyMatchesDecide:
    """Every vector code equals the scalar verdict of the same probe."""

    SCREENS = [EDFVDScreen(), DemandPreScreen()]

    @pytest.mark.parametrize("screen", SCREENS, ids=["edf-vd", "demand"])
    @given(probes=st.lists(probe_sums(), min_size=1, max_size=24))
    @settings(max_examples=300, deadline=None)
    def test_differential(self, screen, probes):
        want = scalar_codes(screen, probes)
        assert vector_codes(screen.decide_many, probes) == want
        # The base-class loop over decide is the reference implementation.
        base = partial(ProbeScreen.decide_many, screen)
        assert vector_codes(base, probes) == want
        implicit = [probe[:4] + (True,) for probe in probes]
        want = scalar_codes(screen, implicit)
        assert vector_codes(screen.decide_many, implicit, True) == want
        assert vector_codes(base, implicit, True) == want

    @pytest.mark.parametrize(
        "probe",
        [
            (-2e-9, 0.0, 0.0, 0.0),  # negative U_LL
            (0.0, -2e-9, 0.0, 0.0),  # negative U_LH
            (0.0, 0.0, -2e-9, 0.0),  # negative U_HH
            (0.0, 0.5, 0.4, 0.0),  # U_LH > U_HH
            (0.2, 0.1, 0.3, -2e-9),  # negative U_res
            (0.2, 0.1, 0.3, 0.2 + 2e-9),  # U_res > U_LL
        ],
    )
    def test_edfvd_invalid_input_codes(self, probe):
        screen = EDFVDScreen()
        with pytest.raises(ValueError):
            screen.decide(*probe, True)
        arrays = [np.array([value]) for value in probe]
        assert screen.decide_many(*arrays, True).tolist() == [-2]
        # Non-implicit input is undecided before it is validated.
        assert screen.decide_many(*arrays, np.array([False])).tolist() == [-1]

    def test_edfvd_saturated_lo_and_zero_lh(self):
        screen = EDFVDScreen()
        probes = [
            (1.0 - _EPS, 1e-12, 0.5, 0.0, True),  # a >= 1 - 1e-9: reject
            (1.0 - 2e-9, 1e-12, 0.5, 0.0, True),  # just below: HI formula
            (1.0, 0.0, 1e-12, 0.0, True),  # a = 1, b = 0: no division
            (0.6, 0.0, 0.5, 0.3, True),  # b = 0 with a + c > 1
        ]
        assert vector_codes(screen.decide_many, probes) == scalar_codes(
            screen, probes
        )
