"""TaskSetBatch: columnar layout, lazy materialization, derived columns."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.degradation.service import ElasticPeriod, ImpreciseBudget
from repro.model import MCTask, TaskColumns, TaskSet, TaskSetBatch


def make_taskset(seed: int = 0) -> TaskSet:
    return TaskSet(
        [
            MCTask(period=10 + seed, criticality="HC", wcet_lo=2, wcet_hi=4),
            MCTask(period=20, criticality="LC", wcet_lo=5, wcet_hi=5),
            MCTask(
                period=50,
                criticality="LC",
                wcet_lo=10,
                wcet_hi=10,
                wcet_degraded=4,
            ),
        ]
    )


class TestLayout:
    def test_offsets_and_sizes(self):
        batch = TaskSetBatch.from_tasksets([make_taskset(0), make_taskset(1)])
        assert len(batch) == 2
        assert batch.n_tasks == 6
        assert batch.offsets.tolist() == [0, 3, 6]
        assert batch.set_slice(1) == slice(3, 6)

    def test_empty_batch(self):
        batch = TaskSetBatch([])
        assert len(batch) == 0
        assert batch.n_tasks == 0
        assert batch.to_tasksets() == []
        assert batch.sum_per_set(batch.u_lo).tolist() == []

    def test_columns_match_task_fields(self):
        ts = make_taskset()
        batch = TaskSetBatch.from_tasksets([ts])
        for i, task in enumerate(ts):
            assert batch.period[i] == task.period
            assert batch.wcet_lo[i] == task.wcet_lo
            assert batch.wcet_hi[i] == task.wcet_hi
            assert batch.deadline[i] == task.deadline
            assert bool(batch.is_high[i]) == task.is_high
        assert batch.wcet_degraded.tolist() == [-1, -1, 4]

    def test_empty_set_rows(self):
        batch = TaskSetBatch.from_tasksets([TaskSet(), make_taskset()])
        assert len(batch) == 2
        assert batch.set_slice(0) == slice(0, 0)
        sums = batch.sum_per_set(batch.u_lo)
        assert sums[0] == 0.0
        assert sums[1] > 0

    def test_from_arrays_shares_columns_with_fresh_caches(self):
        batch = TaskSetBatch.from_tasksets([make_taskset(0), make_taskset(1)])
        batch.u_lo, batch.taskset(0)
        batch.replay_cache["sums"] = 1
        twin = TaskSetBatch.from_arrays(batch.arrays(), "imprecise:0.5")
        assert len(batch.arrays()) == len(TaskSetBatch.ARRAYS) == 8
        assert all(a is b for a, b in zip(twin.arrays(), batch.arrays()))
        assert twin._sets == {} and twin.replay_cache == {}
        assert twin._u_lo is None and twin._u_res is None
        assert twin.service_model.key() == ("imprecise", 0.5)
        assert np.array_equal(twin.u_lo, batch.u_lo)
        for a, b in zip(twin.to_tasksets(), batch.to_tasksets()):
            assert [t.wcet_lo for t in a] == [t.wcet_lo for t in b]
            assert a.service_model.key() == ("imprecise", 0.5)
        with pytest.raises(ValueError):
            TaskSetBatch.from_arrays(batch.arrays()[:-1])


class TestDerivedColumns:
    def test_utilization_columns_bit_identical(self):
        ts = make_taskset()
        batch = TaskSetBatch.from_tasksets([ts])
        for i, task in enumerate(ts):
            assert float(batch.u_lo[i]) == task.utilization_lo
            assert float(batch.u_hi[i]) == task.utilization_hi

    def test_u_res_zero_under_drop(self):
        batch = TaskSetBatch.from_tasksets([make_taskset()])
        assert not batch.u_res.any()

    def test_u_res_matches_service_model(self):
        ts = make_taskset().with_service_model("imprecise:0.5")
        batch = TaskSetBatch.from_tasksets([ts])
        service = ts.effective_service
        expected = [
            0.0 if t.is_high else service.residual_utilization(t) for t in ts
        ]
        assert batch.u_res.tolist() == expected


@st.composite
def task_rows(draw):
    """One task row: HC or LC, LC rows with or without degraded overrides."""
    period = draw(st.integers(min_value=1, max_value=1000))
    wcet_lo = draw(st.integers(min_value=1, max_value=period))
    if draw(st.booleans()):
        wcet_hi = draw(st.integers(min_value=wcet_lo, max_value=period))
        return TaskColumns.from_taskset(TaskSet([
            MCTask(period=period, criticality="HC", wcet_lo=wcet_lo, wcet_hi=wcet_hi)
        ]))
    wcet_degraded = draw(st.none() | st.integers(min_value=0, max_value=wcet_lo))
    period_degraded = draw(
        st.none() | st.integers(min_value=period, max_value=4 * period)
    )
    return TaskColumns.from_taskset(TaskSet([
        MCTask(
            period=period, criticality="LC", wcet_lo=wcet_lo, wcet_hi=wcet_lo,
            wcet_degraded=wcet_degraded, period_degraded=period_degraded,
        )
    ]))


class LoopImprecise(ImpreciseBudget):
    """Inherits ``residual_column`` but not as its own: takes the loop."""


class LoopElastic(ElasticPeriod):
    pass


class HalfBudget(ImpreciseBudget):
    """Overrides the budget, so the parent's column form would be wrong."""

    def degraded_budget(self, task):
        return task.wcet_lo // 2


def residual_bits(model, rows) -> np.ndarray:
    column = TaskSetBatch(rows, service_model=model).u_res
    assert column.dtype == np.float64
    return column.view(np.int64)


class TestResidualColumn:
    """``residual_column`` equals the per-row proxy loop, bit for bit."""

    @given(
        st.lists(task_rows(), max_size=30),
        st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    @example([], 0.5)
    def test_imprecise(self, rows, rho):
        assert np.array_equal(
            residual_bits(ImpreciseBudget(rho), rows),
            residual_bits(LoopImprecise(rho), rows),
        )

    @given(
        st.lists(task_rows(), max_size=30),
        st.sampled_from([1.0, 2.0]) | st.floats(min_value=1.0, max_value=8.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_elastic(self, rows, stretch):
        assert np.array_equal(
            residual_bits(ElasticPeriod(stretch), rows),
            residual_bits(LoopElastic(stretch), rows),
        )

    def test_only_the_defining_class_takes_the_column(self):
        rows = [TaskColumns.from_taskset(make_taskset())]
        spy = mock.patch.object(
            ImpreciseBudget, "residual_column", autospec=True,
            side_effect=ImpreciseBudget.residual_column,
        )
        with spy as column:
            TaskSetBatch(rows, service_model=ImpreciseBudget(0.5)).u_res
            assert column.call_count == 1
            TaskSetBatch(rows, service_model=LoopImprecise(0.5)).u_res
            assert column.call_count == 1
        # the override is honoured: 5 // 2 on the first LC row (the second
        # carries wcet_degraded = 4 and HalfBudget ignores it too)
        u_res = TaskSetBatch(rows, service_model=HalfBudget(0.5)).u_res
        assert u_res.tolist() == [0.0, 2 / 20, 5 / 50]



class TestMaterialization:
    def test_from_tasksets_round_trip_preserves_identity(self):
        sets = [make_taskset(0), make_taskset(1)]
        batch = TaskSetBatch.from_tasksets(sets)
        assert batch.to_tasksets() == sets
        assert batch.taskset(0) is sets[0]

    def test_columns_materialize_equivalent_fields(self):
        ts = make_taskset()
        rebuilt = TaskColumns.from_taskset(ts).materialize()
        assert [t.to_dict() | {"name": ""} for t in rebuilt] == [
            t.to_dict() | {"name": ""} for t in ts
        ]

    def test_materialization_is_lazy_and_cached(self):
        cols = TaskColumns.from_taskset(make_taskset())
        batch = TaskSetBatch([cols, cols])
        assert batch._sets == {}
        first = batch.taskset(1)
        assert batch.taskset(1) is first
        assert 0 not in batch._sets

    def test_service_model_propagates(self):
        cols = TaskColumns.from_taskset(make_taskset())
        batch = TaskSetBatch([cols], service_model="imprecise:0.5")
        ts = batch.taskset(0)
        assert ts.service_model is batch.service_model
        assert ts.residual_utilization > 0

    def test_mixed_service_batches_rejected(self):
        plain = make_taskset()
        degraded = make_taskset().with_service_model("elastic:2.0")
        with pytest.raises(ValueError, match="mixed service"):
            TaskSetBatch.from_tasksets([plain, degraded])

    def test_full_drop_normalizes_like_taskset(self):
        dropped = make_taskset().with_service_model("full-drop")
        batch = TaskSetBatch.from_tasksets([make_taskset(), dropped])
        assert len(batch) == 2


class TestSums:
    def test_sum_per_set_close_to_python_sum(self):
        sets = [make_taskset(s) for s in range(5)]
        batch = TaskSetBatch.from_tasksets(sets)
        sums = batch.sum_per_set(batch.u_lo)
        for i, ts in enumerate(sets):
            assert sums[i] == pytest.approx(ts.utilization.u_lo, abs=1e-12)

    def test_sum_per_set_hc_mask(self):
        sets = [make_taskset()]
        batch = TaskSetBatch.from_tasksets(sets)
        hi = batch.sum_per_set(np.where(batch.is_high, batch.u_hi, 0.0))
        assert hi[0] == pytest.approx(sets[0].utilization.u_hh, abs=1e-12)
