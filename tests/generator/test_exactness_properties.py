"""Hypothesis property tests for the generator's exactness invariants.

The fair generator's defining property is that the *drawn* utilization
vectors hit their targets exactly (up to float summation error): the HC
LO-mode couple sums to ``m * U_LH``, every drawn vector sums to its total,
and realized task sets respect the structural bounds the paper's
methodology relies on (``C^H <= D <= T`` for constrained deadlines, task
counts in ``[m+1, 5m]``, utilization bounds per task).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.generator import GeneratorConfig, MCTaskSetGenerator
from repro.generator.uunifast import randfixedsum, uunifast_discard
from repro.util.rng import derive_rng

#: Summation tolerance: the vectors are produced by float arithmetic, so
#: "exact" means exact up to accumulated rounding of ~n terms.
ATOL = 1e-9


@st.composite
def grid_targets(draw):
    """(m, PH, U_HH, U_LH, U_LL) from the paper's parameter grid."""
    m = draw(st.sampled_from([2, 4, 8]))
    p_high = draw(st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]))
    u_hh = draw(st.sampled_from([0.2, 0.4, 0.6, 0.8, 0.99]))
    u_lh = draw(
        st.floats(min_value=0.05, max_value=u_hh, allow_nan=False)
    )
    u_ll = draw(st.floats(min_value=0.05, max_value=0.99 - 0.05, allow_nan=False))
    return m, p_high, round(u_hh, 4), round(u_lh, 4), round(u_ll, 4)


class TestVectorExactness:
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=2, max_value=24),
        st.floats(min_value=0.1, max_value=8.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_uunifast_discard_sums_exactly(self, seed, n, total):
        rng = np.random.default_rng(seed)
        total = min(total, n * 0.99 * 0.95)
        if total < n * 0.001 * 1.05:
            return
        values = uunifast_discard(rng, n, total, 0.001, 0.99, max_attempts=50)
        if values is None:
            return  # rejection sampling may legitimately give up
        assert len(values) == n
        assert np.all(values >= 0.001 - ATOL)
        assert np.all(values <= 0.99 + ATOL)
        assert abs(values.sum() - total) <= ATOL * max(1.0, total)

    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=2, max_value=24),
        st.floats(min_value=0.1, max_value=8.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_randfixedsum_sums_exactly(self, seed, n, total):
        rng = np.random.default_rng(seed)
        lo, hi = 0.001, 0.99
        if not n * lo + 1e-6 <= total <= n * hi - 1e-6:
            return
        values = randfixedsum(rng, n, total, lo, hi)
        assert len(values) == n
        assert np.all(values >= lo - 1e-7)
        assert np.all(values <= hi + 1e-7)
        assert abs(values.sum() - total) <= 1e-7 * max(1.0, total)


class TestGeneratedSetInvariants:
    @given(grid_targets(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_hc_lo_couple_sums_to_target(self, targets, seed):
        """``sum u_i^L == m * U_LH`` over HC tasks, before integerization.

        Exercised through ``_couple_lo_hi`` directly: the realized task set
        rounds budgets up to integers, so exactness holds at the vector
        level (which is what "fair" generation means in the paper).
        """
        m, p_high, u_hh, u_lh, u_ll = targets
        if u_lh > u_hh:
            return
        generator = MCTaskSetGenerator(GeneratorConfig(m=m, p_high=p_high))
        rng = np.random.default_rng(seed)
        n_high = max(2, int(round(p_high * (3 * m))))
        raw_hh, raw_lh = u_hh * m, u_lh * m
        if not n_high * 0.001 * 1.05 <= raw_hh <= n_high * 0.99 * 0.95:
            return
        u_high = generator._draw_vector(rng, n_high, raw_hh)
        if u_high is None:
            return
        if raw_lh > sum(u_high):
            return  # infeasible coupling target for this draw
        u_low = generator._couple_lo_hi(rng, u_high, raw_lh)
        if u_low is None:
            return
        u_high, u_low = np.array(u_high), np.array(u_low)
        assert np.all(u_low <= u_high + 1e-9)
        assert abs(u_low.sum() - raw_lh) <= ATOL * max(1.0, raw_lh)

    @given(grid_targets(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_constrained_deadline_bounds(self, targets, seed):
        """Every generated task satisfies ``C^H <= D <= T`` (constrained)
        and ``D == T`` (implicit), with positive integer parameters."""
        m, p_high, u_hh, u_lh, u_ll = targets
        if u_lh > u_hh:
            return
        for deadline_type in ("constrained", "implicit"):
            generator = MCTaskSetGenerator(
                GeneratorConfig(
                    m=m, p_high=p_high, deadline_type=deadline_type,
                    max_attempts=8,
                )
            )
            rng = derive_rng("exactness-props", deadline_type, seed)
            taskset = generator.generate(rng, u_hh, u_lh, u_ll)
            if taskset is None:
                continue
            n_lo, n_hi = generator.config.task_count_range
            assert n_lo <= len(taskset) <= n_hi
            assert len(taskset.high_tasks) >= 1
            assert len(taskset.low_tasks) >= 1
            for task in taskset:
                assert 1 <= task.wcet_lo <= task.wcet_hi
                assert task.wcet_hi <= task.deadline <= task.period
                if deadline_type == "implicit":
                    assert task.deadline == task.period
                if not task.is_high:
                    assert task.wcet_lo == task.wcet_hi

    @given(
        st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_degradation_factor_fills_lc_fields(self, factor, seed):
        generator = MCTaskSetGenerator(
            GeneratorConfig(m=2, degradation_factor=factor, max_attempts=8)
        )
        rng = derive_rng("exactness-deg", seed)
        taskset = generator.generate(rng, 0.5, 0.25, 0.3)
        if taskset is None:
            return
        for task in taskset:
            if task.is_high:
                assert task.wcet_degraded is None
            else:
                assert task.wcet_degraded == int(
                    np.floor(factor * task.wcet_lo)
                )
