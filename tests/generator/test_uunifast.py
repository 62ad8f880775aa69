"""Unit and property tests for the utilization-vector generators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.generator.uunifast import randfixedsum, uunifast, uunifast_discard


def rng(seed=0):
    return np.random.default_rng(seed)


class TestUUniFast:
    def test_sum_exact(self):
        values = uunifast(rng(), 8, 3.2)
        assert values.sum() == pytest.approx(3.2)
        assert len(values) == 8

    def test_nonnegative(self):
        values = uunifast(rng(1), 10, 0.5)
        assert (values >= 0).all()

    def test_single_task(self):
        assert uunifast(rng(), 1, 0.7)[0] == pytest.approx(0.7)

    def test_zero_total(self):
        values = uunifast(rng(), 4, 0.0)
        assert values.sum() == pytest.approx(0.0)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            uunifast(rng(), 0, 1.0)
        with pytest.raises(ValueError):
            uunifast(rng(), 3, -0.1)
        for total in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                uunifast(rng(), 3, total)

    @given(st.integers(min_value=1, max_value=20), st.floats(min_value=0.0, max_value=8.0))
    @settings(max_examples=50)
    def test_property_sum_and_sign(self, n, total):
        values = uunifast(np.random.default_rng(42), n, total)
        assert values.sum() == pytest.approx(total, abs=1e-9)
        assert (values >= -1e-12).all()


class TestUUniFastDiscard:
    def test_respects_bounds(self):
        values = uunifast_discard(rng(), 6, 2.0, u_min=0.05, u_max=0.8)
        assert values is not None
        assert (values >= 0.05 - 1e-12).all()
        assert (values <= 0.8 + 1e-12).all()
        assert values.sum() == pytest.approx(2.0)

    def test_infeasible_box_returns_none_immediately(self):
        assert uunifast_discard(rng(), 3, 4.0, u_max=1.0) is None
        assert uunifast_discard(rng(), 3, 0.1, u_min=0.5) is None

    @pytest.mark.parametrize(
        "n,total", [(-1, 0.5), (0, 0.5), (3, -1.0), (3, float("inf"))]
    )
    def test_invalid_args_raise_before_the_feasibility_check(self, n, total):
        # Each of these also fails the box check; validation comes first,
        # as in uunifast and randfixedsum, and draws nothing.
        generator = rng()
        state = generator.bit_generator.state
        with pytest.raises(ValueError):
            uunifast_discard(generator, n, total)
        assert generator.bit_generator.state == state

    def test_hard_region_gives_up(self):
        # total == n * u_max: the acceptance region has measure ~0.
        values = uunifast_discard(rng(), 5, 4.9999, u_max=1.0, max_attempts=5)
        # None is acceptable; a vector (unlikely) must still satisfy bounds.
        if values is not None:
            assert (values <= 1.0 + 1e-9).all()


class TestRandFixedSum:
    def test_sum_and_bounds(self):
        values = randfixedsum(rng(), 7, 3.5, u_min=0.1, u_max=0.9)
        assert values is not None
        assert values.sum() == pytest.approx(3.5, abs=1e-6)
        assert (values >= 0.1 - 1e-9).all()
        assert (values <= 0.9 + 1e-9).all()

    def test_handles_extreme_totals(self):
        # Near the top of the feasible range where discard would explode.
        values = randfixedsum(rng(), 4, 3.9, u_min=0.0, u_max=1.0)
        assert values is not None
        assert values.sum() == pytest.approx(3.9, abs=1e-6)

    def test_infeasible_returns_none(self):
        assert randfixedsum(rng(), 3, 3.5, u_max=1.0) is None
        # feasible box, infeasible total (minimum possible sum is 0.3)
        assert randfixedsum(rng(), 3, 0.2, u_min=0.1, u_max=0.15) is None

    @pytest.mark.parametrize(
        "n,total",
        [(3, float("nan")), (3, float("inf")), (3, -1.0), (0, 0.5), (-1, 0.5)],
    )
    def test_invalid_args_raise_before_any_draw(self, n, total):
        # As in uunifast_discard: a clear ValueError, not a failed int().
        generator = rng()
        state = generator.bit_generator.state
        with pytest.raises(ValueError, match="must be"):
            randfixedsum(generator, n, total)
        assert generator.bit_generator.state == state

    def test_inverted_box_rejected(self):
        with pytest.raises(ValueError):
            randfixedsum(rng(), 3, 0.2, u_min=0.1, u_max=0.05)

    def test_degenerate_box(self):
        values = randfixedsum(rng(), 4, 2.0, u_min=0.5, u_max=0.5)
        assert values is not None
        assert (values == 0.5).all()
        assert randfixedsum(rng(), 4, 1.9, u_min=0.5, u_max=0.5) is None

    def test_single_value(self):
        values = randfixedsum(rng(), 1, 0.42, u_min=0.0, u_max=1.0)
        assert values is not None
        assert values[0] == pytest.approx(0.42)

    @given(
        st.integers(min_value=2, max_value=12),
        st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=50)
    def test_property_feasible_requests_satisfied(self, n, frac):
        total = frac * n  # always strictly inside the [0,1]^n simplex slice
        values = randfixedsum(np.random.default_rng(7), n, total, 0.0, 1.0)
        assert values is not None
        assert values.sum() == pytest.approx(total, abs=1e-6)
        assert (values >= -1e-9).all() and (values <= 1 + 1e-9).all()

    def test_distribution_not_degenerate(self):
        """Different draws differ (sanity against constant outputs)."""
        a = randfixedsum(rng(1), 5, 2.0, 0.0, 1.0)
        b = randfixedsum(rng(2), 5, 2.0, 0.0, 1.0)
        assert a is not None and b is not None
        assert not np.allclose(a, b)
