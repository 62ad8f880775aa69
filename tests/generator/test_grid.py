"""Unit tests for the paper's utilization grid."""

import pytest

from repro.generator.grid import GridPoint, UtilizationGrid, bucket_by_bound


class TestGridPoint:
    def test_bound_is_max_of_lo_and_hi(self):
        assert GridPoint(0.5, 0.2, 0.2).bound == pytest.approx(0.5)
        assert GridPoint(0.5, 0.4, 0.4).bound == pytest.approx(0.8)


class TestUtilizationGrid:
    def test_paper_u_hh_values(self):
        grid = UtilizationGrid()
        u_hh_seen = {p.u_hh for p in grid.points()}
        assert u_hh_seen == {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99}

    def test_inner_ranges_respect_paper_constraints(self):
        for point in UtilizationGrid().points():
            assert 0.05 <= point.u_lh <= point.u_hh + 1e-9
            assert 0.05 <= point.u_ll <= 0.99 - point.u_lh + 1e-9

    def test_inner_step_is_tenth(self):
        lh_values = sorted({p.u_lh for p in UtilizationGrid().points()})
        diffs = {round(b - a, 10) for a, b in zip(lh_values, lh_values[1:])}
        assert diffs == {0.1}

    def test_point_count_stable(self):
        # Regression pin: the paper grid enumerates a fixed combination count.
        assert len(UtilizationGrid().points()) == 330

    def test_custom_grid(self):
        grid = UtilizationGrid(u_hh_values=(0.5,), inner_step=0.2)
        points = grid.points()
        assert all(p.u_hh == 0.5 for p in points)
        assert len(points) > 0


class TestBucketing:
    def test_buckets_sorted_and_cover_all_points(self):
        grid = UtilizationGrid()
        buckets = grid.buckets(width=0.05)
        keys = list(buckets)
        assert keys == sorted(keys)
        assert sum(len(v) for v in buckets.values()) == len(grid.points())

    def test_bucket_members_close_to_key(self):
        for key, points in UtilizationGrid().buckets(width=0.05).items():
            for point in points:
                assert abs(point.bound - key) <= 0.025 + 1e-9

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            bucket_by_bound([], width=0.0)

    def test_cached_buckets_survive_caller_mutation(self):
        grid = UtilizationGrid()
        buckets = grid.buckets(width=0.05)
        want = {key: list(points) for key, points in buckets.items()}
        first = next(iter(buckets))
        buckets[first].clear()
        buckets.pop(first)
        assert UtilizationGrid().buckets(width=0.05) == want
        assert grid.buckets(width=0.05) is not grid.buckets(width=0.05)

    def test_cache_keys_on_grid_parameters_and_width(self):
        coarse = UtilizationGrid(u_hh_values=(0.5,), inner_step=0.2)
        assert coarse.buckets(0.05) == bucket_by_bound(coarse.points(), 0.05)
        assert UtilizationGrid().buckets(0.1) == bucket_by_bound(
            UtilizationGrid().points(), 0.1
        )
        assert UtilizationGrid().buckets(0.05) != coarse.buckets(0.05)
