"""The paper's utilization parameter grid and ``UB`` bucketing.

Section IV sweeps normalized system utilizations over

* ``U_HH in {0.1, 0.2, ..., 0.9, 0.99}``,
* ``U_LH in {0.05, 0.15, ...}`` up to ``U_HH``,
* ``U_LL in {0.05, 0.15, ...}`` up to ``0.99 - U_LH``,

and reports acceptance ratios against the total normalized utilization
``UB = max(U_LH + U_LL, U_HH)``, generating 1000 task sets per ``UB`` value.
This module enumerates the grid and groups its points into ``UB`` buckets so
the experiment harness can sample task sets per bucket exactly as the paper
describes.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["GridPoint", "UtilizationGrid", "bucket_by_bound"]


@dataclass(frozen=True)
class GridPoint:
    """One (U_HH, U_LH, U_LL) combination of normalized utilizations."""

    u_hh: float
    u_lh: float
    u_ll: float

    @property
    def bound(self) -> float:
        """``UB = max(U_LH + U_LL, U_HH)``."""
        return max(self.u_lh + self.u_ll, self.u_hh)


def _frange(start: float, stop: float, step: float) -> list[float]:
    """Inclusive float range robust to accumulation error."""
    values = []
    k = 0
    while True:
        value = round(start + k * step, 10)
        if value > stop + 1e-9:
            break
        values.append(value)
        k += 1
    return values


class UtilizationGrid:
    """Enumerates the paper's grid (or a customized variant of it)."""

    def __init__(
        self,
        u_hh_values: tuple[float, ...] = (
            0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99,
        ),
        inner_step: float = 0.1,
        inner_start: float = 0.05,
        budget: float = 0.99,
    ):
        self.u_hh_values = tuple(u_hh_values)
        self.inner_step = inner_step
        self.inner_start = inner_start
        self.budget = budget

    def points(self) -> list[GridPoint]:
        """All grid combinations, in deterministic order."""
        out = []
        for u_hh in self.u_hh_values:
            for u_lh in _frange(self.inner_start, u_hh, self.inner_step):
                for u_ll in _frange(
                    self.inner_start, self.budget - u_lh, self.inner_step
                ):
                    out.append(GridPoint(u_hh, u_lh, u_ll))
        return out

    def buckets(self, width: float = 0.05) -> dict[float, list[GridPoint]]:
        """Grid points grouped into ``UB`` buckets of the given width.

        Computed once per process for each grid and width (every work
        unit re-derives its bucket's points, and forked workers inherit
        what the parent computed); callers get fresh lists each time.
        """
        key = (
            self.u_hh_values, self.inner_step, self.inner_start, self.budget,
            width,
        )
        buckets = _BUCKETS.get(key)
        if buckets is None:
            buckets = {
                bound: tuple(points)
                for bound, points in bucket_by_bound(self.points(), width).items()
            }
            _BUCKETS[key] = buckets
        return {bound: list(points) for bound, points in buckets.items()}


#: ``UtilizationGrid.buckets`` per (grid parameters, width)
_BUCKETS: dict[tuple, dict[float, tuple[GridPoint, ...]]] = {}


def bucket_by_bound(
    points: list[GridPoint], width: float = 0.05
) -> dict[float, list[GridPoint]]:
    """Group ``points`` by ``UB`` rounded to the bucket grid.

    Keys are bucket centers (``round(UB / width) * width``), sorted
    ascending in the returned dict.
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    buckets: dict[float, list[GridPoint]] = {}
    for point in points:
        key = round(round(point.bound / width) * width, 10)
        buckets.setdefault(key, []).append(point)
    return dict(sorted(buckets.items()))
