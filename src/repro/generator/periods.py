"""Period synthesis: log-uniform integer periods.

Section IV of the paper draws periods log-uniformly at random from
``[10, 500]``, following Emberson, Stafford & Davis (WATERS 2010): sampling
``exp(U(log T_min, log T_max))`` spreads periods evenly across orders of
magnitude instead of clustering at the large end.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["log_period_draws", "log_uniform_periods", "round_periods"]


def log_uniform_periods(
    rng: np.random.Generator,
    n: int,
    t_min: int = 10,
    t_max: int = 500,
) -> np.ndarray:
    """``n`` integer periods drawn log-uniformly from ``[t_min, t_max]``.

    Values are rounded to the nearest integer and clipped into the range, so
    the endpoints are attainable.
    """
    return round_periods(log_period_draws(rng, n, t_min, t_max), t_min, t_max)


def log_period_draws(
    rng: np.random.Generator, n: int, t_min: int, t_max: int
) -> np.ndarray:
    """The RNG-consuming half of :func:`log_uniform_periods`: ``n`` draws
    uniform in ``[log t_min, log t_max]``."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if not 0 < t_min <= t_max:
        raise ValueError(f"need 0 < t_min <= t_max, got [{t_min}, {t_max}]")
    low, high = _log_bounds(t_min, t_max)
    return rng.uniform(low, high, size=n)


def round_periods(raw: np.ndarray, t_min: int, t_max: int) -> np.ndarray:
    """The deterministic half: ``exp``, round to nearest, clip (int64).

    Elementwise, so one call over many sets' concatenated draws equals
    the per-set calls concatenated.
    """
    periods = np.rint(np.exp(raw)).astype(np.int64)
    # Same result as np.clip (t_min <= t_max), without its argument checks.
    return np.minimum(np.maximum(periods, t_min), t_max)


@lru_cache(maxsize=None)
def _log_bounds(t_min: int, t_max: int) -> tuple[float, float]:
    """``np.log`` of the period range, computed once per range."""
    return np.log(t_min), np.log(t_max)
