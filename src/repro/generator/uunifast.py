"""Unbiased utilization-vector generators.

Three standard techniques used by the real-time systems community to draw
``n`` per-task utilizations summing to a target ``U``:

* :func:`uunifast` — Bini & Buttazzo's UUniFast: exact-sum, uniform over the
  simplex, but individual values may exceed 1 when ``U > 1``.
* :func:`uunifast_discard` — UUniFast with rejection of vectors containing a
  value outside ``[u_min, u_max]`` (Davis & Burns); this is the "standard
  technique ensuring a uniform distribution" referenced in Section IV of the
  paper.
* :func:`randfixedsum` — Stafford's algorithm (as popularized for task-set
  synthesis by Emberson, Stafford & Davis, WATERS 2010): uniform over the
  intersection of the simplex and the ``[u_min, u_max]^n`` box without
  rejection, preferable when rejection rates explode (``U`` close to
  ``n * u_max``).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = ["uunifast", "uunifast_discard", "randfixedsum"]


@lru_cache(maxsize=None)
def _exponents(n: int) -> tuple[float, ...]:
    """The fold exponents ``1 / (n-1-i)`` for ``i < n - 1``, computed once per ``n``."""
    return tuple(1.0 / (n - 1 - i) for i in range(n - 1))


def _fold(
    rng: np.random.Generator,
    exps: tuple[float, ...],
    total: float,
    u_min: float,
    u_max: float,
) -> list[float] | None:
    """One UUniFast attempt over ``n = len(exps) + 1`` values (see
    :func:`_exponents`), or None at the first value outside
    ``[u_min, u_max]``.

    Every attempt makes exactly one ``rng.random(n - 1)`` call, accepted or
    not, so the stream is consumed as by the historical per-value loop
    (array filling draws in per-call order).  The fold stays scalar on
    Python floats: numpy's elementwise ``power`` is not guaranteed
    ulp-identical to C ``pow``, and each step's rounding feeds the next.
    It returns a list; only the public wrappers make arrays.
    """
    values = []
    remaining = total
    for draw, exp in zip(rng.random(len(exps)).tolist(), exps):
        nxt = remaining * draw**exp
        value = remaining - nxt
        if not u_min <= value <= u_max:
            return None
        values.append(value)
        remaining = nxt
    if not u_min <= remaining <= u_max:
        return None
    values.append(remaining)
    return values


def _check_args(n: int, total: float) -> None:
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if not 0 <= total < math.inf:
        raise ValueError(f"total must be finite and non-negative, got {total}")


def uunifast(rng: np.random.Generator, n: int, total: float) -> np.ndarray:
    """UUniFast: ``n`` non-negative values summing exactly to ``total``.

    Uniformly distributed over the ``(n-1)``-simplex scaled by ``total``.
    """
    _check_args(n, total)
    if n == 1:
        return np.asarray([total])
    # Unbounded, the fold never rejects: a finite total keeps values finite.
    return np.array(_fold(rng, _exponents(n), total, -math.inf, math.inf))


def uunifast_discard(
    rng: np.random.Generator,
    n: int,
    total: float,
    u_min: float = 0.0,
    u_max: float = 1.0,
    max_attempts: int = 1000,
) -> np.ndarray | None:
    """UUniFast-discard: reject vectors with a value outside ``[u_min, u_max]``.

    Returns None when no feasible vector was found within ``max_attempts``
    (also immediately when the box is infeasible: ``total > n*u_max`` or
    ``total < n*u_min``).  A non-positive ``n`` or a negative or
    non-finite ``total`` raises ``ValueError`` first, as in
    :func:`uunifast`.  Each attempt draws ``n - 1`` values, rejected
    attempts included; ``n == 1`` draws nothing.
    """
    values, _ = discard_values(rng, n, total, u_min, u_max, max_attempts)
    return None if values is None else np.array(values)


def discard_values(
    rng: np.random.Generator,
    n: int,
    total: float,
    u_min: float,
    u_max: float,
    max_attempts: int,
) -> tuple[list[float] | None, int]:
    """:func:`uunifast_discard` on Python floats: ``(values or None, folds)``.

    ``folds`` counts the fold attempts made, the rejected ones included
    (0 when nothing was drawn) — the generator's deterministic work
    counter.
    """
    _check_args(n, total)
    if total > n * u_max + 1e-12 or total < n * u_min - 1e-12 or max_attempts <= 0:
        return None, 0
    if n == 1:
        return ([total] if u_min <= total <= u_max else None), 0
    exps = _exponents(n)
    for attempt in range(1, max_attempts + 1):
        values = _fold(rng, exps, total, u_min, u_max)
        if values is not None:
            return values, attempt
    return None, max_attempts


def randfixedsum(
    rng: np.random.Generator,
    n: int,
    total: float,
    u_min: float = 0.0,
    u_max: float = 1.0,
) -> np.ndarray | None:
    """Stafford's randfixedsum restricted to ``[u_min, u_max]^n``.

    Draws a vector uniformly from the set
    ``{u in [u_min, u_max]^n : sum(u) = total}`` without rejection.
    Returns None when that set is empty.

    Implementation follows the published MATLAB ``randfixedsum`` (Roger
    Stafford, 2006) specialized to a single output vector, after an affine
    map of the box to ``[0, 1]^n``.  A non-positive ``n`` or a negative or
    non-finite ``total`` raises ``ValueError``, as in :func:`uunifast`.
    """
    _check_args(n, total)
    if u_max < u_min:
        raise ValueError(f"u_max ({u_max}) < u_min ({u_min})")
    width = u_max - u_min
    if width <= 0:
        if abs(total - n * u_min) <= 1e-12:
            return np.full(n, u_min)
        return None
    # Map to s = sum of n values in [0, 1].
    s = (total - n * u_min) / width
    if s < -1e-12 or s > n + 1e-12:
        return None
    s = min(max(s, 0.0), float(n))
    if n == 1:
        return np.asarray([u_min + s * width])

    k = int(min(max(np.floor(s), 0), n - 1))
    s = max(k, min(s, k + 1))
    s1 = s - np.arange(k, k - n, -1)
    s2 = np.arange(k + n, k, -1) - s

    tiny = np.finfo(float).tiny
    huge = np.finfo(float).max
    w = np.zeros((n, n + 1))
    w[0, 1] = huge
    t = np.zeros((n - 1, n))
    for i in range(2, n + 1):
        tmp1 = w[i - 2, 1 : i + 1] * s1[: i] / i
        tmp2 = w[i - 2, 0:i] * s2[n - i : n] / i
        w[i - 1, 1 : i + 1] = tmp1 + tmp2
        tmp3 = w[i - 1, 1 : i + 1] + tiny
        tmp4 = s2[n - i : n] > s1[: i]
        t[i - 2, 0:i] = (tmp2 / tmp3) * tmp4 + (1 - tmp1 / tmp3) * (~tmp4)

    x = np.zeros(n + 1)
    rt = rng.random(n - 1)
    rs = rng.random(n - 1)
    j = k + 1
    sm = 0.0
    pr = 1.0
    for i in range(n - 1, 0, -1):
        e = float(rt[n - 1 - i] <= t[i - 1, j - 1])
        sx = rs[n - 1 - i] ** (1.0 / i)
        sm += (1.0 - sx) * pr * s / (i + 1)
        pr *= sx
        x[n - 1 - i] = sm + pr * e
        s = s - e
        j = j - int(e)
    x[n - 1] = sm + pr * s

    # Random permutation for exchangeability, then map back to the box.
    values = x[:n]
    rng.shuffle(values)
    result = u_min + values * width
    # Guard against round-off drifting outside the box.
    np.clip(result, u_min, u_max, out=result)
    drift = total - result.sum()
    if abs(drift) > 1e-9:
        # Spread residual drift over entries with headroom.
        order = np.argsort(result) if drift > 0 else np.argsort(-result)
        for idx in order:
            room = (u_max - result[idx]) if drift > 0 else (result[idx] - u_min)
            adjust = np.sign(drift) * min(abs(drift), room)
            result[idx] += adjust
            drift -= adjust
            if abs(drift) <= 1e-12:
                break
    return result
