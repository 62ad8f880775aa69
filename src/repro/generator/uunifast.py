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

Each consumes its stream exactly as the historical per-call loops did
(README, "the generator's stream contract"); the UUniFast-discard
attempts past the first few are screened in numpy blocks and
randfixedsum's tables are built on Python floats, both without moving a
value or the final stream state.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

import numpy as np

__all__ = ["uunifast", "uunifast_discard", "randfixedsum"]


@lru_cache(maxsize=None)
def _exponents(n: int) -> tuple[float, ...]:
    """The fold exponents ``1 / (n-1-i)`` for ``i < n - 1``, computed once per ``n``."""
    return tuple(1.0 / (n - 1 - i) for i in range(n - 1))


@lru_cache(maxsize=None)
def _exponent_column(n: int) -> np.ndarray:
    """:func:`_exponents` as a read-only ``(n - 1, 1)`` column, for the
    screened tail."""
    column = np.array(_exponents(n))[:, None]
    column.flags.writeable = False
    return column


def _fold(
    draws: list[float],
    exps: tuple[float, ...],
    total: float,
    u_min: float,
    u_max: float,
) -> list[float] | None:
    """One UUniFast attempt over ``n = len(exps) + 1`` values (see
    :func:`_exponents`) from its ``n - 1`` uniform ``draws``, or None at
    the first value outside ``[u_min, u_max]``.

    Every attempt takes ``n - 1`` fresh doubles, accepted or not (one
    ``rng.random(n - 1)`` call, or one row of a screened block), so the
    stream is consumed as by the historical per-value loop (array
    filling draws in per-call order).  The fold stays scalar on
    Python floats: numpy's elementwise ``power`` is not guaranteed
    ulp-identical to C ``pow``, and each step's rounding feeds the next.
    It returns a list; only the public wrappers make arrays.
    """
    values = []
    remaining = total
    for draw, exp in zip(draws, exps):
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


#: attempts :func:`discard_values` folds one at a time before it screens
#: the rest in blocks (most calls succeed within the first three)
_SCALAR_HEAD = 3
#: attempts in the first screened block, and at most in each later one
_FIRST_BLOCK, _BLOCK_ROWS = 16, 128
#: slack of the block screen: far above the numpy/scalar fold mismatch
_SCREEN_SLACK = 1e-9


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
    draws = rng.random(n - 1).tolist()
    return np.array(_fold(draws, _exponents(n), total, -math.inf, math.inf))


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
    k = n - 1
    head = min(_SCALAR_HEAD, max_attempts)
    for attempt in range(1, head + 1):
        values = _fold(rng.random(k).tolist(), exps, total, u_min, u_max)
        if values is not None:
            return values, attempt
    return _screened_tail(rng, exps, total, u_min, u_max, head, max_attempts)


def _screened_tail(
    rng: np.random.Generator,
    exps: tuple[float, ...],
    total: float,
    u_min: float,
    u_max: float,
    head: int,
    max_attempts: int,
) -> tuple[list[float] | None, int]:
    """Attempts ``head + 1 .. max_attempts`` of :func:`discard_values`,
    drawn in blocks and screened in numpy: ``(values or None, folds)``.

    ``rng.random((B, k))`` fills its rows with the very doubles ``B``
    successive ``rng.random(k)`` calls return and leaves the same final
    state.  The screen folds a block's attempts at once with numpy's
    ``power`` and a running product in the scalar fold's order, and skips
    an attempt only when some approximate value lies outside
    ``[u_min - 1e-9, u_max + 1e-9]``.  Only ``power`` can round
    differently from C ``pow``, by a few ULP per step; over at most 39
    steps on totals up to 40 that moves a value by less than ``1e-12``,
    far below the margin, so an attempt the scalar fold accepts is never
    skipped.  The test is ``(v < lo) | (v > hi)``, so a NaN skips
    nothing.  Every attempt that passes is folded exactly, in order, on
    its row's ``tolist()``; the first one accepted decides, as in the
    attempt loop, and ``folds`` counts up to it.

    An accepted attempt's block has drawn past it: the state is restored
    from the snapshot taken before the block and the attempts up to the
    accepted one are redrawn.  That leaves the bit generator where the
    attempt loop leaves it, buffered half word (``has_uint32``, set by
    the task-count draw) included, which ``advance`` would clear.
    """
    k = len(exps)
    exp_column = _exponent_column(k + 1)
    lo, hi = u_min - _SCREEN_SLACK, u_max + _SCREEN_SLACK
    done = head
    while done < max_attempts:
        rows = min(max_attempts - done, _FIRST_BLOCK if done == head else _BLOCK_ROWS)
        snapshot = rng.bit_generator.state
        draws = rng.random((rows, k))
        # column a: the fold of attempt a, remaining before each step
        # (the total, then k products) and 0 below
        remaining = np.empty((k + 2, rows))
        remaining[0] = total
        remaining[-1] = 0.0
        np.power(draws.T, exp_column, out=remaining[1:-1])
        np.multiply.accumulate(remaining[:-1], axis=0, out=remaining[:-1])
        values = remaining[:-1] - remaining[1:]
        out = ((values < lo) | (values > hi)).any(axis=0)
        for row in np.flatnonzero(~out).tolist():
            values = _fold(draws[row].tolist(), exps, total, u_min, u_max)
            if values is not None:
                rng.bit_generator.state = snapshot
                rng.random((row + 1) * k)
                return values, done + row + 1
        done += rows
    return None, max_attempts


def _transition_table(n: int, k: int, s: float) -> list[list[float]]:
    """Stafford's ``t`` table (rows ``0 .. n-2``, each ``n`` long) for a
    sum ``s`` in ``[k, k + 1]``, built on Python floats.

    Every entry takes the operations of the MATLAB original's vectorized
    rows in the same order: ``w`` terms as ``(w * s1) / i``, ``w`` plus
    ``tiny`` below each ratio, and the branch blend as
    ``a * 1.0 + b * 0.0`` (or ``a * 0.0 + b * 1.0``), so an ``inf`` or
    ``nan`` on the untaken side propagates as it does in numpy.  Python
    floats round as IEEE doubles, so the table equals numpy's bit for
    bit, without a dozen small-array operations per row.
    """
    s1 = [s - (k - j) for j in range(n)]
    s2 = [(k + n - j) - s for j in range(n)]
    tiny = sys.float_info.min
    prev = [0.0, sys.float_info.max, 0.0]  # w's first row, as far as it is read
    t = []
    for i in range(2, n + 1):
        cur = [0.0]
        row = []
        for w_hi, w_lo, a, b in zip(prev[1:], prev, s1, s2[n - i :]):
            tmp1 = w_hi * a / i
            tmp2 = w_lo * b / i
            w = tmp1 + tmp2
            cur.append(w)
            tmp3 = w + tiny
            if b > a:
                row.append((tmp2 / tmp3) * 1.0 + (1 - tmp1 / tmp3) * 0.0)
            else:
                row.append((tmp2 / tmp3) * 0.0 + (1 - tmp1 / tmp3) * 1.0)
        cur.append(0.0)
        row += [0.0] * (n - i)
        t.append(row)
        prev = cur
    return t


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
    map of the box to ``[0, 1]^n``; its tables come from
    :func:`_transition_table`.  A non-positive ``n`` or a negative or
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
    t = _transition_table(n, k, s)

    x = np.zeros(n + 1)
    rt = rng.random(n - 1)
    rs = rng.random(n - 1)
    j = k + 1
    sm = 0.0
    pr = 1.0
    for i in range(n - 1, 0, -1):
        e = float(rt[n - 1 - i] <= t[i - 1][j - 1])
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
