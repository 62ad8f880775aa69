"""Differential suite: two-phase generation == the one-set-at-a-time
generator, bit for bit.

The generator draws each set on Python scalars (``MCTaskSetGenerator.draw``)
and builds a whole batch's columns in one numpy pass (``build``).  These
tests pin that against literal transcriptions of the historical
implementations, which realized one set at a time: the rejection loops
(UUniFast, UUniFast-discard, the LO/HI coupling) and the whole per-set
generator (``reference_generate_columns``).  Every case compares columns
array for array (dtype included), the final state of every RNG stream and
the generator's work counters — on hypothesis cases over the paper's
parameter grid and on explicit cases for every rare route.
"""

from __future__ import annotations

import importlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import obs
from repro.experiments import acceptance
from repro.experiments.acceptance import AcceptanceSweep, SweepConfig
from repro.generator import GeneratorConfig, MCTaskSetGenerator
from repro.generator.uunifast import (
    discard_values,
    randfixedsum,
    uunifast,
    uunifast_discard,
)
from repro.model import TaskColumns, TaskSetBatch
from repro.util.rng import derive_rng, replicate_rngs

#: the module, not the function ``repro.generator`` exports under its name
UUNIFAST = importlib.import_module("repro.generator.uunifast")


def task_fields(taskset):
    """Identity-free comparison key (ids/names are fresh per construction)."""
    return [
        (
            t.period,
            t.criticality.name,
            t.wcet_lo,
            t.wcet_hi,
            t.deadline,
            t.wcet_degraded,
            t.period_degraded,
        )
        for t in taskset
    ]


def reference_uunifast(rng: np.random.Generator, n: int, total: float):
    """The historical per-call-draw UUniFast loop, kept as the oracle."""
    if n == 1:
        return np.asarray([total])
    values = np.empty(n)
    remaining = total
    for i in range(n - 1):
        nxt = remaining * rng.random() ** (1.0 / (n - 1 - i))
        values[i] = remaining - nxt
        remaining = nxt
    values[n - 1] = remaining
    return values


class TestUUniFastVectorizedDraw:
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=1, max_value=40),
        st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_batched_draw_bit_identical_to_scalar_loop(self, seed, n, total):
        a = np.random.default_rng(seed)
        b = np.random.default_rng(seed)
        got = uunifast(a, n, total)
        want = reference_uunifast(b, n, total)
        assert np.array_equal(got, want)
        assert a.bit_generator.state == b.bit_generator.state


def reference_uunifast_discard(
    rng: np.random.Generator,
    n: int,
    total: float,
    u_min: float = 0.0,
    u_max: float = 1.0,
    max_attempts: int = 1000,
    stats: dict | None = None,
):
    """The historical whole-vector rejection loop, kept as the oracle.

    Counts every attempt that draws (``n > 1``) into
    ``stats["fold_attempts"]``.
    """
    if total > n * u_max + 1e-12 or total < n * u_min - 1e-12:
        return None
    for _ in range(max_attempts):
        if stats is not None and n > 1:
            stats["fold_attempts"] += 1
        values = reference_uunifast(rng, n, total)
        if values.max(initial=0.0) <= u_max and values.min(initial=1.0) >= u_min:
            return values
    return None


def reference_draw_vector(rng, config, n, total, path, stats=None):
    """The historical ``_draw_vector``: UUniFast-discard, then randfixedsum
    (appending ``"randfixedsum"`` to ``path`` when it falls back)."""
    values = reference_uunifast_discard(
        rng, n, total, config.u_min, config.u_max, max_attempts=100, stats=stats
    )
    if values is None:
        path.append("randfixedsum")
        values = randfixedsum(rng, n, total, config.u_min, config.u_max)
    return values


def reference_couple_lo_hi(rng, config, u_high, lh, path, stats=None):
    """The historical numpy LO/HI coupling, kept as the oracle.

    Appends the route it took to ``path``: ``"randfixedsum"`` per vector
    drawn by the fallback, then ``"random"``, ``"rank"`` or
    ``"proportional"``.
    """
    n = len(u_high)
    for _ in range(20):
        u_low = reference_draw_vector(rng, config, n, lh, path, stats)
        if u_low is None:
            break
        if np.all(u_low <= u_high + 1e-12):
            path.append("random")
            return np.minimum(u_low, u_high)
        order_low = np.argsort(-u_low)
        order_high = np.argsort(-u_high)
        paired = np.empty(n)
        paired[order_high] = u_low[order_low]
        if np.all(paired <= u_high + 1e-12):
            path.append("rank")
            return np.minimum(paired, u_high)
    path.append("proportional")
    if stats is not None:
        stats["coupling_fallbacks"] += 1
    scale = lh / u_high.sum()
    if scale > 1.0 + 1e-12:
        return None
    return u_high * min(scale, 1.0)


#: position of a total inside the feasible range [n*u_min, n*u_max]: the two
#: edges (and just past them), where rejection is heaviest, and the interior
EDGE_FRACTIONS = [-1e-9, 0.0, 1e-9, 1e-3, 0.02, 0.5, 0.98, 0.999, 1.0, 1.0 + 1e-9]


class TestUUniFastDiscardOracle:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=1, max_value=40),
        u_min=st.sampled_from([0.0, 0.001, 0.05, 0.2]),
        u_max=st.sampled_from([0.5, 0.9, 0.99, 1.0]),
        frac=st.sampled_from(EDGE_FRACTIONS) | st.floats(min_value=0.0, max_value=1.0),
        max_attempts=st.integers(min_value=1, max_value=100),
    )
    @settings(max_examples=300, deadline=None)
    @example(seed=1, n=1, u_min=0.001, u_max=0.99, frac=0.5, max_attempts=5)
    @example(seed=2, n=2, u_min=0.001, u_max=0.99, frac=0.98, max_attempts=100)
    @example(seed=3, n=20, u_min=0.001, u_max=0.99, frac=0.999, max_attempts=100)
    def test_matches_whole_vector_rejection(
        self, seed, n, u_min, u_max, frac, max_attempts
    ):
        total = n * (u_min + frac * (u_max - u_min))
        a = np.random.default_rng(seed)
        b = np.random.default_rng(seed)
        if total < 0:
            # The oracle returned None here (an infeasible box); the
            # generator validates its arguments first and raises, drawing
            # nothing either way.
            with pytest.raises(ValueError):
                uunifast_discard(a, n, total, u_min, u_max, max_attempts)
            assert a.bit_generator.state == b.bit_generator.state
            return
        got = uunifast_discard(a, n, total, u_min, u_max, max_attempts)
        want = reference_uunifast_discard(b, n, total, u_min, u_max, max_attempts)
        if want is None:
            assert got is None
        else:
            assert got is not None and np.array_equal(got, want)
        assert a.bit_generator.state == b.bit_generator.state

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=1, max_value=40),
        u_min=st.sampled_from([0.0, 0.001, 0.05, 0.2]),
        u_max=st.sampled_from([0.5, 0.9, 0.99, 1.0]),
        frac=st.sampled_from(EDGE_FRACTIONS) | st.floats(min_value=0.0, max_value=1.0),
        max_attempts=st.integers(min_value=1, max_value=300),
        blocks=st.sampled_from([(16, 128), (1, 1), (3, 7)]),
        buffered=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    @example(
        seed=3, n=20, u_min=0.001, u_max=0.99, frac=0.999, max_attempts=100,
        blocks=(16, 128), buffered=True,
    )
    @example(
        seed=4, n=8, u_min=0.001, u_max=0.99, frac=0.98, max_attempts=100,
        blocks=(3, 7), buffered=True,
    )
    def test_block_path_matches_whole_vector_rejection(
        self, seed, n, u_min, u_max, frac, max_attempts, blocks, buffered
    ):
        """With no scalar head every attempt takes the screened block path
        (small blocks: many snapshots and redraws).  The values, the fold
        count and the final state, a buffered half word from a task-count
        draw included, are those of the attempt loop."""
        total = n * (u_min + frac * (u_max - u_min))
        if total < 0:
            return
        a = np.random.default_rng(seed)
        b = np.random.default_rng(seed)
        if buffered:
            a.integers(2, 11)
            b.integers(2, 11)
        first, rows = blocks
        with mock.patch.multiple(
            UUNIFAST, _SCALAR_HEAD=0, _FIRST_BLOCK=first, _BLOCK_ROWS=rows
        ):
            got, folds = discard_values(a, n, total, u_min, u_max, max_attempts)
        stats = reference_stats()
        want = reference_uunifast_discard(
            b, n, total, u_min, u_max, max_attempts, stats
        )
        if want is None:
            assert got is None
        else:
            assert got is not None and np.array_equal(np.array(got), want)
        assert folds == stats["fold_attempts"]
        assert a.bit_generator.state == b.bit_generator.state


def reference_transition_table(n, k, s):
    """Stafford's ``t`` table built row by row on small numpy arrays."""
    s1 = s - np.arange(k, k - n, -1)
    s2 = np.arange(k + n, k, -1) - s

    tiny = np.finfo(float).tiny
    huge = np.finfo(float).max
    w = np.zeros((n, n + 1))
    w[0, 1] = huge
    t = np.zeros((n - 1, n))
    for i in range(2, n + 1):
        tmp1 = w[i - 2, 1 : i + 1] * s1[:i] / i
        tmp2 = w[i - 2, 0:i] * s2[n - i : n] / i
        w[i - 1, 1 : i + 1] = tmp1 + tmp2
        tmp3 = w[i - 1, 1 : i + 1] + tiny
        tmp4 = s2[n - i : n] > s1[:i]
        t[i - 2, 0:i] = (tmp2 / tmp3) * tmp4 + (1 - tmp1 / tmp3) * (~tmp4)
    return t


def reference_randfixedsum(rng, n, total, u_min=0.0, u_max=1.0):
    """The historical randfixedsum, its ``w``/``t`` tables built row by row
    on small numpy arrays, kept as the oracle."""
    width = u_max - u_min
    if width <= 0:
        if abs(total - n * u_min) <= 1e-12:
            return np.full(n, u_min)
        return None
    s = (total - n * u_min) / width
    if s < -1e-12 or s > n + 1e-12:
        return None
    s = min(max(s, 0.0), float(n))
    if n == 1:
        return np.asarray([u_min + s * width])

    k = int(min(max(np.floor(s), 0), n - 1))
    s = max(k, min(s, k + 1))
    t = reference_transition_table(n, k, s)

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

    values = x[:n]
    rng.shuffle(values)
    result = u_min + values * width
    np.clip(result, u_min, u_max, out=result)
    drift = total - result.sum()
    if abs(drift) > 1e-9:
        order = np.argsort(result) if drift > 0 else np.argsort(-result)
        for idx in order:
            room = (u_max - result[idx]) if drift > 0 else (result[idx] - u_min)
            adjust = np.sign(drift) * min(abs(drift), room)
            result[idx] += adjust
            drift -= adjust
            if abs(drift) <= 1e-12:
                break
    return result


#: totals on and just inside both box edges, where ``k`` and the tables'
#: extreme entries change
RANDFIXEDSUM_FRACTIONS = [0.0, 1e-15, 1e-12, 1e-9, 0.5, 1 - 1e-9, 1 - 1e-12, 1.0]


class TestRandfixedsumOracle:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=1, max_value=40),
        bounds=st.sampled_from([(0.0, 1.0), (0.001, 0.99), (0.05, 0.5), (0.2, 0.9)]),
        frac=st.sampled_from(RANDFIXEDSUM_FRACTIONS)
        | st.floats(min_value=0.0, max_value=1.0),
        integral=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    @example(seed=0, n=40, bounds=(0.001, 0.99), frac=1.0, integral=False)
    @example(seed=0, n=40, bounds=(0.001, 0.99), frac=0.0, integral=False)
    @example(seed=1, n=7, bounds=(0.0, 1.0), frac=0.0, integral=True)
    def test_matches_numpy_tables(self, seed, n, bounds, frac, integral):
        """Values (dtype included) and the final state equal the numpy
        tables' — at both box edges and, with ``integral``, at a total
        whose mapped sum is a whole number (``k`` equal to the sum)."""
        u_min, u_max = bounds
        if integral:
            frac = round(frac * n) / n
        total = n * (u_min + frac * (u_max - u_min))
        a = np.random.default_rng(seed)
        b = np.random.default_rng(seed)
        got = randfixedsum(a, n, total, u_min, u_max)
        want = reference_randfixedsum(b, n, total, u_min, u_max)
        if want is None:
            assert got is None
        else:
            assert got is not None and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert a.bit_generator.state == b.bit_generator.state

    @given(
        n=st.integers(min_value=2, max_value=40),
        frac=st.sampled_from(RANDFIXEDSUM_FRACTIONS)
        | st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_table_is_the_numpy_table(self, n, frac):
        """Every ``t`` entry equals the numpy rows' bit for bit (an entry
        off by one ULP rarely flips a draw, so the values alone would
        hide it)."""
        s = n * frac
        k = int(min(max(np.floor(s), 0), n - 1))
        s = max(k, min(s, k + 1))
        got = np.array(UUNIFAST._transition_table(n, k, s))
        assert got.tobytes() == reference_transition_table(n, k, s).tobytes()


@st.composite
def coupling_cases(draw):
    """HI vectors (tied, clipped entries included) and LO totals from far
    below to just above their sum, so every coupling route is reachable."""
    n = draw(st.integers(min_value=1, max_value=40))
    entry = st.sampled_from([0.001, 0.5, 0.99]) | st.floats(
        min_value=0.001, max_value=0.99
    )
    u_high = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
    frac = draw(
        st.sampled_from([0.05, 0.5, 0.9, 0.99, 1.0, 1.0 + 1e-9])
        | st.floats(min_value=0.01, max_value=1.0)
    )
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return u_high, float(u_high.sum()) * frac, seed


def couple_both(u_high, lh, seed):
    """Couple with the generator and the oracle; assert equal outputs, final
    RNG states and work counters, and return the oracle's route."""
    config = GeneratorConfig(m=2)
    generator = MCTaskSetGenerator(config)
    a = np.random.default_rng(seed)
    b = np.random.default_rng(seed)
    got = generator._couple_lo_hi(a, u_high.tolist(), lh)
    path: list[str] = []
    stats = reference_stats()
    want = reference_couple_lo_hi(b, config, u_high, lh, path, stats)
    assert a.bit_generator.state == b.bit_generator.state
    if want is None:
        assert got is None
    else:
        assert got is not None and np.array_equal(np.array(got), want)
    assert generator.stats == stats
    return path


#: route -> (u_high, lh, seed, final route, whether randfixedsum drew a
#: vector on the way).  "tied": equal u_high entries, so the order argsort
#: gives them decides where rank pairing puts the LO values (a stable sort
#: would place them differently in "rank-tied"); without ties ("rank") the
#: order is unique.
COUPLING_ROUTES = {
    "random": ([0.9, 0.8, 0.7, 0.6], 0.4, 0, "random", False),
    # distinct u_high: the pairing is built on lists
    "rank": ([0.9, 0.1, 0.5, 0.3], 1.5, 0, "rank", False),
    "rank-tied": ([0.5] * 5 + [0.9] * 3, 2.6, 0, "rank", False),
    # lh == n * u_max: randfixedsum clips every value to u_max
    "randfixedsum-clipped": ([0.99, 0.99, 0.99], 2.97, 0, "random", True),
    "randfixedsum-rank-tied": ([0.99, 0.99, 0.7], 2.6, 0, "rank", True),
    "proportional": ([0.99, 0.002, 0.002], 0.99, 0, "proportional", False),
    "proportional-infeasible": ([0.5, 0.5], 1.2, 0, "proportional", False),
}


class TestCoupleLoHiOracle:
    @given(coupling_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_numpy_pairing(self, case):
        couple_both(*case)

    @pytest.mark.parametrize("route", sorted(COUPLING_ROUTES))
    def test_each_route_is_reached_and_matches(self, route):
        u_high, lh, seed, final, via_randfixedsum = COUPLING_ROUTES[route]
        path = couple_both(np.array(u_high), lh, seed)
        assert path[-1] == final
        assert ("randfixedsum" in path) == via_randfixedsum


def reference_stats() -> dict[str, int]:
    """Zeroed work counters, keyed as ``MCTaskSetGenerator.stats``."""
    return {"generated": 0, "retries": 0, "coupling_fallbacks": 0, "fold_attempts": 0}


def reference_draw_structure(rng, config, u_hh, u_lh, u_ll):
    """The historical ``_draw_structure``: raw targets and the HC/LC split,
    or None when the task-count draw makes the targets infeasible."""
    cfg = config
    hh, lh, ll = u_hh * cfg.m, u_lh * cfg.m, u_ll * cfg.m
    n_lo, n_hi = cfg.task_count_range
    n = int(rng.integers(n_lo, n_hi + 1))
    n_high = int(round(cfg.p_high * n))
    n_high = min(max(n_high, 1), n - 1)
    n_low = n - n_high
    feasible = (
        n_high * cfg.u_min <= hh <= n_high * cfg.u_max
        and n_high * cfg.u_min <= lh
        and n_low * cfg.u_min <= ll <= n_low * cfg.u_max
    )
    if not feasible:
        return None
    return hh, lh, ll, n_high, n_low


class FixedCount:
    """A stand-in stream whose task-count draw is always ``n``."""

    def __init__(self, n: int):
        self.n = n

    def integers(self, low, high):
        return self.n


def structurally_empty(config, u_hh, u_lh, u_ll) -> bool:
    """No task count in the config's range passes the structure test."""
    n_lo, n_hi = config.task_count_range
    return all(
        reference_draw_structure(FixedCount(n), config, u_hh, u_lh, u_ll) is None
        for n in range(n_lo, n_hi + 1)
    )


def reference_realize(rng, config, targets, path, stats):
    """The historical ``_realize``: one set's columns, HC rows first."""
    cfg = config
    hh, lh, ll, n_high, n_low = targets
    u_hi = reference_draw_vector(rng, cfg, n_high, hh, path, stats)
    if u_hi is None:
        return None
    u_lo_high = reference_couple_lo_hi(rng, cfg, u_hi, lh, path, stats)
    if u_lo_high is None:
        return None
    u_lo_low = reference_draw_vector(rng, cfg, n_low, ll, path, stats)
    if u_lo_low is None:
        return None

    n = n_high + n_low
    raw = np.exp(rng.uniform(np.log(cfg.t_min), np.log(cfg.t_max), size=n))
    periods = np.clip(np.rint(raw).astype(np.int64), cfg.t_min, cfg.t_max)
    periods_h = periods[:n_high]
    periods_l = periods[n_high:]
    c_lo_h = np.maximum(1, np.ceil(u_lo_high * periods_h)).astype(np.int64)
    c_hi_h = np.maximum(c_lo_h, np.ceil(u_hi * periods_h).astype(np.int64))
    c_lo_l = np.maximum(1, np.ceil(u_lo_low * periods_l)).astype(np.int64)

    wcet_lo = np.concatenate([c_lo_h, c_lo_l])
    wcet_hi = np.concatenate([c_hi_h, c_lo_l])
    if cfg.deadline_type == "implicit":
        deadline = periods.copy()
    else:
        deadline = np.empty(n, dtype=np.int64)
        for i in range(n):
            deadline[i] = int(rng.integers(int(wcet_hi[i]), int(periods[i]) + 1))

    factor = cfg.degradation_factor
    wcet_degraded = np.full(n, -1, dtype=np.int64)
    if factor is not None:
        wcet_degraded[n_high:] = np.floor(factor * c_lo_l).astype(np.int64)
    is_high = np.zeros(n, dtype=bool)
    is_high[:n_high] = True
    return TaskColumns(
        period=periods.astype(np.int64, copy=False),
        wcet_lo=wcet_lo,
        wcet_hi=wcet_hi,
        deadline=deadline,
        is_high=is_high,
        wcet_degraded=wcet_degraded,
        period_degraded=np.full(n, -1, dtype=np.int64),
    )


def reference_generate_columns(rng, config, u_hh, u_lh, u_ll, stats, path=None):
    """The historical ``generate_columns``: structure and realization
    resampled up to ``max_attempts`` times, one set realized at a time.

    Counts into ``stats`` (see :func:`reference_stats`) and appends every
    coupling route and randfixedsum fallback to ``path``, and ``"empty"``
    when no task count can hold the targets (the loop runs all the same).
    """
    path = [] if path is None else path
    if not 0 <= u_lh <= u_hh:
        raise ValueError(f"need 0 <= U_LH <= U_HH, got {u_lh} > {u_hh}")
    if u_ll < 0:
        raise ValueError(f"U_LL must be non-negative, got {u_ll}")
    if structurally_empty(config, u_hh, u_lh, u_ll):
        path.append("empty")
    for _ in range(config.max_attempts):
        targets = reference_draw_structure(rng, config, u_hh, u_lh, u_ll)
        if targets is None:
            stats["retries"] += 1
            continue
        columns = reference_realize(rng, config, targets, path, stats)
        if columns is not None:
            stats["generated"] += 1
            return columns
        stats["retries"] += 1
    return None


def reference_bucket(config: SweepConfig, bucket, points, stats, path=None):
    """The historical ``batch_for_bucket`` loop over the reference
    generator: ``(columns, the replicates' RNG streams)``."""
    gen_config = GeneratorConfig(
        m=config.m, p_high=config.p_high, deadline_type=config.deadline_type
    )
    columns, rngs = [], []
    for replicate in range(config.samples_per_bucket):
        rng = derive_rng(
            config.label, config.m, config.deadline_type, config.p_high,
            bucket, replicate,
        )
        rngs.append(rng)
        for _ in range(6):
            point = points[int(rng.integers(len(points)))]
            cols = reference_generate_columns(
                rng, gen_config, point.u_hh, point.u_lh, point.u_ll, stats, path
            )
            if cols is not None:
                columns.append(cols)
                break
    return columns, rngs


def assert_same_columns(batch: TaskSetBatch, columns: list[TaskColumns]):
    """``batch`` holds exactly ``columns``: every array, dtype included."""
    want = TaskSetBatch(columns).arrays()
    for name, got_array, want_array in zip(TaskSetBatch.ARRAYS, batch.arrays(), want):
        assert got_array.dtype == want_array.dtype, name
        assert np.array_equal(got_array, want_array), name


def states(rngs):
    return [rng.bit_generator.state for rng in rngs]


@st.composite
def generation_cases(draw):
    config = GeneratorConfig(
        m=draw(st.sampled_from([2, 4, 8])),
        p_high=draw(st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9])),
        deadline_type=draw(st.sampled_from(["implicit", "constrained"])),
        degradation_factor=draw(st.sampled_from([None, 0.0, 0.5, 1.0])),
    )
    u_hh = draw(st.sampled_from([0.2, 0.4, 0.6, 0.8, 0.99]))
    u_lh = round(draw(st.floats(min_value=0.01, max_value=u_hh)), 4)
    u_ll = round(draw(st.floats(min_value=0.01, max_value=0.99)), 4)
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return config, (u_hh, u_lh, u_ll), seed


def batch_both(config, targets, seed, count):
    """``generate_batch`` and the per-replicate reference on the same
    streams; asserts equal columns, final RNG states and work counters, and
    returns the reference's routes."""
    rngs = [derive_rng("batch-oracle", seed, k) for k in range(count)]
    ref_rngs = [derive_rng("batch-oracle", seed, k) for k in range(count)]
    generator = MCTaskSetGenerator(config)
    batch = generator.generate_batch(rngs, *targets)
    stats, path = reference_stats(), []
    columns = [
        cols
        for rng in ref_rngs
        if (cols := reference_generate_columns(rng, config, *targets, stats, path))
        is not None
    ]
    assert_same_columns(batch, columns)
    assert states(rngs) == states(ref_rngs)
    assert generator.stats == stats
    return path


class TestGenerateColumnsOracle:
    @given(generation_cases())
    @settings(max_examples=80, deadline=None)
    def test_one_set_matches_reference(self, case):
        config, targets, seed = case
        a = derive_rng("columns-oracle", seed)
        b = derive_rng("columns-oracle", seed)
        generator = MCTaskSetGenerator(config)
        got = generator.generate_columns(a, *targets)
        stats = reference_stats()
        want = reference_generate_columns(b, config, *targets, stats)
        assert a.bit_generator.state == b.bit_generator.state
        assert generator.stats == stats
        if want is None:
            assert got is None
            return
        assert got is not None
        assert_same_columns(TaskSetBatch([got]), [want])
        assert task_fields(got.materialize()) == task_fields(want.materialize())

    @given(generation_cases())
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_reference(self, case):
        batch_both(*case, count=6)


def sweep_configs():
    return st.builds(
        SweepConfig,
        label=st.sampled_from(["fig3", "fig5", "oracle"]),
        m=st.sampled_from([2, 4, 8]),
        deadline_type=st.sampled_from(["implicit", "constrained"]),
        p_high=st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]),
        samples_per_bucket=st.integers(min_value=1, max_value=8),
    )


def bucket_both(config, pick):
    """``batch_for_bucket`` against :func:`reference_bucket` on one bucket;
    asserts equal columns, final RNG states and work counters, and returns
    the batch, the reference counters and the reference's routes."""
    sweep = AcceptanceSweep(config)
    buckets = sweep.bucket_points()
    bucket = sorted(buckets)[pick % len(buckets)]
    finals = []

    def recording(*components, count):
        # the helper reuses one generator: read each replicate's final
        # state before reseeding it for the next
        for rng in replicate_rngs(*components, count=count):
            yield rng
            finals.append(rng.bit_generator.state)

    with mock.patch.object(acceptance, "replicate_rngs", recording):
        batch = sweep.batch_for_bucket(bucket, buckets[bucket])
    stats, path = reference_stats(), []
    columns, rngs = reference_bucket(config, bucket, buckets[bucket], stats, path)
    assert_same_columns(batch, columns)
    assert len(finals) == config.samples_per_bucket
    assert finals == states(rngs)
    assert sweep._generator.stats == stats
    return batch, stats, path


#: (sweep, bucket index) whose reference run takes every rare route —
#: randfixedsum fallback, rank pairing, proportional coupling fallback —
#: and resamples at least once
ROUTE_BUCKETS = {
    "implicit": (
        SweepConfig(label="fig6a", m=2, p_high=0.9, samples_per_bucket=8), 9
    ),
    "constrained": (
        SweepConfig(
            label="fig6b", m=4, deadline_type="constrained", p_high=0.5,
            samples_per_bucket=8,
        ),
        8,
    ),
}


@pytest.fixture
def metrics():
    obs.clear()
    previous = obs.set_recorder(obs.MetricsRecorder(obs.REGISTRY))
    try:
        yield obs.REGISTRY
    finally:
        obs.set_recorder(previous)
        obs.clear()


class TestBatchForBucketOracle:
    @given(sweep_configs(), st.integers(min_value=0, max_value=100))
    @settings(max_examples=40, deadline=None)
    def test_bucket_matches_reference(self, config, pick):
        bucket_both(config, pick)

    def test_empty_bucket(self, metrics):
        # fig6a at UB 1.0 with PH 0.1: no task count holds any grid point,
        # so every draw is settled in one step and no replicate yields a set.
        config = SweepConfig(label="fig6a", m=2, p_high=0.1, samples_per_bucket=4)
        batch, stats, path = bucket_both(config, -1)
        assert len(batch) == 0 and batch.n_tasks == 0
        assert stats["generated"] == 0
        assert path == ["empty"] * 24  # 4 replicates x 6 grid-point tries
        assert stats["retries"] == 64 * 24
        assert metrics.counters("generator.")["generator.empty-draws"] == 24
        assert batch.sum_per_set(batch.u_lo).shape == (0,)

    @pytest.mark.parametrize("case", sorted(ROUTE_BUCKETS))
    def test_every_route_is_reached_and_matches(self, case):
        _, stats, path = bucket_both(*ROUTE_BUCKETS[case])
        assert {"randfixedsum", "rank", "proportional"} <= set(path)
        assert stats["retries"] and stats["coupling_fallbacks"]

    @pytest.mark.parametrize("case", sorted(ROUTE_BUCKETS))
    def test_work_counters_equal_reference(self, case, metrics):
        _, stats, path = bucket_both(*ROUTE_BUCKETS[case])
        want = {
            "generator.samples": 1,
            "generator.fold-attempts": stats["fold_attempts"],
            "generator.retries": stats["retries"],
            "generator.coupling-fallbacks": stats["coupling_fallbacks"],
        }
        if "empty" in path:
            want["generator.empty-draws"] = path.count("empty")
        assert metrics.counters("generator.") == want


#: (sweep, bucket index) -> how many of the bucket's grid points no task
#: count can hold: all of them, some of them (fig6a m=2 PH 0.1 UB 1.0 is
#: ``test_empty_bucket``)
SETTLED_BUCKETS = {
    "fig6a-m4-ph0.1-ub1.0": (
        SweepConfig(label="fig6a", m=4, p_high=0.1, samples_per_bucket=8), 9, "all"
    ),
    "fig6a-m4-ph0.1-ub0.9": (
        SweepConfig(label="fig6a", m=4, p_high=0.1, samples_per_bucket=8), 8, "some"
    ),
    "fig6a-m2-ph0.9-ub0.8": (
        SweepConfig(label="fig6a", m=2, p_high=0.9, samples_per_bucket=8), 7, "some"
    ),
    "fig6b-m4-ph0.9-ub1.0": (
        SweepConfig(
            label="fig6b", m=4, deadline_type="constrained", p_high=0.9,
            samples_per_bucket=8,
        ),
        9,
        "some",
    ),
}


class TestSettledDraws:
    """A draw no task count can hold is settled in one stream step; the
    bucket, the streams and the counters stay those of the attempt loop."""

    @pytest.mark.parametrize("case", sorted(SETTLED_BUCKETS))
    def test_bucket_matches_reference(self, case, metrics):
        config, pick, empty = SETTLED_BUCKETS[case]
        points = sorted(AcceptanceSweep(config).bucket_points().items())[pick][1]
        gen_config = GeneratorConfig(m=config.m, p_high=config.p_high)
        flags = [
            structurally_empty(gen_config, p.u_hh, p.u_lh, p.u_ll) for p in points
        ]
        assert all(flags) if empty == "all" else 0 < sum(flags) < len(flags)
        batch, stats, path = bucket_both(config, pick)
        assert path.count("empty") > 0
        assert metrics.counters("generator.")["generator.empty-draws"] == (
            path.count("empty")
        )
        if empty == "all":
            assert len(batch) == 0
            assert stats["retries"] == 64 * path.count("empty")

    @pytest.mark.parametrize(
        "targets",
        [(0.4, 0.2, 0.3), (0.6, 0.3, 0.2), (0.4, 0.2, 0.9), (0.9, 0.5, 0.1)],
    )
    @pytest.mark.parametrize("deadline_type", ["implicit", "constrained"])
    def test_fixed_task_count(self, targets, deadline_type):
        """``n_min == n_max``: a single task count decides every attempt."""
        config = GeneratorConfig(
            m=2, n_min=3, n_max=3, deadline_type=deadline_type
        )
        path = batch_both(config, targets, seed=5, count=6)
        # n = 3 splits 2 HC / 1 LC: U_LL 0.9 (1.8 raw) fits no single LC
        # task, and U_HH 0.9 (1.8 raw) fits the two HC tasks
        assert ("empty" in path) == (targets[2] == 0.9)

    @pytest.mark.parametrize("m", range(1, 17))
    def test_vector_count_draw_is_the_scalar_draws(self, m):
        """One ``integers(..., size=k)`` call leaves the bit generator where
        ``k`` scalar calls do, for every paper task-count range — the
        premise of settling a draw in one step."""
        scalar, vector = derive_rng("counts", m), derive_rng("counts", m)
        for rng in (scalar, vector):
            rng.integers(7)  # leave a buffered half word behind
        drawn = [int(scalar.integers(m + 1, 5 * m + 1)) for _ in range(64)]
        assert vector.integers(m + 1, 5 * m + 1, size=64).tolist() == drawn
        assert scalar.bit_generator.state == vector.bit_generator.state
        assert scalar.random() == vector.random()

    @pytest.mark.parametrize("k", [1, 9, 39])
    def test_block_draw_is_the_row_draws(self, k):
        """``random((B, k))`` holds the doubles of ``B`` successive
        ``random(k)`` calls and leaves the same state, a buffered half
        word included — the premise of the screened UUniFast-discard
        tail."""
        block, rows = derive_rng("block", k), derive_rng("block", k)
        for rng in (block, rows):
            rng.integers(7)
        drawn = np.array([rows.random(k) for _ in range(97)])
        assert np.array_equal(block.random((97, k)), drawn)
        assert block.bit_generator.state == rows.bit_generator.state

    def test_restore_and_redraw_is_the_sequential_state(self):
        """After a task-count draw leaves ``has_uint32`` set, restoring a
        snapshot and redrawing lands on the sequential state; ``advance``
        over the same doubles reaches the same position but drops the
        buffered half word, so the screened tail cannot use it."""
        sequential, redrawn, advanced = (derive_rng("snapshot") for _ in range(3))
        for rng in (sequential, redrawn, advanced):
            rng.integers(2, 11)
        assert sequential.bit_generator.state["has_uint32"] == 1
        sequential.random(5 * 9)
        snapshot = redrawn.bit_generator.state
        redrawn.random((20, 9))
        redrawn.bit_generator.state = snapshot
        redrawn.random(5 * 9)
        assert redrawn.bit_generator.state == sequential.bit_generator.state
        advanced.bit_generator.advance(5 * 9)
        want = sequential.bit_generator.state
        got = advanced.bit_generator.state
        assert got["state"] == want["state"]
        assert got != want and got["has_uint32"] == 0


class TestGenerateBatch:
    def test_batch_carries_service_model(self):
        config = GeneratorConfig(m=2)
        batch = MCTaskSetGenerator(config).generate_batch(
            (derive_rng("gbs", k) for k in range(3)),
            0.4,
            0.2,
            0.2,
            service_model="imprecise:0.5",
        )
        assert batch.service_model is not None
        assert batch.taskset(0).service_model is batch.service_model

    def test_generate_is_the_materialized_columns(self):
        config = GeneratorConfig(m=2, deadline_type="constrained")
        a, b = derive_rng("gen", 1), derive_rng("gen", 1)
        generator = MCTaskSetGenerator(config)
        taskset = generator.generate(a, 0.6, 0.3, 0.3)
        columns = MCTaskSetGenerator(config).generate_columns(b, 0.6, 0.3, 0.3)
        assert task_fields(taskset) == task_fields(columns.materialize())
