"""Differential suite: batched generation == scalar generation, bit for bit.

The batch contract (see ``MCTaskSetGenerator.generate_batch``) is that each
set of a batch consumes its derived RNG stream exactly as one scalar
``generate()`` call would — same draws, same rejection loops, same columns.
These tests compare the two paths on the paper's parameter grid (hypothesis
chooses targets and seeds) and additionally pin the generator's rejection
loops — UUniFast, UUniFast-discard and the LO/HI coupling — against literal
transcriptions of their historical implementations: same outputs, same
final RNG state.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.generator import GeneratorConfig, MCTaskSetGenerator
from repro.generator.uunifast import randfixedsum, uunifast, uunifast_discard
from repro.model import TaskSetBatch
from repro.util.rng import derive_rng


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
):
    """The historical whole-vector rejection loop, kept as the oracle."""
    if total > n * u_max + 1e-12 or total < n * u_min - 1e-12:
        return None
    for _ in range(max_attempts):
        values = reference_uunifast(rng, n, total)
        if values.max(initial=0.0) <= u_max and values.min(initial=1.0) >= u_min:
            return values
    return None


def reference_couple_lo_hi(rng, config, u_high, lh, path):
    """The historical numpy LO/HI coupling, kept as the oracle.

    Appends the route it took to ``path``: ``"randfixedsum"`` per vector
    drawn by the fallback, then ``"random"``, ``"rank"`` or
    ``"proportional"``.
    """
    n = len(u_high)
    for _ in range(20):
        u_low = reference_uunifast_discard(
            rng, n, lh, config.u_min, config.u_max, max_attempts=100
        )
        if u_low is None:
            path.append("randfixedsum")
            u_low = randfixedsum(rng, n, lh, config.u_min, config.u_max)
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
    RNG states and fallback counts, and return the oracle's route."""
    config = GeneratorConfig(m=2)
    generator = MCTaskSetGenerator(config)
    a = np.random.default_rng(seed)
    b = np.random.default_rng(seed)
    got = generator._couple_lo_hi(a, u_high, lh)
    path: list[str] = []
    want = reference_couple_lo_hi(b, config, u_high, lh, path)
    assert a.bit_generator.state == b.bit_generator.state
    if want is None:
        assert got is None
    else:
        assert got is not None and np.array_equal(got, want)
    fell_back = generator.stats["coupling_fallbacks"]
    assert fell_back == (path[-1] == "proportional")
    return path


#: route -> (u_high, lh, seed, final route, whether randfixedsum drew a
#: vector on the way).  "tied": equal u_high entries, so the order argsort
#: gives them decides where rank pairing puts the LO values (a stable sort
#: would place them differently in "rank-tied").
COUPLING_ROUTES = {
    "random": ([0.9, 0.8, 0.7, 0.6], 0.4, 0, "random", False),
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


@st.composite
def generation_cases(draw):
    m = draw(st.sampled_from([2, 4]))
    deadline_type = draw(st.sampled_from(["implicit", "constrained"]))
    factor = draw(st.sampled_from([None, 0.5]))
    u_hh = draw(st.sampled_from([0.2, 0.4, 0.6, 0.8, 0.99]))
    u_lh = round(draw(st.floats(min_value=0.05, max_value=u_hh)), 4)
    u_ll = round(draw(st.floats(min_value=0.05, max_value=0.9)), 4)
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return m, deadline_type, factor, u_hh, u_lh, u_ll, seed


class TestGenerateColumnsDifferential:
    @given(generation_cases())
    @settings(max_examples=60, deadline=None)
    def test_columns_materialize_equals_scalar_generate(self, case):
        m, deadline_type, factor, u_hh, u_lh, u_ll, seed = case
        config = GeneratorConfig(
            m=m, deadline_type=deadline_type, degradation_factor=factor
        )
        r1 = derive_rng("batchdiff", seed)
        r2 = derive_rng("batchdiff", seed)
        scalar = MCTaskSetGenerator(config).generate(r1, u_hh, u_lh, u_ll)
        columns = MCTaskSetGenerator(config).generate_columns(
            r2, u_hh, u_lh, u_ll
        )
        # Identical draws => identical stream positions afterwards.
        assert r1.bit_generator.state == r2.bit_generator.state
        if scalar is None:
            assert columns is None
            return
        assert columns is not None
        assert task_fields(columns.materialize()) == task_fields(scalar)


class TestGenerateBatch:
    @pytest.mark.parametrize("deadline_type", ["implicit", "constrained"])
    def test_batch_equals_scalar_sequence(self, deadline_type):
        config = GeneratorConfig(m=2, deadline_type=deadline_type)
        targets = (0.6, 0.3, 0.3)
        count = 30
        scalar_gen = MCTaskSetGenerator(config)
        scalar = [
            scalar_gen.generate(derive_rng("gb", deadline_type, k), *targets)
            for k in range(count)
        ]
        scalar = [ts for ts in scalar if ts is not None]

        batch_gen = MCTaskSetGenerator(config)
        batch = batch_gen.generate_batch(
            (derive_rng("gb", deadline_type, k) for k in range(count)), *targets
        )
        assert isinstance(batch, TaskSetBatch)
        assert len(batch) == len(scalar)
        for i, ts in enumerate(scalar):
            assert task_fields(batch.taskset(i)) == task_fields(ts)
        assert batch_gen.stats == scalar_gen.stats

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
