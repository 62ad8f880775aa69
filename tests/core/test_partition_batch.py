"""Differential suite: partition_batch == scalar partition, set for set.

The batched path may settle a set via prefilters or the utilization-ledger
replay, or fall through to the incremental per-taskset path — whatever the
mechanism, ``accepted[i]`` must equal ``partition(...).success``.  One call
over several algorithms must equal one single-algorithm call per algorithm.
The fast tier covers one configuration per test family; the ``slow`` tier
sweeps the full strategies × tests × service-models cross product.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.analysis import get_test
from repro.core import (
    UnsupportedTasksetError,
    get_strategy,
    partition,
    partition_batch,
)
from repro.degradation.service import ServiceModel
from repro.generator import GeneratorConfig, MCTaskSetGenerator
from repro.model import MCTask, TaskSet, TaskSetBatch
from repro.util.rng import derive_rng

STRATEGIES = ("ca-udp", "cu-udp", "ca-f-f", "ca-nosort-f-f")
EXTRA_STRATEGIES = ("eca-wu-f", "ca-wu-f", "wfd", "bfd")


def generated_batch(m, deadline_type, service, count, label):
    gen = MCTaskSetGenerator(GeneratorConfig(m=m, deadline_type=deadline_type))
    columns = []
    for k in range(count):
        u_hh = 0.2 + (k % 8) * 0.1
        u_lh = min(u_hh, 0.1 + (k % 4) * 0.1)
        u_ll = 0.1 + (k % 6) * 0.12
        cols = gen.generate_columns(
            derive_rng(label, deadline_type, k), u_hh, u_lh, u_ll
        )
        if cols is not None:
            columns.append(cols)
    return TaskSetBatch(columns, service_model=service)


def assert_batch_matches_scalar(batch_args, m, test_name, strategy_name):
    deadline_type, service, count, label = batch_args
    batch = generated_batch(m, deadline_type, service, count, label)
    test = get_test(test_name)
    strategy = get_strategy(strategy_name)
    [outcome] = partition_batch(batch, m, [(test, strategy)])
    assert len(outcome.accepted) == len(batch)

    fresh = generated_batch(m, deadline_type, service, count, label)
    scalar_test = get_test(test_name)
    for i in range(len(fresh)):
        expected = partition(fresh.taskset(i), m, scalar_test, strategy).success
        assert outcome.accepted[i] == expected, (
            f"set {i} diverged ({outcome.settled[i]}) for "
            f"{strategy_name}+{test_name} on {deadline_type}/{service}"
        )
    return outcome


class TestFastDifferential:
    @pytest.mark.parametrize("m", [2, 4, 8])
    @pytest.mark.parametrize("strategy_name", STRATEGIES + EXTRA_STRATEGIES)
    def test_edf_vd_ledger_complete(self, strategy_name, m):
        # Beyond two cores the worst/best-fit metrics tie (empty cores,
        # equal sums), so the fit order's index tie-break is exercised.
        outcome = assert_batch_matches_scalar(
            ("implicit", None, 25, "pb-edfvd"), m, "edf-vd", strategy_name
        )
        # The EDF-VD screen is complete: nothing may fall through.
        assert "full" not in outcome.settled_counts()

    def test_residual_udp_imprecise_m4(self):
        # The degraded U_res ledger column and the res-difference metric.
        outcome = assert_batch_matches_scalar(
            ("implicit", "imprecise:0.5", 25, "pb-res4"), 4, "edf-vd",
            "cu-udp-res",
        )
        assert "full" not in outcome.settled_counts()

    @pytest.mark.parametrize("test_name", ["ey", "ecdf"])
    def test_demand_tests_partial_ledger(self, test_name):
        outcome = assert_batch_matches_scalar(
            ("implicit", None, 20, "pb-demand"), 2, test_name, "cu-udp"
        )
        counts = outcome.settled_counts()
        assert counts.get("ledger", 0) > 0  # the decided region settles sets

    def test_amc_falls_through(self):
        outcome = assert_batch_matches_scalar(
            ("constrained", None, 15, "pb-amc"), 2, "amc-max", "cu-udp"
        )
        assert "ledger" not in outcome.settled_counts()

    def test_degraded_service_differential(self):
        assert_batch_matches_scalar(
            ("implicit", "imprecise:0.5", 15, "pb-deg"), 2, "edf-vd", "cu-udp-res"
        )
        assert_batch_matches_scalar(
            ("implicit", "elastic:2.0", 12, "pb-deg2"), 2, "ey", "cu-udp"
        )


class TestEdgesAndGates:
    def test_empty_batch(self):
        [outcome] = partition_batch(
            TaskSetBatch([]), 2, [(get_test("edf-vd"), get_strategy("cu-udp"))]
        )
        assert outcome.accepted == []
        assert partition_batch(TaskSetBatch([]), 2, []) == []

    def test_invalid_m(self):
        with pytest.raises(ValueError, match="m must be positive"):
            partition_batch(
                TaskSetBatch([]), 0, [(get_test("edf-vd"), get_strategy("cu-udp"))]
            )

    def test_unsupported_deadline_shape_raises(self):
        constrained = TaskSet(
            [MCTask(period=10, criticality="HC", wcet_lo=2, wcet_hi=4, deadline=8)]
        )
        batch = TaskSetBatch.from_tasksets([constrained])
        with pytest.raises(UnsupportedTasksetError):
            partition_batch(batch, 2, [(get_test("edf-vd"), get_strategy("cu-udp"))])

    def test_unsupported_service_model_raises(self):
        ts = TaskSet(
            [MCTask(period=10, criticality="LC", wcet_lo=2, wcet_hi=2)],
            service_model="imprecise:0.5",
        )
        batch = TaskSetBatch.from_tasksets([ts])
        with pytest.raises(UnsupportedTasksetError):
            partition_batch(
                batch, 2, [(get_test("amc-max"), get_strategy("cu-udp"))]
            )

    def test_replay_metadata_matches_callables(self):
        """The lexsort allocation order must equal the callable order rules."""
        from repro.core.batch import _allocation_orders

        batches = [
            generated_batch(2, "implicit", None, 10, "pb-order"),
            TaskSetBatch.from_tasksets(shuffled_id_tasksets("pb-order-ids")),
        ]
        strategies = [get_strategy(n) for n in STRATEGIES + EXTRA_STRATEGIES]
        specs = list(dict.fromkeys(s.order_spec for s in strategies))
        for strategy in strategies:
            assert strategy.replayable
            for batch in batches:
                # one call for every spec: spec n's order is block n
                block = specs.index(strategy.order_spec) * batch.n_tasks
                ordered = _allocation_orders(batch, specs)[block:]
                for i in range(len(batch)):
                    ts = batch.taskset(i)
                    want = [t.task_id for t in strategy.order(ts)]
                    local = ordered[batch.set_slice(i)] - batch.offsets[i]
                    assert [ts[j].task_id for j in local] == want

    def test_fit_order_matches_callables(self):
        """Stable argsorts of the fit keys equal the callable fit rules,
        including ties between cores whose states differ."""
        from repro.core.allocator import ProcessorState
        from repro.core.batch import _fit_key
        from repro.degradation.service import parse_service_model

        hc = MCTask(period=10, criticality="HC", wcet_lo=3, wcet_hi=6)
        lc = MCTask(period=10, criticality="LC", wcet_lo=3, wcet_hi=3)
        small = MCTask(period=20, criticality="HC", wcet_lo=1, wcet_hi=4)
        loads = [[], [hc], [lc], [hc], [], [lc, small], [small, lc], [hc, lc]]
        processors = []
        for index, tasks in enumerate(loads):
            core = ProcessorState(
                index, service=parse_service_model("imprecise:0.5")
            )
            for task in tasks:
                core.add(task)
            processors.append(core)
        ledger = np.array(
            [
                [[getattr(core, field) for core in processors]]
                for field in ("u_ll", "u_lh", "u_hh", "u_res")
            ]
        )  # (4, 1 set, 8 cores)
        for name in STRATEGIES + EXTRA_STRATEGIES + ("cu-udp-res",):
            strategy = get_strategy(name)
            for high, rule in ((True, strategy.hc_fit), (False, strategy.lc_fit)):
                key = _fit_key(
                    [strategy.hc_fit_spec, strategy.lc_fit_spec],
                    np.array([0 if high else 1]),
                    ledger,
                )
                got = (
                    range(len(processors)) if key is None
                    else key.argsort(axis=1, kind="stable")[0].tolist()
                )
                assert list(got) == list(rule(processors)), (name, high)


def shuffled_id_tasksets(label, service=None):
    """Task sets as a caller builds them, not as the generator does.

    Shuffled task order with non-contiguous random ids, mixed set sizes,
    an empty set, and per-set "twins": tasks with the same own-level
    utilization but other parameters different, so the allocation order
    depends on the task-id tie-break.
    """
    rng = np.random.default_rng(11)
    source = generated_batch(4, "implicit", None, 12, label)
    sets = [TaskSet([], service_model=service)]
    for i in range(len(source)):
        tasks = list(source.taskset(i))[: max(1, 2 + i)]
        for t in tasks[:2]:
            wcet_lo = 2 * t.wcet_lo + (1 if t.is_high else 0)
            if t.is_high and wcet_lo > 2 * t.wcet_hi:
                wcet_lo -= 2
            tasks.append(
                MCTask(
                    period=2 * t.period,
                    criticality=t.criticality,
                    wcet_lo=wcet_lo if t.is_high else 2 * t.wcet_lo,
                    wcet_hi=2 * t.wcet_hi,
                )
            )
        ids = rng.choice(10**6, size=len(tasks), replace=False)
        order = rng.permutation(len(tasks))
        sets.append(
            TaskSet(
                [
                    dataclasses.replace(tasks[j], task_id=int(ids[k]), name="")
                    for k, j in enumerate(order)
                ],
                service_model=service,
            )
        )
    return sets


class TestFromTasksets:
    @pytest.mark.parametrize("strategy_name", STRATEGIES + EXTRA_STRATEGIES)
    @pytest.mark.parametrize("service", [None, "imprecise:0.5"])
    def test_shuffled_ids_match_scalar(self, strategy_name, service):
        tasksets = shuffled_id_tasksets("pb-ids", service)
        test = get_test("edf-vd")
        strategy = get_strategy(strategy_name)
        [outcome] = partition_batch(
            TaskSetBatch.from_tasksets(tasksets), 4, [(test, strategy)]
        )
        assert outcome.settled[0] == "ledger"  # the empty set
        for i, ts in enumerate(tasksets):
            expected = partition(ts, 4, get_test("edf-vd"), strategy).success
            assert outcome.accepted[i] == expected, f"set {i} diverged"

    @pytest.mark.parametrize("strategy_name", ["cu-udp", "ca-f-f", "wfd"])
    def test_invalid_probe_raises_the_scalar_error(self, strategy_name):
        ts = inflated_set((2, 4), [3])
        strategy = get_strategy(strategy_name)
        with pytest.raises(ValueError, match="U_res") as scalar:
            partition(ts, 2, get_test("edf-vd"), strategy)
        with pytest.raises(ValueError) as batched:
            partition_batch(
                TaskSetBatch.from_tasksets([ts]), 2,
                [(get_test("edf-vd"), strategy)],
            )
        assert str(batched.value) == str(scalar.value)

    def test_invalid_probe_of_the_second_algorithm_raises(self):
        # Criticality-aware first fit rejects the third HC task before it
        # probes the LC task; criticality-unaware UDP places the LC task
        # first and reaches the invalid probe.
        ts = inflated_set((2, 6), [7], hc_count=3)
        valid, invalid = get_strategy("ca-f-f"), get_strategy("cu-udp")
        assert not partition(ts, 2, get_test("edf-vd"), valid).success
        with pytest.raises(ValueError, match="U_res") as scalar:
            partition(ts, 2, get_test("edf-vd"), invalid)
        test = get_test("edf-vd")
        with pytest.raises(ValueError) as batched:
            partition_batch(
                TaskSetBatch.from_tasksets([ts]), 2,
                [(test, valid), (test, invalid)],
            )
        assert str(batched.value) == str(scalar.value)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_first_invalid_algorithm_in_list_order_raises(self, reverse):
        # Input order places the 0.2 LC task first, utilization order
        # the 0.3 one: the two walks fail at different probes.
        ts = inflated_set((2, 4), [2, 3])
        strategies = [get_strategy("ca-nosort-f-f"), get_strategy("cu-udp")]
        if reverse:
            strategies.reverse()
        messages = []
        for strategy in strategies:
            with pytest.raises(ValueError, match="U_res") as scalar:
                partition(ts, 2, get_test("edf-vd"), strategy)
            messages.append(str(scalar.value))
        assert messages[0] != messages[1]
        test = get_test("edf-vd")
        with pytest.raises(ValueError) as batched:
            partition_batch(
                TaskSetBatch.from_tasksets([ts]), 2,
                [(test, strategy) for strategy in strategies],
            )
        assert str(batched.value) == messages[0]


class InflatedResidual(ServiceModel):
    """Residual LC service above C^LO, which EDF-VD rejects."""

    name = "inflated"

    def degraded_budget(self, task):
        return task.wcet_hi if task.is_high else 2 * task.wcet_lo

    def key(self):
        return ("inflated",)


def inflated_set(hc_wcets, lc_wcets, hc_count=1):
    """HC tasks of ``(C^LO, C^HI)`` and LC tasks of ``C``, period 10, under
    :class:`InflatedResidual`: every walk that probes an LC task is
    invalid."""
    tasks = [
        MCTask(period=10, criticality="HC", wcet_lo=hc_wcets[0], wcet_hi=hc_wcets[1])
        for _ in range(hc_count)
    ]
    tasks += [
        MCTask(period=10, criticality="LC", wcet_lo=c, wcet_hi=c) for c in lc_wcets
    ]
    return TaskSet(tasks, service_model=InflatedResidual())


TESTS = ("edf-vd", "ey", "ecdf", "amc-max")


def every_algorithm(deadline_type, service):
    """Every strategy × test pair the batch supports, as fresh instances
    (one test instance per pair, as the sweep holds them), with the first
    pair listed twice."""
    from repro.degradation.service import parse_service_model

    model = parse_service_model(service or "full-drop")
    pairs = []
    for test_name in TESTS:
        for strategy_name in STRATEGIES + EXTRA_STRATEGIES:
            test = get_test(test_name)
            if deadline_type == "constrained" and not test.supports_deadline_type(
                "constrained"
            ):
                continue
            if not test.supports_service_model(model):
                continue
            pairs.append((test, get_strategy(strategy_name)))
    return [pairs[0], *pairs, pairs[0]]


def assert_one_call_equals_calls_per_algorithm(deadline_type, service, m, count):
    label = f"pbm-{deadline_type}-{service}-{m}"
    batch = generated_batch(m, deadline_type, service, count, label)
    together = partition_batch(batch, m, every_algorithm(deadline_type, service))
    fresh = generated_batch(m, deadline_type, service, count, label)
    alone = [
        partition_batch(fresh, m, [pair])[0]
        for pair in every_algorithm(deadline_type, service)
    ]
    assert len(together) == len(alone)
    for a, (got, want) in enumerate(zip(together, alone)):
        assert got.accepted == want.accepted, a
        assert got.settled == want.settled, a
        assert got.kernel == want.kernel, a
    return together


class TestMultiAlgorithm:
    """One call over many algorithms == one call per algorithm: the
    stacked replay mixes order specs, fit specs, screen classes and AMC's
    missing screen."""

    @pytest.mark.parametrize(
        "deadline_type,service,m",
        [
            ("implicit", None, 2),
            ("constrained", None, 4),
            ("implicit", "imprecise:0.5", 4),
        ],
    )
    def test_one_call_equals_one_call_per_algorithm(self, deadline_type, service, m):
        outcomes = assert_one_call_equals_calls_per_algorithm(
            deadline_type, service, m, 10
        )
        sources = {s for outcome in outcomes for s in outcome.settled}
        assert "full" in sources
        # the implicit-deadline plain-EDF accept settles sets in the ledger
        assert deadline_type == "constrained" or "ledger" in sources

    def test_prefilter_observations_equal_the_per_algorithm_calls(self):
        from repro import obs

        def observed(calls):
            obs.clear()
            previous = obs.set_recorder(obs.MetricsRecorder(obs.REGISTRY))
            try:
                for batch, pairs in calls:
                    partition_batch(batch, 2, pairs)
                counters = obs.REGISTRY.counters("prefilter.")
                histograms = {
                    name: (h.count, h.total)
                    for name, h in obs.REGISTRY.histograms().items()
                    if name.startswith("prefilter.")
                }
            finally:
                obs.set_recorder(previous)
                obs.clear()
            return counters, histograms

        pairs = every_algorithm("implicit", None)
        batch = generated_batch(2, "implicit", None, 10, "pbm-obs")
        together = observed([(batch, pairs)])
        fresh = generated_batch(2, "implicit", None, 10, "pbm-obs")
        alone = observed([(fresh, [pair]) for pair in pairs])
        assert together == alone
        assert together[0]["prefilter.ledger"] > 0
        assert together[1]["prefilter.full.settled"][0] > 1


@pytest.mark.slow
class TestFullCrossProduct:
    """The issue's full differential: strategies × tests × service models."""

    @pytest.mark.parametrize("strategy_name", STRATEGIES + EXTRA_STRATEGIES)
    @pytest.mark.parametrize(
        "deadline_type,test_name,service",
        [
            ("implicit", "edf-vd", None),
            ("implicit", "ey", None),
            ("implicit", "ecdf", None),
            ("implicit", "amc-max", None),
            ("constrained", "ey", None),
            ("constrained", "ecdf", None),
            ("constrained", "amc-max", None),
            ("implicit", "edf-vd", "imprecise:0.5"),
            ("implicit", "edf-vd", "elastic:2.0"),
            ("implicit", "ey", "imprecise:0.5"),
            ("implicit", "ecdf", "elastic:2.0"),
        ],
    )
    def test_differential(self, strategy_name, deadline_type, test_name, service):
        assert_batch_matches_scalar(
            (deadline_type, service, 30, f"pbx-{test_name}"),
            2,
            test_name,
            strategy_name,
        )


@pytest.mark.slow
class TestMultiAlgorithmCrossProduct:
    """One call over every supported algorithm, across deadline types,
    service models and core counts."""

    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize(
        "deadline_type,service",
        [
            ("implicit", None),
            ("constrained", None),
            ("implicit", "imprecise:0.5"),
            ("implicit", "elastic:2.0"),
        ],
    )
    def test_one_call_equals_one_call_per_algorithm(self, deadline_type, service, m):
        assert_one_call_equals_calls_per_algorithm(deadline_type, service, m, 25)
