"""The canonical verdict cache: keys, tiers, reconstruction, safety.

The cache's whole value proposition is *canonical identity*: two
submissions of the same parameter multiset — different order, different
task ids, different names — must produce the same key, and a hit must
reconstruct a result indistinguishable from the uncached computation
around the caller's actual task objects.  Its whole safety story is the
shard store's: off by default, bounded in process, and on the persistent
tier any doubt is a miss plus a discard, never a trusted payload.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import get_test
from repro.analysis import verdict_cache as vc
from repro.analysis.vdtuning import run_tuning_stages
from repro.core import get_strategy, partition
from repro.degradation.service import parse_service_model
from repro.model import Criticality, MCTask, TaskSet

STAGES = (("steepest", False),)


def make_tasks():
    """A fixed mixed-criticality parameter multiset.

    No two tasks tie on any strategy ordering key, so every submission
    order places tasks identically and cached partition layouts are
    byte-comparable to fresh ones.
    """
    return [
        MCTask(period=20, criticality=Criticality.HC, wcet_lo=3, wcet_hi=6,
               deadline=20),
        MCTask(period=12, criticality=Criticality.LC, wcet_lo=2, wcet_hi=2,
               deadline=12),
        MCTask(period=30, criticality=Criticality.HC, wcet_lo=4, wcet_hi=10,
               deadline=25),
        MCTask(period=8, criticality=Criticality.LC, wcet_lo=1, wcet_hi=1,
               deadline=8),
    ]


def make_tied_tasks():
    """A multiset whose two HC tasks tie on own-level utilization (both
    0.3), so *strategy ordering* — which tie-breaks on task id — depends
    on submission order even though the parameter multiset does not."""
    tasks = make_tasks()
    tasks[2] = MCTask(period=30, criticality=Criticality.HC, wcet_lo=4,
                      wcet_hi=9, deadline=25)
    return tasks


#: A set whose EY stage stops at the V* floor (the scalar descent it
#: replaces ran 40 iterations to "no shrinkable task at l*=22").
FLOOR_TASKS = [
    MCTask(period=37, criticality=Criticality.HC, wcet_lo=6, wcet_hi=6,
           deadline=24),
    MCTask(period=32, criticality=Criticality.HC, wcet_lo=5, wcet_hi=12,
           deadline=32),
    MCTask(period=36, criticality=Criticality.HC, wcet_lo=4, wcet_hi=14,
           deadline=27),
    MCTask(period=5, criticality=Criticality.LC, wcet_lo=1, wcet_hi=1,
           deadline=1),
]


def reordered_clone(tasks):
    """The same parameter multiset as fresh task objects in another order
    — new task ids, reversed submission order."""
    return [
        MCTask(
            period=t.period,
            criticality=t.criticality,
            wcet_lo=t.wcet_lo,
            wcet_hi=t.wcet_hi,
            deadline=t.deadline,
            wcet_degraded=t.wcet_degraded,
            period_degraded=t.period_degraded,
        )
        for t in reversed(tasks)
    ]


@pytest.fixture
def cache_on(monkeypatch):
    monkeypatch.setenv("REPRO_VERDICT_CACHE", "on")
    monkeypatch.delenv("REPRO_VERDICT_CACHE_SIZE", raising=False)
    monkeypatch.delenv("REPRO_VERDICT_CACHE_DIR", raising=False)
    vc.reconfigure()
    vc.reset_cache_counters()
    yield
    vc.reconfigure()


class TestDisabledByDefault:
    def test_off_unless_opted_in(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERDICT_CACHE", raising=False)
        vc.reconfigure()
        try:
            assert not vc.enabled()
            ts = TaskSet(make_tasks())
            outcome = run_tuning_stages(ts, STAGES, 100_000)
            # store/lookup are no-ops while disabled
            vc.store_tuning(ts, STAGES, 100_000, outcome)
            assert vc.lookup_tuning(ts, STAGES, 100_000) is None
        finally:
            vc.reconfigure()


class TestCanonicalKeys:
    def test_reorder_and_reid_invariant(self, cache_on):
        a = TaskSet(make_tasks())
        b = TaskSet(reordered_clone(make_tasks()))
        ka = vc._key("tuning", a, vc._canonical_order(a), {"probe": 1})
        kb = vc._key("tuning", b, vc._canonical_order(b), {"probe": 1})
        assert ka == kb

    def test_service_model_separates_keys(self, cache_on):
        plain = TaskSet(make_tasks())
        tagged = TaskSet(
            make_tasks(), service_model=parse_service_model("imprecise:0.5")
        )
        kp = vc._key("tuning", plain, vc._canonical_order(plain), {})
        kt = vc._key("tuning", tagged, vc._canonical_order(tagged), {})
        assert kp != kt

    def test_parameters_separate_keys(self, cache_on):
        a = TaskSet(make_tasks())
        heavier = make_tasks()
        heavier[0] = MCTask(
            period=20, criticality=Criticality.HC, wcet_lo=3, wcet_hi=7,
            deadline=20,
        )
        b = TaskSet(heavier)
        ka = vc._key("tuning", a, vc._canonical_order(a), {})
        kb = vc._key("tuning", b, vc._canonical_order(b), {})
        assert ka != kb


class TestTuningRoundTrip:
    def test_hit_reconstructs_outcome(self, cache_on):
        ts = TaskSet(make_tasks())
        cold = run_tuning_stages(ts, STAGES, 100_000)
        assert vc.cache_counters()["store"] == 1

        warm = run_tuning_stages(ts, STAGES, 100_000)
        assert vc.cache_counters()["hit"] == 1
        assert warm.schedulable == cold.schedulable
        assert warm.virtual_deadlines == cold.virtual_deadlines
        assert warm.iterations == cold.iterations
        assert warm.detail == cold.detail

    def test_hit_across_reorder_and_reid(self, cache_on):
        ts = TaskSet(make_tasks())
        cold = run_tuning_stages(ts, STAGES, 100_000)

        clone = TaskSet(reordered_clone(make_tasks()))
        before = vc.cache_counters()["hit"]
        served = run_tuning_stages(clone, STAGES, 100_000)
        assert vc.cache_counters()["hit"] == before + 1
        assert served.schedulable == cold.schedulable
        # deadlines remapped onto the *clone's* ids, parameter-for-
        # parameter equal to the cold run's assignment
        by_params_cold = {
            tuple(vc._task_params(t)): cold.virtual_deadlines.get(t.task_id)
            for t in ts if t.is_high
        }
        by_params_clone = {
            tuple(vc._task_params(t)): served.virtual_deadlines.get(t.task_id)
            for t in clone if t.is_high
        }
        assert by_params_clone == by_params_cold


class TestPartitionRoundTrip:
    def test_hit_matches_uncached_run(self, cache_on):
        test, strategy = get_test("ey"), get_strategy("cu-udp")
        ts = TaskSet(make_tasks())
        cold = partition(ts, 2, test, strategy)
        assert vc.cache_counters()["store"] >= 1

        clone_tasks = reordered_clone(make_tasks())
        clone = TaskSet(clone_tasks)
        before = vc.cache_counters()["hit"]
        served = partition(clone, 2, test, strategy)
        assert vc.cache_counters()["hit"] == before + 1

        # The served result must be indistinguishable from an uncached
        # partition of the clone itself.
        vc.reconfigure()  # cache off-path: fresh env read happens lazily
        fresh = partition(TaskSet(clone_tasks), 2, test, strategy)
        assert served.success == fresh.success == cold.success
        assert served.m == fresh.m
        assert served.assignment == fresh.assignment
        assert [
            [t.task_id for t in core] for core in served.cores
        ] == [[t.task_id for t in core] for core in fresh.cores]
        assert (served.failed_task is None) == (fresh.failed_task is None)

    def test_tied_orderings_served_result_is_valid(self, cache_on):
        """When strategy ordering ties on utilization, a re-id'd clone
        places tasks in a different order than the cold run — the cache
        then serves the *cold* layout mapped onto the clone's tasks.
        That layout must still be a valid successful partition of the
        clone (parameter-identical cores pass the same tests), which is
        the verdict-level contract the cache guarantees."""
        test, strategy = get_test("ey"), get_strategy("cu-udp")
        cold = partition(TaskSet(make_tied_tasks()), 2, test, strategy)
        assert cold.success

        clone = TaskSet(reordered_clone(make_tied_tasks()))
        served = partition(clone, 2, test, strategy)
        assert served.success
        clone_ids = {t.task_id for t in clone}
        assert set(served.assignment) == clone_ids
        for core in served.cores:
            if len(core):
                assert test.is_schedulable(core)

    def test_strategy_and_m_separate_keys(self, cache_on):
        test = get_test("ey")
        ts = TaskSet(make_tasks())
        partition(ts, 2, test, get_strategy("cu-udp"))
        assert vc.lookup_partition(ts, 2, test, get_strategy("cu-udp")) is not None
        assert vc.lookup_partition(ts, 3, test, get_strategy("cu-udp")) is None
        assert vc.lookup_partition(ts, 2, test, get_strategy("ca-udp")) is None


class TestLruBound:
    def test_eviction_past_capacity(self, cache_on, monkeypatch):
        monkeypatch.setenv("REPRO_VERDICT_CACHE_SIZE", "2")
        vc.reconfigure()
        ts = TaskSet(make_tasks())
        outcome = run_tuning_stages(ts, STAGES, 100_000)
        for cap in (100_000, 110_000, 120_000):
            vc.store_tuning(ts, STAGES, cap, outcome)
        assert vc.lookup_tuning(ts, STAGES, 100_000) is None  # evicted
        assert vc.lookup_tuning(ts, STAGES, 110_000) is not None
        assert vc.lookup_tuning(ts, STAGES, 120_000) is not None


class TestPersistentTier:
    def test_survives_process_restart(self, cache_on, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_VERDICT_CACHE_DIR", str(tmp_path))
        vc.reconfigure()
        ts = TaskSet(make_tasks())
        cold = run_tuning_stages(ts, STAGES, 100_000)
        blobs = list((tmp_path / "objects").iterdir())
        assert len(blobs) == 1

        vc.reconfigure()  # simulated restart: LRU gone, disk survives
        vc.reset_cache_counters()
        warm = run_tuning_stages(ts, STAGES, 100_000)
        counters = vc.cache_counters()
        assert counters["disk-hit"] == 1
        assert warm.virtual_deadlines == cold.virtual_deadlines

        # promoted into the LRU: the next lookup never touches disk
        vc.reset_cache_counters()
        run_tuning_stages(ts, STAGES, 100_000)
        assert vc.cache_counters()["hit"] == 1
        assert vc.cache_counters()["disk-hit"] == 0

    def test_schema_1_payloads_are_ignored(
        self, cache_on, monkeypatch, tmp_path
    ):
        """``/1`` entries predate the V* floor reject: their ``iterations``
        and ``detail`` describe the old descent, so neither their keys nor
        a ``/1`` payload at a current key may serve a lookup."""
        monkeypatch.setenv("REPRO_VERDICT_CACHE_DIR", str(tmp_path))
        vc.reconfigure()
        ts = TaskSet(FLOOR_TASKS)
        fresh = run_tuning_stages(ts, STAGES, 100_000)
        assert fresh.detail.startswith("HI infeasible at V* floor")
        blob = next((tmp_path / "objects").iterdir())
        stale = json.loads(blob.read_text())
        stale.update(
            schema="repro-verdict-cache/1",
            iterations=40,
            detail="no shrinkable task at l*=22",
        )
        with monkeypatch.context() as old:  # written by the /1 code
            old.setattr(vc, "_SCHEMA", "repro-verdict-cache/1")
            vc.reconfigure()
            vc.store_tuning(ts, STAGES, 100_000, fresh)
        assert len(list((tmp_path / "objects").iterdir())) == 2
        blob.write_text(json.dumps(stale))  # a /1 payload at a /2 key

        vc.reconfigure()
        vc.reset_cache_counters()
        assert vc.lookup_tuning(ts, STAGES, 100_000) is None
        assert vc.cache_counters()["disk-reject"] == 1
        again = run_tuning_stages(ts, STAGES, 100_000)
        assert (again.iterations, again.detail) == (0, fresh.detail)

    @pytest.mark.parametrize(
        "damage",
        [
            "not json at all",
            json.dumps({"schema": "repro-verdict-cache/999"}),
            json.dumps(["wrong", "shape"]),
        ],
    )
    def test_corruption_is_a_miss_and_discarded(
        self, cache_on, monkeypatch, tmp_path, damage
    ):
        monkeypatch.setenv("REPRO_VERDICT_CACHE_DIR", str(tmp_path))
        vc.reconfigure()
        ts = TaskSet(make_tasks())
        run_tuning_stages(ts, STAGES, 100_000)
        blob = next((tmp_path / "objects").iterdir())
        blob.write_text(damage)

        vc.reconfigure()  # drop the LRU so the read must go to disk
        vc.reset_cache_counters()
        assert vc.lookup_tuning(ts, STAGES, 100_000) is None
        counters = vc.cache_counters()
        assert counters["disk-reject"] == 1
        assert counters["miss"] == 1
        assert not blob.exists(), "damaged payload must be quarantined"
