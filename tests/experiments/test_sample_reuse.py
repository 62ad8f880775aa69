"""Service-independent task-set samples are generated once per process.

Sweeps that differ only in ``service`` judge the same task sets (see
:func:`repro.experiments.acceptance.sample_key`).  A degraded-service sweep
retains the sample it generates, a sibling sweep gets a batch over the very
same read-only arrays, and cluster workers ship what they retained back to
the parent, whose next sweep's workers inherit it.  None of this may change
a single column or verdict.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.experiments.acceptance import (
    AcceptanceSweep,
    SweepConfig,
    clear_samples,
    sample_key,
    take_new_samples,
)
from repro.experiments.figures import FIG7_RHO_VALUES, figure_plan
from repro.generator import MCTaskSetGenerator
from repro.runner import decompose_sweep, run_sweep

SERVICES = ("full-drop", "imprecise:0.5", "elastic:2.0")
DEGRADED = SweepConfig(
    label="reuse", m=2, samples_per_bucket=3, service="imprecise:0.5"
)


def some_bucket(config=DEGRADED):
    """A mid-grid bucket with several points (so a points change exists)."""
    items = list(AcceptanceSweep(config).bucket_points().items())
    return next(
        (bucket, points)
        for bucket, points in items[len(items) // 2 :]
        if len(points) >= 2
    )


def sample(config, bucket, points):
    return AcceptanceSweep(config).batch_for_bucket(bucket, points)


@pytest.fixture
def generations(monkeypatch):
    """Counts calls of ``draw``, the first generation phase (one per task
    set generated, its attempts at other grid points included)."""
    calls = []
    original = MCTaskSetGenerator.draw

    def counting(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(MCTaskSetGenerator, "draw", counting)
    return calls


@pytest.fixture
def metrics():
    obs.clear()
    previous = obs.set_recorder(obs.MetricsRecorder(obs.REGISTRY))
    try:
        yield obs.REGISTRY
    finally:
        obs.set_recorder(previous)
        obs.clear()


class TestSampleStore:
    @pytest.mark.parametrize("service", SERVICES)
    def test_hit_equals_fresh_generation(self, service, generations):
        bucket, points = some_bucket()
        # full-drop retains nothing, so this is a plain generation
        fresh = sample(
            dataclasses.replace(DEGRADED, service="full-drop"), bucket, points
        )
        first = sample(DEGRADED, bucket, points)
        generated = len(generations)
        hit = sample(dataclasses.replace(DEGRADED, service=service), bucket, points)
        assert len(generations) == generated, "a hit must not generate"
        assert len(fresh) > 0
        for got, want in zip(hit.arrays(), fresh.arrays(), strict=True):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        # the same stored arrays, behind a batch with caches of its own
        assert all(a is b for a, b in zip(hit.arrays(), first.arrays()))
        assert hit is not first and hit.replay_cache == {} and hit._sets == {}
        expected = AcceptanceSweep(
            dataclasses.replace(DEGRADED, service=service)
        )._service
        assert hit.service_model == (None if expected.is_full_drop else expected)

    def test_stored_arrays_are_read_only(self):
        bucket, points = some_bucket()
        batch = sample(DEGRADED, bucket, points)
        assert all(not array.flags.writeable for array in batch.arrays())
        with pytest.raises(ValueError):
            batch.period[0] = 1
        hit = sample(DEGRADED, bucket, points)
        assert all(not array.flags.writeable for array in hit.arrays())

    @pytest.mark.parametrize(
        "change",
        [
            {"label": "reuse-other"},
            {"m": 3},
            {"deadline_type": "constrained"},
            {"p_high": 0.3},
            {"samples_per_bucket": 2},
        ],
        ids=lambda change: next(iter(change)),
    )
    def test_any_identity_field_change_is_a_miss(self, change, generations):
        bucket, points = some_bucket()
        sample(DEGRADED, bucket, points)
        generated = len(generations)
        sample(dataclasses.replace(DEGRADED, **change), bucket, points)
        assert len(generations) > generated

    def test_bucket_or_points_change_is_a_miss(self, generations):
        bucket, points = some_bucket()
        sample(DEGRADED, bucket, points)
        for other_bucket, other_points in (
            (bucket + 0.05, points),
            (bucket, points[:-1]),
        ):
            generated = len(generations)
            sample(DEGRADED, other_bucket, other_points)
            assert len(generations) > generated
        assert sample_key(DEGRADED, bucket, points) == sample_key(
            dataclasses.replace(DEGRADED, service="elastic:4.0"), bucket, points
        )

    def test_full_drop_sweep_retains_nothing(self, generations):
        bucket, points = some_bucket()
        full = dataclasses.replace(DEGRADED, service="full-drop")
        sample(full, bucket, points)
        generated = len(generations)
        sample(full, bucket, points)
        assert len(generations) == 2 * generated
        assert take_new_samples() == []

    def test_new_group_evicts_the_old_one(self, generations):
        bucket, points = some_bucket()
        other = dataclasses.replace(DEGRADED, label="reuse-b")
        sample(DEGRADED, bucket, points)
        sample(other, bucket, points)
        generated = len(generations)
        sample(other, bucket, points)
        assert len(generations) == generated, "the newest group is held"
        sample(DEGRADED, bucket, points)
        assert len(generations) > generated, "the older group was evicted"
        assert [key for key, _ in take_new_samples()] == [
            sample_key(DEGRADED, bucket, points)
        ]


def fig7a_plan():
    """fig7a's shape: m=2, every rho, a tiny sample."""
    plan = figure_plan("fig7a", 2, m_values=(2,))
    assert len(plan) == len(FIG7_RHO_VALUES)
    return plan


def run_plan(plan, backend, fresh=False):
    jobs = 2 if backend == "cluster" else 1
    results = []
    for job in plan:
        if fresh:
            clear_samples()
        results.append(
            run_sweep(job.config, job.algorithms, jobs=jobs, backend=backend)
        )
    return results


class TestSiblingSweeps:
    def test_outcomes_identical_serial_cluster_and_unshared(self):
        plan = fig7a_plan()
        unshared = run_plan(plan, "serial", fresh=True)
        clear_samples()
        serial = run_plan(plan, "serial")
        clear_samples()
        cluster = run_plan(plan, "cluster")
        assert serial == unshared
        assert cluster == unshared

    def test_each_sample_generated_once_in_process(self, generations):
        plan = fig7a_plan()
        run_plan(plan[:1], "serial")
        one_sweep = len(generations)
        clear_samples()
        generations.clear()
        run_plan(plan, "serial")
        assert one_sweep and len(generations) == one_sweep

    def test_each_sample_generated_once_across_cluster_sweeps(self, metrics):
        plan = fig7a_plan()
        buckets = len(decompose_sweep(plan[0].config, plan[0].algorithms))
        run_plan(plan, "cluster")
        counters = metrics.counters("generator.")
        assert counters["generator.samples"] == buckets
        assert counters["generator.reused"] == (len(plan) - 1) * buckets
