"""Batched sweep pipeline == scalar pipeline, shard for shard.

The headline guarantee of the columnar refactor: for every figure
configuration, the batched pipeline produces bit-identical sweep results
(ratios, WAR inputs, shard outcomes) and identical cache keys — the
pipeline is a throughput knob, never a semantics knob.
"""

from __future__ import annotations

import pytest

from repro.experiments.acceptance import (
    AcceptanceSweep,
    SweepConfig,
    settled_summary,
)
from repro.experiments.algorithms import get_algorithm
from repro.experiments.weighted import weighted_acceptance_ratio
from repro.runner import FsStore, decompose_sweep, run_sweep, run_unit

#: Mini versions of the paper's figure configurations (every test family,
#: both deadline types, a degraded-service fig7 slice).
FIGURE_SLICES = [
    ("fig3", "implicit", ("ca-udp-edf-vd", "cu-udp-edf-vd"), "full-drop"),
    ("fig4", "implicit", ("cu-udp-ecdf", "eca-wu-f-ey"), "full-drop"),
    ("fig5", "constrained", ("cu-udp-amc", "cu-udp-ecdf"), "full-drop"),
    ("fig7a", "implicit", ("cu-udp-res-edf-vd",), "imprecise:0.5"),
    ("fig7b", "implicit", ("cu-udp-res-ey",), "elastic:2.0"),
]


def config_for(label, deadline_type, service, samples=4):
    return SweepConfig(
        label=label,
        m=2,
        deadline_type=deadline_type,
        samples_per_bucket=samples,
        service=service,
    )


class TestPipelineEquivalence:
    @pytest.mark.parametrize(
        "label,deadline_type,algorithms,service", FIGURE_SLICES
    )
    def test_bucket_outcomes_bit_identical(
        self, label, deadline_type, algorithms, service
    ):
        config = config_for(label, deadline_type, service)
        algos = [get_algorithm(name) for name in algorithms]
        scalar = AcceptanceSweep(config, pipeline="scalar")
        batched = AcceptanceSweep(config, pipeline="batched")
        for bucket, points in scalar.bucket_points().items():
            a = scalar.run_bucket(bucket, points, algos)
            b = batched.run_bucket(bucket, points, algos)
            # Dataclass equality covers bucket, samples and exact ratios.
            assert a == b
            assert a.ratios == b.ratios
            if b.samples:
                assert b.accepted is not None
                for name in a.ratios:
                    assert b.accepted[name] == round(
                        b.ratios[name] * b.samples
                    )

    def test_sweep_results_and_war_bit_identical(self):
        config = config_for("fig4", "implicit", "full-drop", samples=3)
        names = ["cu-udp-ecdf", "ca-f-f-ey"]
        scalar = run_sweep(config, names, pipeline="scalar")
        batched = run_sweep(config, names, pipeline="batched")
        assert scalar.buckets == batched.buckets
        assert scalar.samples == batched.samples
        assert scalar.ratios == batched.ratios
        for name in names:
            assert weighted_acceptance_ratio(
                scalar.buckets, scalar.ratios[name]
            ) == weighted_acceptance_ratio(batched.buckets, batched.ratios[name])

    def test_unknown_pipeline_rejected(self):
        with pytest.raises(ValueError, match="unknown pipeline"):
            AcceptanceSweep(
                config_for("fig3", "implicit", "full-drop"), pipeline="turbo"
            )


class TestCacheInteraction:
    def test_cache_keys_ignore_pipeline(self, tmp_path):
        config = config_for("fig3", "implicit", "full-drop")
        names = ("cu-udp-edf-vd",)
        cache = FsStore(tmp_path)
        scalar_units = decompose_sweep(config, names, pipeline="scalar")
        batched_units = decompose_sweep(config, names, pipeline="batched")
        for a, b in zip(scalar_units, batched_units):
            assert cache.key(a) == cache.key(b)

    def test_shards_interchangeable_between_pipelines(self, tmp_path):
        config = config_for("fig3", "implicit", "full-drop")
        names = ("cu-udp-edf-vd",)
        cache = FsStore(tmp_path)
        unit_b = decompose_sweep(config, names, pipeline="batched")[3]
        outcome = run_unit(unit_b)
        cache.store(unit_b, outcome)
        unit_s = decompose_sweep(config, names, pipeline="scalar")[3]
        loaded = cache.load(unit_s)
        assert loaded == outcome
        assert loaded.accepted == outcome.accepted  # counts survive the cache

    def test_settled_summary_aggregates(self):
        config = config_for("fig3", "implicit", "full-drop")
        sweep = AcceptanceSweep(config, pipeline="batched")
        algos = [get_algorithm("cu-udp-edf-vd")]
        outcomes = [
            sweep.run_bucket(bucket, points, algos)
            for bucket, points in sweep.bucket_points().items()
        ]
        summary = settled_summary(outcomes)
        assert "cu-udp-edf-vd" in summary
        total = sum(summary["cu-udp-edf-vd"].values())
        assert total == sum(o.samples for o in outcomes)
