"""Unit tests for the acceptance-ratio sweep harness."""

import pytest

from repro.experiments import AcceptanceSweep, SweepConfig, get_algorithm
from repro.generator import UtilizationGrid


def small_grid() -> UtilizationGrid:
    return UtilizationGrid(u_hh_values=(0.3, 0.6), inner_step=0.3)


def run_small(label="t", samples=5, **kwargs):
    config = SweepConfig(
        label=label, m=2, samples_per_bucket=samples, **kwargs
    )
    algos = [get_algorithm("cu-udp-edf-vd"), get_algorithm("ca-nosort-f-f-edf-vd")]
    return AcceptanceSweep(config, grid=small_grid()).run(algos)


class TestSweep:
    def test_ratios_in_unit_interval(self):
        result = run_small()
        for ratios in result.ratios.values():
            assert all(0.0 <= r <= 1.0 for r in ratios)
            assert len(ratios) == len(result.buckets)

    def test_buckets_ascending(self):
        result = run_small()
        assert result.buckets == sorted(result.buckets)

    def test_deterministic(self):
        a = run_small(label="same")
        b = run_small(label="same")
        assert a.ratios == b.ratios
        assert a.buckets == b.buckets

    def test_label_changes_generated_sets(self):
        """Different labels must draw different task-set samples."""
        grid = small_grid()
        buckets = grid.buckets(0.05)
        key, points = next(iter(buckets.items()))
        config_a = SweepConfig(label="one", m=2, samples_per_bucket=4)
        config_b = SweepConfig(label="two", m=2, samples_per_bucket=4)
        sets_a = AcceptanceSweep(config_a, grid).tasksets_for_bucket(key, points)
        sets_b = AcceptanceSweep(config_b, grid).tasksets_for_bucket(key, points)
        fingerprint_a = [[t.period for t in ts] for ts in sets_a]
        fingerprint_b = [[t.period for t in ts] for ts in sets_b]
        assert fingerprint_a != fingerprint_b

    def test_ub_window_filters_buckets(self):
        full = run_small()
        windowed = run_small(ub_min=0.5)
        assert min(windowed.buckets) >= 0.5
        assert len(windowed.buckets) < len(full.buckets)

    def test_max_improvement_sign_convention(self):
        result = run_small(samples=8)
        gain = result.max_improvement("cu-udp-edf-vd", "ca-nosort-f-f-edf-vd")
        loss = result.max_improvement("ca-nosort-f-f-edf-vd", "cu-udp-edf-vd")
        assert gain >= 0.0 or loss >= 0.0  # at least one direction non-negative

    def test_unknown_algorithm_error_lists_known_ones(self):
        result = run_small()
        with pytest.raises(KeyError, match="unknown algorithm 'nope'") as exc:
            result.ratio_curve("nope")
        assert "cu-udp-edf-vd" in str(exc.value)
        with pytest.raises(KeyError, match="this sweep ran"):
            result.max_improvement("cu-udp-edf-vd", "also-nope")

    def test_ratio_curve_pairs(self):
        result = run_small()
        curve = result.ratio_curve("cu-udp-edf-vd")
        assert [ub for ub, _ in curve] == result.buckets


class TestMergeOutcomes:
    def test_shard_order_is_irrelevant(self):
        from repro.experiments import BucketOutcome, merge_outcomes

        config = SweepConfig(label="merge", m=2, samples_per_bucket=1)
        outcomes = [
            BucketOutcome(bucket=0.6, samples=3, ratios={"a": 0.5}),
            BucketOutcome(bucket=0.2, samples=3, ratios={"a": 1.0}),
            BucketOutcome(bucket=0.4, samples=0, ratios={}),  # infeasible
        ]
        merged = merge_outcomes(config, ["a"], outcomes)
        reversed_merge = merge_outcomes(config, ["a"], outcomes[::-1])
        assert merged == reversed_merge
        assert merged.buckets == [0.2, 0.6]  # empty bucket dropped, sorted
        assert merged.ratios == {"a": [1.0, 0.5]}


class TestTasksetProvisioning:
    def test_same_sets_for_all_algorithms(self):
        """The sweep generates one sample per (bucket, replicate) shared by
        all algorithms — guaranteed by generation happening before the
        algorithm loop; here we pin the deterministic regeneration."""
        config = SweepConfig(label="share", m=2, samples_per_bucket=3)
        sweep = AcceptanceSweep(config, grid=small_grid())
        buckets = small_grid().buckets(config.bucket_width)
        key, points = next(iter(buckets.items()))
        first = sweep.tasksets_for_bucket(key, points)
        second = sweep.tasksets_for_bucket(key, points)
        assert [len(ts) for ts in first] == [len(ts) for ts in second]
        assert [[t.period for t in ts] for ts in first] == [
            [t.period for t in ts] for ts in second
        ]


class TestSweepSetupValidation:
    """Unsupported (algorithm, deadline type) pairings fail at setup."""

    def test_run_bucket_rejects_edfvd_on_constrained(self):
        from repro.experiments.acceptance import validate_algorithms

        config = SweepConfig(label="t", m=2, deadline_type="constrained")
        with pytest.raises(ValueError, match="cu-udp-edf-vd"):
            validate_algorithms(config, [get_algorithm("cu-udp-edf-vd")])

    def test_serial_run_rejects_up_front(self):
        config = SweepConfig(
            label="t", m=2, deadline_type="constrained", samples_per_bucket=2
        )
        sweep = AcceptanceSweep(config, grid=small_grid())
        with pytest.raises(ValueError, match="deadline_type"):
            sweep.run([get_algorithm("cu-udp-edf-vd")])

    def test_decompose_sweep_rejects_up_front(self):
        from repro.runner.units import decompose_sweep

        config = SweepConfig(label="t", m=2, deadline_type="constrained")
        with pytest.raises(ValueError, match="cu-udp-edf-vd"):
            decompose_sweep(config, ["cu-udp-edf-vd"])

    def test_duplicate_names_rejected(self):
        """Results are keyed by algorithm name: a repeated name used to
        collapse into one series without a word."""
        from repro.runner import run_sweep

        config = SweepConfig(label="t", m=2, samples_per_bucket=1)
        with pytest.raises(ValueError, match="more than once"):
            run_sweep(config, ["cu-udp-edf-vd"] * 2)

    def test_supported_pairings_pass(self):
        from repro.experiments.acceptance import validate_algorithms

        config = SweepConfig(label="t", m=2, deadline_type="constrained")
        validate_algorithms(config, [get_algorithm("cu-udp-ecdf")])
        config = SweepConfig(label="t", m=2, deadline_type="implicit")
        validate_algorithms(config, [get_algorithm("cu-udp-edf-vd")])


class TestStrictSeriesAlignment:
    """Mismatched merged series must fail loudly, not truncate silently."""

    def _mismatched_result(self):
        from repro.experiments.acceptance import SweepResult

        config = SweepConfig(label="t", m=2)
        return SweepResult(
            config=config,
            buckets=[0.5, 0.6, 0.7],
            samples=[5, 5, 5],
            ratios={"good": [1.0, 0.8, 0.6], "stale": [1.0, 0.9]},
        )

    def test_ratio_curve_raises_on_length_mismatch(self):
        result = self._mismatched_result()
        with pytest.raises(ValueError, match="stale"):
            result.ratio_curve("stale")

    def test_ratio_curve_ok_when_aligned(self):
        result = self._mismatched_result()
        assert result.ratio_curve("good") == [(0.5, 1.0), (0.6, 0.8), (0.7, 0.6)]

    def test_max_improvement_raises_on_length_mismatch(self):
        result = self._mismatched_result()
        with pytest.raises(ValueError, match="disagree in length"):
            result.max_improvement("good", "stale")
        with pytest.raises(ValueError, match="disagree in length"):
            result.max_improvement("stale", "good")

    def test_max_improvement_ok_when_aligned(self):
        from repro.experiments.acceptance import SweepResult

        config = SweepConfig(label="t", m=2)
        result = SweepResult(
            config=config,
            buckets=[0.5, 0.6],
            samples=[5, 5],
            ratios={"a": [1.0, 0.8], "b": [0.9, 0.5]},
        )
        assert result.max_improvement("a", "b") == pytest.approx(30.0)


class TestKernelSummary:
    """kernel_summary folds the registry's ``kernel.<algorithm>.*``
    counters into the report shape the pipeline diagnostics print."""

    @pytest.fixture
    def registry(self, monkeypatch):
        from repro import obs
        from repro.obs.registry import MetricsRegistry

        fresh = MetricsRegistry()
        monkeypatch.setattr(obs, "REGISTRY", fresh)
        return fresh

    def test_qpa_totals_collapse_to_iteration_mean(self, registry):
        from repro.experiments.acceptance import kernel_summary

        registry.add_counters(
            {
                "kernel.EY.qpa-accept": 7,
                "kernel.EY.approx-accept": 3,
                "kernel.EY.qpa-runs": 4,
                "kernel.EY.qpa-iterations": 10,
            }
        )
        assert kernel_summary() == {
            "EY": {"qpa-accept": 7, "approx-accept": 3, "qpa-iter-mean": 2.5}
        }

    def test_no_runs_means_no_iteration_mean(self, registry):
        from repro.experiments.acceptance import kernel_summary

        registry.add("kernel.ECDF.approx-accept", 2)
        assert kernel_summary() == {"ECDF": {"approx-accept": 2}}

    def test_block_scope_reports_raw_counters(self, registry):
        from repro.experiments.acceptance import kernel_summary

        scope = registry.counter_scope(
            "kernel.block", ("block-jumps", "block-settled")
        )
        scope["block-jumps"] += 2
        scope["block-settled"] += 5
        assert kernel_summary() == {
            "block": {"block-jumps": 2, "block-settled": 5}
        }

    def test_since_baseline_subtracts_and_drops_zero_deltas(self, registry):
        from repro.experiments.acceptance import kernel_summary

        registry.add_counters(
            {"kernel.EY.qpa-accept": 4, "kernel.ECDF.qpa-accept": 1}
        )
        baseline = registry.counters("kernel.")
        registry.add("kernel.EY.qpa-accept", 3)
        assert kernel_summary(since=baseline) == {"EY": {"qpa-accept": 3}}

    def test_floor_rejects_reach_the_summary(self, registry):
        """A batched sweep folds the ``dbf`` scope's floor-reject deltas
        into ``kernel.<algorithm>.<counter>``, reported raw: EY's
        unrefined ``floor-reject`` and ECDF's ``floor-reject-refined``."""
        from repro.experiments.acceptance import kernel_summary

        config = SweepConfig(label="floor", m=2, samples_per_bucket=4)
        grid = UtilizationGrid(u_hh_values=(0.6,), inner_step=0.3)
        AcceptanceSweep(config, grid=grid).run(
            [get_algorithm("ca-f-f-ey"), get_algorithm("cu-udp-ecdf")]
        )
        counters = registry.counters("kernel.")
        summary = kernel_summary()
        for algorithm, counter in (
            ("ca-f-f-ey", "floor-reject"),
            ("cu-udp-ecdf", "floor-reject-refined"),
        ):
            assert counters[f"kernel.{algorithm}.{counter}"] > 0
            assert summary[algorithm][counter] > 0
        assert "floor-reject-refined" not in summary["ca-f-f-ey"]

    def test_descent_counters_join_the_row(self, registry):
        """The cached-trajectory counters land in the ``descent`` row,
        baselined by ``since`` like the kernel counters."""
        from repro.experiments.acceptance import kernel_summary

        registry.add_counters(
            {
                "descent.trajectories": 3,
                "descent.replayed": 40,
                "descent.lo-checks": 7,
            }
        )
        baseline = registry.counters()
        registry.add("descent.trajectory-reuse", 2)
        registry.add("descent.replayed", 5)
        assert kernel_summary() == {
            "descent": {
                "trajectories": 3,
                "trajectory-reuse": 2,
                "replayed": 45,
                "lo-checks": 7,
            }
        }
        assert kernel_summary(since=baseline) == {
            "descent": {"trajectory-reuse": 2, "replayed": 5}
        }

    def test_descent_histogram_adds_a_row(self, registry):
        from repro.experiments.acceptance import kernel_summary

        assert "descent" not in kernel_summary()
        for iterations in (1, 2, 2, 8):
            registry.observe("descent.iterations", iterations)
        row = kernel_summary()["descent"]
        assert row["iters-count"] == 4
        assert set(row) == {"iters-count", "iters-p50", "iters-p95", "iters-p99"}
        assert row["iters-p50"] <= row["iters-p95"] <= row["iters-p99"]
