"""The degradation sweep figures (fig7a/fig7b) and service-aware sweeps."""

from __future__ import annotations

import pytest

from repro.experiments import PAPER_FIGURES, figure_plan, run_figure
from repro.experiments.acceptance import (
    AcceptanceSweep,
    SweepConfig,
    validate_algorithms,
)
from repro.experiments.algorithms import get_algorithm
from repro.experiments.export import (
    figure_result_from_dict,
    figure_result_to_dict,
    sweep_config_to_dict,
)
from repro.experiments.report import render_figure
from repro.runner import CampaignSpec, FigureJob, run_campaign
from repro.degradation import ImpreciseBudget


class TestPlans:
    def test_fig7a_plan_shape(self):
        plan = figure_plan(
            "fig7a", samples=2, deg_values=(0.0, 0.5), m_values=(2,)
        )
        assert [job.key for job in plan] == [
            "m=2,imprecise=0.0",
            "m=2,imprecise=0.5",
        ]
        assert [job.config.service for job in plan] == [
            "imprecise:0.0",
            "imprecise:0.5",
        ]
        assert all(job.war_key == (2, v) for job, v in zip(plan, (0.0, 0.5)))
        assert all(job.config.deadline_type == "implicit" for job in plan)

    def test_fig7b_plan_uses_elastic(self):
        plan = figure_plan("fig7b", samples=2, deg_values=(2.0,), m_values=(2,))
        assert plan[0].config.service == "elastic:2.0"

    def test_paper_figures_excludes_extension(self):
        assert "fig7a" not in PAPER_FIGURES
        assert "fig7b" not in PAPER_FIGURES
        spec = CampaignSpec.paper_evaluation(samples=1)
        assert {job.figure for job in spec.figures} == set(PAPER_FIGURES)

    def test_degradation_extension_campaign(self):
        spec = CampaignSpec.degradation_extension(samples=1)
        assert {job.figure for job in spec.figures} == {"fig7a", "fig7b"}

    def test_figure_job_deg_values_validation(self):
        FigureJob("fig7a", deg_values=(0.5,))
        with pytest.raises(ValueError, match="fig3 does not sweep degradation"):
            FigureJob("fig3", deg_values=(0.5,))


class TestServiceAwareSweeps:
    def test_sweep_attaches_service_model(self):
        config = SweepConfig(
            label="svc", m=2, samples_per_bucket=2, service="imprecise:0.5"
        )
        sweep = AcceptanceSweep(config)
        buckets = sweep.bucket_points()
        bucket, points = next(iter(buckets.items()))
        for taskset in sweep.tasksets_for_bucket(bucket, points):
            assert taskset.service_model == ImpreciseBudget(0.5)

    def test_same_tasksets_across_service_levels(self):
        """Generation ignores the service model, so sweeps differing only
        in ``service`` evaluate the identical task-set sample."""
        kwargs = dict(label="svc", m=2, samples_per_bucket=3)
        drop = AcceptanceSweep(SweepConfig(**kwargs))
        deg = AcceptanceSweep(
            SweepConfig(**kwargs, service="imprecise:0.5")
        )
        bucket, points = next(iter(drop.bucket_points().items()))
        a = drop.tasksets_for_bucket(bucket, points)
        b = deg.tasksets_for_bucket(bucket, points)
        assert len(a) == len(b)

        def shape(taskset):
            # task_ids (and the names derived from them) come from a global
            # counter, so compare the structural parameters only
            return [
                (t.period, t.criticality, t.wcet_lo, t.wcet_hi, t.deadline)
                for t in taskset
            ]

        for ts_drop, ts_deg in zip(a, b):
            assert shape(ts_drop) == shape(ts_deg)
            assert ts_drop.service_model is None
            assert ts_deg.service_model == ImpreciseBudget(0.5)

    def test_validate_algorithms_rejects_amc_on_degraded_sweep(self):
        config = SweepConfig(label="bad", m=2, service="imprecise:0.5")
        with pytest.raises(ValueError, match="service"):
            validate_algorithms(config, [get_algorithm("cu-udp-amc")])
        # drop-at-switch sweeps keep working with AMC
        validate_algorithms(
            SweepConfig(label="ok", m=2), [get_algorithm("cu-udp-amc")]
        )

    def test_config_serialization_omits_default_service(self):
        assert "service" not in sweep_config_to_dict(
            SweepConfig(label="x", m=2)
        )
        data = sweep_config_to_dict(
            SweepConfig(label="x", m=2, service="elastic:2.0")
        )
        assert data["service"] == "elastic:2.0"


class TestEndToEnd:
    def test_fig7a_runs_and_renders(self):
        result = run_figure(
            "fig7a", samples=2, m_values=(2,), deg_values=(0.0, 1.0)
        )
        assert set(result.sweeps) == {
            "m=2,imprecise=0.0",
            "m=2,imprecise=1.0",
        }
        assert set(result.war) == {(2, 0.0), (2, 1.0)}
        # more LC service can never improve schedulability
        for name in result.war[(2, 0.0)]:
            assert result.war[(2, 0.0)][name] >= result.war[(2, 1.0)][name]
        rendered = render_figure(result)
        assert "WAR vs rho" in rendered
        # round-trips through the JSON exporter
        again = figure_result_from_dict(figure_result_to_dict(result))
        assert again.war == result.war
        assert {
            key: sweep.ratios for key, sweep in again.sweeps.items()
        } == {key: sweep.ratios for key, sweep in result.sweeps.items()}

    def test_fig7_campaign_resumes_from_cache(self, tmp_path):
        spec = CampaignSpec(
            name="deg-mini",
            figures=(
                FigureJob(
                    "fig7a", samples=2, m_values=(2,), deg_values=(0.5,)
                ),
            ),
        )
        first = run_campaign(spec, tmp_path / "out")
        assert first.shards_computed > 0
        second = run_campaign(spec, tmp_path / "out")
        assert second.shards_computed == 0
        assert second.shards_cached == first.shards_computed
