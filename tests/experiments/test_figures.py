"""Unit tests for the per-figure experiment runners (miniature scale)."""

import pytest

from repro.experiments import FIGURES, run_figure
from repro.experiments.figures import (
    FIG3_ALGORITHMS,
    FIG45_ALGORITHMS,
    FIG6B_ALGORITHMS,
    default_samples,
    figure_plan,
)


class TestFigureConfigs:
    def test_series_match_paper(self):
        assert FIG3_ALGORITHMS == (
            "ca-udp-edf-vd",
            "cu-udp-edf-vd",
            "ca-nosort-f-f-edf-vd",
        )
        assert set(FIG45_ALGORITHMS) == {
            "cu-udp-amc",
            "cu-udp-ecdf",
            "eca-wu-f-ey",
            "ca-f-f-ey",
        }
        assert "eca-wu-f-ey" in FIG6B_ALGORITHMS

    def test_all_figures_registered(self):
        assert set(FIGURES) == {
            "fig3", "fig4", "fig5", "fig6a", "fig6b", "fig7a", "fig7b",
        }

    def test_run_figure_unknown(self):
        with pytest.raises(KeyError, match="known"):
            run_figure("fig9")


class TestFigurePlan:
    def test_acceptance_plan_one_sweep_per_m(self):
        plan = figure_plan("fig3", samples=2, m_values=(2, 4))
        assert [job.key for job in plan] == ["m=2", "m=4"]
        assert all(job.algorithms == FIG3_ALGORITHMS for job in plan)
        assert all(job.war_key is None for job in plan)
        assert plan[0].config.samples_per_bucket == 2

    def test_war_plan_carries_war_keys(self):
        plan = figure_plan("fig6a", samples=1, ph_values=(0.3, 0.7), m_values=(2,))
        assert [job.war_key for job in plan] == [(2, 0.3), (2, 0.7)]
        assert all(job.config.p_high == job.war_key[1] for job in plan)

    def test_unknown_figure(self):
        with pytest.raises(KeyError, match="known"):
            figure_plan("fig7")

    def test_env_default_reaches_plan(self, monkeypatch):
        monkeypatch.setenv("REPRO_SAMPLES", "9")
        plan = figure_plan("fig4", m_values=(2,))
        assert plan[0].config.samples_per_bucket == 9


class TestDefaultSamples:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SAMPLES", "7")
        assert default_samples() == 7

    def test_fallback(self, monkeypatch):
        monkeypatch.delenv("REPRO_SAMPLES", raising=False)
        assert default_samples(33) == 33

    def test_invalid_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SAMPLES", "0")
        with pytest.raises(ValueError):
            default_samples()


class TestMiniatureRuns:
    def test_fig3_structure(self):
        result = run_figure("fig3", samples=2, m_values=(2,))
        assert result.figure == "fig3"
        sweep = result.sweeps["m=2"]
        assert set(sweep.ratios) == set(FIG3_ALGORITHMS)
        assert sweep.buckets  # non-empty

    def test_fig6a_war_table(self):
        result = run_figure(
            "fig6a", samples=2, ph_values=(0.5,), m_values=(2,)
        )
        assert (2, 0.5) in result.war
        table = result.war[(2, 0.5)]
        assert set(table) == set(FIG3_ALGORITHMS)
        assert all(0.0 <= v <= 1.0 for v in table.values())

    def test_run_figure_dispatch(self):
        result = run_figure("fig3", samples=1, m_values=(2,))
        assert result.figure == "fig3"
