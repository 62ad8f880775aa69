"""Unit tests for experiment report rendering."""

import pytest

from repro.experiments import (
    get_algorithm,
    improvement_summary,
    render_sweep,
    render_war,
    run_figure,
    sweep_to_csv,
)
from repro.experiments.acceptance import AcceptanceSweep, SweepConfig
from repro.experiments.report import render_figure
from repro.generator import UtilizationGrid


@pytest.fixture(scope="module")
def small_sweep():
    config = SweepConfig(label="report", m=2, samples_per_bucket=3)
    grid = UtilizationGrid(u_hh_values=(0.4, 0.8), inner_step=0.4)
    algos = [get_algorithm("cu-udp-edf-vd"), get_algorithm("ca-nosort-f-f-edf-vd")]
    return AcceptanceSweep(config, grid=grid).run(algos)


class TestRenderSweep:
    def test_contains_headers_and_buckets(self, small_sweep):
        text = render_sweep(small_sweep)
        assert "UB" in text and "cu-udp-edf-vd" in text
        for bucket in small_sweep.buckets:
            assert f"{bucket:.2f}" in text

    def test_custom_title(self, small_sweep):
        assert render_sweep(small_sweep, title="XYZ").startswith("XYZ")


class TestImprovementSummary:
    def test_lists_pairs(self, small_sweep):
        text = improvement_summary(
            small_sweep, ["cu-udp-edf-vd"], ["ca-nosort-f-f-edf-vd"]
        )
        assert "cu-udp-edf-vd" in text
        assert "max gain" in text

    def test_skips_self_comparison(self, small_sweep):
        text = improvement_summary(
            small_sweep, ["cu-udp-edf-vd"], ["cu-udp-edf-vd"]
        )
        assert text.count("cu-udp-edf-vd") <= 1  # header row only


class TestCsv:
    def test_parsable(self, small_sweep):
        csv = sweep_to_csv(small_sweep)
        lines = csv.strip().splitlines()
        assert lines[0].startswith("ub,sets,")
        assert len(lines) == 1 + len(small_sweep.buckets)
        first = lines[1].split(",")
        assert float(first[0]) == small_sweep.buckets[0]


class TestRenderWar:
    def test_war_table(self):
        result = run_figure("fig6a", samples=1, ph_values=(0.5,), m_values=(2,))
        text = render_war(result)
        assert "PH" in text and "WAR" in text

    def test_render_figure_combines(self):
        result = run_figure("fig6a", samples=1, ph_values=(0.5,), m_values=(2,))
        text = render_figure(result)
        assert "fig6a" in text

    def test_war_without_data_rejected(self, small_sweep):
        from repro.experiments.figures import FigureResult

        empty = FigureResult("figX")
        with pytest.raises(ValueError, match="no WAR"):
            render_war(empty)
