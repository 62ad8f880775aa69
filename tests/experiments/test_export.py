"""Unit tests for figure-result persistence."""

import pytest

from repro.experiments import run_figure
from repro.experiments.export import (
    figure_result_from_dict,
    figure_result_to_dict,
    load_figure_result,
    save_figure_result,
)
from repro.experiments.report import render_figure


@pytest.fixture(scope="module")
def result():
    return run_figure("fig6a", samples=2, ph_values=(0.5,), m_values=(2,))


class TestRoundTrip:
    def test_dict_roundtrip_preserves_everything(self, result):
        again = figure_result_from_dict(figure_result_to_dict(result))
        assert again.figure == result.figure
        assert set(again.sweeps) == set(result.sweeps)
        for key in result.sweeps:
            assert again.sweeps[key].buckets == result.sweeps[key].buckets
            assert again.sweeps[key].ratios == result.sweeps[key].ratios
            assert (
                again.sweeps[key].config.p_high
                == result.sweeps[key].config.p_high
            )
        assert again.war == result.war

    def test_file_roundtrip(self, result, tmp_path):
        path = tmp_path / "fig.json"
        save_figure_result(result, path)
        again = load_figure_result(path)
        assert again.war == result.war

    def test_rerender_after_load(self, result, tmp_path):
        path = tmp_path / "fig.json"
        save_figure_result(result, path)
        text = render_figure(load_figure_result(path))
        assert result.figure in text

    def test_version_guard(self, result):
        data = figure_result_to_dict(result)
        data["format_version"] = 99
        with pytest.raises(ValueError, match="format"):
            figure_result_from_dict(data)
