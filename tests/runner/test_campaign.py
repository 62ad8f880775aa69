"""Campaign specs, execution, resumability and the manifest."""

import io
import json

import pytest

from repro.experiments.export import load_figure_result
from repro.runner import (
    CampaignSpec,
    FigureJob,
    ProgressReporter,
    run_campaign,
)


def small_spec():
    return CampaignSpec(
        name="tiny",
        figures=(
            FigureJob("fig3", samples=2, m_values=(2,)),
            FigureJob("fig6a", samples=2, m_values=(2,), ph_values=(0.5,)),
        ),
    )


class TestSpec:
    def test_dict_roundtrip(self):
        spec = small_spec()
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_json_file_roundtrip(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert CampaignSpec.from_json_file(path) == spec

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError, match="unknown figure 'fig9'; known: fig3"):
            FigureJob("fig9")

    def test_ph_values_only_for_fig6(self):
        with pytest.raises(ValueError, match="fig3 does not sweep PH values"):
            FigureJob("fig3", ph_values=(0.5,))

    @pytest.mark.parametrize(
        "figure,axis", [("fig6a", "degradation"), ("fig7b", "PH")]
    )
    def test_unsupported_override_named(self, figure, axis):
        """The figure's plan is the validator; with both overrides set, the
        error names the one the figure does not sweep."""
        with pytest.raises(ValueError, match=f"{figure} does not sweep {axis}"):
            FigureJob(figure, ph_values=(0.5,), deg_values=(1.0,))

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="duplicate output keys"):
            CampaignSpec(
                name="dup",
                figures=(FigureJob("fig3"), FigureJob("fig3", samples=5)),
            )

    def test_distinct_keys_allow_same_figure_twice(self):
        spec = CampaignSpec(
            name="ok",
            figures=(
                FigureJob("fig3", key="fig3-small", samples=1),
                FigureJob("fig3", key="fig3-large", samples=2),
            ),
        )
        assert [job.key for job in spec.figures] == ["fig3-small", "fig3-large"]

    def test_empty_campaign_rejected(self):
        with pytest.raises(ValueError, match="at least one figure"):
            CampaignSpec(name="empty", figures=())

    def test_paper_evaluation_covers_every_figure(self):
        spec = CampaignSpec.paper_evaluation(samples=1)
        assert {job.figure for job in spec.figures} == {
            "fig3", "fig4", "fig5", "fig6a", "fig6b",
        }


class TestRunCampaign:
    def test_writes_results_and_manifest(self, tmp_path):
        spec = small_spec()
        report = run_campaign(spec, tmp_path / "out")
        assert set(report.outputs) == {"fig3", "fig6a"}
        for key, path in report.outputs.items():
            result = load_figure_result(path)
            assert result.figure == key
        manifest = json.loads((tmp_path / "out" / "campaign.json").read_text())
        assert manifest["spec"]["name"] == "tiny"
        assert manifest["shards_computed"] == report.shards_computed > 0

    def test_second_invocation_recomputes_nothing(self, tmp_path):
        """ISSUE acceptance criterion: rerun completes with zero recompute."""
        spec = small_spec()
        out = tmp_path / "out"
        first = run_campaign(spec, out, jobs=2)
        assert first.shards_computed > 0 and first.shards_cached == 0
        second = run_campaign(spec, out)
        assert second.shards_computed == 0
        assert second.shards_cached == first.shards_computed
        # and the figure JSON on disk is byte-for-byte unchanged
        for key in first.outputs:
            assert first.outputs[key].read_bytes() == second.outputs[key].read_bytes()

    def test_explicit_cache_dir_shared_across_out_dirs(self, tmp_path):
        spec = small_spec()
        cache_dir = tmp_path / "shared-cache"
        first = run_campaign(spec, tmp_path / "a", cache_dir=cache_dir)
        second = run_campaign(spec, tmp_path / "b", cache_dir=cache_dir)
        assert second.shards_computed == 0
        assert second.shards_cached == first.shards_computed

    def test_progress_is_driven_and_finished(self, tmp_path):
        stream = io.StringIO()
        progress = ProgressReporter(stream=stream, clock=lambda: 0.0)
        run_campaign(small_spec(), tmp_path / "out", progress=progress)
        assert progress.completed == progress.total > 0
        assert stream.getvalue().endswith("\n")
