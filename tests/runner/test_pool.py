"""Serial/parallel/cached equivalence of the shard runner.

The acceptance bar for the whole subsystem: ``run_figure("fig3",
samples=20)`` through the runner with ``jobs=2`` must be
**byte-identical** to the serial path, and cached reruns must change
nothing.
"""

import json

import pytest

from repro.experiments.acceptance import AcceptanceSweep, SweepConfig
from repro.experiments.algorithms import get_algorithm
from repro.experiments.export import figure_result_to_dict
from repro.experiments.figures import run_figure
from repro.runner import (
    CampaignSpec,
    FigureJob,
    FsStore,
    ProgressReporter,
    decompose_sweep,
    run_campaign,
    run_sweep,
)

CONFIG = SweepConfig(label="pool-test", m=2, samples_per_bucket=3)
ALGOS = ("cu-udp-edf-vd", "ca-nosort-f-f-edf-vd")


def _dump(result) -> str:
    return json.dumps(figure_result_to_dict(result), sort_keys=True)


class TestRunSweep:
    def test_serial_matches_acceptance_sweep(self):
        legacy = AcceptanceSweep(CONFIG).run([get_algorithm(n) for n in ALGOS])
        assert run_sweep(CONFIG, ALGOS) == legacy

    def test_parallel_matches_serial(self):
        serial = run_sweep(CONFIG, ALGOS, jobs=1)
        parallel = run_sweep(CONFIG, ALGOS, jobs=2)
        assert parallel == serial

    def test_cache_roundtrip_matches_fresh_run(self, tmp_path):
        cache = FsStore(tmp_path)
        fresh = run_sweep(CONFIG, ALGOS, cache=cache)
        assert cache.hits == 0 and cache.stored > 0
        cached = run_sweep(CONFIG, ALGOS, cache=cache)
        assert cache.hits == cache.stored
        assert cached == fresh

    def test_pipeline_keyword_removed(self, tmp_path):
        """Sweeps run the batched path; the scalar reference is reached
        only through ``WorkUnit``/``AcceptanceSweep``, not a keyword."""
        with pytest.raises(TypeError):
            run_sweep(CONFIG, ALGOS, pipeline="scalar")
        with pytest.raises(TypeError):
            decompose_sweep(CONFIG, ALGOS, pipeline="scalar")
        with pytest.raises(TypeError):
            run_figure("fig3", samples=1, m_values=(2,), pipeline="scalar")
        spec = CampaignSpec("tiny", (FigureJob("fig3", samples=1, m_values=(2,)),))
        with pytest.raises(TypeError):
            run_campaign(spec, tmp_path, pipeline="scalar")
        assert not list(tmp_path.iterdir())

    def test_progress_sees_every_shard(self, tmp_path):
        import io

        cache = FsStore(tmp_path)
        progress = ProgressReporter(stream=io.StringIO(), clock=lambda: 0.0)
        run_sweep(CONFIG, ALGOS, cache=cache, progress=progress)
        assert progress.completed == progress.total > 0
        assert progress.cached == 0
        rerun = ProgressReporter(stream=io.StringIO(), clock=lambda: 0.0)
        run_sweep(CONFIG, ALGOS, cache=cache, progress=rerun)
        assert rerun.cached == rerun.total == progress.total


class TestFig3Equivalence:
    """fig3 at samples=20 through jobs=2 and a cache is byte-identical."""

    @pytest.fixture(scope="class")
    def serial_bytes(self):
        return json.dumps(figure_result_to_dict(run_figure("fig3", samples=20)))

    def test_parallel_fig3_byte_identical(self, serial_bytes):
        parallel = json.dumps(figure_result_to_dict(run_figure("fig3", samples=20, jobs=2)))
        assert parallel == serial_bytes

    def test_cached_fig3_byte_identical(self, serial_bytes, tmp_path):
        cache = FsStore(tmp_path)
        first = json.dumps(
            figure_result_to_dict(run_figure("fig3", samples=20, jobs=2, cache=cache))
        )
        assert first == serial_bytes
        assert cache.stored > 0
        # a rerun is answered entirely from cache, still byte-identical
        stored_before = cache.stored
        second = json.dumps(
            figure_result_to_dict(run_figure("fig3", samples=20, cache=cache))
        )
        assert second == serial_bytes
        assert cache.stored == stored_before
