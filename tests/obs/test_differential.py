"""Recording is observe-only: results and cache bytes are bit-identical.

The design rule every instrumentation site promises (see the
:mod:`repro.obs` docstring) is asserted here over real sweeps drawn from
every figure family — implicit (fig3/4/5), constrained PH sweeps (fig6)
and the degradation extension (fig7a/fig7b service models) — plus the
simulator: running with the trace recorder (the heaviest mode) yields the
same merged results, the same per-shard outcomes and byte-identical shard
cache files as running with recording off.
"""

import dataclasses

import pytest

from repro import obs
from repro.experiments.acceptance import SweepConfig, clear_samples
from repro.runner.store import FsStore
from repro.runner.pool import run_sweep
from repro.runner.units import decompose_sweep

#: one (config, algorithms) slice per figure family the repo reproduces;
#: algorithm picks respect each test's deadline-type/service support.
SLICES = [
    (
        SweepConfig(
            label="fig345-slice",
            m=2,
            deadline_type="implicit",
            samples_per_bucket=3,
            ub_min=0.5,
            ub_max=0.7,
        ),
        ("cu-udp-edf-vd", "eca-wu-f-ey", "cu-udp-ecdf"),
    ),
    (
        SweepConfig(
            label="fig6-slice",
            m=2,
            deadline_type="constrained",
            p_high=0.7,
            samples_per_bucket=3,
            ub_min=0.5,
            ub_max=0.6,
        ),
        ("cu-udp-ecdf", "eca-wu-f-ey"),
    ),
    (
        SweepConfig(
            label="fig7-slice",
            m=2,
            deadline_type="implicit",
            samples_per_bucket=3,
            ub_min=0.5,
            ub_max=0.6,
            service="imprecise:0.5",
        ),
        ("cu-udp-res-edf-vd", "cu-udp-res-ecdf"),
    ),
]


def run_with_mode(config, algorithms, recorder_factory, cache_dir=None):
    obs.clear()
    previous = obs.set_recorder(recorder_factory(obs.REGISTRY))
    try:
        cache = FsStore(cache_dir) if cache_dir else None
        diagnostics = []
        result = run_sweep(
            config, list(algorithms), jobs=1, cache=cache,
            diagnostics=diagnostics,
        )
        return result, diagnostics
    finally:
        obs.set_recorder(previous)
        obs.clear()


def cache_bytes(root):
    return {
        path.relative_to(root): path.read_bytes()
        for path in sorted(root.rglob("*.json"))
    }


@pytest.mark.parametrize(
    "config, algorithms", SLICES, ids=lambda value: getattr(value, "label", "")
)
def test_results_and_cache_identical_off_vs_trace(config, algorithms, tmp_path):
    off_dir = tmp_path / "off"
    trace_dir = tmp_path / "trace"
    result_off, shards_off = run_with_mode(
        config, algorithms, obs.NullRecorder, off_dir
    )
    result_trace, shards_trace = run_with_mode(
        config, algorithms, obs.TraceRecorder, trace_dir
    )
    assert result_off == result_trace
    assert shards_off == shards_trace  # ratios; diagnostics excluded from eq
    for a, b in zip(shards_off, shards_trace):
        assert a.accepted == b.accepted
        assert a.settled == b.settled
    off_bytes = cache_bytes(off_dir)
    trace_bytes = cache_bytes(trace_dir)
    assert off_bytes and off_bytes == trace_bytes


def serial_generator_counters(config, algorithms):
    """The ``generator.*`` counters of an in-process metrics run (its
    retained samples are dropped again)."""
    obs.clear()
    previous = obs.set_recorder(obs.MetricsRecorder(obs.REGISTRY))
    try:
        run_sweep(config, list(algorithms), jobs=1)
        return obs.REGISTRY.counters("generator.")
    finally:
        obs.set_recorder(previous)
        obs.clear()
        clear_samples()


def test_parallel_trace_identical_to_serial_off(tmp_path):
    config, algorithms = SLICES[0]
    result_off, _ = run_with_mode(config, algorithms, obs.NullRecorder)
    serial = serial_generator_counters(config, algorithms)
    degraded, names = SLICES[2]
    serial_degraded = serial_generator_counters(degraded, names)
    obs.clear()
    previous = obs.set_recorder(obs.TraceRecorder(obs.REGISTRY))
    try:
        result_trace = run_sweep(config, list(algorithms), jobs=2)
        assert result_trace == result_off
        assert obs.spans(), "tracing collected no spans"
        # Workers ship their generator counters like every other counter:
        # one generated sample per shard, none reused under full-drop, and
        # the same generator work counters as the in-process run.
        shards = len(decompose_sweep(config, list(algorithms)))
        assert serial["generator.samples"] == shards
        assert serial["generator.fold-attempts"] > 0
        assert obs.REGISTRY.counters("generator.") == serial
        # A sibling service level of a degraded sweep reuses every sample
        # its predecessor's workers shipped back to this process, and
        # reuse does no generator work.
        shards = len(decompose_sweep(degraded, list(names)))
        assert serial_degraded["generator.samples"] == shards
        for service, counters in (
            ("imprecise:0.5", serial_degraded),
            ("imprecise:0.75", {"generator.reused": shards}),
        ):
            obs.clear()
            config = dataclasses.replace(degraded, service=service)
            run_sweep(config, list(names), jobs=2)
            assert obs.REGISTRY.counters("generator.") == counters
    finally:
        obs.set_recorder(previous)
        obs.clear()


def test_simulation_identical_off_vs_metrics(simple_mixed_taskset):
    from repro.sim import UniprocessorSim
    from repro.sim.policies import EDFVDPolicy
    from repro.sim.scenario import FixedOverrunScenario

    def simulate():
        sim = UniprocessorSim(simple_mixed_taskset, EDFVDPolicy())
        result = sim.run(FixedOverrunScenario(), horizon=2000)
        return (
            result.misses,
            result.mode_switches,
            result.preemptions,
            result.jobs_released,
            result.jobs_completed,
        )

    baseline = simulate()
    obs.clear()
    previous = obs.set_recorder(obs.MetricsRecorder(obs.REGISTRY))
    try:
        assert simulate() == baseline
        counters = obs.REGISTRY.counters("sim.")
        assert counters["sim.runs"] == 1
        assert counters["sim.jobs-released"] == baseline[3]
    finally:
        obs.set_recorder(previous)
        obs.clear()
