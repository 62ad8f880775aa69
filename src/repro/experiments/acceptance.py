"""Acceptance-ratio sweeps over the paper's utilization grid.

The paper's core experiment: for each value of the total normalized
utilization ``UB``, generate many task sets (1000 in the paper) from the
grid combinations mapping to that ``UB`` and report, per partitioned
algorithm, the fraction deemed schedulable.

Sweeps run the batched path: task sets are generated straight into a
columnar :class:`~repro.model.batch.TaskSetBatch` and all algorithms of a
shard run through one :func:`repro.core.batch.partition_batch` call.  The
exact prefilter bank and the utilization-ledger replay settle what they
can from the columns, and only the remaining sets are materialized for
the incremental per-taskset path.

The one-taskset-at-a-time loop (``pipeline="scalar"``) stays as the
reference.  The benchmark harness's cross-check and the differential
tests reach it through a :class:`~repro.runner.units.WorkUnit` (or an
``AcceptanceSweep``) built with ``pipeline="scalar"``.  The batched path
is bit-identical to it by construction (same derived RNG streams,
exact-only settling), so ratios, WAR tables and shard-cache keys never
depend on the path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from repro.generator import (
    GeneratorConfig,
    GridPoint,
    MCTaskSetGenerator,
    UtilizationGrid,
)
from repro.model import TaskSet, TaskSetBatch
from repro.util.rng import replicate_rngs
from repro.experiments.algorithms import PartitionedAlgorithm

__all__ = [
    "PIPELINES",
    "SweepConfig",
    "SweepResult",
    "BucketOutcome",
    "AcceptanceSweep",
    "kernel_summary",
    "clear_samples",
    "merge_outcomes",
    "retain_sample",
    "retained_samples",
    "sample_key",
    "settled_summary",
    "take_new_samples",
    "validate_algorithms",
]

#: Recognized sweep execution pipelines (see module docstring).
PIPELINES = ("batched", "scalar")


def validate_algorithms(
    config: "SweepConfig", algorithms: list[PartitionedAlgorithm]
) -> None:
    """Reject (algorithm, deadline type/service model) pairings the tests
    cannot analyze.

    Called at sweep setup (and by the campaign decomposition before any
    worker spawns), so e.g. EDF-VD against a constrained-deadline sweep, or
    AMC against a degraded-service sweep, fails immediately with a clear
    error instead of raising from deep inside the analysis mid-campaign.
    Duplicate names are rejected too: results are keyed by name, so a
    repeated algorithm would silently collapse into one series.
    """
    from repro.degradation.service import parse_service_model

    service = parse_service_model(config.service)
    seen: set[str] = set()
    for algorithm in algorithms:
        if algorithm.name in seen:
            raise ValueError(
                f"algorithm {algorithm.name!r} is listed more than once "
                f"(sweep label {config.label!r})"
            )
        seen.add(algorithm.name)
        if not algorithm.test.supports_deadline_type(config.deadline_type):
            raise ValueError(
                f"algorithm {algorithm.name!r} cannot run on a "
                f"deadline_type={config.deadline_type!r} sweep: test "
                f"{algorithm.test.name!r} does not support it "
                f"(sweep label {config.label!r})"
            )
        if not algorithm.test.supports_service_model(service):
            raise ValueError(
                f"algorithm {algorithm.name!r} cannot run on a "
                f"service={config.service!r} sweep: test "
                f"{algorithm.test.name!r} does not analyze LC tasks under "
                f"that service model (sweep label {config.label!r})"
            )


@dataclass(frozen=True)
class SweepConfig:
    """Parameters of one acceptance-ratio sweep (one sub-figure)."""

    label: str  #: seed namespace; also used in reports
    m: int
    deadline_type: str = "implicit"
    p_high: float = 0.5
    samples_per_bucket: int = 100
    bucket_width: float = 0.05
    ub_min: float = 0.0  #: skip buckets below this UB (all-accept region)
    ub_max: float = 1.0
    #: LC service model spec applied to every generated task set
    #: (``"full-drop"``, ``"imprecise:<rho>"`` or ``"elastic:<lambda>"``);
    #: the default reproduces the paper's drop-at-switch semantics exactly
    #: — task-set generation itself is service-agnostic, so curves across
    #: service values share the same task-set sample, which a process
    #: generates once and reuses (see :func:`sample_key`)
    service: str = "full-drop"


@dataclass
class SweepResult:
    """Acceptance ratios per ``UB`` bucket per algorithm."""

    config: SweepConfig
    buckets: list[float] = field(default_factory=list)
    samples: list[int] = field(default_factory=list)
    ratios: dict[str, list[float]] = field(default_factory=dict)

    def _series(self, algorithm: str) -> list[float]:
        try:
            return self.ratios[algorithm]
        except KeyError:
            known = ", ".join(sorted(self.ratios)) or "(none)"
            raise KeyError(
                f"unknown algorithm {algorithm!r}; this sweep ran: {known}"
            ) from None

    def ratio_curve(self, algorithm: str) -> list[tuple[float, float]]:
        """``(UB, acceptance ratio)`` series for one algorithm.

        Raises ``ValueError`` when the series length disagrees with the
        bucket axis (e.g. a stale cache shard merged from a different
        bucket grid) — a silently truncated curve would misreport the
        sweep, so the mismatch fails loudly instead.
        """
        try:
            return list(zip(self.buckets, self._series(algorithm), strict=True))
        except ValueError:
            raise ValueError(
                f"series for {algorithm!r} has "
                f"{len(self._series(algorithm))} entries but the sweep has "
                f"{len(self.buckets)} buckets; the merged outcomes are "
                "inconsistent (stale or foreign cache shard?)"
            ) from None

    def max_improvement(self, algorithm: str, baseline: str) -> float:
        """Largest acceptance-ratio gain of ``algorithm`` over ``baseline``.

        Expressed in percentage points over the swept buckets — the
        "improves schedulability by as much as X%" statistic the paper
        headlines.  Mismatched series lengths raise ``ValueError`` rather
        than silently truncating the comparison.
        """
        series_a = self._series(algorithm)
        series_b = self._series(baseline)
        try:
            gains = [a - b for a, b in zip(series_a, series_b, strict=True)]
        except ValueError:
            raise ValueError(
                f"series for {algorithm!r} ({len(series_a)} entries) and "
                f"{baseline!r} ({len(series_b)} entries) disagree in "
                "length; the merged outcomes are inconsistent "
                "(stale or foreign cache shard?)"
            ) from None
        return 100.0 * max(gains, default=0.0)


def merge_outcomes(
    config: SweepConfig,
    algorithm_names: list[str],
    outcomes: list["BucketOutcome"],
) -> SweepResult:
    """Assemble per-bucket shards into the result the serial sweep produces.

    Outcomes may arrive in any order (e.g. from worker processes); they are
    sorted by bucket and empty buckets are dropped, exactly mirroring the
    serial loop, so the merged result is bit-identical to a serial run.
    """
    result = SweepResult(config, ratios={name: [] for name in algorithm_names})
    for outcome in sorted(outcomes, key=lambda o: o.bucket):
        if outcome.samples == 0:
            continue
        result.buckets.append(outcome.bucket)
        result.samples.append(outcome.samples)
        for name in algorithm_names:
            result.ratios[name].append(outcome.ratios[name])
    return result


@dataclass(frozen=True)
class BucketOutcome:
    """One sweep shard: acceptance ratios for a single ``UB`` bucket.

    This is the unit of work the campaign runner distributes, caches and
    merges (see :mod:`repro.runner`): the whole sweep is a deterministic
    function of its per-bucket outcomes.  ``ratios`` preserves the
    algorithm order of the sweep.

    The columnar fields are diagnostics riding along with the shard:
    ``accepted`` holds the integer acceptance counts the ratios derive
    from (``ratio = accepted / samples``, the very division both pipelines
    perform), and ``settled`` reports, per algorithm, how many sets each
    batched-pipeline mechanism settled (prefilter names, ``"ledger"``,
    ``"full"``).  Both are None for scalar-pipeline shards and for shards
    loaded from caches that predate them — consumers must not rely on
    their presence.
    """

    bucket: float
    samples: int  #: task sets actually generated (0 = bucket infeasible)
    ratios: dict[str, float]
    #: none of the diagnostics participate in outcome equality — two shards
    #: with the same ratios are the same shard, however they were settled
    accepted: dict[str, int] | None = field(default=None, compare=False)
    settled: dict[str, dict[str, int]] | None = field(
        default=None, compare=False
    )


def settled_summary(outcomes: list["BucketOutcome"]) -> dict[str, dict[str, int]]:
    """Aggregate per-algorithm settled counts over many shards.

    Shards without settling diagnostics (scalar pipeline, cache loads)
    contribute nothing; the result maps algorithm name to the summed
    per-mechanism counts — the sweep-level "settled-by-prefilter" report
    the benchmark prints.
    """
    summary: dict[str, dict[str, int]] = {}
    for outcome in outcomes:
        if not outcome.settled:
            continue
        for name, counts in outcome.settled.items():
            into = summary.setdefault(name, {})
            for source, count in counts.items():
                into[source] = into.get(source, 0) + count
    return summary


def kernel_summary(
    since: dict[str, float] | None = None,
) -> dict[str, dict[str, float]]:
    """Per-algorithm demand-kernel diagnostics from the obs registry.

    The batched shard runner records per-algorithm ``kernel.<algorithm>.
    <counter>`` deltas into :data:`repro.obs.REGISTRY` (workers ship theirs
    back to the parent), and this folds them back into the report shape the
    ``repro figure`` diagnostics block prints: the ``qpa-accept`` /
    ``approx-accept`` settle counters, with the
    run/iteration totals collapsed to ``qpa-iter-mean`` (mean backward
    fixed-point iterations per QPA search).  The block kernel's
    ``kernel.block.*`` scope lands under ``block`` with its raw counters.

    With recording on (``REPRO_OBS`` at ``metrics`` or above) a
    ``descent`` row is added from the ``descent.iterations`` histogram —
    trajectory lengths per tuning probe as ``iters-count`` /
    ``iters-p50`` / ``iters-p95`` / ``iters-p99`` — the per-probe view
    the block kernel's fewer-iterations claim is measured by.  The same
    row carries the cached-trajectory counters of the scalar descent
    (:data:`_DESCENT_COUNTERS`): HI trajectories built and reused,
    iterations replayed from them, and the LO checks that placed the
    replays.

    The registry accumulates for the process lifetime; pass ``since`` (an
    earlier ``REGISTRY.counters()`` snapshot) to report only what one run
    contributed.  Shards loaded from cache contribute nothing, exactly as
    before the registry migration.  (``since`` baselines the *counters*;
    the histogram quantiles are always lifetime-to-date — they do not
    subtract.)
    """
    from repro import obs as _obs

    counters = _obs.REGISTRY.counters("kernel.")
    baseline = since or {}
    summary: dict[str, dict[str, float]] = {}
    for name, value in counters.items():
        value -= baseline.get(name, 0)
        if not value:
            continue
        _, algorithm, key = name.split(".", 2)
        summary.setdefault(algorithm, {})[key] = value
    for counts in summary.values():
        runs = counts.pop("qpa-runs", 0)
        iterations = counts.pop("qpa-iterations", 0)
        if runs:
            counts["qpa-iter-mean"] = round(iterations / runs, 2)
    row: dict[str, float] = {}
    histogram = _obs.REGISTRY.histogram("descent.iterations")
    if histogram is not None:
        stats = histogram.summary()
        if stats["count"]:
            row = {
                "iters-count": stats["count"],
                "iters-p50": stats["p50"],
                "iters-p95": stats["p95"],
                "iters-p99": stats["p99"],
            }
    descent = _obs.REGISTRY.counters("descent.")
    for name in _DESCENT_COUNTERS:
        value = descent.get(name, 0) - baseline.get(name, 0)
        if value:
            row[name.split(".", 1)[1]] = value
    if row:
        summary["descent"] = row
    return summary


#: Cached-trajectory work counters of the scalar shrink descent
#: (:func:`repro.analysis.vdtuning._replay_trajectory`), recorded under
#: :func:`repro.obs.active` and reported in :func:`kernel_summary`'s
#: ``descent`` row.
_DESCENT_COUNTERS = (
    "descent.trajectories",
    "descent.trajectory-reuse",
    "descent.replayed",
    "descent.lo-checks",
)


#: :attr:`MCTaskSetGenerator.stats` work counters recorded per generated
#: bucket, as ``generator.<key with hyphens>``
_WORK_COUNTERS = ("fold_attempts", "retries", "coupling_fallbacks")


# -- service-independent sample reuse ------------------------------------------
#: Generated samples kept for sibling sweeps: sample key -> the read-only
#: :meth:`TaskSetBatch.arrays` of that bucket's sample.  Holds one sample
#: group (see :func:`retain_sample`) at most.
_SAMPLES: dict[tuple, tuple] = {}
#: keys retained since the last :func:`take_new_samples` (all held: an
#: eviction clears both)
_NEW: list[tuple] = []


def sample_key(config: SweepConfig, bucket: float, points: list[GridPoint]) -> tuple:
    """The identity of one bucket's task-set sample.

    Everything generation reads (the :func:`replicate_rngs` components and the
    :class:`GeneratorConfig` fields) and nothing else: ``service`` is left
    out, so sweeps differing only in their service level share a key.
    The first five fields are the sample's *group* — one sweep's buckets.
    Points enter as plain ``(u_hh, u_lh, u_ll)`` tuples: equal where the
    points are, and cheap to hash on every cluster dispatch.
    """
    return (
        config.label, config.m, config.deadline_type, config.p_high,
        config.samples_per_bucket, bucket,
        tuple((point.u_hh, point.u_lh, point.u_ll) for point in points),
    )


def retain_sample(key: tuple, arrays: tuple) -> None:
    """Keep one sample for reuse; idempotent (a held key is left as is).

    A key from another group evicts the held group first, so the store
    is at most one sweep's sample whatever the scale.
    """
    if key in _SAMPLES:
        return
    if _SAMPLES and next(iter(_SAMPLES))[:5] != key[:5]:
        clear_samples()
    for array in arrays:
        array.setflags(write=False)
    _SAMPLES[key] = arrays
    _NEW.append(key)


def retained_samples() -> Mapping[tuple, tuple]:
    """Every held sample, ``key -> arrays``, as a read-only live view."""
    return MappingProxyType(_SAMPLES)


def take_new_samples() -> list[tuple[tuple, tuple]]:
    """``(key, arrays)`` of every sample retained since the last call.

    A cluster worker ships these back with each outcome; the parent folds
    them in with :func:`retain_sample` and forwards them to the workers
    that lack them with their next unit.
    """
    new = [(key, _SAMPLES[key]) for key in _NEW]
    _NEW.clear()
    return new


def clear_samples() -> None:
    """Forget every retained sample."""
    _SAMPLES.clear()
    _NEW.clear()


class AcceptanceSweep:
    """Runs algorithms over generated task sets, bucketed by ``UB``.

    Task sets are generated once per (bucket, replicate) and shared by all
    algorithms, matching the paper's methodology (every algorithm sees the
    same 1000 task sets).  Generation is deterministic in
    ``(label, m, deadline_type, p_high, bucket, replicate)``, so every
    bucket can be computed in isolation (see :meth:`run_bucket`) — in any
    order, in any process — and reassembled into the exact result the
    serial :meth:`run` produces.
    """

    def __init__(
        self,
        config: SweepConfig,
        grid: UtilizationGrid | None = None,
        pipeline: str = "batched",
    ):
        from repro.degradation.service import parse_service_model

        if pipeline not in PIPELINES:
            raise ValueError(
                f"unknown pipeline {pipeline!r}; choose from {PIPELINES}"
            )
        self.config = config
        self.grid = grid or UtilizationGrid()
        self.pipeline = pipeline
        self._service = parse_service_model(config.service)
        self._generator = MCTaskSetGenerator(
            GeneratorConfig(
                m=config.m,
                p_high=config.p_high,
                deadline_type=config.deadline_type,
            )
        )
        #: one prefilter bank per algorithm name — a bank memoizes
        #: test-specific verdicts, so it must never be shared across tests
        self._banks: dict[str, object] = {}

    # -- task-set provisioning -------------------------------------------------
    def batch_for_bucket(
        self, bucket: float, points: list[GridPoint]
    ) -> TaskSetBatch:
        """The deterministic task-set sample for one bucket, as columns.

        Generation is independent of the service model (the RNG stream is
        untouched by it), so sweeps differing only in ``service`` evaluate
        their algorithms on the *same* task sets — the degradation figures
        compare service levels, not sampling noise.  A non-default model
        rides on the batch and is attached to whatever materializes.

        Those sibling sweeps generate the sample once per process: a
        degraded-service sweep retains what it generates, and a later
        sweep with the same :func:`sample_key` gets a batch over the very
        same (read-only) arrays, with fresh caches.
        """
        from repro import obs as _obs

        cfg = self.config
        service = None if self._service.is_full_drop else self._service
        key = sample_key(cfg, bucket, points)
        arrays = _SAMPLES.get(key)
        if arrays is not None:
            if _obs.active():
                _obs.REGISTRY.add("generator.reused")
            return TaskSetBatch.from_arrays(arrays, service_model=service)
        generator = self._generator
        before = dict(generator.stats)
        records = []
        for rng in replicate_rngs(
            cfg.label, cfg.m, cfg.deadline_type, cfg.p_high, bucket,
            count=cfg.samples_per_bucket,
        ):
            # A few attempts across grid points: some (point, n) draws are
            # infeasible (e.g. U_HH too concentrated for the task count).
            for _ in range(6):
                point = points[int(rng.integers(len(points)))]
                draws = generator.draw(rng, point.u_hh, point.u_lh, point.u_ll)
                if draws is not None:
                    records.append(draws)
                    break
        batch = generator.build(records, service_model=service)
        if _obs.active():
            _obs.REGISTRY.add("generator.samples")
            # Deterministic work beside the generator's timing: a change
            # that keeps the stream keeps these counts.
            _obs.REGISTRY.add_counters({
                f"generator.{key.replace('_', '-')}": generator.stats[key] - before[key]
                for key in _WORK_COUNTERS
                if generator.stats[key] != before[key]
            })
        # Only degraded sweeps have sibling service levels to share with.
        if service is not None:
            retain_sample(key, batch.arrays())
        return batch

    def tasksets_for_bucket(
        self, bucket: float, points: list[GridPoint]
    ) -> list[TaskSet]:
        """The bucket sample as materialized task sets (the object view).

        Same draws, same derived RNG streams as :meth:`batch_for_bucket` —
        this is simply its materialization, kept for per-taskset consumers
        (benchmarks, examples, the scalar reference loop).
        """
        return self.batch_for_bucket(bucket, points).to_tasksets()

    # -- sweeping -----------------------------------------------------------------
    def bucket_points(self) -> dict[float, list[GridPoint]]:
        """Grid points per swept bucket, ascending, filtered to the UB range."""
        cfg = self.config
        return {
            bucket: points
            for bucket, points in self.grid.buckets(cfg.bucket_width).items()
            if cfg.ub_min <= bucket <= cfg.ub_max
        }

    def run_bucket(
        self,
        bucket: float,
        points: list[GridPoint],
        algorithms: list[PartitionedAlgorithm],
    ) -> BucketOutcome:
        """Run every algorithm over one bucket's task-set sample (one shard)."""
        cfg = self.config
        validate_algorithms(cfg, algorithms)
        if self.pipeline == "batched":
            return self._run_bucket_batched(bucket, points, algorithms)
        tasksets = self.tasksets_for_bucket(bucket, points)
        ratios: dict[str, float] = {}
        if tasksets:
            for algorithm in algorithms:
                accepted = sum(algorithm.accepts(ts, cfg.m) for ts in tasksets)
                ratios[algorithm.name] = accepted / len(tasksets)
        return BucketOutcome(bucket=bucket, samples=len(tasksets), ratios=ratios)

    def _run_bucket_batched(
        self,
        bucket: float,
        points: list[GridPoint],
        algorithms: list[PartitionedAlgorithm],
    ) -> BucketOutcome:
        """Columnar shard execution; same numbers as the scalar loop.

        Every algorithm's acceptance count comes from one
        :func:`~repro.core.batch.partition_batch` call over the shard's
        batch.  The ratio is the identical ``accepted / samples`` division
        the scalar loop performs, so the two pipelines' shards are equal
        field for field (the settling diagnostics ride along, excluded from
        equality-relevant consumers).
        """
        from repro import obs as _obs
        from repro.analysis.prefilter import default_prefilter_bank
        from repro.core.batch import partition_batch

        cfg = self.config
        batch = self.batch_for_bucket(bucket, points)
        ratios: dict[str, float] = {}
        accepted: dict[str, int] = {}
        settled: dict[str, dict[str, int]] = {}
        if len(batch):
            for algorithm in algorithms:
                # A bank binds to one test instance; rebind on a fresh
                # instance (e.g. re-fetched algorithms on a reused sweep).
                bank = self._banks.get(algorithm.name)
                if bank is None or not bank.serves(algorithm.test):
                    self._banks[algorithm.name] = default_prefilter_bank()
            outcomes = partition_batch(
                batch,
                cfg.m,
                [(algorithm.test, algorithm.strategy) for algorithm in algorithms],
                banks=[self._banks[algorithm.name] for algorithm in algorithms],
            )
            for algorithm, outcome in zip(algorithms, outcomes):
                # Always-on (like the kernel counters themselves): the
                # per-algorithm delta feeds kernel_summary() and the
                # `repro figure` diagnostics, which predate the REPRO_OBS knob.
                if outcome.kernel:
                    _obs.REGISTRY.add_counters(
                        {
                            f"kernel.{algorithm.name}.{key}": value
                            for key, value in outcome.kernel.items()
                        }
                    )
                accepted[algorithm.name] = outcome.accepted_count
                ratios[algorithm.name] = outcome.accepted_count / len(batch)
                settled[algorithm.name] = outcome.settled_counts()
        return BucketOutcome(
            bucket=bucket,
            samples=len(batch),
            ratios=ratios,
            accepted=accepted or None,
            settled=settled or None,
        )

    def run(self, algorithms: list[PartitionedAlgorithm]) -> SweepResult:
        """Full sweep; see class docstring."""
        outcomes = [
            self.run_bucket(bucket, points, algorithms)
            for bucket, points in self.bucket_points().items()
        ]
        return merge_outcomes(self.config, [a.name for a in algorithms], outcomes)
