"""Work-unit decomposition of acceptance sweeps.

A sweep over the utilization grid is an embarrassingly parallel job: each
``UB`` bucket's task-set sample is generated from an RNG derived purely
from ``(label, m, deadline_type, p_high, bucket, replicate)``, so one
:class:`WorkUnit` — one ``(sweep config, bucket)`` shard — can run in any
process, in any order, and still produce the exact outcome the serial
sweep would.  :func:`run_unit` is the entry point every backend runs,
in the calling process or in a worker subprocess.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.experiments.acceptance import (
    AcceptanceSweep,
    BucketOutcome,
    SweepConfig,
    validate_algorithms,
)
from repro.experiments.algorithms import get_algorithm

__all__ = ["WorkUnit", "decompose_sweep", "run_unit"]


@dataclass(frozen=True)
class WorkUnit:
    """One shard of a sweep: a single ``UB`` bucket under one config.

    Carries only plain picklable data (the frozen config, the bucket
    center and algorithm *names*); the worker re-derives grid points and
    algorithm instances locally, so units stay tiny on the wire — the
    task sets themselves only ever exist inside the worker, as a columnar
    :class:`~repro.model.batch.TaskSetBatch` on the batched path.

    ``pipeline`` selects the execution path (see
    :data:`repro.experiments.acceptance.PIPELINES`): sweeps run
    ``"batched"``, and ``"scalar"`` is the reference loop the harness's
    cross-check and the differential tests build units for.  It is
    deliberately *excluded* from the shard-cache identity: both paths
    produce the identical outcome, so shards are interchangeable between
    them.
    """

    config: SweepConfig
    bucket: float
    algorithms: tuple[str, ...]
    pipeline: str = "batched"


def decompose_sweep(
    config: SweepConfig,
    algorithm_names: Sequence[str],
) -> list[WorkUnit]:
    """Split a sweep into independent per-bucket work units, ascending."""
    names = tuple(algorithm_names)
    # Fail fast on typos and on algorithm/deadline-type pairings the tests
    # cannot analyze, before any worker spawns.
    validate_algorithms(config, [get_algorithm(name) for name in names])
    return [
        WorkUnit(config=config, bucket=bucket, algorithms=names)
        for bucket in AcceptanceSweep(config).bucket_points()
    ]


def run_unit(unit: WorkUnit) -> BucketOutcome:
    """Execute one work unit (in this process).

    Deterministic in the unit alone — the runner relies on this both for
    order-independent merging and for content-addressed caching.
    """
    sweep = AcceptanceSweep(unit.config, pipeline=unit.pipeline)
    points = sweep.bucket_points().get(unit.bucket)
    if points is None:
        raise ValueError(
            f"bucket {unit.bucket!r} is not part of the sweep grid for "
            f"config {unit.config!r}"
        )
    algorithms = [get_algorithm(name) for name in unit.algorithms]
    return sweep.run_bucket(unit.bucket, points, algorithms)
