"""Parallel, resumable, fault-tolerant execution for experiment campaigns.

The paper's evaluation is thousands of independent ``(config, bucket)``
shards; this package — the *campaign fabric* — turns any sweep into
exactly those shards and runs them fast, restartably and survivably:

* :mod:`repro.runner.units` — decompose a sweep into picklable
  :class:`~repro.runner.units.WorkUnit` shards; ``run_unit`` executes one.
* :mod:`repro.runner.executor` — the ``ExecutorBackend`` protocol
  (``submit``/``as_completed``/``shutdown``), the in-process
  :class:`~repro.runner.executor.SerialBackend` reference and backend
  resolution; worker failures surface as typed
  :class:`~repro.runner.executor.WorkerCrashError`\\ s.
* :mod:`repro.runner.cluster` — the one parallel backend,
  :class:`~repro.runner.cluster.ClusterBackend`: parent-assigned units,
  heartbeat liveness, re-dispatch of units lost to killed workers, an
  opt-in lease for hung ones, exactly-once merge, and one worker fleet
  per process that later sweeps reuse.
* :mod:`repro.runner.store` — the ``ShardStore`` interface over the
  content-addressed shard layout: :class:`~repro.runner.store.FsStore`
  and the flat multi-host
  :class:`~repro.runner.store.ObjectStore`; interrupted campaigns
  resume, re-renders never recompute.
* :mod:`repro.runner.pool` — ``run_sweep``/``execute_units`` conduct
  store + backend + obs with a deterministic merge: every backend ×
  store combination is bit-identical to the serial, uncached path.
* :mod:`repro.runner.campaign` — declarative
  :class:`~repro.runner.campaign.CampaignSpec` over many figures.
* :mod:`repro.runner.progress` — live shard counts, retries, worker
  liveness and a merged ETA.

Typical use::

    from repro.runner import CampaignSpec, run_campaign

    spec = CampaignSpec.paper_evaluation(samples=1000)
    run_campaign(spec, "results/paper", jobs=8, backend="cluster")
"""

from repro.runner.campaign import (
    CampaignReport,
    CampaignSpec,
    FigureJob,
    run_campaign,
)
from repro.runner.cluster import ClusterBackend
from repro.runner.executor import (
    ExecutorBackend,
    FabricObserver,
    SerialBackend,
    UnitResult,
    WorkerCrashError,
    default_jobs,
    registered_backends,
    resolve_backend,
)
from repro.runner.pool import execute_units, run_sweep
from repro.runner.progress import ProgressReporter, format_eta
from repro.runner.store import (
    SHARD_FORMAT_VERSION,
    FsStore,
    ObjectStore,
    ShardStore,
    create_store,
    unit_key,
)
from repro.runner.units import WorkUnit, decompose_sweep, run_unit

__all__ = [
    "SHARD_FORMAT_VERSION",
    "ShardStore",
    "FsStore",
    "ObjectStore",
    "create_store",
    "unit_key",
    "CampaignReport",
    "CampaignSpec",
    "FigureJob",
    "run_campaign",
    "ExecutorBackend",
    "SerialBackend",
    "ClusterBackend",
    "UnitResult",
    "WorkerCrashError",
    "FabricObserver",
    "registered_backends",
    "resolve_backend",
    "default_jobs",
    "execute_units",
    "run_sweep",
    "ProgressReporter",
    "format_eta",
    "WorkUnit",
    "decompose_sweep",
    "run_unit",
]
