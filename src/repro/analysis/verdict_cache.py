"""Canonical task-set verdict cache (opt-in, two-tier).

The sweep pipeline re-derives the same verdicts over and over: the same
utilization bucket is probed under several strategies, figure variants
re-run the same ``(taskset, m, test, service)`` combinations, and a
resumed campaign replays whole shards.  The demand-engine memos only
live for one probe; this module caches at the *verdict* level, so a
repeated probe never pays the descent at all.

Keys are **canonical**: the task list is normalized to a stable sorted
order of the parameter tuples ``(period, criticality, C^L, C^H, D,
degraded fields)`` — task ids, names and submission order do not enter
the key — and hashed (sha256 over sort-keyed JSON, the shard-cache key
recipe).  The kernel never enters the key either: all demand kernels
are verdict-identical by contract, so their outcomes are
interchangeable at this level.  The service model and the probe shape
(tuning stages + horizon cap, or ``m`` + test + strategy) are separate
key components.

Cached values carry task references as *canonical indices*, so a hit
from a differently-ordered or differently-numbered submission is mapped
back onto the caller's actual task objects before it is returned.

Two tiers: a bounded in-process LRU (``REPRO_VERDICT_CACHE_SIZE``) and
an optional persistent tier (``REPRO_VERDICT_CACHE_DIR``) that reuses
the four :class:`~repro.runner.store.ShardStore` blob primitives —
get/put/exists/discard on content-addressed JSON blobs, multi-writer
safe, any malformed or doubtful payload treated as a miss and
discarded.

**Opt-in** (``REPRO_VERDICT_CACHE=on``; default off): order-normalized
keys identify task sets *up to reordering*, while the descent's float
folds are order sensitive — two orderings of one parameter multiset are
verdict-equal for every practical purpose, but an epsilon-boundary set
could in principle fold differently.  The default therefore preserves
bit-for-bit reproducibility of unordered submissions; campaigns that
want the reuse switch the knob on.

Diagnostics live in the always-on ``verdict-cache.*`` counter scope:
``hit`` / ``miss`` / ``store`` (in-process tier), ``disk-hit`` /
``disk-reject`` (persistent tier).
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict

from repro.model import MCTask, TaskSet
from repro.obs import REGISTRY as _OBS_REGISTRY
from repro.util.env import (
    verdict_cache_dir_from_env,
    verdict_cache_from_env,
    verdict_cache_size_from_env,
)

__all__ = [
    "enabled",
    "reconfigure",
    "lookup_tuning",
    "store_tuning",
    "lookup_partition",
    "store_partition",
    "cache_counters",
    "reset_cache_counters",
]

_COUNTERS = _OBS_REGISTRY.counter_scope(
    "verdict-cache",
    (
        "hit",  # in-process LRU hits
        "miss",  # lookups that found nothing in any tier
        "store",  # verdicts written to the cache
        "disk-hit",  # persistent-tier hits promoted into the LRU
        "disk-reject",  # malformed persistent payloads discarded as misses
    ),
)

#: Schema stamp inside every persistent payload; a mismatch is a miss.
#: Tuning payloads carry ``iterations`` and ``detail``, so the stamp moves
#: whenever the tuning path changes them for an unchanged verdict (``/2``:
#: unrefined stages reject at the V* floor, after zero iterations).
_SCHEMA = "repro-verdict-cache/2"


class _Config:
    """Knob snapshot plus the two tiers; rebuilt by :func:`reconfigure`."""

    def __init__(self) -> None:
        self.enabled = verdict_cache_from_env() == "on"
        self.size = verdict_cache_size_from_env()
        self.lru: OrderedDict[str, dict] = OrderedDict()
        self.store = None
        directory = verdict_cache_dir_from_env()
        if self.enabled and directory:
            # Deferred import: runner.store pulls the experiments layer,
            # which imports the analysis stack this module lives in.
            from repro.runner.store import create_store

            self.store = create_store("object", directory)


_CONFIG: _Config | None = None


def _config() -> _Config:
    global _CONFIG
    if _CONFIG is None:
        _CONFIG = _Config()
    return _CONFIG


def reconfigure() -> None:
    """Re-read the env knobs and drop both tiers' in-process state.

    For tests and long-lived processes that flip ``REPRO_VERDICT_CACHE``
    at runtime; the persistent tier's on-disk blobs survive (they are
    content addressed and validated on read).
    """
    global _CONFIG
    _CONFIG = None


def enabled() -> bool:
    """Whether lookups/stores are active (``REPRO_VERDICT_CACHE=on``)."""
    return _config().enabled


# -- canonicalization --------------------------------------------------------

def _canonical_order(taskset: TaskSet) -> list[MCTask]:
    """The task list in canonical order (parameter tuples, stable ties).

    Identity fields (``task_id``, ``name``) never enter the sort, so two
    submissions of one parameter multiset canonicalize identically; ties
    between identically-parameterized tasks keep submission order, which
    is irrelevant to the key (equal tuples) but makes the index mapping
    deterministic.
    """
    return sorted(taskset, key=_task_params)


def _task_params(task: MCTask) -> tuple:
    return (
        task.period,
        "HC" if task.criticality.is_high else "LC",
        task.wcet_lo,
        task.wcet_hi,
        task.deadline,
        -1 if task.wcet_degraded is None else task.wcet_degraded,
        -1 if task.period_degraded is None else task.period_degraded,
    )


def _service_spec(taskset: TaskSet) -> str:
    service = taskset.service_model
    return "full-drop" if service is None else service.spec()


def _key(kind: str, taskset: TaskSet, ordered: list[MCTask], extra: dict) -> str:
    desc = {
        "schema": _SCHEMA,
        "kind": kind,
        "tasks": [list(_task_params(t)) for t in ordered],
        "service": _service_spec(taskset),
        **extra,
    }
    blob = json.dumps(desc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- tier plumbing -----------------------------------------------------------

def _get(key: str) -> dict | None:
    cfg = _config()
    hit = cfg.lru.get(key)
    if hit is not None:
        cfg.lru.move_to_end(key)
        _COUNTERS["hit"] += 1
        return hit
    if cfg.store is not None:
        text = cfg.store.get(key)
        if text is not None:
            try:
                payload = json.loads(text)
                if not isinstance(payload, dict) or payload.get("schema") != _SCHEMA:
                    raise ValueError("schema mismatch")
            except (ValueError, TypeError):
                # Doubt means miss: discard so the slot can be rewritten.
                cfg.store.discard(key)
                _COUNTERS["disk-reject"] += 1
                _COUNTERS["miss"] += 1
                return None
            _COUNTERS["disk-hit"] += 1
            _put_lru(key, payload)
            return payload
    _COUNTERS["miss"] += 1
    return None


def _put_lru(key: str, payload: dict) -> None:
    cfg = _config()
    cfg.lru[key] = payload
    cfg.lru.move_to_end(key)
    while len(cfg.lru) > cfg.size:
        cfg.lru.popitem(last=False)


def _put(key: str, payload: dict) -> None:
    cfg = _config()
    _put_lru(key, payload)
    if cfg.store is not None and not cfg.store.exists(key):
        cfg.store.put(key, json.dumps(payload, sort_keys=True))
    _COUNTERS["store"] += 1


# -- tuning verdicts ---------------------------------------------------------

def lookup_tuning(
    taskset: TaskSet,
    stages: tuple[tuple[str, bool], ...],
    horizon_cap: int,
):
    """Cached :class:`~repro.analysis.vdtuning.TuningOutcome`, or None.

    The virtual deadlines are stored by canonical index and remapped
    onto the caller's task ids, so the returned outcome is usable
    exactly as a freshly computed one.
    """
    if not enabled():
        return None
    ordered = _canonical_order(taskset)
    key = _key(
        "tuning", taskset, ordered,
        {"stages": [list(s) for s in stages], "horizon_cap": horizon_cap},
    )
    payload = _get(key)
    if payload is None:
        return None
    from repro.analysis.vdtuning import TuningOutcome

    vd = {
        ordered[int(idx)].task_id: deadline
        for idx, deadline in payload["vd"].items()
    }
    return TuningOutcome(
        payload["schedulable"], vd, payload["iterations"], payload["detail"]
    )


def store_tuning(
    taskset: TaskSet,
    stages: tuple[tuple[str, bool], ...],
    horizon_cap: int,
    outcome,
) -> None:
    """Record a tuning verdict under its canonical key."""
    if not enabled():
        return
    ordered = _canonical_order(taskset)
    index_of = {t.task_id: i for i, t in enumerate(ordered)}
    key = _key(
        "tuning", taskset, ordered,
        {"stages": [list(s) for s in stages], "horizon_cap": horizon_cap},
    )
    _put(key, {
        "schema": _SCHEMA,
        "schedulable": outcome.schedulable,
        "iterations": outcome.iterations,
        "detail": outcome.detail,
        "vd": {
            str(index_of[tid]): deadline
            for tid, deadline in outcome.virtual_deadlines.items()
        },
    })


# -- partition verdicts ------------------------------------------------------

def _partition_extra(m: int, test, strategy) -> dict:
    # A test's verdict is determined by its registered name plus its
    # tunables; every shipped test carries them as plain attributes.
    return {
        "m": m,
        "test": [
            test.name,
            getattr(test, "horizon_cap", None),
            [list(s) for s in getattr(test, "stages", ())],
        ],
        "strategy": strategy.name,
    }


def lookup_partition(taskset: TaskSet, m: int, test, strategy):
    """Cached :class:`~repro.core.allocator.PartitionResult`, or None.

    Core membership, the assignment map (in commit order) and the failed
    task are stored as canonical indices and rebuilt around the caller's
    actual task objects — same cores, same iteration order, same ids as
    the uncached run.
    """
    if not enabled():
        return None
    ordered = _canonical_order(taskset)
    key = _key("partition", taskset, ordered, _partition_extra(m, test, strategy))
    payload = _get(key)
    if payload is None:
        return None
    from repro.core.allocator import PartitionResult

    service = taskset.service_model
    cores: list[list[MCTask]] = [[] for _ in range(m)]
    assignment: dict[int, int] = {}
    for idx, core in payload["commits"]:
        task = ordered[int(idx)]
        cores[int(core)].append(task)
        assignment[task.task_id] = int(core)
    failed = payload["failed"]
    return PartitionResult(
        success=payload["success"],
        strategy_name=strategy.name,
        test_name=test.name,
        m=m,
        cores=tuple(
            TaskSet(members, service_model=service) for members in cores
        ),
        assignment=assignment,
        failed_task=None if failed is None else ordered[int(failed)],
    )


def store_partition(taskset: TaskSet, m: int, test, strategy, result) -> None:
    """Record a partition verdict under its canonical key."""
    if not enabled():
        return
    ordered = _canonical_order(taskset)
    index_of = {t.task_id: i for i, t in enumerate(ordered)}
    key = _key("partition", taskset, ordered, _partition_extra(m, test, strategy))
    _put(key, {
        "schema": _SCHEMA,
        "success": result.success,
        # Commit order: assignment dicts iterate in placement order, so
        # replaying the pairs reproduces the uncached dict exactly.
        "commits": [
            [index_of[tid], core] for tid, core in result.assignment.items()
        ],
        "failed": (
            None
            if result.failed_task is None
            else index_of[result.failed_task.task_id]
        ),
    })


# -- diagnostics -------------------------------------------------------------

def cache_counters() -> dict[str, int]:
    """Snapshot of the process-local verdict-cache diagnostics."""
    return dict(_COUNTERS)


def reset_cache_counters() -> None:
    """Zero the verdict-cache diagnostics (process-local slice)."""
    for key in _COUNTERS:
        _COUNTERS[key] = 0
