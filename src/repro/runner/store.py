"""Content-addressed shard stores: the persistence half of the fabric.

Every :class:`~repro.runner.units.WorkUnit` has one canonical identity —
a SHA-256 over its JSON description (full sweep config + bucket +
algorithm names + shard format version, :func:`unit_key`) — and one
canonical payload serialization (:func:`encode_outcome`).  A
:class:`ShardStore` maps keys to payloads so that

* an interrupted campaign resumes exactly where it stopped — finished
  shards are loaded, unfinished ones recomputed;
* re-rendering a figure from an existing store recomputes nothing;
* any change to the config schema or shard format bumps the key/version
  and transparently invalidates stale entries;
* several hosts can share one store: payload bytes are a pure function
  of the key, so concurrent writers always write identical content and
  atomic renames make every put all-or-nothing.

Two layouts implement the interface:

* :class:`FsStore` — the original two-level ``<key[:2]>/<key>.json``
  fan-out (à la git objects).
* :class:`ObjectStore` — a flat ``objects/<key>`` bucket shaped like a
  put/get/exists object store; point it at shared (e.g. network) storage
  and independent campaign processes on different hosts pool shards.

Robustness over cleverness, in the base class once for every layout: a
payload that is missing, truncated, corrupted, version-skewed or
otherwise suspicious is treated as a miss and recomputed — a store can
never poison a result.  Writes are atomic (temp file + ``os.replace``)
so a killed campaign cannot leave a partial shard that later loads.

The four blob primitives (``get``/``put``/``exists``/``discard``) are
deliberately generic: the opt-in verdict cache
(:mod:`repro.analysis.verdict_cache`) reuses them for its persistent
tier, storing canonical-key verdict payloads in an :class:`ObjectStore`
bucket with the same miss-on-doubt discipline.
"""

from __future__ import annotations

import abc
import hashlib
import json
import os
import uuid
from pathlib import Path
from typing import Any

from repro.experiments.acceptance import BucketOutcome
from repro.experiments.export import sweep_config_to_dict
from repro.runner.units import WorkUnit

__all__ = [
    "SHARD_FORMAT_VERSION",
    "ShardStore",
    "FsStore",
    "ObjectStore",
    "STORES",
    "create_store",
    "unit_describe",
    "unit_key",
    "encode_outcome",
]

#: Bump whenever the shard payload layout *or* the semantics of the
#: computation behind it change; old store entries then miss cleanly.
SHARD_FORMAT_VERSION = 1


def unit_describe(unit: WorkUnit) -> dict[str, Any]:
    """The canonical (JSON-stable) identity of a unit."""
    return {
        "format_version": SHARD_FORMAT_VERSION,
        "config": sweep_config_to_dict(unit.config),
        "bucket": unit.bucket,
        "algorithms": list(unit.algorithms),
    }


def unit_key(unit: WorkUnit) -> str:
    """Stable content hash of a unit's full configuration.

    The same in every process on every host — it is what lets executor
    backends and shard stores agree on identity without coordination.
    """
    canonical = json.dumps(unit_describe(unit), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def encode_outcome(unit: WorkUnit, outcome: BucketOutcome) -> str:
    """The canonical shard payload text (identical across stores/backends)."""
    payload = {
        "key": unit_key(unit),
        "unit": unit_describe(unit),
        "bucket": outcome.bucket,
        "samples": outcome.samples,
        "ratios": outcome.ratios,
    }
    if outcome.accepted is not None:
        # Columnar acceptance counts (batched pipeline): diagnostic
        # payload, optional on load so pre-batch shards keep hitting.
        payload["accepted"] = outcome.accepted
    return json.dumps(payload, indent=2) + "\n"


class ShardStore(abc.ABC):
    """Validated load/store of shard outcomes over a key -> text blob map.

    Subclasses supply only the blob primitives (:meth:`get`, :meth:`put`,
    :meth:`exists`, :meth:`discard`); keying, serialization and the
    reject-on-any-doubt validation live here so every layout quarantines
    damage identically: a rejected blob is discarded on sight, so the
    recompute's :meth:`store` repairs it even under first-writer-wins
    layouts.
    Statistics (``hits``, ``misses``, ``rejected``, ``stored``) accumulate
    over the store's lifetime; campaign reports read them to prove a
    resumed run recomputed nothing.
    """

    #: registry name of the layout (``fs`` / ``object``).
    kind: str = ""

    def __init__(self):
        self.hits = 0  #: shards served from the store
        self.misses = 0  #: shards absent (includes rejected ones)
        self.rejected = 0  #: shards present but corrupt/invalid
        self.stored = 0  #: shards written

    # -- keying -----------------------------------------------------------------
    def describe(self, unit: WorkUnit) -> dict[str, Any]:
        """The canonical (JSON-stable) identity of a unit."""
        return unit_describe(unit)

    def key(self, unit: WorkUnit) -> str:
        """Stable content hash of a unit's full configuration."""
        return unit_key(unit)

    # -- blob primitives (the ObjectStore-shaped inner interface) ---------------
    @abc.abstractmethod
    def get(self, key: str) -> str | None:
        """The blob text stored under ``key``, or ``None`` when absent."""

    @abc.abstractmethod
    def put(self, key: str, text: str) -> Path:
        """Atomically persist ``text`` under ``key``; return its location."""

    @abc.abstractmethod
    def exists(self, key: str) -> bool:
        """Whether ``key`` currently has a blob (possibly invalid)."""

    @abc.abstractmethod
    def discard(self, key: str) -> None:
        """Drop the blob under ``key`` if present (quarantine support)."""

    # -- load/store -------------------------------------------------------------
    def load(self, unit: WorkUnit) -> BucketOutcome | None:
        """The stored outcome for ``unit``, or ``None`` on any doubt."""
        raw = self.get(self.key(unit))
        if raw is None:
            self.misses += 1
            return None
        try:
            outcome = self._parse(unit, raw)
        except (ValueError, TypeError, KeyError):
            # Truncated write, manual edit, version skew, hash collision on
            # the blob name — all indistinguishable, all safely recomputed.
            # Quarantine the damaged blob so the recompute's store() repairs
            # it even under first-writer-wins layouts.
            self.rejected += 1
            self.misses += 1
            self.discard(self.key(unit))
            return None
        self.hits += 1
        return outcome

    def store(self, unit: WorkUnit, outcome: BucketOutcome) -> Path:
        """Atomically persist one computed shard."""
        path = self.put(self.key(unit), encode_outcome(unit, outcome))
        self.stored += 1
        return path

    # -- validation -------------------------------------------------------------
    def _parse(self, unit: WorkUnit, raw: str) -> BucketOutcome:
        data = json.loads(raw)
        if not isinstance(data, dict):
            raise ValueError("shard payload is not an object")
        if data.get("key") != self.key(unit):
            raise ValueError("shard key mismatch")
        if data.get("unit") != self.describe(unit):
            raise ValueError("shard unit description mismatch")
        bucket = data["bucket"]
        samples = data["samples"]
        ratios = data["ratios"]
        if bucket != unit.bucket:
            raise ValueError("shard bucket mismatch")
        if not isinstance(samples, int) or samples < 0:
            raise ValueError(f"invalid sample count {samples!r}")
        if not isinstance(ratios, dict):
            raise ValueError("ratios is not a mapping")
        expected = set(unit.algorithms) if samples else set()
        if set(ratios) != expected:
            raise ValueError("ratios cover the wrong algorithm set")
        for name, value in ratios.items():
            if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
                raise ValueError(f"ratio {name}={value!r} out of range")
        accepted = data.get("accepted")
        if accepted is not None:
            if not isinstance(accepted, dict) or set(accepted) != set(ratios):
                raise ValueError("accepted counts cover the wrong algorithms")
            for name, count in accepted.items():
                if not isinstance(count, int) or not 0 <= count <= samples:
                    raise ValueError(f"accepted {name}={count!r} out of range")
            accepted = {name: int(count) for name, count in accepted.items()}
        return BucketOutcome(
            bucket=bucket,
            samples=samples,
            ratios={name: float(value) for name, value in ratios.items()},
            accepted=accepted,
        )


def _atomic_write(path: Path, text: str) -> None:
    """All-or-nothing write: temp file in the same directory + rename.

    The temp name is unique per writer so concurrent processes sharing
    the store never clobber each other's in-flight writes; ``os.replace``
    then makes whichever finishes last win with complete content (all
    writers of one key produce identical bytes anyway).
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex[:8]}.tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


class FsStore(ShardStore):
    """Two-level ``<key-prefix>/<key>.json`` fan-out on a filesystem."""

    kind = "fs"

    def __init__(self, root: str | Path):
        super().__init__()
        self.root = Path(root)

    def shard_path(self, unit: WorkUnit) -> Path:
        """Where this unit's shard lives (two-level fan-out à la git)."""
        return self._blob_path(self.key(unit))

    def _blob_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> str | None:
        try:
            return self._blob_path(key).read_text(encoding="utf-8")
        except OSError:
            return None

    def put(self, key: str, text: str) -> Path:
        path = self._blob_path(key)
        _atomic_write(path, text)
        return path

    def exists(self, key: str) -> bool:
        return self._blob_path(key).is_file()

    def discard(self, key: str) -> None:
        self._blob_path(key).unlink(missing_ok=True)


class ObjectStore(ShardStore):
    """Flat content-keyed bucket: ``<root>/objects/<key>``.

    The minimal put/get/exists surface a remote object store exposes,
    realized on a directory so a network mount shared between hosts
    becomes a multi-writer shard store today, and an S3-style backend
    only has to reimplement the four blob primitives.  Puts are
    first-writer-wins: once a key exists its (content-determined) bytes
    never change, so late duplicate writers skip the IO entirely.
    """

    kind = "object"

    def __init__(self, root: str | Path):
        super().__init__()
        self.root = Path(root)

    def _blob_path(self, key: str) -> Path:
        return self.root / "objects" / key

    def get(self, key: str) -> str | None:
        try:
            return self._blob_path(key).read_text(encoding="utf-8")
        except OSError:
            return None

    def put(self, key: str, text: str) -> Path:
        path = self._blob_path(key)
        if not path.is_file():
            _atomic_write(path, text)
        return path

    def exists(self, key: str) -> bool:
        return self._blob_path(key).is_file()

    def discard(self, key: str) -> None:
        self._blob_path(key).unlink(missing_ok=True)


#: Registered layouts, by the name the CLI/env knob uses.
STORES: dict[str, type[ShardStore]] = {
    "fs": FsStore,
    "object": ObjectStore,
}


def create_store(kind: str, root: str | Path) -> ShardStore:
    """Instantiate a registered store layout at ``root``."""
    try:
        factory = STORES[kind]
    except KeyError:
        known = "|".join(sorted(STORES))
        raise ValueError(f"unknown shard store {kind!r}; known: {known}") from None
    return factory(root)
