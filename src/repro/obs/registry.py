"""Process-local metrics: counters, gauges and quantile histograms.

One :class:`MetricsRegistry` lives per process (``repro.obs.REGISTRY``).
Everything it stores is plain picklable data, and every aggregate is
*mergeable*: a worker process can snapshot its registry, ship the snapshot
to the parent, and the parent folds it in with :meth:`MetricsRegistry.
merge` — addition for counters, element-wise max for gauges, bucket-wise
addition for histograms — so the merged result is independent of worker
count and arrival order (merge is associative and commutative; the test
suite asserts this).

Histograms are geometric-bucket sketches, not sample dumps: observing is
O(1), the state stays tiny no matter how many values stream in, and the
reported quantile ``q`` is guaranteed to lie within one bucket ratio
(:data:`Histogram.BASE`, ~9%) *above* the exact sample quantile — good
enough for p50/p95/p99 latency reporting, cheap enough for hot loops.
"""

from __future__ import annotations

import math

__all__ = ["Histogram", "MetricsRegistry"]

#: Quantiles every histogram export reports.
QUANTILES = (0.5, 0.95, 0.99)


class Histogram:
    """Geometric-bucket quantile sketch over non-negative-ish samples.

    A positive value ``v`` lands in bucket ``ceil(log(v) / log(BASE))``;
    values ``<= 0`` share one underflow bucket (quantile representative
    0.0).  The reported quantile is the containing bucket's upper edge,
    clamped to the observed ``[min, max]`` — hence ``exact <= reported <=
    exact * BASE`` for positive samples.
    """

    #: Bucket growth ratio: 2**(1/8) ≈ 1.09, i.e. 8 buckets per octave.
    BASE = 2 ** 0.125

    __slots__ = ("count", "total", "vmin", "vmax", "nonpos", "buckets")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.vmin: float | None = None
        self.vmax: float | None = None
        self.nonpos = 0
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.vmin = value if self.vmin is None else min(self.vmin, value)
        self.vmax = value if self.vmax is None else max(self.vmax, value)
        if value <= 0.0:
            self.nonpos += 1
            return
        index = math.ceil(math.log(value) / math.log(self.BASE))
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def quantile(self, q: float) -> float | None:
        """The ``q``-quantile estimate (upper bucket edge), or None when empty."""
        if self.count == 0:
            return None
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        rank = max(1, math.ceil(q * self.count))
        seen = self.nonpos
        if rank <= seen:
            return max(0.0, self.vmin or 0.0)
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if rank <= seen:
                edge = self.BASE ** index
                return max(self.vmin, min(edge, self.vmax))
        return self.vmax  # pragma: no cover - rank always falls in a bucket

    # -- merge / transport ---------------------------------------------------
    def state(self) -> dict:
        """Picklable snapshot; :meth:`merge_state` folds one back in."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.vmin,
            "max": self.vmax,
            "nonpos": self.nonpos,
            "buckets": dict(self.buckets),
        }

    def merge_state(self, state: dict) -> None:
        if not state["count"]:
            return
        self.count += state["count"]
        self.total += state["total"]
        self.vmin = (
            state["min"] if self.vmin is None else min(self.vmin, state["min"])
        )
        self.vmax = (
            state["max"] if self.vmax is None else max(self.vmax, state["max"])
        )
        self.nonpos += state["nonpos"]
        for index, count in state["buckets"].items():
            self.buckets[index] = self.buckets.get(index, 0) + count

    def summary(self) -> dict:
        """The export form: count/total/min/max plus p50/p95/p99."""
        out = {
            "count": self.count,
            "total": round(self.total, 6),
            "min": self.vmin,
            "max": self.vmax,
        }
        for q in QUANTILES:
            value = self.quantile(q)
            out[f"p{int(q * 100)}"] = (
                None if value is None else round(value, 6)
            )
        return out


class MetricsRegistry:
    """Counters, gauges and histograms for one process.

    Two counter stores coexist:

    * plain named counters (:meth:`add`) — general instrumentation and
      the landing place for merged worker snapshots;
    * *counter scopes* (:meth:`counter_scope`) — a mutable plain dict
      handed out once at import time so hot loops can do
      ``scope["key"] += 1`` with zero indirection (this is how the demand
      kernel's counters live on the registry without costing the kernel
      anything).  :meth:`counters` folds a scope's entries in as
      ``<scope>.<key>``.
    """

    def __init__(self):
        self._counters: dict[str, float] = {}
        self._scopes: dict[str, dict[str, int]] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- counters ------------------------------------------------------------
    def counter_scope(self, name: str, keys: tuple[str, ...] = ()) -> dict:
        """The mutable counter dict registered under ``name`` (created on
        first use, same object ever after — callers may keep a reference
        and increment it directly)."""
        scope = self._scopes.setdefault(name, {})
        for key in keys:
            scope.setdefault(key, 0)
        return scope

    def add(self, name: str, value: float = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + value

    def add_counters(self, values: dict[str, float]) -> None:
        for name, value in values.items():
            self.add(name, value)

    def counters(self, prefix: str = "") -> dict[str, float]:
        """Folded counter view (plain + scoped), optionally prefix-filtered."""
        out = dict(self._counters)
        for scope, entries in self._scopes.items():
            for key, value in entries.items():
                name = f"{scope}.{key}"
                out[name] = out.get(name, 0) + value
        if prefix:
            out = {k: v for k, v in out.items() if k.startswith(prefix)}
        return out

    # -- gauges / histograms -------------------------------------------------
    def set_gauge(self, name: str, value: float) -> None:
        self._gauges[name] = float(value)

    def gauges(self) -> dict[str, float]:
        return dict(self._gauges)

    def observe(self, name: str, value: float) -> None:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram()
        histogram.observe(value)

    def histogram(self, name: str) -> Histogram | None:
        return self._histograms.get(name)

    def histograms(self) -> dict[str, Histogram]:
        return dict(self._histograms)

    # -- snapshot / merge / reset --------------------------------------------
    def snapshot(self) -> dict:
        """Everything, as plain picklable data (the worker->parent wire
        format; also what :func:`repro.obs.export.to_json` renders)."""
        return {
            "counters": self.counters(),
            "gauges": self.gauges(),
            "histograms": {
                name: h.state() for name, h in self._histograms.items()
            },
        }

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` in: counters/histograms add, gauges take
        the element-wise **max**.

        Gauges are point-in-time readings, so there is no universally
        right fold — but last-writer-wins (the old behavior) made the
        merged value depend on worker *arrival order*, which varies run
        to run under any parallel backend.  Max is commutative and
        associative, so the merged registry is deterministic no matter
        how many workers report or in what order, and for the gauges the
        fabric actually ships (peak heartbeat age, worker liveness,
        utilization) the maximum is the honest summary of "what the run
        saw".  Pinned by the order-shuffled merge test.
        """
        self.add_counters(snapshot.get("counters", {}))
        for name, value in snapshot.get("gauges", {}).items():
            mine = self._gauges.get(name)
            self._gauges[name] = value if mine is None else max(mine, value)
        for name, state in snapshot.get("histograms", {}).items():
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram()
            histogram.merge_state(state)

    def reset(self) -> None:
        """Zero everything.  Scope dicts are zeroed *in place* so references
        handed out by :meth:`counter_scope` stay live."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        for scope in self._scopes.values():
            for key in scope:
                scope[key] = 0
