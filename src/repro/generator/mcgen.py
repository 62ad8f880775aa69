"""Fair dual-criticality task-set generator (Section IV of the paper).

Reimplements the generator of Ramanathan & Easwaran, "Evaluation of
Mixed-Criticality Scheduling Algorithms using a Fair Taskset Generator"
(WATERS 2016), as parameterized in the DATE 2017 paper:

* ``m`` processors; targets are the *normalized* system utilizations
  ``U_HH``, ``U_LH``, ``U_LL`` (multiplied by ``m`` to obtain raw sums);
* task count ``n`` uniform in ``[m+1, 5m]``; a fraction ``PH`` of tasks is
  HC (default 0.5, varied in Figure 6);
* individual utilizations in ``[u_min, u_max] = [0.001, 0.99]``, drawn with
  UUniFast-discard (randfixedsum fallback when rejection rates explode);
* HC tasks additionally satisfy ``u_i^L <= u_i^H`` with
  ``sum u_i^L = m * U_LH`` exactly;
* periods log-uniform in ``[10, 500]``; ``C = ceil(u * T)``; deadlines equal
  to periods (implicit) or uniform in ``[C^H, T]`` (constrained).

Generation runs in two phases.  :meth:`MCTaskSetGenerator.draw` makes every
RNG-consuming draw of one task set on Python scalars, in the historical
stream order, and returns a small :class:`SetDraws` record;
:meth:`MCTaskSetGenerator.build` turns any number of records into one
columnar :class:`~repro.model.batch.TaskSetBatch` in a single numpy pass.
Every public entry point (:meth:`~MCTaskSetGenerator.generate`,
``generate_columns``, ``generate_batch`` and the sweep's
``batch_for_bucket``) is these two phases.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from repro import obs as _obs
from repro.model import TaskColumns, TaskSet, TaskSetBatch
from repro.generator.periods import log_period_draws, round_periods
from repro.generator.uunifast import discard_values, randfixedsum

__all__ = ["GeneratorConfig", "MCTaskSetGenerator", "SetDraws"]


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the fair task-set generator (paper defaults)."""

    m: int = 2
    u_min: float = 0.001
    u_max: float = 0.99
    p_high: float = 0.5
    n_min: int | None = None  #: default m + 1
    n_max: int | None = None  #: default 5 * m
    t_min: int = 10
    t_max: int = 500
    deadline_type: str = "implicit"  #: "implicit" or "constrained"
    max_attempts: int = 64  #: resampling attempts before giving up
    #: when set, every generated LC task carries an explicit per-task
    #: degraded budget ``wcet_degraded = floor(degradation_factor * C^L)``
    #: for the degradation-aware service models (:mod:`repro.degradation`);
    #: None (the default) leaves the fields unset — bit-identical output
    degradation_factor: float | None = None

    def __post_init__(self) -> None:
        if self.m <= 0:
            raise ValueError(f"m must be positive, got {self.m}")
        if not 0 < self.u_min < self.u_max <= 1.0:
            raise ValueError(
                f"need 0 < u_min < u_max <= 1, got [{self.u_min}, {self.u_max}]"
            )
        if not 0.0 < self.p_high < 1.0:
            raise ValueError(f"p_high must be in (0, 1), got {self.p_high}")
        lo, hi = self.task_count_range
        if not 2 <= lo <= hi:
            raise ValueError(f"invalid task count range [{lo}, {hi}]")
        if not 0 < self.t_min <= self.t_max:
            raise ValueError(
                f"need 0 < t_min <= t_max, got [{self.t_min}, {self.t_max}]"
            )
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be at least 1, got {self.max_attempts}"
            )
        if self.deadline_type not in ("implicit", "constrained"):
            raise ValueError(
                "deadline_type must be 'implicit' or 'constrained', "
                f"got {self.deadline_type!r}"
            )
        if self.degradation_factor is not None and not (
            0.0 <= self.degradation_factor <= 1.0
        ):
            raise ValueError(
                f"degradation_factor must be in [0, 1], "
                f"got {self.degradation_factor}"
            )

    @property
    def task_count_range(self) -> tuple[int, int]:
        """Inclusive ``(n_min, n_max)`` with the paper's ``[m+1, 5m]`` default."""
        lo = self.n_min if self.n_min is not None else self.m + 1
        hi = self.n_max if self.n_max is not None else 5 * self.m
        return lo, hi


class SetDraws(NamedTuple):
    """Phase-1 record: the RNG-derived values of one task set.

    Rows are in generator order, HC tasks first.  Holds Python floats and
    the raw period draw only; :meth:`MCTaskSetGenerator.build` derives
    every integer column from it.
    """

    n_high: int
    u_lo: list[float]  #: LO utilization per task
    u_hi: list[float]  #: HI utilization per task, 0.0 on LC rows
    raw: np.ndarray  #: log-period draws (:func:`log_period_draws`)
    #: constrained deadlines only: the set's rounded periods and its
    #: deadline draws (implicit: both None)
    period: np.ndarray | None
    deadline: list[int] | None


def _concat(arrays: list[np.ndarray], dtype) -> np.ndarray:
    return np.concatenate(arrays) if arrays else np.empty(0, dtype=dtype)


class MCTaskSetGenerator:
    """Generates dual-criticality task sets hitting exact utilization sums."""

    def __init__(self, config: GeneratorConfig | None = None, **kwargs):
        """Accepts a ready config or the config's keyword arguments."""
        if config is not None and kwargs:
            raise TypeError("pass either a GeneratorConfig or kwargs, not both")
        self.config = config if config is not None else GeneratorConfig(**kwargs)
        #: deterministic work counters: generated sets, resampling retries,
        #: proportional LO/HI coupling fallbacks (see :meth:`_couple_lo_hi`)
        #: and UUniFast-discard fold attempts
        self.stats: dict[str, int] = {
            "generated": 0,
            "retries": 0,
            "coupling_fallbacks": 0,
            "fold_attempts": 0,
        }
        #: raw target triple -> whether any task count can hold it
        self._fillable_cache: dict[tuple[float, float, float], bool] = {}

    # -- public API ---------------------------------------------------------
    def generate(
        self,
        rng: np.random.Generator,
        u_hh: float,
        u_lh: float,
        u_ll: float,
    ) -> TaskSet | None:
        """One task set with normalized targets ``(U_HH, U_LH, U_LL)``.

        Returns None when the targets are infeasible under the config (e.g.
        ``m * U_HH > n_max * u_max``) after ``max_attempts`` resamples.
        Target validation lives in :meth:`draw`, the shared first phase.
        """
        columns = self.generate_columns(rng, u_hh, u_lh, u_ll)
        if columns is None:
            return None
        return columns.materialize()

    def generate_columns(
        self,
        rng: np.random.Generator,
        u_hh: float,
        u_lh: float,
        u_ll: float,
    ) -> TaskColumns | None:
        """Numeric columns of one task set — :meth:`generate` without the
        ``MCTask`` objects: the one-record case of :meth:`build`."""
        draws = self.draw(rng, u_hh, u_lh, u_ll)
        if draws is None:
            return None
        return self.build([draws]).columns(0)

    def generate_batch(
        self,
        rngs: Iterable[np.random.Generator],
        u_hh: float,
        u_lh: float,
        u_ll: float,
        service_model=None,
    ) -> TaskSetBatch:
        """One columnar batch for the same targets, one derived RNG per set.

        Each stream is consumed exactly as one scalar :meth:`generate` call
        would consume it, so the batch holds — column for column — the task
        sets ``[self.generate(rng, u_hh, u_lh, u_ll) for rng in rngs]``
        would produce, minus the failures (a set :meth:`generate` returns
        None for is skipped).
        Cross-set draws are *not* fused into one stream on purpose: the
        sweep harness derives an independent generator per replicate so
        shards stay order-independent and resumable, and the batch contract
        has to preserve that derivation to keep sweep results bit-identical.
        """
        records = [self.draw(rng, u_hh, u_lh, u_ll) for rng in rngs]
        return self.build(
            [r for r in records if r is not None], service_model=service_model
        )

    # -- phase 1: the draws -----------------------------------------------------
    def draw(
        self,
        rng: np.random.Generator,
        u_hh: float,
        u_lh: float,
        u_ll: float,
    ) -> SetDraws | None:
        """Every draw of one task set, or None after ``max_attempts``
        infeasible structure or realization draws.

        Targets that no task count in the config's range can hold make
        their ``max_attempts`` task-count draws in one call: the same
        stream state and ``stats`` as the attempt loop, in one step.

        The one target validation: ``0 <= U_LH <= U_HH``, ``U_LL >= 0``,
        all finite.
        """
        if not all(map(math.isfinite, (u_hh, u_lh, u_ll))):
            raise ValueError(
                f"targets must be finite, got ({u_hh}, {u_lh}, {u_ll})"
            )
        if not 0 <= u_lh <= u_hh:
            raise ValueError(f"need 0 <= U_LH <= U_HH, got {u_lh} > {u_hh}")
        if u_ll < 0:
            raise ValueError(f"U_LL must be non-negative, got {u_ll}")
        cfg = self.config
        m = cfg.m
        hh, lh, ll = u_hh * m, u_lh * m, u_ll * m
        stats = self.stats
        if not self._fillable(hh, lh, ll):
            # Every attempt would fail right after its task-count draw.
            n_lo, n_hi = cfg.task_count_range
            rng.integers(n_lo, n_hi + 1, size=cfg.max_attempts)
            stats["retries"] += cfg.max_attempts
            if _obs.active():
                _obs.REGISTRY.add("generator.empty-draws")
            return None
        for _ in range(cfg.max_attempts):
            draws = self._draw_once(rng, hh, lh, ll)
            if draws is not None:
                stats["generated"] += 1
                return draws
            stats["retries"] += 1
        return None

    def _n_high(self, n: int, hh: float, lh: float, ll: float) -> int | None:
        """The HC task count of an ``n``-task set, or None when no
        utilizations in ``[u_min, u_max]`` can meet the raw targets with
        that split (the structural test of every attempt)."""
        cfg = self.config
        n_high = min(max(int(round(cfg.p_high * n)), 1), n - 1)
        n_low = n - n_high
        feasible = (
            n_high * cfg.u_min <= hh <= n_high * cfg.u_max
            and n_high * cfg.u_min <= lh
            and n_low * cfg.u_min <= ll <= n_low * cfg.u_max
        )
        return n_high if feasible else None

    def _fillable(self, hh: float, lh: float, ll: float) -> bool:
        """Whether some task count in the config's range passes
        :meth:`_n_high` on the raw targets (cached per target triple)."""
        key = (hh, lh, ll)
        fillable = self._fillable_cache.get(key)
        if fillable is None:
            n_lo, n_hi = self.config.task_count_range
            fillable = any(
                self._n_high(n, hh, lh, ll) is not None
                for n in range(n_lo, n_hi + 1)
            )
            self._fillable_cache[key] = fillable
        return fillable

    def _draw_once(
        self, rng: np.random.Generator, hh: float, lh: float, ll: float
    ) -> SetDraws | None:
        """One structure and realization draw on raw targets (the stream
        order: task count, HC HI vector, LO coupling, LC vector, periods,
        deadlines), or None when a step is infeasible."""
        cfg = self.config
        n_lo, n_hi = cfg.task_count_range
        n = int(rng.integers(n_lo, n_hi + 1))
        n_high = self._n_high(n, hh, lh, ll)
        if n_high is None:
            return None
        n_low = n - n_high
        u_hi = self._draw_vector(rng, n_high, hh)
        if u_hi is None:
            return None
        u_lo = self._couple_lo_hi(rng, u_hi, lh)
        if u_lo is None:
            return None
        u_lo_low = self._draw_vector(rng, n_low, ll)
        if u_lo_low is None:
            return None
        u_lo += u_lo_low
        u_hi += [0.0] * n_low
        raw = log_period_draws(rng, n, cfg.t_min, cfg.t_max)
        if cfg.deadline_type == "implicit":
            return SetDraws(n_high, u_lo, u_hi, raw, None, None)
        # Each deadline draw is bounded by its task's HI budget, so the set
        # needs its periods and C^H now: the same rounding and ceilings
        # :meth:`build` applies (C^H = C^L on LC rows, whose u_hi is 0).
        period = round_periods(raw, cfg.t_min, cfg.t_max)
        deadline = []
        for u_l, u_h, t in zip(u_lo, u_hi, period.tolist()):
            c_lo = max(1, math.ceil(u_l * t))
            c_hi = max(c_lo, math.ceil(u_h * t))
            deadline.append(int(rng.integers(c_hi, t + 1)))
        return SetDraws(n_high, u_lo, u_hi, raw, period, deadline)

    def _draw_vector(
        self, rng: np.random.Generator, n: int, total: float
    ) -> list[float] | None:
        """One utilization vector in ``[u_min, u_max]^n`` summing to total."""
        cfg = self.config
        values, folds = discard_values(
            rng, n, total, cfg.u_min, cfg.u_max, max_attempts=100
        )
        self.stats["fold_attempts"] += folds
        if values is None:
            vector = randfixedsum(rng, n, total, cfg.u_min, cfg.u_max)
            if vector is not None:
                values = vector.tolist()
        return values

    def _couple_lo_hi(
        self,
        rng: np.random.Generator,
        u_high: list[float],
        lh: float,
    ) -> list[float] | None:
        """LO utilizations for HC tasks: sum ``lh`` and ``u_lo <= u_hi``.

        Tries unbiased random pairing first, then rank pairing (sort both
        descending), then the exact proportional fallback
        ``u_lo = u_hi * lh / sum(u_hi)``.

        Both pairings are decided on Python lists: rank pairing succeeds
        iff the k-th largest LO value is at most the k-th largest bound
        for every k, whichever way argsort breaks ties (adding 1e-12 is
        monotone, so it commutes with sorting).  When ``u_high`` has no
        ties the descending order of its rows is unique, so an accepted
        pairing is built on lists too; with ties (clipped randfixedsum
        values) it is built with numpy's argsort, so tied rows get their
        LO values where they always did.  The proportional fallback keeps
        numpy's pairwise sum for the same reason.
        """
        n = len(u_high)
        bound = [u + 1e-12 for u in u_high]
        bound_desc = sorted(bound, reverse=True)
        for _ in range(20):
            u_low = self._draw_vector(rng, n, lh)
            if u_low is None:
                break
            if all(map(operator.le, u_low, bound)):
                return list(map(min, u_low, u_high))
            low_desc = sorted(u_low, reverse=True)
            if all(map(operator.le, low_desc, bound_desc)):
                if len(set(u_high)) == n:
                    paired = [0.0] * n
                    order = sorted(range(n), key=u_high.__getitem__, reverse=True)
                    for row, value in zip(order, low_desc):
                        paired[row] = value
                    return list(map(min, paired, u_high))
                high, low = np.array(u_high), np.array(u_low)
                paired = np.empty(n)
                paired[np.argsort(-high)] = low[np.argsort(-low)]
                return np.minimum(paired, high).tolist()
        self.stats["coupling_fallbacks"] += 1
        scale = lh / np.array(u_high).sum()
        if scale > 1.0 + 1e-12:
            return None
        scale = float(min(scale, 1.0))
        return [u * scale for u in u_high]

    # -- phase 2: the columns ---------------------------------------------------
    def build(
        self, records: Sequence[SetDraws], service_model=None
    ) -> TaskSetBatch:
        """The columnar batch of ``records``, in order, in one numpy pass.

        Every column is an elementwise function of the concatenated draws
        (``exp``, round-to-nearest, IEEE multiply, ``ceil``, ``floor``), so
        it equals the per-set evaluation bit for bit.
        """
        cfg = self.config
        counts = np.fromiter(
            (len(r.u_lo) for r in records), dtype=np.int64, count=len(records)
        )
        offsets = np.zeros(len(records) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        total = int(offsets[-1])
        if cfg.deadline_type == "implicit":
            period = round_periods(
                _concat([r.raw for r in records], np.float64), cfg.t_min, cfg.t_max
            )
            deadline = period.copy()
        else:
            period = _concat([r.period for r in records], np.int64)
            deadline = np.fromiter(
                chain.from_iterable(r.deadline for r in records),
                dtype=np.int64, count=total,
            )
        u_lo = np.fromiter(
            chain.from_iterable(r.u_lo for r in records), dtype=np.float64, count=total
        )
        u_hi = np.fromiter(
            chain.from_iterable(r.u_hi for r in records), dtype=np.float64, count=total
        )
        wcet_lo = np.maximum(1, np.ceil(u_lo * period)).astype(np.int64)
        wcet_hi = np.maximum(wcet_lo, np.ceil(u_hi * period).astype(np.int64))
        rank = np.arange(total) - np.repeat(offsets[:-1], counts)
        n_high = np.fromiter(
            (r.n_high for r in records), dtype=np.int64, count=len(records)
        )
        is_high = rank < np.repeat(n_high, counts)
        wcet_degraded = np.full(total, -1, dtype=np.int64)
        if cfg.degradation_factor is not None:
            low = ~is_high
            wcet_degraded[low] = np.floor(
                cfg.degradation_factor * wcet_lo[low]
            ).astype(np.int64)
        return TaskSetBatch.from_arrays(
            (
                offsets, period, wcet_lo, wcet_hi, deadline, is_high,
                wcet_degraded, np.full(total, -1, dtype=np.int64),
            ),
            service_model=service_model,
        )
