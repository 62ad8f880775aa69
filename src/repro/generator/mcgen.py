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
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.model import TaskColumns, TaskSet, TaskSetBatch
from repro.generator.periods import log_uniform_periods
from repro.generator.uunifast import randfixedsum, uunifast_discard

__all__ = ["GeneratorConfig", "MCTaskSetGenerator"]


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


@dataclass
class _Targets:
    """Raw (un-normalized) utilization targets for one task set."""

    hh: float
    lh: float
    ll: float
    n_high: int
    n_low: int


class MCTaskSetGenerator:
    """Generates dual-criticality task sets hitting exact utilization sums."""

    def __init__(self, config: GeneratorConfig | None = None, **kwargs):
        """Accepts a ready config or the config's keyword arguments."""
        if config is not None and kwargs:
            raise TypeError("pass either a GeneratorConfig or kwargs, not both")
        self.config = config if config is not None else GeneratorConfig(**kwargs)
        #: counters for diagnostics: generated sets, resampling retries and
        #: proportional LO/HI coupling fallbacks (see :meth:`_couple_lo_hi`)
        self.stats: dict[str, int] = {
            "generated": 0,
            "retries": 0,
            "coupling_fallbacks": 0,
        }

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
        Target validation lives in :meth:`generate_columns`, the shared
        implementation.
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
        ``MCTask`` objects.

        Consumes the RNG stream exactly as :meth:`generate` does (the two
        share this implementation), so ``generate_columns(rng, ...)``
        followed by :meth:`TaskColumns.materialize` *is* ``generate`` —
        while batched consumers that settle a set from its columns alone
        (exact prefilters, the utilization-ledger replay) skip object
        construction entirely.
        """
        if not 0 <= u_lh <= u_hh:
            raise ValueError(f"need 0 <= U_LH <= U_HH, got {u_lh} > {u_hh}")
        if u_ll < 0:
            raise ValueError(f"U_LL must be non-negative, got {u_ll}")
        for _ in range(self.config.max_attempts):
            targets = self._draw_structure(rng, u_hh, u_lh, u_ll)
            if targets is None:
                self.stats["retries"] += 1
                continue
            columns = self._realize(rng, targets)
            if columns is not None:
                self.stats["generated"] += 1
                return columns
            self.stats["retries"] += 1
        return None

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
        would produce (failures are skipped, as in :meth:`generate_many`).
        Cross-set draws are *not* fused into one stream on purpose: the
        sweep harness derives an independent generator per replicate so
        shards stay order-independent and resumable, and the batch contract
        has to preserve that derivation to keep sweep results bit-identical.
        """
        columns = []
        for rng in rngs:
            cols = self.generate_columns(rng, u_hh, u_lh, u_ll)
            if cols is not None:
                columns.append(cols)
        return TaskSetBatch(columns, service_model=service_model)

    def generate_many(
        self,
        rng: np.random.Generator,
        u_hh: float,
        u_lh: float,
        u_ll: float,
        count: int,
    ) -> list[TaskSet]:
        """Up to ``count`` task sets for the same targets (skips failures)."""
        out = []
        for _ in range(count):
            ts = self.generate(rng, u_hh, u_lh, u_ll)
            if ts is not None:
                out.append(ts)
        return out

    # -- structure ------------------------------------------------------------
    def _draw_structure(
        self,
        rng: np.random.Generator,
        u_hh: float,
        u_lh: float,
        u_ll: float,
    ) -> _Targets | None:
        cfg = self.config
        hh, lh, ll = u_hh * cfg.m, u_lh * cfg.m, u_ll * cfg.m
        n_lo, n_hi = cfg.task_count_range
        n = int(rng.integers(n_lo, n_hi + 1))
        n_high = int(round(cfg.p_high * n))
        n_high = min(max(n_high, 1), n - 1)
        n_low = n - n_high
        feasible = (
            n_high * cfg.u_min <= hh <= n_high * cfg.u_max
            and n_high * cfg.u_min <= lh
            and n_low * cfg.u_min <= ll <= n_low * cfg.u_max
        )
        if not feasible:
            return None
        return _Targets(hh, lh, ll, n_high, n_low)

    # -- utilizations ------------------------------------------------------------
    def _draw_vector(
        self, rng: np.random.Generator, n: int, total: float, u_max: float
    ) -> np.ndarray | None:
        """One utilization vector in ``[u_min, u_max]^n`` summing to total."""
        cfg = self.config
        values = uunifast_discard(
            rng, n, total, cfg.u_min, u_max, max_attempts=100
        )
        if values is None:
            values = randfixedsum(rng, n, total, cfg.u_min, u_max)
        return values

    def _couple_lo_hi(
        self,
        rng: np.random.Generator,
        u_high: np.ndarray,
        lh: float,
    ) -> np.ndarray | None:
        """LO utilizations for HC tasks: sum ``lh`` and ``u_lo <= u_hi``.

        Tries unbiased random pairing first, then rank pairing (sort both
        descending), then the exact proportional fallback
        ``u_lo = u_hi * lh / sum(u_hi)``.

        Both pairings are decided on Python lists: rank pairing succeeds
        iff the k-th largest LO value is at most the k-th largest bound
        for every k, whichever way argsort breaks ties (adding 1e-12 is
        monotone, so it commutes with sorting).  The paired vector is
        built with argsort only once it is accepted, so ties among
        clipped randfixedsum values land where they always did.
        """
        cfg = self.config
        n = len(u_high)
        bound = (u_high + 1e-12).tolist()
        bound_desc = sorted(bound, reverse=True)
        for _ in range(20):
            u_low = self._draw_vector(rng, n, lh, cfg.u_max)
            if u_low is None:
                break
            low = u_low.tolist()
            if all(a <= b for a, b in zip(low, bound)):
                return np.minimum(u_low, u_high)
            low.sort(reverse=True)
            if all(a <= b for a, b in zip(low, bound_desc)):
                paired = np.empty(n)
                paired[np.argsort(-u_high)] = u_low[np.argsort(-u_low)]
                return np.minimum(paired, u_high)
        self.stats["coupling_fallbacks"] += 1
        scale = lh / u_high.sum()
        if scale > 1.0 + 1e-12:
            return None
        return u_high * min(scale, 1.0)

    # -- realization -----------------------------------------------------------
    def _realize(self, rng: np.random.Generator, t: _Targets) -> TaskColumns | None:
        """Columnar realization of one structure draw (HC rows first).

        The execution-requirement columns are elementwise transcriptions of
        the historical per-task loop (IEEE multiply/``ceil``/``floor`` are
        correctly-rounded primitives, so array and scalar evaluation agree
        bit-for-bit), and the only RNG consumers — the utilization vectors,
        the period draw and the constrained-deadline draws — run in the
        loop's exact stream order.
        """
        cfg = self.config
        u_hi = self._draw_vector(rng, t.n_high, t.hh, cfg.u_max)
        if u_hi is None:
            return None
        u_lo_high = self._couple_lo_hi(rng, u_hi, t.lh)
        if u_lo_high is None:
            return None
        u_lo_low = self._draw_vector(rng, t.n_low, t.ll, cfg.u_max)
        if u_lo_low is None:
            return None

        n = t.n_high + t.n_low
        periods = log_uniform_periods(rng, n, cfg.t_min, cfg.t_max)
        periods_h = periods[: t.n_high]
        periods_l = periods[t.n_high :]
        c_lo_h = np.maximum(1, np.ceil(u_lo_high * periods_h)).astype(np.int64)
        c_hi_h = np.maximum(c_lo_h, np.ceil(u_hi * periods_h).astype(np.int64))
        c_lo_l = np.maximum(1, np.ceil(u_lo_low * periods_l)).astype(np.int64)

        wcet_lo = np.concatenate([c_lo_h, c_lo_l])
        wcet_hi = np.concatenate([c_hi_h, c_lo_l])
        if cfg.deadline_type == "implicit":
            deadline = periods.copy()
        else:
            # The bound of each task's deadline draw is its HI budget, so
            # the draws stay scalar, in task order — the historical stream.
            deadline = np.empty(n, dtype=np.int64)
            for i in range(n):
                deadline[i] = self._draw_deadline(
                    rng, int(wcet_hi[i]), int(periods[i])
                )

        factor = cfg.degradation_factor
        wcet_degraded = np.full(n, -1, dtype=np.int64)
        if factor is not None:
            wcet_degraded[t.n_high :] = np.floor(factor * c_lo_l).astype(np.int64)
        is_high = np.zeros(n, dtype=bool)
        is_high[: t.n_high] = True
        return TaskColumns(
            period=periods.astype(np.int64, copy=False),
            wcet_lo=wcet_lo,
            wcet_hi=wcet_hi,
            deadline=deadline,
            is_high=is_high,
            wcet_degraded=wcet_degraded,
            period_degraded=np.full(n, -1, dtype=np.int64),
        )

    def _draw_deadline(
        self, rng: np.random.Generator, wcet_hi: int, period: int
    ) -> int:
        if self.config.deadline_type == "implicit":
            return period
        return int(rng.integers(wcet_hi, period + 1))
