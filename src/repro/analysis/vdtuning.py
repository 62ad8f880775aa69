"""Virtual-deadline tuning engine shared by the EY and ECDF tests.

Both demand-based tests search for per-HC-task virtual deadlines ``Dv_i``
such that the LO-mode and HI-mode dbf checks of
:class:`~repro.analysis.dbf.DemandScenario` pass simultaneously.  Shrinking
``Dv_i`` moves demand from the HI window into the LO window:

* LO-mode demand of task i *increases* (its jobs get earlier deadlines);
* HI-mode demand of task i *decreases* (its carry-over gets more residual
  time, ``D_i - Dv_i``).

The engine implements the descent loop both published algorithms share:

1. start from ``Dv_i = D_i``; if LO already fails, reject (shrinking only
   makes LO worse);
2. unrefined stages only: put every HC task at its V* — its minimal
   LO-feasible ``Dv`` with every other task at ``D_j`` — and reject if the
   HI check fails there.  Lemma: any assignment a stage can accept is
   LO-feasible, hence at or above every task's V* (LO demand only grows as
   other deadlines shrink), and unrefined HI demand only grows with each
   ``Dv_i``, so it fails the HI check too
   (:func:`_vstar_floor_violation`);
3. while the HI check fails at its earliest violation ``l*``: pick one HC
   task by a *policy* and shrink its ``Dv`` just enough to clear the
   deficit at ``l*`` (or as far as LO-mode feasibility allows);
4. accept when the HI check passes; reject when no task can make progress.

Policies (see DESIGN.md §5 for fidelity notes):

* ``"steepest"`` (EY, Ekberg-Yi ECRTS 2012): pick the task with the largest
  HI-demand reduction at ``l*``.  The published algorithm shrinks one time
  unit per iteration; this implementation batches consecutive unit steps of
  the same pick, which follows the same descent path whenever the pick stays
  the best candidate.
* ``"ratio"`` (ECDF greedy assignment, Easwaran RTSS 2013): pick the task
  with the best HI-demand reduction per unit of LO-mode density increase —
  a benefit/cost greedy rule.

HI-demand of a task is monotonically non-increasing in ``Dv`` shrinkage, so
the minimal sufficient shrink is found by binary search with scalar dbf
evaluations.

Evaluation layer
----------------
All dbf queries the descent issues go through a :class:`DemandEngine`.  A
fresh engine (the default) reproduces the historical from-scratch behavior.
When constructed with a shared ``memo`` dict — as done by the incremental
:class:`~repro.analysis.context.DemandContext` used in partitioning hot
loops — results of the *pure* scenario queries (LO/HI violations, shrink
searches, :class:`~repro.analysis.dbf.LoShrinkProbe` instances) are reused
across repeated evaluations.  Every memoized value is keyed by the exact
task parameters and virtual deadlines it was computed from, so reuse is an
identity-preserving optimization: verdicts, virtual deadlines and detail
strings are bit-identical with or without a memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.model import MCTask, TaskSet
from repro import obs as _obs
from repro.analysis import dbf as _dbf
from repro.analysis import dbf_block as _blk
from repro.analysis.dbf import (
    DemandScenario,
    HorizonExceeded,
    LoShrinkProbe,
    _ModeTask,
    _hi_point_demand,
    _next_breakpoint,
    approx_accepts,
    first_violation,
    hi_mode_dbf,
    lc_hi_mode_entries,
    lo_feasible_exact,
    overload_marker,
    qpa_violation_search,
)

__all__ = [
    "DemandEngine",
    "TuningOutcome",
    "tune_virtual_deadlines",
    "run_tuning_stages",
]

#: Hard cap on descent iterations per analysis (each iteration makes at
#: least one unit of demand progress at the current violation; the cap only
#: guards against pathological thrashing across violation points).
_MAX_ITERATIONS = 400

#: Breakpoints the scalar peek checks past the violation front before the
#: first window walk and the QPA search take over (a pure cost policy:
#: every kernel decides the same predicate).
_MICRO_WALK = 2

#: Screen calls per scaffolding entry before the descent stops screening
#: and pays the exact probe.  Screens are accept-only, so the budget is a
#: pure cost policy.
_SCREEN_BUDGET = 2


@dataclass(frozen=True)
class TuningOutcome:
    """Result of the virtual-deadline search."""

    schedulable: bool
    virtual_deadlines: dict[int, int]
    iterations: int
    detail: str = ""


def _hi_gain(task: MCTask, vd_now: int, shrink: int, length: int) -> int:
    """HI-demand reduction at ``length`` when ``Dv`` shrinks by ``shrink``."""
    return hi_mode_dbf(task, vd_now, length) - hi_mode_dbf(
        task, vd_now - shrink, length
    )


def _min_shrink_for_gain(task: MCTask, vd_now: int, length: int) -> int | None:
    """Smallest shrink with positive HI-demand gain at ``length``; None if
    no shrink up to the structural limit (``Dv >= C_L``) helps."""
    max_shrink = vd_now - task.wcet_lo
    if max_shrink <= 0:
        return None
    residual = task.deadline - vd_now
    x = length - residual
    if x < 0:
        return None  # shrinking moves the carry-over even further out
    r0 = x % task.period
    # Inside the carry-over ramp every unit shrink gains one unit; above the
    # ramp the first ``r0 - C_L + 1`` units gain nothing.
    first = 1 if r0 < task.wcet_lo else (r0 - task.wcet_lo + 1)
    if first > max_shrink:
        return None
    return first


def _shrink_to_clear(
    task: MCTask, vd_now: int, length: int, deficit: int
) -> int:
    """Smallest shrink whose HI gain at ``length`` reaches
    ``min(deficit, the task's maximum achievable gain)``.

    When the task alone cannot clear the deficit, this still returns the
    *minimal* shrink realizing its best contribution — over-shrinking would
    needlessly inflate LO-mode demand and strand later adjustments.
    Relies on HI-demand being non-increasing in the shrink amount; the
    minimal shrink is recovered in closed form by inverting the task's
    single-task HI staircase (:func:`_invert_shrink`), which the
    differential suite checks against the historical bisection
    (:func:`_shrink_to_clear_bisect`) point for point.
    """
    max_shrink = vd_now - task.wcet_lo
    target = min(deficit, _hi_gain(task, vd_now, max_shrink, length))
    if target <= 0:
        return max_shrink
    return _invert_shrink(task, vd_now, length, target)


def _invert_shrink(task: MCTask, vd_now: int, length: int, target: int) -> int:
    """Minimal ``s >= 1`` with ``_hi_gain(task, vd_now, s, length) >= target``.

    ``gain(s) = H(x) - H(x - s)`` for the task's single-task HI staircase
    ``H(y) = (y//T + 1) C_H - max(0, C_L - y mod T)`` (0 for ``y < 0``) and
    ``x = length - (D - vd_now)``.  ``H`` is non-decreasing, so the minimal
    shrink is ``x - y*`` for ``y*`` the largest ``y <= x - 1`` with
    ``H(y) <= H(x) - target`` — found by inverting one staircase window.
    The caller guarantees a reaching shrink exists within
    ``vd_now - C_L``.
    """
    period, wcet_lo, wcet_hi = task.period, task.wcet_lo, task.wcet_hi
    x = length - (task.deadline - vd_now)
    if x >= 0:
        d_now = (x // period + 1) * wcet_hi - max(0, wcet_lo - x % period)
    else:
        d_now = 0
    level = d_now - target
    # Largest y >= 0 with H(y) <= level; -1 when no such y (H(-1) = 0).
    jobs = (level + wcet_lo) // wcet_hi - 1
    if jobs < 0:
        y_star = -1
    else:
        need = (jobs + 1) * wcet_hi - level
        if need <= 0:
            y_star = jobs * period + period - 1
        else:
            y_star = jobs * period + wcet_lo - need
    return max(1, x - y_star)


def _shrink_to_clear_bisect(
    task: MCTask, vd_now: int, length: int, deficit: int
) -> int:
    """The historical bisection — the differential oracle for
    :func:`_shrink_to_clear` (identical results, O(log D) gain probes)."""
    max_shrink = vd_now - task.wcet_lo
    target = min(deficit, _hi_gain(task, vd_now, max_shrink, length))
    if target <= 0:
        return max_shrink
    lo, hi = 1, max_shrink
    while lo < hi:
        mid = (lo + hi) // 2
        if _hi_gain(task, vd_now, mid, length) >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _forward_hi_check(
    tasks: list[_ModeTask],
    meta: tuple,
    refine: bool,
    not_before: int,
    n_trigger: int,
) -> tuple[int | None, int | None]:
    """Fused :meth:`DemandScenario.hi_violation` + demand-at-violation.

    The earliest violating check point at or after ``not_before`` (a scan
    hint: the caller proves no violation lies below it) and the demand
    there, or ``(None, None)``.  ``tasks`` is the HI-mode
    :class:`_ModeTask` list exactly as :class:`DemandScenario` would build
    it; ``meta`` is its cached :meth:`DemandEngine._hi_meta` entry, whose
    horizon state replays the scenario's cap and overload outcomes.
    """
    state, _ = meta
    if state[0] == "raise":
        raise state[1]
    horizon = state[1]
    if horizon is None:
        # Utilization above 1: report the shared overload marker (see the
        # contract on repro.analysis.dbf.overload_marker — a marker, not
        # the earliest violating length).
        violation = overload_marker(tasks)
        return (violation, _hi_point_demand(tasks, violation, refine, n_trigger))
    demand_at = partial(
        _hi_point_demand, tasks, refine=refine, n_trigger=n_trigger
    )
    found = first_violation(tasks, not_before, horizon, demand_at, ramps=True)
    return (None, None) if found is None else found


class DemandEngine:
    """Evaluation layer between the descent loop and the dbf machinery.

    One engine serves one candidate ``taskset``.  Without a ``memo`` the
    engine only keeps the single most recent :class:`DemandScenario` (the
    descent queries each virtual-deadline assignment a couple of times in a
    row), matching the historical from-scratch cost profile.  With a shared
    ``memo`` dict — one per core, owned by an incremental analysis context —
    all pure query results persist and are reused across probes and across
    the multi-stage ECDF fallback chain.

    Memo keys embed the task ids and the exact virtual deadlines a value was
    computed from (HI-mode keys cover HC tasks only, because LC tasks
    contribute no HI demand — this lets LC probes on the same core share
    all HI-mode work).  Values are therefore reusable only where the fresh
    computation would return the identical result, which is what makes the
    incremental path bit-identical to the from-scratch path by construction.
    """

    def __init__(
        self,
        taskset: TaskSet,
        horizon_cap: int,
        memo: dict | None = None,
    ):
        self.taskset = taskset
        self.horizon_cap = horizon_cap
        self._memo = memo
        self._last: tuple[tuple[int, ...], DemandScenario] | None = None
        self._high = tuple(t for t in taskset if t.is_high)
        self._high_ids = tuple(t.task_id for t in self._high)
        #: degraded LC tasks' HI-mode abstraction (empty under drop
        #: semantics) — vd-independent, appended after the HC entries —
        #: plus their identity suffix for HI-mode memo keys: with degraded
        #: service the HI checks depend on the candidate's LC tasks too, so
        #: probes with different LC members must not share HI entries.
        #: Both stay empty (hence key-shape preserving) under drop
        #: semantics.  The abstraction itself comes from the single shared
        #: definition in :func:`repro.analysis.dbf.lc_hi_mode_entries`.
        entries = lc_hi_mode_entries(taskset)
        self._lc_hi = [mode_task for _, mode_task in entries]
        self._lc_sig = tuple(task_id for task_id, _ in entries)
        #: per-candidate cache of the uniform-scaling search outcome
        self._uniform: dict[bool, tuple] = {}
        #: QPA warm-start anchor, learned from *unrefined* runs at the
        #: *full-deadline* assignment — the componentwise maximum of every
        #: assignment, whose unrefined HI demand therefore dominates all
        #: others pointwise.  Such a run proves "no unrefined violation
        #: above t" (t = the largest violation, or 0 on a pass); every
        #: dominated assignment inherits that certificate, and since the
        #: trigger refinement only subtracts demand *of the same
        #: assignment*, the certificate covers refined queries too.
        #: Refined runs never anchor: the trigger cut's residues move with
        #: the residual deadlines, so refined demand is not monotone under
        #: deadline domination.  None = not yet learned (learned lazily by
        #: a dedicated unrefined run, see :meth:`_ensure_anchor`); -1 =
        #: unavailable (the full-deadline horizon overruns the cap or the
        #: search aborted).
        self._qpa_anchor: int | None = None
        self._full_sig_high = tuple(
            (t.task_id, t.deadline) for t in self._high
        )
        if self._lc_sig:
            self._full_sig_high = self._full_sig_high + (
                ("lc",) + self._lc_sig,
            )

    def _hi_tasks(self, vd: dict[int, int]) -> list[_ModeTask]:
        """HI-mode :class:`_ModeTask` list for ``vd`` — field-identical to
        ``DemandScenario(...)._hi + ._hi_lc``, built from the shared memo
        without touching the LO side (the HI checks never read it)."""
        memo = self._memo
        out = []
        for t in self._high:
            key = ("mt", t.task_id, vd[t.task_id])
            mode_task = memo.get(key)
            if mode_task is None:
                mode_task = _ModeTask(
                    t.wcet_hi, t.deadline - vd[t.task_id], t.period, t.wcet_lo
                )
                memo[key] = mode_task
            out.append(mode_task)
        out.extend(self._lc_hi)
        return out

    # -- signatures ---------------------------------------------------------
    def _sig_all(self, vd: dict[int, int]) -> tuple:
        """(id, effective LO deadline) for every task, in candidate order."""
        return tuple(
            (t.task_id, vd.get(t.task_id, t.deadline)) for t in self.taskset
        )

    def _sig_high(self, vd: dict[int, int]) -> tuple:
        """(id, Dv) for the HC tasks, plus the degraded-LC identity suffix.

        Under drop semantics the HI checks ignore LC tasks entirely and the
        suffix is empty — the historical key shape.  Under a degraded
        service model the LC members contribute HI demand, so they join the
        key (ids only: their parameters derive from the engine's fixed
        service model).
        """
        sig = tuple((tid, vd[tid]) for tid in self._high_ids)
        if self._lc_sig:
            return sig + (("lc",) + self._lc_sig,)
        return sig

    def _sig_others(self, vd: dict[int, int], excluded: int) -> tuple:
        """(id, effective LO deadline) for every task except ``excluded``."""
        return tuple(
            (t.task_id, vd.get(t.task_id, t.deadline))
            for t in self.taskset
            if t.task_id != excluded
        )

    # -- scenario construction ----------------------------------------------
    def scenario(self, vd: dict[int, int]) -> DemandScenario:
        """The :class:`DemandScenario` for ``vd`` (cached)."""
        sig = tuple(vd.get(t.task_id, t.deadline) for t in self.taskset)
        if self._last is not None and self._last[0] == sig:
            return self._last[1]
        scenario = DemandScenario(self.taskset, vd, horizon_cap=self.horizon_cap)
        self._last = (sig, scenario)
        return scenario

    # -- memoized queries ----------------------------------------------------
    def _cached(self, key: tuple, compute):
        """Memo lookup; exceptions are cached and re-raised like values."""
        if self._memo is None:
            return compute()
        try:
            hit = self._memo[key]
        except KeyError:
            try:
                value = compute()
            except HorizonExceeded as exc:
                self._memo[key] = ("raise", exc)
                raise
            self._memo[key] = ("value", value)
            return value
        kind, payload = hit
        if kind == "raise":
            raise payload
        return payload

    def lo_feasible(self, vd: dict[int, int]) -> bool:
        """LO-mode dbf check verdict (conservative False on horizon cap),
        decided at witness level by :func:`~repro.analysis.dbf.
        lo_feasible_exact`."""
        return self._cached(
            ("lo", self._sig_all(vd)),
            lambda: lo_feasible_exact(self.scenario(vd)._lo, self.horizon_cap),
        )

    def _hi_meta(self, sig: tuple, tasks: list[_ModeTask]) -> tuple:
        """Cached ``(horizon state, density)`` for ``sig``.

        The horizon state is ``("h", horizon-or-None)`` or ``("raise",
        exc)`` — precomputing it once per virtual-deadline signature lets
        both refinement variants of the HI check share the float-summing
        horizon bound.  The density sizes :meth:`_qpa_hi_check`'s first
        window.
        """
        meta = self._memo.get(("hmeta", sig))
        if meta is None:
            try:
                horizon = DemandScenario._horizon(tasks, self.horizon_cap)
                if horizon is not None:
                    horizon = max(horizon, max(t.deadline for t in tasks))
                    if horizon > self.horizon_cap:
                        raise HorizonExceeded(
                            f"bound {horizon} exceeds cap {self.horizon_cap}"
                        )
                state = ("h", horizon)
            except HorizonExceeded as exc:
                state = ("raise", exc)
            meta = (state, sum(2.0 / t.period for t in tasks))
            self._memo[("hmeta", sig)] = meta
        return meta

    def hi_check(
        self, vd: dict[int, int], refine: bool, not_before: int = 0
    ) -> tuple[int | None, int | None]:
        """Earliest HI-mode violation and the demand there, fused.

        Returns ``(None, None)`` on a pass; may raise
        :class:`HorizonExceeded` exactly as the underlying scenario does.
        ``not_before`` is a scan hint for callers that can prove no
        violation exists below it (see
        :meth:`DemandScenario.hi_violation`); the returned values are the
        same with or without it, so memo entries ignore the hint.  The
        stateless (memo-free) engine also ignores it, preserving the
        published full-scan behavior of the from-scratch path.
        """
        if self._memo is None:
            scenario = self.scenario(vd)
            violation = scenario.hi_violation(refine=refine)
            if violation is None:
                return (None, None)
            return (violation, scenario.hi_demand_at(violation, refine=refine))
        sig = self._sig_high(vd)
        memo = self._memo
        key = ("hi", sig, refine)
        hit = memo.get(key)
        if hit is not None:
            if hit[0] == "raise":
                raise hit[1]
            return hit[1]
        # Upgrade a boolean-level entry (left by hi_feasible): a pass is
        # already the full answer; a known violation needs only the
        # earliest-point localization the forward walk provides.
        banked = memo.get(("hib", sig, refine))
        if banked is not None:
            if banked:
                value: tuple[int | None, int | None] = (None, None)
            else:
                tasks = self._hi_tasks(vd)
                value = _forward_hi_check(
                    tasks,
                    self._hi_meta(sig, tasks),
                    refine,
                    not_before,
                    len(self._high),
                )
            memo[key] = ("value", value)
            return value

        def compute() -> tuple[int | None, int | None]:
            # No local HC task means no local mode switch: degraded LC
            # demand never materializes, so the check passes vacuously
            # (mirrors DemandScenario.hi_violation's empty-_hi early out).
            if not self._high:
                return (None, None)
            tasks = self._hi_tasks(vd)
            meta = self._hi_meta(sig, tasks)
            if _dbf._KERNEL == "forward":
                return _forward_hi_check(
                    tasks, meta, refine, not_before, len(self._high)
                )
            return self._qpa_hi_check(sig, tasks, meta, refine, not_before)

        return self._cached(key, compute)

    def _qpa_hi_check(
        self,
        sig: tuple,
        tasks: list[_ModeTask],
        meta: tuple,
        refine: bool,
        not_before: int,
    ) -> tuple[int | None, int | None]:
        """QPA-kerneled :func:`_forward_hi_check` — identical results.

        Three layers, ordered so each call site pays its cheapest decider:

        1. a short forward walk from ``not_before`` — the tuning descent's
           violation front moves slowly, so most *violations* are caught
           within the first window of check points;
        2. the O(n·k) upper-bound screen, then the QPA backward search
           (warm-started from the full-deadline anchor) — most *passes*
           settle here without walking the rest of the horizon;
        3. a QPA witness proves a violation exists but sits at its
           *largest* length, so the earliest one — the value the descent
           consumes — is recovered by resuming the forward walk up to the
           witness (or up to an aborted search's last iterate, which
           bounds every violation just the same).
        """
        n_trigger = len(self._high)
        state, density = meta
        if state[0] == "raise":
            raise state[1]
        horizon = state[1]
        if horizon is None:
            violation = overload_marker(tasks)
            return (
                violation,
                _hi_point_demand(tasks, violation, refine, n_trigger),
            )
        # Scalar peek: ~30% of descent violations sit on the very next
        # breakpoint past the front — check a couple of points before
        # sizing the first window.
        resume = not_before
        for _ in range(_MICRO_WALK):
            point = _next_breakpoint(tasks, resume, ramps=True)
            if point is None or point > horizon:
                demand = _hi_point_demand(tasks, horizon, refine, n_trigger)
                if demand > horizon:
                    return (horizon, demand)
                return (None, None)  # every remaining check point covered
            demand = _hi_point_demand(tasks, point, refine, n_trigger)
            if demand > point:
                return (point, demand)
            resume = point + 1
        # One window of about 64 check points from there: the bulk of the
        # remaining violations land within it.
        demand_at = partial(
            _hi_point_demand, tasks, refine=refine, n_trigger=n_trigger
        )
        stop = resume + max(int(64 / density), 1)
        found = first_violation(
            tasks, resume, horizon, demand_at, ramps=True, stop=stop
        )
        if found is not None:
            return found
        if stop > horizon:
            return (None, None)  # the window covered the whole region
        status, bound = self._qpa_decide(sig, tasks, horizon, refine)
        if status == "pass":
            return (None, None)
        found = first_violation(tasks, stop, bound, demand_at, ramps=True)
        return (None, None) if found is None else found

    def _qpa_decide(
        self, sig: tuple, tasks: list[_ModeTask], horizon: int, refine: bool
    ) -> tuple[str, int | None]:
        """Anchor-warmed QPA decision of the HI predicate on ``[0, horizon]``.

        Returns ``("pass", None)``, ``("violation", witness)`` or
        ``("abort", t)`` — abort means the caller must fall back to the
        forward walk, which only needs to reach the last iterate ``t``.
        Cold searches give the upper-bound screen one sweep first; warm
        searches start at the full-deadline anchor, which bounds every
        assignment's violations from above.
        """
        self._ensure_anchor()
        start = horizon
        if self._qpa_anchor is not None and 0 <= self._qpa_anchor < start:
            start = self._qpa_anchor
        elif approx_accepts(tasks, horizon, hi=True):
            _dbf._COUNTERS["approx-accept"] += 1
            return ("pass", None)
        n_trigger = len(self._high)
        status, bound, _ = qpa_violation_search(
            tasks,
            start,
            lambda t: _hi_point_demand(tasks, t, refine, n_trigger),
            ramps=True,
        )
        if status == "pass":
            _dbf._COUNTERS["qpa-accept"] += 1
        return (status, bound)

    def _ensure_anchor(self) -> None:
        """Learn the unrefined full-deadline QPA anchor once per engine.

        One cold unrefined search at the dominating assignment buys a warm
        start for every later check of *any* assignment (see the anchor
        attribute docstring) — in particular the O(log D) feasible probes
        of the uniform-scaling bisection, which otherwise each pay a cold
        descent from the horizon.  The witness QPA stops on is the largest
        *breakpoint* violation, but a dominated assignment's breakpoints
        differ, so the anchor must bound the largest violating *integer*:
        on the piece right of the witness ``w`` the demand is flat (a
        rising piece would violate at its right breakpoint, contradicting
        ``w``'s maximality), so violations extend at most to
        ``demand(w) - 1`` — the sound anchor.  A pass anchors at 0 (no
        violations anywhere).  Unavailable (-1) when the full-deadline
        horizon overruns the cap or the search aborts.
        """
        if self._qpa_anchor is not None:
            return
        self._qpa_anchor = -1
        vd_full = {t.task_id: t.deadline for t in self._high}
        tasks = self._hi_tasks(vd_full)
        state, _ = self._hi_meta(self._full_sig_high, tasks)
        if state[0] == "raise" or state[1] is None:
            return
        horizon = state[1]
        n_trigger = len(self._high)
        if approx_accepts(tasks, horizon, hi=True):
            self._qpa_anchor = 0
            return
        status, witness, _ = qpa_violation_search(
            tasks,
            horizon,
            lambda t: _hi_point_demand(tasks, t, False, n_trigger),
            ramps=True,
        )
        if status == "pass":
            self._qpa_anchor = 0
        elif status == "violation":
            demand = _hi_point_demand(tasks, witness, False, n_trigger)
            self._qpa_anchor = demand - 1

    def hi_violation(
        self, vd: dict[int, int], refine: bool, not_before: int = 0
    ) -> int | None:
        """Earliest HI-mode violation (None = pass); see :meth:`hi_check`."""
        return self.hi_check(vd, refine, not_before)[0]

    def hi_feasible(self, vd: dict[int, int], refine: bool) -> bool:
        """``hi_violation(vd, refine) is None``, with cross-refinement
        inference and witness-level evaluation.

        The trigger refinement only ever *subtracts* demand, so a refined
        violation implies an unrefined one, and an unrefined pass implies a
        refined pass.  When the requested verdict is missing from the memo
        but the other refinement's is present and decisive in that
        direction, the answer is returned without any dbf work — the ECDF
        fallback chain re-runs its uniform-scaling search with the
        refinement toggled, and this settles most of those re-evaluations.

        Boolean consumers (the uniform-scaling bisection) never need the
        *earliest* violation, only whether one exists — exactly what the
        QPA search decides on its own.  A fresh evaluation therefore stops
        at the witness level and banks a boolean ``("hib", ...)`` memo
        entry; :meth:`hi_check` upgrades it to the earliest-point form on
        demand.  Raises :class:`HorizonExceeded` exactly like
        :meth:`hi_violation`.
        """
        memo = self._memo
        if memo is None:
            return self.hi_violation(vd, refine) is None
        sig = self._sig_high(vd)
        key = ("hi", sig, refine)
        hit = memo.get(key)
        if hit is not None:
            if hit[0] == "raise":
                raise hit[1]
            return hit[1][0] is None
        banked = memo.get(("hib", sig, refine))
        if banked is not None:
            return banked
        other = memo.get(("hi", sig, not refine))
        if other is not None and other[0] == "value":
            if refine and other[1][0] is None:
                return True  # unrefined pass => refined pass
            if not refine and other[1][0] is not None:
                return False  # refined violation => unrefined one
        obool = memo.get(("hib", sig, not refine))
        if obool is not None:
            if refine and obool:
                return True
            if not refine and not obool:
                return False
        if _dbf._KERNEL == "forward":
            return self.hi_violation(vd, refine) is None
        if not self._high:
            memo[("hib", sig, refine)] = True
            return True
        tasks = self._hi_tasks(vd)
        try:
            state, _ = self._hi_meta(sig, tasks)
            if state[0] == "raise":
                raise state[1]
        except HorizonExceeded as exc:
            memo[key] = ("raise", exc)
            raise
        horizon = state[1]
        if horizon is None:
            # Overload: a violation is guaranteed (the marker contract).
            memo[("hib", sig, refine)] = False
            return False
        status, bound = self._qpa_decide(sig, tasks, horizon, refine)
        if status == "abort":
            # Hand the rest of the question to the forward walk, up to the
            # last iterate, and keep its earliest-form answer.
            demand_at = partial(
                _hi_point_demand, tasks, refine=refine, n_trigger=len(self._high)
            )
            found = first_violation(tasks, 0, bound, demand_at, ramps=True)
            value = (None, None) if found is None else found
            memo[key] = ("value", value)
            return found is None
        feasible = status == "pass"
        memo[("hib", sig, refine)] = feasible
        return feasible

    def hi_demand_at(self, vd: dict[int, int], length: int, refine: bool) -> int:
        """Total HI-mode demand at one interval length."""
        if self._memo is None:
            return self.scenario(vd).hi_demand_at(length, refine=refine)
        return self._cached(
            ("hid", self._sig_high(vd), length, refine),
            lambda: _hi_point_demand(
                self._hi_tasks(vd), length, refine, len(self._high)
            ),
        )

    def hi_gain(self, task: MCTask, vd_now: int, shrink: int, length: int) -> int:
        if self._memo is None:
            return _hi_gain(task, vd_now, shrink, length)
        # Inlined hi_mode_dbf difference on plain ints (the caller
        # guarantees an HC task): identical arithmetic, no attribute hops.
        period, wcet_lo, wcet_hi = task.period, task.wcet_lo, task.wcet_hi
        x_now = length - (task.deadline - vd_now)
        x_new = x_now - shrink
        if x_now >= 0:
            d_now = (x_now // period + 1) * wcet_hi - max(0, wcet_lo - x_now % period)
        else:
            d_now = 0
        if x_new >= 0:
            d_new = (x_new // period + 1) * wcet_hi - max(0, wcet_lo - x_new % period)
        else:
            d_new = 0
        return d_now - d_new

    def min_shrink_for_gain(
        self, task: MCTask, vd_now: int, length: int
    ) -> int | None:
        return _min_shrink_for_gain(task, vd_now, length)

    def shrink_to_clear(
        self, task: MCTask, vd_now: int, length: int, deficit: int
    ) -> int:
        if self._memo is None:
            return _shrink_to_clear(task, vd_now, length, deficit)

        def compute() -> int:
            # _shrink_to_clear with the closed-form staircase inversion —
            # same minimal shrink the historical bisection found.
            max_shrink = vd_now - task.wcet_lo
            target = min(deficit, self.hi_gain(task, vd_now, max_shrink, length))
            if target <= 0:
                return max_shrink
            return _invert_shrink(task, vd_now, length, target)

        return self._cached(("stc", task.task_id, vd_now, length, deficit), compute)

    def lo_shrink_probe(self, vd: dict[int, int], task: MCTask):
        """The (immutable, hence shareable) :class:`LoShrinkProbe` for
        varying ``task``'s deadline with every other task fixed at ``vd``."""
        return self._cached(
            ("lsp", task.task_id, self._sig_others(vd, task.task_id)),
            lambda: self.scenario(vd).lo_shrink_probe(task),
        )

    def _lo_others_entry(
        self, vd: dict[int, int], task: MCTask, sig_o: tuple
    ) -> list:
        """The cached per-``(task, others)`` LO scaffolding.

        ``[others mode-task tuple, worst-case horizon (None = the probe
        would raise or mark always-infeasible), others' density, smallest
        screen-accepted deadline, screen-call count]`` — shared by the
        accept screens and the fast probe construction so the descent's
        repeated picks of one task build it once per surrounding
        assignment.
        """
        key = ("lofp", task.task_id, sig_o)
        prepared = self._memo.get(key)
        if prepared is None:
            others = []
            density = 0.0
            for t in self.taskset:
                if t.task_id == task.task_id:
                    continue
                deadline = vd.get(t.task_id, t.deadline)
                others.append(_ModeTask(t.wcet_lo, deadline, t.period, t.wcet_lo))
                density += t.wcet_lo / min(deadline, t.period)
            worst = others + [
                _ModeTask(task.wcet_lo, task.wcet_lo, task.period, task.wcet_lo)
            ]
            try:
                horizon = DemandScenario._horizon(worst, self.horizon_cap)
            except HorizonExceeded:
                horizon = None  # decline exactly where the probe would raise
            prepared = [tuple(others), horizon, density, None, 0]
            self._memo[key] = prepared
        return prepared

    def _lo_probe_fast(
        self, vd: dict[int, int], task: MCTask, sig_o: tuple
    ) -> LoShrinkProbe:
        """Field-identical :class:`LoShrinkProbe` from cached scaffolding.

        Skips the :class:`DemandScenario` construction the ``("lsp", ...)``
        path pays: the cached others list and worst-case horizon are the
        very values the probe's ``__init__`` derives (same fold order, same
        formulas), so the replica's verdict methods behave identically.
        When the scaffolding marks the horizon unavailable, the replica is
        returned always-infeasible *without* entering the ``("lsp")`` memo
        — the real constructor would have raised there, and the V* caller
        treats both outcomes as "no feasible shrink".
        """
        memo = self._memo
        key = ("lsp", task.task_id, sig_o)
        hit = memo.get(key)
        if hit is not None:
            if hit[0] == "raise":
                raise hit[1]
            return hit[1]
        entry = self._lo_others_entry(vd, task, sig_o)
        others, horizon = entry[0], entry[1]
        probe = LoShrinkProbe.__new__(LoShrinkProbe)
        probe._task = task
        probe._infeasible_always = horizon is None
        probe._horizon = horizon or 0
        if probe._infeasible_always or probe._horizon == 0:
            probe._points_o = np.empty(0, dtype=np.int64)
            probe._slack_o = np.empty(0, dtype=np.int64)
            if probe._infeasible_always:
                return probe  # conflates raise/overload: same caller outcome
        else:
            points = DemandScenario._breakpoints(
                list(others), probe._horizon, ramps=False
            )
            demand = DemandScenario._lo_demand(list(others), points)
            probe._points_o = points
            probe._slack_o = points - demand
        memo[key] = ("value", probe)
        return probe

    def _lo_fast_feasible(
        self, vd: dict[int, int], task: MCTask, v: int, sig_o: tuple
    ) -> bool:
        """Layered LO accept screens for ``task`` at deadline ``v``.

        True proves ``LoShrinkProbe.feasible(v)`` — the verdict the V*
        search inverts — so callers may skip the probe entirely.  Layers,
        cheapest first: the memoized smallest already-accepted deadline
        (verdicts are monotone in ``v``), the O(1) density condition
        ``sum C_i / D_i <= 1 - 1e-9`` (each dbf is bounded by its density
        line through the step corners; the margin absorbs float folding),
        and the O(n·k) dbf upper-bound screen.  All are gated behind the
        probe's conservative worst-case horizon checks — recomputed with
        the identical float folds — so a screen accept implies the probe
        accepts.  False proves nothing (accept-only screens).  The
        ``("lofp", ...)`` memo entry caches the mode-task list, the
        worst-case horizon and the others' density across the descent's
        repeated picks of the same task.
        """
        prepared = self._lo_others_entry(vd, task, sig_o)
        others, horizon, density, accepted_v = prepared[:4]
        if horizon is None:
            return False
        if accepted_v is not None and v >= accepted_v:
            # Memoized monotone hit — not a fresh screen settle, so the
            # approx-accept diagnostics counter stays untouched.
            return True
        if horizon == 0:
            ok = True  # implicit-deadline region: the probe accepts too
        elif density + task.wcet_lo / min(v, task.period) <= 1.0 - 1e-9:
            ok = True
        else:
            prepared[4] += 1
            # The descent re-picks the same task with ever-smaller
            # deadlines; after a couple of full O(n·k) screen evaluations
            # it is cheaper to let the exact V* search run once and serve
            # every later request from its memo entry (a pure cost policy
            # — the V* path returns the identical shrink).
            if prepared[4] > _SCREEN_BUDGET:
                return False
            candidate = list(others)
            candidate.append(_ModeTask(task.wcet_lo, v, task.period, task.wcet_lo))
            ok = approx_accepts(candidate, horizon, hi=False)
        if ok:
            _dbf._COUNTERS["approx-accept"] += 1
            prepared[3] = v if accepted_v is None else min(accepted_v, v)
        return ok

    def max_lo_feasible_shrink(
        self, vd: dict[int, int], task: MCTask, desired: int
    ) -> int:
        """Largest shrink ``<= desired`` keeping the LO-mode check feasible.

        LO demand grows monotonically with the shrink, so feasibility is a
        prefix property of the shrink — equivalently, the probed task has a
        *minimal LO-feasible virtual deadline* ``V*`` (given the other
        tasks' deadlines) and the answer is ``min(desired, base - V*)``.
        Probes go through :class:`~repro.analysis.dbf.LoShrinkProbe`, which
        precomputes the other tasks' demand once instead of rebuilding the
        whole scenario per probe; the memoized engine additionally caches
        ``V*``, which is independent of the task's own current deadline —
        so every later descent iteration that re-picks this task (with any
        remaining ``base``, against any deficit) costs one lookup.
        """
        base = vd[task.task_id]

        if self._memo is None:
            # From-scratch behavior: desired-bounded binary search per call.
            try:
                probe = self.lo_shrink_probe(vd, task)
            except HorizonExceeded:
                return 0
            if probe.feasible(base - desired):
                return desired
            lo, hi = 0, desired - 1
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if probe.feasible(base - mid):
                    lo = mid
                else:
                    hi = mid - 1
            return lo

        # Warm path: most descent iterations ask for a shrink that is
        # plainly LO-feasible.  Prove it cheaply — an O(1) density accept,
        # then the O(n·k) upper-bound screen, both gated behind the
        # probe's conservative worst-case horizon checks so a screen
        # accept implies the probe accepts — and skip the LoShrinkProbe
        # construction and the V* search.  Screen verdicts are monotone in
        # the probed deadline, so the smallest accepted deadline is cached
        # per surrounding assignment and repeated picks cost one lookup.
        sig_o = self._sig_others(vd, task.task_id)
        if _dbf._KERNEL != "forward":
            target = base - desired
            if (
                target >= task.wcet_lo
                and self._memo.get(("vmin", task.task_id, sig_o)) is None
                and self._lo_fast_feasible(vd, task, target, sig_o)
            ):
                return desired

        v_min = self.lo_min_deadline(vd, task, sig_o)
        if v_min is None:
            return 0
        return min(desired, max(0, base - v_min))

    def lo_min_deadline(
        self, vd: dict[int, int], task: MCTask, sig_o: tuple | None = None
    ) -> int | None:
        """Smallest LO-feasible virtual deadline ``V*`` for ``task``; None
        when even the task's full deadline is infeasible under the probe's
        verdicts.  On the warm engine it is memoized per surrounding
        assignment — the scalar descent's :meth:`max_lo_feasible_shrink`,
        the block planner and the V* floor reject share the entry; the
        memo-free engine builds the :class:`LoShrinkProbe` from scratch.

        Both halves of the probe's verdict invert in closed form
        (:meth:`LoShrinkProbe.min_feasible_deadline`), so the value is the
        minimum a ``feasible(v)`` bisection settles on, without the
        probe evaluations.
        """
        if sig_o is None and self._memo is not None:
            sig_o = self._sig_others(vd, task.task_id)

        def compute() -> int | None:
            try:
                if self._memo is None:
                    probe = self.lo_shrink_probe(vd, task)
                else:
                    probe = self._lo_probe_fast(vd, task, sig_o)
            except HorizonExceeded:
                return None
            return probe.min_feasible_deadline()

        return self._cached(("vmin", task.task_id, sig_o), compute)


def tune_virtual_deadlines(
    taskset: TaskSet,
    policy: str,
    refine: bool,
    horizon_cap: int,
    engine: DemandEngine | None = None,
) -> TuningOutcome:
    """Run the descent loop; see module docstring.

    With recording on (:mod:`repro.obs`) each call — i.e. each tuning
    probe — contributes its trajectory length to the
    ``descent.iterations`` histogram and ticks a per-outcome counter;
    pure observation, the outcome itself is untouched.

    Parameters
    ----------
    taskset:
        Tasks on one processor (any mix of criticalities).
    policy:
        ``"steepest"`` (EY) or ``"ratio"`` (ECDF).
    refine:
        Enable the carry-over trigger refinement in the HI check (ECDF).
    horizon_cap:
        Passed through to :class:`DemandScenario`; exceeding it rejects.
    engine:
        Evaluation layer to issue dbf queries through; a fresh
        :class:`DemandEngine` (from-scratch behavior) when omitted.
        Callers passing a memo-backed engine (the incremental contexts)
        get identical outcomes with repeated work deduplicated.
    """
    outcome = _tune_virtual_deadlines_impl(
        taskset, policy, refine, horizon_cap, engine
    )
    if _obs.active():
        _obs.REGISTRY.observe("descent.iterations", float(outcome.iterations))
        _obs.REGISTRY.add(
            "descent.accepted" if outcome.schedulable else "descent.rejected"
        )
    return outcome


def _tune_virtual_deadlines_impl(
    taskset: TaskSet,
    policy: str,
    refine: bool,
    horizon_cap: int,
    engine: DemandEngine | None,
) -> TuningOutcome:
    if policy not in ("steepest", "ratio"):
        raise ValueError(f"unknown tuning policy {policy!r}")
    if engine is None:
        engine = _default_engine(taskset, horizon_cap)

    high_tasks = list(taskset.high_tasks)
    vd = {t.task_id: t.deadline for t in high_tasks}

    # Quick necessary conditions — saves dbf work on hopeless sets.
    util = taskset.utilization
    if util.u_lo > 1.0 + 1e-9 or util.u_hh > 1.0 + 1e-9:
        return TuningOutcome(False, vd, 0, "utilization above 1")

    # Certified fast accept (implicit deadlines): with U_LL + U_HH <= 1 the
    # plain-EDF reservation argument (EDF-VD, x = 1) already guarantees
    # MC-correctness with untouched deadlines — no tuning needed.  Both
    # published tests accept this region after tuning anyway; taking the
    # shortcut only changes the certificate, not the verdict.
    if (
        taskset.is_implicit_deadline
        and util.u_ll + util.u_hh <= 1.0 + 1e-9
    ):
        return TuningOutcome(True, vd, 0, "plain-EDF reserve (a + c <= 1)")

    if not engine.lo_feasible(vd):
        return TuningOutcome(False, vd, 0, "LO-mode infeasible at full deadlines")

    # Definitive fast reject: HI demand is monotone non-increasing in every
    # virtual deadline, so ``Dv_i = C_i^L`` minimizes it.  If even that
    # fails, no assignment can pass the HI check.
    if high_tasks:
        floor_vd = {t.task_id: t.wcet_lo for t in high_tasks}
        try:
            floor_violation = engine.hi_violation(floor_vd, refine)
        except HorizonExceeded:
            return TuningOutcome(False, vd, 0, "HI horizon cap exceeded")
        if floor_violation is not None:
            return TuningOutcome(
                False, vd, 0, f"HI infeasible even at minimal Dv (l*={floor_violation})"
            )

    # Fast path: uniform deadline scaling.  ``vd_i(x) = floor(x * D_i)``
    # (clamped to the model range) is monotone in ``x``: HI demand is
    # non-increasing as ``x`` shrinks, LO demand non-decreasing.  Binary-
    # searching the largest HI-feasible ``x`` and checking LO there settles
    # most accepts in O(log D) demand evaluations, where the per-violation
    # descent needs one iteration per violation point.  The descent below
    # remains the completion pass (per-task deadlines can succeed where
    # uniform scaling cannot), so this is acceptance-neutral or better.
    if high_tasks:
        uniform = _uniform_scaling_search(high_tasks, refine, engine)
        if uniform is not None:
            return uniform

    # V* floor reject (unrefined stages only): one HI check at the per-task
    # minimal LO-feasible deadlines settles descents that cannot accept.
    if high_tasks and not refine:
        violation = _vstar_floor_violation(high_tasks, vd, engine)
        if violation is not None:
            _dbf._COUNTERS["floor-reject"] += 1
            return TuningOutcome(
                False, vd, 0, f"HI infeasible at V* floor (l*={violation})"
            )

    if _dbf._KERNEL == "block" and engine._memo is not None:
        return _descend_block(high_tasks, vd, policy, refine, engine)
    return _descend(high_tasks, vd, policy, refine, engine)


def run_tuning_stages(
    taskset: TaskSet,
    stages: tuple[tuple[str, bool], ...],
    horizon_cap: int,
    engine: DemandEngine | None = None,
) -> TuningOutcome:
    """Run ``(policy, refine)`` stages in order until one accepts.

    This is the fallback-chain shape of :class:`~repro.analysis.ecdf.
    ECDFTest` (and, with a single stage, of :class:`~repro.analysis.ey.
    EYTest`): later stages only run when every earlier stage rejected, and
    the last outcome is returned either way.  When ``engine`` is omitted
    every stage builds a fresh engine, reproducing the historical
    from-scratch cost; the incremental contexts pass one memo-backed engine
    so the stages share all common dbf work.
    """
    if not stages:
        raise ValueError("at least one tuning stage is required")
    if engine is None:
        engine = _default_engine(taskset, horizon_cap)
    outcome: TuningOutcome | None = None
    for policy, refine in stages:
        outcome = tune_virtual_deadlines(
            taskset, policy, refine, horizon_cap, engine=engine
        )
        if outcome.schedulable:
            break
    return outcome


def _default_engine(taskset: TaskSet, horizon_cap: int) -> DemandEngine:
    """The engine a caller gets when it passes none.

    Under the qpa and block kernels the engine carries a private per-run
    memo so the whole kernel machinery (warm anchors, witness-level
    checks, screen caches, V* entries) serves the from-scratch path too —
    memoization only deduplicates pure queries, so outcomes are identical either way (the
    property the memo/no-memo differential tests assert).  Under the
    forward oracle kernel the engine stays memo-free, preserving the
    historical from-scratch cost profile the benchmarks baseline against.
    """
    if _dbf._KERNEL != "forward":
        return DemandEngine(taskset, horizon_cap, memo={})
    return DemandEngine(taskset, horizon_cap)


def _scaled_deadlines(high_tasks: list[MCTask], x: float) -> dict[int, int]:
    """Per-task virtual deadlines under uniform scaling factor ``x``."""
    return {
        t.task_id: max(t.wcet_lo, min(t.deadline, int(x * t.deadline)))
        for t in high_tasks
    }


def _uniform_scaling_search(
    high_tasks: list[MCTask],
    refine: bool,
    engine: DemandEngine,
) -> TuningOutcome | None:
    """Largest-``x`` uniform scaling that passes both checks, or None.

    Returns a successful :class:`TuningOutcome` when some uniform scaling
    works; None when the caller should fall through to the per-task
    descent (including on horizon-cap trouble, which the descent handles
    with its own conservative semantics).

    The search never consults the descent policy, so on a memo-backed
    engine its outcome is cached per refinement flag — the ECDF fallback
    chain's second stage skips the bisection entirely.
    """
    if engine._memo is not None:
        # Cached on the engine, not the cross-probe memo: the outcome
        # depends on the whole candidate, and an engine serves exactly one.
        cached = engine._uniform.get(refine)
        if cached is None:
            cached = (_uniform_scaling_search_impl(high_tasks, refine, engine),)
            engine._uniform[refine] = cached
        return cached[0]
    return _uniform_scaling_search_impl(high_tasks, refine, engine)


def _uniform_scaling_search_impl(
    high_tasks: list[MCTask],
    refine: bool,
    engine: DemandEngine,
) -> TuningOutcome | None:
    """The bisection behind :func:`_uniform_scaling_search`.

    Split into a HI phase (the bisection — a pure function of the HC
    tasks, the refinement flag and, under degraded service, the LC
    members) and a LO verdict on the winning assignment.  On a memo-backed
    engine the HI phase is cached across *candidates*: probing different
    LC tasks onto the same core leaves the HC set unchanged, so only the
    final LO check differs — the same sharing the per-``(HC, Dv)`` HI memo
    entries already exploit, lifted to the whole search.
    """
    best = _uniform_hi_phase(high_tasks, refine, engine)
    if best is None:
        return None
    if not engine.lo_feasible(best):
        return None
    return TuningOutcome(True, best, 0, "uniform deadline scaling")


def _uniform_hi_phase(
    high_tasks: list[MCTask],
    refine: bool,
    engine: DemandEngine,
) -> dict[int, int] | None:
    """Largest-``x`` HI-feasible uniform assignment, or None.

    None covers both "no scaling is HI-feasible" and "a check overran the
    horizon cap" — in either case the caller falls back to the per-task
    descent, exactly as the historical single-function search did.
    """
    memo = engine._memo
    key = None
    if memo is not None:
        key = ("unib", engine._high_ids, engine._lc_sig, refine)
        hit = memo.get(key)
        if hit is not None:
            best = hit[0]
            return dict(best) if best is not None else None

    def hi_ok(vd: dict[int, int]) -> bool | None:
        try:
            return engine.hi_feasible(vd, refine)
        except HorizonExceeded:
            return None

    def store(best: dict[int, int] | None) -> dict[int, int] | None:
        if key is not None:
            memo[key] = (dict(best) if best is not None else None,)
        return best

    granularity = 1.0 / (2 * max(t.deadline for t in high_tasks))
    lo_x, hi_x = 0.0, 1.0
    # Invariant target: find the largest x whose scaling is HI-feasible.
    verdict = hi_ok(_scaled_deadlines(high_tasks, hi_x))
    if verdict is None:
        return store(None)
    if not verdict:
        while hi_x - lo_x > granularity:
            mid = (lo_x + hi_x) / 2.0
            verdict = hi_ok(_scaled_deadlines(high_tasks, mid))
            if verdict is None:
                return store(None)
            if verdict:
                lo_x = mid
            else:
                hi_x = mid
        best = _scaled_deadlines(high_tasks, lo_x)
        if not hi_ok(best):
            return store(None)
    else:
        best = _scaled_deadlines(high_tasks, hi_x)
    return store(best)


def _vstar_floor_violation(
    high_tasks: list[MCTask],
    vd: dict[int, int],
    engine: DemandEngine,
) -> int | None:
    """Earliest unrefined HI violation at the V* floor, or None.

    The floor ``F`` puts every HC task at its V* with every other task at
    its full deadline ``vd`` (``C_L`` when V* is None).  A violation
    there proves that neither the uniform-scaling search nor the descent
    (scalar or block) can accept with ``refine=False``:

    * every assignment either of them accepts is LO-feasible — the
      uniform search checks it, the descent and the block planner only
      commit deadlines at or above the V* of the surrounding assignment;
    * LO demand only grows as other deadlines shrink, and LO feasibility
      in ``v_i`` is a suffix above V*, so any such assignment has
      ``vd_i >= F_i`` for every task (and V* never exceeds ``D_i``);
    * unrefined HI demand is non-decreasing in every ``vd_i`` (shrinking
      a deadline only removes demand), and its violations sit at
      breakpoints at or below the horizon, so a violation at ``F`` is a
      violation at every assignment that dominates ``F``.

    Refined demand is not monotone under deadline domination (the
    trigger cut moves with the residual deadlines), so refined stages
    never take this reject.  None also covers a HI check that overruns
    the horizon cap: the caller then descends as before.
    """
    floor = {}
    for task in high_tasks:
        v_min = engine.lo_min_deadline(vd, task)
        floor[task.task_id] = task.wcet_lo if v_min is None else v_min
    try:
        return engine.hi_violation(floor, False)
    except HorizonExceeded:
        return None


def _descend(
    high_tasks: list[MCTask],
    vd: dict[int, int],
    policy: str,
    refine: bool,
    engine: DemandEngine,
) -> TuningOutcome:
    """The shrink-descent loop from an LO-feasible starting assignment.

    The historical loop re-ran the HI check and re-scored every candidate
    on each iteration, including the *freeze* iterations that only rule a
    task out (its LO-feasible shrink came back 0).  Neither input changes
    while ``vd`` is fixed: the memoized check returns the identical
    ``(violation, demand)`` pair and the candidate scores are independent
    of the frozen set — so the candidates are ranked **once per
    assignment** and freeze iterations simply advance to the next entry.
    Iteration accounting, pick order (the descending ranking's first
    non-frozen entry equals the historical per-iteration argmax: the score
    key embeds ``-task_id``, a total order) and every outcome are
    unchanged; only the redundant re-evaluations are gone.
    """
    vd = dict(vd)
    frozen: set[int] = set()
    # Shrinking any Dv only lowers HI demand, so check points below the
    # last seen violation stay feasible for the rest of the descent — the
    # scan may resume there (a pure cost hint; see DemandEngine).
    front = 0
    current: tuple[int | None, int | None] | None = None
    ranked: list[tuple[tuple, MCTask, int]] | None = None
    for iteration in range(1, _MAX_ITERATIONS + 1):
        if current is None:
            try:
                current = engine.hi_check(vd, refine, not_before=front)
            except HorizonExceeded:
                return TuningOutcome(
                    False, vd, iteration, "HI horizon cap exceeded"
                )
        violation, demand = current
        if violation is None:
            return TuningOutcome(True, vd, iteration)
        front = violation

        deficit = demand - violation
        if ranked is None:
            ranked = _rank_candidates(
                high_tasks, vd, violation, deficit, policy, engine
            )
        candidate = None
        for _key, task, desired in ranked:
            if task.task_id not in frozen:
                candidate = (task, desired)
                break
        if candidate is None:
            return TuningOutcome(
                False, vd, iteration, f"no shrinkable task at l*={violation}"
            )
        task, desired = candidate
        shrink = engine.max_lo_feasible_shrink(vd, task, desired)
        if shrink == 0 or engine.hi_gain(task, vd[task.task_id], shrink, violation) <= 0:
            frozen.add(task.task_id)
            continue
        vd[task.task_id] -= shrink
        frozen.clear()  # shrinking one task may unfreeze others elsewhere
        current = None
        ranked = None

    return TuningOutcome(False, vd, _MAX_ITERATIONS, "iteration cap reached")


def _descend_block(
    high_tasks: list[MCTask],
    vd: dict[int, int],
    policy: str,
    refine: bool,
    engine: DemandEngine,
) -> TuningOutcome:
    """The ``block`` kernel's descent: joint boundary jumps per probe.

    Same loop shape as :func:`_descend` — one exact HI check per
    iteration, candidates ranked once per assignment — but before taking
    the scalar single-task step it asks :func:`repro.analysis.dbf_block.
    plan_block` for a joint jump of several ranked candidates straight to
    their minimal LO-feasible deadlines, each step proven exactly against
    a virtual copy of the assignment with every earlier jump already
    applied.  A committed block makes one iteration of progress
    where the scalar descent would have spent one iteration (and one
    exact probe) per task, which is the whole point: fewer distinct
    violation fronts, fewer exact QPA iterations.

    Verdict contract: any reject reached on a trajectory that committed
    at least one block falls back to a full scalar :func:`_descend` from
    the original assignment and returns *its* outcome — the block kernel
    therefore never rejects a set the scalar kernels accept.  Rejects on
    an all-scalar trajectory are returned directly (that trajectory *is*
    the scalar one: the planner only reads memoized scaffolding).
    Accepts stand on their own soundness — every committed deadline is
    LO-feasible by construction and the final exact HI check passed —
    but the descent trajectory (iteration counts, committed deadlines)
    is not bit-identical to the scalar kernels'; the fig3–fig7
    differential suite pins the *verdicts* to parity.

    Requires the memo-backed engine (the planner reads the ``("vmin",
    ...)``/``("lofp", ...)`` scaffolding); the dispatch in
    :func:`_tune_virtual_deadlines_impl` guarantees it.
    """
    vd0 = vd
    vd = dict(vd)
    frozen: set[int] = set()
    front = 0
    jumped = False
    current: tuple[int | None, int | None] | None = None
    ranked: list[tuple[tuple, MCTask, int]] | None = None

    def fallback(outcome: TuningOutcome) -> TuningOutcome:
        """A reject of the block trajectory: re-run the scalar descent
        when a block was committed (the trajectories diverged), else the
        outcome already is the scalar one."""
        if not jumped:
            return outcome
        _blk._COUNTERS["block-fallback"] += 1
        return _descend(high_tasks, dict(vd0), policy, refine, engine)

    for iteration in range(1, _MAX_ITERATIONS + 1):
        if current is None:
            try:
                current = engine.hi_check(vd, refine, not_before=front)
            except HorizonExceeded:
                return fallback(
                    TuningOutcome(False, vd, iteration, "HI horizon cap exceeded")
                )
        violation, demand = current
        if violation is None:
            return TuningOutcome(True, vd, iteration)
        front = violation

        deficit = demand - violation
        if ranked is None:
            ranked = _rank_candidates(
                high_tasks, vd, violation, deficit, policy, engine
            )

        commits = _blk.plan_block(engine, vd, ranked, frozen, violation)
        if commits:
            for tid, v_new in commits.items():
                vd[tid] = v_new
            jumped = True
            frozen.clear()
            current = None
            ranked = None
            continue

        # Residual scalar step, body-identical to _descend's.
        candidate = None
        for _key, task, desired in ranked:
            if task.task_id not in frozen:
                candidate = (task, desired)
                break
        if candidate is None:
            return fallback(
                TuningOutcome(
                    False, vd, iteration, f"no shrinkable task at l*={violation}"
                )
            )
        task, desired = candidate
        shrink = engine.max_lo_feasible_shrink(vd, task, desired)
        if shrink == 0 or engine.hi_gain(task, vd[task.task_id], shrink, violation) <= 0:
            frozen.add(task.task_id)
            continue
        vd[task.task_id] -= shrink
        frozen.clear()
        current = None
        ranked = None

    return fallback(
        TuningOutcome(False, vd, _MAX_ITERATIONS, "iteration cap reached")
    )


def _rank_candidates(
    high_tasks: list[MCTask],
    vd: dict[int, int],
    violation: int,
    deficit: int,
    policy: str,
    engine: DemandEngine,
) -> list[tuple[tuple, MCTask, int]]:
    """All shrink candidates for one assignment, best first.

    Entries are ``(key, task, desired)`` with the historical pick key
    ``(score, remaining slack, -task_id)``; sorting descending makes the
    first non-frozen entry the per-iteration argmax of the original
    :func:`_pick_candidate` for every frozen set.
    """
    ranked: list[tuple[tuple, MCTask, int]] = []
    for task in high_tasks:
        # Inlined _min_shrink_for_gain / _shrink_to_clear / _hi_gain on
        # plain ints — the identical closed forms, sans attribute hops and
        # memo round-trips, in the single hottest loop of the descent.
        vd_now = vd[task.task_id]
        period, wcet_lo, wcet_hi = task.period, task.wcet_lo, task.wcet_hi
        max_shrink = vd_now - wcet_lo
        if max_shrink <= 0:
            continue
        x = violation - (task.deadline - vd_now)
        if x < 0:
            continue  # shrinking moves the carry-over even further out
        r0 = x % period
        first = 1 if r0 < wcet_lo else (r0 - wcet_lo + 1)
        if first > max_shrink:
            continue
        d_now = (x // period + 1) * wcet_hi - max(0, wcet_lo - r0)
        x_floor = x - max_shrink
        if x_floor >= 0:
            d_floor = (x_floor // period + 1) * wcet_hi - max(
                0, wcet_lo - x_floor % period
            )
        else:
            d_floor = 0
        target = min(deficit, d_now - d_floor)
        if target <= 0:
            desired = max_shrink
        else:
            desired = _invert_shrink(task, vd_now, violation, target)
        if desired < first:
            desired = first
        x_new = x - desired
        if x_new >= 0:
            d_new = (x_new // period + 1) * wcet_hi - max(
                0, wcet_lo - x_new % period
            )
        else:
            d_new = 0
        gain = d_now - d_new
        if gain <= 0:
            continue
        if policy == "steepest":
            score = float(gain)
        else:  # ratio: HI gain per unit of LO density increase
            density_now = wcet_lo / vd_now
            density_new = wcet_lo / (vd_now - desired)
            cost = max(density_new - density_now, 1e-12)
            score = gain / cost
        # Tie-break: prefer more remaining slack, then stable task order.
        ranked.append(((score, max_shrink, -task.task_id), task, desired))
    ranked.sort(key=lambda entry: entry[0], reverse=True)
    return ranked
