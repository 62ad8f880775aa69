"""Virtual-deadline tuning engine shared by the EY and ECDF tests.

Both demand-based tests search for per-HC-task virtual deadlines ``Dv_i``
such that the LO-mode and HI-mode dbf checks of
:class:`~repro.analysis.dbf.DemandScenario` pass simultaneously.  Shrinking
``Dv_i`` moves demand from the HI window into the LO window:

* LO-mode demand of task i *increases* (its jobs get earlier deadlines);
* HI-mode demand of task i *decreases* (its carry-over gets more residual
  time, ``D_i - Dv_i``).

An analysis (:func:`run_tuning_stages`) first screens utilization once
(:func:`_utilization_screen`: ``U > 1`` rejects, the implicit-deadline
plain-EDF reserve accepts).  Each ``(policy, refine)`` stage
(:func:`_tune_stage`) then runs the steps both published algorithms
share:

1. accept by uniform deadline scaling when some ``Dv_i = x D_i`` passes
   both checks (:func:`_uniform_scaling_search`).  Such an accept proves
   the two rejects below pass.  It runs only when no ``D_i - C_L_i``
   exceeds the horizon cap; otherwise the ``C_L`` check below rejects;
2. reject when LO fails at ``Dv_i = D_i`` (shrinking only makes LO
   worse), or when HI fails at ``Dv_i = C_L`` (HI demand only falls as
   deadlines shrink);
3. put every HC task at its V* — its minimal LO-feasible ``Dv`` with
   every other task at ``D_j`` — and reject if the stage's HI check,
   refined or not, fails there.  Lemma: any assignment a stage can accept
   is LO-feasible, hence at or above every task's V* (LO demand only grows
   as other deadlines shrink), and HI demand, refined or not, only grows
   with each ``Dv_i``, so it fails the HI check too
   (:func:`_vstar_floor_violation`);
4. while the HI check fails at its earliest violation ``l*``: pick one HC
   task by a *policy* and shrink its ``Dv`` just enough to clear the
   deficit at ``l*`` (or as far as LO-mode feasibility allows);
5. accept when the HI check passes; reject when no task can make progress.

Step 4 starts from the LO-feasible prefix of the core's cached HI-only
trajectory (:func:`_replay_trajectory`; README.md, "The shrink descent"),
which skips the iterations that would only follow it.

Policies (see README.md#fidelity-notes):

* ``"steepest"`` (EY, Ekberg-Yi ECRTS 2012): pick the task with the largest
  HI-demand reduction at ``l*``.  The published algorithm shrinks one time
  unit per iteration; this implementation batches consecutive unit steps of
  the same pick, which follows the same descent path whenever the pick stays
  the best candidate.
* ``"ratio"`` (ECDF greedy assignment, Easwaran RTSS 2013): pick the task
  with the best HI-demand reduction per unit of LO-mode density increase —
  a benefit/cost greedy rule.

HI-demand of a task is monotonically non-increasing in ``Dv`` shrinkage, so
the minimal sufficient shrink is found in closed form by inverting the
task's single-task HI staircase (:func:`_invert_shrink`).

Evaluation layer
----------------
All dbf queries the descent issues go through a :class:`DemandEngine`,
which always owns a memo: a private one per call by default, or a dict
shared across the probes of one core, as the incremental
:class:`~repro.analysis.context.DemandContext` passes in partitioning hot
loops.  The memo holds the results of *pure* scenario queries (LO/HI
violations, shrink searches, V* values, trajectories).  Every entry is
keyed by the exact task parameters and virtual deadlines it was computed
from and holds the exact answer — the HI checks return the earliest
violation whatever scan hint a caller passes — so verdicts, virtual
deadlines and detail strings are bit-identical however the memo was
filled.  The QPA search decides every violation question; the in-order
breakpoint walk (:func:`~repro.analysis.dbf.first_violation`,
:func:`_forward_hi_check`) localizes the earliest violation and is the
tests' differential oracle.
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
    _adjacent_breakpoints,
    _hi_point_demand,
    _next_breakpoint,
    _prev_breakpoint,
    approx_accepts,
    first_violation,
    lc_hi_mode_entries,
    lo_feasible_exact,
    lo_mode_tasks,
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


def _invert_shrink(task: MCTask, vd_now: int, length: int, target: int) -> int:
    """Minimal ``s >= 1`` whose HI gain at ``length`` reaches ``target``.

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


#: :meth:`DemandEngine.hi_check`'s answer on a pass.
_PASS = (None, None, 0)


def _hi_answer(
    tasks: list[_ModeTask], violation: int | None, demand: int | None
) -> tuple[int | None, int | None, int]:
    """A HI check's ``(violation, demand)`` with the scan front it proves.

    The front is ``p + 1`` for ``p`` the largest breakpoint of ``tasks``
    below ``violation`` (0 on a pass, or when no breakpoint lies below).
    A descent may start every later HI check there, because:

    (a) HI demand never rises under a shrink, refined or not.  Refined
        demand is ``max_i(sum_{k != i} dbf_k + g_i)`` with ``g_i(x) =
        [x >= 0]((x // T + 1) C_H - C_L)`` non-decreasing in ``x``, since
        ``C_H >= C_L``; shrinking ``Dv_i`` lowers ``x``.  Degraded LC
        entries never trigger and do not depend on any ``Dv``.
    (b) Every integer is dominated by a check point beside it: on a flat
        piece by the check point to its left, on a ramp by the one to its
        right (demand minus ``l`` is convex on each piece).

    So if a scan from a sound front ``F`` (no integer below ``F``
    violates) first violates at ``v``, no integer in ``[F, p]`` violates:
    each is dominated by a check point that the scan passed or that lies
    below ``F``.  By (a) that stays true after any later shrink, and a
    scan from ``max(F, p + 1)`` finds exactly what a scan from 0 finds.
    The overload marker is the smallest deadline, below which no
    breakpoint lies, so it leaves the front unchanged.
    """
    if violation is None:
        return _PASS
    below = _prev_breakpoint(tasks, violation, ramps=True)
    return (violation, demand, 0 if below is None else below + 1)


def _hi_meta_of(tasks: list[_ModeTask], horizon_cap: int) -> tuple:
    """``(horizon state, density)`` of a HI-mode task list — the value
    :meth:`DemandEngine._hi_meta` memoizes per signature."""
    try:
        horizon = DemandScenario._horizon(tasks, horizon_cap)
        if horizon is not None:
            horizon = max(horizon, max(t.deadline for t in tasks))
            if horizon > horizon_cap:
                raise HorizonExceeded(f"bound {horizon} exceeds cap {horizon_cap}")
        state = ("h", horizon)
    except HorizonExceeded as exc:
        state = ("raise", exc)
    return (state, sum(2.0 / t.period for t in tasks))


class DemandEngine:
    """Evaluation layer between the descent loop and the dbf machinery.

    One engine serves one candidate ``taskset``.  All pure query results
    persist in its ``memo`` — a fresh dict when none is passed, or one
    shared per core by an incremental analysis context — and are reused
    across probes and across the multi-stage ECDF fallback chain.

    Memo keys embed the task ids and the exact virtual deadlines a value was
    computed from (HI-mode keys cover HC tasks only, because LC tasks
    contribute no HI demand — this lets LC probes on the same core share
    all HI-mode work).  Values are therefore reusable only where the fresh
    computation would return the identical result, which is what makes a
    shared memo bit-identical to a fresh one by construction.
    """

    def __init__(
        self,
        taskset: TaskSet,
        horizon_cap: int,
        memo: dict | None = None,
    ):
        self.taskset = taskset
        self.horizon_cap = horizon_cap
        self._memo = {} if memo is None else memo
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
        #: QPA warm-start anchors per refinement flag, learned lazily at
        #: the *full-deadline* assignment — the componentwise maximum of
        #: every assignment, whose HI demand, refined or not, therefore
        #: dominates all others pointwise (:func:`_hi_answer`, lemma (a));
        #: see :meth:`_qpa_anchor`.  The same domination argument gives
        #: the V* floor reject of every stage and the uniform-scaling
        #: bisection's ceiling (:meth:`hi_feasible`).
        self._anchors: dict[bool, int] = {}
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

    # -- memoized queries ----------------------------------------------------
    def _cached(self, key: tuple, compute):
        """Memo lookup; exceptions are cached and re-raised like values."""
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
            lambda: lo_feasible_exact(
                lo_mode_tasks(self.taskset, vd), self.horizon_cap
            ),
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
            meta = _hi_meta_of(tasks, self.horizon_cap)
            self._memo[("hmeta", sig)] = meta
        return meta

    def hi_check(
        self, vd: dict[int, int], refine: bool, not_before: int = 0
    ) -> tuple[int | None, int | None, int]:
        """Earliest HI-mode violation, the demand there and the scan front.

        Returns ``(violation, demand, front)`` — see :func:`_hi_answer` for
        the front — or ``(None, None, 0)`` on a pass; may raise
        :class:`HorizonExceeded` exactly as the underlying scenario does.
        ``not_before`` is a scan hint for callers that can prove no
        violation exists below it (the descent passes the fronts earlier
        checks returned); the answer is the same with or without it, so
        memo entries ignore the hint.
        """
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
                value = _PASS
            else:
                tasks = self._hi_tasks(vd)
                value = _hi_answer(
                    tasks,
                    *_forward_hi_check(
                        tasks,
                        self._hi_meta(sig, tasks),
                        refine,
                        not_before,
                        len(self._high),
                    ),
                )
            memo[key] = ("value", value)
            return value

        def compute() -> tuple[int | None, int | None, int]:
            # No local HC task means no local mode switch: degraded LC
            # demand never materializes, so the check passes vacuously
            # (mirrors DemandScenario.hi_violation's empty-_hi early out).
            if not self._high:
                return _PASS
            tasks = self._hi_tasks(vd)
            meta = self._hi_meta(sig, tasks)
            return self._qpa_hi_check(tasks, meta, refine, not_before)

        return self._cached(key, compute)

    def _qpa_hi_check(
        self,
        tasks: list[_ModeTask],
        meta: tuple,
        refine: bool,
        not_before: int,
    ) -> tuple[int | None, int | None, int]:
        """:func:`_forward_hi_check` decided by QPA — identical violation
        and demand, returned with their front (:func:`_hi_answer`).

        Three layers, ordered so each call site pays its cheapest decider:

        1. a short forward walk from ``not_before`` — the tuning descent's
           violation front moves slowly, so most *violations* are caught
           within the first window of check points;
        2. the QPA backward search (warm-started from the full-deadline
           anchor) — most *passes* settle here without walking the rest
           of the horizon;
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
                0,  # no breakpoint lies below the marker
            )
        # Scalar peek: ~90% of descent violations sit on the very next
        # breakpoint past the front — check a couple of points before
        # sizing the first window.  ``below`` tracks the largest
        # breakpoint below ``point``, so a violation there comes with its
        # front (:func:`_hi_answer`) at no extra cost.
        below, point = _adjacent_breakpoints(tasks, not_before)
        for step in range(_MICRO_WALK):
            if step:
                below, point = point, _next_breakpoint(tasks, point + 1, ramps=True)
            if point > horizon:
                demand = _hi_point_demand(tasks, horizon, refine, n_trigger)
                if demand > horizon:
                    return (horizon, demand, 0 if below is None else below + 1)
                return _PASS  # every remaining check point covered
            demand = _hi_point_demand(tasks, point, refine, n_trigger)
            if demand > point:
                return (point, demand, 0 if below is None else below + 1)
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
            return _hi_answer(tasks, *found)
        if stop > horizon:
            return _PASS  # the window covered the whole region
        status, bound = self._qpa_decide(tasks, horizon, refine)
        if status == "pass":
            return _PASS
        found = first_violation(tasks, stop, bound, demand_at, ramps=True)
        return _PASS if found is None else _hi_answer(tasks, *found)

    def _qpa_decide(
        self,
        tasks: list[_ModeTask],
        horizon: int,
        refine: bool,
        ceiling: int | None = None,
    ) -> tuple[str, int | None]:
        """Anchor-warmed QPA decision of the HI predicate on ``[0, horizon]``.

        Returns ``("pass", None)``, ``("violation", witness)`` or
        ``("abort", t)`` — abort means the caller must fall back to the
        forward walk, which only needs to reach the last iterate ``t``.
        Warm searches start at the lower of the full-deadline anchor, which
        bounds every assignment's violations from above, and the caller's
        ``ceiling``, a bound it proved for this assignment's violations.
        """
        anchor = self._qpa_anchor(refine)
        start = horizon
        if 0 <= anchor < start:
            start = anchor
        if ceiling is not None and ceiling < start:
            start = ceiling
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

    def _qpa_anchor(self, refine: bool) -> int:
        """The QPA warm-start anchor of ``refine`` queries.

        A search at the full-deadline assignment under the same
        refinement proves "no violation above t"; every assignment it
        dominates inherits that certificate (lemma (a) at
        :func:`_hi_answer` holds refined or not), so every later check of
        *any* assignment may start its search at ``t`` — in particular
        the O(log D) feasible probes of the uniform-scaling bisection,
        which otherwise each pay a cold descent from the horizon.  The
        witness QPA stops on is the largest *breakpoint* violation, but a
        dominated assignment's breakpoints differ, so the anchor must
        bound the largest violating *integer*: on the piece right of the
        witness ``w`` the demand is flat (a rising piece would violate at
        its right breakpoint, contradicting ``w``'s maximality), so
        violations extend at most to ``demand(w) - 1`` — the sound
        anchor.  A pass anchors at 0 (no violations anywhere); -1 means
        unavailable (the full-deadline horizon overruns the cap or the
        search aborts).

        A refined query takes the refined anchor: refined demand is at
        most the unrefined one, so its violations, and usually its anchor,
        lie lower.  Each costs one search per engine that asks for it.
        """
        anchor = self._anchors.get(refine)
        if anchor is not None:
            return anchor
        anchor = -1
        vd_full = {t.task_id: t.deadline for t in self._high}
        tasks = self._hi_tasks(vd_full)
        state, _ = self._hi_meta(self._full_sig_high, tasks)
        if state[0] != "raise" and state[1] is not None:
            n_trigger = len(self._high)
            status, witness, _ = qpa_violation_search(
                tasks,
                state[1],
                lambda t: _hi_point_demand(tasks, t, refine, n_trigger),
                ramps=True,
            )
            if status == "pass":
                anchor = 0
            elif status == "violation":
                anchor = _hi_point_demand(tasks, witness, refine, n_trigger) - 1
        self._anchors[refine] = anchor
        return anchor

    def hi_violation(
        self, vd: dict[int, int], refine: bool, not_before: int = 0
    ) -> int | None:
        """Earliest HI-mode violation (None = pass); see :meth:`hi_check`."""
        return self.hi_check(vd, refine, not_before)[0]

    def hi_feasible(
        self, vd: dict[int, int], refine: bool, ceiling: list[int] | None = None
    ) -> bool:
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

        ``ceiling`` is a cost hint for a caller probing a chain of
        assignments that only shrink: a one-item list holding a bound on
        every violating integer of ``vd`` (or None for no bound), which a
        fresh QPA search starts at or below, like the anchor.  A search
        that stops on a witness ``w`` lowers it to ``demand(w) - 1``, the
        bound :meth:`_qpa_anchor` proves for every assignment ``vd``
        dominates.  The answer, and every memo entry, is the same with or
        without it.
        """
        memo = self._memo
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
        status, bound = self._qpa_decide(
            tasks, horizon, refine, None if ceiling is None else ceiling[0]
        )
        if status == "abort":
            # Hand the rest of the question to the forward walk, up to the
            # last iterate, and keep its earliest-form answer.
            demand_at = partial(
                _hi_point_demand, tasks, refine=refine, n_trigger=len(self._high)
            )
            found = first_violation(tasks, 0, bound, demand_at, ramps=True)
            memo[key] = ("value", _PASS if found is None else _hi_answer(tasks, *found))
            return found is None
        feasible = status == "pass"
        memo[("hib", sig, refine)] = feasible
        if ceiling is not None and not feasible:
            demand = _hi_point_demand(tasks, bound, refine, len(self._high))
            if ceiling[0] is None or demand - 1 < ceiling[0]:
                ceiling[0] = demand - 1
        return feasible

    def hi_gain(self, task: MCTask, vd_now: int, shrink: int, length: int) -> int:
        """HI-demand reduction at ``length`` when ``Dv`` shrinks by
        ``shrink``: the task's single-task HI staircase difference on plain
        ints (the caller guarantees an HC task)."""
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

        Skips the :class:`DemandScenario` construction
        :meth:`DemandScenario.lo_shrink_probe` pays: the cached others list
        and worst-case horizon are the very values the probe's ``__init__``
        derives (same fold order, same formulas), so the replica's verdict
        methods behave identically.  When the scaffolding marks the horizon
        unavailable, the replica is returned always-infeasible *without*
        entering the ``("lsp", ...)`` memo — the real constructor would
        have raised there, and the V* caller treats both outcomes as "no
        feasible shrink".
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
            ok = approx_accepts(candidate, horizon)
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
        whole scenario per probe; the engine caches ``V*``, which is
        independent of the task's own current deadline —
        so every later descent iteration that re-picks this task (with any
        remaining ``base``, against any deficit) costs one lookup.
        """
        base = vd[task.task_id]
        # Warm path: most descent iterations ask for a shrink that is
        # plainly LO-feasible.  Prove it cheaply — an O(1) density accept,
        # then the O(n·k) upper-bound screen, both gated behind the
        # probe's conservative worst-case horizon checks so a screen
        # accept implies the probe accepts — and skip the LoShrinkProbe
        # construction and the V* search.  Screen verdicts are monotone in
        # the probed deadline, so the smallest accepted deadline is cached
        # per surrounding assignment and repeated picks cost one lookup.
        sig_o = self._sig_others(vd, task.task_id)
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
        verdicts.  It is memoized per surrounding assignment — the scalar
        descent's :meth:`max_lo_feasible_shrink`, the block planner and the
        V* floor reject share the entry.

        Both halves of the probe's verdict invert in closed form
        (:meth:`LoShrinkProbe.min_feasible_deadline`), so the value is the
        minimum a ``feasible(v)`` bisection settles on, without the
        probe evaluations.
        """
        if sig_o is None:
            sig_o = self._sig_others(vd, task.task_id)

        def compute() -> int | None:
            try:
                probe = self._lo_probe_fast(vd, task, sig_o)
            except HorizonExceeded:
                return None
            return probe.min_feasible_deadline()

        return self._cached(("vmin", task.task_id, sig_o), compute)


def _utilization_screen(
    u_ll: float, u_lh: float, u_hh: float, implicit: bool
) -> tuple[bool, str] | None:
    """The utilization screen every EY/ECDF analysis opens with.

    ``(verdict, detail)`` when the sums settle the set, None when it needs
    dbf work.  ``U_LL + U_LH`` or ``U_HH`` above 1 rejects: no assignment
    can pass.  The implicit-deadline plain-EDF reserve ``U_LL + U_HH <= 1``
    accepts: the reservation argument (EDF-VD, x = 1) already guarantees
    MC-correctness with untouched deadlines.  Both published tests accept
    that region after tuning anyway, so the shortcut changes only the
    certificate, not the verdict.

    The single definition of the screen: :func:`tune_virtual_deadlines`
    and :func:`run_tuning_stages` apply it to
    :attr:`~repro.model.TaskSet.utilization`, and
    :class:`~repro.analysis.context.DemandContext` to its running sums
    (float-identical to those).
    """
    if u_ll + u_lh > 1.0 + 1e-9 or u_hh > 1.0 + 1e-9:
        return (False, "utilization above 1")
    if implicit and u_ll + u_hh <= 1.0 + 1e-9:
        return (True, "plain-EDF reserve (a + c <= 1)")
    return None


def _check_stages(stages: tuple[tuple[str, bool], ...]) -> None:
    """Reject an empty chain or an unknown policy in any stage, once per
    analysis entry (:func:`run_tuning_stages`,
    :class:`~repro.analysis.context.DemandContext`)."""
    if not stages:
        raise ValueError("at least one tuning stage is required")
    for policy, _ in stages:
        if policy not in ("steepest", "ratio"):
            raise ValueError(f"unknown tuning policy {policy!r}")


def tune_virtual_deadlines(
    taskset: TaskSet,
    policy: str,
    refine: bool,
    horizon_cap: int,
    engine: DemandEngine | None = None,
) -> TuningOutcome:
    """Screen ``taskset``, then run one tuning stage; see module docstring.

    With recording on (:mod:`repro.obs`) each stage that runs — i.e. each
    tuning probe past the utilization screen — contributes its trajectory
    length to the ``descent.iterations`` histogram and ticks a per-outcome
    counter; pure observation, the outcome itself is untouched.

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
        :class:`DemandEngine` when omitted.  Callers passing an engine on
        a shared memo (the incremental contexts) get identical outcomes
        with repeated work deduplicated.
    """
    return run_tuning_stages(taskset, ((policy, refine),), horizon_cap, engine)


def run_tuning_stages(
    taskset: TaskSet,
    stages: tuple[tuple[str, bool], ...],
    horizon_cap: int,
    engine: DemandEngine | None = None,
) -> TuningOutcome:
    """Screen ``taskset`` once, then run ``(policy, refine)`` stages in
    order until one accepts.

    This is the fallback-chain shape of :class:`~repro.analysis.ecdf.
    ECDFTest` (and, with a single stage, of :class:`~repro.analysis.ey.
    EYTest`): later stages only run when every earlier stage rejected, and
    the last outcome is returned either way.  A screened set runs no
    stage.  The stages share one engine — a fresh one when ``engine`` is
    omitted; the incremental contexts pass one on the core's memo — so
    they share all common dbf work.
    """
    _check_stages(stages)
    util = taskset.utilization
    verdict = _utilization_screen(
        util.u_ll, util.u_lh, util.u_hh, taskset.is_implicit_deadline
    )
    if verdict is not None:
        vd = {t.task_id: t.deadline for t in taskset if t.is_high}
        return TuningOutcome(verdict[0], vd, 0, verdict[1])
    if engine is None:
        engine = DemandEngine(taskset, horizon_cap)
    return _run_stages(engine, stages)


def _run_stages(
    engine: DemandEngine, stages: tuple[tuple[str, bool], ...]
) -> TuningOutcome:
    """The stage loop of :func:`run_tuning_stages` on ``engine``'s
    candidate, which the caller has already screened
    (:class:`~repro.analysis.context.DemandContext` screens its running
    sums)."""
    outcome: TuningOutcome | None = None
    for policy, refine in stages:
        outcome = _tune_stage(engine, policy, refine)
        if _obs.active():
            _obs.REGISTRY.observe("descent.iterations", float(outcome.iterations))
            _obs.REGISTRY.add(
                "descent.accepted" if outcome.schedulable else "descent.rejected"
            )
        if outcome.schedulable:
            break
    return outcome


def _tune_stage(engine: DemandEngine, policy: str, refine: bool) -> TuningOutcome:
    """One ``(policy, refine)`` stage on a screened candidate.

    The outcome is the one the historical order returns: the LO check at
    full deadlines, the HI check at ``Dv = C_L``, the uniform-scaling
    search, the V* floor, then the descent.  The uniform search runs
    first, because each of its accepts proves that both rejects before it
    pass.  Let ``best`` be the accepted assignment, ``C_L <= best <= D``:

    * LO at full deadlines.  LO demand never rises as a ``Dv`` grows, and
      neither does the LO horizon bound: its ``1 - U`` is fixed and its
      numerator is a float sum of the non-negative terms
      ``u_i max(0, T_i - Dv_i)`` in a fixed order, which is monotone in
      every term.  So LO-feasible at ``best`` implies LO-feasible at
      ``D``, and the bound's overload and divergence cases agree.
    * HI at ``C_L``.  By lemma (a) at :func:`_hi_answer`, HI demand at
      ``C_L`` is pointwise at most that at ``best``; its residual
      deadlines ``D - Dv`` only grow, so the same fold argument bounds its
      classical horizon by ``best``'s.  A pass at ``best`` is a pass at
      every length, hence at ``C_L``.
    * The one gap is the horizon widening of :func:`_hi_meta_of` to the
      largest HI deadline: ``D_i - C_L_i`` can exceed the cap where
      ``D_i - best_i`` does not, and then the ``C_L`` check rejects with
      "HI horizon cap exceeded".  So the uniform search runs only when
      ``max(D_i - C_L_i) <= horizon_cap`` over the HC tasks, an O(n)
      integer test; otherwise the ``C_L`` check below rejects: its
      widened horizon overruns the cap, or the bound itself raises or
      reports overload, so no search there could accept.

    The price is one search on each candidate that one of those rejects
    used to settle first; its HI phase is memoized across the probes of
    a core (:func:`_uniform_hi_phase`).
    """
    high_tasks = list(engine._high)
    vd = {t.task_id: t.deadline for t in high_tasks}

    # Fast path: uniform deadline scaling.  ``vd_i(x) = floor(x * D_i)``
    # (clamped to the model range) is monotone in ``x``: HI demand is
    # non-increasing as ``x`` shrinks, LO demand non-decreasing.  Binary-
    # searching the largest HI-feasible ``x`` and checking LO there settles
    # most accepts in O(log D) demand evaluations, where the per-violation
    # descent needs one iteration per violation point.  The descent below
    # remains the completion pass (per-task deadlines can succeed where
    # uniform scaling cannot), so this is acceptance-neutral or better.
    if high_tasks and (
        max(t.deadline - t.wcet_lo for t in high_tasks) <= engine.horizon_cap
    ):
        uniform = _uniform_scaling_search(high_tasks, refine, engine)
        if uniform is not None:
            return uniform

    if not engine.lo_feasible(vd):
        return TuningOutcome(False, vd, 0, "LO-mode infeasible at full deadlines")

    if high_tasks:
        # Definitive fast reject: HI demand is monotone non-increasing in
        # every virtual deadline, so ``Dv_i = C_i^L`` minimizes it.  If
        # even that fails, no assignment can pass the HI check.
        floor_vd = {t.task_id: t.wcet_lo for t in high_tasks}
        try:
            floor_violation = engine.hi_violation(floor_vd, refine)
        except HorizonExceeded:
            return TuningOutcome(False, vd, 0, "HI horizon cap exceeded")
        if floor_violation is not None:
            return TuningOutcome(
                False, vd, 0,
                f"HI infeasible even at minimal Dv (l*={floor_violation})",
            )

        # V* floor reject: one HI check, under the stage's own refinement,
        # at the per-task minimal LO-feasible deadlines settles descents
        # that cannot accept.
        violation = _vstar_floor_violation(high_tasks, vd, engine, refine)
        if violation is not None:
            _dbf._COUNTERS["floor-reject-refined" if refine else "floor-reject"] += 1
            return TuningOutcome(
                False, vd, 0, f"HI infeasible at V* floor (l*={violation})"
            )

    if _dbf._KERNEL == "block":
        return _descend_block(high_tasks, vd, policy, refine, engine)
    return _descend(high_tasks, vd, policy, refine, engine)


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

    The search never consults the descent policy, so its outcome is cached
    per refinement flag — the ECDF fallback chain's second stage skips the
    bisection entirely.  The cache lives on the engine, not the
    cross-probe memo: the outcome depends on the whole candidate, and an
    engine serves exactly one.
    """
    cached = engine._uniform.get(refine)
    if cached is None:
        cached = (_uniform_scaling_search_impl(high_tasks, refine, engine),)
        engine._uniform[refine] = cached
    return cached[0]


def _uniform_scaling_search_impl(
    high_tasks: list[MCTask],
    refine: bool,
    engine: DemandEngine,
) -> TuningOutcome | None:
    """The bisection behind :func:`_uniform_scaling_search`.

    Split into a HI phase (the bisection — a pure function of the HC
    tasks, the refinement flag and, under degraded service, the LC
    members) and a LO verdict on the winning assignment.  The HI phase is
    cached in the memo across *candidates*: probing different LC tasks
    onto the same core leaves the HC set unchanged, so only the final LO
    check differs — the same sharing the per-``(HC, Dv)`` HI memo
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

    ``vd_i(x)`` is non-decreasing in ``x``, so every probe below a failing
    ``x`` is dominated by its assignment, and by lemma (a) at
    :func:`_hi_answer` violates only where that assignment does.  Each
    failing probe's QPA witness therefore bounds every later probe's
    violations (:meth:`DemandEngine.hi_feasible`'s ``ceiling``), and the
    later searches start at the tightest such bound.
    """
    memo = engine._memo
    key = ("unib", engine._high_ids, engine._lc_sig, refine)
    hit = memo.get(key)
    if hit is not None:
        best = hit[0]
        return dict(best) if best is not None else None
    ceiling: list[int | None] = [None]

    def hi_ok(vd: dict[int, int]) -> bool | None:
        try:
            return engine.hi_feasible(vd, refine, ceiling)
        except HorizonExceeded:
            return None

    def store(best: dict[int, int] | None) -> dict[int, int] | None:
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
    refine: bool,
) -> int | None:
    """Earliest HI violation at the V* floor under ``refine``, or None.

    The floor ``F`` puts every HC task at its V* with every other task at
    its full deadline ``vd`` (``C_L`` when V* is None).  A violation
    there proves that neither the uniform-scaling search nor the descent
    (scalar or block) can accept with this ``refine``:

    * every assignment either of them accepts is LO-feasible — the
      uniform search checks it, the descent and the block planner only
      commit deadlines at or above the V* of the surrounding assignment;
    * LO demand only grows as other deadlines shrink, and LO feasibility
      in ``v_i`` is a suffix above V*, so any such assignment has
      ``vd_i >= F_i`` for every task (and V* never exceeds ``D_i``);
    * HI demand, refined or not, is non-decreasing in every ``vd_i``
      (:func:`_hi_answer`, lemma (a)), and its violations sit at
      breakpoints at or below the horizon, so a violation at ``F`` is a
      violation at every assignment that dominates ``F``.

    A refined stage therefore rejects at ``F`` exactly when its own HI
    check fails there.  That covers the cheaper-looking offset cut too:
    refined demand at ``F`` is at least unrefined demand minus the
    smallest trigger cut ``min C_L``.  (Deciding ``F`` with
    :meth:`DemandEngine.hi_feasible` first and localizing only on a
    reject measured more QPA iterations: :meth:`DemandEngine.hi_check`
    finds most violations in its forward window, before any search.)
    None also covers a HI check that overruns the horizon cap: the caller
    then descends as before.
    """
    floor = {}
    for task in high_tasks:
        v_min = engine.lo_min_deadline(vd, task)
        floor[task.task_id] = task.wcet_lo if v_min is None else v_min
    try:
        return engine.hi_violation(floor, refine)
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
    while ``vd`` is fixed: the memoized check returns the identical answer
    and the candidate scores are independent of the frozen set — so the
    candidates are ranked **once per assignment** and freeze iterations
    simply advance to the next entry.
    Iteration accounting, pick order (the descending ranking's first
    non-frozen entry equals the historical per-iteration argmax: the score
    key embeds ``-task_id``, a total order) and every outcome are
    unchanged; only the redundant re-evaluations are gone.

    The loop starts where the core's cached HI trajectory stops being
    LO-feasible (:func:`_replay_trajectory`): the iterations before that
    point are the ones the loop would have spent following the trajectory
    step for step.

    Each HI check scans from the largest front the earlier checks proved
    (:func:`_hi_answer`): no integer below it violates, now or after any
    later shrink, so the scan finds the earliest violation a scan from 0
    finds — a pure cost hint.
    """
    vd = dict(vd)
    done, front = 0, 0
    if high_tasks and _lo_cap_clear(engine):
        done, front = _replay_trajectory(high_tasks, vd, policy, refine, engine)
    frozen: set[int] = set()
    current: tuple[int | None, int | None, int] | None = None
    ranked: list[tuple[tuple, MCTask, int]] | None = None
    for iteration in range(done + 1, _MAX_ITERATIONS + 1):
        if current is None:
            try:
                current = engine.hi_check(vd, refine, not_before=front)
            except HorizonExceeded:
                return TuningOutcome(
                    False, vd, iteration, "HI horizon cap exceeded"
                )
        violation, demand, floor = current
        if violation is None:
            return TuningOutcome(True, vd, iteration)
        front = max(front, floor)

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


#: Relative margin by which the all-``C_L`` LO horizon must clear the cap
#: (and the LO utilization clear 1) before a descent replays a trajectory:
#: it absorbs the float fold-order differences between that bound and the
#: per-probe horizons it dominates.
_CAP_MARGIN = 1e-6


def _lo_cap_clear(engine: DemandEngine) -> bool:
    """True when no LO horizon of a descent from full deadlines can reach
    the cap.

    The LO-mode horizon bound ``sum U_i (T_i - D_i) / (1 - U)`` only grows
    as deadlines shrink, so its value with every HC task at ``C_L`` bounds
    the worst-case horizon of every shrink probe (:class:`LoShrinkProbe`
    pins the probed task at ``C_L``) and of every exact LO check along a
    descent.  Below the cap, with a margin for fold order, a probe's
    verdict is therefore the exact check's verdict — the premise of
    :func:`_replay_trajectory`.
    """
    total_u = 0.0
    numerator = 0.0
    for t in engine.taskset:
        u = t.wcet_lo / t.period
        total_u += u
        numerator += u * max(0, t.period - (t.wcet_lo if t.is_high else t.deadline))
    if total_u > 1.0 - _CAP_MARGIN:
        return False
    bound = numerator / (1.0 - total_u) * (1.0 + _CAP_MARGIN) + 1.0
    return bound <= engine.horizon_cap


def _hi_trajectory(
    high_tasks: list[MCTask],
    vd: dict[int, int],
    policy: str,
    refine: bool,
    engine: DemandEngine,
) -> tuple[tuple, tuple | None]:
    """The core's HI-only descent trajectory from ``vd``, cached.

    The descent with every LO check assumed to pass: each step commits
    the top-ranked candidate's full ``desired`` shrink.  Returns ``(steps,
    end)`` — per step ``(task_id, new Dv, violation, demand, front)`` with
    the HI check's answer *before* the step, and the memo-style answer at
    the last assignment (``("value", answer)`` on a pass or when no
    candidate remains, ``("raise", exc)`` on a HI horizon overrun, None
    when the iteration cap cut it short).

    HI demand and the ranking read only the HC tasks, the degraded LC
    members, the starting deadlines and the policy/refinement pair, so the
    trajectory is memoized under exactly those: probes of different LC
    tasks on one core share it.  The build keeps one HI mode-task list and swaps the shrunk entry,
    with the engine's own horizon fold and kernel check, and writes no
    per-step memo entries.
    """
    memo = engine._memo
    start = tuple(vd[task_id] for task_id in engine._high_ids)
    key = ("traj", engine._high_ids, engine._lc_sig, start, policy, refine)
    trajectory = memo.get(key)
    if trajectory is not None:
        if _obs.active():
            _obs.REGISTRY.add("descent.trajectory-reuse")
        return trajectory
    vd = dict(vd)
    slot = {t.task_id: i for i, t in enumerate(engine._high)}
    tasks = [
        _ModeTask(t.wcet_hi, t.deadline - vd[t.task_id], t.period, t.wcet_lo)
        for t in engine._high
    ] + engine._lc_hi
    steps = []
    end = None
    front = 0
    for _ in range(_MAX_ITERATIONS):
        meta = _hi_meta_of(tasks, engine.horizon_cap)
        try:
            found = engine._qpa_hi_check(tasks, meta, refine, front)
        except HorizonExceeded as exc:
            end = ("raise", exc)
            break
        violation, demand, floor = found
        if violation is None:
            end = ("value", found)
            break
        ranked = _rank_candidates(
            high_tasks, vd, violation, demand - violation, policy, engine
        )
        if not ranked:
            end = ("value", found)
            break
        _key, task, desired = ranked[0]
        v_new = vd[task.task_id] - desired
        vd[task.task_id] = v_new
        tasks[slot[task.task_id]] = _ModeTask(
            task.wcet_hi, task.deadline - v_new, task.period, task.wcet_lo
        )
        steps.append((task.task_id, v_new) + found)
        front = max(front, floor)
    trajectory = (tuple(steps), end)
    memo[key] = trajectory
    if _obs.active():
        _obs.REGISTRY.add("descent.trajectories")
    return trajectory


def _replay_trajectory(
    high_tasks: list[MCTask],
    vd: dict[int, int],
    policy: str,
    refine: bool,
    engine: DemandEngine,
) -> tuple[int, int]:
    """Commit the LO-feasible prefix of the cached HI trajectory to ``vd``.

    Returns ``(steps committed, scan front)``: the state the step loop of
    :func:`_descend` would reach after those many iterations.  Exact
    because, from a LO-feasible start:

    * the loop takes a trajectory step whenever the step's LO probe
      returns the full ``desired`` shrink — no freeze, same pick, same
      next assignment;
    * under :func:`_lo_cap_clear` that probe's verdict is the exact LO
      check of the post-step assignment;
    * assignments along the trajectory only shrink, so LO demand only
      grows and LO feasibility holds on a prefix of the steps — one
      bisection finds its end.

    The HI answer at the hand-off assignment is already known (the next
    step's pre-step check, or the trajectory's end), so it is banked in the
    ``("hi", ...)`` memo entry the loop's first check reads.
    """
    steps, end = _hi_trajectory(high_tasks, vd, policy, refine, engine)

    def feasible_after(count: int) -> bool:
        probe = dict(vd)
        for task_id, v_new, _, _, _ in steps[:count]:
            probe[task_id] = v_new
        return engine.lo_feasible(probe)

    checks = 0
    # A trajectory built under a larger iteration cap replays only up to
    # the current one.
    done = min(len(steps), _MAX_ITERATIONS)
    if done:
        # The whole trajectory is LO-feasible in most descents: check its
        # end first, then bisect for the last feasible prefix.
        checks = 1
        if not feasible_after(done):
            lo, hi = 0, done - 1
            while lo < hi:
                mid = (lo + hi + 1) // 2
                checks += 1
                if feasible_after(mid):
                    lo = mid
                else:
                    hi = mid - 1
            done = lo
    front = 0
    for task_id, v_new, _, _, floor in steps[:done]:
        vd[task_id] = v_new
        front = max(front, floor)
    answer = ("value", steps[done][2:]) if done < len(steps) else end
    if answer is not None:
        engine._memo.setdefault(("hi", engine._sig_high(vd), refine), answer)
    if _obs.active():
        _obs.REGISTRY.add("descent.replayed", done)
        _obs.REGISTRY.add("descent.lo-checks", checks)
    return done, front


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

    The planner reads the engine's ``("vmin", ...)``/``("lofp", ...)``
    memo scaffolding.
    """
    vd0 = vd
    vd = dict(vd)
    frozen: set[int] = set()
    front = 0
    jumped = False
    current: tuple[int | None, int | None, int] | None = None
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
        violation, demand, floor = current
        if violation is None:
            return TuningOutcome(True, vd, iteration)
        front = max(front, floor)

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
        # The smallest useful shrink, the minimal shrink clearing the
        # deficit (:func:`_invert_shrink`) and its HI gain, in closed form
        # on plain ints: no attribute hops or memo round-trips in the
        # single hottest loop of the descent.
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
        d_now = (x // period + 1) * wcet_hi - (wcet_lo - r0 if r0 < wcet_lo else 0)
        x_floor = x - max_shrink
        if x_floor >= 0:
            residue = x_floor % period
            d_floor = (x_floor // period + 1) * wcet_hi - (
                wcet_lo - residue if residue < wcet_lo else 0
            )
        else:
            d_floor = 0
        target = d_now - d_floor
        if deficit < target:
            target = deficit
        if target <= 0:
            desired = max_shrink
        else:
            desired = _invert_shrink(task, vd_now, violation, target)
        if desired < first:
            desired = first
        x_new = x - desired
        if x_new >= 0:
            residue = x_new % period
            d_new = (x_new // period + 1) * wcet_hi - (
                wcet_lo - residue if residue < wcet_lo else 0
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
