"""Incremental per-core analysis contexts (the partitioning hot path).

Algorithm 1 of the paper evaluates a uniprocessor schedulability test once
per (task, candidate core) probe.  The from-scratch path rebuilds a
:class:`~repro.model.TaskSet` and reruns the full analysis for every probe;
an :class:`AnalysisContext` is the stateful per-core alternative: it keeps
the core's committed tasks, running utilization accumulators and memoized
dbf intermediates alive across probes, so only the work that actually
depends on the probed task is redone.

Protocol
--------
``probe(task)``
    Verdict for "committed tasks plus ``task``" — bit-identical to
    ``test.analyze(TaskSet(committed + [task])).schedulable``.  Probing
    never mutates observable context state (a failed probe leaves the
    context exactly as it was; only pure memo entries may be added).
``commit(task)``
    Append ``task`` to the core after a successful probe (the allocator
    mirrors this into its :class:`~repro.core.allocator.ProcessorState`
    accumulator, which stays the source of truth for the fit rules).
``analyze(task)``
    The full :class:`~repro.analysis.interface.AnalysisResult` of the
    candidate — what the differential tests compare against the
    from-scratch analysis.
``snapshot()`` / ``rollback(token)``
    Cheap O(1) state capture/restore, for callers that tentatively commit
    (the running sums are restored verbatim, so rolled-back state is
    float-exact, not merely approximately equal).

Fallback semantics
------------------
Contexts are created by :meth:`SchedulabilityTest.make_context`.  Tests
without an incremental formulation return None and
:func:`repro.core.allocator.partition` transparently falls back to the
from-scratch path, so every (strategy, test) pairing keeps working whether
or not a context exists.  Because every context value is either a running
accumulator maintained in the exact evaluation order of the from-scratch
code or a memoized pure-function result, the incremental path produces
bit-identical verdicts, virtual deadlines and sweep results — a property
the differential test suite asserts rather than assumes.

Demand-kernel independence
--------------------------
Context memo keys never encode the active demand kernel
(:func:`repro.analysis.dbf.demand_kernel`): every kernel is a sound
decision procedure over the same demand functions, so a memoized accept
is safe under any of them.  The contract is tiered: ``qpa`` is
bit-identical to the forward-walk oracle down to the descent
*trajectory* (iteration counts, committed deadlines), while ``block``
commits multi-task boundary jumps and is sound only — it can accept a
set the scalar descent rejects, so a context that switches kernels
mid-session may hold a ``block`` verdict that ``qpa`` alone would not
reach.
"""

from __future__ import annotations

import abc
from typing import Any

from repro.model import MCTask, TaskSet
from repro import obs as _obs
from repro.analysis.interface import AnalysisResult, SchedulabilityTest

__all__ = [
    "AnalysisContext",
    "EDFVDContext",
    "DemandContext",
    "AMCContext",
]


class AnalysisContext(abc.ABC):
    """Stateful per-core incremental schedulability analysis.

    The base class maintains the committed task list and the three running
    utilization sums in *commit order*.  Commit order equals the candidate
    ``TaskSet`` order of the from-scratch path, and each sum is folded
    left-to-right exactly like ``sum()`` in
    :meth:`repro.model.TaskSet.utilization` — so the accumulators are
    float-identical to the from-scratch aggregates, not merely close.
    """

    def __init__(self, test: SchedulabilityTest, service=None):
        self.test = test
        #: LC service model of the partitioned task set (None = drop).
        self.service = service
        self._degraded = service is not None and not service.is_full_drop
        self._tasks: list[MCTask] = []
        self._u_ll = 0.0
        self._u_lh = 0.0
        self._u_hh = 0.0
        #: running residual LC HI-mode utilization under ``service`` —
        #: stays exactly 0.0 under drop semantics (never accumulated), so
        #: the drop path's float state is untouched.
        self._u_res = 0.0
        self._implicit = True
        self._constrained = True
        # Rollback-divergence bookkeeping: every commit records the current
        # generation, and each rollback starts a new one.  A snapshot can
        # then tell whether the commits it would retain are really the ones
        # it saw (all from generations <= its own) or a diverged history.
        self._generation = 0
        self._epochs: list[int] = []

    # -- committed state ----------------------------------------------------
    @property
    def tasks(self) -> tuple[MCTask, ...]:
        """The committed tasks, in commit order."""
        return tuple(self._tasks)

    def taskset(self) -> TaskSet:
        """The committed tasks as an immutable :class:`TaskSet`."""
        return TaskSet(self._tasks, service_model=self.service)

    def commit(self, task: MCTask) -> None:
        """Assign ``task`` to this core."""
        if _obs.active():
            _obs.REGISTRY.add("context.commits")
        self._tasks.append(task)
        self._epochs.append(self._generation)
        if task.is_high:
            self._u_lh += task.utilization_lo
            self._u_hh += task.utilization_hi
        else:
            self._u_ll += task.utilization_lo
            if self._degraded:
                self._u_res += self.service.residual_utilization(task)
        self._implicit = self._implicit and task.implicit_deadline
        self._constrained = self._constrained and task.constrained_deadline

    def snapshot(self) -> Any:
        """Opaque token capturing the committed state (O(1))."""
        if _obs.active():
            _obs.REGISTRY.add("context.snapshots")
        return (
            len(self._tasks),
            self._generation,
            self._u_ll,
            self._u_lh,
            self._u_hh,
            self._u_res,
            self._implicit,
            self._constrained,
        )

    def rollback(self, token: Any) -> None:
        """Restore the committed state captured by :meth:`snapshot`.

        The utilization accumulators are restored to their captured float
        values verbatim (not recomputed), so a rollback is exact.  A token
        only applies to the history it saw: restoring it after the context
        has been rolled back *past* it and re-committed different tasks
        raises ``ValueError`` instead of silently pairing the captured
        sums with a diverged task list.  (Replaying the same token
        repeatedly around retries is fine — its retained prefix is
        unchanged in that pattern.)
        """
        if _obs.active():
            _obs.REGISTRY.add("context.rollbacks")
        count, generation, u_ll, u_lh, u_hh, u_res, implicit, constrained = token
        if count > len(self._tasks):
            raise ValueError("snapshot is newer than the current context state")
        if any(epoch > generation for epoch in self._epochs[:count]):
            raise ValueError(
                "snapshot does not match this context's history (the "
                "committed tasks it would retain were replaced after an "
                "earlier rollback)"
            )
        del self._tasks[count:]
        del self._epochs[count:]
        self._generation += 1
        self._u_ll = u_ll
        self._u_lh = u_lh
        self._u_hh = u_hh
        self._u_res = u_res
        self._implicit = implicit
        self._constrained = constrained

    # -- candidate helpers --------------------------------------------------
    def _candidate_sums(self, task: MCTask) -> tuple[float, float, float]:
        """(U_LL, U_LH, U_HH) of committed + ``task``, fold-order exact."""
        a, b, c = self._u_ll, self._u_lh, self._u_hh
        if task.is_high:
            b += task.utilization_lo
            c += task.utilization_hi
        else:
            a += task.utilization_lo
        return a, b, c

    def _candidate_residual(self, task: MCTask) -> float:
        """``U_res`` of committed + ``task`` (0.0 under drop semantics)."""
        if not self._degraded:
            return 0.0
        u_res = self._u_res
        if not task.is_high:
            u_res += self.service.residual_utilization(task)
        return u_res

    def _candidate_taskset(self, task: MCTask) -> TaskSet:
        return TaskSet(self._tasks + [task], service_model=self.service)

    # -- probing ------------------------------------------------------------
    @abc.abstractmethod
    def analyze(self, task: MCTask) -> AnalysisResult:
        """Full analysis of committed + ``task``; state is left untouched."""

    def probe(self, task: MCTask) -> bool:
        """Would the core stay schedulable with ``task`` added?"""
        return self.analyze(task).schedulable

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} test={self.test.name!r} "
            f"tasks={len(self._tasks)}>"
        )


class EDFVDContext(AnalysisContext):
    """EDF-VD utilization test over running sums — O(1) per probe.

    The from-scratch test is a closed-form predicate over ``(U_LL, U_LH,
    U_HH)``; with the sums maintained incrementally a probe needs no
    :class:`TaskSet` at all.  Verdicts, scaling factors and detail strings
    are produced by the same module functions on the same floats as
    :meth:`EDFVDTest.analyze`.
    """

    def analyze(self, task: MCTask) -> AnalysisResult:
        from repro.analysis.edf_vd import edfvd_admits, scaling_factor_from_sums

        if not (self._implicit and task.implicit_deadline):
            raise ValueError(
                "EDFVDTest requires an implicit-deadline task set; "
                "use ECDFTest/EYTest for constrained deadlines"
            )
        a, b, c = self._candidate_sums(task)
        u_res = self._candidate_residual(task)
        if not edfvd_admits(a, b, c, u_res):
            return AnalysisResult(
                False,
                detail=(
                    f"a={a:.4f} b={b:.4f} c={c:.4f} "
                    "fails EDF-VD utilization test"
                ),
            )
        return AnalysisResult(
            True, scaling_factor=scaling_factor_from_sums(a, b, c, u_res)
        )


class DemandContext(AnalysisContext):
    """Incremental demand-based analysis (EY and ECDF).

    Persists two things across probes:

    * the utilization accumulators, powering an O(1) necessary-condition
      pre-screen (the ``U > 1`` reject and the implicit-deadline plain-EDF
      fast accept) that settles a probe before any dbf machinery runs;
    * a memo shared by every :class:`~repro.analysis.vdtuning.DemandEngine`
      the context creates, holding per-virtual-deadline dbf query results
      (LO/HI violations, shrink searches, ``LoShrinkProbe`` instances).
      HI-mode entries are keyed by the HC tasks alone, so probing different
      LC tasks on the same core reuses all HI-mode work, and the ECDF
      fallback chain (greedy → steepest → unrefined) shares every query
      its stages have in common instead of recomputing them three times.

    ``stages`` is the ``(policy, refine)`` chain of the owning test.  The
    pre-screen is the one utilization screen of
    :func:`~repro.analysis.vdtuning.run_tuning_stages`
    (``vdtuning._utilization_screen``), applied to the running sums, which
    are float-identical to the candidate's ``TaskSet.utilization``; an
    unsettled probe then runs the stage loop (``vdtuning._run_stages``)
    without screening again.  So every probe returns the identical outcome
    ``run_tuning_stages`` returns on the candidate.
    """

    def __init__(
        self,
        test: SchedulabilityTest,
        stages: tuple[tuple[str, bool], ...],
        horizon_cap: int,
        service=None,
    ):
        from repro.analysis.vdtuning import _check_stages

        _check_stages(stages)
        super().__init__(test, service=service)
        self.stages = stages
        self.horizon_cap = horizon_cap
        self._memo: dict = {}

    def analyze(self, task: MCTask) -> AnalysisResult:
        from repro.analysis.vdtuning import (
            DemandEngine,
            _run_stages,
            _utilization_screen,
        )

        a, b, c = self._candidate_sums(task)
        # The screen of run_tuning_stages on the running sums (float-
        # identical to the candidate's TaskSet.utilization): a settled
        # probe builds no TaskSet and does no dbf work.
        verdict = _utilization_screen(
            a, b, c, self._implicit and task.implicit_deadline
        )
        if verdict is not None:
            return AnalysisResult(
                verdict[0],
                virtual_deadlines=self._full_deadlines(task),
                detail=verdict[1],
            )
        candidate = self._candidate_taskset(task)
        outcome = _run_stages(
            DemandEngine(candidate, self.horizon_cap, memo=self._memo), self.stages
        )
        return AnalysisResult(
            outcome.schedulable,
            virtual_deadlines=dict(outcome.virtual_deadlines),
            detail=outcome.detail,
        )

    def _full_deadlines(self, task: MCTask) -> dict[int, int]:
        """``{task_id: D}`` over the candidate's HC tasks (vd start point)."""
        vd = {t.task_id: t.deadline for t in self._tasks if t.is_high}
        if task.is_high:
            vd[task.task_id] = task.deadline
        return vd


class AMCContext(AnalysisContext):
    """Incremental AMC response-time analysis (deadline-monotonic policy).

    AMC's per-task feasibility depends only on the *set* of higher-priority
    tasks (the OPA-compatibility property), and deadline-monotonic order is
    a total order independent of insertion order.  Probing a new task
    therefore leaves every DM level above its insertion point with an
    unchanged higher-priority set — the context memoizes
    ``(task, hp-set) -> feasible`` verdicts so those levels are never
    recomputed, across probes and commits alike.
    """

    def __init__(self, test: SchedulabilityTest, service=None):
        super().__init__(test, service=service)
        self._memo: dict[tuple[int, frozenset[int]], bool] = {}

    def analyze(self, task: MCTask) -> AnalysisResult:
        from repro.analysis.fixed_priority import (
            deadline_monotonic_order,
            priority_map,
        )

        if not (self._constrained and task.constrained_deadline):
            raise ValueError("AMC analyses require constrained deadlines")
        order = deadline_monotonic_order(self._tasks + [task])
        hp_ids: set[int] = set()
        for level, t in enumerate(order):
            key = (t.task_id, frozenset(hp_ids))
            try:
                feasible = self._memo[key]
            except KeyError:
                feasible = self.test._feasible_at_level(t, order[:level])
                self._memo[key] = feasible
            if not feasible:
                return AnalysisResult(
                    False,
                    priorities=priority_map(order),
                    detail=f"{t.name} fails at DM level {level}",
                )
            hp_ids.add(t.task_id)
        return AnalysisResult(True, priorities=priority_map(order))
