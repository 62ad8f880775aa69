"""Exact vectorized prefilters over columnar task-set batches.

The acceptance-ratio sweeps decide one boolean per (task set, algorithm):
does :func:`repro.core.allocator.partition` succeed?  This module evaluates
*necessary conditions* for that success over a whole
:class:`~repro.model.batch.TaskSetBatch` at once; every set a filter
settles is **rejected for certain** — each decision is provably equal to
the full partition outcome, never a heuristic — so the curves the batched
pipeline produces stay bit-identical to the scalar path while the expensive
per-taskset machinery only runs on the survivors.

Why the rejects are exact
-------------------------
``sum-lo`` (``sum(u_i^L) > m``) and ``sum-hi`` (``sum(u_i^H) > m`` over HC
tasks) rest on a pigeonhole argument: if :func:`partition` succeeded, every
core's final state was accepted by the schedulability test, and each
registered test only ever accepts a core whose LO utilization (resp. HI
utilization) is at most ``1 + 1e-9``:

* EDF-VD admits via ``a + c <= 1`` (and ``b <= c``) or explicitly gates on
  ``a + b <= 1`` and ``c <= 1`` (:func:`repro.analysis.edf_vd.edfvd_admits`);
* the EY/ECDF tuning rejects up front when ``U_LO`` or ``U_HH`` exceeds
  ``1 + 1e-9`` (and its fast-accept region satisfies both bounds);
* the AMC response-time iterations diverge past any deadline once a core's
  utilization exceeds 1 in either mode.

Summing the per-core bounds, success implies ``sum <= m * (1 + 1e-9)`` up
to float-fold noise.  The filters therefore fire only above
``m + SUM_MARGIN`` with ``SUM_MARGIN`` orders of magnitude larger than both
the tests' epsilon and the worst-case difference between numpy's pairwise
segment sums and the analyses' left-folded sums — firing proves failure.

``lone-task`` uses subset monotonicity: a task the test rejects *alone on
an empty core* can never be admitted on any core (every candidate core set
is a superset of the singleton; see
:attr:`~repro.analysis.interface.SchedulabilityTest.is_subset_monotone`),
so every allocation order dooms the set.  Candidate tasks are screened
vectorized (a task with ``C^H <= D`` and own-level utilization at most
``1 + 1e-9`` is accepted alone by every registered test — the singleton
demand fits each window, see the test-specific arguments in
``tests/analysis/test_prefilter.py``) and the rare survivors are confirmed
by running the *actual* test on a materialized singleton, which is the same
verdict an empty-core probe produces.

Probe screens
-------------
Beyond whole-batch rejects, tests can expose a :class:`ProbeScreen` — the
O(1) utilization region in which a single admission probe's verdict is
already determined.  :func:`repro.core.batch.partition_batch` replays the
allocation loop of every pending set in lockstep through these screens
("utilization-ledger replay"), asking :meth:`ProbeScreen.decide_many` for
the codes of one step's probes on all sets and cores at once, and settles
every set whose walk never leaves the decided region.  The EDF-VD screen
is complete (every probe decides); the EY/ECDF screen mirrors the
pre-screen of :class:`repro.analysis.context.DemandContext` and leaves
probes that would need dbf work undecided, which drops that one set to
the per-taskset path.

Every filter and screen here is demand-kernel independent: the conditions
are utilization arithmetic over the batch columns and never evaluate a
demand bound function, so the rejects hold — and the survivors' verdicts
stay bit-identical — whichever kernel (``qpa`` or ``block``, see
:func:`repro.analysis.dbf.set_demand_kernel`) analyzes the survivors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.model import TaskSet, TaskSetBatch
from repro.analysis.interface import SchedulabilityTest

__all__ = [
    "SUM_MARGIN",
    "ProbeScreen",
    "EDFVDScreen",
    "DemandPreScreen",
    "PrefilterReport",
    "PrefilterBank",
    "default_prefilter_bank",
]

#: Fire the utilization-sum filters only above ``m + SUM_MARGIN``.  The
#: margin dominates the tests' acceptance epsilon (``m * 1e-9`` for any
#: realistic core count) plus summation-order noise (``<= n * ulp``), which
#: is what makes a firing filter a *proof* of partition failure.
SUM_MARGIN = 1e-7

#: The utilization epsilon of the O(1) probe screens — the exact constant
#: used by the EDF-VD test and the DemandContext pre-screen.
_EPS = 1e-9


class ProbeScreen:
    """O(1) admission-probe decider over candidate utilization sums.

    ``decide`` receives the candidate core's accumulated sums *with the
    probed task already folded in* — ``a = U_LL``, ``b = U_LH``,
    ``c = U_HH``, ``u_res`` the residual LC HI-mode utilization — plus
    whether core and task are all implicit-deadline.  It returns the probe
    verdict, or None when the verdict cannot be determined from the sums
    alone (the caller then abandons the columnar replay for that set).
    Implementations must be bit-exact mirrors of the corresponding
    incremental context's arithmetic.  :meth:`decide_many` is ``decide``
    over arrays, the form the lockstep replay calls once per step.
    """

    def decide(
        self,
        a: float,
        b: float,
        c: float,
        u_res: float,
        implicit: bool,
    ) -> bool | None:
        raise NotImplementedError

    def decide_many(self, a, b, c, u_res, implicit) -> np.ndarray:
        """:meth:`decide` over equal-shape float arrays, as int8 codes.

        ``implicit`` is a bool array of the same shape or the scalar
        ``True``.  Codes: 1 admit, 0 reject, -1 undecided (None), -2
        invalid input (``decide`` raises ``ValueError``; the replay
        re-runs the scalar probe where a walk would evaluate it, so the
        error surfaces unchanged).  This loop over :meth:`decide` is the
        reference; subclasses override it with vectorized transcriptions.
        """
        shape = np.shape(a)
        implicit = np.broadcast_to(implicit, shape).ravel().tolist()
        codes = []
        for args in zip(
            np.ravel(a).tolist(),
            np.ravel(b).tolist(),
            np.ravel(c).tolist(),
            np.ravel(u_res).tolist(),
            implicit,
        ):
            try:
                verdict = self.decide(*args)
            except ValueError:
                codes.append(-2)
                continue
            codes.append(-1 if verdict is None else int(verdict))
        return np.array(codes, dtype=np.int8).reshape(shape)


class EDFVDScreen(ProbeScreen):
    """The EDF-VD utilization test *is* an O(1) screen.

    Delegates to :func:`repro.analysis.edf_vd.edfvd_admits`, the very
    function :class:`~repro.analysis.context.EDFVDContext` probes with, on
    the same floats.  Every implicit-deadline probe is decided; a
    non-implicit candidate — which the context would reject with an error
    — reports None so the replay backs off to the scalar path's gates.
    """

    def __init__(self):
        from repro.analysis.edf_vd import edfvd_admits

        self._admits = edfvd_admits

    def decide(self, a, b, c, u_res, implicit):
        if not implicit:
            return None
        return self._admits(a, b, c, u_res)

    def decide_many(self, a, b, c, u_res, implicit):
        """``edfvd_admits`` transcribed term by term onto arrays.

        Every ``+ - * /`` is the same IEEE double operation, in the same
        expression order, as the scalar function, so each code equals its
        verdict bit for bit (for finite inputs).
        """
        one = 1.0 + _EPS
        reject = (a + b > one) | (c > one) | (a >= 1.0 - _EPS)
        # x = b / (1 - a) only matters where a < 1 - 1e-9; elsewhere the
        # denominator is replaced so no division by zero can occur.
        denominator = 1.0 - a
        denominator[reject] = 1.0
        x = b / denominator
        hi_mode = x * a + (1.0 - x) * u_res + c <= one
        admit = (a + c <= one) | (~reject & hi_mode)
        codes = admit.view(np.int8)
        codes[
            (np.minimum(np.minimum(a, b), c) < -_EPS)
            | (b > c + _EPS)
            | ~((-_EPS <= u_res) & (u_res <= a + _EPS))
        ] = -2
        if implicit is not True:
            codes[~implicit] = -1
        return codes


class DemandPreScreen(ProbeScreen):
    """The utilization pre-screen of the EY/ECDF incremental context.

    ``decide`` is the term-for-term transcription of the opening checks of
    :meth:`repro.analysis.context.DemandContext.analyze`: reject when
    ``a + b`` or ``c`` exceeds ``1 + 1e-9``; accept the implicit-deadline
    plain-EDF reserve ``a + c <= 1 + 1e-9``; everything else needs dbf work
    and reports None, which drops the set to the per-taskset path.
    """

    def decide(self, a, b, c, u_res, implicit):
        if a + b > 1.0 + _EPS or c > 1.0 + _EPS:
            return False
        if implicit and a + c <= 1.0 + _EPS:
            return True
        return None

    def decide_many(self, a, b, c, u_res, implicit):
        """The utilization gates of :meth:`decide` over arrays."""
        one = 1.0 + _EPS
        accept = (a + c <= one) & implicit
        codes = np.where(accept, np.int8(1), np.int8(-1))
        codes[(a + b > one) | (c > one)] = 0
        return codes


@dataclass
class PrefilterReport:
    """Which sets the bank settled, and which filter settled each.

    ``settled[i]`` is the name of the filter that decided set ``i`` (all
    decisions are rejects), or None when the set fell through.  ``counts``
    aggregates per filter over the batch — the "settled-count report" the
    batched sweep and the benchmark surface.
    """

    settled: list[str | None]
    counts: dict[str, int] = field(default_factory=dict)


class PrefilterBank:
    """The ordered filter bank; see module docstring for exactness proofs.

    One bank serves one schedulability test: the lone-task filter memoizes
    verdicts of *that test* (per service model), so :meth:`apply` pins the
    first test instance it sees and rejects any other — sharing a bank
    across tests would replay one test's verdicts as another's.
    """

    def __init__(self):
        self._test: SchedulabilityTest | None = None
        #: memoized singleton verdicts keyed by (service key, task params)
        self._lone_memo: dict[tuple, bool] = {}

    def serves(self, test: SchedulabilityTest) -> bool:
        """Whether this bank can apply ``test`` (unbound, or bound to it)."""
        return self._test is None or self._test is test

    def apply(
        self, batch: TaskSetBatch, m: int, test: SchedulabilityTest
    ) -> PrefilterReport:
        """Run every filter over ``batch``; later filters skip settled sets."""
        if self._test is None:
            self._test = test
        elif self._test is not test:
            raise ValueError(
                "a PrefilterBank serves exactly one test instance; this "
                f"bank is bound to {self._test!r}, got {test!r} — create "
                "one bank per (algorithm, test)"
            )
        n_sets = len(batch)
        settled: list[str | None] = [None] * n_sets
        counts = {"sum-lo": 0, "sum-hi": 0, "lone-task": 0}
        if n_sets == 0:
            return PrefilterReport(settled, counts)

        # The per-set sums depend on the batch alone; several algorithms
        # walk the same batch per bucket, so they live in its scratch memo.
        sums = batch.replay_cache.get("prefilter-sums")
        if sums is None:
            sums = (
                batch.sum_per_set(batch.u_lo),
                batch.sum_per_set(np.where(batch.is_high, batch.u_hi, 0.0)),
            )
            batch.replay_cache["prefilter-sums"] = sums
        sum_lo, sum_hi = sums
        for i in np.flatnonzero(sum_lo > m + SUM_MARGIN):
            settled[i] = "sum-lo"
            counts["sum-lo"] += 1
        for i in np.flatnonzero(sum_hi > m + SUM_MARGIN):
            if settled[i] is None:
                settled[i] = "sum-hi"
                counts["sum-hi"] += 1

        if getattr(test, "is_subset_monotone", True):
            counts["lone-task"] += self._apply_lone_task(batch, test, settled)
        return PrefilterReport(settled, counts)

    # -- lone-task filter ----------------------------------------------------
    def _apply_lone_task(
        self,
        batch: TaskSetBatch,
        test: SchedulabilityTest,
        settled: list[str | None],
    ) -> int:
        """Settle sets containing a task the test rejects alone.

        The vectorized screen keeps only tasks that could conceivably fail
        alone (``C^H > D``, or own-level utilization above ``1 + 1e-9``);
        each survivor's verdict comes from the real test on a singleton
        task set (memoized by parameters), so a settle is the exact
        empty-core probe outcome plus subset monotonicity.
        """
        u_own = np.where(batch.is_high, batch.u_hi, batch.u_lo)
        suspect = (batch.wcet_hi > batch.deadline) | (u_own > 1.0 + _EPS)
        if not suspect.any():
            return 0
        service = batch.service_model
        fired = 0
        for i in range(len(batch)):
            if settled[i] is not None:
                continue
            rows = batch.set_slice(i)
            for j in np.flatnonzero(suspect[rows]):
                row = rows.start + int(j)
                if not self._lone_task_fails(batch, row, test, service):
                    continue
                settled[i] = "lone-task"
                fired += 1
                break
        return fired

    def _lone_task_fails(
        self, batch: TaskSetBatch, row: int, test, service
    ) -> bool:
        service_key = (
            None if service is None or service.is_full_drop else service.key()
        )
        key = (
            service_key,
            int(batch.period[row]),
            int(batch.wcet_lo[row]),
            int(batch.wcet_hi[row]),
            int(batch.deadline[row]),
            bool(batch.is_high[row]),
            int(batch.wcet_degraded[row]),
            int(batch.period_degraded[row]),
        )
        verdict = self._lone_memo.get(key)
        if verdict is None:
            singleton = TaskSet([batch.row_task(row)], service_model=service)
            verdict = not test.is_schedulable(singleton)
            self._lone_memo[key] = verdict
        return verdict


def default_prefilter_bank() -> PrefilterBank:
    """A fresh bank with every exact filter enabled."""
    return PrefilterBank()
