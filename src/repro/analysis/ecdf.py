"""ECDF — Easwaran's demand-based test with greedy deadline assignment (S6).

Reconstruction of "Demand-based scheduling of mixed-criticality sporadic
tasks on one processor" (RTSS 2013) from its published structure:

* the same two-mode dbf abstraction as EY (:mod:`repro.analysis.dbf`);
* the *carry-over trigger refinement*: on a partitioned core the mode switch
  is triggered by a local HC job that has exhausted exactly its LO budget,
  so one carry-over contribution can be tightened by
  ``min(C_L, x mod T)`` — the HI check runs with ``refine=True``;
* the *greedy deadline assignment*: virtual deadlines are assigned by a
  benefit/cost rule (HI-demand reduction per unit of LO-mode density
  increase) instead of EY's steepest-descent pick.

See README.md#fidelity-notes for the fidelity discussion.  The property
relied on by the DATE 2017 experiments — ECDF accepts a superset of EY in
practice — is enforced structurally here: ``ECDFTest`` falls back to the EY
descent path when the greedy path fails, so its acceptance region
*contains* EY's by construction, with the trigger refinement providing
strict improvements.

Valid for implicit- and constrained-deadline dual-criticality task sets.
"""

from __future__ import annotations

from repro.model import TaskSet
from repro.analysis.dbf import DEFAULT_HORIZON_CAP
from repro.analysis.interface import (
    AnalysisResult,
    SchedulabilityTest,
    register_test,
)
from repro.analysis.vdtuning import run_tuning_stages

__all__ = ["ECDFTest"]


class ECDFTest(SchedulabilityTest):
    """ECDF dbf test: trigger-refined demand + greedy deadline assignment."""

    name = "ecdf"

    def __init__(
        self,
        horizon_cap: int = DEFAULT_HORIZON_CAP,
        fallback_to_steepest: bool = True,
    ):
        self.horizon_cap = horizon_cap
        self.fallback_to_steepest = fallback_to_steepest

    @property
    def stages(self) -> tuple[tuple[str, bool], ...]:
        """The ``(policy, refine)`` fallback chain of this test.

        The greedy rule can occasionally descend into a corner the steepest
        rule avoids; on rejection the chain retries with the refined
        steepest descent, then with EY's exact descent path
        (``refine=False``), which makes ECDF's acceptance region a superset
        of EY's by construction.
        """
        if not self.fallback_to_steepest:
            return (("ratio", True),)
        return (("ratio", True), ("steepest", True), ("steepest", False))

    def analyze(self, taskset: TaskSet) -> AnalysisResult:
        outcome = run_tuning_stages(taskset, self.stages, self.horizon_cap)
        return AnalysisResult(
            outcome.schedulable,
            virtual_deadlines=dict(outcome.virtual_deadlines),
            detail=outcome.detail,
        )

    def supports_service_model(self, service) -> bool:
        """The dbf machinery carries the residual LC HI-mode demand term."""
        return True

    def make_context(self, service=None):
        """Incremental context sharing dbf work across probes and stages."""
        from repro.analysis.context import DemandContext

        return DemandContext(self, self.stages, self.horizon_cap, service=service)

    def batch_screen(self):
        """Partial probe screen — the context's utilization pre-screen."""
        from repro.analysis.prefilter import DemandPreScreen

        return DemandPreScreen()


register_test("ecdf", ECDFTest)
