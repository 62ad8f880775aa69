"""Ekberg-Yi demand-bound test with deadline tuning (S5).

Implements the ECRTS 2012 "Bounding and shaping the demand of
mixed-criticality sporadic tasks" analysis: the two-mode dbf of
:mod:`repro.analysis.dbf` (without the trigger refinement) combined with the
iterative tuning loop that shrinks one virtual deadline at a time, always
picking the task with the steepest HI-demand reduction at the earliest
violation point.

In the DATE 2017 paper this test (under the name EY) backs the two baseline
partitioned algorithms ECA-Wu-F-EY and CA-F-F-EY; the paper characterizes it
as "relatively less efficient in terms of schedulability" than ECDF, which
the test suite verifies empirically on random batches.

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

__all__ = ["EYTest"]

#: EY is a single-stage tuning chain: steepest descent, no refinement.
_EY_STAGES: tuple[tuple[str, bool], ...] = (("steepest", False),)


class EYTest(SchedulabilityTest):
    """Ekberg-Yi dbf test with steepest-descent virtual-deadline tuning."""

    name = "ey"

    def __init__(self, horizon_cap: int = DEFAULT_HORIZON_CAP):
        self.horizon_cap = horizon_cap

    def analyze(self, taskset: TaskSet) -> AnalysisResult:
        outcome = run_tuning_stages(taskset, _EY_STAGES, self.horizon_cap)
        return AnalysisResult(
            outcome.schedulable,
            virtual_deadlines=dict(outcome.virtual_deadlines),
            detail=outcome.detail,
        )

    def supports_service_model(self, service) -> bool:
        """The dbf machinery carries the residual LC HI-mode demand term."""
        return True

    def make_context(self, service=None):
        """Incremental context sharing dbf work across per-core probes."""
        from repro.analysis.context import DemandContext

        return DemandContext(self, _EY_STAGES, self.horizon_cap, service=service)

    def batch_screen(self):
        """Partial probe screen — the context's utilization pre-screen."""
        from repro.analysis.prefilter import DemandPreScreen

        return DemandPreScreen()


register_test("ey", EYTest)
