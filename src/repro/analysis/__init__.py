"""Uniprocessor MC schedulability tests (see README.md#fidelity-notes).

Every test implements :class:`~repro.analysis.interface.SchedulabilityTest`
and is *sufficient*: ``is_schedulable(ts) == True`` guarantees MC-correct
scheduling of ``ts`` on one unit-speed processor under the corresponding
runtime algorithm; ``False`` makes no claim.

Available tests:

* :class:`~repro.analysis.edf.EDFTest` — plain EDF on LO-mode parameters
  (non-MC substrate; utilization test for implicit deadlines, processor
  demand criterion for constrained deadlines).
* :class:`~repro.analysis.edf_vd.EDFVDTest` — EDF with virtual deadlines,
  utilization-based test of Baruah et al. (ECRTS 2012), implicit deadlines.
* :class:`~repro.analysis.ey.EYTest` — Ekberg-Yi demand-bound-function test
  with iterative virtual-deadline tuning (ECRTS 2012).
* :class:`~repro.analysis.ecdf.ECDFTest` — Easwaran's ECDF demand-based test
  with greedy virtual-deadline assignment and the carry-over trigger
  refinement (RTSS 2013; see README.md#fidelity-notes).
* :class:`~repro.analysis.amc.AMCrtbTest` /
  :class:`~repro.analysis.amc.AMCmaxTest` — fixed-priority adaptive
  mixed-criticality response-time analyses (RTSS 2011).

Tests that admit incremental evaluation also provide a per-core
:class:`~repro.analysis.context.AnalysisContext`
(``test.make_context()``), the stateful probe/commit layer the
partitioning hot loop drives; see :mod:`repro.analysis.context` for the
protocol and its bit-identical-verdicts contract.
"""

from repro.analysis.amc import AMCmaxTest, AMCrtbTest
from repro.analysis.context import (
    AMCContext,
    AnalysisContext,
    DemandContext,
    EDFVDContext,
)
from repro.analysis.dbf import (
    demand_kernel,
    kernel_counters,
    reset_kernel_counters,
    set_demand_kernel,
)
from repro.analysis.ecdf import ECDFTest
from repro.analysis.edf import EDFTest
from repro.analysis.edf_vd import EDFVDTest, edfvd_scaling_factor
from repro.analysis.ey import EYTest
from repro.analysis.interface import (
    AnalysisResult,
    SchedulabilityTest,
    get_test,
    registered_tests,
)
from repro.analysis.prefilter import (
    PrefilterBank,
    PrefilterReport,
    default_prefilter_bank,
)

__all__ = [
    "AMCmaxTest",
    "AMCrtbTest",
    "ECDFTest",
    "EDFTest",
    "EDFVDTest",
    "EYTest",
    "AMCContext",
    "AnalysisContext",
    "AnalysisResult",
    "DemandContext",
    "EDFVDContext",
    "PrefilterBank",
    "PrefilterReport",
    "SchedulabilityTest",
    "default_prefilter_bank",
    "demand_kernel",
    "edfvd_scaling_factor",
    "get_test",
    "kernel_counters",
    "registered_tests",
    "reset_kernel_counters",
    "set_demand_kernel",
]
