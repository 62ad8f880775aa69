"""Discrete-event mixed-criticality simulator (see README.md#fidelity-notes).

Simulates preemptive uniprocessor scheduling of dual-criticality task sets
under the runtime algorithms whose tests live in :mod:`repro.analysis`:

* EDF and EDF-VD (dynamic priority, virtual deadlines in LO mode);
* fixed-priority AMC (static priorities, LC tasks dropped at mode switch);

with faithful mode semantics: the processor switches LO→HI at the first
instant a HC job executes beyond its LO budget, drops LC work if the policy
says so, and returns to LO at the next idle instant.  A *partitioned* run
simulates each core independently — mode switches never propagate across
cores, the isolation property Section II of the paper highlights.

The simulator's role in this reproduction is adversarial validation: for any
task set accepted by an analysis, no simulated scenario may ever produce an
MC-criterion deadline miss (HC misses are always violations, LC misses only
in LO mode).  See :mod:`repro.sim.validate`.
"""

from repro.sim.policies import (
    AMCPolicy,
    EDFPolicy,
    EDFVDPolicy,
    SchedulingPolicy,
)
from repro.sim.scenario import (
    FixedOverrunScenario,
    NominalScenario,
    RandomScenario,
    Scenario,
)
from repro.sim.uniprocessor import MissRecord, SimResult, UniprocessorSim
from repro.sim.partitioned import PartitionedSim, PartitionedSimResult
from repro.sim.validate import policy_for, validate_against_simulation

__all__ = [
    "SchedulingPolicy",
    "EDFPolicy",
    "EDFVDPolicy",
    "AMCPolicy",
    "Scenario",
    "NominalScenario",
    "FixedOverrunScenario",
    "RandomScenario",
    "UniprocessorSim",
    "SimResult",
    "MissRecord",
    "PartitionedSim",
    "PartitionedSimResult",
    "policy_for",
    "validate_against_simulation",
]
