"""Synthetic MC task-set generation.

Implements the experiment setup of Section IV of the paper: the fair MC
task-set generator of Ramanathan & Easwaran (WATERS 2016) built on the
standard utilization-distribution techniques — UUniFast / UUniFast-discard
(Bini & Buttazzo) and Stafford's randfixedsum (Emberson, Stafford & Davis,
WATERS 2010) — with log-uniform periods.  Generation runs in two phases,
scalar draws per set and one numpy pass per batch; the README's "The
generator's stream contract" states what every change here must keep.
"""

from repro.generator.grid import (
    GridPoint,
    UtilizationGrid,
    bucket_by_bound,
)
from repro.generator.mcgen import GeneratorConfig, MCTaskSetGenerator
from repro.generator.periods import log_uniform_periods
from repro.generator.uunifast import (
    randfixedsum,
    uunifast,
    uunifast_discard,
)

__all__ = [
    "GridPoint",
    "UtilizationGrid",
    "bucket_by_bound",
    "GeneratorConfig",
    "MCTaskSetGenerator",
    "log_uniform_periods",
    "randfixedsum",
    "uunifast",
    "uunifast_discard",
]
