"""Experiment harness reproducing the paper's evaluation (S12).

One entry point runs every figure of the paper (see
README.md#reproducing-the-papers-figures-at-full-scale):
:func:`~repro.experiments.figures.run_figure` with a name from
:data:`~repro.experiments.figures.FIGURES`, whose plan
(:func:`~repro.experiments.figures.figure_plan`) is the figure:

* ``fig3`` — acceptance ratio vs ``UB``, implicit deadlines, EDF-VD
  algorithms with a speed-up bound.
* ``fig4`` — implicit deadlines, algorithms without a speed-up bound
  (AMC / ECDF vs EY baselines).
* ``fig5`` — the constrained-deadline counterpart of Figure 4.
* ``fig6a`` / ``fig6b`` — weighted acceptance ratio vs the HC-task
  percentage ``PH``.
* ``fig7a`` / ``fig7b`` — the degraded-LC-service extension: acceptance
  vs the imprecise budget ratio ``rho`` / the elastic stretch ``lambda``.

All runs are deterministic: task sets derive from
``spawn_seed(label, m, deadline type, PH, bucket, replicate)`` so any data
point can be regenerated in isolation.
"""

from repro.experiments.algorithms import (
    PartitionedAlgorithm,
    get_algorithm,
    registered_algorithms,
)
from repro.experiments.acceptance import (
    AcceptanceSweep,
    BucketOutcome,
    SweepConfig,
    SweepResult,
    merge_outcomes,
)
from repro.experiments.export import (
    load_figure_result,
    save_figure_result,
)
from repro.experiments.sensitivity import (
    SensitivityResult,
    difference_sensitivity,
)
from repro.experiments.weighted import weighted_acceptance_ratio
from repro.experiments.figures import (
    FIGURES,
    PAPER_FIGURES,
    FigureResult,
    SweepJob,
    figure_plan,
    run_figure,
)
from repro.experiments.report import (
    improvement_summary,
    render_sweep,
    render_war,
    sweep_to_csv,
)

__all__ = [
    "PartitionedAlgorithm",
    "get_algorithm",
    "registered_algorithms",
    "AcceptanceSweep",
    "BucketOutcome",
    "SweepConfig",
    "SweepResult",
    "merge_outcomes",
    "SensitivityResult",
    "difference_sensitivity",
    "load_figure_result",
    "save_figure_result",
    "weighted_acceptance_ratio",
    "FIGURES",
    "PAPER_FIGURES",
    "FigureResult",
    "SweepJob",
    "figure_plan",
    "run_figure",
    "improvement_summary",
    "render_sweep",
    "render_war",
    "sweep_to_csv",
]
