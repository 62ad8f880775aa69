"""Experiment harness reproducing the paper's evaluation (S12).

Entry points, one per figure of the paper (see
README.md#reproducing-the-papers-figures-at-full-scale):

* :func:`~repro.experiments.figures.fig3` — acceptance ratio vs ``UB``,
  implicit deadlines, EDF-VD algorithms with a speed-up bound.
* :func:`~repro.experiments.figures.fig4` — implicit deadlines, algorithms
  without a speed-up bound (AMC / ECDF vs EY baselines).
* :func:`~repro.experiments.figures.fig5` — the constrained-deadline
  counterpart of Figure 4.
* :func:`~repro.experiments.figures.fig6a` / ``fig6b`` — weighted acceptance
  ratio vs the HC-task percentage ``PH``.

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
    fig3,
    fig4,
    fig5,
    fig6a,
    fig6b,
    fig7a,
    fig7b,
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
    "fig3",
    "fig4",
    "fig5",
    "fig6a",
    "fig6b",
    "fig7a",
    "fig7b",
    "run_figure",
    "improvement_summary",
    "render_sweep",
    "render_war",
    "sweep_to_csv",
]
