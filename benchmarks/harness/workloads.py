"""The harness workloads: figure slices and a store-backed campaign.

A workload is a list of figures run with one set of runner options.  One
*round* of a workload is one pass over its figure plans; rounds differ
only in the task-set sample, which is a pure function of ``(seed, round)``
through :attr:`SweepConfig.label`.  Seed 0, round 0 keeps the plain
figure name as the label, so it reproduces ``repro figure`` byte for byte.

The sample per bucket is a fixed function of the round length in seconds
(``rate`` samples per bucket per second, measured on a 2-CPU container),
never of the measured speed, so a parent and a change always judge the
same task sets.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    figures: tuple[str, ...]
    #: processor counts, or None for the figure's own default grid
    m_values: tuple[int, ...] | None
    #: samples per bucket per second of round time
    rate: float
    #: worker count handed to run_sweep (1 = in-process serial backend)
    jobs: int
    #: run through a fresh shard store, then resume from it
    campaign: bool
    why: str

    def samples(self, round_seconds: float) -> int:
        return max(1, round(self.rate * round_seconds))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fig3-edfvd", ("fig3",), (2, 4, 8), 60.0, 1, False,
            "EDF-VD sets never reach the demand kernel: generator and ledger "
            "replay only, the no-change control for descent work",
        ),
        Workload(
            "fig4-implicit", ("fig4",), (2,), 14.0, 1, False,
            "implicit deadlines: most time in the EY/ECDF shrink descent (V* "
            "search, HI checks), with the plain-EDF fast accept",
        ),
        Workload(
            "fig5-constrained", ("fig5",), (2,), 6.0, 1, False,
            "constrained deadlines: no fast accept, so more descents that "
            "lean on the screen and QPA search",
        ),
        Workload(
            "campaign-war", ("fig6a", "fig7a"), None, 16.0, 2, True,
            "about 200 cheap shards through the parallel backend and a fresh "
            "shard store, then a warm resume",
        ),
    )
}


def label(figure: str, seed: int, round_index: int) -> str:
    """Sample namespace of one round (the figure name at seed 0, round 0)."""
    name = figure if seed == 0 else f"{figure}-s{seed}"
    return name if round_index == 0 else f"{name}-r{round_index}"


def plan(workload: Workload, seed: int, round_index: int, samples: int):
    """``[(figure, [SweepJob, ...]), ...]`` for one round."""
    from repro.experiments.figures import figure_plan

    kwargs = {} if workload.m_values is None else {"m_values": workload.m_values}
    out = []
    for figure in workload.figures:
        jobs = [
            dataclasses.replace(
                job,
                config=dataclasses.replace(
                    job.config, label=label(figure, seed, round_index)
                ),
            )
            for job in figure_plan(figure, samples, **kwargs)
        ]
        out.append((figure, jobs))
    return out


def run_pass(rounds_plan, jobs: int, cache=None):
    """Run every sweep; returns ``(figure results, shard outcomes)``.

    Mirrors ``repro.experiments.figures._run_plan``: one ``run_sweep`` per
    job, WAR tables for the jobs that carry a ``war_key``.
    """
    from repro.experiments.figures import FigureResult
    from repro.experiments.weighted import weighted_acceptance_ratio
    from repro.runner.pool import run_sweep

    results = {}
    outcomes = []
    for figure, jobs_ in rounds_plan:
        result = FigureResult(figure)
        for job in jobs_:
            shards: list = []
            sweep = run_sweep(
                job.config, job.algorithms, jobs=jobs, cache=cache,
                diagnostics=shards,
            )
            outcomes.extend((job, shard) for shard in shards)
            result.sweeps[job.key] = sweep
            if job.war_key is not None:
                result.war[job.war_key] = {
                    name: weighted_acceptance_ratio(sweep.buckets, ratios)
                    for name, ratios in sweep.ratios.items()
                }
        results[figure] = result
    return results, outcomes


def tasksets(results) -> int:
    return sum(
        sum(sweep.samples)
        for result in results.values()
        for sweep in result.sweeps.values()
    )


def digest(results) -> str:
    """sha256 of the canonical results: bucket ratios and WAR tables."""
    from repro.experiments.export import figure_result_to_dict

    canonical = json.dumps(
        {fig: figure_result_to_dict(res) for fig, res in results.items()},
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def scalar_check(outcomes, seed: int) -> bool:
    """Re-run one seed-chosen shard through the scalar reference pipeline.

    The per-taskset loop shares no settling code with the batched
    pipeline (prefilter bank, ledger replay), so agreement on a shard the
    benchmark did not pick is an independent check of its verdicts.
    """
    from repro.runner.units import WorkUnit, run_unit

    job, shard = random.Random(seed).choice(
        [(job, shard) for job, shard in outcomes if shard.samples]
    )
    unit = WorkUnit(job.config, shard.bucket, tuple(job.algorithms), pipeline="scalar")
    return run_unit(unit) == shard

