"""Per-figure experiment configurations and runners.

Each function reproduces one figure of the paper and returns a
:class:`FigureResult` carrying the same series the paper plots.  Scale is
controlled by ``samples`` (task sets per ``UB`` bucket — the paper used
1000) and can also be set via the ``REPRO_SAMPLES`` environment variable;
see :func:`default_samples`.

Every figure is planned declaratively (:func:`figure_plan` returns the
sweeps it needs as :class:`SweepJob` entries) and executed through the
campaign runner (:mod:`repro.runner`): pass ``jobs=N`` to fan buckets out
over worker processes and ``cache=FsStore(...)`` to make runs resumable —
results are bit-identical to a serial, uncached run either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.acceptance import SweepConfig, SweepResult
from repro.experiments.weighted import weighted_acceptance_ratio
from repro.util.env import samples_from_env

__all__ = [
    "FigureResult",
    "FIGURES",
    "PAPER_FIGURES",
    "SweepJob",
    "default_samples",
    "figure_plan",
    "fig3",
    "fig4",
    "fig5",
    "fig6a",
    "fig6b",
    "fig7a",
    "fig7b",
    "run_figure",
]

#: Series of each figure, exactly as plotted in the paper.
FIG3_ALGORITHMS = ("ca-udp-edf-vd", "cu-udp-edf-vd", "ca-nosort-f-f-edf-vd")
FIG45_ALGORITHMS = ("cu-udp-amc", "cu-udp-ecdf", "eca-wu-f-ey", "ca-f-f-ey")
FIG6A_ALGORITHMS = FIG3_ALGORITHMS
FIG6B_ALGORITHMS = (
    "ca-udp-amc",
    "cu-udp-amc",
    "ca-udp-ecdf",
    "cu-udp-ecdf",
    "eca-wu-f-ey",
    "ca-f-f-ey",
)

#: PH values swept by Figure 6.
FIG6_PH_VALUES = (0.1, 0.3, 0.5, 0.7, 0.9)
FIG6_M_VALUES = (2, 4)

#: Degradation sweeps (fig7 — an extension beyond the paper): acceptance
#: ratio and weighted schedulability versus the LO-service degradation
#: level, at the paper's m grid and PH=0.5.  fig7a sweeps the imprecise
#: budget ratio rho (EDF-VD algorithms; rho=0 is equivalent to dropping LC
#: work, rho=1 keeps full LC service in HI mode); fig7b sweeps the elastic
#: period stretch lambda (demand-based ECDF/EY algorithms; lambda=1 keeps
#: full service).  Both run on implicit deadlines: under constrained
#: deadlines the joint carry-over pessimism of the demand tests leaves
#: near-full LC service with almost no acceptance region, which would make
#: the sweep degenerate.
FIG7A_ALGORITHMS = ("cu-udp-edf-vd", "cu-udp-res-edf-vd", "ca-udp-res-edf-vd")
FIG7B_ALGORITHMS = ("cu-udp-ecdf", "cu-udp-res-ecdf", "cu-udp-res-ey")
FIG7_RHO_VALUES = (0.0, 0.25, 0.5, 0.75, 1.0)
FIG7_LAMBDA_VALUES = (1.0, 1.5, 2.0, 4.0)
FIG7_M_VALUES = (2, 4)


def default_samples(fallback: int = 100) -> int:
    """Samples per bucket: ``REPRO_SAMPLES`` env var or ``fallback``."""
    return samples_from_env(fallback)


@dataclass
class FigureResult:
    """Everything a figure reports.

    ``sweeps`` holds one :class:`SweepResult` per sub-figure (keyed e.g. by
    ``m=2``); ``war`` holds weighted-acceptance-ratio tables for Figure 6
    (keyed by ``(m, PH)`` then algorithm).
    """

    figure: str
    sweeps: dict[str, SweepResult] = field(default_factory=dict)
    war: dict[tuple[int, float], dict[str, float]] = field(default_factory=dict)

    @property
    def algorithms(self) -> list[str]:
        for sweep in self.sweeps.values():
            return list(sweep.ratios)
        for table in self.war.values():
            return list(table)
        return []


@dataclass(frozen=True)
class SweepJob:
    """One sweep a figure needs: config + algorithms + result slot.

    The declarative plan unit behind every figure — the campaign runner
    uses plans both to execute figures and to size progress reporting.
    ``war_key`` marks sweeps whose weighted acceptance ratio feeds the
    figure's WAR table (Figure 6).
    """

    key: str
    config: SweepConfig
    algorithms: tuple[str, ...]
    war_key: tuple[int, float] | None = None


def _acceptance_plan(
    figure: str,
    algorithm_names: tuple[str, ...],
    deadline_type: str,
    m_values: tuple[int, ...],
    samples: int | None,
) -> list[SweepJob]:
    samples = samples if samples is not None else default_samples()
    return [
        SweepJob(
            key=f"m={m}",
            config=SweepConfig(
                label=figure,
                m=m,
                deadline_type=deadline_type,
                samples_per_bucket=samples,
            ),
            algorithms=algorithm_names,
        )
        for m in m_values
    ]


def _war_plan(
    figure: str,
    algorithm_names: tuple[str, ...],
    deadline_type: str,
    samples: int | None,
    ph_values: tuple[float, ...],
    m_values: tuple[int, ...],
) -> list[SweepJob]:
    samples = samples if samples is not None else default_samples()
    return [
        SweepJob(
            key=f"m={m},PH={ph}",
            config=SweepConfig(
                label=figure,
                m=m,
                deadline_type=deadline_type,
                p_high=ph,
                samples_per_bucket=samples,
            ),
            algorithms=algorithm_names,
            war_key=(m, ph),
        )
        for m in m_values
        for ph in ph_values
    ]


def _degradation_plan(
    figure: str,
    algorithm_names: tuple[str, ...],
    deadline_type: str,
    service_name: str,
    deg_values: tuple[float, ...],
    m_values: tuple[int, ...],
    samples: int | None,
) -> list[SweepJob]:
    """One sweep per (m, degradation value); WAR keyed by ``(m, value)``.

    All sweeps of one ``m`` share the identical task-set sample (generation
    ignores the service model), so the resulting curves isolate the effect
    of the service level.  A process generates that sample once, for the
    first service level, and the others reuse it (cluster workers included:
    they ship it back to the parent, whose next sweep's workers inherit it).
    """
    samples = samples if samples is not None else default_samples()
    return [
        SweepJob(
            key=f"m={m},{service_name}={value}",
            config=SweepConfig(
                label=figure,
                m=m,
                deadline_type=deadline_type,
                samples_per_bucket=samples,
                service=f"{service_name}:{value}",
            ),
            algorithms=algorithm_names,
            war_key=(m, value),
        )
        for m in m_values
        for value in deg_values
    ]


_PLANNERS = {
    "fig3": lambda samples, m_values=(2, 4, 8): _acceptance_plan(
        "fig3", FIG3_ALGORITHMS, "implicit", m_values, samples
    ),
    "fig4": lambda samples, m_values=(2, 4, 8): _acceptance_plan(
        "fig4", FIG45_ALGORITHMS, "implicit", m_values, samples
    ),
    "fig5": lambda samples, m_values=(2, 4, 8): _acceptance_plan(
        "fig5", FIG45_ALGORITHMS, "constrained", m_values, samples
    ),
    "fig6a": lambda samples, ph_values=FIG6_PH_VALUES, m_values=FIG6_M_VALUES: _war_plan(
        "fig6a", FIG6A_ALGORITHMS, "implicit", samples, ph_values, m_values
    ),
    "fig6b": lambda samples, ph_values=FIG6_PH_VALUES, m_values=FIG6_M_VALUES: _war_plan(
        "fig6b", FIG6B_ALGORITHMS, "constrained", samples, ph_values, m_values
    ),
    "fig7a": lambda samples, deg_values=FIG7_RHO_VALUES, m_values=FIG7_M_VALUES: _degradation_plan(
        "fig7a", FIG7A_ALGORITHMS, "implicit", "imprecise", deg_values, m_values, samples
    ),
    "fig7b": lambda samples, deg_values=FIG7_LAMBDA_VALUES, m_values=FIG7_M_VALUES: _degradation_plan(
        "fig7b", FIG7B_ALGORITHMS, "implicit", "elastic", deg_values, m_values, samples
    ),
}


def figure_plan(name: str, samples: int | None = None, **kwargs) -> list[SweepJob]:
    """The sweeps figure ``name`` would run, without running them."""
    try:
        planner = _PLANNERS[name]
    except KeyError:
        known = ", ".join(sorted(_PLANNERS))
        raise KeyError(f"unknown figure {name!r}; known: {known}") from None
    return planner(samples, **kwargs)


def _run_plan(
    figure: str,
    plan: list[SweepJob],
    jobs: int,
    cache,
    progress,
    pipeline: str = "batched",
    backend=None,
    diagnostics: list | None = None,
) -> FigureResult:
    # Imported lazily: repro.runner depends on this module for plans.
    from repro.runner.pool import run_sweep

    result = FigureResult(figure)
    for job in plan:
        sweep = run_sweep(
            job.config,
            job.algorithms,
            jobs=jobs,
            cache=cache,
            progress=progress,
            pipeline=pipeline,
            backend=backend,
            diagnostics=diagnostics,
        )
        result.sweeps[job.key] = sweep
        if job.war_key is not None:
            result.war[job.war_key] = {
                name: weighted_acceptance_ratio(sweep.buckets, ratios)
                for name, ratios in sweep.ratios.items()
            }
    return result


def fig3(
    samples: int | None = None,
    m_values: tuple[int, ...] = (2, 4, 8),
    *,
    jobs: int = 1,
    cache=None,
    progress=None,
    pipeline: str = "batched",
    backend=None,
    diagnostics: list | None = None,
) -> FigureResult:
    """Figure 3: implicit deadlines, EDF-VD algorithms (speed-up bound 8/3)."""
    plan = figure_plan("fig3", samples, m_values=m_values)
    return _run_plan("fig3", plan, jobs, cache, progress, pipeline, backend, diagnostics)


def fig4(
    samples: int | None = None,
    m_values: tuple[int, ...] = (2, 4, 8),
    *,
    jobs: int = 1,
    cache=None,
    progress=None,
    pipeline: str = "batched",
    backend=None,
    diagnostics: list | None = None,
) -> FigureResult:
    """Figure 4: implicit deadlines, algorithms without a speed-up bound."""
    plan = figure_plan("fig4", samples, m_values=m_values)
    return _run_plan("fig4", plan, jobs, cache, progress, pipeline, backend, diagnostics)


def fig5(
    samples: int | None = None,
    m_values: tuple[int, ...] = (2, 4, 8),
    *,
    jobs: int = 1,
    cache=None,
    progress=None,
    pipeline: str = "batched",
    backend=None,
    diagnostics: list | None = None,
) -> FigureResult:
    """Figure 5: constrained deadlines, algorithms without a speed-up bound."""
    plan = figure_plan("fig5", samples, m_values=m_values)
    return _run_plan("fig5", plan, jobs, cache, progress, pipeline, backend, diagnostics)


def fig6a(
    samples: int | None = None,
    ph_values: tuple[float, ...] = FIG6_PH_VALUES,
    m_values: tuple[int, ...] = FIG6_M_VALUES,
    *,
    jobs: int = 1,
    cache=None,
    progress=None,
    pipeline: str = "batched",
    backend=None,
    diagnostics: list | None = None,
) -> FigureResult:
    """Figure 6a: WAR vs PH, implicit deadlines, EDF-VD algorithms."""
    plan = figure_plan("fig6a", samples, ph_values=ph_values, m_values=m_values)
    return _run_plan("fig6a", plan, jobs, cache, progress, pipeline, backend, diagnostics)


def fig6b(
    samples: int | None = None,
    ph_values: tuple[float, ...] = FIG6_PH_VALUES,
    m_values: tuple[int, ...] = FIG6_M_VALUES,
    *,
    jobs: int = 1,
    cache=None,
    progress=None,
    pipeline: str = "batched",
    backend=None,
    diagnostics: list | None = None,
) -> FigureResult:
    """Figure 6b: WAR vs PH, constrained deadlines, AMC/ECDF vs EY."""
    plan = figure_plan("fig6b", samples, ph_values=ph_values, m_values=m_values)
    return _run_plan("fig6b", plan, jobs, cache, progress, pipeline, backend, diagnostics)


def fig7a(
    samples: int | None = None,
    deg_values: tuple[float, ...] = FIG7_RHO_VALUES,
    m_values: tuple[int, ...] = FIG7_M_VALUES,
    *,
    jobs: int = 1,
    cache=None,
    progress=None,
    pipeline: str = "batched",
    backend=None,
    diagnostics: list | None = None,
) -> FigureResult:
    """Figure 7a (extension): acceptance/WAR vs imprecise budget ratio rho."""
    plan = figure_plan("fig7a", samples, deg_values=deg_values, m_values=m_values)
    return _run_plan("fig7a", plan, jobs, cache, progress, pipeline, backend, diagnostics)


def fig7b(
    samples: int | None = None,
    deg_values: tuple[float, ...] = FIG7_LAMBDA_VALUES,
    m_values: tuple[int, ...] = FIG7_M_VALUES,
    *,
    jobs: int = 1,
    cache=None,
    progress=None,
    pipeline: str = "batched",
    backend=None,
    diagnostics: list | None = None,
) -> FigureResult:
    """Figure 7b (extension): acceptance/WAR vs elastic period stretch lambda."""
    plan = figure_plan("fig7b", samples, deg_values=deg_values, m_values=m_values)
    return _run_plan("fig7b", plan, jobs, cache, progress, pipeline, backend, diagnostics)


FIGURES = {
    "fig3": fig3,
    "fig4": fig4,
    "fig5": fig5,
    "fig6a": fig6a,
    "fig6b": fig6b,
    "fig7a": fig7a,
    "fig7b": fig7b,
}

#: The figures of the DATE 2017 paper itself (the default campaign);
#: fig7a/fig7b are this reproduction's degradation extension.
PAPER_FIGURES = ("fig3", "fig4", "fig5", "fig6a", "fig6b")


def run_figure(name: str, samples: int | None = None, **kwargs) -> FigureResult:
    """Dispatch by figure name (``fig3`` ... ``fig6b``).

    Accepts the same keyword arguments as the figure functions, including
    the runner options ``jobs``, ``cache``, ``progress`` and ``backend``.
    """
    try:
        runner = FIGURES[name]
    except KeyError:
        known = ", ".join(sorted(FIGURES))
        raise KeyError(f"unknown figure {name!r}; known: {known}") from None
    return runner(samples=samples, **kwargs)
