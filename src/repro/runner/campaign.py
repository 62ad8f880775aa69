"""Declarative experiment campaigns: many figures, one resumable run.

A :class:`CampaignSpec` names the figures to reproduce (with optional
per-figure scale overrides); :func:`run_campaign` executes every sweep
through the shard runner, persists each figure under ``out_dir`` via
:mod:`repro.experiments.export`, and keeps every shard in a
content-addressed cache so an interrupted or repeated campaign only pays
for shards it has never computed.  A ``campaign.json`` manifest records
what was produced and how much came from cache.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro import obs
from repro.obs.journal import emit_open, journal_env
from repro.experiments.export import save_figure_result
from repro.experiments.figures import FIGURES, PAPER_FIGURES, run_figure
from repro.runner.executor import ExecutorBackend
from repro.runner.progress import ProgressReporter
from repro.runner.store import create_store
from repro.util.env import runner_backend_from_env, runner_store_from_env

__all__ = ["FigureJob", "CampaignSpec", "CampaignReport", "run_campaign"]


@dataclass(frozen=True)
class FigureJob:
    """One figure to reproduce, with optional scale overrides."""

    figure: str
    samples: int | None = None
    m_values: tuple[int, ...] | None = None
    ph_values: tuple[float, ...] | None = None
    #: degradation-level overrides (rho for fig7a, lambda for fig7b)
    deg_values: tuple[float, ...] | None = None
    key: str = ""  #: output stem; defaults to the figure name

    def __post_init__(self):
        if self.figure not in FIGURES:
            known = ", ".join(sorted(FIGURES))
            raise ValueError(f"unknown figure {self.figure!r}; known: {known}")
        if self.ph_values is not None and self.figure not in ("fig6a", "fig6b"):
            raise ValueError(f"{self.figure} does not sweep PH values")
        if self.deg_values is not None and self.figure not in ("fig7a", "fig7b"):
            raise ValueError(f"{self.figure} does not sweep degradation values")
        if not self.key:
            object.__setattr__(self, "key", self.figure)

    def run_kwargs(self) -> dict[str, Any]:
        kwargs: dict[str, Any] = {"samples": self.samples}
        if self.m_values is not None:
            kwargs["m_values"] = self.m_values
        if self.ph_values is not None:
            kwargs["ph_values"] = self.ph_values
        if self.deg_values is not None:
            kwargs["deg_values"] = self.deg_values
        return kwargs

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"figure": self.figure, "key": self.key}
        if self.samples is not None:
            data["samples"] = self.samples
        if self.m_values is not None:
            data["m_values"] = list(self.m_values)
        if self.ph_values is not None:
            data["ph_values"] = list(self.ph_values)
        if self.deg_values is not None:
            data["deg_values"] = list(self.deg_values)
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FigureJob":
        return cls(
            figure=data["figure"],
            samples=data.get("samples"),
            m_values=tuple(data["m_values"]) if "m_values" in data else None,
            ph_values=tuple(data["ph_values"]) if "ph_values" in data else None,
            deg_values=tuple(data["deg_values"]) if "deg_values" in data else None,
            key=data.get("key", ""),
        )


@dataclass(frozen=True)
class CampaignSpec:
    """A named set of figure jobs (the paper's full evaluation by default)."""

    name: str
    figures: tuple[FigureJob, ...]

    def __post_init__(self):
        if not self.figures:
            raise ValueError("a campaign needs at least one figure job")
        keys = [job.key for job in self.figures]
        duplicates = {key for key in keys if keys.count(key) > 1}
        if duplicates:
            raise ValueError(
                f"duplicate output keys {sorted(duplicates)}; give jobs "
                f"sharing a figure distinct 'key' values"
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "figures": [job.to_dict() for job in self.figures],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CampaignSpec":
        return cls(
            name=data["name"],
            figures=tuple(FigureJob.from_dict(j) for j in data["figures"]),
        )

    @classmethod
    def from_json_file(cls, path: str | Path) -> "CampaignSpec":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    @classmethod
    def paper_evaluation(cls, samples: int | None = None) -> "CampaignSpec":
        """Every figure of the paper at uniform scale.

        Covers the paper's own figures only; the degradation extension
        sweeps run on request (``--figures fig7a,fig7b`` or
        :meth:`degradation_extension`).
        """
        return cls(
            name="paper-evaluation",
            figures=tuple(
                FigureJob(name, samples=samples) for name in PAPER_FIGURES
            ),
        )

    @classmethod
    def degradation_extension(cls, samples: int | None = None) -> "CampaignSpec":
        """The LO-service degradation sweeps (fig7a: imprecise budgets vs
        rho, fig7b: elastic periods vs lambda)."""
        return cls(
            name="degradation-extension",
            figures=(
                FigureJob("fig7a", samples=samples),
                FigureJob("fig7b", samples=samples),
            ),
        )


@dataclass
class CampaignReport:
    """What a campaign run produced and what it cost."""

    spec: CampaignSpec
    outputs: dict[str, Path] = field(default_factory=dict)
    shards_computed: int = 0
    shards_cached: int = 0
    backend: str = "auto"
    store: str = "fs"

    def to_dict(self) -> dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "outputs": {key: str(path) for key, path in self.outputs.items()},
            "shards_computed": self.shards_computed,
            "shards_cached": self.shards_cached,
            "backend": self.backend,
            "store": self.store,
        }


def run_campaign(
    spec: CampaignSpec,
    out_dir: str | Path,
    *,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    progress: ProgressReporter | None = None,
    pipeline: str = "batched",
    backend: "str | ExecutorBackend | None" = None,
    store: str | None = None,
    journal: str | Path | None = None,
) -> CampaignReport:
    """Execute ``spec``, writing one ``<key>.json`` per figure job.

    The shard store defaults to ``<out_dir>/cache`` so simply re-running
    the same command resumes/finishes an interrupted campaign; point
    ``cache_dir`` at shared storage to share shards across campaigns and
    hosts.  ``pipeline`` selects the shard execution path (columnar
    ``"batched"`` by default), ``backend`` the executor (``serial`` /
    ``cluster``; default consults ``REPRO_RUNNER_BACKEND``)
    and ``store`` the shard-store layout (``fs`` / ``object``; default
    consults ``REPRO_RUNNER_STORE``) — outputs and shard payloads are
    identical under every combination.

    ``journal`` names the durable event-journal file (``--journal`` on
    the CLI); ``None`` consults ``REPRO_OBS_JOURNAL``.  The path is
    exported through that env knob for the duration, so worker processes
    inherit it and every writer agrees on the file.  Journaling is
    observe-only: outputs, WAR tables and shard-cache bytes are
    bit-identical with it on or off.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    store_kind = store if store is not None else runner_store_from_env()
    cache = create_store(
        store_kind, cache_dir if cache_dir is not None else out / "cache"
    )

    report = CampaignReport(spec)
    if isinstance(backend, ExecutorBackend):
        report.backend = backend.name
    else:
        report.backend = backend or runner_backend_from_env("") or "auto"
    report.store = store_kind
    with journal_env(journal) as jrnl:
        if jrnl is not None:
            emit_open(jrnl, campaign=spec.name)
            jrnl.emit(
                "campaign-start",
                campaign=spec.name,
                figures=[job.key for job in spec.figures],
                backend=report.backend,
                store=store_kind,
            )
        with obs.span("campaign", campaign=spec.name):
            for job in spec.figures:
                if jrnl is not None:
                    jrnl.emit("figure-start", figure=job.figure, key=job.key)
                with obs.span("figure", figure=job.figure, key=job.key):
                    result = run_figure(
                        job.figure,
                        jobs=jobs,
                        cache=cache,
                        progress=progress,
                        pipeline=pipeline,
                        backend=backend,
                        **job.run_kwargs(),
                    )
                path = out / f"{job.key}.json"
                save_figure_result(result, path)
                report.outputs[job.key] = path
                if jrnl is not None:
                    jrnl.emit(
                        "figure-done",
                        figure=job.figure,
                        key=job.key,
                        output=str(path),
                    )
        if progress is not None:
            progress.finish()
            progress.write_summary()

        report.shards_computed = cache.stored
        report.shards_cached = cache.hits
        if jrnl is not None:
            jrnl.emit(
                "campaign-end",
                campaign=spec.name,
                shards_computed=report.shards_computed,
                shards_cached=report.shards_cached,
            )
    manifest = out / "campaign.json"
    manifest.write_text(
        json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8"
    )
    return report
