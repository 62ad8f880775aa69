"""Persistence for experiment results.

Figure experiments are expensive at paper scale; this module round-trips
:class:`~repro.experiments.figures.FigureResult` through plain JSON so a
run can be archived, diffed against a previous run, or re-rendered without
recomputation::

    result = run_figure("fig3", samples=1000)
    save_figure_result(result, "fig3.json")
    ...
    again = load_figure_result("fig3.json")
    print(render_figure(again))
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.experiments.acceptance import SweepConfig, SweepResult
from repro.experiments.figures import FigureResult

__all__ = [
    "sweep_config_to_dict",
    "sweep_to_dict",
    "sweep_from_dict",
    "figure_result_to_dict",
    "figure_result_from_dict",
    "save_figure_result",
    "load_figure_result",
]

_FORMAT_VERSION = 1


def sweep_config_to_dict(config: SweepConfig) -> dict[str, Any]:
    """JSON-compatible dict form of a sweep config.

    Also the canonical config serialization the runner's shard store hashes
    (see :mod:`repro.runner.store`), so a config field added here
    automatically invalidates stale cached shards.
    """
    data = {
        "label": config.label,
        "m": config.m,
        "deadline_type": config.deadline_type,
        "p_high": config.p_high,
        "samples_per_bucket": config.samples_per_bucket,
        "bucket_width": config.bucket_width,
        "ub_min": config.ub_min,
        "ub_max": config.ub_max,
    }
    # Emitted only when non-default so drop-at-switch figure JSON (and the
    # shard-cache keys derived from this dict) stay byte-identical to the
    # pre-degradation format; absent keys load as the default.
    if config.service != "full-drop":
        data["service"] = config.service
    return data


def sweep_to_dict(sweep: SweepResult) -> dict[str, Any]:
    """JSON-compatible dict form of one sweep result."""
    return {
        "config": sweep_config_to_dict(sweep.config),
        "buckets": sweep.buckets,
        "samples": sweep.samples,
        "ratios": sweep.ratios,
    }


def sweep_from_dict(data: dict[str, Any]) -> SweepResult:
    """Inverse of :func:`sweep_to_dict`."""
    config = SweepConfig(**data["config"])
    return SweepResult(
        config=config,
        buckets=list(data["buckets"]),
        samples=list(data["samples"]),
        ratios={name: list(vals) for name, vals in data["ratios"].items()},
    )


def figure_result_to_dict(result: FigureResult) -> dict[str, Any]:
    """JSON-compatible dict form of a figure result."""
    return {
        "format_version": _FORMAT_VERSION,
        "figure": result.figure,
        "sweeps": {key: sweep_to_dict(s) for key, s in result.sweeps.items()},
        # JSON keys must be strings; encode the (m, PH) tuple as "m,ph".
        "war": {
            f"{m},{ph}": table for (m, ph), table in result.war.items()
        },
    }


def figure_result_from_dict(data: dict[str, Any]) -> FigureResult:
    """Inverse of :func:`figure_result_to_dict`."""
    version = data.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported figure-result format {version!r} "
            f"(expected {_FORMAT_VERSION})"
        )
    result = FigureResult(data["figure"])
    for key, sweep_data in data.get("sweeps", {}).items():
        result.sweeps[key] = sweep_from_dict(sweep_data)
    for key, table in data.get("war", {}).items():
        m_raw, ph_raw = key.split(",", 1)
        result.war[(int(m_raw), float(ph_raw))] = dict(table)
    return result


def save_figure_result(result: FigureResult, path: str | Path) -> None:
    """Write ``result`` as indented JSON to ``path``."""
    Path(path).write_text(
        json.dumps(figure_result_to_dict(result), indent=2) + "\n",
        encoding="utf-8",
    )


def load_figure_result(path: str | Path) -> FigureResult:
    """Read a figure result previously written by :func:`save_figure_result`."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return figure_result_from_dict(data)
