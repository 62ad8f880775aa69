"""Baseline partitioning strategies the paper evaluates against.

Each is a published strategy (see Section I "Related Work" and Section IV of
the paper):

* :func:`ca_nosort_f_f` — ``CA(nosort)-F-F`` of Baruah et al. (Real-Time
  Systems 2014): criticality-aware phases, no sorting, first-fit for both
  classes.  With the EDF-VD test this is the only prior partitioned MC
  algorithm with a proven speed-up bound (8/3).
* :func:`ca_f_f` — ``CA-F-F`` of Rodriguez et al. (WMC 2013): like the
  above but with decreasing-utilization sorting inside each class; shown by
  them to dominate earlier criticality-aware strategies.
* :func:`ca_wu_f` — ``CA-Wu-F``: worst-fit by *HC utilization alone* for HC
  tasks, first-fit LC; the comparison strategy of the paper's Figure 1
  example (it ignores U_LH and therefore balances the wrong quantity).
* :func:`eca_wu_f` — ``ECA-Wu-F`` of Gu et al. (DATE 2014): ``ca_wu_f``
  enhanced with preference for heavy-utilization LC tasks, which are placed
  before the HC tasks ("heavy" = ``u_L >= threshold``; see
  README.md#fidelity-notes).
* :func:`ffd` / :func:`wfd` / :func:`bfd` — classical criticality-unaware
  first/worst/best-fit decreasing, the conventional non-MC yardsticks.
"""

from __future__ import annotations

from repro.core.allocator import PartitioningStrategy
from repro.core.strategies import (
    best_fit_by,
    first_fit,
    order_criticality_aware,
    order_criticality_aware_nosort,
    order_criticality_unaware,
    order_heavy_lc_first,
    register_strategy,
    worst_fit_by,
)

__all__ = ["ca_nosort_f_f", "ca_f_f", "ca_wu_f", "eca_wu_f", "ffd", "wfd", "bfd"]

#: Default "heavy LC task" threshold for ECA-Wu-F (Gu et al. define heavy
#: tasks by high utilization; the cited text leaves the cut-off to the
#: implementation — 0.5 makes a task heavier than half a core).
HEAVY_LC_THRESHOLD = 0.5


def ca_nosort_f_f() -> PartitioningStrategy:
    """``CA(nosort)-F-F`` — Baruah et al.'s partitioned EDF-VD strategy."""
    return PartitioningStrategy(
        name="ca-nosort-f-f",
        order=order_criticality_aware_nosort,
        hc_fit=first_fit,
        lc_fit=first_fit,
        description="criticality-aware, unsorted, first-fit/first-fit",
        order_spec=("ca-nosort",),
        hc_fit_spec=("first",),
        lc_fit_spec=("first",),
    )


def ca_f_f() -> PartitioningStrategy:
    """``CA-F-F`` — Rodriguez et al.'s sorted criticality-aware first-fit."""
    return PartitioningStrategy(
        name="ca-f-f",
        order=order_criticality_aware,
        hc_fit=first_fit,
        lc_fit=first_fit,
        description="criticality-aware, sorted, first-fit/first-fit",
        order_spec=("ca",),
        hc_fit_spec=("first",),
        lc_fit_spec=("first",),
    )


def ca_wu_f() -> PartitioningStrategy:
    """``CA-Wu-F`` — worst-fit by HC utilization alone (Figure 1 baseline)."""
    return PartitioningStrategy(
        name="ca-wu-f",
        order=order_criticality_aware,
        hc_fit=worst_fit_by(lambda p: p.u_hh),
        lc_fit=first_fit,
        description="criticality-aware, sorted, HC worst-fit on U_HH",
        order_spec=("ca",),
        hc_fit_spec=("worst", "u-hh"),
        lc_fit_spec=("first",),
    )


def eca_wu_f(threshold: float = HEAVY_LC_THRESHOLD) -> PartitioningStrategy:
    """``ECA-Wu-F`` — Gu et al.'s enhanced criticality-aware strategy."""
    return PartitioningStrategy(
        name="eca-wu-f",
        order=order_heavy_lc_first(threshold),
        hc_fit=worst_fit_by(lambda p: p.u_hh),
        lc_fit=first_fit,
        description=(
            f"heavy LC (u_L >= {threshold}) first, then HC worst-fit on "
            "U_HH, then light LC first-fit"
        ),
        order_spec=("heavy-lc-first", threshold),
        hc_fit_spec=("worst", "u-hh"),
        lc_fit_spec=("first",),
    )


def ffd() -> PartitioningStrategy:
    """Classical first-fit decreasing (criticality-unaware)."""
    return PartitioningStrategy(
        name="ffd",
        order=order_criticality_unaware,
        hc_fit=first_fit,
        lc_fit=first_fit,
        description="first-fit decreasing utilization",
        order_spec=("cu",),
        hc_fit_spec=("first",),
        lc_fit_spec=("first",),
    )


def wfd() -> PartitioningStrategy:
    """Classical worst-fit decreasing on total LO utilization."""
    return PartitioningStrategy(
        name="wfd",
        order=order_criticality_unaware,
        hc_fit=worst_fit_by(lambda p: p.utilization_lo),
        lc_fit=worst_fit_by(lambda p: p.utilization_lo),
        description="worst-fit decreasing utilization",
        order_spec=("cu",),
        hc_fit_spec=("worst", "u-lo"),
        lc_fit_spec=("worst", "u-lo"),
    )


def bfd() -> PartitioningStrategy:
    """Classical best-fit decreasing on total LO utilization."""
    return PartitioningStrategy(
        name="bfd",
        order=order_criticality_unaware,
        hc_fit=best_fit_by(lambda p: p.utilization_lo),
        lc_fit=best_fit_by(lambda p: p.utilization_lo),
        description="best-fit decreasing utilization",
        order_spec=("cu",),
        hc_fit_spec=("best", "u-lo"),
        lc_fit_spec=("best", "u-lo"),
    )


register_strategy("ca-nosort-f-f", ca_nosort_f_f)
register_strategy("ca-f-f", ca_f_f)
register_strategy("ca-wu-f", ca_wu_f)
register_strategy("eca-wu-f", eca_wu_f)
register_strategy("ffd", ffd)
register_strategy("wfd", wfd)
register_strategy("bfd", bfd)
