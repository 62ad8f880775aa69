#!/usr/bin/env python3
"""The worked examples of Figures 1 and 2 of the paper, re-derived.

The paper's figures carry concrete task sets only in their images (not in
the text), so this script uses equivalent task sets — found with this
library and hard-coded below — that exhibit *exactly* the phenomenon each
figure illustrates (see README.md#fidelity-notes):

* Figure 1: worst-fit on HC utilization alone (CA-Wu-F) strands the LC task,
  while CA-UDP's worst-fit on the utilization difference leaves room for it.
* Figure 2: criticality-aware CA-UDP strands a *heavy* LC task because all
  HC tasks are placed first; criticality-unaware CU-UDP places the heavy LC
  task early (third, by utilization) and succeeds.

All allocation decisions are printed step-free via the partition describe()
output; the EDF-VD admission inequality from Section III is also evaluated
per core so the failure points are visible.

Run:  python examples/paper_examples.py
"""

from repro import (
    Criticality,
    EDFVDTest,
    MCTask,
    TaskSet,
    ca_udp,
    ca_wu_f,
    cu_udp,
    partition,
)

PERIOD = 100  # common period: utilizations read directly as C/100


def hc(name: str, u_hi: float, u_lo: float) -> MCTask:
    """HC task with the given HI/LO utilizations over the common period."""
    return MCTask(
        period=PERIOD,
        criticality=Criticality.HC,
        wcet_lo=round(u_lo * PERIOD),
        wcet_hi=round(u_hi * PERIOD),
        name=name,
    )


def lc(name: str, u_lo: float) -> MCTask:
    """LC task with the given utilization over the common period."""
    wcet = round(u_lo * PERIOD)
    return MCTask(
        period=PERIOD,
        criticality=Criticality.LC,
        wcet_lo=wcet,
        wcet_hi=wcet,
        name=name,
    )


def lc_capacity(core: TaskSet) -> float:
    """Largest LC utilization the EDF-VD test still admits on ``core``.

    Evaluates the Section III inequality
    ``U_LL <= (1 - U_HH) / (1 - (U_HH - U_LH))`` together with the plain-EDF
    reserve ``U_LL + U_HH <= 1`` and the LO-mode bound ``U_LL + U_LH <= 1``.
    """
    util = core.utilization
    b, c = util.u_lh, util.u_hh
    plain = 1.0 - c
    scaled = (1.0 - c) / (1.0 - (c - b)) if c < 1.0 else 0.0
    return max(plain, min(1.0 - b, scaled)) - util.u_ll


def show(title: str, taskset: TaskSet, strategies) -> None:
    print(f"=== {title} ===")
    print(taskset.describe())
    test = EDFVDTest()
    for strategy in strategies:
        result = partition(taskset, 2, test, strategy)
        print()
        print(result.describe())
        if result.success:
            for idx, core in enumerate(result.cores):
                print(
                    f"    core {idx} residual LC capacity: "
                    f"{lc_capacity(core):+.3f}"
                )
    print()


def figure1() -> None:
    """CA-Wu-F vs CA-UDP (Figure 1).

    tau1 has a high HI utilization but a *small* difference (0.60/0.55);
    tau2 has a large difference (0.50/0.10).  Worst-fit on U_HH alone pairs
    tau2 with tau3, stacking difference 0.45 on one core — the LC task
    (u=0.45) then fails everywhere.  CA-UDP instead pairs tau1 with tau3
    (difference 0.10) and leaves tau2's core with enough admissible LC
    capacity.
    """
    taskset = TaskSet(
        [
            hc("tau1", 0.60, 0.55),
            hc("tau2", 0.50, 0.10),
            hc("tau3", 0.30, 0.25),
            lc("tau4", 0.45),
        ]
    )
    show("Figure 1: CA-UDP vs CA-Wu-F", taskset, [ca_wu_f(), ca_udp()])


def figure2() -> None:
    """CA-UDP vs CU-UDP (Figure 2).

    The LC task tau5 (u=0.42) is heavier than two of the HC tasks.  CA-UDP
    places all four HC tasks first and tau5 no longer fits anywhere.
    CU-UDP sorts all tasks together — tau5 is allocated third, right after
    tau1 and tau2 — and the partition succeeds with tau5 sharing a core
    with tau1, exactly the pattern in the paper's figure.
    """
    taskset = TaskSet(
        [
            hc("tau1", 0.61, 0.51),
            hc("tau2", 0.46, 0.41),
            hc("tau3", 0.20, 0.15),
            hc("tau4", 0.15, 0.10),
            lc("tau5", 0.42),
        ]
    )
    show("Figure 2: CA-UDP vs CU-UDP", taskset, [ca_udp(), cu_udp()])


def main() -> None:
    figure1()
    figure2()


if __name__ == "__main__":
    main()
