"""Ablations around the AMC configuration used in Figures 4-6.

1. AMC-max vs AMC-rtb under CU-UDP: the paper uses AMC-max; this measures
   how much of the schedulability actually comes from the tighter analysis.
2. Deadline-monotonic vs Audsley's OPA priority assignment (the paper does
   not specify; README.md#fidelity-notes documents the DM default).
"""

from repro.experiments import SweepConfig, get_algorithm
from repro.experiments.acceptance import AcceptanceSweep
from repro.experiments.report import render_sweep
from repro.experiments.weighted import weighted_acceptance_ratio

from conftest import bench_samples, emit

ALGORITHM_NAMES = ("cu-udp-amc", "cu-udp-amc-rtb", "cu-udp-amc-opa")


def test_ablation_amc_variants(once):
    def run():
        config = SweepConfig(
            label="ablation-amc",
            m=2,
            deadline_type="constrained",
            samples_per_bucket=bench_samples(),
            ub_min=0.4,
        )
        algos = [get_algorithm(name) for name in ALGORITHM_NAMES]
        return AcceptanceSweep(config).run(algos)

    sweep = once(run)
    war = {
        name: weighted_acceptance_ratio(sweep.buckets, ratios)
        for name, ratios in sweep.ratios.items()
    }
    lines = [render_sweep(sweep, title="Ablation: AMC variants (m=2, constrained)")]
    lines.append("")
    lines.extend(f"WAR({name}) = {value:.3f}" for name, value in war.items())
    emit("ablation_amc", "\n".join(lines))
    # AMC-max dominates AMC-rtb per task, hence per partition too.
    assert war["cu-udp-amc"] >= war["cu-udp-amc-rtb"] - 1e-9
    # OPA is optimal for OPA-compatible tests: never worse than DM.
    assert war["cu-udp-amc-opa"] >= war["cu-udp-amc"] - 1e-9
