"""Ablation: is worst-fit on the *utilization difference* the right metric?

The UDP fit rule is the paper's core design choice.
This bench swaps only the HC fit rule (keeping the criticality-aware order
and first-fit LC placement fixed) and reports acceptance ratios for:

* ``ca-udp``   — worst-fit on U_HH - U_LH (the paper's rule);
* ``ca-wu-f``  — worst-fit on U_HH alone (Gu et al.'s rule);
* ``ca-f-f``   — first-fit (no balancing at all).

The paper's Figure 1 argument predicts the ordering udp >= wu >= ff on
EDF-VD workloads with mixed utilization differences.
"""

from repro.experiments import SweepConfig, get_algorithm
from repro.experiments.acceptance import AcceptanceSweep
from repro.experiments.report import render_sweep
from repro.experiments.weighted import weighted_acceptance_ratio
from repro.experiments.algorithms import PartitionedAlgorithm
from repro.analysis import EDFVDTest
from repro.core import ca_f_f, ca_udp, ca_wu_f

from conftest import bench_samples, emit

ALGORITHMS = [
    PartitionedAlgorithm("hcfit-udp", ca_udp(), EDFVDTest()),
    PartitionedAlgorithm("hcfit-wu", ca_wu_f(), EDFVDTest()),
    PartitionedAlgorithm("hcfit-ff", ca_f_f(), EDFVDTest()),
]


def test_ablation_hc_fit_metric(once):
    def run():
        config = SweepConfig(
            label="ablation-fit",
            m=4,
            samples_per_bucket=bench_samples(),
            ub_min=0.4,
        )
        return AcceptanceSweep(config).run(ALGORITHMS)

    sweep = once(run)
    war = {
        name: weighted_acceptance_ratio(sweep.buckets, ratios)
        for name, ratios in sweep.ratios.items()
    }
    lines = [render_sweep(sweep, title="Ablation: HC fit metric (m=4)")]
    lines.append("")
    lines.extend(f"WAR({name}) = {value:.3f}" for name, value in war.items())
    emit("ablation_fit_rules", "\n".join(lines))
    # The design-choice claim: the difference metric is the best of the three.
    assert war["hcfit-udp"] >= war["hcfit-wu"] - 0.02
