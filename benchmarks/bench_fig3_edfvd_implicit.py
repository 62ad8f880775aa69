"""Figure 3: acceptance ratio vs UB — implicit deadlines, EDF-VD algorithms.

Series: CA-UDP-EDF-VD, CU-UDP-EDF-VD vs CA(nosort)-F-F-EDF-VD (the prior
algorithm with the 8/3 speed-up bound), for m in {2, 4, 8}.

Paper's headline numbers for this figure: UDP improves schedulability by up
to 13.3% (m=2), 22.8% (m=4) and 28.1% (m=8), with the gap growing in m.
"""

from repro.experiments import run_figure
from repro.experiments.report import improvement_summary, render_sweep

from conftest import bench_m_values, bench_samples, emit


def test_fig3_acceptance_ratio(once):
    result = once(
        run_figure, "fig3", samples=bench_samples(), m_values=bench_m_values()
    )
    sections = []
    for key, sweep in result.sweeps.items():
        sections.append(render_sweep(sweep, title=f"Figure 3 ({key})"))
        sections.append(
            improvement_summary(
                sweep,
                ["ca-udp-edf-vd", "cu-udp-edf-vd"],
                ["ca-nosort-f-f-edf-vd"],
            )
        )
    emit("fig3", "\n\n".join(sections))
    # Shape assertions (paper): UDP never loses overall, and every curve
    # decays to zero at UB -> 1.
    for sweep in result.sweeps.values():
        assert sweep.ratios["cu-udp-edf-vd"][-1] <= 0.5
        assert (
            sweep.max_improvement("cu-udp-edf-vd", "ca-nosort-f-f-edf-vd") >= 0.0
        )
