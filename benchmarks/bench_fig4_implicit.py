"""Figure 4: acceptance ratio vs UB — implicit deadlines, no speed-up bound.

Series: CU-UDP-AMC, CU-UDP-ECDF vs ECA-Wu-F-EY and CA-F-F-EY, m in {2,4,8}.

Paper's headline numbers: improvements up to 3.2/3.8/9.5% under AMC and
9.8/15.2/15.7% under ECDF for m = 2/4/8.
"""

from repro.experiments import run_figure
from repro.experiments.report import improvement_summary, render_sweep

from conftest import bench_m_values, bench_samples, emit


def test_fig4_acceptance_ratio(once):
    result = once(
        run_figure, "fig4", samples=bench_samples(), m_values=bench_m_values()
    )
    sections = []
    for key, sweep in result.sweeps.items():
        sections.append(render_sweep(sweep, title=f"Figure 4 ({key})"))
        sections.append(
            improvement_summary(
                sweep,
                ["cu-udp-amc", "cu-udp-ecdf"],
                ["eca-wu-f-ey", "ca-f-f-ey"],
            )
        )
    emit("fig4", "\n\n".join(sections))
    for sweep in result.sweeps.values():
        # Everything decays under saturation.
        assert sweep.ratios["cu-udp-ecdf"][-1] <= 0.5
