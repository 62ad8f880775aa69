"""Figure 5: acceptance ratio vs UB — constrained deadlines.

Series as in Figure 4 but with deadlines drawn uniformly from [C_H, T].

Paper's headline numbers: improvements up to 3.5/13.1/29.7% under AMC and
12.6/20.8/36.2% under ECDF for m = 2/4/8.
"""

from repro.experiments import run_figure
from repro.experiments.report import improvement_summary, render_sweep

from conftest import bench_m_values, bench_samples, emit


def test_fig5_acceptance_ratio(once):
    result = once(
        run_figure, "fig5", samples=bench_samples(), m_values=bench_m_values()
    )
    sections = []
    for key, sweep in result.sweeps.items():
        sections.append(render_sweep(sweep, title=f"Figure 5 ({key})"))
        sections.append(
            improvement_summary(
                sweep,
                ["cu-udp-amc", "cu-udp-ecdf"],
                ["eca-wu-f-ey", "ca-f-f-ey"],
            )
        )
    emit("fig5", "\n\n".join(sections))
    for sweep in result.sweeps.values():
        assert sweep.ratios["cu-udp-ecdf"][-1] <= 0.5
