"""Figure 6: weighted acceptance ratio vs HC-task percentage PH.

* 6a — implicit deadlines, EDF-VD algorithms, m in {2, 4}.
* 6b — constrained deadlines, UDP x {AMC, ECDF} vs EY baselines.

Paper's qualitative findings pinned here: CA-UDP degrades as PH grows
(heavy LC tasks get stranded) while CU-UDP stays strong at every PH.
"""

from repro.experiments import run_figure
from repro.experiments.report import render_war

from conftest import bench_samples, emit


def test_fig6a_war_implicit(once):
    result = once(run_figure, "fig6a", samples=bench_samples())
    emit("fig6a", render_war(result))
    # CU-UDP >= CA-UDP at the highest PH (the paper's key observation).
    for m in (2, 4):
        high_ph = result.war[(m, 0.9)]
        assert high_ph["cu-udp-edf-vd"] >= high_ph["ca-udp-edf-vd"] - 0.02


def test_fig6b_war_constrained(once):
    result = once(run_figure, "fig6b", samples=bench_samples())
    emit("fig6b", render_war(result))
    for m in (2, 4):
        high_ph = result.war[(m, 0.9)]
        assert high_ph["cu-udp-ecdf"] >= high_ph["ca-udp-ecdf"] - 0.02
