"""Extension experiment: sensitivity of the UDP advantage to the
utilization-difference magnitude.

Sweeps the squeeze ratio of ``repro.model.transforms.squeeze_difference``:
at r=1 every HC task has C_L = C_H (a non-MC system in disguise) and the
mechanism the paper exploits disappears — the UDP advantage over the
baseline should shrink accordingly.
"""

from repro.experiments.algorithms import get_algorithm
from repro.experiments.sensitivity import difference_sensitivity

from conftest import bench_samples, emit


def test_difference_sensitivity(once):
    algorithms = [
        get_algorithm("cu-udp-edf-vd"),
        get_algorithm("ca-udp-edf-vd"),
        get_algorithm("ca-nosort-f-f-edf-vd"),
    ]
    result = once(
        difference_sensitivity,
        algorithms,
        m=4,
        samples=bench_samples(20),
    )
    gaps = result.advantage("cu-udp-edf-vd", "ca-nosort-f-f-edf-vd")
    lines = [result.render(), ""]
    lines.append(
        "UDP advantage per squeeze ratio: "
        + ", ".join(f"{g:+.3f}" for g in gaps)
    )
    emit("sensitivity", "\n".join(lines))
    # The advantage at intact differences should be at least the advantage
    # once differences are erased (both can be ~0 on easy samples).
    assert gaps[0] >= gaps[-1] - 0.05
