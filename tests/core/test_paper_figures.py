"""The worked examples of Figures 1 and 2, as regression tests.

These pin the exact phenomena the paper's Section III illustrates, using
the task sets from ``examples/paper_examples.py`` (re-derived equivalents
of the figure examples; see README.md#fidelity-notes).
"""

import pytest

from repro.analysis import EDFVDTest
from repro.core import ca_udp, ca_wu_f, cu_udp, partition
from repro.model import TaskSet

from tests.conftest import hc_task, lc_task


@pytest.fixture
def figure1_taskset() -> TaskSet:
    return TaskSet(
        [
            hc_task(100, 55, 60, name="tau1"),
            hc_task(100, 10, 50, name="tau2"),
            hc_task(100, 25, 30, name="tau3"),
            lc_task(100, 45, name="tau4"),
        ]
    )


@pytest.fixture
def figure2_taskset() -> TaskSet:
    return TaskSet(
        [
            hc_task(100, 51, 61, name="tau1"),
            hc_task(100, 41, 46, name="tau2"),
            hc_task(100, 15, 20, name="tau3"),
            hc_task(100, 10, 15, name="tau4"),
            lc_task(100, 42, name="tau5"),
        ]
    )


class TestFigure1:
    def test_ca_wu_f_fails(self, figure1_taskset):
        result = partition(figure1_taskset, 2, EDFVDTest(), ca_wu_f())
        assert not result.success
        assert result.failed_task.name == "tau4"

    def test_ca_wu_f_splits_by_hc_utilization(self, figure1_taskset):
        result = partition(figure1_taskset, 2, EDFVDTest(), ca_wu_f())
        by_name = {
            t.name: idx for idx, core in enumerate(result.cores) for t in core
        }
        # Worst-fit on U_HH alone: tau1 alone, tau2+tau3 together.
        assert by_name["tau2"] == by_name["tau3"]
        assert by_name["tau1"] != by_name["tau2"]

    def test_ca_udp_succeeds_with_papers_allocation(self, figure1_taskset):
        result = partition(figure1_taskset, 2, EDFVDTest(), ca_udp())
        assert result.success
        by_name = {
            t.name: idx for idx, core in enumerate(result.cores) for t in core
        }
        # UDP pairs the two small-difference tasks and gives tau4 tau2's core.
        assert by_name["tau1"] == by_name["tau3"]
        assert by_name["tau4"] == by_name["tau2"]

    def test_udp_balances_difference_better(self, figure1_taskset):
        udp = partition(figure1_taskset, 2, EDFVDTest(), ca_udp())
        wu = partition(figure1_taskset, 2, EDFVDTest(), ca_wu_f())

        def max_diff(result):
            return max(c.utilization.difference for c in result.cores)

        assert max_diff(udp) <= max_diff(wu)


class TestFigure2:
    def test_ca_udp_fails_on_heavy_lc(self, figure2_taskset):
        result = partition(figure2_taskset, 2, EDFVDTest(), ca_udp())
        assert not result.success
        assert result.failed_task.name == "tau5"

    def test_cu_udp_succeeds(self, figure2_taskset):
        result = partition(figure2_taskset, 2, EDFVDTest(), cu_udp())
        assert result.success

    def test_cu_udp_places_heavy_lc_with_tau1(self, figure2_taskset):
        result = partition(figure2_taskset, 2, EDFVDTest(), cu_udp())
        by_name = {
            t.name: idx for idx, core in enumerate(result.cores) for t in core
        }
        assert by_name["tau5"] == by_name["tau1"]
        assert by_name["tau2"] == by_name["tau3"] == by_name["tau4"]

    def test_heavy_lc_is_third_in_cu_order(self, figure2_taskset):
        from repro.core.strategies import order_criticality_unaware

        order = [t.name for t in order_criticality_unaware(figure2_taskset)]
        assert order.index("tau5") == 2
