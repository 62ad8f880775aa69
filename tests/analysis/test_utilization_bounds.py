"""No test may accept a set whose exact utilization exceeds 1.

The HC task (T = D = 100000, C = 99999) and the LC task (T = D = 99999,
C = 1) have exact utilization ``1 + 1/9,999,900,000``: at
``l = 9,999,900,000`` the LO demand is ``l + 1``.  The float sum rounds
into the tests' ``1 + 1e-9`` acceptance band, so today every test
accepts the set, alone and through ``partition`` on one core.  The
simulation battery cannot catch this (the hyperperiod is 1e10), so the
case is pinned here until utilization bounds are decided exactly.
"""

from __future__ import annotations

import pytest

from repro.analysis.ecdf import ECDFTest
from repro.analysis.edf import EDFTest
from repro.analysis.edf_vd import EDFVDTest
from repro.analysis.ey import EYTest
from repro.core.allocator import partition
from repro.core.strategies import get_strategy
from repro.model import TaskSet

from tests.conftest import hc_task, lc_task


def over_one_set() -> TaskSet:
    return TaskSet([hc_task(100_000, 99_999, 99_999), lc_task(99_999, 1)])


@pytest.mark.xfail(
    strict=True,
    reason="utilization bounds are float sums compared against 1 + 1e-9",
)
@pytest.mark.parametrize("route", ["alone", "partition-m1"])
@pytest.mark.parametrize(
    "test_cls", [EYTest, ECDFTest, EDFVDTest, EDFTest],
    ids=["ey", "ecdf", "edf-vd", "edf"],
)
def test_exact_utilization_above_one_rejects(test_cls, route):
    ts = over_one_set()
    test = test_cls()
    if route == "alone":
        accepted = test.is_schedulable(ts)
    else:
        accepted = partition(ts, 1, test, get_strategy("cu-udp")).success
    assert not accepted
