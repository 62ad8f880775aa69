"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import pytest

from repro.experiments.acceptance import clear_samples
from repro.model import Criticality, MCTask, TaskSet


@pytest.fixture(autouse=True)
def fresh_sample_store():
    """Every test starts with no retained task-set samples, so a test that
    counts or patches generation never meets another test's sample."""
    clear_samples()
    yield
    clear_samples()


def hc_task(
    period: int,
    wcet_lo: int,
    wcet_hi: int,
    deadline: int | None = None,
    name: str = "",
) -> MCTask:
    """Shorthand HC task builder used across the suite."""
    return MCTask(
        period=period,
        criticality=Criticality.HC,
        wcet_lo=wcet_lo,
        wcet_hi=wcet_hi,
        deadline=period if deadline is None else deadline,
        name=name,
    )


def lc_task(
    period: int, wcet: int, deadline: int | None = None, name: str = ""
) -> MCTask:
    """Shorthand LC task builder used across the suite."""
    return MCTask(
        period=period,
        criticality=Criticality.LC,
        wcet_lo=wcet,
        wcet_hi=wcet,
        deadline=period if deadline is None else deadline,
        name=name,
    )


@pytest.fixture
def simple_mixed_taskset() -> TaskSet:
    """A small clearly-schedulable dual-criticality set (one core)."""
    return TaskSet(
        [
            hc_task(100, 10, 20, name="h1"),
            hc_task(200, 20, 50, name="h2"),
            lc_task(50, 5, name="l1"),
            lc_task(250, 25, name="l2"),
        ]
    )


@pytest.fixture
def heavy_taskset() -> TaskSet:
    """A set no uniprocessor MC test can accept (U_HH > 1)."""
    return TaskSet(
        [
            hc_task(100, 40, 80, name="h1"),
            hc_task(100, 30, 60, name="h2"),
            lc_task(100, 30, name="l1"),
        ]
    )
