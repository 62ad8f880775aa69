"""The verdict cache is gone: no verdict outlives the run that computed it.

:mod:`repro.analysis.verdict_cache` survives only as a stub whose
:func:`~repro.analysis.verdict_cache.enabled` is always False.  These
tests pin what the removal guarantees even when the retired
``REPRO_VERDICT_CACHE*`` knobs are still set in the environment:

* the knobs switch nothing on and no longer raise on any value;
* a ``block`` accept is never served to a later ``qpa`` run
  (the old cache key left out the demand kernel, and ``block`` is sound
  only, so it accepts sets the scalar descent rejects);
* a repeated descent or partition pays its probes again.

The last two are checked in a fresh interpreter, as a run with the knobs
set would start.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis import verdict_cache

#: Run before each fresh-process body.  ``TS`` is the HC set only
#: ``block`` accepts under drop semantics (the scalar EY descent stops at
#: "no shrinkable task at l*=29").
PRELUDE = """
import json
from repro import obs
from repro.analysis import get_test
from repro.analysis.dbf import set_demand_kernel
from repro.analysis.vdtuning import DemandEngine, run_tuning_stages
from repro.core import get_strategy, partition
from repro.model import Criticality, MCTask, TaskSet

TS = TaskSet([
    MCTask(period=33, criticality=Criticality.HC, wcet_lo=13, wcet_hi=22,
           deadline=33),
    MCTask(period=11, criticality=Criticality.HC, wcet_lo=2, wcet_hi=3,
           deadline=8),
])

def tune(kernel):
    previous = set_demand_kernel(kernel)
    try:
        engine = DemandEngine(TS, 100_000)
        outcome = run_tuning_stages(
            TS, (("steepest", False),), 100_000, engine=engine
        )
    finally:
        set_demand_kernel(previous)
    return [outcome.schedulable, outcome.iterations, outcome.detail]
"""


def in_fresh_process(cache_dir, body):
    """Run ``body`` after :data:`PRELUDE` in a new interpreter whose
    environment sets the retired knobs as a cache-enabled run did, and
    return the JSON it prints.

    A fresh process, because the removed cache read its knobs once per
    process, at first use.
    """
    env = dict(os.environ)
    env.update(
        REPRO_VERDICT_CACHE="on",
        REPRO_VERDICT_CACHE_SIZE="16",
        REPRO_VERDICT_CACHE_DIR=str(cache_dir),
        PYTHONPATH=os.pathsep.join(
            [str(Path(repro.__file__).parents[1]), env.get("PYTHONPATH", "")]
        ),
    )
    script = PRELUDE + textwrap.dedent(body)
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout)


@pytest.fixture
def cache_dir(tmp_path):
    path = tmp_path / "verdicts"
    path.mkdir()
    return path


class TestStub:
    @pytest.mark.parametrize("value", [None, "on", "ON", "yes"])
    def test_never_enabled(self, monkeypatch, value):
        """Whatever the retired switch says (the old parser raised on
        ``ON``/``yes``), the stub reports the cache off and raises nothing."""
        if value is None:
            monkeypatch.delenv("REPRO_VERDICT_CACHE", raising=False)
        else:
            monkeypatch.setenv("REPRO_VERDICT_CACHE", value)
        assert verdict_cache.enabled() is False

    def test_stub_defines_only_enabled(self):
        public = {n for n in vars(verdict_cache) if not n.startswith("_")}
        assert public == {"enabled"}


class TestNoCrossKernelVerdict:
    def test_block_accept_not_served_to_scalar_kernel(self, cache_dir):
        block, rejected = in_fresh_process(
            cache_dir,
            """
            print(json.dumps([tune("block"), tune("qpa")]))
            """,
        )
        assert block[0] is True
        assert rejected[0] is False
        assert "no shrinkable task at l*=29" in rejected[2]
        assert list(cache_dir.iterdir()) == []


class TestRepeatRunsRecompute:
    def test_tuning_descends_again(self, cache_dir):
        runs = in_fresh_process(
            cache_dir,
            """
            obs.set_recorder(obs.MetricsRecorder(obs.REGISTRY))
            runs = []
            for _ in range(2):
                outcome = tune("qpa")
                total = obs.REGISTRY.histogram("descent.iterations").total
                runs.append([outcome, total])
            print(json.dumps(runs))
            """,
        )
        (first, once), (second, twice) = runs
        assert once == first[1] > 0
        assert twice == 2 * once
        assert second == first

    @pytest.mark.parametrize("strategy_name", ["cu-udp", "ca-udp"])
    def test_partition_probes_again(self, cache_dir, strategy_name):
        runs = in_fresh_process(
            cache_dir,
            f"""
            obs.set_recorder(obs.MetricsRecorder(obs.REGISTRY))
            test, strategy = get_test("ey"), get_strategy({strategy_name!r})
            key = "alloc." + strategy.name + ".fit-attempts"
            runs = []
            for _ in range(2):
                result = partition(TS, 2, test, strategy)
                runs.append([
                    result.success,
                    sorted(result.assignment.items()),
                    obs.REGISTRY.counters()[key],
                ])
            print(json.dumps(runs))
            """,
        )
        (ok1, layout1, once), (ok2, layout2, twice) = runs
        assert once > 0
        assert twice == 2 * once
        assert (ok2, layout2) == (ok1, layout1)
