"""Self-tests of the benchmark harness: ``python -m pytest benchmarks/harness``."""

from __future__ import annotations

import argparse
import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _args(**overrides) -> argparse.Namespace:
    values = dict(workload="all", seed=0, seconds=0.01, repeats=1, trace=None)
    values.update(overrides)
    return argparse.Namespace(**values)


@pytest.fixture(scope="module")
def smoke_report():
    """One 1-sample round of every workload, measured and traced."""
    return run.run(_args())


def test_smoke_every_workload(smoke_report):
    assert set(smoke_report["workloads"]) == set(workloads.WORKLOADS)
    for name, entry in smoke_report["workloads"].items():
        assert entry["sizes"]["samples_per_bucket"] == 1, name
        assert entry["failed"] == 0, name
        assert entry["metrics"]["tasksets_per_s"]["value"] > 0, name
        assert entry["layers"]["trace.coverage"]["value"] > 0.9, name
    line = run.contract_line(smoke_report, None)
    assert line["correct"] and line["failed"] == 0


def test_benchmark_json_matches_harness(smoke_report):
    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} == {
        name: value for name, value in run.END_TO_END.items()
    }
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }
    for name in workloads.WORKLOADS:
        single = {"workloads": {name: smoke_report["workloads"][name]}}
        emitted = run.contract_line(single, 1)["metrics"]
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
            key: m["unit"] for key, m in emitted.items()
        }, name


def test_self_times_sum_to_wall():
    ticks = iter(range(1000))
    timer = layers.SelfTimer(clock=lambda: float(next(ticks)))
    mod = types.ModuleType("fake_layers")

    def leaf():
        timer.clock()  # one tick of own work

    def middle():
        timer.clock()
        mod.leaf()
        mod.leaf()

    def outer():
        mod.middle()
        timer.clock()

    mod.leaf, mod.middle, mod.outer = leaf, middle, outer
    sys.modules["fake_layers"] = mod
    try:
        table = {name: (("fake_layers", name),) for name in ("outer", "middle", "leaf")}
        absent, uninstall = layers.install(timer, table)
        mod.outer()
        uninstall()
    finally:
        del sys.modules["fake_layers"]
    assert absent == []
    # outer's wrapper reads the clock at tick 0 and 11: a wall of 11 ticks,
    # of which each leaf call owns 2, middle 4 (its body tick plus the
    # wrapper's around the leaves) and outer the remaining 3.
    totals = timer.totals()
    assert {k: v["self_s"] for k, v in totals.items()} == {
        "outer": 3.0, "middle": 4.0, "leaf": 4.0,
    }
    assert sum(entry["self_s"] for entry in totals.values()) == 11.0
    assert totals["leaf"]["calls"] == 2
    assert mod.outer is outer  # uninstall restored the originals


def test_missing_binding_is_absent_not_a_crash():
    timer = layers.SelfTimer()
    table = {
        "gone": (
            ("repro_no_such_module", "f"),
            ("repro.analysis.vdtuning", "NoSuchClass.method"),
            ("repro.analysis.vdtuning", "no_such_function"),
        ),
        "descent": layers.LAYERS["descent"],
    }
    absent, uninstall = layers.install(timer, table)
    uninstall()
    assert absent == [
        "repro_no_such_module:f",
        "repro.analysis.vdtuning:NoSuchClass.method",
        "repro.analysis.vdtuning:no_such_function",
    ]


def test_repro_env_is_stripped_in_children(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_SAMPLES", "7")
    monkeypatch.setenv("REPRO_OBS", "trace")
    assert not any(k.startswith("REPRO_") for k in run.child_env())
    out = run.run_child({
        "workload": "fig3-edfvd", "seed": 0, "round": 0, "samples": 1,
        "trace": False, "scalar_check": False, "work_dir": str(tmp_path),
    })
    assert "error" not in out, out.get("error")
    assert out["defaults"]["repro_env"] == []


def test_corrupted_reference_counts_as_failure(monkeypatch):
    name = "fig3-edfvd"
    monkeypatch.setattr(run, "load_reference", lambda: {name: {"0:1:0": "0" * 64}})
    report = run.run(_args(workload=name, trace=0))
    entry = report["workloads"][name]
    assert entry["failed"] == 1
    assert entry["metrics"]["failed_frac"]["value"] > 0
    assert run.contract_line(report, 0)["correct"] is False


def test_compare_verdicts():
    same = [10.0, 10.2, 9.9, 10.1, 10.0] * 2
    assert run.verdict(same, same, "higher", 0.1)[0] == "same"
    faster = [v * 1.3 for v in same]
    assert run.verdict(same, faster, "higher", 0.1)[0] == "better"
    assert run.verdict(same[:5], faster[:5], "higher", 0.1)[0] == "same"  # < 10 pairs
    assert run.verdict(faster, same, "higher", 0.1)[0] == "worse"
    noisy = [v * f for v, f in zip(same, (0.5, 1.6, 0.7, 1.5, 1.0) * 2)]
    assert run.verdict(same, noisy, "higher", 0.1)[0] == "unresolved"


def test_compare_flags_new_failures():
    def artifact(failed_frac):
        metric = {"value": failed_frac, "unit": "frac", "better": "lower", "bound": 0.0}
        return {"workloads": {"w": {"metrics": {"failed_frac": metric}}}}

    assert run.compare(artifact(0.0), artifact(0.0)) == 0
    assert run.compare(artifact(0.0), artifact(0.5)) == 1
