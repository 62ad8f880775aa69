"""The committed BENCH_fabric.json must stay parseable and well-formed.

The campaign-fabric benchmark writes backend throughput and the injected
worker-loss overhead to the repo root so the perf history travels with
the code; this check keeps a malformed or hand-mangled artifact from
landing silently.
"""

from __future__ import annotations

import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
ARTIFACT = REPO_ROOT / "BENCH_fabric.json"

REQUIRED_BACKEND_KEYS = {"jobs", "seconds", "shards_per_sec", "speedup_vs_serial"}
REQUIRED_FAULT_KEYS = {
    "loss_rate",
    "doomed_units",
    "clean_cluster_s",
    "faulty_cluster_s",
    "overhead_factor",
    "retries",
    "lost_workers",
    "duplicates",
}


def test_bench_fabric_json_parses():
    data = json.loads(ARTIFACT.read_text(encoding="utf-8"))
    assert data["figure"] == "fig3"
    assert data["samples_per_bucket"] > 0
    assert data["shards"] > 0
    assert data["m_values"] and all(m > 0 for m in data["m_values"])
    assert data["host"]["cpus"] >= 1

    backends = data["backends"]
    assert set(backends) == {"serial", "cluster"}
    for name, row in backends.items():
        missing = REQUIRED_BACKEND_KEYS - set(row)
        assert not missing, f"{name} missing {sorted(missing)}"
        assert row["jobs"] >= 1
        assert row["seconds"] > 0
        assert row["shards_per_sec"] > 0
        assert row["speedup_vs_serial"] > 0
    assert backends["serial"]["jobs"] == 1
    assert backends["serial"]["speedup_vs_serial"] == 1.0

    fault = data["fault_tolerance"]
    missing = REQUIRED_FAULT_KEYS - set(fault)
    assert not missing, f"fault_tolerance missing {sorted(missing)}"
    assert 0 < fault["loss_rate"] < 1
    assert fault["doomed_units"] >= 1
    # the recorded run must actually have exercised recovery
    assert fault["retries"] >= 1
    assert fault["lost_workers"] >= 1
    assert fault["overhead_factor"] > 0
