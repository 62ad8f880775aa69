"""One measured (or traced) round of one workload, in a fresh process.

Invoked by ``run.py`` as ``python child.py '<json spec>'``; prints one JSON
object as its last stdout line.  The clock for ``setup_s`` starts before
``repro`` is imported, so set-up covers imports, plan building, algorithm
construction and store creation.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


class ShardLog:
    """Per-shard wall times, from this process and its forked workers.

    Workers of the default parallel backend are forked from this process,
    so they inherit the ``run_bucket`` wrapper; each shard appends one
    line to a file in the run's work directory.  Under tracing a worker
    also appends the layer self time it accumulated since its last line,
    because its own counters die with it.
    """

    def __init__(self, path: Path, timer=None):
        self.path = path
        self.timer = timer
        self.owner = os.getpid()
        self.baseline: dict = {}
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        if self.timer is not None:
            self.timer._stack.clear()
            self.baseline = self.timer.totals()

    def wrap(self, run_bucket):
        def timed_run_bucket(*args, **kwargs):
            start = time.perf_counter()
            try:
                return run_bucket(*args, **kwargs)
            finally:
                record = {"shard_s": time.perf_counter() - start}
                if self.timer is not None and os.getpid() != self.owner:
                    totals = self.timer.totals()
                    record["layers"] = {
                        layer: {
                            key: value - self.baseline.get(layer, {}).get(key, 0)
                            for key, value in entry.items()
                        }
                        for layer, entry in totals.items()
                    }
                    self.baseline = totals
                line = (json.dumps(record) + "\n").encode()
                fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
                try:
                    os.write(fd, line)
                finally:
                    os.close(fd)

        return timed_run_bucket

    def read(self):
        shards, worker_layers = [], {}
        if self.path.exists():
            for line in self.path.read_text().splitlines():
                record = json.loads(line)
                shards.append(record["shard_s"])
                for layer, entry in record.get("layers", {}).items():
                    into = worker_layers.setdefault(layer, {"self_s": 0.0, "calls": 0})
                    for key, value in entry.items():
                        into[key] += value
        return shards, worker_layers


def _counters():
    from repro import obs

    counters = obs.REGISTRY.counters()
    for name, histogram in obs.REGISTRY.histograms().items():
        counters[f"{name}.total"] = histogram.total
    return counters


def _resolved_defaults() -> dict:
    import platform

    from repro.analysis import verdict_cache
    from repro.analysis.dbf import demand_kernel
    from repro.runner.executor import resolve_backend
    from repro.util.env import runner_store_from_env

    return {
        "demand_kernel": demand_kernel(),
        "parallel_backend": resolve_backend(None, jobs=2, pending=2).name,
        "store": runner_store_from_env(),
        "verdict_cache": "on" if verdict_cache.enabled() else "off",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "repro_env": sorted(k for k in os.environ if k.startswith("REPRO_")),
    }


def main(spec: dict) -> dict:
    import workloads as wl
    from repro.experiments.acceptance import AcceptanceSweep
    from repro.experiments.algorithms import get_algorithm
    from repro.runner.store import create_store
    from repro.util.env import runner_store_from_env

    workload = wl.WORKLOADS[spec["workload"]]
    work = Path(spec["work_dir"])
    rounds_plan = wl.plan(workload, spec["seed"], spec["round"], spec["samples"])
    for _, jobs in rounds_plan:
        for job in jobs:
            for name in job.algorithms:
                get_algorithm(name)
    store = None
    if workload.campaign:
        store = create_store(runner_store_from_env(), work / "store")

    timer = None
    if spec["trace"]:
        from repro import obs

        import layers

        obs.set_recorder(obs.MetricsRecorder(obs.REGISTRY))
        timer = layers.SelfTimer()
        absent, _ = layers.install(timer)
    log = ShardLog(work / "shards.jsonl", timer)
    AcceptanceSweep.run_bucket = log.wrap(AcceptanceSweep.run_bucket)
    out = {"setup_s": time.perf_counter() - _START}

    before = _counters() if timer else None
    start = time.perf_counter()
    results, outcomes = wl.run_pass(rounds_plan, workload.jobs, store)
    out["pass_s"] = time.perf_counter() - start
    out["tasksets"] = wl.tasksets(results)
    out["digests"] = [wl.digest(results)]
    if workload.campaign:
        start = time.perf_counter()
        warm, _ = wl.run_pass(rounds_plan, workload.jobs, store)
        out["resume_s"] = time.perf_counter() - start
        out["digests"].append(wl.digest(warm))
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.campaign:
        usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["peak_rss_mb"] = usage / 1024.0
    out["shard_s"], worker_layers = log.read()
    if spec["scalar_check"]:
        out["scalar_ok"] = wl.scalar_check(outcomes, spec["seed"])
    if timer is not None:
        after = _counters()
        out["trace"] = {
            "wall_s": out["pass_s"] + out.get("resume_s", 0.0),
            "layers": timer.totals(),
            "worker_layers": worker_layers,
            "absent": absent,
            "counters": {
                k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)
            },
        }
    out["defaults"] = _resolved_defaults()
    return out


if __name__ == "__main__":
    try:
        result = main(json.loads(sys.argv[1]))
    except Exception:
        result = {"error": traceback.format_exc()}
    print(json.dumps(result))
