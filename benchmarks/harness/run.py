"""The repository's benchmark: figure slices and a campaign, measured end to end.

Usage (from the repository root)::

    python benchmarks/harness/run.py [--workload NAME|all] [--seed N]
        [--seconds S] [--repeats R] [--trace 0|1] [--out FILE]
    python benchmarks/harness/run.py --record-reference
    python benchmarks/harness/run.py compare PARENT.json [CHANGE.json]

Every round of every workload runs in a fresh child process with every
``REPRO_*`` variable removed from its environment, so each pays the cold
start a ``repro figure`` user pays and no process-level memo turns a round
into a warm re-run.  ``--seconds`` is the measured time per workload, split
over ``--repeats`` rounds; round ``r`` judges its own task-set sample, a
pure function of ``(seed, r)``.  With ``--workload all`` the rounds are
interleaved, round ``r`` visiting the workloads in an order rotated by
``r``, so drift on a shared host spreads over every workload.

``--trace 0`` measures the end-to-end metrics only, ``--trace 1`` runs
round 0 untraced and then traced (the per-layer table and the tracing
overhead), and the default does both.  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
REFERENCE = HERE / "reference.json"

DEFAULT_SECONDS = 20
DEFAULT_REPEATS = 5
CHILD_TIMEOUT_S = 170

#: name -> (unit, better, bound): the regression-gated end-to-end metrics.
END_TO_END = {
    "tasksets_per_s": ("1/s", "higher", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.10),
}
#: reported next to them, not gated by BENCHMARK.json (see README.md)
REPORTED = {
    "shard_p90_s": ("s", "lower", 0.15),
    "failed_frac": ("frac", "lower", 0.0),
}


# -- children -------------------------------------------------------------------
def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(spec: dict) -> dict:
    """Run one child to completion (its process group too); never raises."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"child timed out after {CHILD_TIMEOUT_S}s"}
    finally:
        try:  # forked pool workers left behind by a crashed child
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"child exited {proc.returncode}: {stderr.strip()[-2000:]}"}


def rounds_schedule(names: list[str], repeats: int) -> list[tuple[int, str]]:
    """``(round, workload)`` pairs, round r visiting workloads rotated by r."""
    order = []
    for r in range(repeats):
        shift = r % len(names)
        order.extend((r, name) for name in names[shift:] + names[:shift])
    return order


# -- statistics -----------------------------------------------------------------
def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


# -- aggregation ----------------------------------------------------------------
def end_to_end(children: list[dict], attempted: int, failed: int) -> dict:
    """Run metrics over the measured rounds of one workload.

    Throughput pools the rounds (sets over pass seconds), because each
    round judges a different sample; per-round values are kept for the
    paired comparison.  Set-up and memory are medians over the rounds,
    the shard p90 is taken over the pooled shards.
    """
    ok = [c for c in children if "error" not in c]
    metrics: dict[str, dict] = {}
    if ok:
        per_round = {
            "tasksets_per_s": [c["tasksets"] / c["pass_s"] for c in ok],
            "setup_s": [c["setup_s"] for c in ok],
            "peak_rss_mb": [c["peak_rss_mb"] for c in ok],
        }
        pooled = {
            "tasksets_per_s": sum(c["tasksets"] for c in ok) / sum(c["pass_s"] for c in ok),
            "setup_s": statistics.median(per_round["setup_s"]),
            "peak_rss_mb": statistics.median(per_round["peak_rss_mb"]),
        }
        for name, (unit, better, bound) in END_TO_END.items():
            metrics[name] = {
                "value": pooled[name], "unit": unit, "better": better,
                "bound": bound, "rounds": per_round[name],
            }
        shards = [s for c in ok for s in c["shard_s"]]
        unit, better, bound = REPORTED["shard_p90_s"]
        metrics["shard_p90_s"] = {
            "value": p90(shards), "unit": unit, "better": better,
            "bound": bound, "shards": len(shards),
            "rounds": [p90(c["shard_s"]) for c in ok],
        }
    unit, better, bound = REPORTED["failed_frac"]
    metrics["failed_frac"] = {
        "value": failed / max(1, attempted), "unit": unit, "better": better, "bound": bound,
    }
    return metrics


def _sum(counters: dict, prefix: str, suffix: str = "") -> float:
    return sum(v for k, v in counters.items() if k.startswith(prefix) and k.endswith(suffix))


def per_layer(traced: dict, untraced: dict, jobs: int) -> dict:
    """The per-layer table of one traced round (see README.md)."""
    trace = traced["trace"]
    wall = trace["wall_s"]
    layers = {k: dict(v) for k, v in trace["layers"].items()}
    main_self = sum(v["self_s"] for v in layers.values())
    for name, entry in trace["worker_layers"].items():
        layers.setdefault(name, {"self_s": 0.0, "calls": 0})
        layers[name]["self_s"] += entry["self_s"]
        layers[name]["calls"] += entry["calls"]
    c = trace["counters"]
    out: dict[str, tuple[float, str]] = {}
    for name, entry in layers.items():
        out[f"{name}.self_s"] = (entry["self_s"], "s")
        out[f"{name}.calls"] = (entry["calls"], "count")
        out[f"{name}.share"] = (entry["self_s"] / wall, "frac")
    sources = {k[len("prefilter."):]: v for k, v in c.items()
               if k.startswith("prefilter.") and k.count(".") == 1}
    ledger, full = sources.pop("ledger", 0), sources.pop("full", 0)
    screened = c.get("dbf.approx-accept", 0) + c.get("dbf.approx-reject", 0)
    busy = c.get("runner.shard-seconds.total", 0.0)
    out.update({
        "prefilter.settled": (sum(sources.values()), "count"),
        "ledger.settled": (ledger, "count"),
        "ledger.settle_frac": (ledger / (ledger + full) if ledger + full else 0.0, "frac"),
        "allocator.fit_attempts": (_sum(c, "alloc.", ".fit-attempts"), "count"),
        "allocator.commits": (_sum(c, "alloc.", ".commits"), "count"),
        "context.probes": (layers.get("context", {}).get("calls", 0), "count"),
        "descent.iterations": (c.get("descent.iterations.total", 0), "count"),
        "screen.settle_frac": (
            screened / (screened + c.get("dbf.qpa-runs", 0)) if screened else 0.0, "frac"),
        "qpa.iterations": (c.get("dbf.qpa-iterations", 0), "count"),
        "block.jumps": (c.get("kernel.block.block-jumps", 0), "count"),
        "block.fallback": (c.get("kernel.block.block-fallback", 0), "count"),
        "runner.worker_busy_s": (busy, "s"),
        "runner.utilization": (busy / (jobs * wall), "frac"),
        "store.resume_s": (traced.get("resume_s", 0.0), "s"),
        "verdict_cache.hits": (c.get("verdict-cache.hit", 0), "count"),
        "verdict_cache.misses": (c.get("verdict-cache.miss", 0), "count"),
        "trace.wall_s": (wall, "s"),
        "trace.coverage": (main_self / wall, "frac"),
        "trace.overhead_frac": (traced["pass_s"] / untraced["pass_s"] - 1.0, "frac"),
    })
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


# -- correctness ----------------------------------------------------------------
def load_reference() -> dict:
    if REFERENCE.exists():
        return json.loads(REFERENCE.read_text())["digests"]
    return {}


def check_child(child: dict, expected: str | None) -> tuple[int, int]:
    """``(attempted, failed)`` passes of one child.

    A pass fails when the child raised, when its digest differs from the
    committed reference (or, without one, from the child's other passes),
    or when the scalar re-run of a shard disagrees.
    """
    if "error" in child:
        return 1, 1
    digests = child["digests"]
    target = expected or digests[0]
    failed = sum(d != target for d in digests)
    attempted = len(digests)
    if "scalar_ok" in child:
        attempted += 1
        failed += not child["scalar_ok"]
    return attempted, failed


# -- one invocation -------------------------------------------------------------
def run(args) -> dict:
    import workloads as wl

    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    round_seconds = args.seconds / args.repeats
    reference = load_reference()
    work = ROOT / ".bench_work" / uuid.uuid4().hex[:12]
    measure = args.trace in (None, 0)
    trace = args.trace in (None, 1)
    report = {
        "schema": "repro-harness/1",
        "seed": args.seed,
        "seconds": args.seconds,
        "repeats": args.repeats,
        "workloads": {},
    }
    state = {
        name: {"children": [], "attempted": 0, "failed": 0, "digests": {},
               "samples": wl.WORKLOADS[name].samples(round_seconds)}
        for name in names
    }

    def child(name: str, r: int, traced: bool) -> dict:
        st = state[name]
        work.mkdir(parents=True, exist_ok=True)
        sub = tempfile.mkdtemp(prefix=f"{name}-{r}-", dir=work)
        spec = {
            "workload": name, "seed": args.seed, "round": r,
            "samples": st["samples"], "trace": traced,
            "scalar_check": r == 0 and not traced, "work_dir": sub,
        }
        out = run_child(spec)
        expected = reference.get(name, {}).get(f"{args.seed}:{st['samples']}:{r}")
        attempted, failed = check_child(out, expected)
        if "error" not in out and r in st["digests"] and out["digests"][0] != st["digests"][r]:
            failed += 1  # traced and untraced runs of one round disagree
        st["attempted"] += attempted
        st["failed"] += failed
        if "error" in out:
            print(f"[{name} round {r}] FAILED:\n{out['error']}", file=sys.stderr)
        else:
            st["digests"].setdefault(r, out["digests"][0])
            report.setdefault("defaults", out["defaults"])
        return out

    try:
        if measure:
            for r, name in rounds_schedule(names, args.repeats):
                state[name]["children"].append(child(name, r, False))
        for name in names:
            st = state[name]
            workload = wl.WORKLOADS[name]
            entry = {
                "sizes": {
                    "figures": list(workload.figures),
                    "m_values": list(workload.m_values) if workload.m_values else "figure default",
                    "samples_per_bucket": st["samples"],
                    "jobs": workload.jobs,
                    "rounds": args.repeats,
                },
                "why": workload.why,
            }
            if trace:
                # The untraced twin runs right before the traced round, so
                # host drift between them stays small in the overhead.
                untraced = child(name, 0, False)
                traced = child(name, 0, True)
                if "error" not in traced and "error" not in untraced:
                    entry["layers"] = per_layer(traced, untraced, workload.jobs)
                    entry["absent_bindings"] = traced["trace"]["absent"]
            if measure:
                entry["metrics"] = end_to_end(st["children"], st["attempted"], st["failed"])
            entry.update(
                attempted=st["attempted"],
                failed=st["failed"],
                digests={str(r): d for r, d in sorted(st["digests"].items())},
            )
            ok = [c for c in st["children"] if "error" not in c]
            entry["rounds"] = [
                {k: c[k] for k in ("setup_s", "pass_s", "tasksets", "peak_rss_mb", "resume_s")
                 if k in c}
                for c in ok
            ]
            report["workloads"][name] = entry
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    return report


# -- output ---------------------------------------------------------------------
def print_report(report: dict) -> None:
    defaults = report.get("defaults", {})
    if defaults:
        print("defaults: " + ", ".join(f"{k}={v}" for k, v in defaults.items()))
    for name, entry in report["workloads"].items():
        print(f"\n== {name}  (seed {report['seed']}, {entry['sizes']})")
        print(f"   attempted {entry['attempted']}, failed {entry['failed']}")
        for metric, m in entry.get("metrics", {}).items():
            spread = ""
            if "rounds" in m:
                q1, q2, q3 = quartiles(m["rounds"])
                spread = f"   rounds median {q2:.4g} [q1 {q1:.4g}, q3 {q3:.4g}]"
            print(f"   {metric:<16} {m['value']:>12.4f} {m['unit']:<5}{spread}")
        layers = entry.get("layers")
        if layers:
            print(f"   {'layer':<30} {'self_s':>9} {'share':>7} {'calls':>9}")
            for key in layers:
                if key.endswith(".self_s") and f"{key[:-7]}.share" in layers:
                    base = key[:-7]
                    print(f"   {base:<30} {layers[key]['value']:>9.4f} "
                          f"{layers[base + '.share']['value']:>7.1%} "
                          f"{layers[base + '.calls']['value']:>9.0f}")
            for key, m in layers.items():
                if not key.endswith((".self_s", ".share", ".calls")):
                    print(f"   {key:<30} {m['value']:>12.4f} {m['unit']}")
            if entry.get("absent_bindings"):
                print(f"   absent bindings: {', '.join(entry['absent_bindings'])}")


def contract_line(report: dict, trace: int | None) -> dict:
    """The summary line: end-to-end metrics under ``--trace 0``, the
    per-layer table under ``--trace 1`` (prefixed by workload when several
    ran).  Layer times appear as shares of the traced wall time: a layer
    a workload never reaches then reads a true 0 share rather than a
    0-second time."""
    entries = report["workloads"]
    attempted = sum(e["attempted"] for e in entries.values())
    failed = sum(e["failed"] for e in entries.values())
    metrics = {}
    for name, entry in entries.items():
        prefix = "" if len(entries) == 1 else f"{name}/"
        if trace in (None, 0):
            for metric in END_TO_END:
                if metric in entry.get("metrics", {}):
                    m = entry["metrics"][metric]
                    metrics[prefix + metric] = {"value": m["value"], "unit": m["unit"]}
        if trace in (None, 1):
            for metric, m in entry.get("layers", {}).items():
                if m["unit"] != "s" or metric == "trace.wall_s":
                    metrics[prefix + metric] = {"value": m["value"], "unit": m["unit"]}
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": max(1, attempted),
        "failed": failed if attempted else 1,
        "metrics": metrics,
    }


# -- compare --------------------------------------------------------------------
def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, float]:
    """Paired verdict over rounds that judged identical samples.

    ``d_r`` is the relative change of round r, signed so that positive is
    better.  Unresolved: the spread (IQR) of ``d`` exceeds the bound and
    not every pair moved the same way.  Worse: the median ``d`` is below
    ``-bound``.  Better: at least ten pairs, the change wins at least 9 of
    10 of them and the median ``d`` exceeds the spread of ``d``.
    Otherwise same.
    """
    sign = 1.0 if better == "higher" else -1.0
    d = [sign * (c / p - 1.0) for p, c in zip(parent, change) if p]
    if not d:
        return "unresolved", 0.0
    q1, med, q3 = quartiles(d)
    one_sided = all(x > 0 for x in d) or all(x < 0 for x in d)
    if q3 - q1 > bound and not one_sided:
        return "unresolved", med
    if med < -bound:
        return "worse", med
    if len(d) >= 10 and sum(x > 0 for x in d) >= 0.9 * len(d) and med > q3 - q1:
        return "better", med
    return "same", med


def compare(parent: dict, change: dict) -> int:
    print(f"{'workload':<18} {'metric':<16} {'parent med [q1,q3]':>30} "
          f"{'change med [q1,q3]':>30} {'delta+':>8} {'bound':>6}  verdict")
    worse = 0
    for name, p_entry in parent["workloads"].items():
        c_entry = change["workloads"].get(name)
        if c_entry is None or "metrics" not in p_entry or "metrics" not in c_entry:
            continue
        for metric, pm in p_entry["metrics"].items():
            cm = c_entry["metrics"].get(metric)
            if cm is None:
                continue
            bound = pm["bound"]
            if "rounds" in pm and "rounds" in cm:
                p_q, c_q = quartiles(pm["rounds"]), quartiles(cm["rounds"])
                result, delta = verdict(pm["rounds"], cm["rounds"], pm["better"], bound)
            else:
                p_q = (pm["value"],) * 3
                c_q = (cm["value"],) * 3
                sign = 1.0 if pm["better"] == "higher" else -1.0
                base = pm["value"]
                delta = sign * (cm["value"] / base - 1.0) if base else sign * cm["value"]
                result = "worse" if delta < -bound else "same"
            worse += result == "worse"
            fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g},{q[2]:.4g}]"  # noqa: E731
            print(f"{name:<18} {metric:<16} {fmt(p_q):>30} {fmt(c_q):>30} "
                  f"{delta:>+8.1%} {bound:>6.0%}  {result}")
    return 1 if worse else 0


def _last_sets(paths: list[str]) -> tuple[dict, dict]:
    sets = [json.loads(Path(p).read_text())["sets"] for p in paths]
    if len(paths) == 1:
        if len(sets[0]) < 2:
            raise SystemExit("compare with one file needs at least two sets in it")
        return sets[0][-2], sets[0][-1]
    return sets[0][-1], sets[1][-1]


# -- entry point ----------------------------------------------------------------
def main(argv: list[str]) -> int:
    if argv and argv[0] == "compare":
        if not 1 <= len(argv[1:]) <= 2:
            raise SystemExit("usage: run.py compare PARENT.json [CHANGE.json]")
        return compare(*_last_sets(argv[1:]))

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--out", help="append this run's set to a JSON history file")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    # A terminated run still reaps its current child's process group
    # (run_child's finally clause) before exiting.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0 or args.repeats < 1 or args.seconds <= 0:
        parser.error("--seed must be >= 0, --repeats >= 1 and --seconds > 0")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(workloads.WORKLOADS)}, all")

    if args.record_reference:
        return record_reference(args)

    report = run(args)
    print_report(report)
    if args.out:
        path = Path(args.out)
        history = json.loads(path.read_text()) if path.exists() else {"sets": []}
        history["sets"].append(report)
        path.write_text(json.dumps(history, indent=1) + "\n")
    line = contract_line(report, args.trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def record_reference(args) -> int:
    """Write the digests of seeds 0 and 1 (the holdout) at these sizes."""
    digests: dict[str, dict[str, str]] = {}
    args.trace = 0
    for seed in (0, 1):
        args.seed = seed
        report = run(args)
        for name, entry in report["workloads"].items():
            if entry["failed"]:
                print(f"{name} seed {seed} failed; reference not written", file=sys.stderr)
                return 1
            samples = entry["sizes"]["samples_per_bucket"]
            for r, d in entry["digests"].items():
                digests.setdefault(name, {})[f"{seed}:{samples}:{r}"] = d
    previous = load_reference()
    for name, table in digests.items():
        previous.setdefault(name, {}).update(table)
    REFERENCE.write_text(json.dumps({"digests": previous}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
