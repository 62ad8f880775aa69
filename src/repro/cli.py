"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``
    Draw a task set from the fair generator and print/save it as JSON.
``check``
    Run a uniprocessor schedulability test on a task-set JSON file.
``partition``
    Partition a task-set JSON file with a named strategy + test.
``simulate``
    Validate an accepted task set against the adversarial scenario battery.
``figure``
    Run one of the paper's figure experiments and print its tables
    (``--jobs N`` fans buckets out over worker processes; ``--cache-dir``
    makes the run resumable).  With ``REPRO_OBS`` set, the collected
    metrics snapshot (and, under ``trace``, the Chrome-trace span dump)
    are written alongside the tables.
``campaign``
    Run a whole set of figures through the parallel, resumable campaign
    engine and save their JSON results.
``trace``
    Run a figure with the tracing recorder forced on and write the
    Chrome-trace span dump (open it in Perfetto or ``about:tracing``)
    plus the obs metrics snapshot.
``status``
    Render a live (or final) view of a campaign's event journal —
    workers alive, per-sweep progress, fault counters, shard-latency
    quantiles and stragglers.  ``--follow`` tails a running campaign
    from a second terminal.
``report``
    Aggregate one or more journals into per-figure throughput/latency
    tables, optionally diffed against a baseline journal or committed
    ``BENCH_*.json`` artifact; exits non-zero past the regression
    threshold (a ready-made CI perf gate).
``sensitivity``
    Run the utilization-difference sensitivity extension experiment.

Every command is a thin veneer over the library API — anything the CLI can
do, three lines of Python can do too (see README quickstart).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.analysis import get_test, registered_tests
from repro.core import get_strategy, partition, registered_strategies
from repro.experiments.figures import FIGURES
from repro.generator import MCTaskSetGenerator
from repro.model import TaskSet
from repro.util.env import DBF_KERNELS, RUNNER_BACKENDS
from repro.util.rng import derive_rng

__all__ = ["main", "build_parser"]


def _add_run_options(parser: argparse.ArgumentParser, *, m: bool = True) -> None:
    """The options ``figure``, ``trace`` and ``campaign`` share.

    ``campaign`` takes no ``--m``: processor counts belong in its spec.
    """
    parser.add_argument("--samples", type=int, default=None)
    if m:
        parser.add_argument(
            "--m", default=None, help="comma-separated processor counts"
        )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (0 = all cores, default 1 = serial)",
    )
    parser.add_argument(
        "--backend",
        choices=RUNNER_BACKENDS,
        default=None,
        help=(
            "executor backend (default: REPRO_RUNNER_BACKEND, else serial "
            "for --jobs 1 and cluster otherwise); 'cluster' runs worker "
            "processes with heartbeat fault recovery — results are identical"
        ),
    )
    parser.add_argument(
        "--demand-kernel",
        choices=DBF_KERNELS,
        default=None,
        help=(
            "demand-kernel stack for the dbf analyses (default: "
            "REPRO_DBF_KERNEL, else qpa); exported to workers; block "
            "is sound but may accept more than qpa — see README"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Utilization-difference based partitioned MC scheduling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a task set (JSON)")
    gen.add_argument("--m", type=int, default=4)
    gen.add_argument("--uhh", type=float, required=True)
    gen.add_argument("--ulh", type=float, required=True)
    gen.add_argument("--ull", type=float, required=True)
    gen.add_argument("--ph", type=float, default=0.5)
    gen.add_argument(
        "--deadline", choices=("implicit", "constrained"), default="implicit"
    )
    gen.add_argument("--nmin", type=int, default=None, help="min task count")
    gen.add_argument("--nmax", type=int, default=None, help="max task count")
    gen.add_argument(
        "--degradation-factor",
        type=float,
        default=None,
        help="per-task degraded LC budgets: wcet_degraded = floor(f * C_L)",
    )
    gen.add_argument("--seed", default="cli")
    gen.add_argument("-o", "--output", help="write JSON here (default stdout)")

    service_help = (
        "LC service model in HI mode: full-drop (default), "
        "imprecise:<rho> or elastic:<lambda>"
    )

    check = sub.add_parser("check", help="run a schedulability test")
    check.add_argument("taskset", help="task-set JSON file ('-' for stdin)")
    check.add_argument(
        "--test", choices=registered_tests(), default="ecdf"
    )
    check.add_argument("--service", default="full-drop", help=service_help)

    part = sub.add_parser("partition", help="partition a task set")
    part.add_argument("taskset", help="task-set JSON file ('-' for stdin)")
    part.add_argument("--m", type=int, default=4)
    part.add_argument(
        "--strategy", choices=registered_strategies(), default="cu-udp"
    )
    part.add_argument("--test", choices=registered_tests(), default="edf-vd")
    part.add_argument("--service", default="full-drop", help=service_help)

    simulate = sub.add_parser(
        "simulate", help="validate an accepted set by simulation"
    )
    simulate.add_argument("taskset", help="task-set JSON file ('-' for stdin)")
    simulate.add_argument(
        "--test", choices=registered_tests(), default="ecdf"
    )
    simulate.add_argument("--service", default="full-drop", help=service_help)
    simulate.add_argument("--horizon", type=int, default=20_000)
    simulate.add_argument("--seed", default="cli-sim")

    figure = sub.add_parser("figure", help="run a paper figure experiment")
    figure.add_argument("name", choices=FIGURES)
    _add_run_options(figure)
    figure.add_argument(
        "--cache-dir",
        default=None,
        help="shard cache directory; reruns resume instead of recomputing",
    )
    figure.add_argument(
        "--store",
        choices=("fs", "object"),
        default=None,
        help=(
            "shard-store layout under --cache-dir (default: "
            "REPRO_RUNNER_STORE, else fs); 'object' is the flat "
            "content-keyed bucket multiple hosts can share"
        ),
    )
    figure.add_argument(
        "-o", "--output", default=None, help="also save the result JSON here"
    )
    figure.add_argument(
        "--progress", action="store_true", help="live shard progress on stderr"
    )
    figure.add_argument(
        "--obs-out",
        default=None,
        help=(
            "metrics snapshot path when REPRO_OBS is on "
            "(default repro-obs.json)"
        ),
    )
    figure.add_argument(
        "--trace-out",
        default=None,
        help=(
            "Chrome-trace path when REPRO_OBS=trace "
            "(default repro-trace.json)"
        ),
    )
    figure.add_argument(
        "--journal",
        default=None,
        help=(
            "append-only JSONL event journal for this run (exported as "
            "REPRO_OBS_JOURNAL so workers inherit it); watch it live "
            "with 'repro status --follow'"
        ),
    )

    campaign = sub.add_parser(
        "campaign", help="run a figure campaign (parallel + resumable)"
    )
    campaign.add_argument(
        "spec",
        nargs="?",
        default=None,
        help="campaign spec JSON; omit to run every figure of the paper",
    )
    campaign.add_argument(
        "--figures",
        default=None,
        help="comma-separated figure names (alternative to a spec file)",
    )
    _add_run_options(campaign, m=False)
    campaign.add_argument(
        "--out", default="campaign-results", help="output directory"
    )
    campaign.add_argument(
        "--cache-dir",
        default=None,
        help="shard cache directory (default: <out>/cache)",
    )
    campaign.add_argument(
        "--store",
        choices=("fs", "object"),
        default=None,
        help=(
            "shard-store layout (default: REPRO_RUNNER_STORE, else fs); "
            "'object' is the flat content-keyed bucket multiple hosts can "
            "share via --cache-dir on common storage"
        ),
    )
    campaign.add_argument(
        "--no-progress",
        action="store_true",
        help="suppress the live progress line",
    )
    campaign.add_argument(
        "--journal",
        nargs="?",
        const="auto",
        default=None,
        help=(
            "append-only JSONL event journal (exported as "
            "REPRO_OBS_JOURNAL so every worker writes it too); bare "
            "--journal defaults to <out>/journal.jsonl; watch it live "
            "with 'repro status --follow'"
        ),
    )

    status = sub.add_parser(
        "status", help="live status of a campaign from its event journal"
    )
    status.add_argument("journal", help="journal file a campaign is writing")
    status.add_argument(
        "--follow",
        action="store_true",
        help="keep tailing the journal until the campaign ends (Ctrl-C to stop)",
    )
    status.add_argument(
        "--interval",
        type=float,
        default=None,
        help="poll interval in seconds (default: REPRO_OBS_JOURNAL_FLUSH)",
    )
    status.add_argument(
        "--straggler-factor",
        type=float,
        default=4.0,
        help=(
            "flag in-flight units older than k x the running shard-seconds "
            "p95 (k >= 1, default 4.0)"
        ),
    )

    rep = sub.add_parser(
        "report",
        help="aggregate event journals; diff runs against a baseline",
    )
    rep.add_argument(
        "journals", nargs="+", help="one or more campaign journal files"
    )
    rep.add_argument(
        "--baseline",
        default=None,
        help=(
            "baseline to diff every journal against: another journal or a "
            "committed BENCH_*.json artifact; without it, the first "
            "journal is the baseline for the rest"
        ),
    )
    rep.add_argument(
        "--threshold",
        type=float,
        default=None,
        help=(
            "max tolerated fractional drift before exiting non-zero "
            "(default 0.2; CI uses a generous value for noisy runners)"
        ),
    )

    trace = sub.add_parser(
        "trace",
        help="run a figure with tracing forced on; write the span dump",
    )
    trace.add_argument("name", choices=FIGURES)
    _add_run_options(trace)
    trace.add_argument(
        "--trace-out",
        default="repro-trace.json",
        help="Chrome-trace output path (Perfetto / about:tracing)",
    )
    trace.add_argument(
        "--obs-out",
        default="repro-obs.json",
        help="metrics snapshot output path",
    )

    sens = sub.add_parser(
        "sensitivity", help="utilization-difference sensitivity sweep"
    )
    sens.add_argument("--m", type=int, default=4)
    sens.add_argument("--samples", type=int, default=20)

    return parser


def _load_taskset(path: str, service: str = "full-drop") -> TaskSet:
    if path == "-":
        taskset = TaskSet.from_dicts(json.load(sys.stdin))
    else:
        with open(path, encoding="utf-8") as handle:
            taskset = TaskSet.from_dicts(json.load(handle))
    if service and service != "full-drop":
        from repro.degradation import parse_service_model

        taskset = taskset.with_service_model(parse_service_model(service))
    return taskset


def _cmd_generate(args) -> int:
    generator = MCTaskSetGenerator(
        m=args.m,
        p_high=args.ph,
        deadline_type=args.deadline,
        n_min=args.nmin,
        n_max=args.nmax,
        degradation_factor=args.degradation_factor,
    )
    rng = derive_rng("cli-generate", args.seed)
    columns = generator.generate_columns(rng, args.uhh, args.ulh, args.ull)
    if columns is None:
        print("generation failed: targets infeasible", file=sys.stderr)
        return 1
    # Tasks numbered from 1: the output depends on the arguments only.
    taskset = columns.materialize(first_id=1)
    payload = json.dumps(taskset.to_dicts(), indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"wrote {len(taskset)} tasks to {args.output}", file=sys.stderr)
    else:
        print(payload)
    return 0


def _require_service_support(test, taskset) -> None:
    """Exit with a clear error when ``test`` cannot honor the service model.

    ``partition`` and the sweep harness gate this themselves; the direct
    ``check``/``simulate`` paths would otherwise silently analyze a
    degraded task set with drop-at-switch semantics.
    """
    service = taskset.service_model
    if not test.supports_service_model(service):
        raise SystemExit(
            f"test {test.name!r} does not analyze LC tasks under the "
            f"{service.spec()!r} service model (e.g. the AMC analyses "
            "assume drop-at-switch); pick edf-vd/ey/ecdf or drop --service"
        )


def _cmd_check(args) -> int:
    taskset = _load_taskset(args.taskset, args.service)
    test = get_test(args.test)
    _require_service_support(test, taskset)
    result = test.analyze(taskset)
    verdict = "SCHEDULABLE" if result.schedulable else "NOT SCHEDULABLE"
    print(f"{test.name}: {verdict}")
    if result.detail:
        print(f"  detail: {result.detail}")
    if result.schedulable and result.virtual_deadlines:
        print(f"  virtual deadlines: {result.virtual_deadlines}")
    if result.schedulable and result.scaling_factor != 1.0:
        print(f"  scaling factor: {result.scaling_factor:.4f}")
    return 0 if result.schedulable else 2


def _cmd_partition(args) -> int:
    taskset = _load_taskset(args.taskset, args.service)
    result = partition(
        taskset, args.m, get_test(args.test), get_strategy(args.strategy)
    )
    print(result.describe())
    return 0 if result.success else 2


def _cmd_simulate(args) -> int:
    from repro.sim import validate_against_simulation

    taskset = _load_taskset(args.taskset, args.service)
    test = get_test(args.test)
    _require_service_support(test, taskset)
    if not test.is_schedulable(taskset):
        print(f"{test.name} rejects this task set; nothing to validate")
        return 2
    violations = validate_against_simulation(
        taskset, test, derive_rng("cli-sim", args.seed), horizon=args.horizon
    )
    if violations:
        print(f"UNSOUND: {len(violations)} MC violations found:")
        for label, miss in violations[:10]:
            print(f"  [{label}] {miss}")
        return 3
    print(
        f"validated: no MC violation across the scenario battery "
        f"(horizon {args.horizon})"
    )
    return 0


def _resolve_jobs(jobs: int) -> int:
    from repro.runner import default_jobs

    if jobs < 0:
        raise SystemExit(f"--jobs must be >= 0, got {jobs}")
    return default_jobs() if jobs == 0 else jobs


def _apply_demand_kernel(kernel: str | None) -> None:
    """Apply ``--demand-kernel`` to this process and its future workers.

    Exporting ``REPRO_DBF_KERNEL`` makes cluster workers (fork or
    spawn) initialise on the requested kernel; ``set_demand_kernel``
    switches the conductor process itself.  ``None`` (flag not passed)
    leaves the env/default resolution untouched, so the documented order
    instance > CLI > env > default holds.
    """
    if kernel is None:
        return
    from repro.analysis.dbf import set_demand_kernel

    os.environ["REPRO_DBF_KERNEL"] = kernel
    set_demand_kernel(kernel)


def _write_obs_outputs(obs_out: str | None, trace_out: str | None) -> None:
    """Persist the obs snapshot (and span dump under tracing), if recording.

    A no-op with ``REPRO_OBS`` off, so plain runs never touch the
    filesystem beyond what they always wrote.
    """
    from repro import obs

    if obs.active():
        path = obs_out or "repro-obs.json"
        snapshot = obs.to_json(obs.REGISTRY, obs.spans(), mode=obs.mode())
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2)
            handle.write("\n")
        print(f"wrote obs snapshot to {path}", file=sys.stderr)
    if obs.tracing():
        path = obs.write_chrome_trace(obs.spans(), trace_out or "repro-trace.json")
        print(f"wrote chrome trace to {path}", file=sys.stderr)


def _cmd_figure(args) -> int:
    from repro import obs
    from repro.experiments import run_figure
    from repro.experiments.acceptance import kernel_summary
    from repro.experiments.export import save_figure_result
    from repro.experiments.report import render_figure, render_sweep_diagnostics
    from repro.obs.journal import emit_open, journal_env
    from repro.runner import ProgressReporter, create_store
    from repro.util.env import runner_store_from_env

    _apply_demand_kernel(args.demand_kernel)
    kwargs = {}
    if args.m:
        kwargs["m_values"] = tuple(int(v) for v in args.m.split(","))
    store_kind = args.store if args.store else runner_store_from_env()
    cache = create_store(store_kind, args.cache_dir) if args.cache_dir else None
    progress = ProgressReporter(label=args.name) if args.progress else None
    diagnostics: list = []
    # The registry is cumulative per process; a baseline keeps the printed
    # kernel diagnostics scoped to this run (relevant to tests and embeds —
    # a fresh CLI process starts at zero anyway).
    kernel_baseline = obs.REGISTRY.counters()
    with journal_env(args.journal) as jrnl:
        if jrnl is not None:
            emit_open(jrnl, campaign=f"figure:{args.name}")
        result = run_figure(
            args.name,
            samples=args.samples,
            jobs=_resolve_jobs(args.jobs),
            cache=cache,
            progress=progress,
            backend=args.backend,
            diagnostics=diagnostics,
            **kwargs,
        )
        if jrnl is not None:
            # close the record so `repro status` shows "finished"
            jrnl.emit("campaign-end", campaign=f"figure:{args.name}")
    if progress is not None:
        progress.finish()
    if args.output:
        save_figure_result(result, args.output)
        print(f"wrote {args.output}", file=sys.stderr)
    print(render_figure(result))
    rendered = render_sweep_diagnostics(
        diagnostics, kernels=kernel_summary(since=kernel_baseline)
    )
    if rendered:
        print(rendered, file=sys.stderr)
    _write_obs_outputs(args.obs_out, args.trace_out)
    return 0


def _cmd_trace(args) -> int:
    from repro import obs
    from repro.experiments import run_figure

    _apply_demand_kernel(args.demand_kernel)
    kwargs = {}
    if args.m:
        kwargs["m_values"] = tuple(int(v) for v in args.m.split(","))
    previous = obs.set_recorder(obs.TraceRecorder(obs.REGISTRY))
    try:
        run_figure(
            args.name,
            samples=args.samples,
            jobs=_resolve_jobs(args.jobs),
            backend=args.backend,
            **kwargs,
        )
        table = obs.render_table(obs.REGISTRY, obs.spans())
        if table:
            print(table)
        _write_obs_outputs(args.obs_out, args.trace_out)
        return 0
    finally:
        obs.set_recorder(previous)


def _cmd_campaign(args) -> int:
    from repro.runner import (
        CampaignSpec,
        FigureJob,
        ProgressReporter,
        run_campaign,
    )

    _apply_demand_kernel(args.demand_kernel)
    if args.spec and args.figures:
        raise SystemExit("pass either a spec file or --figures, not both")
    try:
        if args.spec:
            spec = CampaignSpec.from_json_file(args.spec)
            if args.samples is not None:
                raise SystemExit("--samples belongs in the spec file")
        elif args.figures:
            jobs_list = tuple(
                FigureJob(name.strip(), samples=args.samples)
                for name in args.figures.split(",")
                if name.strip()
            )
            spec = CampaignSpec(name="cli-campaign", figures=jobs_list)
        else:
            spec = CampaignSpec.paper_evaluation(samples=args.samples)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        raise SystemExit(f"invalid campaign: {exc}") from None

    journal = args.journal
    if journal == "auto":
        # Bare --journal: one JSONL file per campaign, next to its outputs.
        journal = os.path.join(args.out, "journal.jsonl")

    progress = None if args.no_progress else ProgressReporter(label=spec.name)
    report = run_campaign(
        spec,
        args.out,
        jobs=_resolve_jobs(args.jobs),
        cache_dir=args.cache_dir,
        progress=progress,
        backend=args.backend,
        store=args.store,
        journal=journal,
    )
    figure_word = "figure" if len(report.outputs) == 1 else "figures"
    print(
        f"campaign {spec.name!r}: {len(report.outputs)} {figure_word} -> "
        f"{args.out} ({report.shards_computed} shards computed, "
        f"{report.shards_cached} from cache)"
    )
    for key, path in report.outputs.items():
        print(f"  {key}: {path}")
    if journal:
        print(f"  journal: {journal}")
    return 0


def _cmd_status(args) -> int:
    import time

    from repro.obs.journal import JournalFollower, read_events
    from repro.obs.status import CampaignStatus, render_status
    from repro.util.env import journal_flush_interval_from_env

    if args.straggler_factor < 1.0:
        raise SystemExit(
            f"--straggler-factor must be >= 1, got {args.straggler_factor}"
        )
    status = CampaignStatus(straggler_factor=args.straggler_factor)
    if not args.follow:
        try:
            status.absorb(read_events(args.journal))
        except FileNotFoundError as exc:
            raise SystemExit(str(exc)) from None
        print(render_status(status))
        return 0

    interval = (
        args.interval
        if args.interval is not None
        else journal_flush_interval_from_env()
    )
    if interval <= 0:
        raise SystemExit(f"--interval must be positive, got {interval}")
    follower = JournalFollower(args.journal)
    try:
        while True:
            events = follower.poll()
            if events:
                status.absorb(events)
            print(render_status(status))
            if status.ended:
                return 0
            print()
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0


def _cmd_report(args) -> int:
    from repro.obs.report import (
        DEFAULT_THRESHOLD,
        compare_runs,
        load_baseline,
        render_report,
        summarize_journal,
    )

    threshold = (
        args.threshold if args.threshold is not None else DEFAULT_THRESHOLD
    )
    if threshold <= 0:
        raise SystemExit(f"--threshold must be positive, got {threshold}")
    try:
        summaries = [summarize_journal(path) for path in args.journals]
        if args.baseline:
            baseline = load_baseline(args.baseline)
            targets = summaries
        elif len(summaries) > 1:
            # No explicit baseline: the first journal anchors the rest.
            baseline, targets = summaries[0], summaries[1:]
        else:
            baseline, targets = None, []
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot load journal/baseline: {exc}") from None
    comparisons = None
    if baseline is not None:
        comparisons = []
        for summary in targets:
            comparisons.extend(compare_runs(summary, baseline, threshold))
    print(render_report(summaries, comparisons, threshold))
    regressed = [c for c in comparisons or () if c.regressed]
    if regressed:
        print(
            f"REGRESSION: {len(regressed)} metric(s) drifted past "
            f"threshold {threshold:g}",
            file=sys.stderr,
        )
        return 4
    return 0


def _cmd_sensitivity(args) -> int:
    from repro.experiments.algorithms import get_algorithm
    from repro.experiments.sensitivity import difference_sensitivity

    algorithms = [
        get_algorithm("cu-udp-edf-vd"),
        get_algorithm("ca-nosort-f-f-edf-vd"),
    ]
    result = difference_sensitivity(
        algorithms, m=args.m, samples=args.samples
    )
    print(result.render())
    gaps = result.advantage("cu-udp-edf-vd", "ca-nosort-f-f-edf-vd")
    print()
    print(
        "UDP advantage per squeeze ratio: "
        + ", ".join(f"{g:+.3f}" for g in gaps)
    )
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "check": _cmd_check,
    "partition": _cmd_partition,
    "simulate": _cmd_simulate,
    "figure": _cmd_figure,
    "campaign": _cmd_campaign,
    "status": _cmd_status,
    "report": _cmd_report,
    "trace": _cmd_trace,
    "sensitivity": _cmd_sensitivity,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # stdout went away mid-print (e.g. `repro status ... | head`);
        # detach it so the interpreter's shutdown flush can't raise too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
