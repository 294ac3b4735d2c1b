"""Command-line interface: ``python -m repro`` / ``repro``.

Subcommands::

    repro list                      # list all experiments
    repro run table2 fig7 ...       # run selected experiments
    repro run all                   # run every table and figure
    repro run --pairs 4             # characterize the first N REF pairs
    repro pair 505.mcf_r            # characterize one application (ref)
    repro trace summarize t.jsonl   # per-stage breakdown of a trace file
    repro trace export t.jsonl      # Perfetto/chrome://tracing timeline
    repro trace critical-path t.jsonl   # longest dependency chain
    repro trace utilization t.jsonl     # per-worker busy/idle/stall
    repro lint src/                 # run the repo's static-analysis pass
    repro obs history               # past sweeps from the run ledger
    repro obs diff -2 -1            # per-characteristic deltas, run to run
    repro obs check                 # drift + paper-fidelity gate (CI)

The sweep options (``--sample-ops``, ``--jobs``, ``--no-cache``,
``--cache-dir``, ``--engine``) and the observability options (``--trace``,
``--metrics``) are accepted both before and after the subcommand:
``repro --jobs 4 run all`` and ``repro run all --jobs 4`` are equivalent,
with the subcommand position winning when both are given.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from typing import List, Optional

from .. import __version__, obs
from ..errors import ReproError, SimulationError
from ..perf.session import DEFAULT_SAMPLE_OPS
from ..runner import SuiteRunner
from ..uarch.core import ENGINES
from ..workloads.profile import InputSize
from ..workloads.spec2017 import cpu2017
from .experiments import (
    EXPERIMENT_IDS,
    ExperimentContext,
    list_experiments,
    run_experiment,
)

#: Subcommands that run sweeps and therefore accept the shared options.
_SWEEP_COMMANDS = ("run", "pair", "phases")


def _sweep_parent(top_level: bool) -> argparse.ArgumentParser:
    """The shared ``--jobs``/``--cache-dir``/... option group.

    Instantiated once with real defaults for the top-level parser and once
    per sweep subcommand with ``SUPPRESS`` defaults: a subcommand copy only
    writes into the namespace when the flag is explicitly present, so it
    overrides the top-level value without clobbering it with a default.
    """
    def default(value):
        return value if top_level else argparse.SUPPRESS

    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("sweep options")
    group.add_argument(
        "--sample-ops",
        type=int,
        default=default(DEFAULT_SAMPLE_OPS),
        help="simulated micro-ops per pair (default %s)" % DEFAULT_SAMPLE_OPS,
    )
    group.add_argument(
        "--jobs", "-j",
        type=int,
        default=default(None),
        metavar="N",
        help="worker processes for characterization sweeps "
             "(default: CPU count)",
    )
    group.add_argument(
        "--no-cache",
        action="store_true",
        default=default(False),
        help="bypass the on-disk result cache (read and write)",
    )
    group.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=default(None),
        help="result-cache directory (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro)",
    )
    group.add_argument(
        "--engine",
        choices=list(ENGINES),
        default=default("auto"),
        help="trace-execution engine: the op-loop reference ('scalar'), "
             "the batched numpy fast path ('vector'), or pick the fast "
             "path whenever it is exact ('auto', default)",
    )
    group = parent.add_argument_group("observability options")
    group.add_argument(
        "--trace",
        metavar="FILE",
        default=default(None),
        help="record the span tree to FILE as JSON Lines "
             "(see 'repro trace summarize')",
    )
    group.add_argument(
        "--metrics",
        action="store_true",
        default=default(False),
        help="collect metrics and print a Prometheus-format dump on exit",
    )
    group.add_argument(
        "--profile-stage",
        action="append",
        metavar="STAGE",
        default=default(None),
        help="activate the span-scoped profiler inside this span stage "
             "(e.g. engine.exec; repeatable); prints a top-N function "
             "table on exit",
    )
    group.add_argument(
        "--profile-out",
        metavar="FILE",
        default=default(None),
        help="write the profile as collapsed stacks (flamegraph.pl "
             "format) to FILE",
    )
    return parent


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of the SPEC CPU2017 workload "
                    "characterization (ISPASS 2018)",
        parents=[_sweep_parent(top_level=True)],
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments")

    run = subparsers.add_parser(
        "run", help="run experiments",
        parents=[_sweep_parent(top_level=False)],
    )
    run.add_argument("experiments", nargs="*",
                     help="experiment ids, or 'all'")
    run.add_argument("--output", metavar="DIR", default=None,
                     help="also write text + CSV artifacts to DIR")
    run.add_argument(
        "--pairs", type=int, default=None, metavar="N",
        help="instead of experiments: characterize the first N CPU2017 "
             "REF pairs and print the run manifest",
    )

    pair = subparsers.add_parser(
        "pair", help="characterize one application",
        parents=[_sweep_parent(top_level=False)],
    )
    pair.add_argument("name", help="benchmark name, e.g. 505.mcf_r")
    pair.add_argument("--size", default="ref", choices=["test", "train", "ref"])
    pair.add_argument("--input", type=int, default=0, help="input index")

    phases = subparsers.add_parser(
        "phases",
        help="detect phases in a phased variant of one application "
             "(the paper's future work)",
        parents=[_sweep_parent(top_level=False)],
    )
    phases.add_argument("name", help="benchmark name, e.g. 502.gcc_r")
    phases.add_argument(
        "--kinds", default="compute,memory,branchy",
        help="comma-separated phase kinds (compute/memory/branchy/base)",
    )
    phases.add_argument("--segments", type=int, default=24,
                        help="schedule segments (default %(default)s)")

    trace = subparsers.add_parser(
        "trace",
        help="inspect trace files recorded with --trace",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize",
        help="per-stage time breakdown of a JSONL trace file",
    )
    summarize.add_argument("file", help="trace file written by --trace")
    summarize.add_argument(
        "--tree", action="store_true",
        help="also print the span tree itself",
    )

    export = trace_sub.add_parser(
        "export",
        help="convert a trace to a visual timeline "
             "(load in ui.perfetto.dev or chrome://tracing)",
    )
    export.add_argument("file", help="trace file written by --trace")
    export.add_argument(
        "--format", choices=["chrome"], default="chrome",
        help="output format (default %(default)s)",
    )
    export.add_argument(
        "--output", "-o", metavar="FILE", default=None,
        help="output path (default: <file>.chrome.json)",
    )

    crit = trace_sub.add_parser(
        "critical-path",
        help="the longest dependency chain through the span tree, with "
             "per-stage self-time shares",
    )
    crit.add_argument("file", help="trace file written by --trace")
    crit.add_argument(
        "--segments", type=int, default=40, metavar="N",
        help="show at most N chain segments (default %(default)s)",
    )

    util = trace_sub.add_parser(
        "utilization",
        help="per-worker busy/idle/stall intervals from pair spans",
    )
    util.add_argument("file", help="trace file written by --trace")

    lint = subparsers.add_parser(
        "lint",
        help="run the repro static-analysis pass "
             "(exit 1 on findings, 2 on parse/internal failure)",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text",
        help="report format (default %(default)s)",
    )
    lint.add_argument(
        "--output", metavar="PATH", default=None,
        help="write the report to a file instead of stdout",
    )
    lint.add_argument(
        "--select", metavar="RULES", default=None,
        help="comma-separated rule/analyzer ids to run "
             "(default: all registered)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and analyzers, then exit",
    )

    obs_cmd = subparsers.add_parser(
        "obs",
        help="inspect the run ledger and gate on the drift watchdog",
    )
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)

    def ledger_flag(sub):
        sub.add_argument(
            "--ledger", metavar="PATH", default=None,
            help="ledger file (default: $REPRO_LEDGER or "
                 "<cache dir>/ledger.jsonl)",
        )

    history = obs_sub.add_parser(
        "history", help="list the sweeps recorded in the run ledger",
    )
    ledger_flag(history)
    history.add_argument(
        "--limit", type=int, default=20, metavar="N",
        help="show at most the newest N runs (default %(default)s)",
    )

    diff = obs_sub.add_parser(
        "diff",
        help="per-pair characteristic deltas between two ledger runs",
    )
    ledger_flag(diff)
    diff.add_argument(
        "run_a",
        help="run_id prefix or history index (-1 = newest, 0 = oldest)",
    )
    diff.add_argument("run_b", help="second run, same forms as the first")
    diff.add_argument(
        "--threshold", type=float, default=0.01, metavar="REL",
        help="report characteristics whose relative change exceeds REL "
             "(default %(default)s)",
    )

    check = obs_sub.add_parser(
        "check",
        help="score the newest run against ledger history and the "
             "paper anchors; exit 1 on findings (the CI gate)",
    )
    ledger_flag(check)
    check.add_argument(
        "--robust-z", type=float, default=None, metavar="Z",
        help="modified z-score threshold of the drift check",
    )
    check.add_argument(
        "--paper-rtol", type=float, default=None, metavar="REL",
        help="relative tolerance of the paper-anchor fidelity check",
    )
    check.add_argument(
        "--fail-on-wall", action="store_true",
        help="escalate wall-time outliers from warnings to failures",
    )
    check.add_argument(
        "--metrics", action="store_true",
        help="also print the watchdog scores as Prometheus metrics",
    )
    return parser


def _cmd_list() -> int:
    for exp_id, title in list_experiments():
        print("%-8s %s" % (exp_id, title))
    return 0


def _make_runner(args, workers: Optional[int] = None) -> SuiteRunner:
    return SuiteRunner(
        sample_ops=args.sample_ops,
        workers=workers if workers is not None else args.jobs,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        engine=args.engine,
    )


def _cmd_run_pairs(args) -> int:
    """``repro run --pairs N`` — characterize the first N REF pairs."""
    if args.pairs < 1:
        raise SimulationError("--pairs must be >= 1, got %d" % args.pairs)
    profiles = cpu2017().pairs(size=InputSize.REF)[: args.pairs]
    runner = _make_runner(args)
    result = runner.run(profiles)
    for record in result.manifest.records:
        status = "cached" if record.cached else (
            "FAILED(%s)" % record.error if record.failed else "simulated"
        )
        print("%-28s %-10s %6.2fs" % (record.pair_name, status, record.seconds))
    print(result.manifest.summary())
    return 1 if result.failures else 0


def _cmd_run(args) -> int:
    if args.pairs is not None:
        if args.experiments:
            raise SimulationError(
                "--pairs and experiment ids are mutually exclusive"
            )
        return _cmd_run_pairs(args)
    if not args.experiments:
        raise SimulationError(
            "nothing to run: give experiment ids, 'all', or --pairs N"
        )
    wanted: List[str] = args.experiments
    if wanted == ["all"]:
        wanted = list(EXPERIMENT_IDS)
    runner = _make_runner(args)
    ctx = ExperimentContext(runner=runner)
    for exp_id in wanted:
        result = run_experiment(exp_id, ctx)
        print(result)
        print()
        if args.output:
            # Only here: a run without --output loads no CSV writer.
            from .export import export_result

            for path in export_result(result, args.output):
                print("wrote %s" % path)
            print()
    print(
        "suite runner: %d pairs cached, %d simulated (%d workers)"
        % (runner.total_cache_hits, runner.total_cache_misses, runner.workers),
        file=sys.stderr,
    )
    return 0


def _cmd_pair(args) -> int:
    suite = cpu2017()
    benchmark = suite.get(args.name)
    profile = benchmark.profile(InputSize(args.size), args.input)
    result = _make_runner(args, workers=1).run([profile])
    if result.failures:
        failure = result.failures[0]
        raise SimulationError(
            "%s failed after %d attempt(s): %s"
            % (failure.pair_name, failure.attempts, failure.message)
        )
    report = result.report(profile.pair_name)
    print("pair: %s" % profile.pair_name)
    print("  IPC               %.3f" % report.ipc)
    print("  loads / stores    %.2f%% / %.2f%%" % (report.load_pct, report.store_pct))
    print("  branches          %.2f%%" % report.branch_pct)
    m1, m2, m3 = report.miss_rates
    print("  L1/L2/L3 miss     %.2f%% / %.2f%% / %.2f%%"
          % (100 * m1, 100 * m2, 100 * m3))
    print("  mispredict rate   %.2f%%" % (100 * report.mispredict_rate))
    print("  RSS / VSZ         %.3f / %.3f GiB"
          % (report.rss_bytes / 2**30, report.vsz_bytes / 2**30))
    print("  wall time         %.1f s" % report.wall_time_seconds)
    return 0


def _cmd_lint(args) -> int:
    """Both lint tiers.  Exit 0 clean, 1 findings, 2 parse/internal."""
    from pathlib import Path

    from ..errors import LintError
    from ..lint import active_rules, all_analyzers, render, run_lint

    if args.list_rules:
        for rule in active_rules():
            print("%s  [file]     %s" % (rule.rule_id, rule.summary))
        for analyzer in all_analyzers():
            print("%s  [project]  %s"
                  % (analyzer.analyzer_id, analyzer.summary))
        return 0
    selected = None
    if args.select:
        selected = [
            rule.strip() for rule in args.select.split(",") if rule.strip()
        ]
    try:
        run = run_lint(args.paths, select=selected)
    except LintError as error:
        print("lint error: %s" % error, file=sys.stderr)
        return 2
    report = render(run.findings, args.format)
    if args.output:
        Path(args.output).write_text(report + "\n", encoding="utf-8")
        print("wrote %s report to %s" % (args.format, args.output),
              file=sys.stderr)
    else:
        print(report)
    if run.parse_failures:
        return 2
    return 1 if run.findings else 0


def _cmd_obs(args) -> int:
    import dataclasses

    from ..obs import DriftThresholds, MetricsRegistry, RunLedger, check_ledger
    from ..obs.ledger import diff_runs, render_history

    ledger = RunLedger(path=args.ledger)
    if args.obs_command == "history":
        runs = ledger.runs()
        if not runs:
            print("ledger %s holds no runs" % ledger.path)
            return 0
        print(render_history(runs, limit=args.limit))
        return 0
    if args.obs_command == "diff":
        runs = ledger.runs()
        run_a = ledger.resolve(args.run_a, runs)
        run_b = ledger.resolve(args.run_b, runs)
        print("diff %s -> %s" % (run_a.get("run_id"), run_b.get("run_id")))
        lines = diff_runs(run_a, run_b, threshold=args.threshold)
        if not lines:
            print(
                "no characteristic moved more than %g relative"
                % args.threshold
            )
            return 0
        for line in lines:
            print(line)
        return 0
    # check: the CI gate.  An empty ledger is healthy (nothing to score).
    overrides = {}
    if args.robust_z is not None:
        overrides["robust_z"] = args.robust_z
    if args.paper_rtol is not None:
        overrides["paper_rtol"] = args.paper_rtol
    if args.fail_on_wall:
        overrides["fail_on_wall"] = True
    thresholds = (
        dataclasses.replace(DriftThresholds(), **overrides)
        if overrides else None
    )
    registry = MetricsRegistry() if args.metrics else None
    report = check_ledger(ledger, thresholds=thresholds, registry=registry)
    if report is None:
        print("ledger %s holds no runs; nothing to check" % ledger.path)
        return 0
    print(report.render())
    if registry is not None:
        print(registry.to_prometheus(), end="")
    return 0 if report.ok else 1


def _cmd_phases(args) -> int:
    from ..config import haswell_e5_2650l_v3
    from ..phases import (
        PhaseDetector,
        PhasedTraceGenerator,
        PhasedWorkload,
        Schedule,
        estimate_from_simulation_points,
        make_phases,
    )
    from ..uarch.core import SimulatedCore

    config = haswell_e5_2650l_v3()
    base = cpu2017().get(args.name).profile(InputSize.REF)
    kinds = [kind.strip() for kind in args.kinds.split(",") if kind.strip()]
    workload = PhasedWorkload(
        "%s (phased)" % args.name,
        make_phases(base, kinds),
        Schedule.round_robin(len(kinds), 6_000, args.segments),
    )
    phased = PhasedTraceGenerator(config).generate(workload)
    analysis = PhaseDetector(interval_ops=2_000).analyze(phased.trace)
    core = SimulatedCore(config)
    full = core.run(phased.trace)
    estimate = estimate_from_simulation_points(core, phased.trace, analysis)
    print("workload: %s (%d true phases, %d ops)"
          % (workload.name, workload.n_phases, phased.n_ops))
    print("detected phases: %d; weights: %s"
          % (analysis.n_phases,
             ", ".join("%.2f" % w for w in analysis.weights)))
    print("full-run IPC %.3f vs simulation-point estimate %.3f "
          "(%.1f%% of the trace simulated)"
          % (full.ipc, estimate["ipc"],
             100 * estimate["simulated_fraction"]))
    return 0


def _cmd_trace(args) -> int:
    from ..obs import (
        TraceFileError,
        chrome_trace,
        critical_path,
        load_spans,
        render_table,
        render_tree,
        summarize_spans,
        utilization,
    )

    spans = load_spans(args.file)
    if not spans:
        # An empty (or spans-free) file is a valid state — a sweep that
        # recorded nothing — not an error: say so and exit clean.
        print("no spans in %s" % args.file)
        return 0
    if args.trace_command == "summarize":
        summary = summarize_spans(spans)
        print(render_table(summary))
        if args.tree:
            print()
            print(render_tree(summary))
        return 0
    if args.trace_command == "export":
        output = args.output or (args.file + ".chrome.json")
        document = chrome_trace(spans)
        try:
            with open(output, "w", encoding="utf-8") as handle:
                json.dump(document, handle, sort_keys=True)
                handle.write("\n")
        except OSError as error:
            raise TraceFileError(
                "cannot write %s: %s" % (output, error)
            ) from error
        other = document["otherData"]
        print(
            "wrote %s: %d events over %d span(s), %d worker track(s)"
            % (output, len(document["traceEvents"]), other["spans"],
               len(other["workers"]))
        )
        return 0
    if args.trace_command == "critical-path":
        print(critical_path(spans).render(limit=args.segments))
        return 0
    # utilization
    print(utilization(spans).render())
    return 0


def _warning_line(message, category, filename, lineno, line=None) -> str:
    """A warning as the CLI prints it: one ``warning:`` line, like an
    ``error:`` line, with no library source line echoed."""
    return "warning: %s\n" % message


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    trace_path = getattr(args, "trace", None)
    metrics = getattr(args, "metrics", False)
    profile_stages = tuple(getattr(args, "profile_stage", None) or ())
    profile_out = getattr(args, "profile_out", None)
    if profile_out and not profile_stages:
        # The profiler runs only inside --profile-stage stages; without
        # one there is no profile to write.
        print("error: --profile-out requires --profile-stage",
              file=sys.stderr)
        return 1
    obs_on = (
        args.command in _SWEEP_COMMANDS
        and (trace_path or metrics or profile_stages)
    )
    status = 1
    format_warning = warnings.formatwarning
    warnings.formatwarning = _warning_line
    try:
        # Inside the try: an unwritable --trace path is an ObsError.
        if obs_on:
            obs.enable(
                trace_path=trace_path, metrics=True,
                profile_stages=profile_stages,
            )
        if args.command == "list":
            status = _cmd_list()
        elif args.command == "run":
            status = _cmd_run(args)
        elif args.command == "pair":
            status = _cmd_pair(args)
        elif args.command == "phases":
            status = _cmd_phases(args)
        elif args.command == "trace":
            status = _cmd_trace(args)
        elif args.command == "lint":
            status = _cmd_lint(args)
        elif args.command == "obs":
            status = _cmd_obs(args)
    except ReproError as error:
        print("error: %s" % error, file=sys.stderr)
    finally:
        warnings.formatwarning = format_warning
        if obs_on and obs.enabled():
            if metrics:
                registry = obs.registry()
                if registry is not None:
                    print(registry.to_prometheus(), end="")
            profiler = obs.active_profiler()
            if profiler is not None:
                from ..obs.profiler import render_collapsed, render_top

                data = profiler.data()
                print(render_top(data))
                if profile_out:
                    text = render_collapsed(data)
                    try:
                        with open(profile_out, "w", encoding="utf-8") as handle:
                            handle.write(text + "\n" if text else "")
                    except OSError as error:
                        print("error: cannot write %s: %s"
                              % (profile_out, error), file=sys.stderr)
                        status = 1
                    else:
                        print("wrote collapsed stacks to %s" % profile_out,
                              file=sys.stderr)
            if trace_path:
                print("wrote trace to %s" % trace_path, file=sys.stderr)
            obs.disable()
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
