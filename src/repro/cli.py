"""Command-line entry point: regenerate paper tables and figures.

Usage::

    rcoal list                     # show available experiments
    rcoal fig06                    # regenerate Fig 6
    rcoal fig15 --samples 40       # smaller run
    rcoal fig07 -j 4               # fan samples out over 4 processes
    rcoal all                      # regenerate everything (slow)
    rcoal all -j 8                 # parallel, byte-identical output

Observability subcommands (see ``docs/observability.md``)::

    rcoal trace fig05 --out trace.json    # Chrome trace_event JSON
    rcoal metrics fig05                   # metrics snapshot table
    rcoal metrics fig05 --check BASELINE_METRICS.json   # regression gate
    rcoal serve fig07 --port 8000 -j 2    # live dashboard while running
    rcoal fig07 --serve 8000              # same, riding on a normal run
    rcoal profile fig05                   # sim-cycle cost centers + wall spans
    rcoal fig07 -j 4 --profile            # wall-clock span table on stderr

Resilience (see ``docs/robustness.md``)::

    rcoal fig07 --resume runs/f7          # checkpoint; rerun to resume
    rcoal all -j 8 --resume runs/all      # per-experiment checkpoints
    rcoal fig07 -j 4 --supervise          # deadlines, retries, quarantine
    rcoal fig07 --supervise --faults raise@3   # deterministic chaos

Campaign status (the run-ledger surface; docs/observability.md)::

    rcoal status runs/f7                  # restored/remaining, latency
    rcoal status runs/all --json          # machine-readable manifest
    rcoal status runs/f7 --watch 2        # live, redrawn every 2 s
    rcoal status runs/f7 --gc             # drop superseded chunks,
                                          # compact the ledger

Sharded execution (coordinator-free multi-worker; docs/robustness.md)::

    rcoal shard runs/all &                # start any number of these —
    rcoal shard runs/all &                # same dir, same args; they
    rcoal shard runs/all                  # split the work via leases
    rcoal shard runs/f7 fig07             # shard a single experiment
    rcoal status runs/all --watch 2       # who holds which lease

Every worker's stdout is byte-identical to the serial run's; kill any
of them (even ``kill -9``) and the survivors reclaim its lease and
finish the campaign.

Every command that runs experiments parses its flags, hands them to
one run loop (:func:`_run`) and adds only the report it prints after
the run; ``metrics`` and ``profile`` share one baseline gate.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
import time
from typing import List, Optional

from repro.aes.key_schedule import NUM_ROUNDS
from repro.errors import (
    CheckpointMismatchError,
    ConfigurationError,
    ExperimentError,
    ReproError,
)
from repro.experiments.base import ExperimentContext
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.telemetry import ProgressBoard, Telemetry, configure_logging

__all__ = ["main"]

# ---------------------------------------------------------------------------
# Exit codes — the single place the error-class → exit-code mapping lives.
# Scripts and CI assert on these; keep docs/robustness.md in sync.
# ---------------------------------------------------------------------------

EXIT_OK = 0
EXIT_FAILURE = 1        # unexpected repro error; also metrics drift
EXIT_USAGE = 2          # argparse's own code for bad flags, listed for docs
EXIT_CONFIG = 3         # invalid configuration (unknown experiment, bad plan)
EXIT_CHECKPOINT = 4     # --resume directory belongs to another campaign
EXIT_WORKER = 5         # worker crash/timeout escaped the retry budget
EXIT_QUARANTINE = 6     # run completed but samples were quarantined
EXIT_INTERRUPT = 130    # Ctrl-C (128 + SIGINT, shell convention)

#: First matching class wins — ordered most-specific first.
EXIT_BY_ERROR = (
    (CheckpointMismatchError, EXIT_CHECKPOINT),
    (ExperimentError, EXIT_WORKER),
    (ConfigurationError, EXIT_CONFIG),
    (ReproError, EXIT_FAILURE),
)

_NO_TRACE_WARNING = ("warning: no trace events recorded (counts-only "
                     "experiments skip the timing simulator)")


def _add_seed_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=2018,
                        help="root experiment seed (default 2018)")
    parser.add_argument("--samples", type=int, default=None,
                        help="override plaintext sample count")


def _add_common_arguments(parser: argparse.ArgumentParser,
                          profile: bool = True) -> None:
    """Seed, ``-j``, ``-v`` and ``--progress``; and ``--profile`` unless
    ``profile`` is off (``rcoal profile`` always profiles)."""
    _add_seed_arguments(parser)
    parser.add_argument("-j", "--jobs", type=int, default=1,
                        help="worker processes (0 = one per CPU); results "
                             "are bit-identical to -j 1")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="enable repro.* logging on stderr "
                             "(-v info, -vv debug)")
    parser.add_argument("--progress", action="store_true",
                        help="per-sample ETA reporting on stderr")
    if not profile:
        return
    parser.add_argument("--profile", action="store_true",
                        help="collect wall-clock span profiling for the "
                             "run and print the span table on stderr; "
                             "stdout stays bit-identical (see 'rcoal "
                             "profile' for the sim-cycle cost-center "
                             "profiler)")


def _add_resilience_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "resilience", "checkpoint/resume and worker supervision "
        "(docs/robustness.md); all off by default — an unflagged run is "
        "byte-identical to earlier releases")
    group.add_argument("--resume", metavar="DIR", default=None,
                       help="checkpoint completed samples under DIR and "
                            "skip them on rerun; a resumed campaign "
                            "reproduces the uninterrupted output byte for "
                            "byte ('all' uses DIR/<experiment>)")
    group.add_argument("--supervise", action="store_true",
                       help="supervise workers: per-chunk deadlines, "
                            "capped-backoff retries, poison-sample "
                            "quarantine, degradation to serial when the "
                            "pool keeps dying")
    group.add_argument("--chunk-deadline", type=float, metavar="SECONDS",
                       default=None,
                       help="wall-clock deadline per worker chunk "
                            "(implies --supervise; default 300)")
    group.add_argument("--max-attempts", type=int, metavar="N", default=None,
                       help="attempts per work item before it is split / "
                            "quarantined (implies --supervise; default 3)")
    group.add_argument("--faults", metavar="PLAN", default=None,
                       help="inject deterministic faults, e.g. "
                            "'raise@3,hang@0x*,torn@out.json' "
                            "(chaos testing; see repro.faults)")


def _add_export_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--csv", metavar="PATH", default=None,
                        help="also write the result rows as CSV "
                             "(experiment id is appended for 'all')")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the result as JSON")


def _fault_fields(args) -> dict:
    """The ``ExperimentContext`` field of a ``--faults`` plan, if any."""
    if not args.faults:
        return {}
    from repro.faults import install_plan, parse_fault_plan
    plan = parse_fault_plan(args.faults)
    install_plan(plan)  # arms write-site (torn) faults in this process
    return {"faults": plan}


def _resilience_fields(args) -> dict:
    """``ExperimentContext`` fields for the resilience flags.

    Empty when no flag is set, so the default path builds the exact same
    context as before.
    """
    supervised = (args.supervise or args.chunk_deadline is not None
                  or args.max_attempts is not None)
    if not (supervised or args.resume or args.faults):
        return {}
    from repro.experiments.runner import CampaignStats, SupervisionPolicy
    fields: dict = {"campaign": CampaignStats()}
    if supervised:
        overrides = {}
        if args.chunk_deadline is not None:
            overrides["chunk_deadline"] = args.chunk_deadline
        if args.max_attempts is not None:
            overrides["max_attempts"] = args.max_attempts
        fields["supervision"] = SupervisionPolicy(**overrides).validate()
    fields.update(_fault_fields(args))
    return fields


def _open_store(resume_dir: str, experiment_id: str, ctx, multiple: bool):
    """Open (or validate) the checkpoint store for one experiment."""
    from repro.experiments.checkpoint import (
        CheckpointStore,
        campaign_fingerprint,
    )
    run_dir = os.path.join(resume_dir, experiment_id) if multiple \
        else resume_dir
    return CheckpointStore.open(
        run_dir, campaign_fingerprint(experiment_id, ctx, ctx.instrumented))


def _finish_campaign(campaign) -> int:
    """Summarize supervision incidents; exit 6 when samples were lost."""
    if campaign is None or not campaign.eventful():
        return EXIT_OK
    print(f"[campaign: {campaign.summary()}]", file=sys.stderr)
    if campaign.failed_samples:
        for entry in campaign.failed_samples:
            print(f"  quarantined sample {entry['sample']} "
                  f"({entry['phase']}): {entry['error']}", file=sys.stderr)
        return EXIT_QUARANTINE
    return EXIT_OK


def _emit_profile_summary(telemetry) -> None:
    """Wall-clock span table on stderr (stdout stays diff-clean)."""
    if telemetry is None or not telemetry.profiler.enabled \
            or len(telemetry.profiler) == 0:
        return
    print("== wall-clock profile ==", file=sys.stderr)
    print(telemetry.profiler.render_table(), file=sys.stderr)


def _add_serve_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--serve", metavar="PORT", default=None,
                        help="serve a live telemetry dashboard + JSON API "
                             "on PORT (or HOST:PORT) for the duration of "
                             "the run; results stay bit-identical "
                             "(see docs/observability.md)")


def _start_server(spec: str, telemetry, campaign_dir=None):
    """Start the --serve sink; prints the dashboard URL to stderr.

    ``campaign_dir`` (the run's ``--resume`` directory, when it has one)
    lights up the ``/campaign`` endpoint and the ledger-staleness check
    in ``/health``.
    """
    from repro.telemetry.serve import TelemetryServer, parse_serve_spec
    host, port = parse_serve_spec(spec)
    server = TelemetryServer(telemetry, host=host, port=port,
                             campaign_dir=campaign_dir).start()
    print(f"[serving live telemetry at {server.url}]", file=sys.stderr)
    return server


def _telemetry(serve, profile: bool, capacity: int = 500_000) -> Telemetry:
    """An enabled sink for one run; a ``serve`` dashboard gets a board."""
    return Telemetry(trace_capacity=capacity, profile=profile,
                     board=ProgressBoard() if serve else None)


def _run(args, ids: List[str], telemetry=None, *, shard=None, serve=None,
         linger: bool = False, blank_line: bool = True,
         wall_table: bool = True, chart=None, csv=None, json=None,
         report=None) -> int:
    """Run experiments ``ids`` in order: the run loop of every command.

    The context takes the seed, sample, progress, ``-j`` and resilience
    flags of ``args``, or a ``shard`` worker's policy and ``--faults``;
    each experiment's checkpoint store lives under ``--resume`` (a
    worker's under its DIR). Serves ``telemetry`` on ``serve`` (with
    ``linger``, until Ctrl-C); prints each result, its stderr footer, a
    blank line unless ``blank_line`` is off, and the chart/CSV/JSON
    outputs; then the --profile table unless ``wall_table`` is off.
    ``report()`` prints the command's own output; a non-zero code it
    returns (drift) wins over the campaign's.
    """
    if shard is None:
        store_dir = args.resume
        fields = dict(jobs=args.jobs, **_resilience_fields(args))
    else:
        # No CampaignStats: a worker exits 0, with no summary, once the
        # campaign is drained, whatever its peers restored or retried.
        store_dir = args.dir
        fields = dict(shard=shard, **_fault_fields(args))
    ctx = ExperimentContext(root_seed=args.seed, samples=args.samples,
                            telemetry=telemetry, progress=args.progress,
                            **fields)
    multiple = len(ids) > 1

    server = (_start_server(serve, telemetry, campaign_dir=store_dir)
              if serve else contextlib.nullcontext())
    with server:
        # An `all --resume` campaign gets a root-level ledger over the
        # per-experiment run dirs: experiment start/finish marks written
        # by the parent (the per-phase detail lives in each run dir's own
        # ledger). `rcoal status <root>` folds both levels. Shard workers
        # share DIR and leave its root alone.
        campaign_journal = None
        if store_dir and multiple and shard is None:
            from repro.telemetry.journal import JOURNAL_NAME, RunJournal
            campaign_journal = RunJournal(
                os.path.join(store_dir, JOURNAL_NAME))

        batch_start = time.time()

        def _publish_batch(done: int) -> None:
            # The dashboard's only whole-campaign progress row (the phase
            # executor publishes one row per phase); --profile alone has
            # no board to publish to.
            if telemetry is None or telemetry.board is None \
                    or not multiple:
                return
            telemetry.board.publish("experiments", done, len(ids),
                                    time.time() - batch_start,
                                    state="done" if done >= len(ids)
                                    else "running")

        try:
            _publish_batch(0)
            # Experiments run in order; -j spreads each phase's samples
            # over the pool, so `all -j N` takes the path `fig07 -j N`
            # does.
            for done, experiment_id in enumerate(ids, 1):
                run_ctx = ctx
                if store_dir:
                    run_ctx = ctx.with_(checkpoint=_open_store(
                        store_dir, experiment_id, ctx, multiple=multiple))
                if campaign_journal is not None:
                    campaign_journal.append("experiment_start",
                                            experiment=experiment_id)
                start = time.time()
                result = run_experiment(experiment_id, run_ctx)
                seconds = time.time() - start
                if campaign_journal is not None:
                    campaign_journal.append("experiment_finish",
                                            experiment=experiment_id,
                                            seconds=round(seconds, 6))
                print(result.render())
                if chart is not None:
                    from repro.experiments.charts import result_chart
                    print()
                    print(result_chart(result, column=chart))
                # stderr, so stdout diffs clean across runs and -j
                # settings (CI diffs them) and a shard worker's matches
                # the serial run's.
                print(f"[{experiment_id} completed in {seconds:.1f}s]",
                      file=sys.stderr)
                if blank_line:
                    print()
                if csv:
                    from repro.experiments.export import write_csv
                    target = (f"{csv}.{experiment_id}.csv" if multiple
                              else csv)
                    print(f"[csv written to {write_csv(result, target)}]")
                if json:
                    from repro.experiments.export import write_json
                    target = (f"{json}.{experiment_id}.json" if multiple
                              else json)
                    print(f"[json written to {write_json(result, target)}]")
                _publish_batch(done)
        finally:
            if wall_table:
                _emit_profile_summary(telemetry)
        if linger:
            print(f"[run complete; dashboard still live at {server.url} "
                  f"— Ctrl-C to exit]", file=sys.stderr)
            try:
                while True:
                    time.sleep(0.5)
            except KeyboardInterrupt:
                pass

    code = report() if report is not None else EXIT_OK
    return code or _finish_campaign(ctx.campaign)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcoal",
        description="RCoal (HPCA 2018) reproduction: regenerate paper "
                    "tables and figures on the simulated GPU. "
                    "Subcommands: 'trace', 'metrics', 'serve' and "
                    "'profile' run one experiment under an observer, "
                    "'status' reports a --resume campaign and 'shard' "
                    "drains one with other workers "
                    "(see rcoal <subcommand> --help).",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (e.g. fig06, table2), 'all', or 'list'",
    )
    _add_common_arguments(parser)
    _add_serve_argument(parser)
    _add_resilience_arguments(parser)
    _add_export_arguments(parser)
    parser.add_argument("--chart", type=int, metavar="COLUMN", default=None,
                        help="also render column COLUMN (1-based after the "
                             "x column) as an ASCII bar chart")
    return parser


def _run_experiment_command(argv: List[str]) -> int:
    args = _build_parser().parse_args(argv)
    configure_logging(args.verbose)

    if args.experiment == "list":
        for experiment_id in sorted(EXPERIMENTS):
            print(experiment_id)
        return 0

    ids = sorted(EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    telemetry = (_telemetry(args.serve, args.profile)
                 if args.serve or args.profile else None)
    return _run(args, ids, telemetry, serve=args.serve, chart=args.chart,
                csv=args.csv, json=args.json)


def _build_telemetry_parser(command: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=f"rcoal {command}",
        description=(
            "Run one experiment with event tracing enabled and export a "
            "Chrome trace_event JSON (open in chrome://tracing or "
            "https://ui.perfetto.dev)." if command == "trace" else
            "Run one experiment with metrics enabled and print the "
            "counter/gauge/histogram snapshot."
        ),
    )
    parser.add_argument("experiment",
                        help="experiment id (e.g. fig05, fig06)")
    _add_common_arguments(parser)
    _add_serve_argument(parser)
    _add_resilience_arguments(parser)
    if command == "trace":
        parser.add_argument("--out", metavar="PATH", default="trace.json",
                            help="Chrome trace output path "
                                 "(default trace.json)")
        parser.add_argument("--jsonl", metavar="PATH", default=None,
                            help="also write events as JSONL")
        parser.add_argument("--capacity", type=int, default=500_000,
                            help="trace ring-buffer capacity in events "
                                 "(default 500000; oldest evicted)")
    else:
        parser.add_argument("--json", metavar="PATH", default=None,
                            help="also write the metrics snapshot as JSON")
        _add_baseline_arguments(parser, "metrics snapshot")
    return parser


def _add_baseline_arguments(parser: argparse.ArgumentParser,
                            gated: str) -> None:
    parser.add_argument("--check", metavar="BASELINE", default=None,
                        help=f"compare the {gated} against a committed "
                             f"baseline; exit 1 on drift")
    parser.add_argument("--write-baseline", metavar="BASELINE",
                        dest="write_baseline", default=None,
                        help=f"record/refresh this experiment's {gated} "
                             f"in a baseline file (keep metrics and "
                             f"profile baselines in separate files)")
    parser.add_argument("--tolerance", type=float, default=0.0,
                        help="relative tolerance for --check numeric "
                             "comparisons (default 0.0: exact — the "
                             "simulator is deterministic)")


def _baseline_context(args) -> dict:
    """What a metrics baseline depends on (jobs excluded: bit-identical)."""
    return {
        "experiment": args.experiment,
        "seed": args.seed,
        "samples": args.samples,
        "repro_fast": os.environ.get("REPRO_FAST") or None,
        "repro_samples": os.environ.get("REPRO_SAMPLES") or None,
    }


def _baseline_gate(args, written: str, drifted: str, matched: str):
    """The ``--check``/``--write-baseline`` gate of ``metrics`` and
    ``profile``. Before the run, an impossible ``--tolerance``, an
    unusable ``--check`` file or one without the experiment's entry exits
    3 (a file this run writes is read after writing it). Returns
    ``gate(context, section)``: write, then check, exit 1 on drift; the
    three names say what is gated in its written note, drift report and
    match note."""
    from repro.telemetry.baseline import (
        baseline_entry,
        check_against_baseline,
        load_baseline,
        update_baseline,
    )
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        raise ConfigurationError(
            f"impossible tolerance: --tolerance must be finite and "
            f"non-negative, got {args.tolerance}")
    baseline = None
    if args.check is not None and args.check != args.write_baseline:
        baseline = load_baseline(args.check)
        baseline_entry(baseline, args.check, args.experiment)

    def gate(context: dict, section: dict) -> int:
        if args.write_baseline:
            path = update_baseline(args.write_baseline, args.experiment,
                                   context, section)
            print(f"[{written} baseline written to {path}]")
        if not args.check:
            return EXIT_OK
        drifts = check_against_baseline(args.check, args.experiment,
                                        context, section,
                                        tolerance=args.tolerance,
                                        data=baseline)
        if drifts:
            print(f"{drifted} drift vs {args.check} "
                  f"({len(drifts)} difference(s)):", file=sys.stderr)
            for drift in drifts[:50]:
                print(f"  {drift}", file=sys.stderr)
            if len(drifts) > 50:
                print(f"  ... and {len(drifts) - 50} more",
                      file=sys.stderr)
            return EXIT_FAILURE
        print(f"[{matched} match baseline {args.check}]")
        return EXIT_OK

    return gate


def _run_trace_command(argv: List[str]) -> int:
    args = _build_telemetry_parser("trace").parse_args(argv)
    configure_logging(args.verbose)
    telemetry = _telemetry(args.serve, args.profile, args.capacity)

    def report() -> int:
        tracer = telemetry.tracer
        if len(tracer) == 0:
            print(_NO_TRACE_WARNING, file=sys.stderr)
        path = tracer.write_chrome_trace(args.out)
        categories = ", ".join(sorted(tracer.categories())) or "none"
        print(f"[trace written to {path}: {len(tracer)} events "
              f"({tracer.dropped} evicted), categories: {categories}]")
        print("[open in chrome://tracing or https://ui.perfetto.dev]")
        if args.jsonl:
            print(f"[jsonl written to {tracer.write_jsonl(args.jsonl)}]")
        return EXIT_OK

    return _run(args, [args.experiment], telemetry, serve=args.serve,
                report=report)


def _run_metrics_command(argv: List[str]) -> int:
    args = _build_telemetry_parser("metrics").parse_args(argv)
    gate = _baseline_gate(args, "metrics", "metrics", "metrics")
    configure_logging(args.verbose)
    telemetry = _telemetry(args.serve, args.profile)

    def report() -> int:
        print(f"== {args.experiment}: telemetry metrics snapshot ==")
        print(telemetry.metrics.render_table())
        if args.json:
            from repro.utils import atomic_write_text
            atomic_write_text(args.json, telemetry.metrics.to_json())
            print(f"[metrics json written to {args.json}]")
        return gate(_baseline_context(args), telemetry.metrics.snapshot())

    return _run(args, [args.experiment], telemetry, serve=args.serve,
                report=report)


def _build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcoal serve",
        description="Run one experiment with full telemetry and serve a "
                    "live dashboard (progress, metrics, trace tail) plus "
                    "JSON endpoints (/metrics, /trace, /progress, /health) "
                    "while it executes. Keeps serving after the run "
                    "finishes until interrupted (use --no-linger to exit "
                    "immediately).",
    )
    parser.add_argument("experiment",
                        help="experiment id to run (e.g. fig07)")
    _add_common_arguments(parser)
    _add_resilience_arguments(parser)
    parser.add_argument("--port", default="8000", metavar="PORT",
                        help="PORT or HOST:PORT to listen on "
                             "(default 8000 on 127.0.0.1)")
    parser.add_argument("--capacity", type=int, default=500_000,
                        help="trace ring-buffer capacity in events")
    parser.add_argument("--no-linger", dest="linger", action="store_false",
                        help="exit when the experiment finishes instead "
                             "of serving until Ctrl-C")
    return parser


def _run_serve_command(argv: List[str]) -> int:
    args = _build_serve_parser().parse_args(argv)
    configure_logging(args.verbose)
    telemetry = _telemetry(args.port, args.profile, args.capacity)
    return _run(args, [args.experiment], telemetry, serve=args.port,
                linger=args.linger, blank_line=False)


def _build_profile_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcoal profile",
        description="Run one experiment under the two-axis profiler: "
                    "deterministic sim-cycle cost centers (which engine "
                    "stage the simulated cycles went to, reconciled "
                    "exactly against the round-window attribution) plus "
                    "wall-clock runner spans (where the host time went). "
                    "Exports flamegraph stacks, a combined Chrome trace, "
                    "and a drift-gated JSON report "
                    "(see docs/observability.md).",
    )
    parser.add_argument("experiment",
                        help="experiment id (e.g. fig05, fig07)")
    _add_common_arguments(parser, profile=False)
    _add_resilience_arguments(parser)
    parser.add_argument("--capacity", type=int, default=2_000_000,
                        help="trace ring-buffer capacity in events "
                             "(default 2000000; the cost-center join "
                             "needs the full trace, eviction aborts it)")
    parser.add_argument("--round", type=int, default=None,
                        help="restrict cost centers to one AES round "
                             f"index, 0 (the input load) to {NUM_ROUNDS} "
                             "(default: all rounds)")
    parser.add_argument("--top", type=int, default=None,
                        help="show only the N largest cost centers")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write the full profile report (sim + wall "
                             "axes) as stable JSON")
    parser.add_argument("--flamegraph", metavar="PATH", default=None,
                        help="write cost centers as collapsed stacks for "
                             "flamegraph.pl / speedscope")
    parser.add_argument("--chrome", metavar="PATH", default=None,
                        help="write a Chrome trace with the simulated "
                             "lanes plus a wall-clock process")
    _add_baseline_arguments(parser, "cost-center section")
    return parser


def _run_profile_command(argv: List[str]) -> int:
    args = _build_profile_parser().parse_args(argv)
    gate = _baseline_gate(args, "profile", "cost-center", "cost centers")
    if args.top is not None and args.top < 1:
        raise ConfigurationError(
            f"impossible --top: must be at least 1, got {args.top}")
    if args.round is not None and not 0 <= args.round <= NUM_ROUNDS:
        # Traced round windows exist only for these: an empty table
        # would read as a profile.
        raise ConfigurationError(
            f"impossible --round: rounds run from 0 (the input load) to "
            f"{NUM_ROUNDS}, got {args.round}")
    configure_logging(args.verbose)
    telemetry = Telemetry(trace_capacity=args.capacity, profile=True)

    def report() -> int:
        from repro.analysis.attribution import attribute_rounds
        from repro.analysis.costcenters import (
            collapsed_stacks,
            cost_centers,
            render_cost_table,
        )
        tracer = telemetry.tracer
        if len(tracer) == 0:
            print(f"{_NO_TRACE_WARNING}; the sim-cycle profile is empty",
                  file=sys.stderr)
        attributions = attribute_rounds(tracer, round_index=args.round)
        centers = cost_centers(tracer, attributions=attributions)

        scope = (f"round {args.round}" if args.round is not None
                 else "all rounds")
        print(f"== {args.experiment}: sim-cycle cost centers ({scope}) ==")
        print(render_cost_table(centers, top=args.top))
        print(f"[{centers.windows} round windows, "
              f"{centers.total_window_cycles:.0f} window cycles; cost "
              f"centers reconcile exactly with 'rcoal attribute']")
        print()
        print(f"== {args.experiment}: wall-clock spans ==")
        print(telemetry.profiler.render_table())

        if args.flamegraph:
            from repro.utils import atomic_write_text
            atomic_write_text(args.flamegraph, collapsed_stacks(centers))
            print(f"[flamegraph stacks written to {args.flamegraph}; "
                  f"render with flamegraph.pl or speedscope]")
        if args.chrome:
            from repro.utils import atomic_write_json
            trace = tracer.chrome_trace()
            trace["traceEvents"].extend(
                telemetry.profiler.to_chrome_events())
            atomic_write_json(args.chrome, trace)
            print(f"[chrome trace (sim + wall lanes) written to "
                  f"{args.chrome}]")

        sim_section = centers.to_dict()
        context = dict(_baseline_context(args), round=args.round)
        if args.out:
            from repro.telemetry.metrics import stable_json
            from repro.utils import atomic_write_text
            payload = {
                "format": 1,
                "experiment": args.experiment,
                "context": context,
                "sim": sim_section,
                "wall": telemetry.profiler.snapshot(),
            }
            atomic_write_text(args.out, stable_json(payload) + "\n")
            print(f"[profile report written to {args.out}]")
        return gate(context, sim_section)

    # Its wall-clock span table is part of the report, on stdout.
    return _run(args, [args.experiment], telemetry, wall_table=False,
                report=report)


def _build_status_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcoal status",
        description="Report a checkpoint campaign's state from its run "
                    "ledger (events.jsonl) and chunk files: restored / "
                    "remaining samples per phase, chunk latency "
                    "percentiles, retries and quarantines. Works on a "
                    "single --resume directory or an 'all' campaign "
                    "root; reads the same ground truth a --resume acts "
                    "on, so the numbers match what a rerun would skip.",
    )
    parser.add_argument("dir", metavar="DIR",
                        help="the campaign's --resume directory")
    parser.add_argument("--json", action="store_true",
                        help="emit the full manifest as stable JSON "
                             "instead of the table")
    parser.add_argument("--watch", type=float, metavar="SECONDS",
                        default=None,
                        help="redraw every SECONDS until Ctrl-C")
    parser.add_argument("--gc", action="store_true",
                        help="first garbage-collect the campaign: delete "
                             "chunk files fully covered by other chunks "
                             "(resumed output stays byte-identical) and "
                             "compact the ledger to lifecycle events "
                             "plus per-phase summaries")
    parser.add_argument("--stall-seconds", type=float, metavar="N",
                        default=30.0,
                        help="report 'stalled' when a phase is open but "
                             "the ledger has been silent for N seconds "
                             "(default 30)")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="enable repro.* logging on stderr")
    return parser


def _build_shard_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcoal shard",
        description="One coordinator-free campaign worker: claims phase "
                    "chunks via atomic lease files in DIR, simulates "
                    "them, commits checkpoint chunks, and releases. "
                    "Launch any number of these against the same DIR "
                    "(even from different hosts sharing it) with the "
                    "same seed/sample arguments; they drain the "
                    "campaign cooperatively, reclaim dead peers' "
                    "leases after the deadline, and each produce "
                    "stdout byte-identical to the serial run "
                    "(see docs/robustness.md).",
    )
    parser.add_argument("dir", metavar="DIR",
                        help="shared campaign directory (the --resume "
                             "layout; 'all' uses DIR/<experiment>)")
    parser.add_argument("experiment", nargs="?", default="all",
                        help="experiment id or 'all' (default: all)")
    parser.add_argument("--worker", metavar="NAME", default=None,
                        help="this worker's identity in leases and the "
                             "ledger (default: <host>-<pid>)")
    parser.add_argument("--lease-seconds", type=float, default=30.0,
                        metavar="S",
                        help="lease validity without renewal; peers "
                             "reclaim a lease this long after its last "
                             "heartbeat (default 30)")
    parser.add_argument("--heartbeat-seconds", type=float, default=None,
                        metavar="S",
                        help="renewal interval (default: lease/3; must "
                             "be shorter than the lease)")
    parser.add_argument("--chunk", type=int, default=8, metavar="SAMPLES",
                        help="work-item granularity in samples "
                             "(default 8); must match across workers "
                             "only for efficiency, never correctness")
    _add_seed_arguments(parser)
    parser.add_argument("--faults", metavar="PLAN", default=None,
                        help="deterministic chaos, incl. the lease "
                             "targets torn@lease / hang@lease / "
                             "exit@lease / steal@lease (see repro.faults)")
    parser.add_argument("--progress", action="store_true",
                        help="per-sample ETA reporting on stderr")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="enable repro.* logging on stderr")
    _add_export_arguments(parser)
    return parser


def _run_shard_command(argv: List[str]) -> int:
    args = _build_shard_parser().parse_args(argv)
    configure_logging(args.verbose)
    from repro.experiments.shard import ShardPolicy
    from repro.telemetry.journal import worker_id

    policy = ShardPolicy(
        worker=args.worker or worker_id(),
        lease_seconds=args.lease_seconds,
        heartbeat_seconds=args.heartbeat_seconds,
        chunk_samples=args.chunk,
    ).validate()
    ids = sorted(EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    # stdout matches the serial `rcoal all` byte for byte — lease
    # traffic, resume notes, and timing all go to stderr.
    return _run(args, ids, shard=policy, csv=args.csv, json=args.json)


def _run_status_command(argv: List[str]) -> int:
    args = _build_status_parser().parse_args(argv)
    if not (math.isfinite(args.stall_seconds) and args.stall_seconds > 0):
        # A threshold of zero or less would mark every open phase stalled.
        raise ConfigurationError(
            f"impossible stall threshold: --stall-seconds must be "
            f"positive and finite, got {args.stall_seconds}")
    configure_logging(args.verbose)
    from repro.experiments.manifest import (
        campaign_manifest,
        gc_campaign,
        render_manifest,
    )
    if args.gc:
        stats = gc_campaign(args.dir)
        swept = (f", swept {stats['removed_leases']} stale lease(s)"
                 if stats.get("removed_leases") else "")
        print(f"[gc: removed {stats['removed_chunks']} superseded "
              f"chunk(s), kept {stats['kept_chunks']}{swept}; ledger "
              f"compacted {stats['events_before']} -> "
              f"{stats['events_after']} event(s)]", file=sys.stderr)

    def render_once() -> None:
        manifest = campaign_manifest(args.dir,
                                     stall_after=args.stall_seconds)
        if args.json:
            from repro.telemetry.metrics import stable_json
            print(stable_json(manifest))
        else:
            print(render_manifest(manifest))
        sys.stdout.flush()

    if args.watch is None:
        render_once()
        return EXIT_OK
    # Ctrl-C lands in main(), which maps it to the documented 130.
    while True:
        render_once()
        time.sleep(max(0.1, args.watch))


#: Subcommands with their own parsers; anything else is the classic
#: ``rcoal <experiment>`` form.
_COMMANDS = {
    "trace": _run_trace_command,
    "metrics": _run_metrics_command,
    "serve": _run_serve_command,
    "profile": _run_profile_command,
    "status": _run_status_command,
    "shard": _run_shard_command,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: dispatch, then map failures to documented codes."""
    try:
        return _dispatch(argv)
    except KeyboardInterrupt:
        # The runner already flushed a partial-progress note; keep the
        # last line short and the exit code distinct (128 + SIGINT).
        print("[interrupted]", file=sys.stderr)
        return EXIT_INTERRUPT
    except ReproError as exc:
        code = next(code for cls, code in EXIT_BY_ERROR
                    if isinstance(exc, cls))
        print(f"error: {exc}", file=sys.stderr)
        return code


def _dispatch(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in _COMMANDS:
        return _COMMANDS[argv[0]](argv[1:])
    return _run_experiment_command(argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
