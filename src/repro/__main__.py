"""Command-line interface: ``python -m repro <command>``.

Commands mirror the Polygeist-GPU driver workflow:

* ``emit-ir``   — compile a .cu file and print the parallel IR for a kernel
  (optionally after coarsening), the Fig. 2/5 representation;
* ``tune``      — tune a kernel once (alternatives, pruning filters, TDO)
  and print every config's fate: modeled time and speedup for the
  survivors, the filter or legality reason for the rest
  (``--validate`` turns on the differential equivalence gate);
* ``validate``  — differentially validate every coarsening alternative of
  a benchmark or kernel against the untransformed baseline, and run the
  static barrier-legality lint;
* ``hipify``    — run the source-to-source CUDA→HIP translation and report
  the manual fixes a human would still need (§VII-D1);
* ``targets``   — list the available GPU architecture models (Table I);
* ``cache``     — inspect or clear the on-disk tuning cache
  (``$REPRO_TUNING_CACHE``);
* ``trace``     — summarize a recorded Chrome trace-event JSON file
  (produced by ``tune --trace``);
* ``sweep``     — run one figure's evaluation matrix (fig13/fig16/fig17/
  table2) sharded over crash-isolated worker processes, with per-job
  timeout, bounded retry, and ``--resume`` from a previous ``--json``
  output;
* ``analyze``   — tune + model one benchmark with full observability and
  report each kernel's roofline position, a named bottleneck verdict,
  and why TDO's winner won (see ``docs/ANALYZE.md``);
* ``check``     — diff two recorded runs (``sweep --json`` output or a
  saved ``perfbench/run.py`` stdout) cell by cell and exit non-zero on
  regressions beyond a noise band; exit 2 when the records are not
  comparable;
* ``serve``     — run the long-lived tuning daemon: an HTTP/JSON API
  over an async job queue and ONE shared on-disk tuning cache, so many
  clients amortize each other's tuning runs (see ``docs/SERVE.md``);
* ``submit``    — send one tuning request to a running daemon and wait
  for the result (one long-polled request), or with ``--no-wait`` just
  print the job id.

``tune --trace out.json`` records every compilation stage — parse, each
cleanup pass, each pruning filter, each modeled alternative — as a Chrome
trace loadable in Perfetto; ``tune --explain`` prints why every generated
alternative was eliminated or selected. ``-v``/``-q`` control the
``repro`` logger hierarchy.
"""

from __future__ import annotations

import argparse
import sys


def _load_source(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def _parse_dims(text: str):
    return tuple(int(part) for part in text.split(",") if part)


def cmd_emit_ir(args) -> int:
    from .frontend import CodegenError
    from .ir import print_op
    from .pipeline import build_launch_wrapper
    from .transforms import coarsen_wrapper, run_cleanup

    try:
        built = build_launch_wrapper(_load_source(args.file),
                                     args.kernel or None, args.grid_rank,
                                     _parse_dims(args.block))
    except CodegenError as error:
        print(error, file=sys.stderr)
        return 1
    if args.block_factor > 1 or args.thread_factor > 1:
        result = coarsen_wrapper(
            built.wrapper,
            block_total=args.block_factor if args.block_factor > 1
            else None,
            thread_total=args.thread_factor if args.thread_factor > 1
            else None)
        run_cleanup(built.module)
        print("// coarsened: %s" % result.describe())
    print(print_op(built.module.func(built.name)))
    return 0


#: engine stages in pipeline order, for the ``tune --stats`` table
STAGE_ORDER = ("parse", "cleanup", "alternatives", "filters", "tdo",
               "replay")


def _stage_table(engine) -> str:
    """The engine's per-stage seconds and calls, then its counters."""
    stages = engine.stages()
    counters = engine.registry.counter_values()
    lines = ["%-16s %10s %8s" % ("stage", "seconds", "calls"), "-" * 36]
    names = [name for name in STAGE_ORDER if name in stages]
    names += sorted(set(stages) - set(STAGE_ORDER))
    for name in names:
        lines.append("%-16s %10.3f %8d" % (name, stages[name]["total"],
                                           stages[name]["count"]))
    if counters:
        lines.append("")
        for name in sorted(counters):
            lines.append("%-28s %8d" % (name, counters[name]))
    return "\n".join(lines)


def _tune_table(outcome, decision, arch) -> str:
    """``repro tune``'s table: the ranked configs, fastest first, with
    their modeled time and speedup over the uncoarsened config, then
    every config the tune's ``decision`` log says was eliminated before
    the ranking, with the stage and reason."""
    from .obs.decisions import TIMING
    from .transforms.coarsen import is_uncoarsened

    configs = {d.desc: d.config for d in decision.alternatives}
    baseline = next((c for c in outcome.candidates if c.valid and
                     is_uncoarsened(configs[c.desc])), None)
    if baseline is None:
        raise ValueError("baseline configuration failed to model")
    lines = ["%-26s %14s %10s" % ("configuration", "modeled time",
                                  "speedup"), "-" * 54]
    for candidate in sorted((c for c in outcome.candidates if c.valid),
                            key=lambda c: c.time_seconds):
        lines.append("%-26s %13.3es %9.2fx" % (
            candidate.desc, candidate.time_seconds,
            baseline.time_seconds / candidate.time_seconds))
    others = [(c.desc, "invalid", c.reason)
              for c in outcome.candidates if not c.valid]
    others += [(d.desc, d.eliminated_by, d.reason)
               for d in decision.alternatives
               if d.eliminated_by not in (None, TIMING)]
    lines += ["%-26s %14s  (%s)" % row for row in others]
    lines += ["-" * 54, "best: %s (%.2fx) on %s" % (
        outcome.selected_desc,
        baseline.time_seconds / outcome.selected_time, arch.name)]
    return "\n".join(lines)


def cmd_tune(args) -> int:
    from .autotune import paper_sweep_configs, tune_wrapper
    from .engine import TuningEngine
    from .obs import decisions as obs_decisions
    from .obs import metrics as obs_metrics
    from .obs import tracer as obs_tracer
    from .obs.export import write_chrome_trace
    from .pipeline import build_launch_wrapper
    from .targets import arch_by_name

    arch = arch_by_name(args.arch)
    grid = _parse_dims(args.grid)
    tracer = None
    engine = TuningEngine(validate=args.validate or None)
    # the engine's registry also takes the engine-less instrumentation
    # sites (cleanup, filters, TDO), so --stats prints the same rows with
    # and without --trace
    obs_metrics.install(engine.registry)
    if args.trace:
        tracer = obs_tracer.install(obs_tracer.Tracer())
    # the table's eliminated rows come from the tune's decision record
    log = obs_decisions.install(obs_decisions.DecisionLog())
    try:
        built = build_launch_wrapper(_load_source(args.file), args.kernel,
                                     len(grid), _parse_dims(args.block),
                                     engine)
        try:
            outcome = tune_wrapper(
                built.wrapper, arch, [built.env(grid)],
                paper_sweep_configs(max_product=args.max_factor),
                engine=engine)
            table = _tune_table(outcome, log.decisions[-1], arch)
        except ValueError as error:  # InvalidLaunch included
            print("tune failed: %s" % error, file=sys.stderr)
            if args.explain:
                print(log.explain())
            return 1
        print(table)
        if outcome.validation is not None:
            print()
            print(outcome.validation.summary())
        if args.explain:
            print()
            print(log.explain())
        if args.stats:
            print()
            print("engine stages:")
            print(_stage_table(engine))
    finally:
        obs_decisions.uninstall()
        obs_metrics.uninstall()
        if tracer is not None:
            obs_tracer.uninstall()
            write_chrome_trace(args.trace, tracer, metrics=engine.registry,
                               decisions=log)
            print("wrote %d spans to %s" % (len(tracer), args.trace),
                  file=sys.stderr)
    return 0


def _lint_source(source: str, launches) -> list:
    """Build every distinct launch wrapper from ``launches`` and lint the
    resulting module."""
    from .frontend import ModuleGenerator, parse_translation_unit
    from .transforms import run_cleanup
    from .validate import lint_module

    generator = ModuleGenerator(parse_translation_unit(source))
    seen = set()
    for kernel, grid, block in launches:
        key = (kernel, len(grid), tuple(block))
        if key not in seen:
            seen.add(key)
            generator.get_launch_wrapper(kernel, len(grid), tuple(block))
    run_cleanup(generator.module)
    return lint_module(generator.module)


def cmd_validate(args) -> int:
    from .benchsuite import BENCHMARKS, get_benchmark
    from .frontend import CodegenError
    from .pipeline import build_launch_wrapper
    from .targets import arch_by_name
    from .validate import lint_module, validate_benchmark, validate_source

    arch = arch_by_name(args.arch)
    if args.target in BENCHMARKS:
        bench = get_benchmark(args.target)
        lint_reports = _lint_source(bench.source, bench.iter_launches(
            args.size or bench.verify_size))
        report = validate_benchmark(args.target, arch, size=args.size,
                                    seed=args.seed)
    else:
        source = _load_source(args.target)
        grid = _parse_dims(args.grid)
        block = _parse_dims(args.block)
        try:
            lint_reports = lint_module(build_launch_wrapper(
                source, args.kernel, len(grid), block).module)
        except CodegenError as error:
            print(error, file=sys.stderr)
            return 1
        report = validate_source(source, args.kernel, grid, block,
                                 seed=args.seed)

    findings = [f for r in lint_reports for f in r.findings]
    if findings:
        print("lint: %d finding(s)" % len(findings))
        for lint_report in lint_reports:
            if lint_report.findings:
                print(lint_report.summary())
    else:
        print("lint: clean (%d wrapper(s))" % len(lint_reports))
    print()
    print(report.summary())
    if not report.verdicts:
        # ok over no verdicts would be vacuous: nothing was validated
        print("nothing validated: %s" %
              (report.baseline_note or "no alternatives"), file=sys.stderr)
        return 1
    errors = [f for f in findings if f.severity == "error"]
    if not report.ok or errors:
        divergence = report.first_divergence
        if divergence is not None:
            print()
            print("first failing alternative: %s" % divergence.desc,
                  file=sys.stderr)
        return 1
    return 0


def cmd_trace(args) -> int:
    from .obs.export import summarize_trace_file

    try:
        summary = summarize_trace_file(args.file, top=args.top,
                                       metrics=True)
    except (OSError, ValueError) as error:
        print("cannot summarize %s: %s" % (args.file, error),
              file=sys.stderr)
        return 1
    print(summary)
    return 0


def cmd_analyze(args) -> int:
    import json
    import time

    from .analysis.report import analyze_benchmark
    from .autotune import paper_sweep_configs
    from .benchsuite import BENCHMARKS
    from .targets import arch_by_name

    if args.bench not in BENCHMARKS:
        print("unknown benchmark %r (have: %s)" %
              (args.bench, ", ".join(sorted(BENCHMARKS))), file=sys.stderr)
        return 1
    configs = paper_sweep_configs(max_product=args.max_factor) \
        if args.max_factor is not None else None
    analysis = analyze_benchmark(args.bench, arch_by_name(args.arch),
                                 tier=args.tier, size=args.size,
                                 configs=configs)
    analysis.provenance["created"] = \
        time.strftime("%Y-%m-%dT%H:%M:%S%z")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(analysis.as_dict(), handle, indent=1)
            handle.write("\n")
        print("wrote %s" % args.json)
    if args.markdown or not args.json:
        print(analysis.to_markdown())
    return 0


def cmd_check(args) -> int:
    from .analysis.check import (CheckUsageError, check_files,
                                 parse_noise_band)

    try:
        report = check_files(args.baseline, args.new,
                             parse_noise_band(args.noise_band))
    except CheckUsageError as error:
        print("check refused: %s" % error, file=sys.stderr)
        return 2
    print(report.summary())
    return 0 if report.ok else 1


def cmd_cache(args) -> int:
    from .engine import TuningCache, default_cache_path

    path = args.path or default_cache_path()
    if not path:
        print("no cache directory: pass --path or set $REPRO_TUNING_CACHE",
              file=sys.stderr)
        return 1
    cache = TuningCache(path)
    if args.action == "clear":
        cache.clear()
        print("cleared tuning cache at %s" % path)
    else:
        print("tuning cache at %s: %d entries on disk" %
              (path, cache.disk_entries()))
    return 0


def cmd_hipify(args) -> int:
    from .translate import hipify

    result = hipify(_load_source(args.file))
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(result.source)
    else:
        print(result.source)
    for change in result.changes:
        print("// auto: %s" % change, file=sys.stderr)
    for fix in result.manual_fixes:
        print("// MANUAL FIX NEEDED: %s" % fix, file=sys.stderr)
    return 0 if result.clean else 2


def cmd_sweep(args) -> int:
    import os

    from .autotune import paper_sweep_configs
    from .benchsuite.sweeps import (load_resume_values, run_figure_sweep,
                                    write_sweep_json)

    benchmarks = [b.strip() for b in (args.benchmarks or "").split(",")
                  if b.strip()] or None
    arch_names = [a.strip() for a in (args.arch or "").split(",")
                  if a.strip()]
    configs = paper_sweep_configs(max_product=args.max_factor) \
        if args.max_factor is not None else None
    if args.figure == "fig13":
        plan_kwargs = dict(benchmarks=benchmarks, configs=configs,
                           include_hecbench=args.include_hecbench)
        if arch_names:
            plan_kwargs["arch"] = arch_names[0]
    elif args.figure == "fig16":
        plan_kwargs = dict(benchmarks=benchmarks, configs=configs)
        if arch_names:
            plan_kwargs["archs"] = arch_names
    elif args.figure == "fig17":
        plan_kwargs = dict(benchmarks=benchmarks, configs=configs)
        if arch_names:
            print("fig17 columns fix their architectures; --arch ignored",
                  file=sys.stderr)
    else:  # table2
        plan_kwargs = dict(size=args.size)
        if arch_names:
            plan_kwargs["arch"] = arch_names[0]
        if benchmarks:
            print("table2 has no benchmark axis; --benchmarks ignored",
                  file=sys.stderr)

    resume_values = None
    if args.resume:
        if not args.json:
            print("--resume needs --json FILE to resume from",
                  file=sys.stderr)
            return 1
        if os.path.exists(args.json):
            try:
                resume_values = load_resume_values(args.json, args.figure)
            except (OSError, ValueError) as error:
                print("cannot resume from %s: %s" % (args.json, error),
                      file=sys.stderr)
                return 1

    outcome = run_figure_sweep(
        args.figure, workers=args.workers, timeout=args.timeout,
        retries=args.retries, resume_values=resume_values, **plan_kwargs)

    print("sweep %s: %d job(s) run, %d resumed, %d failed in %.1fs"
          % (args.figure, len(outcome.results), len(outcome.resumed),
             len(outcome.failed), outcome.elapsed))
    if outcome.retries or outcome.timeouts or outcome.degraded:
        print("  retries=%d timeouts=%d degraded=%d" %
              (outcome.retries, outcome.timeouts, outcome.degraded))
    for key, error in sorted(outcome.failed.items()):
        print("  FAILED %s: %s" % (key, error), file=sys.stderr)
    if args.json:
        import time
        write_sweep_json(args.json, outcome,
                         meta={"workers": args.workers,
                               "timeout": args.timeout,
                               "benchmarks": benchmarks,
                               "max_factor": args.max_factor},
                         created=time.strftime("%Y-%m-%dT%H:%M:%S%z"))
        print("wrote %s" % args.json)
    return 0 if outcome.data is not None else 1


def cmd_serve(args) -> int:
    from .serve import ServerConfig, TuneServer

    server = TuneServer(ServerConfig(
        host=args.host, port=args.port, workers=args.workers,
        queue_depth=args.queue_depth, job_timeout=args.timeout,
        retries=args.retries, isolation=args.isolation,
        cache_dir=args.cache, cache_max=args.cache_max,
        drain_grace=args.drain_grace, ledger=not args.no_ledger))
    server.start()
    server.install_signal_handlers()
    if args.ready_file:
        # port 0 means "pick a free port"; tests and the CI smoke step
        # learn the bound address from this file
        with open(args.ready_file, "w") as handle:
            handle.write(server.url + "\n")
    print("repro serve listening on %s (cache: %s)" %
          (server.url, server.cache_dir))
    server.serve_forever()
    clean = server.wait_stopped(timeout=max(5.0, args.drain_grace))
    print("repro serve drained%s" % ("" if clean else " (grace expired)"))
    return 0 if clean else 1


def cmd_submit(args) -> int:
    import json

    from .serve import ServeClient, ServeError

    request = {"arch": args.arch, "tier": args.tier}
    if args.benchmark:
        request["benchmark"] = args.benchmark
    if args.file:
        request["source"] = _load_source(args.file)
        if args.kernel:
            request["kernel"] = args.kernel
        request["grid"] = list(_parse_dims(args.grid))
        request["block"] = list(_parse_dims(args.block))
    if args.max_factor is not None:
        request["max_factor"] = args.max_factor
    if args.size is not None:
        request["size"] = args.size

    client = ServeClient(args.url, timeout=args.http_timeout,
                         retries=args.http_retries)
    try:
        submitted = client.submit(request)
        if args.no_wait:
            print("queued %s (%s)" % (submitted["job"],
                                      submitted["target"]))
            return 0
        result = client.wait(submitted["job"], timeout=args.wait)
    except ServeError as error:
        print("submit failed%s: %s" %
              (" (HTTP %d)" % error.status if error.status else "",
               error), file=sys.stderr)
        return 1
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(result, handle, indent=1)
            handle.write("\n")
    # one stable grep-able line for scripts and the CI smoke step
    print("%s %s: modeled %.6es, wall %.3fs, warm=%s" %
          (result["job"], result["target"], result["seconds"],
           result["wall_seconds"],
           "yes" if result["cache_hit"] else "no"))
    return 0


def cmd_targets(args) -> int:
    from .targets import ALL_ARCHS

    for arch in ALL_ARCHS:
        row = arch.describe_row()
        print("%-14s %-8s SMs=%-4d warp=%-3d %s f32, %s f64, %s" %
              (row["GPU"], row["Compute Capability"], row["SMs"],
               arch.warp_size, row["FLOPs (f32)"], row["FLOPs (f64)"],
               row["Memory Bandwidth"]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="more diagnostics on the 'repro' logger "
                             "(-v info, -vv debug)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="only log errors")
    sub = parser.add_subparsers(dest="command", required=True)

    emit = sub.add_parser("emit-ir", help="print the parallel IR")
    emit.add_argument("file")
    emit.add_argument("--kernel", help="kernel name (default: first)")
    emit.add_argument("--block", default="256",
                      help="block dims, comma separated (default 256)")
    emit.add_argument("--grid-rank", type=int, default=1)
    emit.add_argument("--block-factor", type=int, default=1,
                      help="apply block coarsening by this total factor")
    emit.add_argument("--thread-factor", type=int, default=1,
                      help="apply thread coarsening by this total factor")
    emit.set_defaults(fn=cmd_emit_ir)

    tune = sub.add_parser("tune", help="tune a kernel's coarsening")
    tune.add_argument("file")
    tune.add_argument("kernel")
    tune.add_argument("--arch", default="a100")
    tune.add_argument("--grid", default="1024")
    tune.add_argument("--block", default="256")
    tune.add_argument("--max-factor", type=int, default=32)
    tune.add_argument("--stats", action="store_true",
                      help="print per-stage engine timings after the tune")
    tune.add_argument("--trace", metavar="FILE",
                      help="record a Chrome trace-event JSON of the whole "
                           "pipeline (open in Perfetto)")
    tune.add_argument("--explain", action="store_true",
                      help="print why each alternative was eliminated "
                           "or selected")
    tune.add_argument("--validate", action="store_true",
                      help="differentially validate every surviving "
                           "alternative against the uncoarsened baseline "
                           "before timing (also: $REPRO_VALIDATE)")
    tune.set_defaults(fn=cmd_tune)

    validate = sub.add_parser(
        "validate", help="differential transform validation + barrier lint")
    validate.add_argument("target",
                          help="benchsuite name (e.g. lud) or a .cu file")
    validate.add_argument("--arch", default="a100")
    validate.add_argument("--kernel",
                          help=".cu mode: kernel name (default: first)")
    validate.add_argument("--grid", default="4",
                          help=".cu mode: grid dims, comma separated")
    validate.add_argument("--block", default="64",
                          help=".cu mode: block dims, comma separated")
    validate.add_argument("--size", type=int, default=None,
                          help="benchmark mode: problem size "
                               "(default: the verify size)")
    validate.add_argument("--seed", type=int, default=0,
                          help="input-seeding RNG seed")
    validate.set_defaults(fn=cmd_validate)

    cache = sub.add_parser("cache", help="inspect the on-disk tuning cache")
    cache.add_argument("action", choices=("info", "clear"))
    cache.add_argument("--path", help="cache directory (default: "
                                      "$REPRO_TUNING_CACHE)")
    cache.set_defaults(fn=cmd_cache)

    hip = sub.add_parser("hipify", help="CUDA -> HIP source translation")
    hip.add_argument("file")
    hip.add_argument("-o", "--output")
    hip.set_defaults(fn=cmd_hipify)

    sweep = sub.add_parser(
        "sweep", help="run a figure's job matrix over worker processes")
    sweep.add_argument("figure",
                       choices=("fig13", "fig16", "fig17", "table2"))
    sweep.add_argument("--benchmarks",
                       help="comma-separated benchmark subset "
                            "(default: all registered)")
    sweep.add_argument("--arch",
                       help="architecture name(s), comma separated: the "
                            "arch list for fig16, a single arch for "
                            "fig13/table2")
    sweep.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: "
                            "$REPRO_SWEEP_WORKERS or the CPU count)")
    sweep.add_argument("--timeout", type=float, default=None,
                       help="per-job wall-clock limit in seconds; "
                            "overdue workers are killed and the job "
                            "retried")
    sweep.add_argument("--retries", type=int, default=2,
                       help="retry budget per job before degrading to "
                            "in-process execution (default 2)")
    sweep.add_argument("--max-factor", type=int, default=None,
                       help="bound the autotuning config sweep to "
                            "block*thread <= N (default: the paper set)")
    sweep.add_argument("--size", type=int, default=None,
                       help="table2 problem size (default: the "
                            "figure's, 64)")
    sweep.add_argument("--include-hecbench", action="store_true",
                       help="fig13: include the HeCBench ports")
    sweep.add_argument("--json", metavar="FILE",
                       help="write per-job values and merged data as JSON")
    sweep.add_argument("--resume", action="store_true",
                       help="skip jobs already present in --json FILE")
    sweep.set_defaults(fn=cmd_sweep)

    targets = sub.add_parser("targets", help="list GPU models")
    targets.set_defaults(fn=cmd_targets)

    serve = sub.add_parser(
        "serve", help="run the tuning daemon (HTTP/JSON, shared cache)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8321,
                       help="listen port; 0 picks a free one "
                            "(default 8321)")
    serve.add_argument("--workers", type=int, default=2,
                       help="concurrent dispatcher threads (default 2)")
    serve.add_argument("--queue-depth", type=int, default=32,
                       help="queued+running bound before 429 "
                            "(default 32)")
    serve.add_argument("--timeout", type=float, default=None,
                       help="per-job wall-clock limit in seconds "
                            "(enforced in both isolation modes)")
    serve.add_argument("--retries", type=int, default=1,
                       help="retry budget per job (default 1)")
    serve.add_argument("--isolation", choices=("process", "thread"),
                       default="process",
                       help="run jobs in worker processes (timeout "
                            "enforcement, crash isolation) or in-daemon "
                            "threads (default process)")
    serve.add_argument("--cache", metavar="DIR",
                       help="shared tuning cache directory (default: "
                            "$REPRO_TUNING_CACHE)")
    serve.add_argument("--cache-max", metavar="BUDGET",
                       help="LRU cache budget: bytes, k/m/g suffix, or "
                            "'<N>e' entries (default: "
                            "$REPRO_TUNING_CACHE_MAX)")
    serve.add_argument("--drain-grace", type=float, default=30.0,
                       help="seconds to finish the backlog on "
                            "SIGTERM/SIGINT (default 30)")
    serve.add_argument("--no-ledger", action="store_true",
                       help="disable the durable job ledger (jobs then "
                            "do not survive a daemon restart)")
    serve.add_argument("--ready-file", metavar="FILE",
                       help="write the bound URL here once listening")
    serve.set_defaults(fn=cmd_serve)

    submit = sub.add_parser(
        "submit", help="send one tuning request to a running daemon")
    submit.add_argument("--url", default="http://127.0.0.1:8321")
    group = submit.add_mutually_exclusive_group(required=True)
    group.add_argument("--benchmark", help="benchsuite name (e.g. lud)")
    group.add_argument("--file", help="a .cu file to tune")
    submit.add_argument("--kernel",
                        help="--file mode: kernel name (default: first)")
    submit.add_argument("--grid", default="1024",
                        help="--file mode: grid dims (default 1024)")
    submit.add_argument("--block", default="256",
                        help="--file mode: block dims (default 256)")
    submit.add_argument("--arch", default="a100")
    submit.add_argument("--tier", default="polygeist")
    submit.add_argument("--max-factor", type=int, default=None,
                        help="bound the coarsening sweep to "
                             "block*thread <= N (default: the paper set)")
    submit.add_argument("--size", type=int, default=None,
                        help="problem size (default: the model size)")
    submit.add_argument("--wait", type=float, default=300.0,
                        help="seconds to wait for the result "
                             "(default 300)")
    submit.add_argument("--no-wait", action="store_true",
                        help="just queue the job and print its id")
    submit.add_argument("--http-timeout", type=float, default=30.0,
                        help="per-request HTTP timeout (default 30)")
    submit.add_argument("--http-retries", type=int, default=2,
                        help="retry budget for 429/503 responses, with "
                             "exponential backoff honoring Retry-After "
                             "(default 2; 0 fails fast)")
    submit.add_argument("--json", metavar="FILE",
                        help="write the full result (incl. the decision "
                             "log) as JSON")
    submit.set_defaults(fn=cmd_submit)

    analyze = sub.add_parser(
        "analyze", help="bottleneck attribution report for one benchmark")
    analyze.add_argument("bench", help="benchsuite name (e.g. lud)")
    analyze.add_argument("--arch", default="a100")
    analyze.add_argument("--tier", default="polygeist",
                         help="compilation tier to analyze "
                              "(default polygeist)")
    analyze.add_argument("--size", type=int, default=None,
                         help="problem size (default: the model size)")
    analyze.add_argument("--max-factor", type=int, default=None,
                         help="bound the coarsening sweep to "
                              "block*thread <= N (default: the paper set)")
    analyze.add_argument("--json", metavar="FILE",
                         help="write the full report as JSON")
    analyze.add_argument("--markdown", action="store_true",
                         help="print the markdown report (default unless "
                              "--json is given)")
    analyze.set_defaults(fn=cmd_analyze)

    check = sub.add_parser(
        "check", help="diff two sweep/perfbench records, fail on "
                      "regressions")
    check.add_argument("baseline", help="baseline sweep --json output or "
                                        "saved perfbench/run.py stdout")
    check.add_argument("new", help="the record to gate")
    check.add_argument("--noise-band", default="5%",
                       help="relative slack before a slower cell counts "
                            "as a regression, e.g. '5%%' or 0.05 "
                            "(default 5%%)")
    check.set_defaults(fn=cmd_check)

    trace = sub.add_parser("trace", help="summarize a recorded trace file")
    trace.add_argument("action", choices=("summarize",))
    trace.add_argument("file", help="Chrome trace-event JSON "
                                    "(from tune --trace)")
    trace.add_argument("--top", type=int, default=20,
                       help="show the N hottest span names (default 20)")
    trace.set_defaults(fn=cmd_trace)
    return parser


def main(argv=None) -> int:
    from .obs.log import configure_logging

    args = build_parser().parse_args(argv)
    configure_logging(-1 if args.quiet else args.verbose)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
