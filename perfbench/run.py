"""Run one benchmark workload and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload cold_tune --seed 1 --seconds 10 \\
        --trace 0

Prints one line per metric (name, value, unit, sample count or note),
then, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` repeats the timed passes with span
wrappers installed and reports the per-layer metrics instead. The
package is imported from ``src/`` next to this directory; without it the
run fails with exit code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: everything a run writes: scratch caches (removed at exit) and traces
WORK = os.path.join(ROOT, ".perfbench")


def _pin_environment(scratch: str) -> None:
    """One BLAS/OpenMP thread, scratch inside the checkout, and no
    ``REPRO_*`` settings leaking in. Must run before numpy is imported;
    child interpreters inherit it."""
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS"):
        os.environ[name] = "1"
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["TMPDIR"] = scratch
    src = os.path.join(ROOT, "src")
    os.environ["PYTHONPATH"] = src + (
        os.pathsep + os.environ["PYTHONPATH"]
        if os.environ.get("PYTHONPATH") else "")
    sys.path.insert(0, src)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold_tune", "warm_replay", "serve_warm",
                                 "validated_tune"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no package source at %s" %
              os.path.join(ROOT, "src", "repro"), file=sys.stderr)
        return 2
    scratch = os.path.join(WORK, "tmp", str(os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    _pin_environment(scratch)
    try:
        return _run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args, scratch: str) -> int:
    import stats
    import workloads

    # the validation gate warns once per rejected alternative
    logging.getLogger("repro").setLevel(logging.ERROR)
    load_before = stats.loadavg()
    ctx = workloads.Context(ROOT, args.workload, args.seed, args.seconds,
                            bool(args.trace), scratch)
    started = time.perf_counter()
    metrics = workloads.WORKLOADS[args.workload](ctx)
    elapsed = time.perf_counter() - started
    checks = ctx.checks

    print("workload %s seed %d trace %d: %d timed passes, %.1f s in all"
          % (args.workload, args.seed, args.trace, ctx.passes, elapsed))
    for note in ctx.notes:
        print("  " + note)
    print("  set-up: %d steps, imports %s s, all %.3f s rescaled "
          "(%.3f s as measured)" % (
              len(ctx.setup.steps),
              " ".join("%.3f" % value for value in ctx.setup_imports),
              ctx.setup.wall, ctx.setup.raw_wall))
    print("  loadavg before %s, after %s"
          % (load_before, stats.loadavg()))
    for name, (value, unit, note) in metrics.items():
        print("  %-28s %14.6g %-6s %s" % (name, value, unit, note))
    if args.trace:
        layers = sum(metrics[name][0] for name in
                     workloads.tracing.LAYER_METRICS)
        print("  layers %.6f + unattributed %.6f = %.6f s per pass; "
              "traced total %.6f s" % (
                  layers, metrics["unattributed_s"][0],
                  layers + metrics["unattributed_s"][0],
                  metrics["traced_total_s"][0]))
        _write_trace(args, ctx, metrics)
    print("  checks: %d attempted, %d failed (failed_ratio %.4f)"
          % (checks.attempted, checks.failed,
             checks.failed / checks.attempted if checks.attempted else 0.0))
    for problem in checks.problems[:20]:
        print("  FAILED: " + problem)
    print(json.dumps({
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


def _write_trace(args, ctx, metrics) -> None:
    out = os.path.join(WORK, "traces")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "%s-seed%d.json" % (args.workload, args.seed))
    with open(path, "w") as handle:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "metrics": {name: value for name, (value, _, _)
                               in metrics.items()},
                   "spans": [span.as_dict() for span in ctx.spans]},
                  handle)
    print("  spans written to %s" % os.path.relpath(path, ROOT))


if __name__ == "__main__":
    sys.exit(main())
