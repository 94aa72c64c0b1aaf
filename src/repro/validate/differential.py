"""Differential equivalence harness: baseline vs. generated alternatives.

The paper claims unroll-and-interleave and the coarsening transforms built
on it are semantics-preserving (§IV, §V). This module *checks* that claim
on real executions: the uncoarsened kernel and every generated alternative
are run through :mod:`repro.interpreter` on identical seeded inputs, and
the final device-memory snapshots are compared — exactly for integer
buffers, within a tolerance for floats (atomics may legally reassociate).

Three entry points:

* :func:`validate_alternatives` — the tuning-gate form, applied to a
  ``polygeist.alternatives`` op in place (used by ``tune --validate`` /
  ``$REPRO_VALIDATE``);
* :func:`validate_source` — compile a ``.cu`` source, generate the
  coarsening alternatives for a kernel, and validate all of them;
* :func:`validate_benchmark` — run a whole benchsuite entry with each
  coarsening config and compare its outputs against the untransformed
  tier.

A failed comparison carries a :class:`BufferDiff` — a minimized view of
the offending buffer (first mismatching element, a bounded sample of
mismatches, the worst error) rather than a memory dump.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..dialects import polygeist
from ..ir import FloatType, IndexType, IntegerType, MemRefType, Module, \
    Operation, Value, swap_regions
from ..interpreter import ConvergenceError, Interpreter, InterpreterError, \
    MemoryBuffer
from ..simulator.model import InvalidLaunch

#: default interpreter step budget per validation run; keeps validation
#: bounded at paper-scale grids (runs that exceed it are *skipped*, not
#: failed)
DEFAULT_MAX_STEPS = 2_000_000

#: default grid cap per dimension: semantics preservation must hold for
#: any grid, so validating on a small one keeps interpretation cheap
DEFAULT_GRID_CAP = 4

#: float comparison tolerances (atomics may reassociate reductions)
DEFAULT_RTOL = 1e-5
DEFAULT_ATOL = 1e-8

#: failures of the executed program rather than of the harness: the
#: interpreter's own errors, out-of-bounds buffer accesses (which
#: MemoryBuffer raises as IndexError) and launches the runtime's timing
#: model rejects. Anything else is a bug and propagates.
EXECUTION_ERRORS = (InterpreterError, IndexError, InvalidLaunch)

#: verdict states
OK = "ok"
DIVERGED = "diverged"
ERROR = "error"
SKIPPED = "skipped"


@dataclass
class BufferDiff:
    """Minimized description of one diverging buffer."""

    buffer: str                 # argument label, e.g. "arg2"
    argument: int               # func argument position
    elements: int
    mismatches: int
    first_index: int
    #: up to ``_SAMPLE`` (linear index, baseline, alternative) triples
    samples: List[Tuple[int, object, object]] = field(default_factory=list)
    max_error: float = 0.0

    _SAMPLE = 8

    def summarize(self) -> str:
        lines = ["%s: %d of %d elements differ (max error %.3e), first at "
                 "[%d]" % (self.buffer, self.mismatches, self.elements,
                           self.max_error, self.first_index)]
        for index, want, got in self.samples:
            lines.append("  [%d] baseline=%s alternative=%s" %
                         (index, want, got))
        if self.mismatches > len(self.samples):
            lines.append("  ... %d more" %
                         (self.mismatches - len(self.samples)))
        return "\n".join(lines)


@dataclass
class AlternativeVerdict:
    """Validation outcome for one alternative."""

    desc: str
    status: str                 # OK / DIVERGED / ERROR / SKIPPED
    detail: str = ""
    diff: Optional[BufferDiff] = None

    @property
    def passed(self) -> bool:
        return self.status in (OK, SKIPPED)

    def explain(self) -> str:
        if self.status == DIVERGED and self.diff is not None:
            return "%s: diverged\n%s" % (self.desc, self.diff.summarize())
        suffix = " (%s)" % self.detail if self.detail else ""
        return "%s: %s%s" % (self.desc, self.status, suffix)


@dataclass
class ValidationReport:
    """Everything the harness decided for one kernel wrapper."""

    label: str = ""
    verdicts: List[AlternativeVerdict] = field(default_factory=list)
    #: set when the baseline itself could not be executed (validation is
    #: then inconclusive and every alternative is reported as skipped)
    baseline_note: str = ""

    @property
    def ok(self) -> bool:
        return all(v.passed for v in self.verdicts)

    @property
    def first_divergence(self) -> Optional[AlternativeVerdict]:
        for verdict in self.verdicts:
            if not verdict.passed:
                return verdict
        return None

    def keep_indices(self) -> List[int]:
        return [i for i, v in enumerate(self.verdicts) if v.passed]

    def summary(self) -> str:
        lines = ["validation of %s:" % (self.label or "<kernel>")]
        if self.baseline_note:
            lines.append("  baseline not executable: %s" %
                         self.baseline_note)
        for verdict in self.verdicts:
            first, *rest = verdict.explain().splitlines()
            lines.append("  %s" % first)
            lines.extend("  %s" % line for line in rest)
        return "\n".join(lines)


# -- argument seeding ----------------------------------------------------------


def _enclosing_func(op: Operation) -> Operation:
    current = op
    while current is not None and current.name != "func.func":
        current = current.parent_op
    if current is None:
        raise ValueError("operation is not nested in a func.func")
    return current


def _root_module(op: Operation) -> Module:
    root = op
    while root.parent_op is not None:
        root = root.parent_op
    if root.name != "builtin.module":
        raise ValueError("operation is not nested in a module")
    return Module(root)


def _thread_extent_product(wrapper: Operation) -> int:
    """Product of the static thread extents of the wrapper's first block
    loop (the launch block shape); 64 per dynamic dimension."""
    from ..transforms.coarsen import (CoarsenError, block_parallels,
                                      parallel_extents, thread_parallel)
    total = 1
    try:
        loops = block_parallels(wrapper)
        if not loops:
            return 64
        thread_loop = thread_parallel(loops[0])
    except CoarsenError:
        return 64
    for extent in parallel_extents(thread_loop):
        total *= extent if extent and extent > 0 else 64
    return max(total, 1)


@dataclass
class _ArgSpec:
    """How to materialize one function argument for a validation run."""

    kind: str                   # "scalar" or "memref"
    value: object = None        # scalars: the concrete value
    type_: object = None        # memrefs: the MemRefType
    sizes: Tuple[int, ...] = ()
    seed: int = 0

    def materialize(self) -> object:
        if self.kind == "scalar":
            return self.value
        buffer = MemoryBuffer.for_type(self.type_, list(self.sizes))
        rng = np.random.default_rng(self.seed)
        if isinstance(self.type_.element, FloatType):
            buffer.array[...] = (rng.random(buffer.shape) * 2.0 - 1.0
                                 ).astype(buffer.array.dtype)
        elif buffer.array.dtype != np.bool_:
            buffer.array[...] = rng.integers(
                0, 4, buffer.shape).astype(buffer.array.dtype)
        return buffer


#: fallback values for free integer scalars when the total thread count
#: makes the baseline index out of bounds (size-like scalars often have to
#: cohere with statically-shaped buffers in ways seeding cannot know)
_INT_SCALAR_LADDER = (None, 16, 4, 2, 1)


def build_arg_specs(func_op: Operation, grid_env: Dict[Value, int],
                    wrapper: Operation, seed: int = 0,
                    grid_cap: int = DEFAULT_GRID_CAP,
                    int_value: Optional[int] = None) -> List[_ArgSpec]:
    """Concrete seeded arguments for a launch-wrapper function.

    Grid arguments (those in ``grid_env``) are capped to keep
    interpretation cheap; dynamic memref dimensions and free integer
    scalars are sized to the total thread count so typical global-id
    indexing stays in bounds. ``int_value`` overrides the value given to
    free integer scalars (the :data:`_INT_SCALAR_LADDER` retry path).
    """
    args = list(func_op.body_block().args)
    grids = [max(1, min(int(grid_env[a]), grid_cap))
             for a in args if a in grid_env]
    total = int(np.prod(grids or [1])) * _thread_extent_product(wrapper)
    rng = np.random.default_rng(seed)
    specs: List[_ArgSpec] = []
    grid_iter = iter(grids)
    for position, arg in enumerate(args):
        if arg in grid_env:
            specs.append(_ArgSpec("scalar", value=next(grid_iter)))
        elif isinstance(arg.type, MemRefType):
            dynamic = sum(1 for extent in arg.type.shape if extent < 0)
            specs.append(_ArgSpec("memref", type_=arg.type,
                                  sizes=(total,) * dynamic,
                                  seed=seed + 7919 * position))
        elif isinstance(arg.type, FloatType):
            specs.append(_ArgSpec("scalar",
                                  value=float(rng.random() + 0.5)))
        elif isinstance(arg.type, (IntegerType, IndexType)):
            specs.append(_ArgSpec(
                "scalar", value=total if int_value is None else int_value))
        else:
            raise ValueError("cannot seed argument of type %s" % arg.type)
    return specs


# -- snapshot comparison -------------------------------------------------------


def compare_buffers(baseline: np.ndarray, candidate: np.ndarray,
                    label: str, argument: int,
                    rtol: float = DEFAULT_RTOL,
                    atol: float = DEFAULT_ATOL) -> Optional[BufferDiff]:
    """None when equal (exact for ints, tolerant for floats)."""
    want = baseline.ravel()
    got = candidate.ravel()
    if np.issubdtype(want.dtype, np.floating):
        mismatch = ~np.isclose(got, want, rtol=rtol, atol=atol,
                               equal_nan=True)
    else:
        mismatch = got != want
    if not mismatch.any():
        return None
    where = np.flatnonzero(mismatch)
    if np.issubdtype(want.dtype, np.floating):
        with np.errstate(invalid="ignore"):
            errors = np.abs(got[where].astype(np.float64) -
                            want[where].astype(np.float64))
        max_error = float(np.nanmax(errors)) if errors.size else 0.0
    else:
        max_error = float(np.max(np.abs(
            got[where].astype(np.int64) - want[where].astype(np.int64))))
    samples = [(int(i), want[i].item(), got[i].item())
               for i in where[:BufferDiff._SAMPLE]]
    return BufferDiff(buffer=label, argument=argument,
                      elements=int(want.size), mismatches=int(where.size),
                      first_index=int(where[0]), samples=samples,
                      max_error=max_error)


def _snapshot_diff(specs: Sequence[_ArgSpec], baseline: Sequence[object],
                   candidate: Sequence[object], rtol: float, atol: float
                   ) -> Optional[BufferDiff]:
    for position, spec in enumerate(specs):
        if spec.kind != "memref":
            continue
        diff = compare_buffers(baseline[position].array,
                               candidate[position].array,
                               "arg%d" % position, position,
                               rtol=rtol, atol=atol)
        if diff is not None:
            return diff
    return None


def _budget_exceeded(error: Exception) -> bool:
    return "step budget" in str(error)


# -- gate-mode validation ------------------------------------------------------


def validate_alternatives(baseline: Operation, alt_op: Operation,
                          grid_env: Dict[Value, int],
                          seed: int = 0,
                          rtol: float = DEFAULT_RTOL,
                          atol: float = DEFAULT_ATOL,
                          max_steps: int = DEFAULT_MAX_STEPS,
                          grid_cap: int = DEFAULT_GRID_CAP
                          ) -> ValidationReport:
    """Differentially validate every region of an alternatives op.

    ``baseline`` is the tune's untransformed snapshot of the wrapper
    (``wrapper.clone({})``, taken before materialization replaced its
    body). It is swapped into the live wrapper for the baseline runs,
    which execute the enclosing function via
    :meth:`Interpreter.run_block`. Each alternative is executed through
    the live module with a fixed alternative selector. All runs see
    identically seeded inputs.
    """
    func_op = _enclosing_func(alt_op)
    module = _root_module(alt_op)
    wrapper = alt_op.parent_op

    def run_baseline(args, reverse: bool = False) -> None:
        interp = Interpreter(module, max_steps=max_steps,
                             reverse_parallel=reverse)
        swap_regions(wrapper, baseline)
        try:
            interp.run_block(func_op.body_block(), args)
        finally:
            swap_regions(wrapper, baseline)

    label = str(func_op.attr("sym_name") or "<wrapper>")
    descs = polygeist.alternative_descs(alt_op)
    report = ValidationReport(label=label)

    # walk the scalar ladder until the baseline executes: a step budget
    # blowout or an error unrelated to seeding will not improve with a
    # smaller size scalar, so only retry on out-of-bounds accesses
    specs: Optional[List[_ArgSpec]] = None
    baseline_args: List[object] = []
    reason = ""
    for int_value in _INT_SCALAR_LADDER:
        trial = build_arg_specs(func_op, grid_env, baseline, seed=seed,
                                grid_cap=grid_cap, int_value=int_value)
        args = [spec.materialize() for spec in trial]
        try:
            run_baseline(args)
        except (InterpreterError, IndexError) as error:
            reason = "step budget exceeded" if _budget_exceeded(error) \
                else str(error)
            if "out-of-bounds" not in str(error):
                break
            continue
        specs, baseline_args = trial, args
        break
    if specs is None:
        report.baseline_note = reason
        report.verdicts = [
            AlternativeVerdict(desc, SKIPPED,
                               "baseline not executable: %s" % reason)
            for desc in descs]
        return report

    # coarsening legally reorders threads and blocks, so equivalence is
    # only checkable when the baseline itself is order-insensitive: run it
    # again with reversed parallel order and demand identical results
    # (seeded scalars can alias indices that are distinct in real launches,
    # manufacturing races the original program does not have)
    reversed_args = [spec.materialize() for spec in specs]
    try:
        run_baseline(reversed_args, reverse=True)
        race = _snapshot_diff(specs, baseline_args, reversed_args,
                              rtol, atol)
    except (InterpreterError, IndexError) as error:
        race = None
        report.baseline_note = "baseline not order-insensitive: %s" % error
    if race is not None:
        report.baseline_note = ("baseline is order-dependent under seeded "
                                "inputs (data race on %s)" % race.buffer)
    if report.baseline_note:
        report.verdicts = [
            AlternativeVerdict(desc, SKIPPED, report.baseline_note)
            for desc in descs]
        return report

    for index, desc in enumerate(descs):
        args = [spec.materialize() for spec in specs]
        try:
            interp = Interpreter(
                module, max_steps=max_steps,
                alternative_selector=lambda op, index=index: index)
            interp.run_func(label, args)
        except ConvergenceError as error:
            report.verdicts.append(AlternativeVerdict(
                desc, ERROR, "barrier divergence: %s" % error))
            continue
        except (InterpreterError, IndexError) as error:
            if _budget_exceeded(error):
                report.verdicts.append(AlternativeVerdict(
                    desc, SKIPPED, "step budget exceeded"))
            else:
                report.verdicts.append(AlternativeVerdict(
                    desc, ERROR, str(error)))
            continue
        diff = _snapshot_diff(specs, baseline_args, args, rtol, atol)
        if diff is None:
            report.verdicts.append(AlternativeVerdict(desc, OK))
        else:
            report.verdicts.append(AlternativeVerdict(
                desc, DIVERGED, diff=diff))
    return report


# -- source-mode validation ----------------------------------------------------


def validate_source(source: str, kernel: Optional[str],
                    grid: Sequence[int],
                    block: Sequence[int],
                    configs: Optional[Sequence[Dict[str, object]]] = None,
                    seed: int = 0,
                    rtol: float = DEFAULT_RTOL,
                    atol: float = DEFAULT_ATOL,
                    max_steps: int = DEFAULT_MAX_STEPS,
                    grid_cap: int = DEFAULT_GRID_CAP) -> ValidationReport:
    """Compile ``kernel`` (``None``: the source's first kernel), generate
    all coarsening alternatives, and validate each against the
    untransformed baseline."""
    from ..autotune.search import default_configs
    from ..autotune.tdo import materialize_every_plan
    from ..pipeline import build_launch_wrapper

    if configs is None:
        configs = default_configs()
    built = build_launch_wrapper(source, kernel, len(grid), block)
    # the untransformed snapshot, taken as tune_wrapper takes it
    baseline = built.wrapper.clone({})
    planned, alt = materialize_every_plan(built.wrapper, configs)
    if alt is None:
        report = ValidationReport(label=built.name)
        report.baseline_note = "no legal coarsening configuration: %s" % \
            "; ".join(planned.rejected)
        return report
    return validate_alternatives(baseline, alt, built.env(grid), seed=seed,
                                 rtol=rtol, atol=atol, max_steps=max_steps,
                                 grid_cap=grid_cap)


# -- benchmark-mode validation -------------------------------------------------


#: the default coarsening configs exercised by ``repro validate <bench>``
BENCH_CONFIGS: Tuple[Dict[str, object], ...] = (
    {"thread_total": 2},
    {"thread_total": 4},
    {"block_total": 2},
    {"block_total": 4},
)


def validate_benchmark(name: str, arch,
                       configs: Optional[Sequence[Dict[str, object]]] = None,
                       size: Optional[int] = None, seed: int = 0,
                       rtol: float = DEFAULT_RTOL,
                       atol: float = DEFAULT_ATOL) -> ValidationReport:
    """Differentially validate a benchsuite entry end to end.

    The benchmark's full host driver runs once on the untransformed tier
    (``polygeist-noopt``) and once per coarsening config
    (``tier="polygeist"`` pinned to that single config); outputs must
    match. Configs the tuner could not apply to any kernel (illegal
    coarsening falls back to the untransformed kernel) are reported as
    skipped rather than trivially passing. A baseline that fails with one
    of :data:`EXECUTION_ERRORS` leaves ``baseline_note`` set and no
    verdicts; any other exception propagates.
    """
    from ..benchsuite import get_benchmark
    from ..pipeline import Program
    from ..runtime import GPURuntime

    bench = get_benchmark(name)
    size = size or bench.verify_size
    if configs is None:
        configs = BENCH_CONFIGS
    inputs = bench.build_inputs(size, seed)

    def run(tier, config):
        program = Program(bench.source, arch=arch, tier=tier,
                          autotune_configs=[config] if config else None)
        runtime = GPURuntime(arch)
        copied = {k: np.array(v) for k, v in inputs.items()}
        outputs = bench.run_gpu(program, runtime, copied, size)
        return outputs, program

    report = ValidationReport(label=name)
    try:
        baseline, _ = run("polygeist-noopt", None)
    except EXECUTION_ERRORS as error:  # nothing to compare against
        report.baseline_note = "%s: %s" % (type(error).__name__, error)
        return report

    for config in configs:
        desc = ", ".join("%s=%s" % kv for kv in sorted(config.items()))
        try:
            outputs, program = run("polygeist", config)
        except EXECUTION_ERRORS as error:
            report.verdicts.append(AlternativeVerdict(
                desc, ERROR, "%s: %s" % (type(error).__name__, error)))
            continue
        applied = any(
            outcome.selected_config
            for outcome in program.tuning_outcomes.values())
        diff = None
        for position, key in enumerate(sorted(baseline)):
            diff = compare_buffers(np.asarray(baseline[key]),
                                   np.asarray(outputs[key]), key,
                                   position, rtol=rtol, atol=atol)
            if diff is not None:
                break
        if diff is not None:
            report.verdicts.append(AlternativeVerdict(
                desc, DIVERGED, diff=diff))
        elif not applied:
            report.verdicts.append(AlternativeVerdict(
                desc, SKIPPED, "config not applied to any kernel"))
        else:
            report.verdicts.append(AlternativeVerdict(desc, OK))
    return report
