"""Thread and block coarsening as granularity variation (§V of the paper).

Both are built on :func:`~repro.transforms.unroll_interleave.unroll_and_interleave`:

* **thread coarsening** unrolls the thread-level ``scf.parallel`` with
  coalescing-friendly indexing; factors must divide the block extent and the
  transformation is always legal (§V-A);
* **block coarsening** unrolls the block-level ``scf.parallel`` with
  contiguous indexing, duplicating shared-memory allocations and emitting an
  epilogue kernel for non-divisor factors (§V-B, §V-C). It is illegal when
  thread barriers sit under block-dependent control flow.

Multi-dimensional *total* factors are balanced across dimensions with the
paper's strategy (footnote 4): 16 → (4, 2, 2), 6 → (3, 2, 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..dialects import arith, polygeist, scf
from ..ir import Operation
from .unroll_interleave import (IllegalUnroll, check_unroll_legality,
                                unroll_and_interleave)


class CoarsenError(ValueError):
    pass


@dataclass
class CoarsenResult:
    """What a coarsening request actually did."""

    block_factors: Tuple[int, ...] = ()
    thread_factors: Tuple[int, ...] = ()
    epilogues: int = 0
    notes: List[str] = field(default_factory=list)

    @property
    def total_block(self) -> int:
        return _product(self.block_factors)

    @property
    def total_thread(self) -> int:
        return _product(self.thread_factors)

    def describe(self) -> str:
        return "block=%s thread=%s" % (
            "x".join(map(str, self.block_factors)) or "1",
            "x".join(map(str, self.thread_factors)) or "1")


def _product(values: Sequence[int]) -> int:
    result = 1
    for value in values:
        result *= value
    return result


def _prime_factors(n: int) -> List[int]:
    factors = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors.append(d)
            n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return sorted(factors, reverse=True)


def balance_factors(total: int, extents: Sequence[Optional[int]],
                    require_divisors: bool = False) -> List[int]:
    """Distribute ``total`` across dimensions (paper footnote 4).

    Dimensions of extent 1 are skipped. With ``require_divisors`` a prime is
    only placed on a dimension whose extent stays divisible; primes that fit
    nowhere are dropped (reducing the effective total).
    """
    factors = [1] * len(extents)
    usable = [d for d, extent in enumerate(extents) if extent != 1]
    if not usable:
        return factors
    for prime in _prime_factors(total):
        candidates = []
        for d in usable:
            if require_divisors:
                extent = extents[d]
                if extent is None or extent % (factors[d] * prime) != 0:
                    continue
            candidates.append(d)
        if not candidates:
            continue
        best = min(candidates, key=lambda d: (factors[d], d))
        factors[best] *= prime
    return factors


# -- structure helpers -----------------------------------------------------------


def block_parallels(wrapper: Operation,
                    include_epilogues: bool = True) -> List[Operation]:
    """The block-level parallel loops directly inside a gpu_wrapper."""
    found = [op for op in wrapper.body_block().ops
             if scf.is_gpu_blocks(op)]
    if not include_epilogues:
        found = [op for op in found if not op.attr("coarsen.epilogue")]
    return found


def block_parallels_in_region(region) -> List[Operation]:
    """Block-level parallel loops at the top level of a region (used for
    the regions of a polygeist.alternatives op)."""
    return [op for op in region.entry.ops if scf.is_gpu_blocks(op)]


def thread_parallel(block_parallel: Operation) -> Operation:
    """The thread-level parallel nested in a block loop."""
    stack = [block_parallel.body_block()]
    while stack:
        block = stack.pop()
        for op in block.ops:
            if scf.is_gpu_threads(op):
                return op
            for region in op.regions:
                stack.extend(region.blocks)
    raise CoarsenError("no thread-level parallel found in block loop")


def parallel_extents(parallel: Operation) -> List[Optional[int]]:
    """Static extents per dimension (None when dynamic)."""
    extents: List[Optional[int]] = []
    for lb, ub in zip(scf.parallel_lower_bounds(parallel),
                      scf.parallel_upper_bounds(parallel)):
        lb_const = arith.constant_value(lb)
        ub_const = arith.constant_value(ub)
        if lb_const is None or ub_const is None:
            extents.append(None)
        else:
            extents.append(ub_const - lb_const)
    return extents


# -- coarsening entry points --------------------------------------------------------


def thread_coarsen(wrapper: Operation,
                   factors: Sequence[int]) -> CoarsenResult:
    """Apply per-dimension thread coarsening to every block loop (main and
    epilogues) of a gpu_wrapper."""
    result = CoarsenResult(thread_factors=tuple(factors))
    for block_loop in block_parallels(wrapper):
        threads = thread_parallel(block_loop)
        current = threads
        for dim, factor in enumerate(factors):
            if factor == 1:
                continue
            if dim >= scf.parallel_num_dims(current):
                raise CoarsenError(
                    "thread dimension %d out of range" % dim)
            try:
                current, _ = unroll_and_interleave(current, dim, factor,
                                                   style="thread")
            except IllegalUnroll as error:
                raise CoarsenError("thread coarsening failed: %s" % error)
    return result


def block_coarsen(wrapper: Operation,
                  factors: Sequence[int]) -> CoarsenResult:
    """Apply per-dimension block coarsening to the main block loop."""
    result = CoarsenResult(block_factors=tuple(factors))
    mains = block_parallels(wrapper, include_epilogues=False)
    if len(mains) != 1:
        raise CoarsenError("expected exactly one main block loop, found %d"
                           % len(mains))
    current = mains[0]
    for dim, factor in enumerate(factors):
        if factor == 1:
            continue
        if dim >= scf.parallel_num_dims(current):
            raise CoarsenError("block dimension %d out of range" % dim)
        try:
            current, epilogue = unroll_and_interleave(current, dim, factor,
                                                      style="block")
        except IllegalUnroll as error:
            raise CoarsenError("block coarsening failed: %s" % error)
        if epilogue is not None:
            result.epilogues += 1
    return result


def _resolve_factors(wrapper: Operation,
                     block_factors: Optional[Sequence[int]],
                     thread_factors: Optional[Sequence[int]],
                     block_total: Optional[int],
                     thread_total: Optional[int]):
    """Check a coarsening request against ``wrapper`` and turn totals
    into per-dimension factors (footnote 4).

    Returns ``(main block loop, result)``; the result holds the factors
    and the notes on totals that balancing reduced. The one place
    :func:`coarsen_wrapper` and :func:`plan_coarsening` decide factors,
    so a plan and its materialization agree.
    """
    if wrapper.name != polygeist.GPU_WRAPPER:
        raise CoarsenError("coarsen_wrapper expects a polygeist.gpu_wrapper")
    mains = block_parallels(wrapper, include_epilogues=False)
    if len(mains) != 1:
        raise CoarsenError("wrapper must hold exactly one block loop")
    main = mains[0]
    result = CoarsenResult()
    if block_total is not None:
        if block_factors is not None:
            raise CoarsenError("give block_factors or block_total, not both")
        block_factors = balance_factors(block_total, parallel_extents(main))
        if _product(block_factors) != block_total:
            result.notes.append(
                "block total %d reduced to %d by dimension limits" %
                (block_total, _product(block_factors)))
    if thread_total is not None:
        if thread_factors is not None:
            raise CoarsenError(
                "give thread_factors or thread_total, not both")
        thread_factors = balance_factors(
            thread_total, parallel_extents(thread_parallel(main)),
            require_divisors=True)
        if _product(thread_factors) != thread_total:
            result.notes.append(
                "thread total %d reduced to %d by divisibility" %
                (thread_total, _product(thread_factors)))
    result.block_factors = tuple(block_factors or ())
    result.thread_factors = tuple(thread_factors or ())
    return main, result


def is_uncoarsened(config: Dict[str, object]) -> bool:
    """Whether the coarsening kwargs ``config`` leave the kernel as it is.

    True when every total and every per-dimension factor is 1, however
    the config spells it: ``{}``, ``block_total=1 thread_total=1``, or
    ``block_factors=(1, 1)``. The test every caller uses to find the
    uncoarsened baseline among a sweep's configs, whatever the kernel's
    rank (a 2-D kernel's baseline describes itself as ``block=1x1
    thread=1x1``).
    """
    factors = [config.get("block_total"), config.get("thread_total")]
    factors += list(config.get("block_factors") or ())
    factors += list(config.get("thread_factors") or ())
    return all(int(factor) == 1 for factor in factors if factor is not None)


def coarsen_wrapper(wrapper: Operation,
                    block_factors: Optional[Sequence[int]] = None,
                    thread_factors: Optional[Sequence[int]] = None,
                    block_total: Optional[int] = None,
                    thread_total: Optional[int] = None) -> CoarsenResult:
    """Combined coarsening of one gpu_wrapper.

    Either explicit per-dimension factors or a *total* factor (balanced
    across dimensions, footnote 4) may be given for each level. Block
    coarsening runs first (outer loop), then thread coarsening is applied
    inside every resulting block loop including epilogues.
    """
    _, result = _resolve_factors(wrapper, block_factors, thread_factors,
                                 block_total, thread_total)
    if result.total_block > 1:
        result.epilogues = block_coarsen(
            wrapper, result.block_factors).epilogues
    if result.total_thread > 1:
        thread_coarsen(wrapper, result.thread_factors)
    return result


# -- planning (lazy alternative materialization) ------------------------------


def _plan_unrolls(parallel_op: Operation, factors: Sequence[int],
                  style: str) -> int:
    """Mirror the per-dimension :func:`unroll_and_interleave` decision
    sequence of one coarsening level without building any IR.

    Reads only the *original* loop: the per-dimension bound checks consume
    value objects the eager transform carries over unchanged (each
    dimension is unrolled at most once, and an unroll only replaces the
    upper bound of its own dimension), and barrier-placement legality is
    invariant under the preceding uniform unrolls — so one check on the
    original loop decides every dimension. Raises exactly the errors the
    eager path raises, in the same order, and returns the number of
    epilogue loops the eager path would emit.
    """
    level = "block" if style == "block" else "thread"
    num_dims = scf.parallel_num_dims(parallel_op)
    lbs = scf.parallel_lower_bounds(parallel_op)
    ubs = scf.parallel_upper_bounds(parallel_op)
    steps = scf.parallel_steps(parallel_op)
    legality_checked = False
    epilogues = 0
    for dim, factor in enumerate(factors):
        if factor == 1:
            continue
        if dim >= num_dims:
            raise CoarsenError("%s dimension %d out of range" % (level, dim))
        if factor < 1:
            # unroll_and_interleave raises a plain ValueError here, which
            # the eager path lets propagate uncaught — mirror that
            raise ValueError("factor must be >= 1")
        if not legality_checked:
            reason = check_unroll_legality(
                parallel_op, trust_convergence=style.startswith("thread"))
            if reason is not None:
                raise CoarsenError("%s coarsening failed: %s"
                                   % (level, reason))
            legality_checked = True
        if arith.constant_value(lbs[dim]) != 0 or \
                arith.constant_value(steps[dim]) != 1:
            raise CoarsenError(
                "%s coarsening failed: only lb=0, step=1 parallel loops "
                "are supported" % level)
        ub_const = arith.constant_value(ubs[dim])
        if style == "thread":
            if ub_const is None:
                raise CoarsenError("thread coarsening failed: thread "
                                   "coarsening needs a constant extent")
            if ub_const % factor != 0:
                raise CoarsenError(
                    "thread coarsening failed: thread factor %d does not "
                    "divide extent %d" % (factor, ub_const))
        else:
            if ub_const is not None:
                if ub_const // factor == 0:
                    raise CoarsenError(
                        "block coarsening failed: block factor %d exceeds "
                        "grid extent %d" % (factor, ub_const))
                if ub_const % factor != 0:
                    epilogues += 1
            else:
                epilogues += 1
    return epilogues


def plan_coarsening(wrapper: Operation,
                    block_factors: Optional[Sequence[int]] = None,
                    thread_factors: Optional[Sequence[int]] = None,
                    block_total: Optional[int] = None,
                    thread_total: Optional[int] = None) -> CoarsenResult:
    """What :func:`coarsen_wrapper` *would* do, decided without a clone.

    Returns the same :class:`CoarsenResult` (factors, epilogue count,
    balancing notes) a real ``coarsen_wrapper(wrapper.clone({}), ...)``
    would return, and raises the same errors with the same messages, but
    mutates nothing. This is what lets alternative generation
    legality-check every candidate config before materializing a single
    clone (§VI: filter configs, then compile survivors).
    """
    main, result = _resolve_factors(wrapper, block_factors, thread_factors,
                                    block_total, thread_total)
    if result.total_block > 1:
        result.epilogues = _plan_unrolls(main, result.block_factors,
                                         "block")
    if result.total_thread > 1:
        # the eager path coarsens threads inside the (by now
        # block-coarsened) main loop and its epilogues; the jammed main
        # thread loop keeps copy-0 bounds and the epilogues are clones,
        # so checking the original thread loop decides all of them
        _plan_unrolls(thread_parallel(main), result.thread_factors,
                      "thread")
    return result
