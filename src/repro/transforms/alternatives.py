"""Alternative code paths: compile-time multi-versioning (§VI, Fig. 12).

Each coarsening configuration is applied to its own clone of the kernel's
parallel nest (the last one to the nest itself); the coarsened nests
become regions of one ``polygeist.alternatives`` op. Later pipeline stages prune regions (shared-memory limits, register
spills) and finally TDO selects exactly one, which
:func:`select_alternative` splices back in place.

Generation is two-phase so its cost scales with *survivors*, not
candidates: :func:`plan_coarsening_alternatives` legality-checks every
config and predicts its post-coarsening shared-memory footprint without
cloning anything, and :meth:`PlannedAlternatives.materialize` builds full
IR clones only for the configs that survive the early filters. Callers
that need every region (sweeps, differential validation) materialize all
plans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..analysis.shared_memory import shared_allocas, shared_bytes
from ..dialects import polygeist
from ..ir import Operation, Region, single_block_region, unlink_subtree
from .coarsen import (CoarsenError, CoarsenResult, block_parallels,
                      coarsen_wrapper, plan_coarsening, thread_parallel)


@dataclass
class AlternativeInfo:
    """Metadata about one generated (or planned) alternative region."""

    index: int
    desc: str
    config: Dict[str, object]
    result: CoarsenResult
    #: predicted static shared memory per block after coarsening, in bytes
    shared_bytes: int = 0


def _shared_alloca_split(main: Operation) -> Tuple[int, int]:
    """Static shared bytes under the main block loop, split into
    (outside the thread loop, inside the thread loop).

    Block coarsening replicates *everything* under the block loop, thread
    coarsening only the thread loop's body — and only the first thread
    loop, which is exactly the one :func:`thread_parallel` resolves.
    """
    try:
        threads = thread_parallel(main)
    except CoarsenError:
        return shared_bytes(shared_allocas(main)), 0
    # one walk: the thread loop's subtree is skipped, then walked alone
    return (shared_bytes(shared_allocas(main, threads)),
            shared_bytes(shared_allocas(threads)))


@dataclass
class PlannedAlternatives:
    """Legality-checked coarsening candidates, not yet materialized."""

    wrapper: Operation
    alternatives: List[AlternativeInfo] = field(default_factory=list)
    rejected: List[str] = field(default_factory=list)
    rejected_configs: List[tuple] = field(default_factory=list)
    #: wrapper clones built so far: one per materialized alternative but
    #: the last, which coarsens the wrapper's own body
    clones_materialized: int = 0
    _consumed: bool = field(default=False, repr=False)

    def materialize(self, indices: Iterable[int]) -> Operation:
        """Build the alternatives op holding exactly ``indices``' regions.

        Coarsens one region per index (in the given order): a clone of the
        wrapper for each index but the last, and the wrapper's own body,
        moved into the alternatives op, for the last. The wrapper's body
        is then just that op, which is returned. One-shot: the wrapper
        body is consumed.
        """
        if self._consumed:
            raise ValueError("alternatives were already materialized")
        self._consumed = True
        wrapper = self.wrapper
        indices = list(indices)
        regions: List[Region] = []
        descs: List[str] = []
        for position, index in enumerate(indices):
            info = self.alternatives[index]
            if position + 1 < len(indices):
                target = wrapper.clone({})
                self.clones_materialized += 1
            else:
                target = wrapper
            result = coarsen_wrapper(target, **info.config)
            if result.describe() != info.desc:
                raise AssertionError(
                    "coarsening plan promised %s but materialization "
                    "produced %s" % (info.desc, result.describe()))
            info.result = result
            regions.append(target.region(0))
            descs.append(info.desc)
        if regions:
            # the last region is the wrapper's own: give it a fresh body
            wrapper.regions = []
            wrapper.add_region(single_block_region())
        else:
            body = wrapper.body_block()
            unlink_subtree(body.ops)
            body.ops = []
        alt = Operation(polygeist.ALTERNATIVES, [], [],
                        {polygeist.DESCS_ATTR: descs}, regions)
        wrapper.body_block().append(alt)
        return alt


def plan_coarsening_alternatives(
        wrapper: Operation,
        configs: Sequence[Dict[str, object]]) -> PlannedAlternatives:
    """Legality-check every config against ``wrapper`` without cloning.

    Partitions the configs into legal plans (with the description
    coarsening will produce) and rejections (with the legality error),
    and predicts each plan's shared-memory footprint for the early
    pruning filter. The wrapper is left untouched until
    :meth:`PlannedAlternatives.materialize`. Configs whose coarsening is
    illegal are recorded in ``rejected`` and skipped.
    """
    if wrapper.name != polygeist.GPU_WRAPPER:
        raise ValueError("expected a polygeist.gpu_wrapper")
    planned = PlannedAlternatives(wrapper)
    layout: Optional[Tuple[int, int]] = None
    for config in configs:
        try:
            result = plan_coarsening(wrapper, **config)
        except CoarsenError as error:
            planned.rejected.append("%r: %s" % (config, error))
            planned.rejected_configs.append((dict(config), str(error)))
            continue
        if layout is None:
            # a legal plan implies exactly one main block loop
            layout = _shared_alloca_split(
                block_parallels(wrapper, include_epilogues=False)[0])
        outside, inside = layout
        usage = result.total_block * (outside +
                                      result.total_thread * inside)
        planned.alternatives.append(
            AlternativeInfo(len(planned.alternatives), result.describe(),
                            dict(config), result, shared_bytes=usage))
    return planned


def prune_alternatives(alt: Operation, keep: Sequence[int]) -> None:
    """Drop all regions except those at the given indices (order kept)."""
    keep_set = sorted(set(keep))
    if not keep_set:
        raise ValueError("cannot prune every alternative")
    descs = polygeist.alternative_descs(alt)
    kept = [alt.regions[i] for i in keep_set]
    dropped = [region for region in alt.regions if region not in kept]
    # a dropped region's ops still sit in the use lists of the values
    # they read; unlink them as erasing the region would, and empty the
    # region so it holds no cycle back to them
    unlink_subtree([op for region in dropped
                    for block in region.blocks for op in block.ops])
    for region in dropped:
        for block in region.blocks:
            block.ops = []
        region.blocks = []
    alt.regions = kept
    alt.attributes[polygeist.DESCS_ATTR] = [descs[i] for i in keep_set]


def select_alternative(alt: Operation, index: int) -> None:
    """Replace the alternatives op with the contents of region ``index``."""
    if not 0 <= index < len(alt.regions):
        raise IndexError("alternative %d out of range" % index)
    chosen = alt.body_block(index)
    parent = alt.parent
    position = parent.index_of(alt)
    moved = list(chosen.ops)
    for op in moved:
        op.parent = None
    chosen.ops = []
    for offset, op in enumerate(moved):
        parent.insert(position + offset, op)
    alt.erase()


def find_alternatives(root: Operation) -> List[Operation]:
    return root.ops_matching(polygeist.ALTERNATIVES)
