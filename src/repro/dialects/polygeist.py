"""The ``polygeist`` dialect: the paper's custom operations.

* ``polygeist.gpu_wrapper`` — a region-carrying op inlining a GPU kernel into
  host code (Fig. 5 of the paper). Its region contains the ``scf.parallel``
  over blocks, which contains the ``scf.parallel`` over threads. Host/device
  code motion may cross the wrapper boundary, but parallel/barrier constructs
  may not.
* ``polygeist.barrier`` — barrier synchronization (``__syncthreads``); its
  operands are the induction variables of the parallel loop(s) whose
  iterations it synchronizes (Fig. 2).
* ``polygeist.alternatives`` — compile-time multi-versioning (Fig. 12): each
  region is a semantically equivalent implementation; later pipeline stages
  prune and ultimately select exactly one.
"""

from __future__ import annotations

from typing import List, Sequence

from ..ir import (Block, Builder, Operation, Region, Value,
                  register_op_verifier, single_block_region)

GPU_WRAPPER = "polygeist.gpu_wrapper"
BARRIER = "polygeist.barrier"
ALTERNATIVES = "polygeist.alternatives"

#: attribute on gpu_wrapper: name of the original CUDA kernel
KERNEL_NAME_ATTR = "kernel_name"
#: attribute on alternatives: one descriptor string per region
DESCS_ATTR = "alternatives.descs"


def gpu_wrapper(builder: Builder, kernel_name: str = "") -> Operation:
    """Create an empty GPU wrapper region in host code."""
    return builder.create(GPU_WRAPPER, [], [],
                          {KERNEL_NAME_ATTR: kernel_name},
                          [single_block_region()])


def barrier(builder: Builder, ivs: Sequence[Value]) -> Operation:
    """A barrier synchronizing the parallel iterations producing ``ivs``."""
    return builder.create(BARRIER, list(ivs), [])


def alternatives(builder: Builder, regions: Sequence[Region],
                 descs: Sequence[str]) -> Operation:
    if len(regions) != len(descs):
        raise ValueError("one descriptor per alternative region required")
    return builder.create(ALTERNATIVES, [], [], {DESCS_ATTR: list(descs)},
                          regions)


def wrapper_body(op: Operation) -> Block:
    return op.body_block()


def wrapper_kernel_name(op: Operation) -> str:
    return op.attr(KERNEL_NAME_ATTR, "")


def barrier_ivs(op: Operation) -> List[Value]:
    return op.operands


def alternative_descs(op: Operation) -> List[str]:
    return list(op.attr(DESCS_ATTR, []))


def find_gpu_wrappers(root: Operation) -> List[Operation]:
    return root.ops_matching(GPU_WRAPPER)


def find_barriers(root: Operation) -> List[Operation]:
    return root.ops_matching(BARRIER)


def barrier_syncs_loop(barrier_op: Operation, parallel_op: Operation) -> bool:
    """True if the barrier synchronizes iterations of ``parallel_op``.

    A barrier synchronizes a parallel loop when any of its operands is an
    induction variable of that loop (the paper's encoding, Fig. 2).
    """
    ivs = set()
    for arg in parallel_op.body_block().args:
        ivs.add(arg)
    return any(operand in ivs for operand in barrier_op.operands)


@register_op_verifier(BARRIER)
def _verify_barrier(op: Operation) -> None:
    from ..ir import BlockArgument
    for operand in op.operands:
        if not isinstance(operand, BlockArgument):
            raise ValueError(
                "polygeist.barrier operands must be parallel loop ivs")


@register_op_verifier(ALTERNATIVES)
def _verify_alternatives(op: Operation) -> None:
    descs = op.attr(DESCS_ATTR)
    if not isinstance(descs, (list, tuple)) or len(descs) != len(op.regions):
        raise ValueError("alternatives.descs must match region count")
    if not op.regions:
        raise ValueError("polygeist.alternatives needs at least one region")
