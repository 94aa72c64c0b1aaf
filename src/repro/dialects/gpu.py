"""The ``gpu`` dialect: outlined kernels and launches.

After high-level optimization, ``polygeist.gpu_wrapper`` regions are outlined
into ``gpu.func`` kernels referenced by ``gpu.launch_func`` ops — mirroring
the MLIR GPU pipeline the paper lowers through before invoking the
platform-specific backend.
"""

from __future__ import annotations

from typing import List, Sequence

from ..ir import (Builder, FunctionType, Operation, Value,
                  register_op_verifier, single_block_region)

FUNC = "gpu.func"
LAUNCH_FUNC = "gpu.launch_func"
MODULE_END = "gpu.module_end"

#: attributes on gpu.launch_func
KERNEL_ATTR = "kernel"
GRID_DIMS_ATTR = "num_grid_dims"


def gpu_func(builder: Builder, sym_name: str, function_type: FunctionType,
             arg_names: Sequence[str] = ()) -> Operation:
    region = single_block_region(list(function_type.inputs), list(arg_names))
    return builder.create(FUNC, [], [],
                          {"sym_name": sym_name,
                           "function_type": function_type}, [region])


def launch_func(builder: Builder, kernel: str,
                grid: Sequence[Value], block: Sequence[Value],
                args: Sequence[Value]) -> Operation:
    """Launch ``kernel`` over ``grid`` x ``block`` (each up to 3-D)."""
    if not 1 <= len(grid) <= 3 or not 1 <= len(block) <= 3:
        raise ValueError("grid/block must be 1- to 3-dimensional")
    return builder.create(
        LAUNCH_FUNC, [*grid, *block, *args], [],
        {KERNEL_ATTR: kernel, GRID_DIMS_ATTR: len(grid),
         "num_block_dims": len(block)})


def launch_grid(op: Operation) -> List[Value]:
    n = op.attr(GRID_DIMS_ATTR)
    return op.operands[0:n]


def launch_block(op: Operation) -> List[Value]:
    n = op.attr(GRID_DIMS_ATTR)
    m = op.attr("num_block_dims")
    return op.operands[n:n + m]


def launch_args(op: Operation) -> List[Value]:
    n = op.attr(GRID_DIMS_ATTR)
    m = op.attr("num_block_dims")
    return op.operands[n + m:]


@register_op_verifier(LAUNCH_FUNC)
def _verify_launch(op: Operation) -> None:
    if not op.attr(KERNEL_ATTR):
        raise ValueError("gpu.launch_func needs a kernel symbol")
    n = op.attr(GRID_DIMS_ATTR)
    m = op.attr("num_block_dims")
    if n is None or m is None or op.num_operands < n + m:
        raise ValueError("gpu.launch_func operand count mismatch")
