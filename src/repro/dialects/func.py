"""The ``func`` dialect: functions, calls, and returns."""

from __future__ import annotations

from typing import List, Sequence

from ..ir import (Builder, FunctionType, Operation, Type, Value,
                  register_op_verifier, single_block_region)

FUNC = "func.func"
CALL = "func.call"
RETURN = "func.return"

#: attribute marking CUDA __global__ kernels
KERNEL_ATTR = "gpu.kernel"


def func(builder: Builder, sym_name: str, function_type: FunctionType,
         arg_names: Sequence[str] = (), kernel: bool = False) -> Operation:
    """Create a function with an empty entry block."""
    region = single_block_region(list(function_type.inputs), list(arg_names))
    attributes = {"sym_name": sym_name, "function_type": function_type}
    if kernel:
        attributes[KERNEL_ATTR] = True
    return builder.create(FUNC, [], [], attributes, [region])


def return_(builder: Builder, values: Sequence[Value] = ()) -> Operation:
    return builder.create(RETURN, list(values), [])


def call(builder: Builder, callee: str, args: Sequence[Value],
         result_types: Sequence[Type]) -> Operation:
    return builder.create(CALL, list(args), list(result_types),
                          {"callee": callee})


def func_type(op: Operation) -> FunctionType:
    return op.attr("function_type")


def func_name(op: Operation) -> str:
    return op.attr("sym_name")


def is_kernel(op: Operation) -> bool:
    return bool(op.attr(KERNEL_ATTR))


def entry_block(op: Operation):
    return op.body_block()


def func_args(op: Operation) -> List[Value]:
    return list(op.body_block().args)


@register_op_verifier(FUNC)
def _verify_func(op: Operation) -> None:
    type_ = op.attr("function_type")
    if not isinstance(type_, FunctionType):
        raise ValueError("func.func needs a function_type attribute")
    block = op.body_block()
    if tuple(a.type for a in block.args) != type_.inputs:
        raise ValueError("func.func entry block args mismatch signature")
