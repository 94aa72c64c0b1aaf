"""Kernel outlining: gpu_wrapper regions → standalone kernel functions.

After high-level optimization the paper outlines each kernel and hands it to
the target-specific backend (§III). Here outlining produces a ``func.func``
(marked as a kernel) whose arguments are the values the wrapper captured
from host code, and replaces the wrapper with a ``func.call``.
"""

from __future__ import annotations

from typing import List

from ..analysis.uniformity import _external_operands
from ..dialects import func as func_d
from ..dialects import polygeist
from ..ir import Builder, FunctionType, Module, Operation


def outline_gpu_wrappers(module: Module) -> List[str]:
    """Outline every gpu_wrapper in the module; returns new kernel names."""
    outlined: List[str] = []
    counter = 0
    for f in list(module.funcs):
        wrappers = polygeist.find_gpu_wrappers(f)
        for wrapper in wrappers:
            name = "%s_kernel_%d" % (
                wrapper.attr(polygeist.KERNEL_NAME_ATTR) or "anon", counter)
            counter += 1
            _outline_one(module, wrapper, name)
            outlined.append(name)
    return outlined


def _outline_one(module: Module, wrapper: Operation, name: str) -> None:
    captured = sorted(_external_operands(wrapper),
                      key=lambda v: (v.name_hint, id(v)))
    # deterministic ordering: keep stable by first use
    captured = _order_by_first_use(wrapper, captured)
    arg_types = tuple(v.type for v in captured)
    builder = Builder(module.body)
    kernel = func_d.func(builder, name, FunctionType(arg_types, ()),
                         [v.name_hint or "arg" for v in captured],
                         kernel=True)
    kernel_block = kernel.body_block()
    value_map = dict(zip(captured, kernel_block.args))
    clone = wrapper.clone(value_map)
    kernel_block.append(clone)
    call_builder = Builder(wrapper.parent, wrapper.parent.index_of(wrapper))
    func_d.call(call_builder, name, captured, [])
    wrapper.erase()
    func_d.return_(Builder(kernel_block))


def _order_by_first_use(wrapper: Operation, captured) -> List:
    order = []
    seen = set()

    def visit(op: Operation) -> None:
        for operand in op.operands:
            if operand in captured_set and id(operand) not in seen:
                seen.add(id(operand))
                order.append(operand)

    captured_set = set(captured)
    wrapper.walk_preorder(visit)
    # values used only via regions of wrapper itself
    for value in captured:
        if id(value) not in seen:
            order.append(value)
    return order
