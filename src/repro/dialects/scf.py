"""The ``scf`` dialect: structured control flow.

``scf.parallel`` is the centerpiece of the Polygeist-GPU representation: GPU
blocks and threads are nested multi-dimensional parallel loops, and the
unroll-and-interleave transformation of the paper operates directly on them.

Op encodings:

* ``scf.for``      operands ``[lb, ub, step, *iter_inits]``; one region whose
  block args are ``[iv, *iter_args]``; terminated by ``scf.yield``.
* ``scf.if``       operands ``[cond]``; two regions (then/else) whose blocks
  have no args; both terminated by ``scf.yield``.
* ``scf.while``    operands ``[*inits]``; region 0 ("before") terminated by
  ``scf.condition(cond, *forwarded)``, region 1 ("after") terminated by
  ``scf.yield(*next_inits)``.
* ``scf.parallel`` operands ``[*lbs, *ubs, *steps]`` with attribute
  ``num_dims``; block args are the induction variables; attribute
  ``gpu.kind`` is ``"blocks"``/``"threads"`` for loops that came from a GPU
  kernel launch structure.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from ..ir import (Block, Builder, INDEX, Operation, Type, Value,
                  register_op_verifier, single_block_region)

FOR = "scf.for"
IF = "scf.if"
WHILE = "scf.while"
PARALLEL = "scf.parallel"
YIELD = "scf.yield"
CONDITION = "scf.condition"

#: attribute marking what a parallel loop represents on the GPU
GPU_KIND_ATTR = "gpu.kind"
KIND_BLOCKS = "blocks"
KIND_THREADS = "threads"


# -- creation helpers ---------------------------------------------------------

def yield_(builder: Builder, values: Sequence[Value] = ()) -> Operation:
    return builder.create(YIELD, list(values), [])


def condition(builder: Builder, cond: Value,
              forwarded: Sequence[Value] = ()) -> Operation:
    return builder.create(CONDITION, [cond, *forwarded], [])


def for_(builder: Builder, lb: Value, ub: Value, step: Value,
         iter_inits: Sequence[Value] = (),
         iv_name: str = "i") -> Operation:
    """Create an ``scf.for`` with an empty body block (no terminator yet)."""
    region = single_block_region(
        [INDEX] + [v.type for v in iter_inits],
        [iv_name] + ["iter%d" % i for i in range(len(iter_inits))])
    return builder.create(FOR, [lb, ub, step, *iter_inits],
                          [v.type for v in iter_inits], {}, [region])


def build_for(builder: Builder, lb: Value, ub: Value, step: Value,
              iter_inits: Sequence[Value],
              body: Callable[[Builder, Value, List[Value]], Sequence[Value]],
              iv_name: str = "i") -> Operation:
    """Create an ``scf.for`` and populate its body via a callback.

    ``body(b, iv, iter_args)`` must return the values to yield.
    """
    op = for_(builder, lb, ub, step, iter_inits, iv_name)
    block = op.body_block()
    with builder.at_end(block):
        results = body(builder, block.arg(0), list(block.args[1:]))
        yield_(builder, results)
    return op


def if_(builder: Builder, cond: Value,
        result_types: Sequence[Type] = ()) -> Operation:
    """Create an ``scf.if`` with empty then/else blocks."""
    return builder.create(IF, [cond], list(result_types), {},
                          [single_block_region(), single_block_region()])


def while_(builder: Builder, inits: Sequence[Value],
           result_types: Sequence[Type]) -> Operation:
    before = single_block_region([v.type for v in inits])
    after = single_block_region(list(result_types))
    return builder.create(WHILE, list(inits), list(result_types), {},
                          [before, after])


def parallel(builder: Builder, lbs: Sequence[Value], ubs: Sequence[Value],
             steps: Sequence[Value], gpu_kind: Optional[str] = None,
             iv_names: Sequence[str] = ()) -> Operation:
    """Create a multi-dimensional ``scf.parallel`` with an empty body."""
    num_dims = len(lbs)
    if not (len(ubs) == num_dims and len(steps) == num_dims):
        raise ValueError("parallel bound count mismatch")
    names = list(iv_names) or ["iv%d" % i for i in range(num_dims)]
    region = single_block_region([INDEX] * num_dims, names)
    attributes = {"num_dims": num_dims}
    if gpu_kind is not None:
        attributes[GPU_KIND_ATTR] = gpu_kind
    return builder.create(PARALLEL, [*lbs, *ubs, *steps], [], attributes,
                          [region])


# -- accessors ---------------------------------------------------------------

def parallel_num_dims(op: Operation) -> int:
    return op.attr("num_dims")


def parallel_lower_bounds(op: Operation) -> List[Value]:
    n = parallel_num_dims(op)
    return op.operands[0:n]


def parallel_upper_bounds(op: Operation) -> List[Value]:
    n = parallel_num_dims(op)
    return op.operands[n:2 * n]


def parallel_steps(op: Operation) -> List[Value]:
    n = parallel_num_dims(op)
    return op.operands[2 * n:3 * n]


def parallel_ivs(op: Operation) -> List[Value]:
    return list(op.body_block().args)


def parallel_kind(op: Operation) -> Optional[str]:
    return op.attr(GPU_KIND_ATTR)


def is_gpu_blocks(op: Operation) -> bool:
    return op.name == PARALLEL and parallel_kind(op) == KIND_BLOCKS


def is_gpu_threads(op: Operation) -> bool:
    return op.name == PARALLEL and parallel_kind(op) == KIND_THREADS


def for_iv(op: Operation) -> Value:
    return op.body_block().arg(0)


def for_iter_args(op: Operation) -> List[Value]:
    return list(op.body_block().args[1:])


def if_then_block(op: Operation) -> Block:
    return op.body_block(0)


def if_else_block(op: Operation) -> Block:
    return op.body_block(1)


def terminator(block: Block) -> Optional[Operation]:
    """The trailing yield/condition op of a block, if present."""
    if block.ops and block.ops[-1].name in (YIELD, CONDITION):
        return block.ops[-1]
    return None


# -- verifiers -----------------------------------------------------------------

@register_op_verifier(FOR)
def _verify_for(op: Operation) -> None:
    if op.num_operands < 3:
        raise ValueError("scf.for needs lb, ub, step")
    n_iter = op.num_operands - 3
    if op.num_results != n_iter:
        raise ValueError("scf.for result/iter count mismatch")
    block = op.body_block()
    if len(block.args) != 1 + n_iter:
        raise ValueError("scf.for block arg count mismatch")
    term = terminator(block)
    if term is None or term.name != YIELD or term.num_operands != n_iter:
        raise ValueError("scf.for must end in a matching scf.yield")


@register_op_verifier(IF)
def _verify_if(op: Operation) -> None:
    if op.num_operands != 1:
        raise ValueError("scf.if takes exactly the condition")
    if len(op.regions) != 2:
        raise ValueError("scf.if needs then and else regions")
    for region in op.regions:
        term = terminator(region.entry)
        if term is None or term.num_operands != op.num_results:
            raise ValueError("scf.if branches must yield matching values")


@register_op_verifier(PARALLEL)
def _verify_parallel(op: Operation) -> None:
    n = op.attr("num_dims")
    if n is None or op.num_operands != 3 * n:
        raise ValueError("scf.parallel operand count mismatch")
    if op.num_results != 0:
        raise ValueError("scf.parallel cannot produce results")
    if len(op.body_block().args) != n:
        raise ValueError("scf.parallel induction variable count mismatch")
    kind = op.attr(GPU_KIND_ATTR)
    if kind not in (None, KIND_BLOCKS, KIND_THREADS):
        raise ValueError("bad gpu.kind %r" % kind)


@register_op_verifier(WHILE)
def _verify_while(op: Operation) -> None:
    if len(op.regions) != 2:
        raise ValueError("scf.while needs before and after regions")
    before = terminator(op.body_block(0))
    if before is None or before.name != CONDITION:
        raise ValueError("scf.while before region must end in scf.condition")
    after = terminator(op.body_block(1))
    if after is None or after.name != YIELD:
        raise ValueError("scf.while after region must end in scf.yield")
