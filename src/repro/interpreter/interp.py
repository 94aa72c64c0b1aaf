"""The IR interpreter.

Execution is generator-based: every region executor is a generator that
yields at ``polygeist.barrier`` ops. A GPU thread loop creates one generator
per thread and runs them round-robin in *waves* — all threads run until they
hit the next barrier (or finish), the barrier's convergence is checked, and
the wave repeats. This realizes exactly the CUDA synchronization semantics
the paper's transformations must preserve, so transformed kernels can be
checked for bit-identical results against the original.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..dialects import arith as arith_d
from ..dialects import func as func_d
from ..dialects import gpu as gpu_d
from ..dialects import polygeist as polygeist_d
from ..dialects import scf as scf_d
from ..ir import (Block, FloatType, IndexType, IntegerType, MemRefType,
                  Module, Operation, Value)
from .memory import MemoryBuffer, Tracer, dtype_for


class InterpreterError(RuntimeError):
    pass


class ConvergenceError(InterpreterError):
    """Threads diverged around a barrier (undefined behaviour on a GPU)."""


def _trunc_div(a: int, b: int) -> int:
    """C-style integer division (truncation toward zero)."""
    if b == 0:
        raise InterpreterError("integer division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _trunc_rem(a: int, b: int) -> int:
    return a - _trunc_div(a, b) * b


def _unsigned_div(a: int, b: int) -> int:
    if b == 0:
        raise InterpreterError("integer division by zero")
    return a // b


def _unsigned_rem(a: int, b: int) -> int:
    if b == 0:
        raise InterpreterError("integer division by zero")
    return a % b


_INT_BINOPS = {
    "arith.addi": lambda a, b: a + b,
    "arith.subi": lambda a, b: a - b,
    "arith.muli": lambda a, b: a * b,
    "arith.divsi": _trunc_div,
    "arith.remsi": _trunc_rem,
    "arith.andi": lambda a, b: a & b,
    "arith.ori": lambda a, b: a | b,
    "arith.xori": lambda a, b: a ^ b,
    "arith.shli": lambda a, b: a << b,
    "arith.shrsi": lambda a, b: a >> b,
    "arith.minsi": min,
    "arith.maxsi": max,
}

#: ops that reinterpret their operands' bit pattern as unsigned; applying
#: them to the signed Python value is wrong as soon as an operand is
#: negative (shrui used to arithmetic-shift, divui/remui to floor-divide
#: the signed value)
_UINT_BINOPS = {
    "arith.divui": _unsigned_div,
    "arith.remui": _unsigned_rem,
    "arith.shrui": lambda a, b: a >> b,
    "arith.minui": min,
    "arith.maxui": max,
}

_FLOAT_BINOPS = {
    "arith.addf": lambda a, b: a + b,
    "arith.subf": lambda a, b: a - b,
    "arith.mulf": lambda a, b: a * b,
    "arith.divf": lambda a, b: a / b,
    "arith.remf": lambda a, b: np.fmod(a, b),
    "arith.minf": lambda a, b: min(a, b),
    "arith.maxf": lambda a, b: max(a, b),
}

_CMP = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
}

_MATH_UNARY = {
    "math.sqrt": np.sqrt,
    "math.rsqrt": lambda x: 1.0 / np.sqrt(x),
    "math.exp": np.exp,
    "math.log": np.log,
    "math.sin": np.sin,
    "math.cos": np.cos,
    "math.tan": np.tan,
    "math.atan": np.arctan,
    "math.tanh": np.tanh,
    "math.absf": np.abs,
    "math.floor": np.floor,
    "math.ceil": np.ceil,
    "math.exp2": np.exp2,
    "math.log2": np.log2,
    "math.log10": np.log10,
}

_MATH_BINARY = {
    "math.powf": np.power,
    "math.atan2": np.arctan2,
    "math.fmod": np.fmod,
}


class _ExecContext:
    """Current GPU position, threaded through the executors."""

    __slots__ = ("block", "thread")

    def __init__(self):
        self.block: Optional[int] = None
        self.thread: Optional[int] = None


def _id_sample(ids: Sequence[int], limit: int = 4) -> str:
    """A compact, bounded rendering of a thread-id list for diagnostics."""
    shown = ", ".join(str(i) for i in ids[:limit])
    if len(ids) > limit:
        shown += ", ... (%d total)" % len(ids)
    return "[%s]" % shown


def _linearize(coords: Sequence[int], extents: Sequence[int]) -> int:
    """Linear id with dimension 0 fastest-varying (CUDA's x dimension)."""
    linear = 0
    stride = 1
    for coord, extent in zip(coords, extents):
        linear += coord * stride
        stride *= max(extent, 1)
    return linear


class Interpreter:
    """Executes functions of a module over numpy-backed buffers."""

    def __init__(self, module: Module, tracer: Optional[Tracer] = None,
                 alternative_selector: Optional[
                     Callable[[Operation], int]] = None,
                 max_steps: Optional[int] = None,
                 reverse_parallel: bool = False):
        self.module = module
        self.tracer = tracer or Tracer()
        self.alternative_selector = alternative_selector
        self.globals: Dict[str, MemoryBuffer] = {}
        self.max_steps = max_steps
        #: run block iterations and thread waves in reversed id order; a
        #: race-free kernel is insensitive to this, so differing results
        #: between the two orders expose an order dependence (data race)
        self.reverse_parallel = reverse_parallel
        self._steps = 0
        #: per-block execution plans (see :func:`_compile_block`); keyed by
        #: block identity, so a caller that mutates IR this interpreter
        #: already ran must call :meth:`forget_plans` before running again
        self._plans: Dict[Block, list] = {}

    def forget_plans(self) -> None:
        """Drop the cached execution plans after the IR was rewritten."""
        self._plans.clear()

    # -- public entry points ---------------------------------------------------

    def run_func(self, name: str, args: Sequence[object]) -> List[object]:
        """Run a ``func.func`` to completion; returns its results."""
        f = self.module.func(name)
        block = f.body_block()
        if len(args) != len(block.args):
            raise InterpreterError(
                "%s expects %d arguments, got %d" %
                (name, len(block.args), len(args)))
        env: Dict[Value, object] = dict(zip(block.args, args))
        return self._drain(self.exec_block(block, env, _ExecContext()))

    def run_block(self, block: Block, args: Sequence[object]
                  ) -> List[object]:
        """Run a block to completion, binding ``args`` to its arguments.

        Unlike :meth:`run_func`, the block need not belong to a function
        registered in the module — the validation harness uses this to
        execute detached clones of a launch wrapper.
        """
        if len(args) != len(block.args):
            raise InterpreterError(
                "block expects %d arguments, got %d" %
                (len(block.args), len(args)))
        env: Dict[Value, object] = dict(zip(block.args, args))
        return self._drain(self.exec_block(block, env, _ExecContext()))

    def global_buffer(self, name: str) -> MemoryBuffer:
        """The backing buffer of a ``memref.global`` (created on demand)."""
        if name not in self.globals:
            decl = self.module.global_(name)
            type_ = decl.attr("type")
            self.globals[name] = MemoryBuffer.for_type(type_, name=name)
        return self.globals[name]

    def _drain(self, gen) -> List[object]:
        try:
            token = next(gen)
        except StopIteration as stop:
            return list(stop.value or [])
        raise InterpreterError(
            "barrier %r reached outside a GPU thread loop" % token)

    # -- block / op execution ----------------------------------------------------

    def exec_block(self, block: Block, env: Dict[Value, object],
                   ctx: _ExecContext):
        """Generator executing a block; returns terminator operand values.

        Blocks are compiled once into a plan of maximal straight-line
        *runs* of regionless ops (each pre-resolved to its handler) plus
        individual control-flow entries. Thread loops and ``scf.for``
        bodies re-execute the same block many times, so the plan pays the
        name-dispatch cost once per block instead of once per dynamic op —
        this is what keeps ``tune --validate`` from spending its time in
        dictionary lookups per interpreted scalar.
        """
        plan = self._plans.get(block)
        if plan is None:
            plan = self._plans[block] = _compile_block(block)
        budget = self.max_steps
        for kind, op, payload in plan:
            if kind == _KIND_RUN:
                if budget is None:
                    for handler, run_op in payload:
                        handler(self, run_op, env, ctx)
                    self._steps += len(payload)
                else:
                    # exact per-op accounting: the budget must trip before
                    # the op past the limit executes, as in the slow path
                    for handler, run_op in payload:
                        self._steps += 1
                        if self._steps > budget:
                            raise InterpreterError(
                                "interpreter step budget exceeded")
                        handler(self, run_op, env, ctx)
                continue
            self._steps += 1
            if budget is not None and self._steps > budget:
                raise InterpreterError("interpreter step budget exceeded")
            if kind == _KIND_TERMINATOR:
                return [env[v] for v in op.operands]
            name = op.name
            if name == scf_d.FOR:
                yield from self._exec_for(op, env, ctx)
            elif name == scf_d.IF:
                yield from self._exec_if(op, env, ctx)
            elif name == scf_d.WHILE:
                yield from self._exec_while(op, env, ctx)
            elif name == scf_d.PARALLEL:
                yield from self._exec_parallel(op, env, ctx)
            elif name == polygeist_d.GPU_WRAPPER:
                yield from self.exec_block(op.body_block(), env, ctx)
            elif name == polygeist_d.BARRIER:
                self.tracer.on_barrier(ctx.block)
                yield op
            elif name == polygeist_d.ALTERNATIVES:
                index = 0
                if self.alternative_selector is not None:
                    index = self.alternative_selector(op)
                yield from self.exec_block(op.body_block(index), env, ctx)
            elif name == func_d.CALL:
                yield from self._exec_call(op, env, ctx)
            elif name == gpu_d.LAUNCH_FUNC:
                yield from self._exec_launch(op, env, ctx)
            else:
                raise InterpreterError("cannot interpret op %r" % name)
        return []

    # -- control flow ------------------------------------------------------------

    def _exec_for(self, op: Operation, env: Dict[Value, object],
                  ctx: _ExecContext):
        lb = int(env[op.operand(0)])
        ub = int(env[op.operand(1)])
        step = int(env[op.operand(2)])
        if step <= 0:
            raise InterpreterError("scf.for needs a positive step")
        iters = [env[v] for v in op.operands[3:]]
        block = op.body_block()
        for i in range(lb, ub, step):
            env[block.arg(0)] = i
            for arg, value in zip(block.args[1:], iters):
                env[arg] = value
            iters = yield from self.exec_block(block, env, ctx)
        for result, value in zip(op.results, iters):
            env[result] = value

    def _exec_if(self, op: Operation, env: Dict[Value, object],
                 ctx: _ExecContext):
        cond = bool(env[op.operand(0)])
        block = op.body_block(0) if cond else op.body_block(1)
        values = yield from self.exec_block(block, env, ctx)
        for result, value in zip(op.results, values):
            env[result] = value

    def _exec_while(self, op: Operation, env: Dict[Value, object],
                    ctx: _ExecContext):
        inits = [env[v] for v in op.operands]
        before, after = op.body_block(0), op.body_block(1)
        while True:
            for arg, value in zip(before.args, inits):
                env[arg] = value
            cond_values = yield from self.exec_block(before, env, ctx)
            cond, forwarded = cond_values[0], cond_values[1:]
            if not cond:
                for result, value in zip(op.results, forwarded):
                    env[result] = value
                return
            for arg, value in zip(after.args, forwarded):
                env[arg] = value
            inits = yield from self.exec_block(after, env, ctx)

    # -- parallel execution ----------------------------------------------------

    def _parallel_space(self, op: Operation, env: Dict[Value, object]):
        n = scf_d.parallel_num_dims(op)
        lbs = [int(env[v]) for v in scf_d.parallel_lower_bounds(op)]
        ubs = [int(env[v]) for v in scf_d.parallel_upper_bounds(op)]
        steps = [int(env[v]) for v in scf_d.parallel_steps(op)]
        ranges = [range(lbs[d], ubs[d], steps[d]) for d in range(n)]
        extents = [len(r) for r in ranges]
        # dimension 0 is x (fastest varying): make it innermost in product
        positions = [tuple(reversed(p)) for p in
                     itertools.product(*[range(e) for e in reversed(extents)])]
        coords = [tuple(ranges[d][p[d]] for d in range(n))
                  for p in positions]
        space = list(zip(coords, positions))
        if self.reverse_parallel:
            space.reverse()
        return space, extents

    def _exec_parallel(self, op: Operation, env: Dict[Value, object],
                       ctx: _ExecContext):
        kind = scf_d.parallel_kind(op)
        if kind == scf_d.KIND_THREADS:
            yield from ()  # make this a generator even on the no-yield path
            self._exec_threads(op, env, ctx)
        else:
            yield from self._exec_sequential_parallel(op, env, ctx, kind)

    def _exec_sequential_parallel(self, op: Operation,
                                  env: Dict[Value, object],
                                  ctx: _ExecContext, kind: Optional[str]):
        space, extents = self._parallel_space(op, env)
        block = op.body_block()
        is_blocks = kind == scf_d.KIND_BLOCKS
        if is_blocks:
            self.tracer.on_kernel_block_loop(op, len(space))
        for coord, position in space:
            iter_env = dict(env)
            for arg, value in zip(block.args, coord):
                iter_env[arg] = value
            if is_blocks:
                saved = ctx.block
                ctx.block = _linearize(position, extents)
                yield from self.exec_block(block, iter_env, ctx)
                ctx.block = saved
            else:
                yield from self.exec_block(block, iter_env, ctx)

    def _exec_threads(self, op: Operation, env: Dict[Value, object],
                      ctx: _ExecContext) -> None:
        """Run all thread iterations concurrently with barrier waves."""
        space, extents = self._parallel_space(op, env)
        block = op.body_block()

        def thread_gen(coord, linear):
            thread_env = dict(env)
            for arg, value in zip(block.args, coord):
                thread_env[arg] = value
            thread_ctx = _ExecContext()
            thread_ctx.block = ctx.block
            thread_ctx.thread = linear
            return self.exec_block(block, thread_env, thread_ctx)

        active = [(linear, thread_gen(coord, linear))
                  for coord, position in space
                  for linear in (_linearize(position, extents),)]
        while active:
            suspended = []
            barriers = []
            finished = []
            for linear, gen in active:
                try:
                    token = next(gen)
                except StopIteration:
                    finished.append(linear)
                    continue
                suspended.append((linear, gen))
                barriers.append(token)
            if suspended and finished:
                raise ConvergenceError(
                    "threads %s exited while %d (e.g. thread %d) are "
                    "waiting at a barrier — barrier under thread-divergent "
                    "control flow" %
                    (_id_sample(finished), len(suspended), suspended[0][0]))
            if suspended:
                first = barriers[0]
                for (linear, _), token in zip(suspended[1:], barriers[1:]):
                    if token is not first:
                        raise ConvergenceError(
                            "thread %d reached a different barrier than "
                            "thread %d" % (linear, suspended[0][0]))
            active = suspended

    # -- calls and launches --------------------------------------------------------

    def _exec_call(self, op: Operation, env: Dict[Value, object],
                   ctx: _ExecContext):
        callee = self.module.func(op.attr("callee"))
        block = callee.body_block()
        call_env: Dict[Value, object] = dict(
            zip(block.args, (env[v] for v in op.operands)))
        results = yield from self.exec_block(block, call_env, ctx)
        for result, value in zip(op.results, results):
            env[result] = value

    def _exec_launch(self, op: Operation, env: Dict[Value, object],
                     ctx: _ExecContext):
        """Execute an outlined kernel referenced by gpu.launch_func."""
        kernel_name = op.attr(gpu_d.KERNEL_ATTR)
        kernel = self.module.func(kernel_name)
        block = kernel.body_block()
        values = [env[v] for v in op.operands]
        call_env: Dict[Value, object] = dict(zip(block.args, values))
        yield from self.exec_block(block, call_env, ctx)


# -- simple (regionless) op handlers ------------------------------------------------


def _coerce(value, type_):
    if isinstance(type_, FloatType):
        return dtype_for(type_)(value)
    if isinstance(type_, IntegerType) and type_.width == 1:
        return bool(value)
    if isinstance(type_, (IntegerType, IndexType)):
        return int(value)
    return value


def _h_constant(interp, op, env, ctx):
    env[op.result()] = _coerce(op.attr("value"), op.result().type)


def _h_int_binary(fn):
    def handler(interp, op, env, ctx):
        env[op.result()] = fn(int(env[op.operand(0)]),
                              int(env[op.operand(1)]))
    return handler


def _type_width(type_) -> int:
    return type_.width if isinstance(type_, IntegerType) else 64


def _h_uint_binary(fn):
    def handler(interp, op, env, ctx):
        width = _type_width(op.operand(0).type)
        mask = (1 << width) - 1
        result = fn(int(env[op.operand(0)]) & mask,
                    int(env[op.operand(1)]) & mask) & mask
        # signless ints carry a bit pattern: wrap back to the signed
        # representation so stores and signed consumers see the same bits
        if result >= 1 << (width - 1):
            result -= 1 << width
        env[op.result()] = result
    return handler


def _h_float_binary(fn):
    def handler(interp, op, env, ctx):
        env[op.result()] = fn(env[op.operand(0)], env[op.operand(1)])
    return handler


def _h_cmpi(interp, op, env, ctx):
    fn = _CMP[op.attr("predicate")]
    env[op.result()] = bool(fn(int(env[op.operand(0)]),
                               int(env[op.operand(1)])))


def _h_cmpf(interp, op, env, ctx):
    fn = _CMP[op.attr("predicate")]
    env[op.result()] = bool(fn(env[op.operand(0)], env[op.operand(1)]))


def _h_select(interp, op, env, ctx):
    env[op.result()] = env[op.operand(1)] if env[op.operand(0)] \
        else env[op.operand(2)]


def _h_negf(interp, op, env, ctx):
    env[op.result()] = -env[op.operand(0)]


def _h_cast(interp, op, env, ctx):
    env[op.result()] = _coerce(env[op.operand(0)], op.result().type)


def _h_math_unary(fn):
    def handler(interp, op, env, ctx):
        value = env[op.operand(0)]
        result = fn(value)
        # numpy keeps the dtype for float32 scalars; be defensive anyway
        env[op.result()] = _coerce(result, op.result().type)
    return handler


def _h_math_binary(fn):
    def handler(interp, op, env, ctx):
        result = fn(env[op.operand(0)], env[op.operand(1)])
        env[op.result()] = _coerce(result, op.result().type)
    return handler


def _h_alloc(interp, op, env, ctx):
    type_ = op.result().type
    sizes = [int(env[v]) for v in op.operands]
    env[op.result()] = MemoryBuffer.for_type(
        type_, sizes, name=op.result().name_hint)


def _h_dealloc(interp, op, env, ctx):
    pass


def _h_load(interp, op, env, ctx):
    buffer = env[op.operand(0)]
    indices = [int(env[v]) for v in op.operands[1:]]
    value = buffer.load(indices)
    interp.tracer.on_load(buffer, buffer.linear_index(indices),
                          buffer.element_bytes, ctx.block, ctx.thread,
                          op=op)
    env[op.result()] = value


def _h_store(interp, op, env, ctx):
    buffer = env[op.operand(1)]
    indices = [int(env[v]) for v in op.operands[2:]]
    buffer.store(indices, env[op.operand(0)])
    interp.tracer.on_store(buffer, buffer.linear_index(indices),
                           buffer.element_bytes, ctx.block, ctx.thread,
                           op=op)


def _h_atomic(interp, op, env, ctx):
    buffer = env[op.operand(1)]
    indices = [int(env[v]) for v in op.operands[2:]]
    old = buffer.load(indices)
    operand = env[op.operand(0)]
    kind = op.attr("kind")
    if kind in ("addf", "addi"):
        new = old + operand
    elif kind in ("maxf", "maxi"):
        new = max(old, operand)
    elif kind in ("minf", "mini"):
        new = min(old, operand)
    elif kind == "exchange":
        new = operand
    else:
        raise InterpreterError("unknown atomic kind %r" % kind)
    buffer.store(indices, new)
    linear = buffer.linear_index(indices)
    interp.tracer.on_load(buffer, linear, buffer.element_bytes,
                          ctx.block, ctx.thread, op=op)
    interp.tracer.on_store(buffer, linear, buffer.element_bytes,
                           ctx.block, ctx.thread, op=op)
    env[op.result()] = old


def _h_dim(interp, op, env, ctx):
    buffer = env[op.operand(0)]
    env[op.result()] = buffer.shape[int(env[op.operand(1)])]


def _h_get_global(interp, op, env, ctx):
    env[op.result()] = interp.global_buffer(op.attr("name"))


_SIMPLE = {
    "arith.constant": _h_constant,
    "arith.cmpi": _h_cmpi,
    "arith.cmpf": _h_cmpf,
    "arith.select": _h_select,
    "arith.negf": _h_negf,
    "memref.alloc": _h_alloc,
    "memref.alloca": _h_alloc,
    "memref.dealloc": _h_dealloc,
    "memref.load": _h_load,
    "memref.store": _h_store,
    "memref.atomic_rmw": _h_atomic,
    "memref.dim": _h_dim,
    "memref.get_global": _h_get_global,
}
for _name in arith_d.CASTS:
    _SIMPLE[_name] = _h_cast
for _name, _fn in _INT_BINOPS.items():
    _SIMPLE[_name] = _h_int_binary(_fn)
for _name, _fn in _UINT_BINOPS.items():
    _SIMPLE[_name] = _h_uint_binary(_fn)
for _name, _fn in _FLOAT_BINOPS.items():
    _SIMPLE[_name] = _h_float_binary(_fn)
for _name, _fn in _MATH_UNARY.items():
    _SIMPLE[_name] = _h_math_unary(_fn)
for _name, _fn in _MATH_BINARY.items():
    _SIMPLE[_name] = _h_math_binary(_fn)


# -- block plans ---------------------------------------------------------------

#: plan entry kinds: a run of pre-resolved simple handlers, a block
#: terminator (its operand values are the block's results), or a single
#: control-flow op dispatched by name as before
_KIND_RUN = 0
_KIND_TERMINATOR = 1
_KIND_CONTROL = 2

_TERMINATORS = (scf_d.YIELD, func_d.RETURN, scf_d.CONDITION)


def _compile_block(block: Block) -> list:
    """Segment a block into (kind, op, payload) plan entries.

    Consecutive regionless ops become one ``_KIND_RUN`` entry whose
    payload is a list of ``(handler, op)`` pairs; everything else gets its
    own entry and is interpreted exactly as the un-compiled loop did.
    """
    plan: list = []
    run: Optional[list] = None
    for op in block.ops:
        handler = _SIMPLE.get(op.name)
        if handler is not None:
            if run is None:
                run = []
                plan.append((_KIND_RUN, None, run))
            run.append((handler, op))
            continue
        run = None
        kind = _KIND_TERMINATOR if op.name in _TERMINATORS \
            else _KIND_CONTROL
        plan.append((kind, op, None))
    return plan


def run_module(module: Module, func_name: str, args: Sequence[object],
               tracer: Optional[Tracer] = None,
               alternative_selector=None) -> List[object]:
    """Convenience wrapper: interpret ``func_name`` of ``module``."""
    interp = Interpreter(module, tracer=tracer,
                         alternative_selector=alternative_selector)
    return interp.run_func(func_name, args)
