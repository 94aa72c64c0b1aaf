"""The IR interpreter.

Each block is compiled once per interpreter, on first execution. Every op
becomes a closure with its operand and result values pre-bound, so running
an op is one call. A compiled block is a list of *segments*: a
straight-line run of regionless ops followed by one control-flow op or the
block's terminator.

Only regions from which a ``polygeist.barrier`` is reachable compile to
generators that yield at the barrier; ``func.call`` and
``gpu.launch_func`` count as reaching one, conservatively. Everything else
(most loop bodies and branches, whole barrier-free kernels) runs as plain
calls. A GPU thread loop whose body can reach a barrier creates one
generator per thread and runs them round-robin in *waves*: all threads run
until they hit the next barrier (or finish), the barrier's convergence is
checked, and the wave repeats. A barrier-free thread loop runs each thread
to completion in turn. Both realize the CUDA synchronization semantics the
paper's transformations must preserve, so transformed kernels can be
checked for bit-identical results against the original.
"""

from __future__ import annotations

import itertools
import math
import operator
import weakref
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..dialects import arith as arith_d
from ..dialects import func as func_d
from ..dialects import gpu as gpu_d
from ..dialects import polygeist as polygeist_d
from ..dialects import scf as scf_d
from ..ir import (Block, FloatType, IndexType, IntegerType, Module,
                  Operation, Value)
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
    "arith.addi": operator.add,
    "arith.subi": operator.sub,
    "arith.muli": operator.mul,
    "arith.divsi": _trunc_div,
    "arith.remsi": _trunc_rem,
    "arith.andi": operator.and_,
    "arith.ori": operator.or_,
    "arith.xori": operator.xor,
    "arith.shli": operator.lshift,
    "arith.shrsi": operator.rshift,
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
    "arith.shrui": operator.rshift,
    "arith.minui": min,
    "arith.maxui": max,
}

_FLOAT_BINOPS = {
    "arith.addf": operator.add,
    "arith.subf": operator.sub,
    "arith.mulf": operator.mul,
    "arith.divf": operator.truediv,
    "arith.remf": np.fmod,
    "arith.minf": min,
    "arith.maxf": max,
}

_CMP = {
    "eq": operator.eq,
    "ne": operator.ne,
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
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

_ATOMIC = {
    "addf": operator.add,
    "addi": operator.add,
    "maxf": max,
    "maxi": max,
    "minf": min,
    "mini": min,
    "exchange": lambda old, operand: operand,
}

_BUDGET_EXCEEDED = "interpreter step budget exceeded"


class _ExecContext:
    """Current GPU position, threaded through the executors."""

    __slots__ = ("block", "thread")

    def __init__(self, block: Optional[int] = None,
                 thread: Optional[int] = None):
        self.block = block
        self.thread = thread


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


def _overrides(tracer: Tracer, hook: str) -> bool:
    return getattr(type(tracer), hook) is not getattr(Tracer, hook)


class _State:
    """What compiled code reads and updates while it runs.

    Compiled closures reference this, never the :class:`Interpreter` or
    its compilers, so an interpreter and all it compiled hold no
    reference cycle and are freed as soon as the interpreter is dropped.
    """

    __slots__ = ("module", "globals", "tracer", "selector", "reverse",
                 "steps")

    def __init__(self, module: Module):
        self.module = module
        self.globals: Dict[str, MemoryBuffer] = {}
        self.tracer: Tracer = Tracer()
        self.selector: Optional[Callable[[Operation], int]] = None
        self.reverse = False
        self.steps = 0

    def global_buffer(self, name: str) -> MemoryBuffer:
        if name not in self.globals:
            decl = self.module.global_(name)
            type_ = decl.attr("type")
            self.globals[name] = MemoryBuffer.for_type(type_, name=name)
        return self.globals[name]


class Interpreter:
    """Executes functions of a module over numpy-backed buffers."""

    def __init__(self, module: Module, tracer: Optional[Tracer] = None,
                 alternative_selector: Optional[
                     Callable[[Operation], int]] = None,
                 max_steps: Optional[int] = None,
                 reverse_parallel: bool = False):
        self.module = module
        self._state = _State(module)
        self.globals = self._state.globals
        self.max_steps = max_steps
        self.alternative_selector = alternative_selector
        self.reverse_parallel = reverse_parallel
        #: one compiler per combination of memory hooks the tracer
        #: overrides (see the ``tracer`` setter)
        self._compilers: Dict[Tuple[bool, bool], _Compiler] = {}
        self.tracer = tracer or Tracer()

    @property
    def tracer(self) -> Tracer:
        return self._state.tracer

    @tracer.setter
    def tracer(self, tracer: Tracer) -> None:
        # compiled loads and stores call on_load / on_store only when the
        # tracer's type overrides them; the hooks are bound at compile
        # time, so each combination keeps its own compiled blocks
        self._state.tracer = tracer
        hooks = (_overrides(tracer, "on_load"),
                 _overrides(tracer, "on_store"))
        compiler = self._compilers.get(hooks)
        if compiler is None:
            compiler = self._compilers[hooks] = _Compiler(
                self._state, self.max_steps, *hooks)
        self._compiler = compiler

    @property
    def alternative_selector(self) -> Optional[Callable[[Operation], int]]:
        """Picks the region a ``polygeist.alternatives`` op runs (the
        first one when None)."""
        return self._state.selector

    @alternative_selector.setter
    def alternative_selector(self, selector) -> None:
        self._state.selector = selector

    @property
    def reverse_parallel(self) -> bool:
        """Run block iterations and thread waves in reversed id order; a
        race-free kernel is insensitive to this, so differing results
        between the two orders expose an order dependence (data race)."""
        return self._state.reverse

    @reverse_parallel.setter
    def reverse_parallel(self, reverse: bool) -> None:
        self._state.reverse = reverse

    def forget_plans(self) -> None:
        """Drop the compiled blocks after the IR was rewritten.

        Blocks are compiled once and keyed by identity, so a caller that
        mutates IR this interpreter already ran (or changes ``max_steps``)
        must call this before running again.
        """
        self._compilers.clear()
        self.tracer = self.tracer

    @property
    def compiled_blocks(self) -> int:
        """How many blocks this interpreter has compiled so far."""
        return sum(c.compiled for c in self._compilers.values())

    # -- public entry points ---------------------------------------------------

    def run_func(self, name: str, args: Sequence[object]) -> List[object]:
        """Run a ``func.func`` to completion; returns its results."""
        f = self.module.func(name)
        block = f.body_block()
        if len(args) != len(block.args):
            raise InterpreterError(
                "%s expects %d arguments, got %d" %
                (name, len(block.args), len(args)))
        return self.exec_block(block, dict(zip(block.args, args)))

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
        return self.exec_block(block, dict(zip(block.args, args)))

    def global_buffer(self, name: str) -> MemoryBuffer:
        """The backing buffer of a ``memref.global`` (created on demand)."""
        return self._state.global_buffer(name)

    def exec_block(self, block: Block, env: Dict[Value, object],
                   ctx: Optional[_ExecContext] = None) -> List[object]:
        """Run ``block`` to completion in ``env``; returns the values of
        its terminator's operands.

        The block is compiled on its first execution and the compiled form
        is reused for every later one, by this and by enclosing blocks. A
        barrier reached outside every GPU thread loop is an error.
        """
        code = self._compiler.block(block)
        if ctx is None:
            ctx = _ExecContext()
        if not code.is_gen:
            return code.run(env, ctx)
        gen = code.run(env, ctx)
        try:
            token = next(gen)
        except StopIteration as stop:
            return list(stop.value or [])
        raise InterpreterError(
            "barrier %r reached outside a GPU thread loop" % token)


# -- the block compiler --------------------------------------------------------


class _Code:
    """One block, compiled on its first run.

    ``run(env, ctx)`` returns the terminator's operand values; when
    ``is_gen`` it is a generator function that yields at barriers and
    returns them. Until the block first runs, ``run`` is a stub that
    compiles it and puts the compiled runner in its place, so blocks that
    never run (untaken branches, epilogues) are never compiled. Callers
    therefore read ``code.run`` at each call rather than keeping it.
    """

    __slots__ = ("run", "is_gen", "_pending", "__weakref__")

    def __init__(self, compiler: "_Compiler", block: Block):
        self.is_gen = compiler.reaches_barrier(block)
        # weak references keep compiled code free of reference cycles
        self._pending = (weakref.ref(compiler), block)
        code = weakref.ref(self)
        if self.is_gen:
            def stub(env, ctx):
                return (yield from code().compiled()(env, ctx))
        else:
            def stub(env, ctx):
                return code().compiled()(env, ctx)
        self.run = stub

    def compiled(self):
        """The compiled runner, compiling the block on the first call (a
        thread loop creates every thread's generator from the stub before
        any of them runs)."""
        if self._pending is not None:
            compiler, block = self._pending
            self._pending = None
            self.run = compiler().compile(block, self.is_gen)
        return self.run


def _invoke(code: _Code, env, ctx):
    """Run compiled code from inside a generator, whatever its kind."""
    if code.is_gen:
        return (yield from code.run(env, ctx))
    return code.run(env, ctx)


def _results_getter(values: Sequence[Value]):
    """``env -> [values...]`` for a terminator's operands."""
    if not values:
        return lambda env: []
    if len(values) == 1:
        value, = values
        return lambda env: [env[value]]
    return lambda env: [env[v] for v in values]


_TERMINATORS = (scf_d.YIELD, func_d.RETURN, scf_d.CONDITION)

#: how a segment runs its control op: a plain call, ``yield from`` a
#: generator, or (for ``polygeist.barrier``, whose op is the token) yield
_PLAIN, _GEN, _BARRIER = "plain", "gen", "barrier"

#: ops that can yield at a barrier whatever their regions hold; calls and
#: launches count conservatively (their callee is only known at run time).
#: A thread loop never yields: its wave scheduler absorbs every barrier
_REACHES_BARRIER = (polygeist_d.BARRIER, func_d.CALL, gpu_d.LAUNCH_FUNC)


class _Compiler:
    """Compiles blocks for one interpreter and one tracer hook set.

    ``budget`` is the interpreter's ``max_steps`` (unbounded when None).
    Steps are counted per segment: a segment whose ops all fit in the
    budget is charged at once, and only the segment that crosses the
    limit runs op by op, so the budget trips before the first op past it
    executes.
    """

    def __init__(self, state: _State, max_steps: Optional[int],
                 trace_loads: bool, trace_stores: bool):
        self.state = state
        self.trace_loads = trace_loads
        self.trace_stores = trace_stores
        self.budget = math.inf if max_steps is None else max_steps
        self.blocks: Dict[Block, _Code] = {}
        #: how many blocks have been compiled (reached their first run)
        self.compiled = 0
        self._reaches: Dict[Block, bool] = {}

    def block(self, block: Block) -> _Code:
        code = self.blocks.get(block)
        if code is None:
            code = self.blocks[block] = _Code(self, block)
        return code

    # -- barrier reachability ----------------------------------------------

    def reaches_barrier(self, block: Block) -> bool:
        """Whether running ``block`` can yield at a barrier."""
        known = self._reaches.get(block)
        if known is None:
            known = self._reaches[block] = any(
                self.op_reaches_barrier(op) for op in block.ops)
        return known

    def op_reaches_barrier(self, op: Operation) -> bool:
        name = op.name
        if name in _REACHES_BARRIER:
            return True
        if name not in _CONTROL or (
                name == scf_d.PARALLEL and
                scf_d.parallel_kind(op) == scf_d.KIND_THREADS):
            return False
        return any(self.reaches_barrier(block)
                   for region in op.regions for block in region.blocks)

    # -- compilation -------------------------------------------------------

    def compile(self, block: Block, is_gen: bool):
        """The runner of ``block`` (see :class:`_Code`)."""
        self.compiled += 1
        segments = []
        ops: list = []
        terminator: Sequence[Value] = ()
        ended = False
        for op in block.ops:
            factory = _SIMPLE.get(op.name)
            if factory is not None:
                ops.append(factory(self, op))
                continue
            if op.name in _TERMINATORS:
                terminator = tuple(op.operands)
                ended = True
                break
            if op.name == polygeist_d.BARRIER:
                run, kind = op, _BARRIER
            elif op.name in _CONTROL:
                kind = _GEN if self.op_reaches_barrier(op) else _PLAIN
                run = _CONTROL[op.name](self, op, kind == _GEN)
            else:
                run, kind = _c_unknown(op), _PLAIN
            segments.append((len(ops) + 1, tuple(ops), run, kind))
            ops = []
        if ops or ended:
            segments.append((len(ops) + ended, tuple(ops), None, _PLAIN))
        results = _results_getter(terminator)
        if is_gen:
            return self._gen_runner(segments, results)
        return self._plain_runner(segments, results)

    def _plain_runner(self, segments, results):
        budget = self.budget
        state = self.state
        if len(segments) == 1 and segments[0][2] is None:
            count, ops = segments[0][:2]

            def run(env, ctx):
                steps = state.steps + count
                if steps > budget:
                    _exceed(state, budget, ops, env, ctx)
                state.steps = steps
                for op in ops:
                    op(env, ctx)
                return results(env)
            return run
        triples = tuple((count, ops, ctrl)
                        for count, ops, ctrl, _ in segments)

        def run(env, ctx):
            for count, ops, ctrl in triples:
                steps = state.steps + count
                if steps > budget:
                    _exceed(state, budget, ops, env, ctx)
                state.steps = steps
                for op in ops:
                    op(env, ctx)
                if ctrl is not None:
                    ctrl(env, ctx)
            return results(env)
        return run

    def _gen_runner(self, segments, results):
        budget = self.budget
        state = self.state
        segments = tuple(segments)

        def run(env, ctx):
            for count, ops, ctrl, kind in segments:
                steps = state.steps + count
                if steps > budget:
                    _exceed(state, budget, ops, env, ctx)
                state.steps = steps
                for op in ops:
                    op(env, ctx)
                if kind is _BARRIER:
                    state.tracer.on_barrier(ctx.block)
                    yield ctrl
                elif kind is _GEN:
                    yield from ctrl(env, ctx)
                elif ctrl is not None:
                    ctrl(env, ctx)
            return results(env)
        return run


def _exceed(state: _State, budget: int, ops: Sequence, env, ctx):
    """Run the segment that crosses the budget up to the limit."""
    for run in ops[:budget - state.steps]:
        run(env, ctx)
    state.steps = budget + 1
    raise InterpreterError(_BUDGET_EXCEEDED)


# -- control flow --------------------------------------------------------------
#
# Each factory takes (compiler, op, is_gen) and returns the op's closure:
# a plain function, or a generator function when a barrier is reachable
# from the op's regions.


def _c_unknown(op: Operation):
    name = op.name

    def unknown(env, ctx):
        raise InterpreterError("cannot interpret op %r" % name)
    return unknown


def _assign(env, values: Sequence[Value], new: Sequence[object]) -> None:
    for value, item in zip(values, new):
        env[value] = item


def _c_for(c: _Compiler, op: Operation, is_gen: bool):
    lb, ub, step = op.operands[:3]
    inits = tuple(op.operands[3:])
    block = op.body_block()
    iv = block.args[0]
    iter_args = tuple(block.args[1:])
    results = tuple(op.results)
    body = c.block(block)

    def bounds(env):
        lower, upper, stride = int(env[lb]), int(env[ub]), int(env[step])
        if stride <= 0:
            raise InterpreterError("scf.for needs a positive step")
        return range(lower, upper, stride)

    if is_gen:
        # the body is what reaches the barrier, so it is a generator too
        def run_for(env, ctx):
            space = bounds(env)
            iters = [env[v] for v in inits]
            for i in space:
                env[iv] = i
                _assign(env, iter_args, iters)
                iters = yield from body.run(env, ctx)
            _assign(env, results, iters)
        return run_for
    if not inits:
        def run_for(env, ctx):
            for i in bounds(env):
                env[iv] = i
                body.run(env, ctx)
        return run_for

    def run_for(env, ctx):
        space = bounds(env)
        iters = [env[v] for v in inits]
        for i in space:
            env[iv] = i
            _assign(env, iter_args, iters)
            iters = body.run(env, ctx)
        _assign(env, results, iters)
    return run_for


def _c_if(c: _Compiler, op: Operation, is_gen: bool):
    cond = op.operand(0)
    then, other = c.block(op.body_block(0)), c.block(op.body_block(1))
    results = tuple(op.results)
    if is_gen:
        def run_if(env, ctx):
            values = yield from _invoke(then if env[cond] else other,
                                        env, ctx)
            _assign(env, results, values)
        return run_if
    if not results:
        def run_if(env, ctx):
            if env[cond]:
                then.run(env, ctx)
            else:
                other.run(env, ctx)
        return run_if

    def run_if(env, ctx):
        _assign(env, results, (then if env[cond] else other).run(env, ctx))
    return run_if


def _c_while(c: _Compiler, op: Operation, is_gen: bool):
    inits = tuple(op.operands)
    before_block, after_block = op.body_block(0), op.body_block(1)
    before, after = c.block(before_block), c.block(after_block)
    before_args, after_args = tuple(before_block.args), \
        tuple(after_block.args)
    results = tuple(op.results)
    if is_gen:
        def run_while(env, ctx):
            values = [env[v] for v in inits]
            while True:
                _assign(env, before_args, values)
                cond_values = yield from _invoke(before, env, ctx)
                if not cond_values[0]:
                    _assign(env, results, cond_values[1:])
                    return
                _assign(env, after_args, cond_values[1:])
                values = yield from _invoke(after, env, ctx)
        return run_while

    def run_while(env, ctx):
        values = [env[v] for v in inits]
        while True:
            _assign(env, before_args, values)
            cond_values = before.run(env, ctx)
            if not cond_values[0]:
                _assign(env, results, cond_values[1:])
                return
            _assign(env, after_args, cond_values[1:])
            values = after.run(env, ctx)
    return run_while


def _parallel_space(state: _State, op: Operation):
    """``env -> [(coords, linear id), ...]`` for an ``scf.parallel``,
    in execution order; cached per distinct bounds."""
    n = scf_d.parallel_num_dims(op)
    bounds = tuple(scf_d.parallel_lower_bounds(op) +
                   scf_d.parallel_upper_bounds(op) +
                   scf_d.parallel_steps(op))
    cache: Dict[tuple, list] = {}

    def space(env):
        key = (state.reverse,) + tuple(
            [int(env[v]) for v in bounds])
        hit = cache.get(key)
        if hit is not None:
            return hit
        lbs, ubs, steps = key[1:n + 1], key[n + 1:2 * n + 1], key[2 * n + 1:]
        ranges = [range(lbs[d], ubs[d], steps[d]) for d in range(n)]
        extents = [len(r) for r in ranges]
        # dimension 0 is x (fastest varying): make it innermost in product
        positions = [tuple(reversed(p)) for p in itertools.product(
            *[range(e) for e in reversed(extents)])]
        hit = [(tuple(ranges[d][p[d]] for d in range(n)),
                _linearize(p, extents)) for p in positions]
        if state.reverse:
            hit.reverse()
        cache[key] = hit
        return hit
    return space


def _c_parallel(c: _Compiler, op: Operation, is_gen: bool):
    if scf_d.parallel_kind(op) == scf_d.KIND_THREADS:
        return _c_threads(c, op)
    state = c.state
    is_blocks = scf_d.parallel_kind(op) == scf_d.KIND_BLOCKS
    block = op.body_block()
    args = tuple(block.args)
    body = c.block(block)
    space_of = _parallel_space(state, op)
    # iterations run one after another, so they share the enclosing env:
    # SSA values defined in the body are rebound by each iteration before
    # use and never read after the loop
    if is_gen:
        def run_parallel(env, ctx):
            space = space_of(env)
            if is_blocks:
                state.tracer.on_kernel_block_loop(op, len(space))
            for coord, linear in space:
                _assign(env, args, coord)
                if is_blocks:
                    saved, ctx.block = ctx.block, linear
                    yield from body.run(env, ctx)
                    ctx.block = saved
                else:
                    yield from body.run(env, ctx)
        return run_parallel

    def run_parallel(env, ctx):
        space = space_of(env)
        if is_blocks:
            state.tracer.on_kernel_block_loop(op, len(space))
        for coord, linear in space:
            _assign(env, args, coord)
            if is_blocks:
                saved, ctx.block = ctx.block, linear
                body.run(env, ctx)
                ctx.block = saved
            else:
                body.run(env, ctx)
    return run_parallel


def _c_threads(c: _Compiler, op: Operation):
    """All thread iterations of a GPU thread loop, with barrier waves."""
    block = op.body_block()
    args = tuple(block.args)
    body = c.block(block)
    space_of = _parallel_space(c.state, op)
    if not body.is_gen:
        # no barrier: each thread runs to completion in turn, sharing env
        # like a sequential loop
        def run_threads(env, ctx):
            thread_ctx = _ExecContext(ctx.block)
            for coord, linear in space_of(env):
                _assign(env, args, coord)
                thread_ctx.thread = linear
                body.run(env, thread_ctx)
        return run_threads

    def run_threads(env, ctx):
        active = []
        for coord, linear in space_of(env):
            thread_env = dict(env)
            _assign(thread_env, args, coord)
            active.append((linear, body.run(
                thread_env, _ExecContext(ctx.block, linear))))
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
    return run_threads


def _c_wrapper(c: _Compiler, op: Operation, is_gen: bool):
    body = c.block(op.body_block())
    # a generator when the body is one, which is exactly when is_gen
    return lambda env, ctx: body.run(env, ctx)


def _c_alternatives(c: _Compiler, op: Operation, is_gen: bool):
    # a run selects one region; the others are never even looked up
    state, compiler = c.state, weakref.ref(c)

    def selected():
        selector = state.selector
        index = selector(op) if selector is not None else 0
        return compiler().block(op.body_block(index))

    if is_gen:
        def run_alternatives(env, ctx):
            yield from _invoke(selected(), env, ctx)
        return run_alternatives

    def run_alternatives(env, ctx):
        selected().run(env, ctx)
    return run_alternatives


def _c_call(c: _Compiler, op: Operation, is_gen: bool):
    state, compiler = c.state, weakref.ref(c)
    operands = tuple(op.operands)
    results = tuple(op.results)

    def call(env, ctx):
        block = state.module.func(op.attr("callee")).body_block()
        call_env = dict(zip(block.args, [env[v] for v in operands]))
        values = yield from _invoke(compiler().block(block), call_env, ctx)
        _assign(env, results, values)
    return call


def _c_launch(c: _Compiler, op: Operation, is_gen: bool):
    """An outlined kernel referenced by gpu.launch_func."""
    state, compiler = c.state, weakref.ref(c)
    operands = tuple(op.operands)

    def launch(env, ctx):
        kernel = state.module.func(op.attr(gpu_d.KERNEL_ATTR))
        block = kernel.body_block()
        call_env = dict(zip(block.args, [env[v] for v in operands]))
        yield from _invoke(compiler().block(block), call_env, ctx)
    return launch


_CONTROL = {
    scf_d.FOR: _c_for,
    scf_d.IF: _c_if,
    scf_d.WHILE: _c_while,
    scf_d.PARALLEL: _c_parallel,
    polygeist_d.GPU_WRAPPER: _c_wrapper,
    polygeist_d.ALTERNATIVES: _c_alternatives,
    func_d.CALL: _c_call,
    gpu_d.LAUNCH_FUNC: _c_launch,
}


# -- regionless ops ------------------------------------------------------------
#
# Each factory takes (compiler, op) and returns ``run(env, ctx)``.


def _coercer(type_):
    """The conversion a value of IR type ``type_`` gets, or None."""
    if isinstance(type_, FloatType):
        return dtype_for(type_)
    if isinstance(type_, IntegerType) and type_.width == 1:
        return bool
    if isinstance(type_, (IntegerType, IndexType)):
        return int
    return None


def _coerce(value, type_):
    coerce = _coercer(type_)
    return value if coerce is None else coerce(value)


def _c_constant(c, op):
    result = op.result()
    value = _coerce(op.attr("value"), result.type)

    def constant(env, ctx):
        env[result] = value
    return constant


def _c_int_binary(fn):
    def factory(c, op):
        a, b, result = op.operand(0), op.operand(1), op.result()

        def int_binary(env, ctx):
            env[result] = fn(int(env[a]), int(env[b]))
        return int_binary
    return factory


def _type_width(type_) -> int:
    return type_.width if isinstance(type_, IntegerType) else 64


def _c_uint_binary(fn):
    def factory(c, op):
        a, b, result = op.operand(0), op.operand(1), op.result()
        width = _type_width(a.type)
        mask = (1 << width) - 1
        sign = 1 << (width - 1)

        def uint_binary(env, ctx):
            value = fn(int(env[a]) & mask, int(env[b]) & mask) & mask
            # signless ints carry a bit pattern: wrap back to the signed
            # representation so stores and signed consumers see the same
            # bits
            if value >= sign:
                value -= 1 << width
            env[result] = value
        return uint_binary
    return factory


def _c_float_binary(fn):
    def factory(c, op):
        a, b, result = op.operand(0), op.operand(1), op.result()

        def float_binary(env, ctx):
            env[result] = fn(env[a], env[b])
        return float_binary
    return factory


def _c_cmpi(c, op):
    fn = _CMP[op.attr("predicate")]  # the verifier admits only these
    a, b, result = op.operand(0), op.operand(1), op.result()

    def cmpi(env, ctx):
        # comparing Python ints already gives a bool
        env[result] = fn(int(env[a]), int(env[b]))
    return cmpi


def _c_cmpf(c, op):
    fn = _CMP[op.attr("predicate")]
    a, b, result = op.operand(0), op.operand(1), op.result()

    def cmpf(env, ctx):
        env[result] = bool(fn(env[a], env[b]))
    return cmpf


def _c_select(c, op):
    cond, yes, no = op.operands[:3]
    result = op.result()

    def select(env, ctx):
        env[result] = env[yes] if env[cond] else env[no]
    return select


def _c_negf(c, op):
    a, result = op.operand(0), op.result()

    def negf(env, ctx):
        env[result] = -env[a]
    return negf


def _c_cast(c, op):
    a, result = op.operand(0), op.result()
    coerce = _coercer(result.type)
    if coerce is None:
        def cast(env, ctx):
            env[result] = env[a]
        return cast

    def cast(env, ctx):
        env[result] = coerce(env[a])
    return cast


def _c_math_unary(fn):
    def factory(c, op):
        a, result = op.operand(0), op.result()
        # numpy keeps the dtype for float32 scalars; be defensive anyway
        coerce = _coercer(result.type) or (lambda value: value)

        def math_unary(env, ctx):
            env[result] = coerce(fn(env[a]))
        return math_unary
    return factory


def _c_math_binary(fn):
    def factory(c, op):
        a, b, result = op.operand(0), op.operand(1), op.result()
        coerce = _coercer(result.type) or (lambda value: value)

        def math_binary(env, ctx):
            env[result] = coerce(fn(env[a], env[b]))
        return math_binary
    return factory


def _c_alloc(c, op):
    result = op.result()
    type_, name = result.type, result.name_hint
    sizes = tuple(op.operands)

    def alloc(env, ctx):
        env[result] = MemoryBuffer.for_type(
            type_, [int(env[v]) for v in sizes], name=name)
    return alloc


def _c_dealloc(c, op):
    def dealloc(env, ctx):
        pass
    return dealloc


def _indexer(indices: Sequence[Value]):
    """``(env, buffer) -> linear index`` of one access, computed once.

    Ranks 1 and 2 check the bounds inline; anything unusual (another
    rank, an out-of-bounds index) goes through
    :meth:`MemoryBuffer.linear_index`, which raises the usual IndexError.
    """
    if len(indices) == 1:
        i, = indices

        def linear(env, buffer):
            x = int(env[i])
            shape = buffer.shape
            if len(shape) == 1 and 0 <= x < shape[0]:
                return x
            return buffer.linear_index([x])
    elif len(indices) == 2:
        i, j = indices

        def linear(env, buffer):
            x, y = int(env[i]), int(env[j])
            shape = buffer.shape
            if len(shape) == 2 and 0 <= x < shape[0] and 0 <= y < shape[1]:
                return x * shape[1] + y
            return buffer.linear_index([x, y])
    else:
        def linear(env, buffer):
            return buffer.linear_index([int(env[v]) for v in indices])
    return linear


def _write(buffer: MemoryBuffer, linear: int, value) -> None:
    try:
        buffer.flat_view[linear] = value
    except Exception:
        # a value the dtype cannot hold: raise what MemoryBuffer.store
        # raises (numpy words it differently for the flat iterator)
        buffer.array.flat[linear] = value
        raise


def _c_load(c, op):
    ref, result = op.operand(0), op.result()
    linear_of = _indexer(op.operands[1:])
    if not c.trace_loads:
        def load(env, ctx):
            buffer = env[ref]
            env[result] = buffer.flat_view[linear_of(env, buffer)]
        return load
    state = c.state

    def traced_load(env, ctx):
        buffer = env[ref]
        linear = linear_of(env, buffer)
        value = buffer.flat_view[linear]
        state.tracer.on_load(buffer, linear, buffer.element_bytes,
                             ctx.block, ctx.thread, op=op)
        env[result] = value
    return traced_load


def _c_store(c, op):
    stored, ref = op.operand(0), op.operand(1)
    linear_of = _indexer(op.operands[2:])
    if not c.trace_stores:
        def store(env, ctx):
            buffer = env[ref]
            _write(buffer, linear_of(env, buffer), env[stored])
        return store
    state = c.state

    def traced_store(env, ctx):
        buffer = env[ref]
        linear = linear_of(env, buffer)
        _write(buffer, linear, env[stored])
        state.tracer.on_store(buffer, linear, buffer.element_bytes,
                              ctx.block, ctx.thread, op=op)
    return traced_store


def _c_atomic(c, op):
    operand, ref, result = op.operand(0), op.operand(1), op.result()
    linear_of = _indexer(op.operands[2:])
    kind = op.attr("kind")
    combine = _ATOMIC.get(kind)
    state = c.state
    trace_loads, trace_stores = c.trace_loads, c.trace_stores

    def atomic(env, ctx):
        buffer = env[ref]
        linear = linear_of(env, buffer)
        old = buffer.flat_view[linear]
        value = env[operand]
        if combine is None:
            raise InterpreterError("unknown atomic kind %r" % kind)
        _write(buffer, linear, combine(old, value))
        if trace_loads:
            state.tracer.on_load(buffer, linear, buffer.element_bytes,
                                 ctx.block, ctx.thread, op=op)
        if trace_stores:
            state.tracer.on_store(buffer, linear, buffer.element_bytes,
                                  ctx.block, ctx.thread, op=op)
        env[result] = old
    return atomic


def _c_dim(c, op):
    ref, index, result = op.operand(0), op.operand(1), op.result()

    def dim(env, ctx):
        env[result] = env[ref].shape[int(env[index])]
    return dim


def _c_get_global(c, op):
    state = c.state
    name = op.attr("name")
    result = op.result()

    def get_global(env, ctx):
        env[result] = state.global_buffer(name)
    return get_global


_SIMPLE = {
    "arith.constant": _c_constant,
    "arith.cmpi": _c_cmpi,
    "arith.cmpf": _c_cmpf,
    "arith.select": _c_select,
    "arith.negf": _c_negf,
    "memref.alloc": _c_alloc,
    "memref.alloca": _c_alloc,
    "memref.dealloc": _c_dealloc,
    "memref.load": _c_load,
    "memref.store": _c_store,
    "memref.atomic_rmw": _c_atomic,
    "memref.dim": _c_dim,
    "memref.get_global": _c_get_global,
}
for _name in arith_d.CASTS:
    _SIMPLE[_name] = _c_cast
for _name, _fn in _INT_BINOPS.items():
    _SIMPLE[_name] = _c_int_binary(_fn)
for _name, _fn in _UINT_BINOPS.items():
    _SIMPLE[_name] = _c_uint_binary(_fn)
for _name, _fn in _FLOAT_BINOPS.items():
    _SIMPLE[_name] = _c_float_binary(_fn)
for _name, _fn in _MATH_UNARY.items():
    _SIMPLE[_name] = _c_math_unary(_fn)
for _name, _fn in _MATH_BINARY.items():
    _SIMPLE[_name] = _c_math_binary(_fn)


def run_module(module: Module, func_name: str, args: Sequence[object],
               tracer: Optional[Tracer] = None,
               alternative_selector=None) -> List[object]:
    """Convenience wrapper: interpret ``func_name`` of ``module``."""
    interp = Interpreter(module, tracer=tracer,
                         alternative_selector=alternative_selector)
    return interp.run_func(func_name, args)
