"""AST → IR code generation with codegen-time SSA construction.

C's mutable variables become SSA values directly: the generator tracks the
current value of every scalar variable and introduces ``scf.if`` results,
``scf.for`` iteration arguments, and ``scf.while`` carried values at control
flow joins. Kernel launches are inlined into host IR as
``polygeist.gpu_wrapper`` + nested ``scf.parallel`` regions with
``polygeist.barrier`` for ``__syncthreads`` — the paper's representation
(Fig. 2/5).

Launch wrappers are specialized on the *block* shape (compile-time constants,
as in a real CUDA launch expression) while grid dimensions stay dynamic SSA
arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..dialects import arith, func, math as math_d, memref, polygeist, scf
from ..ir import (Builder, DYNAMIC, F32, F64, I1, INDEX, FloatType,
                  FunctionType, IntegerType, MemRefType, Module, Operation,
                  Type, Value)
from . import c_ast as ast


class CodegenError(ValueError):
    pass


# -- values ------------------------------------------------------------------


@dataclass
class RValue:
    """A scalar SSA value with its C type."""
    value: Value
    ctype: ast.CType


@dataclass
class PointerRV:
    """A pointer: a memref base plus a flat element offset."""
    base: Value            # memref<?xT> (or statically shaped)
    offset: Value          # index
    ctype: ast.CType       # pointer type


@dataclass
class ArrayRV:
    """A (possibly multi-dimensional) array bound to a memref."""
    ref: Value
    ctype: ast.CType


@dataclass
class Dim3RV:
    """A host-side dim3 value (x, y, z index values)."""
    dims: Tuple[Value, Value, Value]


Binding = Union[RValue, PointerRV, ArrayRV, Dim3RV]


def ir_scalar_type(ctype: ast.CType) -> Type:
    """Map a scalar C type to the IR type (ints become ``index``)."""
    if ctype.base == "float":
        return F32
    if ctype.base == "double":
        return F64
    if ctype.base == "bool":
        return I1
    if ctype.base in ("int", "uint", "long", "char"):
        return INDEX
    raise CodegenError("type %s has no scalar IR mapping" % ctype)


def ir_element_type(ctype: ast.CType) -> Type:
    """Storage type of array/buffer elements, with true C widths.

    Scalar *values* use ``index`` for all C integers (see
    :func:`ir_scalar_type`), but kernel-internal storage keeps C sizes so
    shared-memory byte accounting matches real CUDA (e.g. nw's 2180 bytes
    per block). Loads/stores insert the index casts.
    """
    from ..ir import I8, I32, I64
    base = ctype.base
    if base in ("int", "uint"):
        return I32
    if base == "long":
        return I64
    if base == "char":
        return I8
    return ir_scalar_type(ctype)


def ir_param_type(ctype: ast.CType) -> Type:
    if ctype.is_pointer:
        # host-visible buffers stay index-typed for numpy interop
        return MemRefType((DYNAMIC,), ir_scalar_type(ctype.element_type()))
    return ir_scalar_type(ctype)


# -- AST analyses ----------------------------------------------------------------


def const_eval(expr: ast.Expr) -> Optional[int]:
    """Evaluate an integer constant expression at the AST level, or None."""
    if isinstance(expr, ast.IntLit):
        return expr.value
    if isinstance(expr, ast.UnOp) and not expr.postfix:
        value = const_eval(expr.operand)
        if value is None:
            return None
        if expr.op == "-":
            return -value
        if expr.op == "+":
            return value
        if expr.op == "!":
            return int(not value)
        if expr.op == "~":
            return ~value
        return None
    if isinstance(expr, ast.BinOp):
        lhs, rhs = const_eval(expr.lhs), const_eval(expr.rhs)
        if lhs is None or rhs is None:
            return None
        try:
            return {
                "+": lambda: lhs + rhs, "-": lambda: lhs - rhs,
                "*": lambda: lhs * rhs,
                "/": lambda: int(lhs / rhs) if rhs else None,
                "%": lambda: lhs - int(lhs / rhs) * rhs if rhs else None,
                "<<": lambda: lhs << rhs, ">>": lambda: lhs >> rhs,
                "&": lambda: lhs & rhs, "|": lambda: lhs | rhs,
                "^": lambda: lhs ^ rhs,
                "<": lambda: int(lhs < rhs), ">": lambda: int(lhs > rhs),
                "<=": lambda: int(lhs <= rhs), ">=": lambda: int(lhs >= rhs),
                "==": lambda: int(lhs == rhs), "!=": lambda: int(lhs != rhs),
            }[expr.op]()
        except KeyError:
            return None
    if isinstance(expr, ast.Ternary):
        cond = const_eval(expr.cond)
        if cond is None:
            return None
        return const_eval(expr.true_value if cond else expr.false_value)
    if isinstance(expr, ast.Cast):
        return const_eval(expr.expr)
    return None


# the AST walkers below are module-level functions, not closures: a nested
# function that calls itself is a reference cycle, which keeps every name
# set it filled alive until a full garbage collection


def _assigned_in_expr(expr, declared: Set[str], names: Set[str]) -> None:
    if isinstance(expr, ast.Assign):
        if isinstance(expr.target, ast.Ident):
            if expr.target.name not in declared:
                names.add(expr.target.name)
        else:
            _assigned_in_expr(expr.target, declared, names)
        _assigned_in_expr(expr.value, declared, names)
    elif isinstance(expr, ast.UnOp):
        if expr.op in ("++", "--") and isinstance(expr.operand, ast.Ident):
            if expr.operand.name not in declared:
                names.add(expr.operand.name)
        else:
            _assigned_in_expr(expr.operand, declared, names)
    elif isinstance(expr, ast.BinOp):
        _assigned_in_expr(expr.lhs, declared, names)
        _assigned_in_expr(expr.rhs, declared, names)
    elif isinstance(expr, ast.Ternary):
        _assigned_in_expr(expr.cond, declared, names)
        _assigned_in_expr(expr.true_value, declared, names)
        _assigned_in_expr(expr.false_value, declared, names)
    elif isinstance(expr, ast.Call):
        for arg in expr.args:
            _assigned_in_expr(arg, declared, names)
    elif isinstance(expr, ast.Index):
        _assigned_in_expr(expr.base, declared, names)
        _assigned_in_expr(expr.index, declared, names)
    elif isinstance(expr, ast.Member):
        _assigned_in_expr(expr.base, declared, names)
    elif isinstance(expr, (ast.Cast, ast.AddressOf, ast.Deref)):
        _assigned_in_expr(expr.expr, declared, names)
    elif isinstance(expr, ast.Comma):
        for sub in expr.exprs:
            _assigned_in_expr(sub, declared, names)


def _assigned_in_stmt(stmt, declared: Set[str], names: Set[str]) -> None:
    if isinstance(stmt, ast.Block):
        for child in stmt.stmts:
            _assigned_in_stmt(child, declared, names)
    elif isinstance(stmt, ast.DeclStmt):
        for decl in stmt.decls:
            if decl.init is not None:
                _assigned_in_expr(decl.init, declared, names)
    elif isinstance(stmt, ast.ExprStmt):
        _assigned_in_expr(stmt.expr, declared, names)
    elif isinstance(stmt, ast.If):
        _assigned_in_expr(stmt.cond, declared, names)
        _assigned_in_stmt(stmt.then_body, declared, names)
        if stmt.else_body is not None:
            _assigned_in_stmt(stmt.else_body, declared, names)
    elif isinstance(stmt, ast.For):
        if stmt.init is not None:
            _assigned_in_stmt(stmt.init, declared, names)
        if stmt.cond is not None:
            _assigned_in_expr(stmt.cond, declared, names)
        if stmt.inc is not None:
            _assigned_in_expr(stmt.inc, declared, names)
        _assigned_in_stmt(stmt.body, declared, names)
    elif isinstance(stmt, (ast.While, ast.DoWhile)):
        _assigned_in_expr(stmt.cond, declared, names)
        _assigned_in_stmt(stmt.body, declared, names)
    elif isinstance(stmt, ast.Return):
        if stmt.value is not None:
            _assigned_in_expr(stmt.value, declared, names)
    elif isinstance(stmt, ast.KernelLaunch):
        for arg in stmt.args:
            _assigned_in_expr(arg, declared, names)


def assigned_names(node, declared: Optional[Set[str]] = None) -> Set[str]:
    """Names assigned by ``node``, excluding the ``declared`` ones.

    Names that ``node`` declares itself are still reported when it
    assigns them after the declaration (``for (int i = 0; ...; i++)``
    reports ``i``)."""
    if declared is None:
        declared = set()
    names: Set[str] = set()
    if isinstance(node, ast.Stmt):
        _assigned_in_stmt(node, declared, names)
    else:
        _assigned_in_expr(node, declared, names)
    return names


# -- math / CUDA builtins ---------------------------------------------------------

#: name -> (ir op name, arity, forced precision or None)
_MATH_BUILTINS = {
    "sqrtf": ("math.sqrt", 1, F32), "sqrt": ("math.sqrt", 1, F64),
    "rsqrtf": ("math.rsqrt", 1, F32), "rsqrt": ("math.rsqrt", 1, F64),
    "expf": ("math.exp", 1, F32), "exp": ("math.exp", 1, F64),
    "__expf": ("math.exp", 1, F32),
    "exp2f": ("math.exp2", 1, F32),
    "logf": ("math.log", 1, F32), "log": ("math.log", 1, F64),
    "__logf": ("math.log", 1, F32),
    "log2f": ("math.log2", 1, F32), "log10f": ("math.log10", 1, F32),
    "sinf": ("math.sin", 1, F32), "sin": ("math.sin", 1, F64),
    "cosf": ("math.cos", 1, F32), "cos": ("math.cos", 1, F64),
    "tanf": ("math.tan", 1, F32), "tanhf": ("math.tanh", 1, F32),
    "atanf": ("math.atan", 1, F32), "atan": ("math.atan", 1, F64),
    "fabsf": ("math.absf", 1, F32), "fabs": ("math.absf", 1, F64),
    "absf": ("math.absf", 1, F32),
    "floorf": ("math.floor", 1, F32), "floor": ("math.floor", 1, F64),
    "ceilf": ("math.ceil", 1, F32), "ceil": ("math.ceil", 1, F64),
    "powf": ("math.powf", 2, F32), "pow": ("math.powf", 2, F64),
    "__powf": ("math.powf", 2, F32),
    "atan2f": ("math.atan2", 2, F32), "atan2": ("math.atan2", 2, F64),
    "fmodf": ("math.fmod", 2, F32), "fmod": ("math.fmod", 2, F64),
    "fminf": ("arith.minf", 2, F32), "fmaxf": ("arith.maxf", 2, F32),
    "fmin": ("arith.minf", 2, F64), "fmax": ("arith.maxf", 2, F64),
}

_IGNORED_CALLS = {"printf", "fprintf", "cudaDeviceSynchronize",
                  "cudaThreadSynchronize", "__syncwarp", "assert",
                  "cudaSetDevice", "free", "exit"}


class _KernelContext:
    """Thread/block position values while generating a kernel body."""

    def __init__(self, thread_ivs, block_ivs, block_dims, grid_dims,
                 block_builder: Builder):
        # each is a 3-tuple of index Values (padded with None / constants)
        self.thread_ivs = thread_ivs
        self.block_ivs = block_ivs
        self.block_dims = block_dims
        self.grid_dims = grid_dims
        #: insertion point between the block and thread parallel loops,
        #: where __shared__ allocations live
        self.block_builder = block_builder


class ModuleGenerator:
    """Generates a :class:`Module` from a parsed translation unit."""

    def __init__(self, unit: ast.TranslationUnit):
        from ..obs import tracer as obs_tracer
        self.unit = unit
        self.module = Module()
        self.module_builder = Builder(self.module.body)
        self._wrapper_cache: Dict[Tuple, str] = {}
        with obs_tracer.span("frontend.codegen.globals",
                             category="frontend"):
            self._emit_globals()

    # -- public API ------------------------------------------------------------

    def emit_host_function(self, name: str) -> Operation:
        """Generate IR for a host function (inlining any launches)."""
        definition = self.unit.functions.get(name)
        if definition is None:
            raise CodegenError("no function named %r" % name)
        if definition.is_kernel:
            raise CodegenError("%r is a kernel; use a launch wrapper" % name)
        return self._emit_function(definition)

    def get_launch_wrapper(self, kernel_name: str, grid_rank: int,
                           block_shape: Tuple[int, ...]) -> str:
        """Get (or create) the launch wrapper for a kernel.

        The wrapper function has signature ``(grid dims..., kernel args...)``
        and contains the inlined kernel as a gpu_wrapper + parallel nest
        specialized to ``block_shape``.
        """
        key = (kernel_name, grid_rank, tuple(block_shape))
        if key in self._wrapper_cache:
            return self._wrapper_cache[key]
        wrapper_name = self.launch_wrapper_name(kernel_name, grid_rank,
                                                block_shape)
        from ..obs import tracer as obs_tracer
        with obs_tracer.span("frontend.codegen", category="frontend",
                             kernel=kernel_name, wrapper=wrapper_name):
            self._emit_launch_wrapper(wrapper_name,
                                      self.unit.functions[kernel_name],
                                      grid_rank, tuple(block_shape))
        self._wrapper_cache[key] = wrapper_name
        return wrapper_name

    def launch_wrapper_name(self, kernel_name: str, grid_rank: int,
                            block_shape: Tuple[int, ...]) -> str:
        """The symbol :meth:`get_launch_wrapper` gives the wrapper, without
        generating it; raises :class:`CodegenError` for an unknown kernel."""
        kernel = self.unit.functions.get(kernel_name)
        if kernel is None or not kernel.is_kernel:
            raise CodegenError("no kernel named %r" % kernel_name)
        return "%s__g%db%s" % (
            kernel_name, grid_rank, "x".join(map(str, block_shape)))

    def adopt_launch_wrapper(self, kernel_name: str, grid_rank: int,
                             block_shape: Tuple[int, ...],
                             func_op: Operation) -> None:
        """Append ``func_op``, a launch wrapper built outside this module
        (a clone of one generated from the same unit), where
        :meth:`get_launch_wrapper` would emit it, and hand it out from
        then on."""
        self.module_builder.insert(func_op)
        self._wrapper_cache[(kernel_name, grid_rank, tuple(block_shape))] = \
            func_op.attr("sym_name")

    # -- globals ----------------------------------------------------------------

    def _emit_globals(self) -> None:
        for global_decl in self.unit.globals:
            decl = global_decl.decl
            dims = []
            for dim_expr in decl.type.array_dims:
                extent = const_eval(dim_expr)
                if extent is None:
                    raise CodegenError(
                        "global array %r needs constant dims" % decl.name)
                dims.append(extent)
            element = ir_element_type(decl.type.element_type())
            space = "constant" if decl.constant else "global"
            type_ = MemRefType(tuple(dims), element, space)
            memref.global_(self.module_builder, decl.name, type_,
                           constant=decl.constant)

    # -- function generation --------------------------------------------------------

    def _emit_function(self, definition: ast.FunctionDef) -> Operation:
        param_types = tuple(ir_param_type(t) for _, t in definition.params)
        result_types: Tuple[Type, ...] = ()
        if definition.return_type.base != "void":
            result_types = (ir_scalar_type(definition.return_type),)
        f = func.func(self.module_builder, definition.name,
                      FunctionType(param_types, result_types),
                      [n for n, _ in definition.params])
        builder = Builder(f.body_block())
        gen = _FunctionGenerator(self, builder, kernel_ctx=None)
        gen.push_scope()
        for (pname, ptype), arg in zip(definition.params,
                                       f.body_block().args):
            gen.bind_param(pname, ptype, arg)
        return_value = gen.gen_stmts(definition.body.stmts,
                                     allow_trailing_return=True)
        if result_types and return_value is None:
            raise CodegenError("function %r must end in a return" %
                               definition.name)
        func.return_(gen.builder,
                     [return_value.value] if return_value else [])
        return f

    def _emit_launch_wrapper(self, wrapper_name: str,
                             kernel: ast.FunctionDef, grid_rank: int,
                             block_shape: Tuple[int, ...]) -> Operation:
        param_types = [INDEX] * grid_rank + \
            [ir_param_type(t) for _, t in kernel.params]
        arg_names = ["g%s" % "xyz"[d] for d in range(grid_rank)] + \
            [n for n, _ in kernel.params]
        f = func.func(self.module_builder, wrapper_name,
                      FunctionType(tuple(param_types), ()), arg_names,
                      kernel=True)
        builder = Builder(f.body_block())
        grid_values = list(f.body_block().args[:grid_rank])
        arg_bindings: List[Binding] = []
        gen = _FunctionGenerator(self, builder, kernel_ctx=None)
        c0 = arith.index_constant(builder, 0)
        for (pname, ptype), arg in zip(kernel.params,
                                       f.body_block().args[grid_rank:]):
            arg_bindings.append(gen.make_param_binding(ptype, arg, c0))
        self.inline_launch(builder, kernel, grid_values,
                           block_shape, arg_bindings)
        func.return_(builder)
        return f

    def inline_launch(self, builder: Builder, kernel: ast.FunctionDef,
                      grid_values: Sequence[Value],
                      block_shape: Tuple[int, ...],
                      arg_bindings: Sequence[Binding]) -> Operation:
        """Inline a kernel launch at the current insertion point (Fig. 5)."""
        c0 = arith.index_constant(builder, 0)
        c1 = arith.index_constant(builder, 1)
        wrapper = polygeist.gpu_wrapper(builder, kernel.name)
        wb = Builder(wrapper.body_block())
        grid_rank = len(grid_values)
        blocks = scf.parallel(
            wb, [c0] * grid_rank, list(grid_values), [c1] * grid_rank,
            gpu_kind=scf.KIND_BLOCKS,
            iv_names=["b%s" % "xyz"[d] for d in range(grid_rank)])
        block_body = Builder(blocks.body_block())
        block_dim_values = [arith.index_constant(block_body, extent)
                            for extent in block_shape]
        threads = scf.parallel(
            block_body, [c0] * len(block_shape), block_dim_values,
            [c1] * len(block_shape), gpu_kind=scf.KIND_THREADS,
            iv_names=["t%s" % "xyz"[d] for d in range(len(block_shape))])
        thread_body = Builder(threads.body_block())

        # Pad ids/dims to 3 dimensions with 0 / 1 constants.
        def pad3(values, fill_builder, fill):
            padded = list(values)
            while len(padded) < 3:
                padded.append(arith.index_constant(fill_builder, fill))
            return tuple(padded)

        ctx = _KernelContext(
            thread_ivs=pad3(threads.body_block().args, thread_body, 0),
            block_ivs=pad3(blocks.body_block().args, thread_body, 0),
            block_dims=pad3(block_dim_values, thread_body, 1),
            grid_dims=pad3(grid_values, thread_body, 1),
            block_builder=Builder(blocks.body_block(),
                                  blocks.body_block().index_of(threads)))
        gen = _FunctionGenerator(self, thread_body, kernel_ctx=ctx)
        gen.push_scope()
        for (pname, ptype), binding in zip(kernel.params, arg_bindings):
            gen.vars[-1][pname] = binding
        gen.gen_stmts(kernel.body.stmts, allow_trailing_return=True)
        scf.yield_(Builder(threads.body_block()))
        scf.yield_(Builder(blocks.body_block()))
        return wrapper


class _FunctionGenerator:
    """Statement/expression generator with SSA variable tracking."""

    def __init__(self, parent: ModuleGenerator, builder: Builder,
                 kernel_ctx: Optional[_KernelContext]):
        self.parent = parent
        self.builder = builder
        self.kernel_ctx = kernel_ctx
        #: scope stack of name -> Binding
        self.vars: List[Dict[str, Binding]] = []
        self._inline_depth = 0
        #: nesting depth of loops; guard-returns are only legal outside
        self._loop_depth = 0

    # -- scopes and variables ----------------------------------------------------

    def push_scope(self) -> None:
        self.vars.append({})

    def pop_scope(self) -> None:
        self.vars.pop()

    def lookup(self, name: str) -> Optional[Binding]:
        for scope in reversed(self.vars):
            if name in scope:
                return scope[name]
        return None

    def rebind(self, name: str, binding: Binding) -> None:
        for scope in reversed(self.vars):
            if name in scope:
                scope[name] = binding
                return
        self.vars[-1][name] = binding

    def declare(self, name: str, binding: Binding) -> None:
        self.vars[-1][name] = binding

    def bind_param(self, name: str, ctype: ast.CType, arg: Value) -> None:
        c0 = arith.index_constant(self.builder, 0)
        self.declare(name, self.make_param_binding(ctype, arg, c0))

    def make_param_binding(self, ctype: ast.CType, arg: Value,
                           zero: Value) -> Binding:
        if ctype.is_pointer:
            return PointerRV(arg, zero, ctype)
        return RValue(arg, ctype)

    # -- constants and coercion -----------------------------------------------------

    def const_index(self, value: int) -> Value:
        return arith.index_constant(self.builder, value)

    def coerce(self, rvalue: RValue, target: ast.CType) -> RValue:
        """Insert conversions so the value has C type ``target``."""
        if isinstance(rvalue, PointerRV):
            if target.is_pointer:
                return rvalue
            raise CodegenError("cannot convert pointer to %s" % target)
        source_type = rvalue.value.type
        target_ir = ir_scalar_type(target)
        if source_type == target_ir:
            return RValue(rvalue.value, target)
        b = self.builder
        value = rvalue.value
        if isinstance(target_ir, FloatType):
            if isinstance(source_type, FloatType):
                name = "arith.extf" if target_ir.width > source_type.width \
                    else "arith.truncf"
                return RValue(arith.cast(b, name, value, target_ir), target)
            if source_type == I1:
                value = arith.cast(b, "arith.extui", value, INDEX)
            return RValue(arith.cast(b, "arith.sitofp", value, target_ir),
                          target)
        if target_ir == INDEX:
            if isinstance(source_type, FloatType):
                return RValue(arith.cast(b, "arith.fptosi", value, INDEX),
                              target)
            if source_type == I1:
                return RValue(arith.cast(b, "arith.extui", value, INDEX),
                              target)
            return RValue(arith.cast(b, "arith.index_cast", value, INDEX),
                          target)
        if target_ir == I1:
            # value != 0
            if isinstance(source_type, FloatType):
                zero = arith.constant(b, 0.0, source_type)
                return RValue(arith.cmpf(b, "ne", value, zero), target)
            zero = arith.constant(b, 0, source_type)
            return RValue(arith.cmpi(b, "ne", value, zero), target)
        raise CodegenError("unsupported conversion %s -> %s" %
                           (source_type, target))

    def usual_conversions(self, lhs: RValue, rhs: RValue
                          ) -> Tuple[RValue, RValue, ast.CType]:
        """C usual arithmetic conversions (simplified rank: f64>f32>int)."""
        rank = {"double": 3, "float": 2}
        lhs_rank = rank.get(lhs.ctype.base, 1)
        rhs_rank = rank.get(rhs.ctype.base, 1)
        if lhs_rank >= rhs_rank:
            common = lhs.ctype if lhs_rank > 1 else ast.CType("int")
        else:
            common = rhs.ctype
        if lhs_rank == 1 and rhs_rank == 1:
            common = ast.CType("int")
        return (self.coerce(lhs, common), self.coerce(rhs, common), common)

    def to_bool(self, rvalue: RValue) -> Value:
        return self.coerce(rvalue, ast.CType("bool")).value

    # -- statements --------------------------------------------------------------------

    def gen_stmts(self, stmts: Sequence[ast.Stmt],
                  allow_trailing_return: bool = False) -> Optional[RValue]:
        """Generate a statement list; returns the trailing return's value."""
        for position, stmt in enumerate(stmts):
            is_last = position == len(stmts) - 1
            # early-return guard: if (cond) return; => wrap the remainder
            if (isinstance(stmt, ast.If) and stmt.else_body is None
                    and _is_bare_return(stmt.then_body)):
                if self._loop_depth > 0:
                    raise CodegenError(
                        "early return inside a loop is not supported")
                rest = stmts[position + 1:]
                cond = self.to_bool(self.gen_expr_rvalue(stmt.cond))
                true_const = arith.constant(self.builder, 1, I1)
                inverted = arith.binary(self.builder, "arith.xori",
                                        cond, true_const)
                result = self._gen_if_merged(
                    inverted,
                    lambda: self.gen_stmts(rest, allow_trailing_return),
                    None,
                    _merge_names=self._visible_assigned(ast.Block(list(rest))))
                return None
            if isinstance(stmt, ast.Return):
                if not (is_last and allow_trailing_return):
                    raise CodegenError(
                        "early return is only supported as 'if (c) return;'")
                if stmt.value is None:
                    return None
                return self.gen_expr_rvalue(stmt.value)
            self.gen_stmt(stmt)
        return None

    def gen_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self.push_scope()
            self.gen_stmts(stmt.stmts)
            self.pop_scope()
        elif isinstance(stmt, ast.DeclStmt):
            for decl in stmt.decls:
                self.gen_decl(decl)
        elif isinstance(stmt, ast.ExprStmt):
            self.gen_expr(stmt.expr)
        elif isinstance(stmt, ast.If):
            self.gen_if(stmt)
        elif isinstance(stmt, ast.For):
            self.gen_for(stmt)
        elif isinstance(stmt, ast.While):
            self.gen_while(stmt.cond, stmt.body)
        elif isinstance(stmt, ast.DoWhile):
            self.push_scope()
            self.gen_stmts(stmt.body.stmts)
            self.pop_scope()
            self.gen_while(stmt.cond, stmt.body)
        elif isinstance(stmt, ast.KernelLaunch):
            self.gen_launch(stmt)
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            raise CodegenError("break/continue are not supported")
        elif isinstance(stmt, ast.Return):
            raise CodegenError("unexpected return placement")
        else:
            raise CodegenError("unsupported statement %r" % stmt)

    def gen_decl(self, decl: ast.VarDecl) -> None:
        ctype = decl.type
        if ctype.base == "dim3":
            dims = [self.const_index(1)] * 3
            if isinstance(decl.init, ast.Call) and decl.init.name == "dim3":
                for i, arg in enumerate(decl.init.args[:3]):
                    dims[i] = self.coerce(self.gen_expr_rvalue(arg),
                                          ast.CType("int")).value
            elif decl.init is not None:
                value = self.gen_expr(decl.init)
                if isinstance(value, Dim3RV):
                    dims = list(value.dims)
                else:
                    dims[0] = self.coerce(value, ast.CType("int")).value
            self.declare(decl.name, Dim3RV(tuple(dims)))
            return
        if ctype.is_array:
            extents = []
            for dim_expr in ctype.array_dims:
                extent = const_eval(dim_expr)
                if extent is None:
                    raise CodegenError(
                        "array %r requires constant dimensions" % decl.name)
                extents.append(extent)
            element = ir_element_type(ctype.element_type())
            if decl.shared:
                if self.kernel_ctx is None:
                    raise CodegenError("__shared__ outside a kernel")
                type_ = MemRefType(tuple(extents), element, "shared")
                ref = memref.alloca(self.kernel_ctx.block_builder, type_)
            else:
                type_ = MemRefType(tuple(extents), element, "local")
                ref = memref.alloca(self.builder, type_)
            ref.name_hint = decl.name
            self.declare(decl.name, ArrayRV(ref, ctype))
            return
        if ctype.is_pointer:
            if decl.init is None:
                self.declare(decl.name, PointerRV(
                    _null_memref(self.builder, ctype), self.const_index(0),
                    ctype))
                return
            value = self.gen_expr(decl.init)
            if isinstance(value, ArrayRV):
                value = self._array_decay(value)
            if not isinstance(value, PointerRV):
                raise CodegenError(
                    "pointer %r initialized from non-pointer" % decl.name)
            self.declare(decl.name, PointerRV(value.base, value.offset,
                                              ctype))
            return
        # scalar
        if decl.shared:
            # __shared__ scalar: a 1-element shared buffer
            element = ir_element_type(ctype)
            type_ = MemRefType((1,), element, "shared")
            if self.kernel_ctx is None:
                raise CodegenError("__shared__ outside a kernel")
            ref = memref.alloca(self.kernel_ctx.block_builder, type_)
            ref.name_hint = decl.name
            self.declare(decl.name, ArrayRV(
                ref, ast.CType(ctype.base, 0, (ast.IntLit(1),))))
            return
        if decl.init is not None:
            value = self.gen_expr(decl.init)
            if isinstance(value, PointerRV):
                raise CodegenError(
                    "scalar %r initialized from pointer" % decl.name)
            self.declare(decl.name, self.coerce(value, ctype))
        else:
            zero = arith.constant(self.builder, 0, ir_scalar_type(ctype))
            self.declare(decl.name, RValue(zero, ctype))

    # -- control flow ------------------------------------------------------------------

    def _visible_assigned(self, node) -> List[str]:
        """Visible scalar/pointer variables assigned inside ``node``."""
        names = []
        for name in sorted(assigned_names(node)):
            binding = self.lookup(name)
            if isinstance(binding, (RValue, PointerRV)):
                names.append(name)
        return names

    def _snapshot(self, names: Sequence[str]) -> List[Binding]:
        return [self.lookup(name) for name in names]

    def _binding_values(self, names: Sequence[str]) -> List[Value]:
        values = []
        for name in names:
            binding = self.lookup(name)
            if isinstance(binding, RValue):
                values.append(binding.value)
            elif isinstance(binding, PointerRV):
                values.append(binding.offset)
            else:
                raise CodegenError("cannot merge %r across control flow" %
                                   name)
        return values

    def _restore(self, names: Sequence[str],
                 bindings: Sequence[Binding]) -> None:
        for name, binding in zip(names, bindings):
            self.rebind(name, binding)

    def _check_pointer_bases(self, names: Sequence[str],
                             snapshots: Sequence[Binding]) -> None:
        """Pointers merged across control flow must keep their base buffer."""
        for name, snapshot in zip(names, snapshots):
            if isinstance(snapshot, PointerRV):
                current = self.lookup(name)
                if isinstance(current, PointerRV) and \
                        current.base is not snapshot.base:
                    raise CodegenError(
                        "pointer %r is rebased inside control flow; only "
                        "offset changes can be merged" % name)

    def _rebind_merged(self, names: Sequence[str],
                       snapshots: Sequence[Binding],
                       values: Sequence[Value]) -> None:
        for name, snapshot, value in zip(names, snapshots, values):
            if isinstance(snapshot, PointerRV):
                self.rebind(name, PointerRV(snapshot.base, value,
                                            snapshot.ctype))
            else:
                self.rebind(name, RValue(value, snapshot.ctype))

    def gen_if(self, stmt: ast.If) -> None:
        cond = self.to_bool(self.gen_expr_rvalue(stmt.cond))
        merged = self._visible_assigned(stmt)
        self._gen_if_merged(
            cond,
            lambda: (self.push_scope(), self.gen_stmts(stmt.then_body.stmts),
                     self.pop_scope()),
            (lambda: (self.push_scope(),
                      self.gen_stmts(stmt.else_body.stmts),
                      self.pop_scope()))
            if stmt.else_body is not None else None,
            _merge_names=merged)

    def _gen_if_merged(self, cond: Value, gen_then, gen_else,
                       _merge_names: Sequence[str]) -> None:
        names = list(_merge_names)
        snapshots = self._snapshot(names)
        result_types = [v.type for v in self._binding_values(names)]
        if_op = scf.if_(self.builder, cond, result_types)
        outer = self.builder
        # then branch
        self.builder = Builder(scf.if_then_block(if_op))
        gen_then()
        self._check_pointer_bases(names, snapshots)
        then_values = self._binding_values(names)
        scf.yield_(self.builder, then_values)
        # else branch
        self._restore(names, snapshots)
        self.builder = Builder(scf.if_else_block(if_op))
        if gen_else is not None:
            gen_else()
        self._check_pointer_bases(names, snapshots)
        scf.yield_(self.builder, self._binding_values(names))
        self._restore(names, snapshots)
        self.builder = outer
        self._rebind_merged(names, snapshots, if_op.results)

    def gen_for(self, stmt: ast.For) -> None:
        canonical = self._match_canonical_for(stmt)
        if canonical is None:
            # generic lowering: init; while (cond) { body; inc; }
            self.push_scope()
            if stmt.init is not None:
                self.gen_stmt(stmt.init)
            cond = stmt.cond if stmt.cond is not None else ast.IntLit(1)
            body = ast.Block(list(stmt.body.stmts) +
                             ([ast.ExprStmt(stmt.inc)]
                              if stmt.inc is not None else []))
            self.gen_while(cond, body)
            self.pop_scope()
            return
        var, lb_expr, ub_expr, inclusive, step = canonical
        self.push_scope()
        lb = self.coerce(self.gen_expr_rvalue(lb_expr),
                         ast.CType("int")).value
        ub = self.coerce(self.gen_expr_rvalue(ub_expr),
                         ast.CType("int")).value
        if inclusive:
            ub = arith.addi(self.builder, ub, self.const_index(1))
        step_value = self.const_index(step)
        carried = self._visible_assigned_excluding(stmt.body, {var})
        snapshots = self._snapshot(carried)
        loop = scf.for_(self.builder, lb, ub, step_value,
                        self._binding_values(carried), iv_name=var)
        outer = self.builder
        self.builder = Builder(loop.body_block())
        self.push_scope()
        self.declare(var, RValue(loop.body_block().arg(0), ast.CType("int")))
        self._rebind_merged(carried, snapshots, loop.body_block().args[1:])
        self._loop_depth += 1
        self.gen_stmts(stmt.body.stmts)
        self._loop_depth -= 1
        self._check_pointer_bases(carried, snapshots)
        scf.yield_(self.builder, self._binding_values(carried))
        self.pop_scope()
        self.builder = outer
        self._rebind_merged(carried, snapshots, loop.results)
        self.pop_scope()

    def _visible_assigned_excluding(self, node, exclude) -> List[str]:
        return [n for n in self._visible_assigned(node) if n not in exclude]

    def _match_canonical_for(self, stmt: ast.For):
        """Recognize ``for (i = lb; i < ub; i += c)`` with immutable i."""
        if stmt.init is None or stmt.cond is None or stmt.inc is None:
            return None
        # init
        if isinstance(stmt.init, ast.DeclStmt):
            if len(stmt.init.decls) != 1:
                return None
            decl = stmt.init.decls[0]
            if not decl.type.is_integer or decl.init is None:
                return None
            var, lb_expr = decl.name, decl.init
        elif isinstance(stmt.init, ast.ExprStmt) and \
                isinstance(stmt.init.expr, ast.Assign) and \
                stmt.init.expr.op == "=" and \
                isinstance(stmt.init.expr.target, ast.Ident):
            var, lb_expr = stmt.init.expr.target.name, stmt.init.expr.value
        else:
            return None
        # condition
        cond = stmt.cond
        if not (isinstance(cond, ast.BinOp) and cond.op in ("<", "<=") and
                isinstance(cond.lhs, ast.Ident) and cond.lhs.name == var):
            return None
        ub_expr = cond.rhs
        inclusive = cond.op == "<="
        # increment
        inc = stmt.inc
        step = None
        if isinstance(inc, ast.UnOp) and inc.op == "++" and \
                isinstance(inc.operand, ast.Ident) and \
                inc.operand.name == var:
            step = 1
        elif isinstance(inc, ast.Assign) and \
                isinstance(inc.target, ast.Ident) and \
                inc.target.name == var:
            if inc.op == "+=":
                step = const_eval(inc.value)
            elif inc.op == "=" and isinstance(inc.value, ast.BinOp) and \
                    inc.value.op == "+" and \
                    isinstance(inc.value.lhs, ast.Ident) and \
                    inc.value.lhs.name == var:
                step = const_eval(inc.value.rhs)
        if step is None or step <= 0:
            return None
        # the induction variable must not be written in the body, and the
        # bound must not depend on body-assigned variables
        body_assigned = assigned_names(stmt.body)
        if var in body_assigned:
            return None
        if _free_names(ub_expr) & body_assigned:
            return None
        if _free_names(lb_expr) & body_assigned:
            return None
        return var, lb_expr, ub_expr, inclusive, step

    def gen_while(self, cond_expr: ast.Expr, body: ast.Block) -> None:
        carried = self._visible_assigned(body)
        # the condition may also read variables; carried covers writes only
        snapshots = self._snapshot(carried)
        init_values = self._binding_values(carried)
        result_types = [v.type for v in init_values]
        while_op = scf.while_(self.builder, init_values, result_types)
        outer = self.builder
        # before region: rebind carried to region args, evaluate condition
        before = while_op.body_block(0)
        self.builder = Builder(before)
        self._rebind_merged(carried, snapshots, before.args)
        cond = self.to_bool(self.gen_expr_rvalue(cond_expr))
        scf.condition(self.builder, cond, self._binding_values(carried))
        # after region: body
        after = while_op.body_block(1)
        self.builder = Builder(after)
        self._rebind_merged(carried, snapshots, after.args)
        self.push_scope()
        self._loop_depth += 1
        self.gen_stmts(body.stmts)
        self._loop_depth -= 1
        self.pop_scope()
        self._check_pointer_bases(carried, snapshots)
        scf.yield_(self.builder, self._binding_values(carried))
        self.builder = outer
        self._restore(carried, snapshots)
        self._rebind_merged(carried, snapshots, while_op.results)

    # -- kernel launches -----------------------------------------------------------------

    def gen_launch(self, stmt: ast.KernelLaunch) -> None:
        kernel = self.parent.unit.functions.get(stmt.name)
        if kernel is None or not kernel.is_kernel:
            raise CodegenError("launch of unknown kernel %r" % stmt.name)
        grid_values = self._launch_dims(stmt.grid, allow_dynamic=True)
        block_shape = []
        for value in self._launch_dims(stmt.block, allow_dynamic=False):
            block_shape.append(value)
        arg_bindings: List[Binding] = []
        for arg_expr, (_, ptype) in zip(stmt.args, kernel.params):
            value = self.gen_expr(arg_expr)
            if isinstance(value, ArrayRV):
                value = self._array_decay(value)
            if ptype.is_pointer:
                if not isinstance(value, PointerRV):
                    raise CodegenError("kernel %r expects a pointer arg" %
                                       stmt.name)
                arg_bindings.append(value)
            else:
                arg_bindings.append(self.coerce(value, ptype))
        self.parent.inline_launch(self.builder, kernel, grid_values,
                                  tuple(block_shape), arg_bindings)

    def _launch_dims(self, expr: ast.Expr, allow_dynamic: bool):
        """Evaluate a launch config expr: ints or dim3 of them."""
        if isinstance(expr, ast.Call) and expr.name == "dim3":
            dims = [self._launch_dim(e, allow_dynamic) for e in expr.args]
            return dims
        if isinstance(expr, ast.Ident):
            binding = self.lookup(expr.name)
            if isinstance(binding, Dim3RV):
                dims = list(binding.dims)
                # drop trailing size-1 dimensions (dim3 defaults)
                while len(dims) > 1 and _is_const_one(dims[-1]):
                    dims.pop()
                if allow_dynamic:
                    return dims
                return [self._require_const(d) for d in dims]
        return [self._launch_dim(expr, allow_dynamic)]

    def _launch_dim(self, expr: ast.Expr, allow_dynamic: bool):
        value = self.coerce(self.gen_expr_rvalue(expr),
                            ast.CType("int")).value
        if allow_dynamic:
            return value
        return self._require_const(value)

    def _require_const(self, value: Value) -> int:
        constant = arith.constant_value(value)
        if constant is None:
            raise CodegenError(
                "block dimensions must be compile-time constants")
        return int(constant)

    # -- expressions -------------------------------------------------------------------------

    def gen_expr_rvalue(self, expr: ast.Expr) -> RValue:
        value = self.gen_expr(expr)
        if isinstance(value, ArrayRV):
            raise CodegenError("array used where a scalar is required")
        if isinstance(value, PointerRV):
            raise CodegenError("pointer used where a scalar is required")
        if isinstance(value, Dim3RV):
            raise CodegenError("dim3 used where a scalar is required")
        return value

    def gen_expr(self, expr: ast.Expr) -> Binding:
        if isinstance(expr, ast.IntLit):
            return RValue(self.const_index(expr.value), ast.CType("int"))
        if isinstance(expr, ast.FloatLit):
            if expr.is_f32:
                return RValue(arith.constant(self.builder, expr.value, F32),
                              ast.CType("float"))
            return RValue(arith.constant(self.builder, expr.value, F64),
                          ast.CType("double"))
        if isinstance(expr, ast.Ident):
            return self.gen_ident(expr.name)
        if isinstance(expr, ast.Member):
            return self.gen_member(expr)
        if isinstance(expr, ast.BinOp):
            return self.gen_binop(expr)
        if isinstance(expr, ast.UnOp):
            return self.gen_unop(expr)
        if isinstance(expr, ast.Assign):
            return self.gen_assign(expr)
        if isinstance(expr, ast.Ternary):
            return self.gen_ternary(expr)
        if isinstance(expr, ast.Call):
            return self.gen_call(expr)
        if isinstance(expr, ast.Index):
            return self.gen_load(expr)
        if isinstance(expr, ast.Deref):
            return self.gen_load(ast.Index(expr.expr, ast.IntLit(0)))
        if isinstance(expr, ast.Cast):
            return self.gen_cast(expr)
        if isinstance(expr, ast.AddressOf):
            return self.gen_address_of(expr.expr)
        if isinstance(expr, ast.Comma):
            result: Binding = RValue(self.const_index(0), ast.CType("int"))
            for sub in expr.exprs:
                result = self.gen_expr(sub)
            return result
        raise CodegenError("unsupported expression %r" % expr)

    def gen_ident(self, name: str) -> Binding:
        binding = self.lookup(name)
        if binding is not None:
            return binding
        # module-level globals
        try:
            ref = memref.get_global(self.builder, self.parent.module.op,
                                    name)
        except KeyError:
            raise CodegenError("use of undeclared identifier %r" % name)
        base = _base_of_memref_type(ref.type)
        return ArrayRV(ref, ast.CType(base, 0,
                                      tuple(ast.IntLit(d)
                                            for d in ref.type.shape)))

    def gen_member(self, expr: ast.Member) -> Binding:
        if isinstance(expr.base, ast.Ident):
            base_name = expr.base.name
            axis = {"x": 0, "y": 1, "z": 2}.get(expr.name)
            if axis is not None:
                ctx = self.kernel_ctx
                if base_name in ("threadIdx", "blockIdx", "blockDim",
                                 "gridDim"):
                    if ctx is None:
                        raise CodegenError(
                            "%s used outside a kernel" % base_name)
                    table = {"threadIdx": ctx.thread_ivs,
                             "blockIdx": ctx.block_ivs,
                             "blockDim": ctx.block_dims,
                             "gridDim": ctx.grid_dims}
                    return RValue(table[base_name][axis], ast.CType("int"))
                binding = self.lookup(base_name)
                if isinstance(binding, Dim3RV):
                    return RValue(binding.dims[axis], ast.CType("int"))
        raise CodegenError("unsupported member access %r" % expr)

    def gen_binop(self, expr: ast.BinOp) -> Binding:
        op = expr.op
        if op in ("&&", "||"):
            return self.gen_short_circuit(expr)
        lhs = self.gen_expr(expr.lhs)
        rhs = self.gen_expr(expr.rhs)
        # pointer arithmetic
        if isinstance(lhs, ArrayRV):
            lhs = self._array_decay(lhs)
        if isinstance(rhs, ArrayRV):
            rhs = self._array_decay(rhs)
        if isinstance(lhs, PointerRV) or isinstance(rhs, PointerRV):
            return self.gen_pointer_binop(op, lhs, rhs)
        assert isinstance(lhs, RValue) and isinstance(rhs, RValue)
        if op in ("==", "!=", "<", ">", "<=", ">="):
            lhs, rhs, common = self.usual_conversions(lhs, rhs)
            predicate = {"==": "eq", "!=": "ne", "<": "lt", ">": "gt",
                         "<=": "le", ">=": "ge"}[op]
            if common.is_float:
                value = arith.cmpf(self.builder, predicate, lhs.value,
                                   rhs.value)
            else:
                value = arith.cmpi(self.builder, predicate, lhs.value,
                                   rhs.value)
            return RValue(value, ast.CType("bool"))
        lhs, rhs, common = self.usual_conversions(lhs, rhs)
        if common.is_float:
            table = {"+": "arith.addf", "-": "arith.subf",
                     "*": "arith.mulf", "/": "arith.divf",
                     "%": "arith.remf"}
            name = table.get(op)
            if name is None:
                raise CodegenError("operator %r on floats" % op)
        else:
            table = {"+": "arith.addi", "-": "arith.subi",
                     "*": "arith.muli", "/": "arith.divsi",
                     "%": "arith.remsi", "<<": "arith.shli",
                     ">>": "arith.shrsi", "&": "arith.andi",
                     "|": "arith.ori", "^": "arith.xori"}
            name = table.get(op)
            if name is None:
                raise CodegenError("unsupported integer operator %r" % op)
        value = arith.binary(self.builder, name, lhs.value, rhs.value)
        return RValue(value, common)

    def gen_pointer_binop(self, op: str, lhs: Binding,
                          rhs: Binding) -> Binding:
        if op == "+" and isinstance(lhs, PointerRV) and \
                isinstance(rhs, RValue):
            offset = self.coerce(rhs, ast.CType("int")).value
            return PointerRV(lhs.base,
                             arith.addi(self.builder, lhs.offset, offset),
                             lhs.ctype)
        if op == "+" and isinstance(rhs, PointerRV) and \
                isinstance(lhs, RValue):
            return self.gen_pointer_binop("+", rhs, lhs)
        if op == "-" and isinstance(lhs, PointerRV) and \
                isinstance(rhs, RValue):
            offset = self.coerce(rhs, ast.CType("int")).value
            return PointerRV(lhs.base,
                             arith.subi(self.builder, lhs.offset, offset),
                             lhs.ctype)
        if op == "-" and isinstance(lhs, PointerRV) and \
                isinstance(rhs, PointerRV):
            if lhs.base is not rhs.base:
                raise CodegenError("subtracting unrelated pointers")
            return RValue(arith.subi(self.builder, lhs.offset, rhs.offset),
                          ast.CType("int"))
        raise CodegenError("unsupported pointer operation %r" % op)

    def gen_short_circuit(self, expr: ast.BinOp) -> RValue:
        lhs = self.to_bool(self.gen_expr_rvalue(expr.lhs))
        if_op = scf.if_(self.builder, lhs, [I1])
        outer = self.builder
        then_builder = Builder(scf.if_then_block(if_op))
        else_builder = Builder(scf.if_else_block(if_op))
        if expr.op == "&&":
            self.builder = then_builder
            rhs = self.to_bool(self.gen_expr_rvalue(expr.rhs))
            scf.yield_(self.builder, [rhs])
            scf.yield_(else_builder, [arith.constant(else_builder, 0, I1)])
        else:
            scf.yield_(then_builder, [arith.constant(then_builder, 1, I1)])
            self.builder = else_builder
            rhs = self.to_bool(self.gen_expr_rvalue(expr.rhs))
            scf.yield_(self.builder, [rhs])
        self.builder = outer
        return RValue(if_op.result(), ast.CType("bool"))

    def gen_unop(self, expr: ast.UnOp) -> Binding:
        if expr.op in ("++", "--"):
            return self.gen_incdec(expr)
        operand = self.gen_expr_rvalue(expr.operand)
        if expr.op == "+":
            return operand
        if expr.op == "-":
            if operand.ctype.is_float:
                return RValue(arith.negf(self.builder, operand.value),
                              operand.ctype)
            as_int = self.coerce(operand, ast.CType("int"))
            zero = self.const_index(0)
            return RValue(arith.subi(self.builder, zero, as_int.value),
                          ast.CType("int"))
        if expr.op == "!":
            as_bool = self.to_bool(operand)
            true_const = arith.constant(self.builder, 1, I1)
            return RValue(arith.binary(self.builder, "arith.xori", as_bool,
                                       true_const), ast.CType("bool"))
        if expr.op == "~":
            as_int = self.coerce(operand, ast.CType("int"))
            minus_one = self.const_index(-1)
            return RValue(arith.binary(self.builder, "arith.xori",
                                       as_int.value, minus_one),
                          ast.CType("int"))
        raise CodegenError("unsupported unary operator %r" % expr.op)

    def gen_incdec(self, expr: ast.UnOp) -> RValue:
        target = expr.operand
        old = self.gen_expr(target)
        one_int = ast.IntLit(1)
        op = "+" if expr.op == "++" else "-"
        if isinstance(old, PointerRV):
            new_binding = self.gen_pointer_binop(
                op, old, RValue(self.const_index(1), ast.CType("int")))
            self._store_into(target, new_binding)
            return old if expr.postfix else new_binding
        assert isinstance(old, RValue)
        one = arith.constant(self.builder, 1,
                             ir_scalar_type(old.ctype)) \
            if old.ctype.is_float else self.const_index(1)
        if old.ctype.is_float:
            name = "arith.addf" if op == "+" else "arith.subf"
        else:
            name = "arith.addi" if op == "+" else "arith.subi"
        new_value = RValue(arith.binary(self.builder, name, old.value, one),
                           old.ctype)
        self._store_into(target, new_value)
        return old if expr.postfix else new_value

    def gen_assign(self, expr: ast.Assign) -> Binding:
        if expr.op == "=":
            value = self.gen_expr(expr.value)
            if isinstance(value, ArrayRV):
                value = self._array_decay(value)
            self._store_into(expr.target, value)
            return value
        # compound assignment: target op= value
        binary = ast.BinOp(expr.op[:-1], expr.target, expr.value)
        value = self.gen_expr(binary)
        self._store_into(expr.target, value)
        return value

    def _store_into(self, target: ast.Expr, value: Binding) -> None:
        if isinstance(target, ast.Ident):
            binding = self.lookup(target.name)
            if binding is None:
                raise CodegenError("assignment to undeclared %r" %
                                   target.name)
            if isinstance(binding, PointerRV):
                if not isinstance(value, PointerRV):
                    raise CodegenError("assigning non-pointer to pointer %r"
                                       % target.name)
                self.rebind(target.name, PointerRV(value.base, value.offset,
                                                   binding.ctype))
                return
            if isinstance(binding, ArrayRV):
                if len(binding.ctype.array_dims) == 1 and \
                        const_eval(binding.ctype.array_dims[0]) == 1:
                    # __shared__ scalar
                    assert isinstance(value, RValue)
                    coerced = self.coerce(
                        value, binding.ctype.element_type())
                    stored = self._narrow_to_storage(coerced.value,
                                                     binding.ref)
                    memref.store(self.builder, stored, binding.ref,
                                 [self.const_index(0)])
                    return
                raise CodegenError("cannot assign to array %r" % target.name)
            assert isinstance(binding, RValue)
            if isinstance(value, PointerRV):
                raise CodegenError("assigning pointer to scalar %r" %
                                   target.name)
            self.rebind(target.name, self.coerce(value, binding.ctype))
            return
        if isinstance(target, ast.Index) or isinstance(target, ast.Deref):
            if isinstance(target, ast.Deref):
                target = ast.Index(target.expr, ast.IntLit(0))
            ref, indices, element = self._resolve_access(target)
            assert isinstance(value, RValue)
            coerced = self.coerce(value, element)
            stored = self._narrow_to_storage(coerced.value, ref)
            memref.store(self.builder, stored, ref, indices)
            return
        raise CodegenError("unsupported assignment target %r" % target)

    def _narrow_to_storage(self, value: Value, ref: Value) -> Value:
        """Cast a value to the memref's element storage type if needed."""
        storage = ref.type.element
        if value.type != storage and isinstance(storage, IntegerType) and \
                storage.width > 1:
            return arith.cast(self.builder, "arith.index_cast", value,
                              storage)
        return value

    def gen_ternary(self, expr: ast.Ternary) -> RValue:
        cond = self.to_bool(self.gen_expr_rvalue(expr.cond))
        outer = self.builder
        # probe types by generating both sides inside the if
        if_op = scf.if_(self.builder, cond, [])
        self.builder = Builder(scf.if_then_block(if_op))
        true_value = self.gen_expr_rvalue(expr.true_value)
        true_builder = self.builder
        self.builder = Builder(scf.if_else_block(if_op))
        false_value = self.gen_expr_rvalue(expr.false_value)
        false_builder = self.builder
        # unify types
        rank = {"double": 3, "float": 2}
        if rank.get(true_value.ctype.base, 1) >= \
                rank.get(false_value.ctype.base, 1):
            common = true_value.ctype
        else:
            common = false_value.ctype
        self.builder = true_builder
        true_value = self.coerce(true_value, common)
        scf.yield_(self.builder, [true_value.value])
        self.builder = false_builder
        false_value = self.coerce(false_value, common)
        scf.yield_(self.builder, [false_value.value])
        self.builder = outer
        result = if_op.results
        # patch result type now that we know it
        from ..ir import OpResult
        if_op.results.append(OpResult(if_op, 0, true_value.value.type))
        return RValue(if_op.results[0], common)

    def gen_cast(self, expr: ast.Cast) -> Binding:
        value = self.gen_expr(expr.expr)
        if isinstance(value, ArrayRV):
            value = self._array_decay(value)
        if isinstance(value, PointerRV):
            if expr.type.is_pointer:
                return PointerRV(value.base, value.offset, expr.type)
            raise CodegenError("cannot cast pointer to scalar")
        return self.coerce(value, expr.type)

    def gen_address_of(self, expr: ast.Expr) -> PointerRV:
        if isinstance(expr, ast.Index):
            ref, indices, element = self._resolve_access(expr)
            if len(indices) != 1:
                raise CodegenError(
                    "address-of supports 1-D indexing only")
            ctype = ast.CType(element.base, 1)
            return PointerRV(ref, indices[0], ctype)
        if isinstance(expr, ast.Ident):
            binding = self.lookup(expr.name)
            if isinstance(binding, ArrayRV):
                decayed = self._array_decay(binding)
                return decayed
        raise CodegenError("unsupported address-of %r" % expr)

    # -- memory access --------------------------------------------------------------------

    def _array_decay(self, array: ArrayRV) -> PointerRV:
        """Arrays decay to a pointer only when 1-D (flat view)."""
        type_ = array.ref.type
        if type_.rank != 1:
            raise CodegenError("multi-dimensional array cannot decay")
        element = array.ctype.element_type()
        return PointerRV(array.ref, self.const_index(0),
                         ast.CType(element.base, 1))

    def _resolve_access(self, expr: ast.Index):
        """Resolve a chain of Index nodes to (memref, indices, elem ctype)."""
        chain: List[ast.Expr] = []
        node: ast.Expr = expr
        while isinstance(node, ast.Index):
            chain.append(node.index)
            node = node.base
        chain.reverse()
        base = self.gen_expr(node)
        if isinstance(base, ArrayRV):
            rank = base.ref.type.rank
            if len(chain) != rank:
                raise CodegenError(
                    "array access with %d indices, rank %d" %
                    (len(chain), rank))
            indices = [self.coerce(self.gen_expr_rvalue(e),
                                   ast.CType("int")).value for e in chain]
            return base.ref, indices, base.ctype.element_type()
        if isinstance(base, PointerRV):
            if len(chain) != 1:
                raise CodegenError("pointer access must be 1-D")
            index = self.coerce(self.gen_expr_rvalue(chain[0]),
                                ast.CType("int")).value
            flat = arith.addi(self.builder, base.offset, index)
            return base.base, [flat], base.ctype.element_type()
        raise CodegenError("subscript of non-array %r" % node)

    def gen_load(self, expr: ast.Index) -> RValue:
        ref, indices, element = self._resolve_access(expr)
        value = memref.load(self.builder, ref, indices)
        expected = ir_scalar_type(element)
        if value.type != expected:
            # narrow integer storage widens back to the index value type
            value = arith.cast(self.builder, "arith.index_cast", value,
                               expected)
        return RValue(value, element)

    # -- calls ------------------------------------------------------------------------------

    def gen_call(self, expr: ast.Call) -> Binding:
        name = expr.name
        if name == "__syncthreads":
            if self.kernel_ctx is None:
                raise CodegenError("__syncthreads outside a kernel")
            ivs = [iv for iv in self.kernel_ctx.thread_ivs
                   if _is_block_arg(iv)]
            polygeist.barrier(self.builder, ivs)
            return RValue(self.const_index(0), ast.CType("int"))
        if name in _IGNORED_CALLS:
            for arg in expr.args:
                # arguments may have side effects (rare); skip generation
                pass
            return RValue(self.const_index(0), ast.CType("int"))
        if name in _MATH_BUILTINS:
            op_name, arity, precision = _MATH_BUILTINS[name]
            if len(expr.args) != arity:
                raise CodegenError("%s expects %d arguments" % (name, arity))
            target = ast.CType("float" if precision == F32 else "double")
            args = [self.coerce(self.gen_expr_rvalue(a), target).value
                    for a in expr.args]
            if op_name.startswith("math."):
                if arity == 1:
                    return RValue(math_d.unary(self.builder, op_name,
                                               args[0]), target)
                return RValue(math_d.binary(self.builder, op_name, args[0],
                                            args[1]), target)
            return RValue(arith.binary(self.builder, op_name, args[0],
                                       args[1]), target)
        if name in ("min", "max"):
            lhs = self.gen_expr_rvalue(expr.args[0])
            rhs = self.gen_expr_rvalue(expr.args[1])
            lhs, rhs, common = self.usual_conversions(lhs, rhs)
            if common.is_float:
                op_name = "arith.minf" if name == "min" else "arith.maxf"
            else:
                op_name = "arith.minsi" if name == "min" else "arith.maxsi"
            return RValue(arith.binary(self.builder, op_name, lhs.value,
                                       rhs.value), common)
        if name == "abs":
            value = self.coerce(self.gen_expr_rvalue(expr.args[0]),
                                ast.CType("int"))
            zero = self.const_index(0)
            neg = arith.subi(self.builder, zero, value.value)
            is_neg = arith.cmpi(self.builder, "lt", value.value, zero)
            return RValue(arith.select(self.builder, is_neg, neg,
                                       value.value), ast.CType("int"))
        if name in ("atomicAdd", "atomicMax", "atomicMin", "atomicExch"):
            return self.gen_atomic(name, expr.args)
        if name == "dim3":
            dims = [self.coerce(self.gen_expr_rvalue(a),
                                ast.CType("int")).value
                    for a in expr.args[:3]]
            while len(dims) < 3:
                dims.append(self.const_index(1))
            return Dim3RV(tuple(dims))
        # user function: inline
        definition = self.parent.unit.functions.get(name)
        if definition is None:
            raise CodegenError("call to unknown function %r" % name)
        return self.inline_call(definition, expr.args)

    def gen_atomic(self, name: str, args: Sequence[ast.Expr]) -> RValue:
        if len(args) != 2:
            raise CodegenError("%s expects (address, value)" % name)
        address = args[0]
        if isinstance(address, ast.AddressOf):
            pointer = self.gen_address_of(address.expr)
        else:
            value = self.gen_expr(address)
            if isinstance(value, ArrayRV):
                value = self._array_decay(value)
            if not isinstance(value, PointerRV):
                raise CodegenError("%s needs a pointer argument" % name)
            pointer = value
        element = pointer.ctype.element_type()
        operand = self.coerce(self.gen_expr_rvalue(args[1]), element)
        is_float = element.is_float
        kind = {"atomicAdd": "addf" if is_float else "addi",
                "atomicMax": "maxf" if is_float else "maxi",
                "atomicMin": "minf" if is_float else "mini",
                "atomicExch": "exchange"}[name]
        old = memref.atomic_rmw(self.builder, kind, operand.value,
                                pointer.base, [pointer.offset])
        return RValue(old, element)

    def inline_call(self, definition: ast.FunctionDef,
                    args: Sequence[ast.Expr]) -> Binding:
        if self._inline_depth > 16:
            raise CodegenError("call inlining too deep (recursion?)")
        if len(args) != len(definition.params):
            raise CodegenError("call to %r with wrong arity" %
                               definition.name)
        bindings: List[Binding] = []
        for arg_expr, (_, ptype) in zip(args, definition.params):
            value = self.gen_expr(arg_expr)
            if isinstance(value, ArrayRV):
                value = self._array_decay(value)
            if ptype.is_pointer:
                if not isinstance(value, PointerRV):
                    raise CodegenError("%r expects a pointer argument" %
                                       definition.name)
                bindings.append(value)
            else:
                bindings.append(self.coerce(value, ptype))
        saved_scopes = self.vars
        self.vars = [{}]
        self._inline_depth += 1
        for (pname, _), binding in zip(definition.params, bindings):
            self.declare(pname, binding)
        result = self.gen_stmts(definition.body.stmts,
                                allow_trailing_return=True)
        self._inline_depth -= 1
        self.vars = saved_scopes
        if definition.return_type.base == "void":
            return RValue(self.const_index(0), ast.CType("int"))
        if result is None:
            raise CodegenError("function %r must end in a return" %
                               definition.name)
        return self.coerce(result, definition.return_type)


# -- small helpers ------------------------------------------------------------------


def _is_bare_return(block: ast.Block) -> bool:
    return len(block.stmts) == 1 and \
        isinstance(block.stmts[0], ast.Return) and \
        block.stmts[0].value is None


def _collect_names(node, names: Set[str]) -> None:
    if isinstance(node, ast.Ident):
        names.add(node.name)
    elif isinstance(node, ast.BinOp):
        _collect_names(node.lhs, names)
        _collect_names(node.rhs, names)
    elif isinstance(node, ast.UnOp):
        _collect_names(node.operand, names)
    elif isinstance(node, ast.Assign):
        _collect_names(node.target, names)
        _collect_names(node.value, names)
    elif isinstance(node, ast.Ternary):
        _collect_names(node.cond, names)
        _collect_names(node.true_value, names)
        _collect_names(node.false_value, names)
    elif isinstance(node, ast.Call):
        for arg in node.args:
            _collect_names(arg, names)
    elif isinstance(node, ast.Index):
        _collect_names(node.base, names)
        _collect_names(node.index, names)
    elif isinstance(node, ast.Member):
        _collect_names(node.base, names)
    elif isinstance(node, (ast.Cast, ast.AddressOf, ast.Deref)):
        _collect_names(node.expr, names)
    elif isinstance(node, ast.Comma):
        for sub in node.exprs:
            _collect_names(sub, names)


def _free_names(expr: ast.Expr) -> Set[str]:
    names: Set[str] = set()
    _collect_names(expr, names)
    return names


def _is_block_arg(value) -> bool:
    from ..ir import BlockArgument
    return isinstance(value, BlockArgument)


def _is_const_one(value: Value) -> bool:
    return arith.constant_value(value) == 1


def _null_memref(builder: Builder, ctype: ast.CType) -> Value:
    """Placeholder buffer for uninitialized pointers."""
    element = ir_scalar_type(ctype.element_type())
    return memref.alloca(builder, MemRefType((1,), element, "local"))


def _base_of_memref_type(type_: MemRefType) -> str:
    element = type_.element
    if element == F32:
        return "float"
    if element == F64:
        return "double"
    return "int"
