"""Nested parallel loop unroll-and-interleave (§IV of the paper).

Unrolls one dimension of an ``scf.parallel`` by a factor ``f`` and
interleaves the statement copies:

* side-effecting statements are grouped copy-by-copy (parallel iterations
  have no mutual ordering constraints, Fig. 7);
* nested ``scf.for``/``scf.if``/``scf.parallel`` ops that contain barriers
  are *jammed*: a single loop/conditional is emitted whose bounds/condition
  come from copy 0 (legal because they are uniform in the unrolled iv), with
  iteration arguments concatenated across copies (Fig. 8);
* ``polygeist.barrier`` ops are merged — all ``f`` copies become one barrier
  (Fig. 10, left). If a barrier *would* have to be duplicated (it sits under
  control flow whose shape varies with the unrolled iv) the transformation
  is illegal and raises :class:`IllegalUnroll` (Fig. 10, right);
* nested control flow without barriers is simply replicated wholesale
  (Fig. 9).

Two indexing styles are provided (Fig. 11): ``"thread"`` uses the
coalescing-friendly ``iv + k * new_ub`` decomposition and requires the
factor to divide the extent; ``"block"`` uses contiguous grouping
``iv * f + k`` and emits an *epilogue* parallel loop covering the remainder,
so any factor is accepted (§V-C).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis.uniformity import contains_barrier, is_uniform_in
from ..dialects import arith, polygeist, scf
from ..ir import Block, Builder, INDEX, Operation, Value, single_block_region


class IllegalUnroll(ValueError):
    """The requested unroll-and-interleave would break barrier semantics."""


# -- legality -----------------------------------------------------------------


def check_unroll_legality(parallel_op: Operation,
                          trust_convergence: bool = False
                          ) -> Optional[str]:
    """Why unrolling ``parallel_op`` is illegal, or None if it is legal.

    ``trust_convergence`` applies when unrolling a *thread* loop: the GPU
    programming model already guarantees that control flow around barriers
    does not vary across threads, so only structural jammability is checked
    (§V-A: thread coarsening "is always legal").
    """
    ivs = set(parallel_op.body_block().args)
    barriers: List[Operation] = []
    parallel_op.walk_preorder(
        lambda op: barriers.append(op)
        if op.name == polygeist.BARRIER else None, include_self=False)
    for barrier in barriers:
        ancestor = barrier.parent_op
        while ancestor is not None and ancestor is not parallel_op:
            reason = _jammable(ancestor, ivs, trust_convergence)
            if reason is not None:
                return reason
            ancestor = ancestor.parent_op
    return None


def _jammable(op: Operation, ivs, trust_convergence: bool) -> Optional[str]:
    if op.name == scf.FOR:
        if trust_convergence:
            return None
        for bound in op.operands[:3]:
            if not is_uniform_in(bound, ivs):
                return ("barrier inside scf.for whose bounds depend on the "
                        "unrolled induction variable")
        return None
    if op.name == scf.IF:
        if trust_convergence:
            return None
        if not is_uniform_in(op.operand(0), ivs):
            return ("barrier inside scf.if whose condition depends on the "
                    "unrolled induction variable")
        return None
    if op.name == scf.PARALLEL:
        for bound in op.operands:
            if not is_uniform_in(bound, ivs):
                return "barrier inside a parallel loop with varying bounds"
        return None
    if op.name == scf.WHILE:
        return "barrier inside scf.while cannot be jammed"
    return "barrier inside un-jammable op %s" % op.name


# -- the transformation -------------------------------------------------------


def unroll_and_interleave(parallel_op: Operation, dim: int, factor: int,
                          style: str) -> Tuple[Operation,
                                               Optional[Operation]]:
    """Unroll dimension ``dim`` of ``parallel_op`` by ``factor``.

    Returns ``(main_loop, epilogue_loop_or_None)``. ``style`` is
    ``"thread"``, ``"thread_naive"`` or ``"block"`` (see module
    docstring).

    Copy 0 of every statement is the source op itself, moved into the new
    loop; copies 1..f-1 are clones. Only the emptied shell of the source
    is erased: the old parallel op with the yields, merged barriers and
    jammed ``for``/``if``/``parallel`` shells still inside it.
    """
    if style not in ("thread", "block", "thread_naive"):
        raise ValueError(
            "style must be 'thread', 'thread_naive', or 'block'")
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if factor == 1:
        return parallel_op, None
    num_dims = scf.parallel_num_dims(parallel_op)
    if not 0 <= dim < num_dims:
        raise ValueError("dimension %d out of range" % dim)
    reason = check_unroll_legality(
        parallel_op, trust_convergence=style.startswith("thread"))
    if reason is not None:
        raise IllegalUnroll(reason)

    lb = scf.parallel_lower_bounds(parallel_op)[dim]
    ub = scf.parallel_upper_bounds(parallel_op)[dim]
    step = scf.parallel_steps(parallel_op)[dim]
    if arith.constant_value(lb) != 0 or arith.constant_value(step) != 1:
        raise IllegalUnroll("only lb=0, step=1 parallel loops are supported")
    ub_const = arith.constant_value(ub)

    parent = parallel_op.parent
    builder = Builder(parent, parent.index_of(parallel_op))

    need_epilogue = False
    if style in ("thread", "thread_naive"):
        if ub_const is None:
            raise IllegalUnroll("thread coarsening needs a constant extent")
        if ub_const % factor != 0:
            raise IllegalUnroll(
                "thread factor %d does not divide extent %d" %
                (factor, ub_const))
        new_ub = arith.index_constant(builder, ub_const // factor)
    else:
        if ub_const is not None:
            main_extent = ub_const // factor
            if main_extent == 0:
                raise IllegalUnroll(
                    "block factor %d exceeds grid extent %d" %
                    (factor, ub_const))
            new_ub = arith.index_constant(builder, main_extent)
            need_epilogue = (ub_const % factor) != 0
        else:
            factor_const = arith.index_constant(builder, factor)
            new_ub = arith.binary(builder, "arith.divsi", ub, factor_const)
            need_epilogue = True  # unknown remainder: always emit epilogue

    # -- build the new main loop ----------------------------------------------
    old_block = parallel_op.body_block()
    new_lbs = scf.parallel_lower_bounds(parallel_op)
    new_ubs = scf.parallel_upper_bounds(parallel_op)
    new_steps = scf.parallel_steps(parallel_op)
    new_ubs[dim] = new_ub
    attributes = dict(parallel_op.attributes)
    history = list(attributes.get("coarsen.history", []))
    history.append("%s:dim%d:x%d" % (style, dim, factor))
    attributes["coarsen.history"] = history
    region = single_block_region(
        [INDEX] * num_dims, [a.name_hint for a in old_block.args])
    new_par = Operation(scf.PARALLEL, [*new_lbs, *new_ubs, *new_steps], [],
                        attributes, [region])
    builder.insert(new_par)
    new_block = new_par.body_block()
    body_builder = Builder(new_block)

    new_iv = new_block.arg(dim)
    old_iv = old_block.arg(dim)
    factor_value = arith.index_constant(body_builder, factor)

    maps: List[Dict[Value, Value]] = []
    iv_substitution: Dict[Value, Value] = {old_iv: new_iv}
    for d in range(num_dims):
        if d != dim:
            iv_substitution[old_block.arg(d)] = new_block.arg(d)
    for k in range(factor):
        copy_map: Dict[Value, Value] = {}
        for d in range(num_dims):
            if d != dim:
                copy_map[old_block.arg(d)] = new_block.arg(d)
        if style == "thread":
            # coalescing-friendly decomposition (Fig. 11): copy k handles
            # original thread iv + k * new_ub, keeping lane-adjacent
            # addresses adjacent
            if k == 0:
                copy_map[old_iv] = new_iv
            else:
                offset = arith.index_constant(body_builder, k)
                shift = arith.muli(body_builder, offset, new_ub)
                copy_map[old_iv] = arith.addi(body_builder, new_iv, shift)
        else:
            # contiguous grouping iv*f + k: the right choice for blocks,
            # and the *naive* (stride-destroying) choice for threads
            # (style "thread_naive", kept for the Fig. 11 ablation)
            scaled = arith.muli(body_builder, new_iv, factor_value)
            if k == 0:
                copy_map[old_iv] = scaled
            else:
                offset = arith.index_constant(body_builder, k)
                copy_map[old_iv] = arith.addi(body_builder, scaled, offset)
        maps.append(copy_map)

    # -- epilogue: cloned while the source body is still whole -----------------
    epilogue: Optional[Operation] = None
    if style == "block" and need_epilogue:
        epilogue_builder = Builder(parent, parent.index_of(new_par) + 1)
        ep_lb = arith.muli(epilogue_builder, new_ub,
                           arith.index_constant(epilogue_builder, factor))
        epilogue = parallel_op.clone({})
        epilogue.set_operand(dim, ep_lb)  # lower bound slot of dim
        epilogue.attributes["coarsen.epilogue"] = True
        epilogue_builder.insert(epilogue)

    renames: Dict[Value, Value] = {}
    _interleave_block(old_block, body_builder, maps, iv_substitution,
                      renames)
    # the moved copy-0 ops still read the source's values; redirect them
    # only now, because every clone above looked its operands up in its
    # own copy map by those very values
    for old, new in renames.items():
        old.replace_all_uses_with(new)
    parallel_op.erase()
    return new_par, epilogue


def _interleave_block(old_block: Block, builder: Builder,
                      maps: List[Dict[Value, Value]],
                      iv_substitution: Dict[Value, Value],
                      renames: Dict[Value, Value]) -> None:
    """Emit interleaved copies of ``old_block``'s ops via ``builder``.

    Copy 0 of a replicated op is the op itself, moved; the others are
    clones. ``old_block`` keeps only what is not moved: terminators,
    merged barriers and the shells of jammed ops. ``maps[0]`` never gains
    clone entries, so it holds exactly the copy-0 values that replace
    source values; they are collected into ``renames``.
    """
    ops = old_block.ops
    shell: List[Operation] = []
    old_block.ops = shell
    for op in ops:
        name = op.name
        if name in (scf.YIELD, scf.CONDITION):
            operands = [m.get(v, v) for m in maps for v in op._operands]
            builder.create(name, operands, [])
            shell.append(op)
            continue
        if name == polygeist.BARRIER:
            operands = []
            for operand in op.operands:
                mapped = iv_substitution.get(operand)
                if mapped is None:
                    mapped = maps[0].get(operand, operand)
                operands.append(mapped)
            builder.create(polygeist.BARRIER, operands, [])
            shell.append(op)
            continue
        has_barrier = contains_barrier(op)
        if has_barrier or _jammable_across_copies(op, maps):
            # unroll-and-jam (Fig. 8): a single loop/conditional whose body
            # interleaves all copies. Mandatory around barriers; applied to
            # any nested control flow with copy-uniform shape, which is
            # what lets redundant-load elimination find cross-copy reuse.
            jam = _JAMS.get(name)
            if jam is not None:
                jam(op, builder, maps, iv_substitution, renames)
                shell.append(op)
                continue
            if has_barrier:
                raise IllegalUnroll(
                    "cannot jam barrier-carrying op %s" % name)
        # variable-shape control flow without barriers, or plain
        # statements: replicate once per copy, grouped together
        # (Fig. 7 / Fig. 9)
        op.parent = None
        builder.insert(op)
        for copy_map in maps[1:]:
            builder.insert(op.clone(copy_map))
    renames.update(maps[0])


def _jammable_across_copies(op: Operation,
                            maps: List[Dict[Value, Value]]) -> bool:
    """True if the op's shape (bounds/condition) is identical per copy."""
    if op.name == scf.FOR:
        shape_operands = op.operands[:3]
    elif op.name == scf.IF:
        shape_operands = op.operands[:1]
    elif op.name == scf.PARALLEL:
        shape_operands = op.operands
    else:
        return False
    first = maps[0]
    for operand in shape_operands:
        mapped = first.get(operand, operand)
        mapped_const = arith.constant_value(mapped)
        for copy_map in maps[1:]:
            other = copy_map.get(operand, operand)
            if other is mapped:
                continue
            # per-copy clones of the same constant are still uniform
            if mapped_const is not None and \
                    arith.constant_value(other) == mapped_const:
                continue
            return False
    return True


def _jam_for(old_for: Operation, builder: Builder,
             maps: List[Dict[Value, Value]],
             iv_substitution: Dict[Value, Value],
             renames: Dict[Value, Value]) -> None:
    factor = len(maps)
    n_iter = old_for.num_operands - 3
    bounds = [maps[0].get(v, v) for v in old_for.operands[:3]]
    inits = [m.get(v, v) for m in maps for v in old_for.operands[3:]]
    iter_types = [v.type for v in old_for.operands[3:]]
    result_types = iter_types * factor
    old_body = old_for.body_block()
    region = single_block_region(
        [INDEX] + result_types,
        [old_body.arg(0).name_hint] +
        [old_body.args[1 + i % n_iter].name_hint if n_iter else ""
         for i in range(len(result_types))])
    new_for = Operation(scf.FOR, bounds + inits, result_types,
                        dict(old_for.attributes), [region])
    builder.insert(new_for)
    new_body = new_for.body_block()
    inner_maps = [dict(m) for m in maps]
    for k in range(factor):
        inner_maps[k][old_body.arg(0)] = new_body.arg(0)
        for i in range(n_iter):
            inner_maps[k][old_body.args[1 + i]] = \
                new_body.args[1 + k * n_iter + i]
    _interleave_block(old_body, Builder(new_body), inner_maps,
                      iv_substitution, renames)
    for k in range(factor):
        for i in range(n_iter):
            maps[k][old_for.results[i]] = new_for.results[k * n_iter + i]


def _jam_if(old_if: Operation, builder: Builder,
            maps: List[Dict[Value, Value]],
            iv_substitution: Dict[Value, Value],
            renames: Dict[Value, Value]) -> None:
    factor = len(maps)
    n_results = old_if.num_results
    cond = maps[0].get(old_if.operand(0), old_if.operand(0))
    result_types = [r.type for r in old_if.results] * factor
    new_if = Operation(scf.IF, [cond], result_types,
                       dict(old_if.attributes),
                       [single_block_region(), single_block_region()])
    builder.insert(new_if)
    for region_index in range(2):
        branch_maps = [dict(m) for m in maps]
        _interleave_block(old_if.body_block(region_index),
                          Builder(new_if.body_block(region_index)),
                          branch_maps, iv_substitution, renames)
    for k in range(factor):
        for i in range(n_results):
            maps[k][old_if.results[i]] = new_if.results[k * n_results + i]


def _jam_parallel(old_par: Operation, builder: Builder,
                  maps: List[Dict[Value, Value]],
                  iv_substitution: Dict[Value, Value],
                  renames: Dict[Value, Value]) -> None:
    """Jam a nested parallel loop (e.g. the thread loop during block
    coarsening): a single nested loop whose body holds all copies."""
    operands = [maps[0].get(v, v) for v in old_par.operands]
    old_body = old_par.body_block()
    region = single_block_region([a.type for a in old_body.args],
                                 [a.name_hint for a in old_body.args])
    new_par = Operation(scf.PARALLEL, operands, [],
                        dict(old_par.attributes), [region])
    builder.insert(new_par)
    new_body = new_par.body_block()
    inner_maps = [dict(m) for m in maps]
    inner_subst = dict(iv_substitution)
    for old_arg, new_arg in zip(old_body.args, new_body.args):
        inner_subst[old_arg] = new_arg
        for inner_map in inner_maps:
            inner_map[old_arg] = new_arg
    _interleave_block(old_body, Builder(new_body), inner_maps, inner_subst,
                      renames)


_JAMS = {scf.FOR: _jam_for, scf.IF: _jam_if, scf.PARALLEL: _jam_parallel}
