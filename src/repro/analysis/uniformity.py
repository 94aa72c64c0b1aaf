"""Uniformity analysis: does a value depend on given parallel ivs?

Block coarsening (§V-B of the paper) is legal only when thread barriers are
not nested in control flow that transitively depends on the block identifier.
This module provides the transitive dependence check. Memory loads are
treated conservatively: a loaded value *may* depend on anything, so it is
non-uniform unless the analysis is told otherwise.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Iterable, Optional, Set

from ..ir import BlockArgument, Operation, OpResult, Value

#: cache entry of a value whose dependence is still being computed
_PENDING = object()
#: cache key recording that the cycle guard answered a query
_CYCLE_READ = object()


def contains_barrier(op: Operation) -> bool:
    """True if a ``polygeist.barrier`` is nested anywhere inside ``op``."""
    stack = [op]
    while stack:
        candidate = stack.pop()
        if candidate.name == "polygeist.barrier":
            return True
        for region in candidate.regions:
            for block in region.blocks:
                stack.extend(block.ops)
    return False


def depends_on_values(value: Value, sources: Set[Value],
                      loads_are_dependent: bool = True,
                      _cache: Optional[Dict[Value, bool]] = None) -> bool:
    """True if ``value`` (transitively) depends on any value in ``sources``.

    Dependence flows through operand edges of defining operations. Region
    block arguments other than the sources themselves are treated as
    dependent on the operands of their defining op (e.g. an ``scf.for`` iv
    depends on the loop bounds; iteration args depend on their inits and on
    everything yielded inside the loop — approximated by "the whole loop").
    """
    if _cache is None:
        _cache = {}
    cached = _cache.get(value)
    if cached is not None:
        if cached is _PENDING:
            # a cycle (while loops): provisionally independent
            _cache[_CYCLE_READ] = True
            return False
        return cached
    if value in sources:
        _cache[value] = True
        return True
    _cache[value] = _PENDING
    result = False
    if isinstance(value, OpResult):
        op = value.owner
        if op.name == "memref.load" or op.name == "memref.atomic_rmw":
            if loads_are_dependent:
                result = True
            else:
                result = any(depends_on_values(v, sources,
                                               loads_are_dependent, _cache)
                             for v in op._operands)
        elif op.regions:
            # results of region ops (scf.if/for/while): depend on anything
            # used inside, conservatively: operands plus all nested operands
            result = _region_op_depends(op, sources, loads_are_dependent,
                                        _cache)
        else:
            result = any(depends_on_values(v, sources, loads_are_dependent,
                                           _cache) for v in op._operands)
    elif isinstance(value, BlockArgument):
        owner_op = value.owner.parent_op if value.owner.parent else None
        if owner_op is None or owner_op.name in ("func.func", "gpu.func"):
            result = False  # function argument: uniform
        elif owner_op.name == "scf.parallel" or \
                (owner_op.name == "scf.for" and value.index == 0):
            # induction variables depend only on the loop bounds
            result = any(depends_on_values(v, sources, loads_are_dependent,
                                           _cache)
                         for v in owner_op._operands)
        else:
            # iteration args / while args: approximated by the whole loop
            result = _region_op_depends(owner_op, sources,
                                        loads_are_dependent, _cache)
    _cache[value] = result
    return result


def _region_op_depends(op: Operation, sources: Set[Value],
                       loads_are_dependent: bool,
                       cache: Dict[Value, bool]) -> bool:
    if any(depends_on_values(v, sources, loads_are_dependent, cache)
           for v in op._operands):
        return True
    if loads_are_dependent:
        # any load nested inside makes the region's values unknown
        loads = []
        op.walk_preorder(lambda child: loads.append(child)
                         if child.name in ("memref.load",
                                           "memref.atomic_rmw") else None,
                         include_self=False)
        if loads:
            return True
    # values from outside used inside
    outside_uses = _external_operands(op)
    return any(depends_on_values(v, sources, loads_are_dependent, cache)
               for v in outside_uses)


def _external_operands(op: Operation) -> Set[Value]:
    """Values defined outside ``op`` but used somewhere inside it."""
    internal: Set[Value] = set()
    external: Set[Value] = set()

    def collect(child: Operation) -> None:
        for result in child.results:
            internal.add(result)
        for region in child.regions:
            for block in region.blocks:
                internal.update(block.args)

    op.walk_preorder(collect)

    def scan(child: Operation) -> None:
        for operand in child._operands:
            if operand not in internal:
                external.add(operand)

    op.walk_preorder(scan, include_self=False)
    for operand in op._operands:
        external.add(operand)
    return external


class DependenceMemo:
    """:func:`depends_on_values` for many values over one source set.

    Calls share one cache, so a subexpression common to many queried
    values is walked once. Every answer equals a fresh call's: a shared
    entry is only kept from a call that never met the cycle guard. A call
    that did (its provisional ``False`` may differ from what a fresh call
    starting elsewhere in the cycle computes) drops the entries it added
    and is answered by a fresh call instead.
    """

    def __init__(self, sources: Iterable[Value]):
        self.sources = set(sources)
        self._cache: Dict[object, object] = {}
        #: fresh answers of queries that met the cycle guard
        self._cyclic: Dict[Value, bool] = {}

    def __call__(self, value: Value) -> bool:
        cache = self._cache
        known = cache.get(value)
        if known is None:
            known = self._cyclic.get(value)
        if known is not None:
            return known
        mark = len(cache)
        result = depends_on_values(value, self.sources, True, cache)
        if _CYCLE_READ in cache:
            # the call only added keys, so they are the ones past mark
            for key in list(islice(cache, mark, None)):
                del cache[key]
            result = depends_on_values(value, self.sources)
            self._cyclic[value] = result
        return result


def is_uniform_in(value: Value, ivs: Iterable[Value],
                  loads_are_dependent: bool = True) -> bool:
    """True if ``value`` is provably identical across iterations over ``ivs``."""
    return not depends_on_values(value, set(ivs), loads_are_dependent)
