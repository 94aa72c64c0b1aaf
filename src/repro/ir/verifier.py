"""Structural IR verifier.

Checks the invariants every transform relies on:

* parent links of blocks/regions/ops are consistent;
* use-def chains are consistent: every operand slot is registered in the
  value's use list exactly once, every use record names a slot that holds
  the value, and no value defined inside the verified op is used by an op
  outside its tree (the dangling use a wrong move or erase leaves behind);
* block terminators: a terminator op may only appear in the last position,
  and ops whose regions require one (per-dialect table) must actually *end*
  with an allowed terminator — a truncated ``scf``/``func`` region is a
  verification error, not a later lowering crash;
* SSA dominance for structured IR: an operand must be defined earlier in the
  same block or in a lexically enclosing block (region values are not visible
  outside their region);
* dialect-specific invariants registered through :func:`register_op_verifier`.

Dominance checking is *incremental*: one visible-value set is threaded
through a single walk of the IR (values are added as their defining ops are
passed and removed when their region is left), so verifying a module is
linear in its size instead of quadratic.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from .core import Block, Operation, Value
from .module import Module


class VerificationError(ValueError):
    pass


_OP_VERIFIERS: Dict[str, Callable[[Operation], None]] = {}


def register_op_verifier(name: str):
    """Decorator registering a per-op verifier for ops named ``name``."""
    def wrap(fn: Callable[[Operation], None]):
        _OP_VERIFIERS[name] = fn
        return fn
    return wrap


def _fail(op: Operation, message: str) -> None:
    raise VerificationError("%s: %s" % (op.name, message))


#: ops that terminate a block; they may only appear in the last position
_TERMINATOR_NAMES = {"scf.yield", "scf.condition", "func.return",
                     "gpu.module_end"}

#: per-dialect required-terminator table: ops whose region blocks must END
#: with one of the listed terminators. ``scf.while`` admits both of its
#: region terminators here; the registered ``scf.while`` verifier pins the
#: exact one per region. Region-carrying ops absent from this table
#: (``polygeist.gpu_wrapper``, ``polygeist.alternatives``,
#: ``builtin.module``) legitimately hold terminator-less blocks.
_REQUIRED_TERMINATORS: Dict[str, Tuple[str, ...]] = {
    "scf.for": ("scf.yield",),
    "scf.if": ("scf.yield",),
    "scf.parallel": ("scf.yield",),
    "scf.while": ("scf.condition", "scf.yield"),
    "func.func": ("func.return",),
    "gpu.module": ("gpu.module_end",),
}


def _check_terminators(op: Operation) -> None:
    required = _REQUIRED_TERMINATORS.get(op.name)
    for region in op.regions:
        for block in region.blocks:
            for child in block.ops[:-1]:
                if child.name in _TERMINATOR_NAMES:
                    _fail(child, "terminator in the middle of a block")
            if required is not None:
                last = block.ops[-1] if block.ops else None
                if last is None or last.name not in required:
                    _fail(op, "region block must end with %s, found %s" %
                          (" or ".join(required),
                           last.name if last is not None else "empty block"))


def _check_use_def(op: Operation) -> None:
    for i, operand in enumerate(op.operands):
        records = sum(1 for u in operand.uses
                      if u.owner is op and u.index == i)
        if records == 0:
            _fail(op, "operand %d missing from use list of %r" % (i, operand))
        if records > 1:
            _fail(op, "operand %d has %d use records in the use list of %r"
                  % (i, records, operand))
    for result in op.results:
        for use in result.uses:
            owner = use.owner
            # an erased owner has no operands left to index
            if use.index >= owner.num_operands or \
                    owner.operand(use.index) is not result:
                _fail(op, "stale use record on result")


def _check_dangling_uses(op: Operation, tree: Set[int],
                         defined: List[Value]) -> None:
    """Values defined inside ``op`` may only be used inside its tree."""
    for value in defined:
        for use in value.uses:
            if id(use.owner) not in tree:
                _fail(op, "%r is used by %s outside the op that defines it "
                      "(a dangling use)" % (value, use.owner.name))


def _visible_values(op: Operation) -> Set[Value]:
    """Values visible at ``op``: defined earlier in its block or enclosing.

    Only used to seed incremental verification of a *nested* op — the cost
    is proportional to the enclosing scope, paid once per :func:`verify_op`
    call instead of once per verified operation.
    """
    visible: Set[Value] = set()
    block: Optional[Block] = op.parent
    current: Operation = op
    while block is not None:
        visible.update(block.args)
        for candidate in block.ops:
            if candidate is current:
                break
            visible.update(candidate.results)
        parent_op = block.parent_op
        if parent_op is None:
            break
        current = parent_op
        block = parent_op.parent
    return visible


def _verify_tree(op: Operation, visible: Set[Value],
                 check_dominance: bool, tree: Set[int],
                 defined: List[Value]) -> None:
    """Verify ``op`` and its nested ops against the running visible set.

    Adds the id of every op passed to ``tree`` and every value defined
    inside ``op`` (block arguments and nested results) to ``defined``.
    """
    tree.add(id(op))
    for region in op.regions:
        if region.parent is not op:
            _fail(op, "region parent link broken")
        for block in region.blocks:
            if block.parent is not region:
                _fail(op, "block parent link broken")
            for arg in block.args:
                if arg.owner is not block:
                    _fail(op, "block argument owner link broken")
            for child in block.ops:
                if child.parent is not block:
                    _fail(child, "op parent link broken")
    _check_use_def(op)
    _check_terminators(op)
    if check_dominance and op.parent is not None:
        for i, operand in enumerate(op.operands):
            if operand not in visible:
                _fail(op, "operand %d (%r) does not dominate use" %
                      (i, operand))
    verifier = _OP_VERIFIERS.get(op.name)
    if verifier is not None:
        try:
            verifier(op)
        except VerificationError:
            raise
        except ValueError as error:
            raise VerificationError("%s: %s" % (op.name, error)) from error
    for region in op.regions:
        for block in region.blocks:
            added: List[Value] = []
            defined.extend(block.args)
            for arg in block.args:
                if arg not in visible:
                    visible.add(arg)
                    added.append(arg)
            for child in block.ops:
                _verify_tree(child, visible, check_dominance, tree, defined)
                defined.extend(child.results)
                for result in child.results:
                    if result not in visible:
                        visible.add(result)
                        added.append(result)
            # region values are not visible outside their region
            for value in added:
                visible.discard(value)


def verify_op(op: Operation, check_dominance: bool = True) -> None:
    """Verify one operation and everything nested in it."""
    visible: Set[Value] = set()
    if check_dominance and op.parent is not None:
        visible = _visible_values(op)
    tree: Set[int] = set()
    defined: List[Value] = []
    _verify_tree(op, visible, check_dominance, tree, defined)
    _check_dangling_uses(op, tree, defined)


def verify_module(module: Module) -> None:
    verify_op(module.op)
