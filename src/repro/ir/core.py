"""Core IR data structures: values, operations, blocks, and regions.

This is a deliberately small re-implementation of the MLIR object model that
Polygeist-GPU is built on:

* :class:`Value` — an SSA value, either an :class:`OpResult` or a
  :class:`BlockArgument` (e.g. a parallel-loop induction variable).
* :class:`Operation` — a generic operation identified by a dialect-qualified
  name (``"scf.parallel"``, ``"polygeist.barrier"``, ...), with operands,
  results, an attribute dictionary, and nested regions.
* :class:`Block` / :class:`Region` — structured nesting. All ops used in this
  project are *structured* (no branch terminators between blocks), so regions
  hold a single block almost everywhere.

Use-def chains are explicit: every value knows its uses, and operand mutation
goes through :meth:`Operation.set_operand` so the chains stay consistent.

Every class declares ``__slots__``: tuning clones tens of thousands of these
objects per kernel, and slotted instances are smaller and faster to build.
A subclass must declare its own ``__slots__`` (even an empty one), or its
instances silently grow a ``__dict__`` again.
"""

from __future__ import annotations

import gc
import itertools
import threading
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence

from .types import Type


class Value:
    """An SSA value with a type and explicit use list."""

    __slots__ = ("type", "name_hint", "uses")

    def __init__(self, type_: Type, name_hint: str = ""):
        self.type = type_
        self.name_hint = name_hint
        #: list of (operation, operand_index) pairs referencing this value
        self.uses: List["Use"] = []

    def has_uses(self) -> bool:
        return bool(self.uses)

    def replace_all_uses_with(self, other: "Value") -> None:
        """Rewrite every use of ``self`` to use ``other`` instead."""
        if other is self:
            return
        # the use records move over as they are: each still names the
        # same (owner, operand index) slot, now holding ``other``
        uses = self.uses
        self.uses = []
        for use in uses:
            use.owner._operands[use.index] = other
        other.uses.extend(uses)

    def __repr__(self) -> str:
        hint = self.name_hint or "v"
        return "<%s %%%s: %s>" % (type(self).__name__, hint, self.type)


class Use:
    """A single operand slot referencing a value."""

    __slots__ = ("owner", "index")

    def __init__(self, owner: "Operation", index: int):
        self.owner = owner
        self.index = index


class OpResult(Value):
    """A value produced by an operation."""

    __slots__ = ("owner", "index")

    def __init__(self, owner: "Operation", index: int, type_: Type,
                 name_hint: str = ""):
        super().__init__(type_, name_hint)
        self.owner = owner
        self.index = index


class BlockArgument(Value):
    """A value introduced by a block (e.g. a loop induction variable)."""

    __slots__ = ("owner", "index")

    def __init__(self, owner: "Block", index: int, type_: Type,
                 name_hint: str = ""):
        super().__init__(type_, name_hint)
        self.owner = owner
        self.index = index


#: process-wide counter backing :meth:`Operation.stable_uid`
_STABLE_UID_COUNTER = itertools.count(1)


class Operation:
    """A generic operation.

    Operations are created through :meth:`create` (or the dialect helper
    functions) and inserted into blocks via :class:`~repro.ir.builder.Builder`
    or :meth:`Block.append`.
    """

    __slots__ = ("name", "attributes", "parent", "_operands", "results",
                 "regions", "_stable_uid")

    def __init__(self, name: str,
                 operands: Sequence[Value] = (),
                 result_types: Sequence[Type] = (),
                 attributes: Optional[Dict[str, object]] = None,
                 regions: Sequence["Region"] = ()):
        self.name = name
        self.attributes: Dict[str, object] = dict(attributes or {})
        self.parent: Optional[Block] = None
        self._operands: List[Value] = []
        self.results: List[OpResult] = [
            OpResult(self, i, t) for i, t in enumerate(result_types)
        ]
        self.regions: List[Region] = []
        for region in regions:
            self.add_region(region)
        for value in operands:
            self._append_operand(value)

    # -- construction -----------------------------------------------------

    @classmethod
    def create(cls, name: str,
               operands: Sequence[Value] = (),
               result_types: Sequence[Type] = (),
               attributes: Optional[Dict[str, object]] = None,
               regions: Sequence["Region"] = ()) -> "Operation":
        return cls(name, operands, result_types, attributes, regions)

    def add_region(self, region: "Region") -> "Region":
        region.parent = self
        self.regions.append(region)
        return region

    # -- operands ----------------------------------------------------------

    @property
    def operands(self) -> List[Value]:
        """A copy of the operand list (mutate via :meth:`set_operand`)."""
        return list(self._operands)

    def operand(self, index: int) -> Value:
        return self._operands[index]

    @property
    def num_operands(self) -> int:
        return len(self._operands)

    def _append_operand(self, value: Value) -> None:
        index = len(self._operands)
        self._operands.append(value)
        value.uses.append(Use(self, index))

    def set_operand(self, index: int, value: Value) -> None:
        old = self._operands[index]
        for use in old.uses:
            if use.owner is self and use.index == index:
                old.uses.remove(use)
                break
        self._operands[index] = value
        value.uses.append(Use(self, index))

    def drop_all_operand_uses(self) -> None:
        # each (owner, index) pair occurs at most once in a use list (see
        # set_operand), so delete-first-match suffices; this runs once per
        # erased op per operand, and most SSA values have few uses, so the
        # early exit beats rebuilding the list. The scan starts at the
        # end: the op erased is most often the one that took its use last
        # (a later copy, or the op a rewrite just created or forwarded)
        for i, operand in enumerate(self._operands):
            uses = operand.uses
            for j in range(len(uses) - 1, -1, -1):
                use = uses[j]
                if use.owner is self and use.index == i:
                    del uses[j]
                    break
        self._operands = []

    # -- results -----------------------------------------------------------

    def result(self, index: int = 0) -> OpResult:
        return self.results[index]

    @property
    def num_results(self) -> int:
        return len(self.results)

    # -- attributes ----------------------------------------------------------

    def attr(self, name: str, default=None):
        return self.attributes.get(name, default)

    # -- identity ------------------------------------------------------------

    def stable_uid(self) -> int:
        """A process-unique integer identity for this operation.

        Unlike ``id()``, the value is never reused after the operation is
        garbage-collected, so it is safe as a long-lived cache key (e.g.
        memoized :class:`~repro.simulator.model.KernelModel` instances).
        Clones do not inherit it: each operation object gets its own uid on
        first request.
        """
        try:
            return self._stable_uid
        except AttributeError:
            uid = self._stable_uid = next(_STABLE_UID_COUNTER)
            return uid

    # -- structure -----------------------------------------------------------

    @property
    def parent_op(self) -> Optional["Operation"]:
        if self.parent is not None and self.parent.parent is not None:
            return self.parent.parent.parent
        return None

    def ancestors(self) -> Iterator["Operation"]:
        op = self.parent_op
        while op is not None:
            yield op
            op = op.parent_op

    def region(self, index: int = 0) -> "Region":
        return self.regions[index]

    def body_block(self, region_index: int = 0) -> "Block":
        """The single block of the given region (structured ops)."""
        return self.regions[region_index].blocks[0]

    # -- mutation ------------------------------------------------------------

    def detach(self) -> None:
        """Remove from the parent block without touching uses."""
        if self.parent is not None:
            self.parent.ops.remove(self)
            self.parent = None

    def erase(self) -> None:
        """Detach and drop all operand uses. Results must be unused.

        Afterwards the op has no operands, results or regions, and
        everything nested in it is unlinked the same way (see
        :func:`unlink_subtree`), so the erased IR holds no reference cycle
        and dies by refcount.
        """
        for result in self.results:
            if result.has_uses():
                raise ValueError(
                    "erasing %s whose result still has uses" % self.name)
        if not self.regions:
            self.drop_all_operand_uses()
            self.results = []
        else:
            unlink_subtree([self])
        self.detach()

    def replace_all_uses_with(self, values: Sequence[Value]) -> None:
        if len(values) != len(self.results):
            raise ValueError("result count mismatch in replacement")
        for result, value in zip(self.results, values):
            result.replace_all_uses_with(value)

    # -- traversal -------------------------------------------------------------

    def walk(self, callback: Callable[["Operation"], None],
             include_self: bool = True) -> None:
        """Post-order walk over this op and everything nested inside it."""
        for region in self.regions:
            for block in region.blocks:
                for op in list(block.ops):
                    op.walk(callback)
        if include_self:
            callback(self)

    def walk_preorder(self, callback: Callable[["Operation"], None],
                      include_self: bool = True) -> None:
        if include_self:
            callback(self)
        for region in self.regions:
            for block in region.blocks:
                for op in list(block.ops):
                    op.walk_preorder(callback)

    def ops_matching(self, name: str) -> List["Operation"]:
        """All nested ops (including self) with the given name."""
        found: List[Operation] = []
        self.walk_preorder(lambda op: found.append(op) if op.name == name
                           else None)
        return found

    # -- cloning -----------------------------------------------------------------

    def clone(self, value_map: Optional[Dict[Value, Value]] = None
              ) -> "Operation":
        """Deep-copy this operation.

        ``value_map`` maps values defined *outside* the clone to replacements;
        it is updated with the results and nested block arguments of the clone
        so callers can chain clones.

        Cloning is the hottest allocation path of alternative generation
        (every coarsening candidate clones the whole wrapper), so objects
        are built via ``__new__`` and field stores rather than the checked
        constructors. ``_stable_uid`` is deliberately not carried over:
        clones get their own uid on first request.
        """
        if value_map is None:
            value_map = {}
        vget = value_map.get
        new_op = Operation.__new__(Operation)
        new_op.name = self.name
        attributes = self.attributes
        new_op.attributes = dict(attributes) if attributes else {}
        new_op.parent = None
        operands = [vget(v, v) for v in self._operands]
        new_op._operands = operands
        new_results: List[OpResult] = []
        for index, old in enumerate(self.results):
            result = OpResult.__new__(OpResult)
            result.type = old.type
            result.name_hint = old.name_hint
            result.uses = []
            result.owner = new_op
            result.index = index
            value_map[old] = result
            new_results.append(result)
        new_op.results = new_results
        for index, value in enumerate(operands):
            value.uses.append(Use(new_op, index))
        new_regions: List[Region] = []
        for region in self.regions:
            new_region = Region.__new__(Region)
            new_region.parent = new_op
            new_blocks: List[Block] = []
            for block in region.blocks:
                new_block = Block.__new__(Block)
                new_block.parent = new_region
                new_args: List[BlockArgument] = []
                for index, old_arg in enumerate(block.args):
                    arg = BlockArgument.__new__(BlockArgument)
                    arg.type = old_arg.type
                    arg.name_hint = old_arg.name_hint
                    arg.uses = []
                    arg.owner = new_block
                    arg.index = index
                    value_map[old_arg] = arg
                    new_args.append(arg)
                new_block.args = new_args
                new_ops: List[Operation] = []
                for child in block.ops:
                    cloned = child.clone(value_map)
                    cloned.parent = new_block
                    new_ops.append(cloned)
                new_block.ops = new_ops
                new_blocks.append(new_block)
            new_region.blocks = new_blocks
            new_regions.append(new_region)
        new_op.regions = new_regions
        return new_op

    def __repr__(self) -> str:
        return "<Operation %s>" % self.name


def unlink_subtree(roots: Iterable[Operation]) -> None:
    """Unlink ``roots`` and every op nested in them from the rest of the IR.

    Values defined inside the subtree die with it, so only uses of values
    defined *outside* need unlinking, and each such value's use list is
    rebuilt once instead of scanned once per dropped use (quadratic for
    high-fan-out values like constants feeding a large dropped nest).
    The same walk takes the subtree apart: afterwards every op in it has
    no operands, results or regions, its blocks hold no ops or arguments,
    and the values defined inside have empty use lists. Nothing in the
    subtree then points back at its parent, so it holds no reference
    cycle and dies by refcount once the caller drops it. Detaching the
    roots from their blocks is the caller's job.
    """
    dead_ops = set()
    ops = []
    stack = list(roots)
    while stack:
        op = stack.pop()
        dead_ops.add(id(op))
        ops.append(op)
        for result in op.results:
            result.uses = []
        op.results = []
        for region in op.regions:
            for block in region.blocks:
                for arg in block.args:
                    arg.uses = []
                block.args = []
                stack.extend(block.ops)
                block.ops = []
            region.blocks = []
        op.regions = []
    # values defined inside now have empty use lists, while a value
    # defined outside still lists the use each dead op holds of it
    touched = {}
    for op in ops:
        for operand in op._operands:
            if operand.uses:
                touched[id(operand)] = operand
        op._operands = []
    for operand in touched.values():
        operand.uses = [use for use in operand.uses
                        if id(use.owner) not in dead_ops]


def swap_regions(first: Operation, second: Operation) -> None:
    """Exchange the regions of two ops; each region moves with its blocks
    and ops, so the values defined inside keep their uses."""
    first.regions, second.regions = second.regions, first.regions
    for op in (first, second):
        for region in op.regions:
            region.parent = op


_collector_lock = threading.Lock()
_collector_depth = 0
_collector_was_enabled = False


@contextmanager
def collector_paused() -> Iterator[None]:
    """Turn off automatic cyclic garbage collection inside the block.

    Live IR is all reference cycles (parent and use links), so every
    automatic pass walks it and frees nothing: IR dropped inside the
    block must be taken apart with :func:`unlink_subtree` and dies by
    refcount. Scopes nest and may overlap across threads; only the
    outermost exit restores the state the first entrant found, so a
    caller that had already turned the collector off finds it off.
    """
    global _collector_depth, _collector_was_enabled
    with _collector_lock:
        if _collector_depth == 0:
            _collector_was_enabled = gc.isenabled()
            gc.disable()
        _collector_depth += 1
    try:
        yield
    finally:
        with _collector_lock:
            _collector_depth -= 1
            if _collector_depth == 0 and _collector_was_enabled:
                gc.enable()


class Block:
    """A sequence of operations with block arguments."""

    __slots__ = ("parent", "ops", "args")

    def __init__(self, arg_types: Sequence[Type] = (),
                 arg_names: Sequence[str] = ()):
        self.parent: Optional[Region] = None
        self.ops: List[Operation] = []
        names = list(arg_names) + [""] * (len(arg_types) - len(arg_names))
        self.args: List[BlockArgument] = [
            BlockArgument(self, i, t, names[i])
            for i, t in enumerate(arg_types)
        ]

    def arg(self, index: int) -> BlockArgument:
        return self.args[index]

    def add_argument(self, type_: Type, name_hint: str = "") -> BlockArgument:
        arg = BlockArgument(self, len(self.args), type_, name_hint)
        self.args.append(arg)
        return arg

    def append(self, op: Operation) -> Operation:
        if op.parent is not None and op.parent is not self:
            raise ValueError(
                "cannot append %s: it already belongs to another block "
                "(detach it first)" % op.name)
        op.parent = self
        self.ops.append(op)
        return op

    def insert(self, index: int, op: Operation) -> Operation:
        if op.parent is not None and op.parent is not self:
            raise ValueError(
                "cannot insert %s: it already belongs to another block "
                "(detach it first)" % op.name)
        op.parent = self
        self.ops.insert(index, op)
        return op

    def index_of(self, op: Operation) -> int:
        for i, candidate in enumerate(self.ops):
            if candidate is op:
                return i
        raise ValueError("operation not in block")

    @property
    def parent_op(self) -> Optional[Operation]:
        return self.parent.parent if self.parent is not None else None

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.ops)

    def __len__(self) -> int:
        return len(self.ops)

    def __repr__(self) -> str:
        return "<Block with %d ops>" % len(self.ops)


class Region:
    """A list of blocks owned by an operation."""

    __slots__ = ("parent", "blocks")

    def __init__(self, blocks: Iterable[Block] = ()):
        self.parent: Optional[Operation] = None
        self.blocks: List[Block] = []
        for block in blocks:
            self.add_block(block)

    def add_block(self, block: Block) -> Block:
        block.parent = self
        self.blocks.append(block)
        return block

    @property
    def entry(self) -> Block:
        return self.blocks[0]

    def __iter__(self) -> Iterator[Block]:
        return iter(self.blocks)

    def __repr__(self) -> str:
        return "<Region with %d blocks>" % len(self.blocks)


def single_block_region(arg_types: Sequence[Type] = (),
                        arg_names: Sequence[str] = ()) -> Region:
    """Convenience: a region holding one fresh block."""
    region = Region()
    region.add_block(Block(arg_types, arg_names))
    return region
