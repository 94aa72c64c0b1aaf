"""One worklist driver for every cleanup rewrite.

The cleanups the paper inherits from Polygeist (§III) run in MLIR on the
greedy pattern-rewrite driver: each op is visited, a rewrite that fires
re-enqueues exactly the ops it affected, and the driver stops when its
worklist is empty. This module is that driver for our six rewrites:

* **canonicalize** (:func:`.canonicalize.fold`), **cse**
  (:func:`.cse.key`) and **load-elim** (:class:`.load_elim.Forwarding`)
  apply as each op is visited, in program order. A folded constant goes
  in front of the op it replaces; CSE keeps the op that dominates the
  others (the earliest); forwarding follows the block's loads and
  stores in program order.
* A rewrite re-enqueues the users of the values it replaced, and the
  defining ops of the operands it dropped become **dce** candidates.
* **licm** (:func:`.licm.hoist_invariants`) revisits only the loops, and
  **barrier-elim** (:func:`.barrier_elim.eliminate_barriers`) only the
  thread bodies, that contain a changed op. A whole-module run counts
  every op as changed; a region run counts only what it rewrites,
  because its regions come from coarsening IR that was already clean.

The phase order is what keeps the output equal to applying the six
rewrites as whole-region passes, in :data:`REWRITES` order, to their
joint fixpoint (the recorded fixtures pin it): local rewrites to
quiescence, then loop hoisting (innermost loops first), barrier
elimination and dead-code removal, and again only if one of those
changed something.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..dialects import arith, effects
from ..ir import Block, Builder, Module, Operation, OpResult, Region, Value
from ..obs import metrics as obs_metrics
from ..obs import tracer as obs_tracer
from .barrier_elim import eliminate_barriers, is_thread_loop
from .canonicalize import FOLDABLE, fold, inline_if_branch
from .cse import key as cse_key
from .dce import is_dead
from .licm import hoist_invariants
from .load_elim import EFFECTFUL, TRACKED, Forwarding, has_effects_inside

#: every rewrite, in the order the driver's phases apply them
REWRITES = ("canonicalize", "cse", "load-elim", "licm", "barrier-elim",
            "dce")
#: the classical scalar cleanups: the clang-parity tier
SCALAR_REWRITES = ("canonicalize", "cse", "load-elim", "dce")

_BARRIER = "polygeist.barrier"


def _precedes(block: Block, a: Operation, b: Operation) -> bool:
    """``a`` comes before ``b`` in ``block``, which holds both."""
    ops = block.ops
    return ops.index(a) < ops.index(b)


def _dominates(a: Operation, b: Operation) -> bool:
    """Region-free ``a`` sits in a block enclosing ``b``, before it."""
    block = a.parent
    anchor = b
    while anchor.parent is not block:
        parent = anchor.parent
        if parent is None or parent.parent is None:
            return False
        anchor = parent.parent.parent
        if anchor is None:
            return False
    return _precedes(block, a, anchor)


def _depth(op: Operation) -> int:
    depth = 0
    while op is not None:
        depth += 1
        op = op.parent_op
    return depth


class _Driver:
    """One cleanup run over a set of regions."""

    def __init__(self, roots: Sequence[Region], rewrites: Iterable[str],
                 whole: bool):
        enabled = set(rewrites)
        unknown = enabled.difference(REWRITES)
        if unknown:
            raise ValueError("unknown rewrites: %s" % sorted(unknown))
        self.canonicalize = "canonicalize" in enabled
        self.cse = "cse" in enabled
        self.forward = "load-elim" in enabled
        self.licm = "licm" in enabled
        self.barriers = "barrier-elim" in enabled
        self.dce = "dce" in enabled
        self.whole = whole
        self.roots = set(roots)
        self.counts: Dict[str, int] = {name: 0 for name in REWRITES
                                       if name in enabled}
        self.visited = 0
        #: True during the first, program-order walk: every registered
        #: op then precedes the op being visited
        self.sweeping = False
        #: every op of the cleaned regions visited so far
        self.seen: Set[Operation] = set()
        #: visited ops to visit again, because a rewrite changed them
        self.worklist: List[Operation] = []
        self.queued: Set[Operation] = set()
        #: CSE: each registered op's key until a rewrite changes the op,
        #: and, once a revisit needs it, key -> the ops registered under it
        self.keys: Dict[Operation, Tuple] = {}
        self.registered: Optional[Dict[Tuple, List[Operation]]] = None
        #: during the sweep, key -> the registered op that dominates the
        #: sweep's position, and per open block the keys it added
        self.visible: Dict[Tuple, Operation] = {}
        self.opened: List[List[Tuple]] = []
        self.candidates: List[Operation] = []
        #: loops, thread bodies and blocks (for forwarding) to revisit
        self.loops: Dict[Operation, None] = {}
        self.threads: Dict[Operation, None] = {}
        self.blocks: Dict[Block, None] = {}
        #: region op -> whether it holds an :data:`EFFECTFUL` op
        self.effects: Dict[Operation, bool] = {}

    # -- driving -------------------------------------------------------------

    def run(self, regions: Sequence[Region]) -> None:
        if not self.whole and self.cse:
            self._seed_enclosing_scope(regions)
        self.sweeping = True
        for region in regions:
            for block in region.blocks:
                self._sweep(block)
        self.sweeping = False
        while True:
            while self.worklist or self.blocks:
                self._drain()
                self._forward_blocks()
            if self.loops:
                self._hoist()
            if self.threads:
                self._eliminate_barriers()
            if self.candidates:
                self._eliminate_dead()
            if not (self.worklist or self.blocks or self.loops or
                    self.threads):
                return

    def _seed_enclosing_scope(self, regions: Sequence[Region]) -> None:
        """Register the pure ops that dominate the regions from outside.

        They are only ever CSE survivors: the enclosing IR is not visited
        and not changed.
        """
        owners = []
        for region in regions:
            if region.parent not in owners:
                owners.append(region.parent)
        for owner in owners:
            path = []
            op = owner
            while op is not None and op.parent is not None:
                path.append((op.parent, op))
                op = op.parent_op
            for block, stop in reversed(path):
                for other in block.ops:
                    if other is stop:
                        break
                    k = cse_key(other)
                    if k is not None and k not in self.visible:
                        self.visible[k] = other
                        self.keys[other] = k

    def _sweep(self, block: Block) -> bool:
        """Visit ``block``'s ops in program order, nested blocks as they
        come; return whether the block holds an effectful op."""
        state = Forwarding() if self.forward else None
        effectful = False
        added: List[Tuple] = []
        self.opened.append(added)
        seen = self.seen
        candidates = self.candidates if self.dce else None
        visit = self._visit
        # a stack in program order: the ops a rewrite puts in place of
        # the visited one are pushed to be visited next
        pending = list(block.ops)
        pending.reverse()
        visits = 0
        while pending:
            op = pending.pop()
            if op.parent is not block:
                continue
            seen.add(op)
            visits += 1
            if candidates is not None:
                candidates.append(op)
            replacement = visit(op)
            if replacement is not None:
                pending.extend(reversed(replacement))
            elif op.regions:
                if self._sweep_region_op(op, state):
                    effectful = True
            elif op.name in TRACKED and state is not None and \
                    self._forward(op, state):
                continue
            elif op.name in EFFECTFUL:
                effectful = True
        self.visited += visits
        self.opened.pop()
        visible = self.visible
        for k in added:
            del visible[k]
        return effectful

    def _sweep_region_op(self, op: Operation,
                         state: Optional[Forwarding]) -> bool:
        if self.whole:
            # a whole-module run owes every loop and thread body a visit
            if self.licm and op.name == "scf.for":
                self.loops[op] = None
            elif self.barriers and is_thread_loop(op):
                self.threads[op] = None
        effectful = False
        for region in op.regions:
            for nested in region.blocks:
                if self._sweep(nested):
                    effectful = True
        self.effects[op] = effectful
        if effectful and state is not None:
            state.clear()
        return effectful

    def _forward(self, op: Operation, state: Forwarding) -> bool:
        """Step ``state`` past ``op``; True if ``op`` was a redundant load,
        now replaced."""
        value = state.step(op)
        if value is None:
            return False
        self.counts["load-elim"] += 1
        self._replace(op, [value])
        return True

    def _drain(self) -> None:
        while self.worklist:
            batch = self.worklist
            self.worklist = []
            for op in batch:
                self.queued.discard(op)
                if op.parent is None:
                    continue
                self.visited += 1
                replacement = self._visit(op)
                if replacement is None:
                    if self.forward and op.name in TRACKED:
                        self.blocks[op.parent] = None
                    continue
                for new in replacement:
                    if new not in self.seen:
                        self.seen.add(new)
                        if self.dce:
                            self.candidates.append(new)
                    self._queue(new)

    def _queue(self, op: Operation) -> None:
        if op not in self.queued:
            self.queued.add(op)
            self.worklist.append(op)

    # -- local rewrites ----------------------------------------------------------

    def _visit(self, op: Operation) -> Optional[List[Operation]]:
        """Apply the local rewrites to ``op``. None if it stays; otherwise
        it is gone and the list holds the ops that took its place."""
        if self.canonicalize and op.name in FOLDABLE:
            rewrite = fold(op)
            if rewrite is not None:
                self.counts["canonicalize"] += 1
                return self._apply_fold(op, *rewrite)
        if self.cse:
            k = cse_key(op)
            if k is not None and self._cse(op, k):
                return []
        return None

    def _apply_fold(self, op: Operation, kind: str,
                    payload) -> List[Operation]:
        if kind == "value":
            self._replace(op, [payload])
            return []
        if kind == "constant":
            block = op.parent
            value = arith.constant(Builder(block, block.ops.index(op)),
                                   payload, op.result().type)
            self._replace(op, [value])
            self._touch(value.owner)
            return [value.owner]
        moved, yielded = inline_if_branch(op, payload)
        for child in moved:
            self._touch(child, moved=True)
        self._replace(op, yielded)
        return moved

    def _cse(self, op: Operation, k: Tuple) -> bool:
        """Replace ``op`` by an equal op that dominates it (True), or
        register it, first replacing the equal ops it dominates."""
        keys = self.keys
        if self.sweeping:
            # the sweep walks in program order: the equal op visible here
            # is the earliest one that dominates ``op``
            survivor = self.visible.get(k)
            if survivor is None:
                self.visible[k] = op
                self.opened[-1].append(k)
                keys[op] = k
                return False
            self.counts["cse"] += 1
            self._replace(op, survivor.results)
            return True
        registered = self._registered()
        equals = registered.setdefault(k, [])
        survivor = None
        for other in equals:
            if other is not op and keys.get(other) == k and \
                    _dominates(other, op) and (
                        survivor is None or _dominates(other, survivor)):
                survivor = other
        if survivor is not None:
            self.counts["cse"] += 1
            self._replace(op, survivor.results)
            return True
        # a moved or rewritten op may now precede its equals
        for other in equals:
            if other is not op and keys.get(other) == k and \
                    _dominates(op, other):
                self.counts["cse"] += 1
                self._replace(other, op.results)
        equals[:] = [other for other in equals
                     if keys.get(other) is not None and other is not op]
        equals.append(op)
        keys[op] = k
        return False

    def _registered(self) -> Dict[Tuple, List[Operation]]:
        """key -> registered ops, in registration order."""
        if self.registered is None:
            self.registered = {}
            for op, k in self.keys.items():
                self.registered.setdefault(k, []).append(op)
        return self.registered

    def _forward_blocks(self) -> None:
        """Redo load forwarding over the blocks whose memory ops changed."""
        while self.blocks:
            block, _ = self.blocks.popitem()
            state = Forwarding()
            for op in list(block.ops):
                if op.parent is not block:
                    continue
                if op.regions:
                    if self._effectful(op):
                        state.clear()
                elif op.name in TRACKED:
                    self._forward(op, state)

    def _effectful(self, op: Operation) -> bool:
        flag = self.effects.get(op)
        if flag is None:
            flag = self.effects[op] = has_effects_inside(op)
        return flag

    # -- loop and thread-body rewrites ---------------------------------------------

    def _hoist(self) -> None:
        """LICM over the changed loops, innermost first."""
        while self.loops:
            for loop in sorted(self.loops, key=_depth, reverse=True):
                if self.loops.pop(loop, False) is False:
                    continue
                if loop.parent is None:
                    continue
                hoisted = hoist_invariants(loop)
                self.counts["licm"] += len(hoisted)
                for op in hoisted:
                    self._touch(op, moved=True)

    def _eliminate_barriers(self) -> None:
        threads = list(self.threads)
        self.threads = {}
        for op in threads:
            if op.parent is not None:
                eliminate_barriers(op, self._erase_barrier)

    def _erase_barrier(self, op: Operation) -> None:
        self.counts["barrier-elim"] += 1
        self._erase(op)

    def _eliminate_dead(self) -> None:
        stack = self.candidates
        self.candidates = []
        while stack:
            op = stack.pop()
            if op.parent is None or not is_dead(op):
                continue
            self.counts["dce"] += 1
            self._erase(op)
            stack.extend(self.candidates)
            self.candidates = []

    # -- bookkeeping ---------------------------------------------------------------

    def _touch(self, op: Operation, moved: bool = False) -> None:
        """``op``'s operands changed, or (``moved``) it was created or moved:
        visit it again, and the loops (and, for a move, the thread bodies)
        around it."""
        self.keys.pop(op, None)
        if op in self.seen:
            self._queue(op)
        self._mark(op.parent, self.licm, moved and self.barriers)

    def _mark(self, block: Optional[Block], loops: bool,
              threads: bool) -> None:
        """Mark the loops and/or thread bodies enclosing ``block`` (inside
        the cleaned regions) for another LICM / barrier visit."""
        if not (loops or threads):
            return
        roots = self.roots
        while block is not None:
            region = block.parent
            if region is None or region in roots:
                return
            owner = region.parent
            if owner is None:
                return
            if owner.name == "scf.for":
                if loops:
                    self.loops[owner] = None
            elif threads and is_thread_loop(owner):
                self.threads[owner] = None
            block = owner.parent

    def _replace(self, op: Operation, values: Sequence[Value]) -> None:
        """Forward ``op``'s results to ``values``, then erase it."""
        for result, value in zip(op.results, values):
            if result.uses:
                users = [use.owner for use in result.uses]
                result.replace_all_uses_with(value)
                for user in users:
                    self._touch(user)
        self._erase(op)

    def _erase(self, op: Operation) -> None:
        block = op.parent
        dropped = op._operands
        keys = self.keys
        keys.pop(op, None)
        if op.regions:
            dropped = list(dropped)
            stack = [op]
            while stack:
                for region in stack.pop().regions:
                    for nested_block in region.blocks:
                        for nested in nested_block.ops:
                            nested.parent = None
                            keys.pop(nested, None)
                            dropped.extend(nested._operands)
                            stack.append(nested)
        name = op.name
        if self.barriers and name != _BARRIER and not effects.is_pure(op):
            # a memory access or region op less can make a barrier
            # redundant
            self._mark(block, False, True)
        if self.forward and not self.sweeping and (
                op.regions or name == _BARRIER):
            self._forget_effects(block)
        op.erase()
        if self.dce:
            seen = self.seen
            for value in dropped:
                if value.__class__ is OpResult:
                    owner = value.owner
                    if owner in seen and owner.parent is not None:
                        self.candidates.append(owner)

    def _forget_effects(self, block: Block) -> None:
        """A barrier or region op left ``block``: forwarding in it, and in
        every block whose region op held it, must be redone."""
        while block is not None:
            self.blocks[block] = None
            region = block.parent
            if region is None or region in self.roots:
                return
            owner = region.parent
            if owner is None:
                return
            self.effects.pop(owner, None)
            block = owner.parent


def cleanup(roots: Sequence[Region], rewrites: Iterable[str],
            whole: bool, **span_args) -> Dict[str, int]:
    """Run ``rewrites`` over the regions ``roots`` until nothing changes.

    ``whole`` says the regions are a whole module: every loop and thread
    body then gets LICM and barrier elimination. Otherwise the regions
    sit inside IR that is already clean: CSE also reuses the pure ops
    that dominate them from outside, and nothing outside changes.

    Returns the number of times each rewrite fired. One ``cleanup`` span
    carries those counts and the op visits; the metrics registry gets
    ``cleanup.rewrites.<rewrite>`` and ``cleanup.visited`` once per call.
    """
    driver = _Driver(roots, rewrites, whole)
    with obs_tracer.span("cleanup", category="transforms",
                         **span_args) as span:
        driver.run(roots)
        span.set(visited=driver.visited, **driver.counts)
    if obs_metrics.enabled():
        for name, count in driver.counts.items():
            obs_metrics.inc("cleanup.rewrites." + name, count)
        obs_metrics.inc("cleanup.visited", driver.visited)
    return driver.counts


def run_rewrites(module: Module, rewrites: Iterable[str]) -> bool:
    """Run ``rewrites`` over the whole module; True if any fired."""
    counts = cleanup(module.op.regions, rewrites, whole=True)
    return any(counts.values())
