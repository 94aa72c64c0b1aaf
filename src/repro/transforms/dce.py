"""Dead code elimination: removes unused side-effect-free operations."""

from __future__ import annotations

from ..dialects import effects
from ..ir import Operation


#: per-name deadness verdict for region-free ops (their terminator and
#: side-effect classification depends only on the name)
_DEAD_BY_NAME: dict = {}


def is_dead(op: Operation) -> bool:
    """Unused and removable: no result has a use and the op has no side
    effect."""
    for result in op.results:
        if result.uses:
            return False
    # ops with regions are never removed: if anything nested has side
    # effects they are unsound to drop, and otherwise the region guard
    # below rejects them anyway — so only name-level checks remain, and
    # those memoize
    if op.regions:
        return False
    name = op.name
    verdict = _DEAD_BY_NAME.get(name)
    if verdict is None:
        # pure ops, unused loads, and unused allocations are removable
        verdict = not effects.is_terminator(op) and \
            not effects.has_side_effects(op)
        _DEAD_BY_NAME[name] = verdict
    return verdict
