"""Canonicalization: constant folding and algebraic simplification."""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..dialects import arith
from ..ir import IndexType, IntegerType, Operation, OpResult, Value

_INT_FOLDS = {
    "arith.addi": lambda a, b: a + b,
    "arith.subi": lambda a, b: a - b,
    "arith.muli": lambda a, b: a * b,
    "arith.andi": lambda a, b: a & b,
    "arith.ori": lambda a, b: a | b,
    "arith.xori": lambda a, b: a ^ b,
    "arith.shli": lambda a, b: a << b,
    "arith.shrsi": lambda a, b: a >> b,
    "arith.minsi": min,
    "arith.maxsi": max,
}

_CMP = {
    "eq": lambda a, b: a == b, "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b, "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b, "ge": lambda a, b: a >= b,
}

#: every op name :func:`fold` can act on — anything else exits before the
#: dispatch cascade
FOLDABLE = frozenset(_INT_FOLDS) | {
    "arith.divsi", "arith.remsi", "arith.cmpi", "arith.select",
    "arith.index_cast", "scf.if",
}


def _const(value: Value) -> Optional[object]:
    return arith.constant_value(value)


def _as_op(value, name):
    if value.__class__ is OpResult and value.owner.name == name:
        return value.owner
    return None


def _match_divmod_recompose(add_op: Operation) -> Optional[Value]:
    """Recognize ``(x / y) * y + x % y`` (either operand order) as ``x``.

    Holds for C division semantics with any sign. This is the row/column
    linearization idiom (``row = i / n; col = i % n; a[row * n + col]``)
    whose recomposition the coalescing analysis needs to see through.
    """
    as_op = _as_op
    lhs, rhs = add_op._operands
    for mul_side, rem_side in ((lhs, rhs), (rhs, lhs)):
        rem = as_op(rem_side, "arith.remsi")
        mul = as_op(mul_side, "arith.muli")
        if rem is None or mul is None:
            continue
        x, y = rem._operands
        mul_lhs, mul_rhs = mul._operands
        for div_side, factor in ((mul_lhs, mul_rhs), (mul_rhs, mul_lhs)):
            div = as_op(div_side, "arith.divsi")
            if div is None or factor is not y:
                continue
            if div._operands[0] is x and div._operands[1] is y:
                return x
    return None


def fold(op: Operation) -> Optional[Tuple[str, object]]:
    """The canonicalization that applies to ``op``, or None.

    One of ``("constant", python_value)`` (replace the single result with
    a new constant of its type), ``("value", value)`` (replace it with an
    existing value) or ``("inline", take_then)`` (an ``scf.if`` whose
    condition is constant). The cleanup driver applies it.
    """
    name = op.name
    if name not in FOLDABLE:
        return None
    if name in _INT_FOLDS:
        operands = op._operands
        lhs, rhs = _const(operands[0]), _const(operands[1])
        if lhs is not None and rhs is not None:
            return "constant", _INT_FOLDS[name](lhs, rhs)
        if name == "arith.addi":
            reconstructed = _match_divmod_recompose(op)
            if reconstructed is not None:
                return "value", reconstructed
        return _int_identity(op, lhs, rhs)
    if name in ("arith.divsi", "arith.remsi"):
        lhs, rhs = _const(op._operands[0]), _const(op._operands[1])
        if lhs is not None and rhs not in (None, 0):
            q = abs(lhs) // abs(rhs)
            if (lhs >= 0) != (rhs >= 0):
                q = -q
            return "constant", q if name == "arith.divsi" else lhs - q * rhs
        if rhs == 1:
            if name == "arith.divsi":
                return "value", op._operands[0]
            return "constant", 0
        return None
    if name == "arith.cmpi":
        lhs, rhs = _const(op._operands[0]), _const(op._operands[1])
        if lhs is not None and rhs is not None:
            return "constant", _CMP[op.attr("predicate")](lhs, rhs)
        return None
    if name == "arith.select":
        operands = op._operands
        cond = _const(operands[0])
        if cond is not None:
            return "value", operands[1] if cond else operands[2]
        if operands[1] is operands[2]:
            return "value", operands[1]
        return None
    if name == "arith.index_cast":
        source = op._operands[0]
        if source.type == op.result().type:
            return "value", source
        folded = _const(source)
        if folded is not None and isinstance(
                op.result().type, (IndexType, IntegerType)):
            return "constant", folded
        return None
    # scf.if
    cond = _const(op._operands[0])
    if cond is not None:
        return "inline", bool(cond)
    return None


def _int_identity(op: Operation, lhs, rhs) -> Optional[Tuple[str, object]]:
    name = op.name
    if name == "arith.addi":
        if rhs == 0:
            return "value", op._operands[0]
        if lhs == 0:
            return "value", op._operands[1]
    elif name == "arith.subi":
        if rhs == 0:
            return "value", op._operands[0]
    elif name == "arith.muli":
        if rhs == 1:
            return "value", op._operands[0]
        if lhs == 1:
            return "value", op._operands[1]
        if rhs == 0 or lhs == 0:
            return "constant", 0
    return None


def inline_if_branch(op: Operation, take_then: bool
                     ) -> Tuple[List[Operation], List[Value]]:
    """Move the taken branch of ``op`` in front of it.

    Returns the moved ops and the values the branch yields, which replace
    ``op``'s results; the caller forwards them and erases ``op`` (and
    with it the other branch).
    """
    block = op.body_block(0 if take_then else 1)
    parent = op.parent
    index = parent.ops.index(op)
    terminator = block.ops[-1] if block.ops and \
        block.ops[-1].name == "scf.yield" else None
    moved = [child for child in block.ops if child is not terminator]
    for child in moved:
        child.parent = None
    block.ops = [terminator] if terminator else []
    for offset, child in enumerate(moved):
        parent.insert(index + offset, child)
    return moved, terminator.operands if terminator is not None else []
