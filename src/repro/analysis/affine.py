"""Affine decomposition of index expressions.

Expresses an index value as ``const + Σ coeff_i · sym_i`` where symbols are
SSA values the decomposition cannot see through (parallel ivs, loop ivs,
loaded values, function arguments). The memory model uses this to compute
the stride of a memory access with respect to ``threadIdx.x`` — the quantity
that decides whether a warp's loads coalesce (§II-A2, Fig. 11) and how its
shared accesses spread over banks. :class:`AccessMemo` holds that one
stride rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..dialects import arith
from ..dialects import memref as memref_d
from ..ir import MemRefType, Operation, OpResult, Value
from .uniformity import DependenceMemo


@dataclass
class AffineForm:
    """``const + Σ terms[v] * v`` over symbol values ``v``."""

    const: int = 0
    terms: Dict[Value, int] = field(default_factory=dict)

    def add(self, other: "AffineForm", scale: int = 1) -> "AffineForm":
        result = AffineForm(self.const + scale * other.const,
                            dict(self.terms))
        for sym, coeff in other.terms.items():
            result.terms[sym] = result.terms.get(sym, 0) + scale * coeff
            if result.terms[sym] == 0:
                del result.terms[sym]
        return result

    def scaled(self, factor: int) -> "AffineForm":
        if factor == 0:
            return AffineForm(0)
        return AffineForm(self.const * factor,
                          {s: c * factor for s, c in self.terms.items()})

    def coefficient(self, value: Value) -> int:
        return self.terms.get(value, 0)

    @property
    def is_constant(self) -> bool:
        return not self.terms

    def __str__(self) -> str:
        parts = [str(self.const)] if self.const or not self.terms else []
        for sym, coeff in self.terms.items():
            name = sym.name_hint or "v"
            parts.append("%d*%s" % (coeff, name))
        return " + ".join(parts) if parts else "0"


_MAX_DEPTH = 64


def affine_of(value: Value, depth: int = 0) -> AffineForm:
    """Affine decomposition of ``value``; always succeeds (opaque values
    become symbols with coefficient 1)."""
    if depth > _MAX_DEPTH:
        return AffineForm(0, {value: 1})
    if value.__class__ is OpResult:
        op = value.owner
        name = op.name
        if name == arith.CONSTANT:
            raw = op.attributes.get("value")
            if isinstance(raw, bool) or not isinstance(raw, (int, float)):
                return AffineForm(0, {value: 1})
            return AffineForm(int(raw))
        operands = op._operands
        if name == "arith.addi":
            return affine_of(operands[0], depth + 1).add(
                affine_of(operands[1], depth + 1))
        if name == "arith.subi":
            return affine_of(operands[0], depth + 1).add(
                affine_of(operands[1], depth + 1), scale=-1)
        if name == "arith.muli":
            lhs = affine_of(operands[0], depth + 1)
            rhs = affine_of(operands[1], depth + 1)
            if lhs.is_constant:
                return rhs.scaled(lhs.const)
            if rhs.is_constant:
                return lhs.scaled(rhs.const)
            return AffineForm(0, {value: 1})
        if name == "arith.shli":
            lhs = affine_of(operands[0], depth + 1)
            rhs = affine_of(operands[1], depth + 1)
            if rhs.is_constant:
                return lhs.scaled(1 << rhs.const)
            return AffineForm(0, {value: 1})
        if name in ("arith.index_cast", "arith.extsi", "arith.extui"):
            return affine_of(operands[0], depth + 1)
        if name == "arith.divsi":
            lhs = affine_of(operands[0], depth + 1)
            rhs = affine_of(operands[1], depth + 1)
            if lhs.is_constant and rhs.is_constant and rhs.const != 0:
                q = abs(lhs.const) // abs(rhs.const)
                sign = 1 if (lhs.const >= 0) == (rhs.const >= 0) else -1
                return AffineForm(sign * q)
            return AffineForm(0, {value: 1})
    return AffineForm(0, {value: 1})


#: cache marker of an index not yet asked about (``None`` is an answer)
_UNKNOWN = object()


class AccessMemo:
    """The ``threadIdx.x`` stride of the memory accesses of one thread body.

    Holds the affine form of each index value, as ``affine_of(index)``
    computes it from the root, the stride of each index and a
    :class:`DependenceMemo` over ``{threadIdx.x}``. Every answer equals a
    fresh memo's, so results do not depend on sharing.
    """

    def __init__(self, thread_parallel: Operation):
        self.tid_x = thread_parallel.body_block().arg(0)
        self.depends_on_tid = DependenceMemo((self.tid_x,))
        self._forms: Dict[Value, AffineForm] = {}
        self._strides: Dict[Value, Optional[int]] = {}

    def affine(self, index: Value) -> AffineForm:
        # forms are shared: callers build new forms, never mutate these
        form = self._forms.get(index)
        if form is None:
            form = self._forms[index] = affine_of(index)
        return form

    def index_stride(self, index: Value) -> Optional[int]:
        """``threadIdx.x`` coefficient of ``index``; None when another of
        its symbols depends on ``threadIdx.x``."""
        stride = self._strides.get(index, _UNKNOWN)
        if stride is _UNKNOWN:
            stride = self._strides[index] = _stride_of(self.affine(index),
                                                       self)
        return stride

    def stride(self, op: Operation) -> Optional[int]:
        """Elements the flattened address of a load, store or atomic steps
        per +1 of ``threadIdx.x``; None when unknown or irregular.

        The sum of each index's stride times its row-major scale. When an
        index's stride is unknown, the flattened form decides instead:
        tid-dependent symbols of two indices may cancel in the sum (with
        one index, nothing can cancel).
        """
        scales = _row_major_scales(memref_d.load_op_ref(op))
        if scales is None:
            return None
        indices = memref_d.access_indices(op)
        total = 0
        for scale, index in zip(scales, indices):
            stride = self.index_stride(index)
            if stride is None:
                if len(indices) == 1:
                    return None
                return _stride_of(_flat_affine(op, self), self)
            total += scale * stride
        return total


def _row_major_scales(ref: Value) -> Optional[List[int]]:
    type_ = ref.type
    if not isinstance(type_, MemRefType):
        return None
    # row-major strides only need the non-outermost extents to be static
    if any(extent < 0 for extent in type_.shape[1:]):
        return None
    scales: List[int] = []
    scale = 1
    for extent in reversed(type_.shape):
        scales.append(scale)
        scale *= max(extent, 1)
    scales.reverse()
    return scales


def _flat_affine(op: Operation, memo: AccessMemo) -> Optional[AffineForm]:
    """Affine form of the row-major flattened address of an access."""
    scales = _row_major_scales(memref_d.load_op_ref(op))
    if scales is None:
        return None
    form = AffineForm(0)
    for scale, index in zip(scales, memref_d.access_indices(op)):
        form = form.add(memo.affine(index).scaled(scale))
    return form


def _stride_of(form: Optional[AffineForm],
               memo: AccessMemo) -> Optional[int]:
    """``threadIdx.x`` coefficient of ``form``; None when ``form`` is None
    or another of its symbols depends on ``threadIdx.x``."""
    if form is None:
        return None
    tid_x = memo.tid_x
    coeff = form.coefficient(tid_x)
    for sym in form.terms:
        if sym is tid_x:
            continue
        if memo.depends_on_tid(sym):
            return None
    return coeff
