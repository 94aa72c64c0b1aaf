"""The ``memref`` dialect: memory allocation, loads, stores, globals."""

from __future__ import annotations

from typing import Sequence

from ..ir import (Builder, DYNAMIC, INDEX, MemRefType, Operation, Value,
                  register_op_verifier)

ALLOC = "memref.alloc"
ALLOCA = "memref.alloca"
DEALLOC = "memref.dealloc"
LOAD = "memref.load"
STORE = "memref.store"
DIM = "memref.dim"
GLOBAL = "memref.global"
GET_GLOBAL = "memref.get_global"
ATOMIC_RMW = "memref.atomic_rmw"

#: supported atomic read-modify-write kinds
ATOMIC_KINDS = ("addf", "addi", "maxf", "maxi", "minf", "mini", "exchange")


def alloc(builder: Builder, type_: MemRefType,
          dynamic_sizes: Sequence[Value] = ()) -> Value:
    """Allocate a buffer in global (device) memory."""
    op = builder.create(ALLOC, list(dynamic_sizes), [type_])
    op.result().name_hint = "buf"
    return op.result()


def alloca(builder: Builder, type_: MemRefType) -> Value:
    """Allocate a static buffer; used for CUDA ``__shared__`` and locals."""
    if not type_.has_static_shape:
        raise ValueError("alloca requires a static shape")
    op = builder.create(ALLOCA, [], [type_])
    op.result().name_hint = "shmem" if type_.memory_space == "shared" \
        else "priv"
    return op.result()


def load(builder: Builder, ref: Value, indices: Sequence[Value]) -> Value:
    type_ = ref.type
    if not isinstance(type_, MemRefType):
        raise TypeError("load from non-memref %s" % type_)
    if len(indices) != type_.rank:
        raise ValueError("load rank mismatch: %d indices for %s" %
                         (len(indices), type_))
    return builder.create(LOAD, [ref, *indices], [type_.element]).result()


def store(builder: Builder, value: Value, ref: Value,
          indices: Sequence[Value]) -> Operation:
    type_ = ref.type
    if not isinstance(type_, MemRefType):
        raise TypeError("store to non-memref %s" % type_)
    if len(indices) != type_.rank:
        raise ValueError("store rank mismatch: %d indices for %s" %
                         (len(indices), type_))
    return builder.create(STORE, [value, ref, *indices], [])


def atomic_rmw(builder: Builder, kind: str, value: Value, ref: Value,
               indices: Sequence[Value]) -> Value:
    if kind not in ATOMIC_KINDS:
        raise ValueError("unknown atomic kind %r" % kind)
    return builder.create(ATOMIC_RMW, [value, ref, *indices],
                          [value.type], {"kind": kind}).result()


def dim(builder: Builder, ref: Value, index: Value) -> Value:
    return builder.create(DIM, [ref, index], [INDEX]).result()


def global_(builder: Builder, sym_name: str, type_: MemRefType,
            constant: bool = False) -> Operation:
    """Declare a module-level global buffer (``__device__`` variables)."""
    return builder.create(GLOBAL, [], [],
                          {"sym_name": sym_name, "type": type_,
                           "constant": constant})


def get_global(builder: Builder, module_op, sym_name: str) -> Value:
    for op in module_op.body_block().ops:
        if op.name == GLOBAL and op.attr("sym_name") == sym_name:
            return builder.create(GET_GLOBAL, [], [op.attr("type")],
                                  {"name": sym_name}).result()
    raise KeyError("no global %r" % sym_name)


def load_op_ref(op: Operation) -> Value:
    """The memref operand of a load/store/atomic op."""
    if op.name == LOAD:
        return op.operand(0)
    if op.name in (STORE, ATOMIC_RMW):
        return op.operand(1)
    raise ValueError("%s is not a memory access" % op.name)


def access_indices(op: Operation) -> Sequence[Value]:
    """The index operands of a load/store/atomic op."""
    if op.name == LOAD:
        return op.operands[1:]
    if op.name in (STORE, ATOMIC_RMW):
        return op.operands[2:]
    raise ValueError("%s is not a memory access" % op.name)


@register_op_verifier(LOAD)
def _verify_load(op: Operation) -> None:
    type_ = op.operand(0).type
    if not isinstance(type_, MemRefType):
        raise ValueError("memref.load base must be a memref")
    if op.num_operands != 1 + type_.rank:
        raise ValueError("memref.load index count mismatch")


@register_op_verifier(STORE)
def _verify_store(op: Operation) -> None:
    type_ = op.operand(1).type
    if not isinstance(type_, MemRefType):
        raise ValueError("memref.store base must be a memref")
    if op.num_operands != 2 + type_.rank:
        raise ValueError("memref.store index count mismatch")


@register_op_verifier(ALLOC)
def _verify_alloc(op: Operation) -> None:
    type_ = op.result().type
    if not isinstance(type_, MemRefType):
        raise ValueError("memref.alloc must produce a memref")
    dynamic = sum(1 for d in type_.shape if d == DYNAMIC)
    if op.num_operands != dynamic:
        raise ValueError("memref.alloc dynamic size count mismatch")
