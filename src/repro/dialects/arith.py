"""The ``arith`` dialect: constants, arithmetic, comparisons, casts."""

from __future__ import annotations

from typing import Optional

from ..ir import (Builder, F32, I1, INDEX, FloatType, IndexType, IntegerType,
                  Operation, OpResult, Type, Value, register_op_verifier)

CONSTANT = "arith.constant"
SELECT = "arith.select"
CMPI = "arith.cmpi"
CMPF = "arith.cmpf"

#: integer binary ops (two same-type int/index operands, same-type result)
INT_BINARY = {
    "arith.addi", "arith.subi", "arith.muli", "arith.divsi", "arith.remsi",
    "arith.divui", "arith.remui", "arith.andi", "arith.ori", "arith.xori",
    "arith.shli", "arith.shrsi", "arith.shrui", "arith.minsi", "arith.maxsi",
    "arith.minui", "arith.maxui",
}

#: float binary ops
FLOAT_BINARY = {
    "arith.addf", "arith.subf", "arith.mulf", "arith.divf", "arith.remf",
    "arith.minf", "arith.maxf",
}

#: unary ops
UNARY = {"arith.negf"}

#: cast ops: (operand type class) -> (result type class) checked loosely
CASTS = {
    "arith.index_cast", "arith.sitofp", "arith.uitofp", "arith.fptosi",
    "arith.extf", "arith.truncf", "arith.extsi", "arith.extui",
    "arith.trunci", "arith.bitcast",
}

#: comparison predicates shared by cmpi and cmpf
PREDICATES = ("eq", "ne", "lt", "le", "gt", "ge")


def constant(builder: Builder, value, type_: Type) -> Value:
    """Materialize a typed constant."""
    if isinstance(type_, FloatType):
        value = float(value)
    elif isinstance(type_, (IntegerType, IndexType)):
        value = int(value)
    op = builder.create(CONSTANT, [], [type_], {"value": value})
    op.result().name_hint = "c%s" % str(value).replace("-", "m").replace(
        ".", "_")
    return op.result()


def index_constant(builder: Builder, value: int) -> Value:
    return constant(builder, value, INDEX)


def binary(builder: Builder, name: str, lhs: Value, rhs: Value) -> Value:
    if name not in INT_BINARY and name not in FLOAT_BINARY:
        raise ValueError("unknown arith binary op %r" % name)
    return builder.create(name, [lhs, rhs], [lhs.type]).result()


def addi(builder: Builder, lhs: Value, rhs: Value) -> Value:
    return binary(builder, "arith.addi", lhs, rhs)


def subi(builder: Builder, lhs: Value, rhs: Value) -> Value:
    return binary(builder, "arith.subi", lhs, rhs)


def muli(builder: Builder, lhs: Value, rhs: Value) -> Value:
    return binary(builder, "arith.muli", lhs, rhs)


def divsi(builder: Builder, lhs: Value, rhs: Value) -> Value:
    return binary(builder, "arith.divsi", lhs, rhs)


def remsi(builder: Builder, lhs: Value, rhs: Value) -> Value:
    return binary(builder, "arith.remsi", lhs, rhs)


def addf(builder: Builder, lhs: Value, rhs: Value) -> Value:
    return binary(builder, "arith.addf", lhs, rhs)


def subf(builder: Builder, lhs: Value, rhs: Value) -> Value:
    return binary(builder, "arith.subf", lhs, rhs)


def mulf(builder: Builder, lhs: Value, rhs: Value) -> Value:
    return binary(builder, "arith.mulf", lhs, rhs)


def divf(builder: Builder, lhs: Value, rhs: Value) -> Value:
    return binary(builder, "arith.divf", lhs, rhs)


def negf(builder: Builder, value: Value) -> Value:
    return builder.create("arith.negf", [value], [value.type]).result()


def cmpi(builder: Builder, predicate: str, lhs: Value, rhs: Value) -> Value:
    if predicate not in PREDICATES:
        raise ValueError("unknown predicate %r" % predicate)
    return builder.create(CMPI, [lhs, rhs], [I1],
                          {"predicate": predicate}).result()


def cmpf(builder: Builder, predicate: str, lhs: Value, rhs: Value) -> Value:
    if predicate not in PREDICATES:
        raise ValueError("unknown predicate %r" % predicate)
    return builder.create(CMPF, [lhs, rhs], [I1],
                          {"predicate": predicate}).result()


def select(builder: Builder, cond: Value, true_value: Value,
           false_value: Value) -> Value:
    return builder.create(SELECT, [cond, true_value, false_value],
                          [true_value.type]).result()


def cast(builder: Builder, name: str, value: Value, to: Type) -> Value:
    if name not in CASTS:
        raise ValueError("unknown cast %r" % name)
    return builder.create(name, [value], [to]).result()


def index_cast(builder: Builder, value: Value,
               to: Optional[Type] = None) -> Value:
    """Cast between index and integer types (defaults to index)."""
    return cast(builder, "arith.index_cast", value, to or INDEX)


def sitofp(builder: Builder, value: Value, to: Type = F32) -> Value:
    return cast(builder, "arith.sitofp", value, to)


def constant_value(value: Value):
    """The Python value of an ``arith.constant`` result, or None."""
    if isinstance(value, OpResult) and value.owner.name == CONSTANT:
        return value.owner.attributes.get("value")
    return None


@register_op_verifier(CONSTANT)
def _verify_constant(op: Operation) -> None:
    if op.num_results != 1 or op.num_operands != 0:
        raise ValueError("arith.constant must be ()->(1 result)")
    if "value" not in op.attributes:
        raise ValueError("arith.constant needs a value attribute")


@register_op_verifier(CMPI)
def _verify_cmpi(op: Operation) -> None:
    if op.attr("predicate") not in PREDICATES:
        raise ValueError("bad cmpi predicate %r" % op.attr("predicate"))


@register_op_verifier(CMPF)
def _verify_cmpf(op: Operation) -> None:
    if op.attr("predicate") not in PREDICATES:
        raise ValueError("bad cmpf predicate %r" % op.attr("predicate"))
