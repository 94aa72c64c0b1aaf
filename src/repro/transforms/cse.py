"""Common subexpression elimination for pure ops, scoped by region nesting.

:func:`key` is what makes two ops equal; the cleanup driver keeps one op
per key among those that dominate each other.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..dialects import effects
from ..ir import Operation
from ..ir.types import Type

#: memoized ``str(type)`` per distinct type object — types are immutable
#: value objects, so the cache never goes stale and stays small
_TYPE_STRS: Dict[Type, str] = {}


#: :func:`effects.is_pure` per op name, for region-free ops
_PURE: Dict[str, bool] = {}


def _type_str(type_: Type) -> str:
    text = _TYPE_STRS.get(type_)
    if text is None:
        text = str(type_)
        _TYPE_STRS[type_] = text
    return text


def key(op: Operation) -> Optional[Tuple]:
    """What makes ``op`` equal to another op, or None if it is not
    eligible (impure, or owning regions)."""
    if op.regions:
        return None
    pure = _PURE.get(op.name)
    if pure is None:
        pure = _PURE[op.name] = effects.is_pure(op)
    if not pure:
        return None
    attributes = op.attributes
    if not attributes:
        attrs = ()
    elif len(attributes) == 1:
        ((name, value),) = attributes.items()
        attrs = ((name, _hashable(value)),)
    else:
        attrs = tuple(sorted((k, _hashable(v))
                             for k, v in attributes.items()))
    results = op.results
    types = (_type_str(results[0].type),) if len(results) == 1 else \
        tuple(_type_str(r.type) for r in results)
    return (op.name, tuple(map(id, op._operands)), attrs, types)


def _hashable(value):
    if isinstance(value, list):
        return tuple(_hashable(v) for v in value)
    return value
