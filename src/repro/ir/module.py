"""Top-level module container (the analog of ``builtin.module``)."""

from __future__ import annotations

from typing import List, Optional

from .core import Block, Operation, single_block_region


class Module:
    """A top-level container of functions and globals.

    Internally a :class:`Operation` named ``builtin.module`` with one region,
    wrapped for convenience accessors.
    """

    def __init__(self, op: Optional[Operation] = None):
        if op is None:
            op = Operation("builtin.module", regions=[single_block_region()])
        if op.name != "builtin.module":
            raise ValueError("module op must be builtin.module")
        self.op = op

    @property
    def body(self) -> Block:
        return self.op.body_block()

    @property
    def funcs(self) -> List[Operation]:
        return [op for op in self.body.ops if op.name == "func.func"]

    def func(self, symbol: str) -> Operation:
        """Look up a function by its symbol name."""
        for op in self.body.ops:
            if op.name == "func.func" and op.attr("sym_name") == symbol:
                return op
        raise KeyError("no function named %r in module" % symbol)

    def has_func(self, symbol: str) -> bool:
        return any(op.name == "func.func" and op.attr("sym_name") == symbol
                   for op in self.body.ops)

    def globals_(self) -> List[Operation]:
        return [op for op in self.body.ops if op.name == "memref.global"]

    def global_(self, symbol: str) -> Operation:
        for op in self.body.ops:
            if op.name == "memref.global" and op.attr("sym_name") == symbol:
                return op
        raise KeyError("no global named %r in module" % symbol)

    def clone(self) -> "Module":
        return Module(self.op.clone())

    def __str__(self) -> str:
        from .printer import print_module
        return print_module(self)

    def __repr__(self) -> str:
        return "<Module with %d top-level ops>" % len(self.body.ops)
