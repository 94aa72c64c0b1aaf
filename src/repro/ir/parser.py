"""Parser for the generic textual IR form produced by the printer.

The grammar intentionally matches :mod:`repro.ir.printer` exactly, so
``parse_module(print_module(m))`` reconstructs an equivalent module. The
parser works on a character cursor so types (``memref<16x16xf32, shared>``)
can be parsed in-place without a separate lexer mode.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional

from .core import Block, Operation, Region, Value
from .module import Module
from .types import (DYNAMIC, FloatType, FunctionType, IndexType, IntegerType,
                    MemRefType, Type)

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_.$]*")
_NUMBER = re.compile(r"-?\d+(\.\d+(e[+-]?\d+)?)?", re.IGNORECASE)


class ParseError(ValueError):
    """Raised on malformed IR text, with position information."""

    def __init__(self, message: str, text: str, pos: int):
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__("%s at line %d, column %d" % (message, line, col))


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        text, n = self.text, len(self.text)
        while self.pos < n:
            ch = text[self.pos]
            if ch in " \t\r\n":
                self.pos += 1
            elif text.startswith("//", self.pos):
                end = text.find("\n", self.pos)
                self.pos = n if end == -1 else end + 1
            else:
                break

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self, literal: str) -> bool:
        self.skip_ws()
        return self.text.startswith(literal, self.pos)

    def accept(self, literal: str) -> bool:
        if self.peek(literal):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str) -> None:
        if not self.accept(literal):
            raise ParseError("expected %r" % literal, self.text, self.pos)

    def ident(self) -> str:
        self.skip_ws()
        match = _IDENT.match(self.text, self.pos)
        if not match:
            raise ParseError("expected identifier", self.text, self.pos)
        self.pos = match.end()
        return match.group()

    def number(self):
        self.skip_ws()
        match = _NUMBER.match(self.text, self.pos)
        if not match:
            raise ParseError("expected number", self.text, self.pos)
        self.pos = match.end()
        text = match.group()
        return float(text) if ("." in text or "e" in text or "E" in text) \
            else int(text)

    def string(self) -> str:
        self.skip_ws()
        if not self.accept('"'):
            raise ParseError("expected string", self.text, self.pos)
        out = []
        while True:
            if self.pos >= len(self.text):
                raise ParseError("unterminated string", self.text, self.pos)
            ch = self.text[self.pos]
            self.pos += 1
            if ch == '"':
                return "".join(out)
            if ch == "\\":
                out.append(self.text[self.pos])
                self.pos += 1
            else:
                out.append(ch)


def parse_type(cursor: _Cursor) -> Type:
    cursor.skip_ws()
    if cursor.accept("("):
        inputs: List[Type] = []
        if not cursor.peek(")"):
            inputs.append(parse_type(cursor))
            while cursor.accept(","):
                inputs.append(parse_type(cursor))
        cursor.expect(")")
        cursor.expect("->")
        cursor.expect("(")
        results: List[Type] = []
        if not cursor.peek(")"):
            results.append(parse_type(cursor))
            while cursor.accept(","):
                results.append(parse_type(cursor))
        cursor.expect(")")
        return FunctionType(tuple(inputs), tuple(results))
    name = cursor.ident()
    if name == "index":
        return IndexType()
    if name == "memref":
        cursor.expect("<")
        shape: List[int] = []
        element: Optional[Type] = None
        while True:
            cursor.skip_ws()
            if cursor.accept("?"):
                shape.append(DYNAMIC)
                cursor.expect("x")
                continue
            match = re.match(r"\d+", cursor.text[cursor.pos:])
            if match and cursor.text[cursor.pos + match.end():
                                     cursor.pos + match.end() + 1] == "x":
                shape.append(int(match.group()))
                cursor.pos += match.end() + 1
                continue
            element = parse_type(cursor)
            break
        space = "global"
        if cursor.accept(","):
            space = cursor.ident()
        cursor.expect(">")
        return MemRefType(tuple(shape), element, space)
    match = re.fullmatch(r"i(\d+)", name)
    if match:
        return IntegerType(int(match.group(1)))
    match = re.fullmatch(r"f(\d+)", name)
    if match:
        return FloatType(int(match.group(1)))
    raise ParseError("unknown type %r" % name, cursor.text, cursor.pos)


def _parse_attr_value(cursor: _Cursor):
    cursor.skip_ws()
    if cursor.accept("!"):
        return parse_type(cursor)
    if cursor.peek('"'):
        return cursor.string()
    if cursor.accept("["):
        items = []
        if not cursor.peek("]"):
            items.append(_parse_attr_value(cursor))
            while cursor.accept(","):
                items.append(_parse_attr_value(cursor))
        cursor.expect("]")
        return items
    if cursor.peek("true"):
        cursor.expect("true")
        return True
    if cursor.peek("false"):
        cursor.expect("false")
        return False
    if cursor.peek("none"):
        cursor.expect("none")
        return None
    return cursor.number()


class _OpParser:
    def __init__(self, text: str):
        self.cursor = _Cursor(text)
        self.values: Dict[str, Value] = {}

    def value_name(self) -> str:
        self.cursor.expect("%")
        return self.cursor.ident()

    def parse_op(self) -> Operation:
        cursor = self.cursor
        result_names: List[str] = []
        if cursor.peek("%"):
            result_names.append(self.value_name())
            while cursor.accept(","):
                result_names.append(self.value_name())
            cursor.expect("=")
        op_name = cursor.string()
        cursor.expect("(")
        operand_names: List[str] = []
        if not cursor.peek(")"):
            operand_names.append(self.value_name())
            while cursor.accept(","):
                operand_names.append(self.value_name())
        cursor.expect(")")
        attributes: Dict[str, object] = {}
        if cursor.accept("{"):
            if not cursor.peek("}"):
                while True:
                    key = cursor.ident()
                    cursor.expect("=")
                    attributes[key] = _parse_attr_value(cursor)
                    if not cursor.accept(","):
                        break
            cursor.expect("}")
        cursor.expect(":")
        func_type = parse_type(cursor)
        if not isinstance(func_type, FunctionType):
            raise ParseError("expected a function type after ':'",
                             cursor.text, cursor.pos)
        operands = []
        for name, type_ in zip(operand_names, func_type.inputs):
            if name not in self.values:
                raise ParseError("use of undefined value %%%s" % name,
                                 cursor.text, cursor.pos)
            operands.append(self.values[name])
        op = Operation(op_name, operands, list(func_type.results), attributes)
        for name, result in zip(result_names, op.results):
            result.name_hint = name
            self.values[name] = result
        if cursor.accept("("):
            while True:
                op.add_region(self.parse_region())
                if not cursor.accept(","):
                    break
            cursor.expect(")")
        return op

    def parse_region(self) -> Region:
        cursor = self.cursor
        cursor.expect("{")
        block = Block()
        if cursor.accept("^"):
            cursor.expect("(")
            if not cursor.peek(")"):
                while True:
                    name = self.value_name()
                    cursor.expect(":")
                    type_ = parse_type(cursor)
                    arg = block.add_argument(type_, name)
                    self.values[name] = arg
                    if not cursor.accept(","):
                        break
            cursor.expect(")")
            cursor.expect(":")
        while not cursor.peek("}"):
            block.append(self.parse_op())
        cursor.expect("}")
        region = Region()
        region.add_block(block)
        return region


def parse_op(text: str) -> Operation:
    """Parse a single (possibly region-carrying) operation."""
    parser = _OpParser(text)
    op = parser.parse_op()
    if not parser.cursor.at_end():
        raise ParseError("trailing input", text, parser.cursor.pos)
    return op


def parse_module(text: str) -> Module:
    """Parse a whole module printed by :func:`print_module`."""
    return Module(parse_op(text))
