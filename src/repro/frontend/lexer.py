"""Tokenizer for the CUDA C subset."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

KEYWORDS = {
    "void", "int", "unsigned", "signed", "long", "short", "char", "float",
    "double", "bool", "size_t", "const", "static", "extern", "if", "else",
    "for", "while", "do", "return", "break", "continue", "struct", "true",
    "false", "sizeof", "volatile", "restrict", "dim3",
    "__global__", "__device__", "__host__", "__shared__", "__constant__",
    "__restrict__", "__forceinline__", "inline",
}

#: multi-character operators, longest first
OPERATORS = [
    "<<<", ">>>", "<<=", ">>=", "...",
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=",
    "%=", "&=", "|=", "^=", "++", "--", "->",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^", "?",
    ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
]

_ID = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_FLOAT = re.compile(
    r"(\d+\.\d*([eE][-+]?\d+)?|\.\d+([eE][-+]?\d+)?|\d+[eE][-+]?\d+)[fF]?")
_INT = re.compile(r"(0[xX][0-9a-fA-F]+|\d+)[uUlL]*")
#: every operator in one alternation: the first alternative that matches
#: wins, and :data:`OPERATORS` lists the longest first
_OPERATOR = re.compile("|".join(map(re.escape, OPERATORS)))
_BLANKS = re.compile(r"[ \t\r]+")


class LexError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__("%s (line %d)" % (message, line))
        self.line = line


@dataclass
class Token:
    kind: str       # "id", "keyword", "int", "float", "string", "char", "op", "eof"
    text: str
    line: int
    #: numeric value for int/float tokens
    value: object = None
    #: True for float literals with an f/F suffix (C float vs double)
    is_f32: bool = False

    def __repr__(self) -> str:
        return "Token(%s, %r)" % (self.kind, self.text)


def tokenize(source: str) -> List[Token]:
    """Tokenize preprocessed source text."""
    tokens: List[Token] = []
    pos = 0
    line = 1
    n = len(source)
    while pos < n:
        ch = source[pos]
        if ch == "\n":
            line += 1
            pos += 1
            continue
        if ch in " \t\r":
            pos = _BLANKS.match(source, pos).end()
            continue
        if ch == "/":
            if source.startswith("//", pos):
                end = source.find("\n", pos)
                pos = n if end == -1 else end
                continue
            if source.startswith("/*", pos):
                end = source.find("*/", pos + 2)
                if end == -1:
                    raise LexError("unterminated block comment", line)
                line += source.count("\n", pos, end)
                pos = end + 2
                continue
        # a number starts with a dot or a decimal digit (what ``\d``
        # matches), an identifier with neither
        if ch == "." or ch.isdecimal():
            match = _FLOAT.match(source, pos)
            if match:
                text = match.group()
                is_f32 = text[-1] in "fF"
                number = float(text.rstrip("fF"))
                tokens.append(Token("float", text, line, number, is_f32))
                pos = match.end()
                continue
            match = _INT.match(source, pos)
            if match:
                text = match.group()
                digits = text.rstrip("uUlL")
                value = int(digits, 16) if digits.lower().startswith("0x") \
                    else int(digits)
                tokens.append(Token("int", text, line, value))
                pos = match.end()
                continue
        else:
            match = _ID.match(source, pos)
            if match:
                text = match.group()
                kind = "keyword" if text in KEYWORDS else "id"
                tokens.append(Token(kind, text, line))
                pos = match.end()
                continue
        if ch == '"':
            end = pos + 1
            while end < n and source[end] != '"':
                end += 2 if source[end] == "\\" else 1
            if end >= n:
                raise LexError("unterminated string literal", line)
            tokens.append(Token("string", source[pos:end + 1], line,
                                source[pos + 1:end]))
            pos = end + 1
            continue
        if ch == "'":
            end = pos + 1
            while end < n and source[end] != "'":
                end += 2 if source[end] == "\\" else 1
            if end >= n:
                raise LexError("unterminated char literal", line)
            body = source[pos + 1:end]
            value = ord(body[-1]) if body else 0
            tokens.append(Token("char", source[pos:end + 1], line, value))
            pos = end + 1
            continue
        match = _OPERATOR.match(source, pos)
        if match is None:
            raise LexError("unexpected character %r" % ch, line)
        tokens.append(Token("op", match.group(), line))
        pos = match.end()
    tokens.append(Token("eof", "", line))
    return tokens
