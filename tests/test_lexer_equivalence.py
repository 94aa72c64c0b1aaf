"""The lexer's operator alternation against the loop it replaced.

:func:`repro.frontend.lexer.tokenize` matches operators with one
precompiled longest-first alternation and dispatches on the first
character. :func:`_oracle_tokenize` below is the earlier lexer, which
tried ``source.startswith(operator, pos)`` for operator after operator.
Both must produce the same ``(kind, text, line, value, is_f32)`` stream
for every benchsuite and HeCBench source and every CUDA source in
``examples/``, and raise :class:`LexError` on the same line for bad
input.
"""

import ast
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchsuite.base import BENCHMARKS, get_benchmark
from repro.benchsuite.hecbench import HECBENCH
from repro.frontend.lexer import (KEYWORDS, OPERATORS, _FLOAT, _ID, _INT,
                                  LexError, Token, tokenize)
from repro.frontend.preprocessor import preprocess

EXAMPLES = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "examples")


def _oracle_tokenize(source):
    """The earlier lexer, kept verbatim as the reference."""
    tokens = []
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
            pos += 1
            continue
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
        for operator in OPERATORS:
            if source.startswith(operator, pos):
                tokens.append(Token("op", operator, line))
                pos += len(operator)
                break
        else:
            raise LexError("unexpected character %r" % ch, line)
    tokens.append(Token("eof", "", line))
    return tokens


def _stream(tokenizer, text):
    """The token stream, or the line and message of the LexError."""
    try:
        tokens = tokenizer(text)
    except LexError as error:
        return ("LexError", error.line, str(error))
    return [(t.kind, t.text, t.line, t.value, t.is_f32) for t in tokens]


def _example_sources():
    """Every CUDA source string (one holding ``__global__``) in the
    example scripts."""
    sources = []
    for name in sorted(os.listdir(EXAMPLES)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(EXAMPLES, name)) as handle:
            tree = ast.parse(handle.read())
        sources.extend((name, node.value) for node in ast.walk(tree)
                       if isinstance(node, ast.Constant) and
                       isinstance(node.value, str) and
                       "__global__" in node.value)
    return sources


def _suite_sources():
    sources = [(name, get_benchmark(name).source)
               for name in sorted(BENCHMARKS)]
    sources += [(name, HECBENCH[name].source) for name in sorted(HECBENCH)]
    return sources + _example_sources()


def test_examples_hold_cuda_sources():
    assert {name for name, _ in _example_sources()} >= {
        "quickstart.py", "coarsening_explorer.py"}


@pytest.mark.parametrize("name,source", _suite_sources(),
                         ids=[name for name, _ in _suite_sources()])
def test_streams_match_the_oracle(name, source):
    text = preprocess(source)
    stream = _stream(tokenize, text)
    assert stream[0] != "LexError", stream
    assert stream == _stream(_oracle_tokenize, text)
    # the raw source still holds ``#`` directives: both raise on the
    # same line
    assert _stream(tokenize, source) == _stream(_oracle_tokenize, source)


@pytest.mark.parametrize("text", [
    "a /* never closed",
    "x = \"open string",
    "c = 'x",
    "int a;\n\n  b @ c",
    "a\n#define X 1",
    "p->q ... r <<= 2 >>>= s",
    "x = .5f + 1.e3 + 0x1Fu + 07lu + 3.",
    "a\r\n\tb \\ c",
    "n = ٣١ + 2",   # Unicode decimal digits: ``\\d`` matches them
    "été = 1",
    "",
])
def test_edge_cases_match_the_oracle(text):
    assert _stream(tokenize, text) == _stream(_oracle_tokenize, text)


@given(st.lists(st.sampled_from(
    list("abx_019.eEfFuUlL\"'\\/*\n\t @#$`٣") + OPERATORS),
    max_size=40).map("".join))
@settings(max_examples=300, deadline=None)
def test_fuzzed_text_matches_the_oracle(text):
    assert _stream(tokenize, text) == _stream(_oracle_tokenize, text)
