"""A miniature C preprocessor.

Supports what Rodinia-style CUDA sources actually use: object-like and
function-like ``#define``, ``#undef``, ``#ifdef``/``#ifndef``/``#else``/
``#endif``, line continuations, and ``#include`` (ignored — the runtime
provides the CUDA builtins natively). This mirrors the paper's observation
(§VII-D1) that preprocessor behaviour is a real part of the CUDA-vs-HIP
translation story.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from typing import Dict, List, Optional

logger = logging.getLogger(__name__)

_ID = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class PreprocessorError(ValueError):
    pass


@dataclass
class Macro:
    name: str
    body: str
    params: Optional[List[str]] = None  # None => object-like

    @property
    def is_function_like(self) -> bool:
        return self.params is not None


def _split_args(text: str, start: int):
    """Parse a macro argument list starting at ``text[start] == '('``.

    Returns (args, position after the closing paren).
    """
    assert text[start] == "("
    depth = 0
    args: List[str] = []
    current = []
    i = start
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
            if depth > 1:
                current.append(ch)
        elif ch == ")":
            depth -= 1
            if depth == 0:
                args.append("".join(current).strip())
                return args, i + 1
            current.append(ch)
        elif ch == "," and depth == 1:
            args.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
        i += 1
    raise PreprocessorError("unterminated macro argument list")


def _expand(text: str, macros: Dict[str, Macro], depth: int = 0) -> str:
    if depth > 32:
        raise PreprocessorError("macro expansion too deep")
    out = []
    i = 0
    n = len(text)
    while i < n:
        match = _ID.match(text, i)
        if not match:
            # skip string literals wholesale
            if text[i] == '"':
                end = i + 1
                while end < n and text[end] != '"':
                    end += 2 if text[end] == "\\" else 1
                out.append(text[i:end + 1])
                i = end + 1
                continue
            out.append(text[i])
            i += 1
            continue
        name = match.group()
        i = match.end()
        macro = macros.get(name)
        if macro is None:
            out.append(name)
            continue
        if macro.is_function_like:
            j = i
            while j < n and text[j] in " \t":
                j += 1
            if j >= n or text[j] != "(":
                out.append(name)
                continue
            args, i = _split_args(text, j)
            if len(args) == 1 and args[0] == "" and not macro.params:
                args = []
            if len(args) != len(macro.params):
                raise PreprocessorError(
                    "macro %s expects %d args, got %d" %
                    (name, len(macro.params), len(args)))
            body = macro.body
            expanded_args = [_expand(a, macros, depth + 1) for a in args]
            substituted = []
            k = 0
            while k < len(body):
                m2 = _ID.match(body, k)
                if m2:
                    word = m2.group()
                    if word in macro.params:
                        substituted.append(
                            "(%s)" % expanded_args[macro.params.index(word)])
                    else:
                        substituted.append(word)
                    k = m2.end()
                else:
                    substituted.append(body[k])
                    k += 1
            out.append(_expand("".join(substituted),
                               _without(macros, name), depth + 1))
        else:
            out.append(_expand(macro.body, _without(macros, name),
                               depth + 1))
    return "".join(out)


def _without(macros: Dict[str, Macro], name: str) -> Dict[str, Macro]:
    reduced = dict(macros)
    reduced.pop(name, None)
    return reduced


def preprocess(source: str,
               defines: Optional[Dict[str, object]] = None) -> str:
    """Expand preprocessor directives; returns plain C text.

    ``defines`` adds predefined object-like macros (like ``-D`` flags).
    """
    macros: Dict[str, Macro] = {}
    for key, value in (defines or {}).items():
        macros[key] = Macro(key, str(value))

    # splice line continuations
    source = source.replace("\\\n", " ")
    output: List[str] = []
    #: stack of booleans: is the current #if region active?
    active_stack: List[bool] = []

    def active() -> bool:
        return all(active_stack)

    for raw_line in source.split("\n"):
        stripped = raw_line.strip()
        if stripped.startswith("#"):
            directive = stripped[1:].strip()
            if directive.startswith("include"):
                pass  # headers are provided natively
            elif directive.startswith("pragma"):
                pass
            elif directive.startswith("ifdef"):
                name = directive[len("ifdef"):].strip()
                active_stack.append(name in macros)
            elif directive.startswith("ifndef"):
                name = directive[len("ifndef"):].strip()
                active_stack.append(name not in macros)
            elif directive.startswith("if "):
                condition = directive[3:].strip()
                expanded = _expand(condition, macros)
                expanded = re.sub(
                    r"defined\s*\(\s*(\w+)\s*\)",
                    lambda m: "1" if m.group(1) in macros else "0", expanded)
                try:
                    value = bool(eval(expanded, {"__builtins__": {}}, {}))
                except (SyntaxError, NameError, TypeError, ValueError,
                        ZeroDivisionError, AttributeError) as error:
                    # C conditions that are not valid Python (unexpanded
                    # identifiers, suffixed literals, …) count as false,
                    # like an undefined macro in a real preprocessor —
                    # but anything else (KeyboardInterrupt, RecursionError,
                    # MemoryError) must propagate rather than silently
                    # disable a source region
                    logger.debug("skipping #if %r: condition did not "
                                 "evaluate (%s)", condition, error)
                    value = False
                active_stack.append(value)
            elif directive.startswith("else"):
                if not active_stack:
                    raise PreprocessorError("#else without #if")
                active_stack[-1] = not active_stack[-1]
            elif directive.startswith("endif"):
                if not active_stack:
                    raise PreprocessorError("#endif without #if")
                active_stack.pop()
            elif directive.startswith("undef"):
                if active():
                    macros.pop(directive[len("undef"):].strip(), None)
            elif directive.startswith("define"):
                if active():
                    rest = directive[len("define"):].strip()
                    match = _ID.match(rest)
                    if not match:
                        raise PreprocessorError(
                            "malformed #define: %r" % stripped)
                    name = match.group()
                    after = rest[match.end():]
                    if after.startswith("("):
                        params_text, end = _split_args(after, 0)
                        params = [p for p in params_text if p]
                        body = after[end:].strip()
                        macros[name] = Macro(name, body, params)
                    else:
                        macros[name] = Macro(name, after.strip())
            else:
                raise PreprocessorError("unsupported directive: %r" %
                                        stripped)
            output.append("")  # keep line numbers stable
            continue
        output.append(_expand(raw_line, macros) if active() else "")
    return "\n".join(output)
