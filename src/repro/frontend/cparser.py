"""Recursive-descent parser for the CUDA C subset."""

from __future__ import annotations

import functools
from typing import List, Optional, Tuple

from . import c_ast as ast
from .lexer import Token, tokenize
from .preprocessor import preprocess

#: binary operator precedence (higher binds tighter)
_BINARY_PRECEDENCE = {
    "||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
               "<<=", ">>="}

_TYPE_KEYWORDS = {"void", "int", "unsigned", "signed", "long", "short",
                  "char", "float", "double", "bool", "size_t", "dim3"}
_QUALIFIER_KEYWORDS = {"const", "static", "extern", "volatile", "restrict",
                       "inline", "__restrict__", "__forceinline__",
                       "__host__"}
_CUDA_SPACE_KEYWORDS = {"__global__", "__device__", "__shared__",
                        "__constant__"}


class CParseError(ValueError):
    def __init__(self, message: str, token: Token):
        super().__init__("%s at line %d (near %r)" %
                         (message, token.line, token.text))


class Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token helpers ------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self) -> Token:
        token = self.peek()
        if token.kind != "eof":
            self.pos += 1
        return token

    def check(self, text: str) -> bool:
        return self.peek().text == text and self.peek().kind != "string"

    def accept(self, text: str) -> bool:
        if self.check(text):
            self.advance()
            return True
        return False

    def expect(self, text: str) -> Token:
        if not self.check(text):
            raise CParseError("expected %r" % text, self.peek())
        return self.advance()

    def at_type(self, offset: int = 0) -> bool:
        token = self.peek(offset)
        return token.kind == "keyword" and (
            token.text in _TYPE_KEYWORDS or
            token.text in _QUALIFIER_KEYWORDS or
            token.text in _CUDA_SPACE_KEYWORDS)

    # -- types -----------------------------------------------------------------

    def parse_qualifiers(self) -> List[str]:
        quals = []
        while True:
            text = self.peek().text
            if text in _QUALIFIER_KEYWORDS or text in _CUDA_SPACE_KEYWORDS:
                quals.append(text)
                self.advance()
            else:
                return quals

    def parse_base_type(self) -> ast.CType:
        const = False
        words = []
        while True:
            text = self.peek().text
            if text == "const":
                const = True
                self.advance()
            elif text in _QUALIFIER_KEYWORDS:
                self.advance()
            elif text in _TYPE_KEYWORDS:
                words.append(text)
                self.advance()
            else:
                break
        if not words:
            raise CParseError("expected a type", self.peek())
        base = _normalize_base(words)
        return ast.CType(base, const=const)

    def parse_pointers(self, base: ast.CType) -> ast.CType:
        pointer = 0
        while self.check("*"):
            self.advance()
            # const / __restrict__ after the star
            while self.peek().text in _QUALIFIER_KEYWORDS | {"const"}:
                self.advance()
            pointer += 1
        if pointer:
            return ast.CType(base.base, base.pointer + pointer, (),
                             base.const)
        return base

    # -- top level ----------------------------------------------------------------

    def parse_translation_unit(self) -> ast.TranslationUnit:
        unit = ast.TranslationUnit()
        while self.peek().kind != "eof":
            if self.accept(";"):
                continue
            quals = self.parse_qualifiers()
            base = self.parse_base_type()
            declarator_type = self.parse_pointers(base)
            name_token = self.peek()
            if name_token.kind not in ("id", "keyword"):
                raise CParseError("expected a declarator", name_token)
            name = self.advance().text
            if self.check("("):
                function = self.parse_function_rest(
                    name, declarator_type, tuple(quals))
                if function is not None:
                    unit.functions[name] = function
            else:
                decls = self.parse_global_decl_rest(name, declarator_type)
                device = any(q in ("__device__", "__constant__")
                             for q in quals)
                for decl in decls:
                    decl.constant = "__constant__" in quals
                    unit.globals.append(ast.GlobalDecl(decl, device))
        return unit

    def parse_function_rest(self, name: str, return_type: ast.CType,
                            qualifiers: Tuple[str, ...]
                            ) -> Optional[ast.FunctionDef]:
        self.expect("(")
        params: List[Tuple[str, ast.CType]] = []
        if not self.check(")"):
            while True:
                if self.accept("void") and self.check(")"):
                    break
                self.parse_qualifiers()
                base = self.parse_base_type()
                ptype = self.parse_pointers(base)
                pname = ""
                if self.peek().kind == "id":
                    pname = self.advance().text
                dims = []
                while self.accept("["):
                    if not self.check("]"):
                        dims.append(self.parse_expression())
                    self.expect("]")
                if dims:
                    # array parameters decay to pointers
                    ptype = ast.CType(ptype.base, ptype.pointer + 1, (),
                                      ptype.const)
                params.append((pname, ptype))
                if not self.accept(","):
                    break
        self.expect(")")
        if self.accept(";"):
            return None  # forward declaration
        body = self.parse_block()
        return ast.FunctionDef(name, return_type, params, body, qualifiers)

    def parse_global_decl_rest(self, first_name: str,
                               first_type: ast.CType) -> List[ast.VarDecl]:
        decls = [self.parse_declarator_rest(first_name, first_type)]
        while self.accept(","):
            type_ = self.parse_pointers(
                ast.CType(first_type.base, 0, (), first_type.const))
            name = self.advance().text
            decls.append(self.parse_declarator_rest(name, type_))
        self.expect(";")
        return decls

    def parse_declarator_rest(self, name: str,
                              type_: ast.CType) -> ast.VarDecl:
        if type_.base == "dim3" and self.check("("):
            # constructor syntax: dim3 g(x, y);
            self.advance()
            args: List[ast.Expr] = []
            if not self.check(")"):
                args.append(self.parse_assignment())
                while self.accept(","):
                    args.append(self.parse_assignment())
            self.expect(")")
            return ast.VarDecl(name, type_, ast.Call("dim3", args))
        dims = []
        while self.accept("["):
            dims.append(self.parse_conditional())
            self.expect("]")
        if dims:
            type_ = ast.CType(type_.base, type_.pointer, tuple(dims),
                              type_.const)
        init = None
        if self.accept("="):
            init = self.parse_assignment()
        return ast.VarDecl(name, type_, init)

    # -- statements ------------------------------------------------------------------

    def parse_block(self) -> ast.Block:
        self.expect("{")
        stmts: List[ast.Stmt] = []
        while not self.check("}"):
            stmts.append(self.parse_statement())
        self.expect("}")
        return ast.Block(stmts)

    def parse_statement(self) -> ast.Stmt:
        token = self.peek()
        if token.text == "{":
            return self.parse_block()
        if token.text == "if":
            return self.parse_if()
        if token.text == "for":
            return self.parse_for()
        if token.text == "while":
            return self.parse_while()
        if token.text == "do":
            return self.parse_do_while()
        if token.text == "return":
            self.advance()
            value = None if self.check(";") else self.parse_expression()
            self.expect(";")
            return ast.Return(value)
        if token.text == "break":
            self.advance()
            self.expect(";")
            return ast.Break()
        if token.text == "continue":
            self.advance()
            self.expect(";")
            return ast.Continue()
        if token.text == ";":
            self.advance()
            return ast.Block([])
        if self.at_type():
            return self.parse_declaration()
        # kernel launch?
        if token.kind == "id" and self.peek(1).text == "<<<":
            return self.parse_launch()
        expr = self.parse_expression()
        self.expect(";")
        return ast.ExprStmt(expr)

    def parse_declaration(self) -> ast.DeclStmt:
        quals = self.parse_qualifiers()
        base = self.parse_base_type()
        shared = "__shared__" in quals
        decls: List[ast.VarDecl] = []
        while True:
            type_ = self.parse_pointers(base)
            name_token = self.peek()
            if name_token.kind != "id":
                raise CParseError("expected a variable name", name_token)
            name = self.advance().text
            decl = self.parse_declarator_rest(name, type_)
            decl.shared = shared
            decls.append(decl)
            if not self.accept(","):
                break
        self.expect(";")
        return ast.DeclStmt(decls)

    def parse_if(self) -> ast.If:
        self.expect("if")
        self.expect("(")
        cond = self.parse_expression()
        self.expect(")")
        then_body = self._statement_as_block()
        else_body = None
        if self.accept("else"):
            else_body = self._statement_as_block()
        return ast.If(cond, then_body, else_body)

    def _statement_as_block(self) -> ast.Block:
        stmt = self.parse_statement()
        return stmt if isinstance(stmt, ast.Block) else ast.Block([stmt])

    def parse_for(self) -> ast.For:
        self.expect("for")
        self.expect("(")
        init: Optional[ast.Stmt] = None
        if not self.check(";"):
            if self.at_type():
                init = self.parse_declaration()  # consumes ';'
            else:
                init = ast.ExprStmt(self.parse_expression())
                self.expect(";")
        else:
            self.expect(";")
        cond = None if self.check(";") else self.parse_expression()
        self.expect(";")
        inc = None if self.check(")") else self.parse_expression()
        self.expect(")")
        return ast.For(init, cond, inc, self._statement_as_block())

    def parse_while(self) -> ast.While:
        self.expect("while")
        self.expect("(")
        cond = self.parse_expression()
        self.expect(")")
        return ast.While(cond, self._statement_as_block())

    def parse_do_while(self) -> ast.DoWhile:
        self.expect("do")
        body = self._statement_as_block()
        self.expect("while")
        self.expect("(")
        cond = self.parse_expression()
        self.expect(")")
        self.expect(";")
        return ast.DoWhile(body, cond)

    def parse_launch(self) -> ast.KernelLaunch:
        name = self.advance().text
        self.expect("<<<")
        grid = self.parse_assignment()
        self.expect(",")
        block = self.parse_assignment()
        shmem = None
        if self.accept(","):
            shmem = self.parse_assignment()
            if self.accept(","):
                self.parse_assignment()  # stream argument, ignored
        self.expect(">>>")
        self.expect("(")
        args: List[ast.Expr] = []
        if not self.check(")"):
            args.append(self.parse_assignment())
            while self.accept(","):
                args.append(self.parse_assignment())
        self.expect(")")
        self.expect(";")
        return ast.KernelLaunch(name, grid, block, args, shmem)

    # -- expressions -------------------------------------------------------------------

    def parse_expression(self) -> ast.Expr:
        expr = self.parse_assignment()
        if self.check(","):
            exprs = [expr]
            while self.accept(","):
                exprs.append(self.parse_assignment())
            return ast.Comma(exprs)
        return expr

    def parse_assignment(self) -> ast.Expr:
        lhs = self.parse_conditional()
        token = self.peek()
        if token.kind == "op" and token.text in _ASSIGN_OPS:
            self.advance()
            rhs = self.parse_assignment()
            return ast.Assign(token.text, lhs, rhs)
        return lhs

    def parse_conditional(self) -> ast.Expr:
        cond = self.parse_binary(1)
        if self.accept("?"):
            true_value = self.parse_assignment()
            self.expect(":")
            false_value = self.parse_conditional()
            return ast.Ternary(cond, true_value, false_value)
        return cond

    def parse_binary(self, min_precedence: int) -> ast.Expr:
        lhs = self.parse_unary()
        while True:
            token = self.peek()
            precedence = _BINARY_PRECEDENCE.get(token.text, 0) \
                if token.kind == "op" else 0
            if precedence < min_precedence:
                return lhs
            self.advance()
            rhs = self.parse_binary(precedence + 1)
            lhs = ast.BinOp(token.text, lhs, rhs)

    def parse_unary(self) -> ast.Expr:
        token = self.peek()
        if token.kind == "op":
            if token.text in ("-", "+", "!", "~"):
                self.advance()
                return ast.UnOp(token.text, self.parse_unary())
            if token.text in ("++", "--"):
                self.advance()
                return ast.UnOp(token.text, self.parse_unary())
            if token.text == "*":
                self.advance()
                return ast.Deref(self.parse_unary())
            if token.text == "&":
                self.advance()
                return ast.AddressOf(self.parse_unary())
            if token.text == "(" and self.at_type(1):
                self.advance()
                base = self.parse_base_type()
                type_ = self.parse_pointers(base)
                self.expect(")")
                return ast.Cast(type_, self.parse_unary())
        if token.text == "sizeof":
            self.advance()
            self.expect("(")
            if self.at_type():
                base = self.parse_base_type()
                type_ = self.parse_pointers(base)
                size = _sizeof(type_)
            else:
                self.parse_expression()
                size = 4
            self.expect(")")
            return ast.IntLit(size)
        return self.parse_postfix()

    def parse_postfix(self) -> ast.Expr:
        expr = self.parse_primary()
        while True:
            token = self.peek()
            if token.text == "[":
                self.advance()
                index = self.parse_expression()
                self.expect("]")
                expr = ast.Index(expr, index)
            elif token.text == "." or token.text == "->":
                self.advance()
                member = self.advance().text
                expr = ast.Member(expr, member)
            elif token.text in ("++", "--"):
                self.advance()
                expr = ast.UnOp(token.text, expr, postfix=True)
            else:
                return expr

    def parse_primary(self) -> ast.Expr:
        token = self.peek()
        if token.kind == "int" or token.kind == "char":
            self.advance()
            return ast.IntLit(int(token.value))
        if token.kind == "float":
            self.advance()
            return ast.FloatLit(float(token.value), token.is_f32)
        if token.text == "true":
            self.advance()
            return ast.IntLit(1)
        if token.text == "false":
            self.advance()
            return ast.IntLit(0)
        if token.text == "(":
            self.advance()
            expr = self.parse_expression()
            self.expect(")")
            return expr
        if token.kind == "id" or token.text == "dim3":
            name = self.advance().text
            if self.check("("):
                self.advance()
                args: List[ast.Expr] = []
                if not self.check(")"):
                    args.append(self.parse_assignment())
                    while self.accept(","):
                        args.append(self.parse_assignment())
                self.expect(")")
                return ast.Call(name, args)
            return ast.Ident(name)
        if token.kind == "string":
            self.advance()
            return ast.IntLit(0)  # strings only appear in ignored printf()s
        raise CParseError("unexpected token in expression", token)


def _normalize_base(words: List[str]) -> str:
    if "double" in words:
        return "double"
    if "float" in words:
        return "float"
    if "bool" in words:
        return "bool"
    if "void" in words:
        return "void"
    if "dim3" in words:
        return "dim3"
    if "char" in words:
        return "char"
    if "size_t" in words or "long" in words:
        return "long"
    if "unsigned" in words:
        return "uint"
    return "int"


def _sizeof(type_: ast.CType) -> int:
    if type_.is_pointer:
        return 8
    return {"float": 4, "double": 8, "int": 4, "uint": 4, "long": 8,
            "bool": 1, "char": 1}.get(type_.base, 4)


#: how many parsed units :func:`parse_translation_unit` keeps per process
#: (the benchsuite and HeCBench sources fit with room to spare)
_PARSE_MEMO_SIZE = 64


def parse_translation_unit(source: str, defines=None) -> ast.TranslationUnit:
    """Preprocess, tokenize, and parse a CUDA source file.

    Each ``(source, defines)`` is parsed once per process: a later call
    returns the same :class:`~.c_ast.TranslationUnit` object, so nothing
    may mutate a unit it gets. The memo is a thread-safe LRU of
    :data:`_PARSE_MEMO_SIZE` units, and holds no errors: a bad source
    raises on every call.
    """
    from ..obs import tracer as obs_tracer
    # the preprocessor sees each define only as ``str(value)``
    macros = tuple(sorted((name, str(value))
                          for name, value in (defines or {}).items()))
    with obs_tracer.span("frontend.parse", category="frontend",
                         bytes=len(source)):
        return _parse(source, macros)


@functools.lru_cache(maxsize=_PARSE_MEMO_SIZE)
def _parse(source: str, macros: Tuple[Tuple[str, str], ...]
           ) -> ast.TranslationUnit:
    from ..obs import tracer as obs_tracer
    with obs_tracer.span("frontend.preprocess", category="frontend"):
        text = preprocess(source, dict(macros))
    with obs_tracer.span("frontend.tokenize", category="frontend"):
        tokens = tokenize(text)
    with obs_tracer.span("frontend.ast", category="frontend"):
        return Parser(tokens).parse_translation_unit()
