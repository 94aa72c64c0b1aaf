"""AST node definitions for the CUDA C subset."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

# -- types ---------------------------------------------------------------------

#: base type names after normalization
BASES = ("void", "int", "uint", "long", "float", "double", "bool", "dim3",
         "char")


@dataclass(frozen=True)
class CType:
    """A C type: a base scalar, pointer depth, and array dimensions."""

    base: str
    pointer: int = 0
    #: array dimensions as unevaluated constant expressions
    array_dims: Tuple[object, ...] = ()
    const: bool = False

    @property
    def is_pointer(self) -> bool:
        return self.pointer > 0

    @property
    def is_array(self) -> bool:
        return bool(self.array_dims)

    @property
    def is_float(self) -> bool:
        return self.base in ("float", "double") and self.pointer == 0 \
            and not self.array_dims

    @property
    def is_integer(self) -> bool:
        return self.base in ("int", "uint", "long", "bool", "char") \
            and self.pointer == 0 and not self.array_dims

    def element_type(self) -> "CType":
        """The scalar type referenced by a pointer or stored in an array."""
        return CType(self.base, 0, (), self.const)

    def __str__(self) -> str:
        text = self.base + "*" * self.pointer
        for dim in self.array_dims:
            text += "[%s]" % (dim,)
        return text


VOID = CType("void")
INT = CType("int")
FLOAT = CType("float")
DOUBLE = CType("double")
BOOL = CType("bool")


# -- expressions ---------------------------------------------------------------


@dataclass
class Expr:
    pass


@dataclass
class IntLit(Expr):
    value: int


@dataclass
class FloatLit(Expr):
    value: float
    is_f32: bool = False


@dataclass
class Ident(Expr):
    name: str


@dataclass
class BinOp(Expr):
    op: str
    lhs: Expr
    rhs: Expr


@dataclass
class UnOp(Expr):
    op: str            # "-", "!", "~", "++", "--", "+"
    operand: Expr
    postfix: bool = False


@dataclass
class Assign(Expr):
    op: str            # "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="
    target: Expr
    value: Expr


@dataclass
class Ternary(Expr):
    cond: Expr
    true_value: Expr
    false_value: Expr


@dataclass
class Call(Expr):
    name: str
    args: List[Expr]


@dataclass
class Index(Expr):
    base: Expr
    index: Expr


@dataclass
class Member(Expr):
    base: Expr
    name: str


@dataclass
class Cast(Expr):
    type: CType
    expr: Expr


@dataclass
class AddressOf(Expr):
    expr: Expr


@dataclass
class Deref(Expr):
    expr: Expr


@dataclass
class Comma(Expr):
    exprs: List[Expr]


# -- statements ------------------------------------------------------------------


@dataclass
class Stmt:
    pass


@dataclass
class VarDecl:
    name: str
    type: CType
    init: Optional[Expr] = None
    shared: bool = False
    constant: bool = False


@dataclass
class DeclStmt(Stmt):
    decls: List[VarDecl]


@dataclass
class ExprStmt(Stmt):
    expr: Expr


@dataclass
class If(Stmt):
    cond: Expr
    then_body: "Block"
    else_body: Optional["Block"] = None


@dataclass
class For(Stmt):
    init: Optional[Stmt]
    cond: Optional[Expr]
    inc: Optional[Expr]
    body: "Block"


@dataclass
class While(Stmt):
    cond: Expr
    body: "Block"


@dataclass
class DoWhile(Stmt):
    body: "Block"
    cond: Expr


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


@dataclass
class Block(Stmt):
    stmts: List[Stmt] = field(default_factory=list)


@dataclass
class KernelLaunch(Stmt):
    """``name<<<grid, block[, shmem]>>>(args);``"""
    name: str
    grid: Expr
    block: Expr
    args: List[Expr]
    shmem: Optional[Expr] = None


# -- top level -------------------------------------------------------------------


@dataclass
class FunctionDef:
    name: str
    return_type: CType
    params: List[Tuple[str, CType]]
    body: Block
    qualifiers: Tuple[str, ...] = ()

    @property
    def is_kernel(self) -> bool:
        return "__global__" in self.qualifiers

    @property
    def is_device(self) -> bool:
        return "__device__" in self.qualifiers


@dataclass
class GlobalDecl:
    decl: VarDecl
    device: bool = False


@dataclass
class TranslationUnit:
    functions: Dict[str, FunctionDef] = field(default_factory=dict)
    globals: List[GlobalDecl] = field(default_factory=list)

    def kernels(self) -> List[FunctionDef]:
        return [f for f in self.functions.values() if f.is_kernel]
