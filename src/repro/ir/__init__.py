"""Mini-MLIR IR infrastructure used throughout the reproduction."""

from .builder import Builder
from .core import (Block, BlockArgument, Operation, OpResult, Region, Use,
                   Value, collector_paused, single_block_region,
                   swap_regions, unlink_subtree)
from .module import Module
from .parser import ParseError, parse_module, parse_op, parse_type
from .printer import format_attr, print_module, print_op
from .types import (DYNAMIC, F32, F64, I1, I8, I16, I32, I64, INDEX,
                    FloatType, FunctionType, IndexType, IntegerType,
                    MemRefType, Type, byte_width, is_scalar)
from .verifier import (VerificationError, register_op_verifier, verify_module,
                       verify_op)

__all__ = [
    "Block", "BlockArgument", "Builder", "DYNAMIC", "F32", "F64",
    "FloatType", "FunctionType", "I1", "I16", "I32", "I64", "I8", "INDEX",
    "IndexType", "IntegerType", "MemRefType", "Module", "Operation",
    "OpResult", "ParseError", "Region", "Type",
    "Use", "Value", "VerificationError", "byte_width", "collector_paused",
    "format_attr",
    "is_scalar", "parse_module", "parse_op", "parse_type", "print_module",
    "print_op", "register_op_verifier", "single_block_region",
    "swap_regions", "unlink_subtree", "verify_module", "verify_op",
]
