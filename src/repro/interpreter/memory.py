"""Memory buffers and access tracing for the interpreter."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..ir import FloatType, IndexType, IntegerType, MemRefType, Type


def dtype_for(type_: Type):
    """The numpy dtype used to store a scalar IR type."""
    if isinstance(type_, FloatType):
        return np.float32 if type_.width == 32 else np.float64
    if isinstance(type_, IndexType):
        return np.int64
    if isinstance(type_, IntegerType):
        if type_.width == 1:
            return np.bool_
        return {8: np.int8, 16: np.int16, 32: np.int32,
                64: np.int64}[type_.width]
    raise TypeError("no dtype for %s" % type_)


class MemoryBuffer:
    """A shaped buffer with row-major layout and bounds checking.

    ``space`` is the GPU address space ("global", "shared", or "local"); the
    tracer uses it to route accesses to the right part of the memory model.
    """

    _next_id = 0

    def __init__(self, shape: Sequence[int], element: Type,
                 space: str = "global",
                 data: Optional[np.ndarray] = None, name: str = ""):
        self.shape = tuple(int(d) for d in shape)
        self.element = element
        self.space = space
        self.name = name
        self.buffer_id = MemoryBuffer._next_id
        MemoryBuffer._next_id += 1
        dtype = dtype_for(element)
        if data is None:
            self.array = np.zeros(self.shape, dtype=dtype)
        else:
            data = np.asarray(data, dtype=dtype)
            if data.shape != self.shape:
                data = data.reshape(self.shape)
            # defensive copy, row-major whatever the layout of ``data``
            self.array = np.array(data, order="C")
        #: a 1-D view of ``array`` indexed by linear element index: it
        #: reads and writes the same memory, and is the interpreter's fast
        #: path. Update ``array`` in place, never rebind it
        self.flat_view = self.array.reshape(-1)
        # row-major strides in elements
        self.strides = []
        stride = 1
        for extent in reversed(self.shape):
            self.strides.append(stride)
            stride *= extent
        self.strides.reverse()
        self.num_elements = int(stride)

    @classmethod
    def for_type(cls, type_: MemRefType,
                 dynamic_sizes: Sequence[int] = (), name: str = ""
                 ) -> "MemoryBuffer":
        shape = []
        dyn = list(dynamic_sizes)
        for extent in type_.shape:
            shape.append(dyn.pop(0) if extent < 0 else extent)
        return cls(shape, type_.element, type_.memory_space, name=name)

    def linear_index(self, indices: Sequence[int]) -> int:
        if len(indices) != len(self.shape):
            raise IndexError("rank mismatch accessing %s" % self)
        linear = 0
        for i, (index, extent, stride) in enumerate(
                zip(indices, self.shape, self.strides)):
            if not 0 <= index < extent:
                raise IndexError(
                    "out-of-bounds access to %s: index %d = %d not in "
                    "[0, %d)" % (self, i, index, extent))
            linear += int(index) * stride
        return linear

    def load(self, indices: Sequence[int]):
        return self.array.flat[self.linear_index(indices)]

    def store(self, indices: Sequence[int], value) -> None:
        self.array.flat[self.linear_index(indices)] = value

    @property
    def element_bytes(self) -> int:
        return self.array.dtype.itemsize

    def __repr__(self) -> str:
        label = self.name or ("buf%d" % self.buffer_id)
        return "<MemoryBuffer %s %sx%s, %s>" % (
            label, "x".join(map(str, self.shape)), self.element, self.space)


class Tracer:
    """Observer interface for memory traffic and synchronization.

    The default implementation does nothing; the simulator subclasses it.
    ``thread`` is the linear thread id within the block; ``block`` the linear
    block id — or None outside of GPU parallel loops.
    """

    def on_load(self, buffer: MemoryBuffer, linear: int, nbytes: int,
                block: Optional[int], thread: Optional[int],
                op=None) -> None:
        pass

    def on_store(self, buffer: MemoryBuffer, linear: int, nbytes: int,
                 block: Optional[int], thread: Optional[int],
                 op=None) -> None:
        pass

    def on_barrier(self, block: Optional[int]) -> None:
        pass

    def on_kernel_block_loop(self, op, num_blocks: int) -> None:
        """Called once per executed GPU block-level parallel loop, with the
        actual number of blocks. The runtime's timing tracer hooks this to
        charge simulated kernel time."""
        pass

    def on_op(self, op_name: str, block: Optional[int],
              thread: Optional[int]) -> None:
        pass
