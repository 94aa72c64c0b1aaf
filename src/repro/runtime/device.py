"""Device-side buffers (the cudaMalloc/cudaMemcpy surface)."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..interpreter import MemoryBuffer
from ..ir import F32, F64, INDEX, Type

_DTYPE_TO_TYPE = {
    np.dtype(np.float32): F32,
    np.dtype(np.float64): F64,
    np.dtype(np.int64): INDEX,
    np.dtype(np.int32): INDEX,
}


def _ir_type_for_dtype(dtype) -> Type:
    dtype = np.dtype(dtype)
    if dtype in _DTYPE_TO_TYPE:
        return _DTYPE_TO_TYPE[dtype]
    raise TypeError("unsupported device dtype %s" % dtype)


class DeviceBuffer:
    """A buffer resident on the simulated device.

    Wraps a :class:`~repro.interpreter.MemoryBuffer`; created through
    :class:`~repro.runtime.GPURuntime` so transfers are accounted.
    """

    def __init__(self, shape: Sequence[int], dtype=np.float32,
                 name: str = ""):
        element = _ir_type_for_dtype(dtype)
        # device data is flat from the kernel's point of view
        self.buffer = MemoryBuffer(shape, element, "global", name=name)
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)

    @property
    def nbytes(self) -> int:
        return self.buffer.array.nbytes

    def write(self, data: np.ndarray) -> None:
        data = np.asarray(data, dtype=self.dtype)
        self.buffer.array[...] = data.reshape(self.shape)

    def read(self) -> np.ndarray:
        return np.array(self.buffer.array)

    def fill(self, value) -> None:
        self.buffer.array[...] = value

    def __repr__(self) -> str:
        return "<DeviceBuffer %s %s>" % ("x".join(map(str, self.shape)),
                                         self.dtype)
