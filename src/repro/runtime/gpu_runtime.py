"""The simulated GPU runtime: transfers, launches, and composite timing.

The paper's *composite* measurements (§VII-A) cover "the entire
computational part of an application including potentially multiple kernel
launches plus the logic between them and host-device communication". The
runtime accumulates exactly that: modeled kernel seconds (via a
:class:`TimingTracer` hooked into the interpreter) plus PCIe transfer
seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..interpreter import Tracer
from ..simulator.metrics import KernelMetrics
from ..simulator.model import KernelModel
from ..targets import GPUArchitecture
from .device import DeviceBuffer

#: PCIe gen4 x16-ish host/device link
PCIE_BANDWIDTH = 12e9
PCIE_LATENCY = 10e-6


@dataclass
class LaunchRecord:
    """One modeled block-loop execution."""

    kernel_name: str
    num_blocks: int
    threads_per_block: int
    time_seconds: float
    metrics: KernelMetrics


class TimingTracer(Tracer):
    """Charges simulated kernel time as the interpreter executes."""

    def __init__(self, arch: GPUArchitecture):
        self.arch = arch
        self.kernel_seconds = 0.0
        self.records: List[LaunchRecord] = []
        self._models: Dict[int, KernelModel] = {}
        self.enabled = True

    def on_kernel_block_loop(self, op, num_blocks: int) -> None:
        if not self.enabled or num_blocks <= 0:
            return
        # keyed by stable_uid, not id(): id() values can be reused after
        # GC, which would silently return a stale model for a new loop
        key = op.stable_uid()
        model = self._models.get(key)
        if model is None:
            model = KernelModel(op, self.arch)
            self._models[key] = model
        timing = model.time_launch(num_blocks)
        self.kernel_seconds += timing.time_seconds
        wrapper = op.parent_op
        name = ""
        if wrapper is not None:
            name = wrapper.attr("kernel_name", "") or ""
        self.records.append(LaunchRecord(
            name, num_blocks, model.threads_per_block,
            timing.time_seconds, timing.metrics))


class GPURuntime:
    """Tracks device allocations, transfers, and composite simulated time."""

    def __init__(self, arch: GPUArchitecture):
        self.arch = arch
        self.tracer = TimingTracer(arch)
        self.transfer_seconds = 0.0
        self.allocated_bytes = 0

    # -- memory management --------------------------------------------------

    def malloc(self, shape, dtype=np.float32, name: str = "") -> DeviceBuffer:
        if isinstance(shape, int):
            shape = (shape,)
        buffer = DeviceBuffer(shape, dtype, name)
        self.allocated_bytes += buffer.nbytes
        return buffer

    def to_device(self, data: np.ndarray, name: str = "") -> DeviceBuffer:
        """cudaMemcpy host→device (allocates)."""
        data = np.asarray(data)
        buffer = self.malloc(data.shape, data.dtype, name)
        buffer.write(data)
        self._charge_transfer(buffer.nbytes)
        return buffer

    def write(self, buffer: DeviceBuffer, data: np.ndarray) -> None:
        """cudaMemcpy host→device into an existing buffer."""
        buffer.write(data)
        self._charge_transfer(buffer.nbytes)

    def to_host(self, buffer: DeviceBuffer) -> np.ndarray:
        """cudaMemcpy device→host."""
        self._charge_transfer(buffer.nbytes)
        return buffer.read()

    def memset(self, buffer: DeviceBuffer, value=0) -> None:
        buffer.fill(value)

    def _charge_transfer(self, nbytes: int) -> None:
        self.transfer_seconds += PCIE_LATENCY + nbytes / PCIE_BANDWIDTH

    # -- timing ---------------------------------------------------------------

    @property
    def kernel_seconds(self) -> float:
        return self.tracer.kernel_seconds

    @property
    def composite_seconds(self) -> float:
        """Kernel time + host/device communication (§VII-A composite)."""
        return self.tracer.kernel_seconds + self.transfer_seconds

    @property
    def launches(self) -> List[LaunchRecord]:
        return self.tracer.records

    def reset(self) -> None:
        self.tracer.kernel_seconds = 0.0
        self.tracer.records.clear()
        self.transfer_seconds = 0.0
