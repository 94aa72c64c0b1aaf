"""Register-usage estimation — the simulated ptxas feedback stage (§VI).

The paper compiles every alternative with the platform backend and reads
back register counts and spill reports; alternatives that start spilling are
discarded because GPU spills go to local memory that is "several orders of
magnitude slower than registers". Here the backend is a live-interval
analysis over the linearized thread body: the register count is the maximum
number of simultaneously-live 32-bit register units
(:attr:`~repro.targets.lowering.Linearized.max_live`) plus a fixed overhead.
It is deliberately simple but preserves the property the pipeline relies
on: coarsening multiplies live values, so the estimate grows with the
factor and eventually crosses the spill threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arch import GPUArchitecture
from .lowering import Linearized

#: registers every thread needs regardless of the kernel body
BASE_REGISTERS = 10


@dataclass
class RegisterEstimate:
    """Backend feedback for one kernel variant."""

    registers_per_thread: int
    spilled_registers: int
    max_live: int

    @property
    def spills(self) -> bool:
        return self.spilled_registers > 0


def estimate_registers(lin: Linearized,
                       arch: GPUArchitecture) -> RegisterEstimate:
    """Estimate registers/thread of a linearized thread loop on ``arch``."""
    max_live = lin.max_live
    registers = max_live + BASE_REGISTERS
    limit = arch.max_registers_per_thread
    spilled = max(0, registers - limit)
    return RegisterEstimate(registers_per_thread=min(registers, limit),
                            spilled_registers=spilled,
                            max_live=max_live)
