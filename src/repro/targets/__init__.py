"""Target GPU models and the simulated platform-specific backend.

Stands in for the CUDA/ROCm backends of the paper: architecture parameter
sets for the four evaluation GPUs (Table I), a register-usage estimator (the
ptxas-feedback stage of §VI), and an occupancy calculator (§II-A3).
"""

from .arch import (A100, A4000, ALL_ARCHS, GPUArchitecture, LANE_WARP_WIDTH,
                   MI210, RX6800, arch_by_name)
from .lowering import LinearInstr, linearize_thread_body, linearized_cache
from .occupancy import Occupancy, compute_occupancy
from .registers import RegisterEstimate, estimate_registers

__all__ = [
    "A100", "A4000", "ALL_ARCHS", "GPUArchitecture", "LANE_WARP_WIDTH",
    "LinearInstr", "MI210", "Occupancy", "RX6800", "RegisterEstimate",
    "arch_by_name", "compute_occupancy", "estimate_registers",
    "linearize_thread_body", "linearized_cache",
]
