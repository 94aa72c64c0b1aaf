"""GPU architecture models (Table I of the paper).

These are the parameter sets the simulator and occupancy calculator consume.
Values come from Table I where the paper lists them and from public vendor
documentation otherwise. The AMD models carry the paper's two documented
behavioural quirks: 64-wide wavefronts and LDS→global offloading for kernels
with extreme shared-memory-per-thread ratios (§VII-D2, the ``nw`` anomaly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Latency-hiding parallelism is measured in 32-thread warp EQUIVALENTS
#: everywhere (simulator model and coarsening heuristic alike): a 64-wide
#: AMD wavefront issues per-lane, so it hides as much latency as two
#: 32-thread warps. Normalize ``active_threads`` by THIS constant — never
#: by ``arch.warp_size`` — or wavefront-64 targets (MI210, RX6800) would
#: see half the parallelism they really have.
LANE_WARP_WIDTH = 32.0


@dataclass(frozen=True)
class GPUArchitecture:
    """Parameters of one GPU target."""

    name: str
    vendor: str                     # "nvidia" | "amd"
    compute_capability: str
    num_sms: int
    warp_size: int
    max_threads_per_sm: int
    max_threads_per_block: int
    max_blocks_per_sm: int
    registers_per_sm: int           # 32-bit registers
    max_registers_per_thread: int
    shared_mem_per_sm: int          # bytes
    shared_mem_per_block: int       # bytes
    fp32_tflops: float
    fp64_tflops: float
    memory_bandwidth_gbs: float
    global_memory_gb: float
    l2_bytes: int
    l1_bytes_per_sm: int
    clock_ghz: float
    #: bytes of global memory transferred per coalesced transaction
    transaction_bytes: int = 32
    #: shared memory banks (4-byte wide)
    shared_banks: int = 32
    #: AMD quirk: shared/thread ratio (bytes) above which the backend
    #: offloads LDS to global memory (None = never, §VII-D2)
    lds_offload_bytes_per_thread: Optional[int] = None
    #: relative slowdown of shared memory once offloaded to global
    lds_offload_penalty: float = 6.0

    @property
    def is_amd(self) -> bool:
        return self.vendor == "amd"

    @property
    def fp32_lanes_per_sm(self) -> float:
        """FP32 FMA lanes per SM derived from peak TFLOPs (2 flops/FMA)."""
        return self.fp32_tflops * 1e12 / (2.0 * self.clock_ghz * 1e9 *
                                          self.num_sms)

    @property
    def fp64_ratio(self) -> float:
        """FP64 throughput as a fraction of FP32."""
        return self.fp64_tflops / self.fp32_tflops

    def peak_bandwidth_bytes(self) -> float:
        return self.memory_bandwidth_gbs * 1e9

    def peak_flops(self, dtype: str = "f32") -> float:
        """Peak FLOP/s for ``dtype`` ("f32" or "f64")."""
        if dtype == "f64":
            return self.fp64_tflops * 1e12
        if dtype == "f32":
            return self.fp32_tflops * 1e12
        raise ValueError("dtype must be 'f32' or 'f64', not %r" % dtype)

    def ridge_intensity(self, dtype: str = "f32") -> float:
        """Roofline ridge point in FLOP/byte: the arithmetic intensity at
        which peak compute and peak DRAM bandwidth balance. Kernels below
        it are bandwidth-limited, above it compute-limited."""
        return self.peak_flops(dtype) / self.peak_bandwidth_bytes()

    def describe_row(self) -> Dict[str, object]:
        """One Table-I-style row."""
        return {
            "GPU": self.name,
            "Compute Capability": self.compute_capability,
            "SMs": self.num_sms,
            "FLOPs (f64)": "%.2fT" % self.fp64_tflops,
            "FLOPs (f32)": "%.2fT" % self.fp32_tflops,
            "Memory Bandwidth": "%d GB/s" % self.memory_bandwidth_gbs,
            "Global Memory": "%d GB" % self.global_memory_gb,
            "L2 Cache": "%d MB" % (self.l2_bytes // (1024 * 1024)),
            "L1 Cache (Per SM)": "%d KB" % (self.l1_bytes_per_sm // 1024),
        }


# -- Table I instances -----------------------------------------------------------

A4000 = GPUArchitecture(
    name="NVIDIA A4000", vendor="nvidia", compute_capability="8.6",
    num_sms=48, warp_size=32,
    max_threads_per_sm=1536, max_threads_per_block=1024,
    max_blocks_per_sm=16,
    registers_per_sm=65536, max_registers_per_thread=255,
    shared_mem_per_sm=100 * 1024, shared_mem_per_block=48 * 1024,
    fp32_tflops=19.17, fp64_tflops=0.60,
    memory_bandwidth_gbs=445.0, global_memory_gb=16,
    l2_bytes=4 * 1024 * 1024, l1_bytes_per_sm=128 * 1024,
    clock_ghz=1.56,
)

RX6800 = GPUArchitecture(
    name="AMD RX6800", vendor="amd", compute_capability="gfx1030",
    num_sms=60, warp_size=64,
    max_threads_per_sm=2048, max_threads_per_block=1024,
    max_blocks_per_sm=16,
    registers_per_sm=65536, max_registers_per_thread=256,
    shared_mem_per_sm=64 * 1024, shared_mem_per_block=64 * 1024,
    fp32_tflops=16.17, fp64_tflops=1.01,
    memory_bandwidth_gbs=512.0, global_memory_gb=16,
    l2_bytes=4 * 1024 * 1024, l1_bytes_per_sm=16 * 1024,
    clock_ghz=2.10,
    lds_offload_bytes_per_thread=128,
)

A100 = GPUArchitecture(
    name="NVIDIA A100", vendor="nvidia", compute_capability="8.0",
    num_sms=108, warp_size=32,
    max_threads_per_sm=2048, max_threads_per_block=1024,
    max_blocks_per_sm=32,
    registers_per_sm=65536, max_registers_per_thread=255,
    shared_mem_per_sm=164 * 1024, shared_mem_per_block=48 * 1024,
    fp32_tflops=19.49, fp64_tflops=9.75,
    memory_bandwidth_gbs=1555.0, global_memory_gb=40,
    l2_bytes=40 * 1024 * 1024, l1_bytes_per_sm=192 * 1024,
    clock_ghz=1.41,
)

MI210 = GPUArchitecture(
    name="AMD MI210", vendor="amd", compute_capability="gfx90a",
    num_sms=104, warp_size=64,
    max_threads_per_sm=2048, max_threads_per_block=1024,
    max_blocks_per_sm=16,
    registers_per_sm=65536, max_registers_per_thread=256,
    shared_mem_per_sm=64 * 1024, shared_mem_per_block=64 * 1024,
    fp32_tflops=22.60, fp64_tflops=22.60,
    memory_bandwidth_gbs=1638.0, global_memory_gb=64,
    l2_bytes=16 * 1024 * 1024, l1_bytes_per_sm=16 * 1024,
    clock_ghz=1.70,
    lds_offload_bytes_per_thread=128,
)

ALL_ARCHS: Tuple[GPUArchitecture, ...] = (A4000, RX6800, A100, MI210)


def arch_by_name(name: str) -> GPUArchitecture:
    """Look up an architecture by (a substring of) its name."""
    lowered = name.lower()
    for arch in ALL_ARCHS:
        if lowered in arch.name.lower():
            return arch
    raise KeyError("no architecture matching %r" % name)
