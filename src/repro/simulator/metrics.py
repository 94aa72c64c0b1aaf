"""Profiling counters in the style of NVIDIA Nsight Compute (Table II)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class KernelMetrics:
    """Counters for one kernel launch."""

    time_seconds: float = 0.0
    lsu_utilization: float = 0.0      # load/store unit
    fma_utilization: float = 0.0      # fused multiply/add unit
    l2_to_l1_read_bytes: float = 0.0
    l1_to_l2_write_bytes: float = 0.0
    dram_read_bytes: float = 0.0
    dram_write_bytes: float = 0.0
    l1_to_sm_read_requests: float = 0.0
    sm_to_l1_write_requests: float = 0.0
    shmem_to_sm_read_requests: float = 0.0
    sm_to_shmem_write_requests: float = 0.0
    occupancy: float = 0.0
    registers_per_thread: int = 0
    shared_bytes_per_block: int = 0
    threads_per_block: int = 0
    num_blocks: int = 0

    @property
    def dram_bytes(self) -> float:
        """Total DRAM traffic (reads + writes) — the roofline denominator."""
        return self.dram_read_bytes + self.dram_write_bytes

    def as_dict(self) -> Dict[str, float]:
        """Plain-data view for JSON export (``repro analyze``)."""
        return {
            "time_seconds": self.time_seconds,
            "lsu_utilization": self.lsu_utilization,
            "fma_utilization": self.fma_utilization,
            "l2_to_l1_read_bytes": self.l2_to_l1_read_bytes,
            "l1_to_l2_write_bytes": self.l1_to_l2_write_bytes,
            "dram_read_bytes": self.dram_read_bytes,
            "dram_write_bytes": self.dram_write_bytes,
            "l1_to_sm_read_requests": self.l1_to_sm_read_requests,
            "sm_to_l1_write_requests": self.sm_to_l1_write_requests,
            "shmem_to_sm_read_requests": self.shmem_to_sm_read_requests,
            "sm_to_shmem_write_requests": self.sm_to_shmem_write_requests,
            "occupancy": self.occupancy,
            "registers_per_thread": self.registers_per_thread,
            "shared_bytes_per_block": self.shared_bytes_per_block,
            "threads_per_block": self.threads_per_block,
            "num_blocks": self.num_blocks,
        }

    def table_row(self) -> Dict[str, str]:
        """Formatted like the paper's Table II rows."""
        return {
            "Runtime": "%.4f s" % self.time_seconds,
            "LSU utilization": "%d%%" % round(self.lsu_utilization * 100),
            "FMA utilization": "%d%%" % round(self.fma_utilization * 100),
            "L2 -> L1 Read": _fmt_bytes(self.l2_to_l1_read_bytes),
            "L1 -> L2 Write": _fmt_bytes(self.l1_to_l2_write_bytes),
            "L1 -> SM Read Req.": _fmt_count(self.l1_to_sm_read_requests),
            "SM -> L1 Write Req.": _fmt_count(self.sm_to_l1_write_requests),
            "ShMem -> SM Read Req.": _fmt_count(
                self.shmem_to_sm_read_requests),
            "SM -> ShMem Write Req.": _fmt_count(
                self.sm_to_shmem_write_requests),
        }


def _fmt_bytes(value: float) -> str:
    if value >= 1e9:
        return "%.2f GB" % (value / 1e9)
    if value >= 1e6:
        return "%.0f MB" % (value / 1e6)
    if value >= 1e3:
        return "%.0f KB" % (value / 1e3)
    return "%d B" % value


def _fmt_count(value: float) -> str:
    if value >= 1e6:
        return "%.2f M" % (value / 1e6)
    if value >= 1e3:
        return "%.2f K" % (value / 1e3)
    return "%d" % value
