"""GPU performance simulator.

Substitutes for the paper's physical GPUs: an analytical latency-hiding
model (occupancy × memory-level parallelism × coalescing × bandwidth
rooflines) for fast configuration ranking, and a trace-driven mode that
functionally executes sampled blocks through a cache hierarchy model to
produce Nsight-Compute-style counters (Table II).
"""

from .coalescing import GlobalAccess, analyze_coalescing
from .metrics import KernelMetrics
from .model import (KernelModel, LaunchFeatures, LaunchTiming,
                    model_wrapper_launch)
from .trace import TraceCollector, trace_kernel

__all__ = [
    "GlobalAccess", "KernelMetrics", "KernelModel", "LaunchFeatures",
    "LaunchTiming", "TraceCollector", "analyze_coalescing",
    "model_wrapper_launch", "trace_kernel",
]
