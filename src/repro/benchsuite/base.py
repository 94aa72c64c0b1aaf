"""Benchmark infrastructure: the common harness for all Rodinia ports.

Each benchmark provides:

* ``SOURCE``       — CUDA text in the supported subset;
* ``run_gpu``      — the host driver (allocations, launches, readback),
  executed *functionally* on the interpreter at a small ``verify`` size;
* ``run_cpu``      — a numpy reference for correctness checking;
* ``iter_launches``— the launch sequence at a given problem size, used to
  *model* composite time analytically at paper-scale sizes without
  interpreting every thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..pipeline import Program, grid_table
from ..runtime import GPURuntime
from ..runtime.gpu_runtime import PCIE_BANDWIDTH, PCIE_LATENCY
from ..targets import GPUArchitecture

#: (kernel name, grid dims, block dims)
Launch = Tuple[str, Tuple[int, ...], Tuple[int, ...]]

#: memoized Benchmark.transfer_bytes results, keyed (name, size)
_TRANSFER_BYTES: Dict[Tuple[str, int], int] = {}


@dataclass
class BenchmarkResult:
    name: str
    passed: bool
    max_error: float
    composite_seconds: float
    kernel_seconds: float
    notes: List[str] = field(default_factory=list)


class Benchmark:
    """Base class; subclasses register themselves in :data:`BENCHMARKS`."""

    name: str = ""
    #: CUDA source text
    source: str = ""
    #: uses double-precision arithmetic (drives the AMD f64 story)
    uses_double: bool = False
    #: default problem size for functional verification (small)
    verify_size: int = 0
    #: default problem size for performance modeling (paper-ish)
    model_size: int = 0
    #: relative tolerance for CPU/GPU comparison
    rtol: float = 1e-4

    # -- to implement ------------------------------------------------------

    def build_inputs(self, size: int, seed: int = 0) -> Dict[str, np.ndarray]:
        raise NotImplementedError

    def run_gpu(self, program: Program, runtime: GPURuntime,
                inputs: Dict[str, np.ndarray], size: int
                ) -> Dict[str, np.ndarray]:
        raise NotImplementedError

    def run_cpu(self, inputs: Dict[str, np.ndarray], size: int
                ) -> Dict[str, np.ndarray]:
        raise NotImplementedError

    def iter_launches(self, size: int) -> Iterator[Launch]:
        raise NotImplementedError

    def transfer_bytes(self, size: int) -> int:
        """Bytes moved over PCIe during the composite run.

        Memoized per (benchmark, size): the byte count requires building
        the full model-size inputs (seconds at paper scale), and every
        arch × tier cell of a fig16/fig17 sweep re-asks the same question.
        """
        key = (self.name, size)
        cached = _TRANSFER_BYTES.get(key)
        if cached is None:
            inputs = self.build_inputs(size)
            cached = sum(a.nbytes for a in inputs.values()) * 2
            _TRANSFER_BYTES[key] = cached
        return cached

    # -- harness --------------------------------------------------------------

    def compare(self, got: Dict[str, np.ndarray],
                want: Dict[str, np.ndarray]) -> float:
        """Maximum relative error across all output arrays."""
        worst = 0.0
        for key, expected in want.items():
            actual = got[key]
            scale = np.maximum(np.abs(expected), 1.0)
            error = float(np.max(np.abs(actual - expected) / scale)) \
                if expected.size else 0.0
            worst = max(worst, error)
        return worst


BENCHMARKS: Dict[str, Benchmark] = {}


def register(benchmark_class):
    """Class decorator adding a benchmark to the registry."""
    instance = benchmark_class()
    if not instance.name:
        raise ValueError("benchmark needs a name")
    BENCHMARKS[instance.name] = instance
    return benchmark_class


def get_benchmark(name: str) -> Benchmark:
    return BENCHMARKS[name]


def verify_benchmark(name: str, arch: GPUArchitecture,
                     tier: str = "polygeist",
                     autotune_configs: Optional[Sequence[Dict]] = None,
                     size: Optional[int] = None,
                     seed: int = 0) -> BenchmarkResult:
    """Run a benchmark functionally and compare against the CPU reference.

    This is the paper's §VII-A correctness methodology: the same benchmark
    compiled in different configurations must produce matching outputs.
    """
    bench = get_benchmark(name)
    size = size or bench.verify_size
    inputs = bench.build_inputs(size, seed)
    program = Program(bench.source, arch=arch, tier=tier,
                      autotune_configs=autotune_configs)
    runtime = GPURuntime(arch)
    gpu_inputs = {k: np.array(v) for k, v in inputs.items()}
    got = bench.run_gpu(program, runtime, gpu_inputs, size)
    want = bench.run_cpu({k: np.array(v) for k, v in inputs.items()}, size)
    error = bench.compare(got, want)
    return BenchmarkResult(
        name=name,
        passed=error <= bench.rtol,
        max_error=error,
        composite_seconds=runtime.composite_seconds,
        kernel_seconds=runtime.kernel_seconds,
    )


@dataclass
class LaunchGroups:
    """A launch sequence grouped by (kernel, block shape)."""

    #: per group, in first-launch order: its int64 grid table, one row
    #: per launch in launch order (:func:`repro.pipeline.grid_table`)
    tables: Dict[Tuple[str, Tuple[int, ...]], np.ndarray]
    #: per launch, in launch order: the position of its group in
    #: ``tables``
    order: np.ndarray

    def total(self, per_group: Sequence[Sequence[float]]) -> float:
        """The sum of ``per_group`` (one value per table row, groups in
        ``tables`` order) taken in launch order, left to right from 0.0:
        the same float as adding each launch's value as it happens."""
        values = np.empty(len(self.order))
        for position, group in enumerate(per_group):
            values[self.order == position] = group
        total = 0.0
        for value in values.tolist():
            total += value
        return total


def group_launches(launches: Iterable[Launch]) -> LaunchGroups:
    """Group ``launches`` by (kernel, block shape) in one pass; a group
    whose grids differ in rank raises ``ValueError``."""
    grids: Dict[Tuple[str, Tuple[int, ...]], List] = {}
    positions: Dict[Tuple[str, Tuple[int, ...]], int] = {}
    order: List[int] = []
    for kernel, grid, block in launches:
        key = (kernel, tuple(block))
        position = positions.get(key)
        if position is None:
            position = positions[key] = len(positions)
            grids[key] = []
        grids[key].append(grid)
        order.append(position)
    return LaunchGroups({key: grid_table(key[0], rows)
                         for key, rows in grids.items()},
                        np.array(order, dtype=np.intp))


def simulate_composite(name: str, arch,
                       tier: str = "polygeist",
                       autotune_configs: Optional[Sequence[Dict]] = None,
                       size: Optional[int] = None,
                       engine=None,
                       outcomes: Optional[Dict[str, object]] = None
                       ) -> float:
    """Model the composite time of a benchmark at paper-scale size.

    Sums analytically-modeled kernel launches (tuned per the tier) plus
    PCIe transfer time — no functional interpretation, so large problem
    sizes are cheap. ``arch`` may be a :class:`GPUArchitecture` or an
    architecture name (resolved via ``arch_by_name``), so sweep jobs can
    stay picklable by shipping the name. ``engine`` (a
    :class:`~repro.engine.TuningEngine`) overrides the process-wide
    default — the ``repro serve`` daemon passes a per-job engine over
    the shared on-disk cache so hit/miss accounting stays per request.
    When given, ``outcomes`` receives the program's
    :class:`~repro.autotune.tdo.TuneOutcome` per tuned wrapper name,
    whether TDO ran or the decision was replayed from the cache.
    """
    if isinstance(arch, str):
        from ..targets import arch_by_name
        arch = arch_by_name(arch)
    bench = get_benchmark(name)
    size = size or bench.model_size
    program = Program(bench.source, arch=arch, tier=tier,
                      autotune_configs=autotune_configs, engine=engine)
    groups = group_launches(bench.iter_launches(size))
    if tier == "polygeist":
        # profiling-mode tuning: rank alternatives over ALL launches
        for (kernel, block), table in groups.tables.items():
            program.tune_aggregate(kernel, block, table)
    # model each kernel group's launches in one batch, then reduce in the
    # original launch order (groups interleave in e.g. lud)
    total = groups.total([
        program.model_launch_seconds(kernel, block, table)
        for (kernel, block), table in groups.tables.items()])
    bytes_moved = bench.transfer_bytes(size)
    total += 2 * PCIE_LATENCY + bytes_moved / PCIE_BANDWIDTH
    if outcomes is not None:
        outcomes.update(program.tuning_outcomes)
    return total
