"""Tests for the HeCBench-style micro-benchmark extras."""

import numpy as np
import pytest

from repro.autotune import default_configs
from repro.benchsuite.hecbench import HECBENCH
from repro.engine import TuningEngine
from repro.pipeline import Program
from repro.runtime import GPURuntime
from repro.targets import A100, RX6800

ALL = sorted(HECBENCH)


def run_verify(name, arch, tier, configs=None):
    bench = HECBENCH[name]
    inputs = bench.build_inputs(bench.verify_size)
    program = Program(bench.source, arch=arch, tier=tier,
                      autotune_configs=configs)
    runtime = GPURuntime(arch)
    got = bench.run_gpu(program, runtime,
                        {k: np.array(v) for k, v in inputs.items()},
                        bench.verify_size)
    want = bench.run_cpu(inputs, bench.verify_size)
    return bench.compare(got, want), bench.rtol, runtime


def test_six_extras_registered():
    assert len(HECBENCH) == 6
    for name in ("hec-atax", "hec-gemm", "hec-stencil1d", "hec-softmax",
                 "hec-reduction", "hec-transpose"):
        assert name in HECBENCH


@pytest.mark.parametrize("name", ALL)
def test_baseline_correct(name):
    error, rtol, runtime = run_verify(name, A100, "clang")
    assert error <= rtol, "%s error %.3e" % (name, error)
    assert runtime.kernel_seconds > 0


@pytest.mark.parametrize("name", ALL)
def test_coarsened_correct(name):
    error, rtol, _ = run_verify(name, A100, "polygeist",
                                default_configs(4))
    assert error <= rtol, "%s error %.3e" % (name, error)


@pytest.mark.parametrize("name", ["hec-gemm", "hec-transpose"])
def test_amd_correct(name):
    error, rtol, _ = run_verify(name, RX6800, "polygeist",
                                default_configs(4))
    assert error <= rtol


def test_gemm_sweepable():
    """The canonical tiled gemm participates in factor sweeps."""
    from repro.benchsuite.experiments import sweep_kernel_configs
    bench = HECBENCH["hec-gemm"]
    configs = [{"block_total": 1, "thread_total": 1},
               {"block_total": 4, "thread_total": 1},
               {"block_total": 1, "thread_total": 4},
               {"block_total": 4, "thread_total": 2}]
    sweep = sweep_kernel_configs(bench.source, "gemm_tiled", (16, 16),
                                 [(128, 128)], A100, configs, "hec-gemm",
                                 engine=TuningEngine(validate=False))
    assert sweep.baseline() is not None
    assert all(r.valid for r in sweep.results)
    # shared tiles + reuse: coarsening must help the tiled gemm
    assert sweep.speedup() > 1.0
