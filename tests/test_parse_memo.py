"""One parse per source per process.

:func:`repro.frontend.parse_translation_unit` memoizes its unit on the
source and the defines, so every :class:`~repro.pipeline.Program` of one
source shares one :class:`~repro.frontend.TranslationUnit`. That is
sound only while nothing downstream mutates the unit: every benchsuite
unit's pickle digest must survive composite modeling in all four tiers,
profiling mode, the functional host-driver run, and ``run_host``.
"""

import hashlib
import pickle

import numpy as np
import pytest

from repro.autotune import paper_sweep_configs
from repro.benchsuite.base import (BENCHMARKS, get_benchmark,
                                   simulate_composite, verify_benchmark)
from repro.engine import TuningCache, TuningEngine
from repro.frontend import CParseError, LexError, parse_translation_unit
from repro.pipeline import TIERS, Program
from repro.runtime import GPURuntime
from repro.targets import A100

SOURCE = """
#ifndef WIDTH
#define WIDTH 4
#endif
__global__ void scale(float *x, float a) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    x[i] = x[i] * a * WIDTH;
}
"""

HOST_SOURCE = """
__global__ void inc(float *x) {
    x[blockIdx.x * blockDim.x + threadIdx.x] += 1.0f;
}
void run(float *x, int iters) {
    for (int i = 0; i < iters; i++) inc<<<4, 32>>>(x);
}
"""

CONFIGS = paper_sweep_configs(max_product=4)


def _digest(unit) -> str:
    return hashlib.sha256(pickle.dumps(unit)).hexdigest()


def test_same_source_and_defines_give_the_same_unit():
    unit = parse_translation_unit(SOURCE)
    assert parse_translation_unit(SOURCE) is unit
    assert parse_translation_unit(SOURCE, {}) is unit
    wide = parse_translation_unit(SOURCE, {"WIDTH": 8, "EXTRA": 1})
    assert wide is not unit
    # the defines' order does not matter, and the preprocessor sees each
    # value as ``str(value)``
    assert parse_translation_unit(SOURCE, {"EXTRA": "1", "WIDTH": 8}) is wide
    assert parse_translation_unit(SOURCE, {"WIDTH": 2}) is not wide


def test_programs_of_one_source_share_the_unit():
    first = Program(SOURCE, A100, tier="clang")
    second = Program(SOURCE, A100, tier="polygeist")
    assert first.unit is second.unit
    assert first.module is not second.module


@pytest.mark.parametrize("source,error", [
    ("__global__ void k() { int x = ; }", CParseError),
    ("__global__ void k() { int x = 1 @ 2; }", LexError),
])
def test_a_bad_source_raises_on_every_call(source, error):
    for _ in range(2):
        with pytest.raises(error):
            parse_translation_unit(source)


class _ProfilingProgram(Program):
    """Runs each wrapper's first launch through :meth:`profile_launch`."""

    def launch(self, kernel, grid, block, args, runtime=None):
        if getattr(self, "_profiling", False):
            return super().launch(kernel, grid, block, args, runtime)
        self._profiling = True
        try:
            return self.profile_launch(kernel, grid, block, args, runtime)
        finally:
            self._profiling = False


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_jobs_leave_the_shared_unit_unchanged(name):
    bench = get_benchmark(name)
    unit = parse_translation_unit(bench.source)
    before = _digest(unit)
    engine = TuningEngine(cache=TuningCache(None), validate=False)
    for tier in TIERS:
        simulate_composite(name, A100, tier, CONFIGS, engine=engine)
    assert _digest(unit) == before, "composite modeling mutated the unit"
    assert verify_benchmark(name, A100, autotune_configs=CONFIGS).passed
    assert _digest(unit) == before, "the host driver mutated the unit"
    program = _ProfilingProgram(bench.source, A100, autotune_configs=CONFIGS,
                                engine=TuningEngine(cache=TuningCache(None),
                                                    validate=False))
    assert program.unit is unit
    size = bench.verify_size
    bench.run_gpu(program, GPURuntime(A100),
                  bench.build_inputs(size, 0), size)
    assert program.tuning_outcomes, "no wrapper was profiled"
    assert _digest(unit) == before, "profiling mode mutated the unit"
    assert parse_translation_unit(bench.source) is unit


def test_run_host_leaves_the_shared_unit_unchanged():
    unit = parse_translation_unit(HOST_SOURCE)
    before = _digest(unit)
    for tier in TIERS:
        data = np.zeros(128, dtype=np.float32)
        Program(HOST_SOURCE, A100, tier=tier).run_host("run", [data, 3])
        np.testing.assert_array_equal(data, 3.0)
    assert _digest(unit) == before


def test_threads_share_one_unit_and_model_alike():
    """``repro serve --isolation thread`` runs jobs on daemon threads: four
    threads racing on the memo, with a short switch interval, all model
    the same composite times from units equal to a serial parse."""
    import sys
    import threading

    from repro.frontend import cparser

    names = ["gaussian", "lud", "nw"]
    expected = {name: simulate_composite(name, A100, "clang")
                for name in names}
    digests = {name: _digest(parse_translation_unit(
        get_benchmark(name).source)) for name in names}
    results, errors = [], []
    # the threads race on misses, not only on hits
    cparser._parse.cache_clear()

    def job():
        try:
            for name in names:
                source = get_benchmark(name).source
                results.append((name, _digest(parse_translation_unit(source)),
                                simulate_composite(name, A100, "clang")))
        except Exception as error:  # reported by the assertion below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=job) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert sorted(results) == sorted(
        (name, digests[name], expected[name])
        for name in names for _ in range(4))
