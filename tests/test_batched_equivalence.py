"""Scalar vs batched model equivalence, benchsuite-wide.

The batched numpy scoring path (``repro.simulator.batch``) claims bit-
identical results to the scalar reference (``REPRO_SCALAR_MODEL=1``).
These tests hold it to that claim with ``==`` comparisons — no
tolerances — across every benchsuite kernel on both a 32-wide (A100) and
a 64-wide (MI210) target, plus a hypothesis property sweep over random
feature vectors.
"""

import os

import pytest

from repro.autotune import paper_sweep_configs
from repro.engine import TuningEngine, default_engine, set_default_engine
from repro.targets import A100, MI210

#: a small factor grid keeps the sweep fast while still exercising the
#: multi-alternative scoring the batched path exists for
SMALL_CONFIGS = paper_sweep_configs((1, 2, 4), (1, 2, 4))


def _run_mode(scalar, fn):
    """Run ``fn`` with a cold tuning engine, forcing the scalar model."""
    saved = os.environ.get("REPRO_SCALAR_MODEL")
    os.environ["REPRO_SCALAR_MODEL"] = "1" if scalar else "0"
    set_default_engine(TuningEngine())
    try:
        result = fn()
        selections = {
            key: entry.selected_config
            for key, entry in default_engine().cache._memory.items()
        }
        return result, selections
    finally:
        set_default_engine(None)
        if saved is None:
            os.environ.pop("REPRO_SCALAR_MODEL", None)
        else:
            os.environ["REPRO_SCALAR_MODEL"] = saved


@pytest.mark.parametrize("arch", [A100, MI210], ids=lambda a: a.name)
def test_benchsuite_composites_identical(arch):
    """Every benchmark's tuned composite time matches == across paths."""
    from repro.benchsuite.experiments import fig16_data

    def run():
        return fig16_data(archs=[arch],
                          tiers=("clang", "polygeist-noopt", "polygeist"),
                          configs=SMALL_CONFIGS)

    scalar, scalar_selected = _run_mode(True, run)
    batched, batched_selected = _run_mode(False, run)
    assert scalar == batched
    # the tuner must also have picked the same winning coarsening config
    # for every (benchmark, wrapper, grids) tuning decision
    assert scalar_selected == batched_selected
    assert scalar_selected  # the sweep actually tuned something


@pytest.mark.parametrize("arch", [A100, MI210], ids=lambda a: a.name)
def test_per_config_seconds_identical(arch):
    """Every candidate config's modeled seconds match ==, not just winners."""
    from repro.benchsuite.experiments import fig13_data

    def run():
        out = []
        for sweep in fig13_data(arch=arch,
                                benchmarks=["gaussian", "lud", "nw"],
                                configs=SMALL_CONFIGS):
            out.append((sweep.benchmark, sweep.kernel, tuple(sweep.block),
                        tuple((r.desc, r.seconds, r.valid, r.reason)
                              for r in sweep.results)))
        return out

    scalar, _ = _run_mode(True, run)
    batched, _ = _run_mode(False, run)
    assert scalar == batched


def test_scalar_env_forces_reference_path(monkeypatch):
    from repro.simulator.model import use_scalar_model

    monkeypatch.setenv("REPRO_SCALAR_MODEL", "1")
    assert use_scalar_model()
    monkeypatch.setenv("REPRO_SCALAR_MODEL", "0")
    assert not use_scalar_model()
    monkeypatch.delenv("REPRO_SCALAR_MODEL")
    assert not use_scalar_model()


# -- first-failure behaviour of the batched scorer ----------------------------

#: a 1-D kernel whose shared buffer decides launchability: block
#: coarsening by f multiplies it by f in the main loop, while the epilogue
#: loop (the ``n % f`` leftover blocks) keeps one copy
_STAGE = r"""
__global__ void stage(float *x, int n) {
    __shared__ float buf[%d];
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    buf[threadIdx.x] = x[i];
    __syncthreads();
    x[i] = buf[63 - threadIdx.x];
}
"""
#: fits at every block factor below
_SMALL = 1024
#: fits uncoarsened (32 KiB), exceeds A100's 48 KiB per block at f >= 2
_BIG = 8192
_BLOCK_CONFIGS = paper_sweep_configs((1, 2, 3), (1,))


def _stage_alternatives(shared_floats):
    """Block-coarsened alternatives of ``stage`` and its grid argument."""
    from repro.dialects import polygeist
    from repro.frontend import ModuleGenerator, parse_translation_unit
    from repro.transforms.alternatives import plan_coarsening_alternatives

    gen = ModuleGenerator(parse_translation_unit(_STAGE % shared_floats))
    f = gen.module.func(gen.get_launch_wrapper("stage", 1, (64,)))
    wrapper = polygeist.find_gpu_wrappers(f)[0]
    planned = plan_coarsening_alternatives(wrapper, _BLOCK_CONFIGS)
    alt = planned.materialize(range(len(planned.alternatives)))
    return alt, f.body_block().args[0]


def _scored_both_ways(monkeypatch, alt, envs):
    """(scalar, batched) candidate tuples, and the loops each path built
    a KernelModel for."""
    import repro.simulator.batch as batch_mod
    import repro.simulator.model as model_mod
    from repro.autotune.tdo import score_alternatives

    built = []

    class RecordingModel(model_mod.KernelModel):
        def __init__(self, loop, arch):
            built.append(loop)
            super().__init__(loop, arch)

    monkeypatch.setattr(model_mod, "KernelModel", RecordingModel)
    monkeypatch.setattr(batch_mod, "KernelModel", RecordingModel)
    results = []
    for scalar in ("1", "0"):
        monkeypatch.setenv("REPRO_SCALAR_MODEL", scalar)
        built.clear()
        candidates = score_alternatives(alt, A100, envs)
        results.append(([(c.index, c.desc, c.time_seconds, c.valid,
                          c.reason) for c in candidates],
                        {id(loop) for loop in built}))
    return results


def _loop_blocks(alt, arg, n):
    from repro.simulator.model import block_count
    from repro.transforms.coarsen import block_parallels_in_region
    return [[block_count(loop, {arg: n})
             for loop in block_parallels_in_region(region)]
            for region in alt.regions]


def test_epilogue_launching_no_blocks_anywhere(monkeypatch):
    alt, arg = _stage_alternatives(_SMALL)
    envs = [{arg: n} for n in (2, 4, 6, 8)]
    # block=2: main loop launches, the epilogue launches 0 in every env
    assert all(_loop_blocks(alt, arg, n)[1][1] == 0 for n in (2, 4, 6, 8))
    (scalar, scalar_built), (batched, batched_built) = \
        _scored_both_ways(monkeypatch, alt, envs)
    assert scalar == batched
    assert all(valid for _, _, _, valid, _ in batched)
    # a loop that never launches needs no model on either path
    assert scalar_built == batched_built
    assert len(batched_built) == 4  # 1 + 1 + 2 main/epilogue loops


def test_epilogue_launching_no_blocks_in_some_envs(monkeypatch):
    alt, arg = _stage_alternatives(_SMALL)
    envs = [{arg: n} for n in (2, 3, 4, 5, 7)]
    assert [_loop_blocks(alt, arg, n)[1][1] for n in (2, 3, 4, 5, 7)] == \
        [0, 1, 0, 1, 1]
    (scalar, scalar_built), (batched, batched_built) = \
        _scored_both_ways(monkeypatch, alt, envs)
    assert scalar == batched
    assert all(valid for _, _, _, valid, _ in batched)
    assert scalar_built == batched_built


def test_unevaluable_grid_after_a_launch(monkeypatch):
    alt, arg = _stage_alternatives(_SMALL)
    # the third env cannot size the grid: every alternative fails there,
    # after launching in the first two
    envs = [{arg: 4}, {arg: 5}, {}]
    (scalar, scalar_built), (batched, batched_built) = \
        _scored_both_ways(monkeypatch, alt, envs)
    assert scalar == batched
    assert [(valid, reason) for _, _, _, valid, reason in batched] == \
        [(False, "grid size not evaluable")] * 3
    assert scalar_built == batched_built


def test_unlaunchable_loop_first_launching_after_unevaluable_grid(
        monkeypatch):
    alt, arg = _stage_alternatives(_BIG)
    # n=1: only the epilogues launch; {}: no grid; n=6: the over-sized
    # coarsened main loops launch — after the unevaluable grid
    assert [blocks[0] for blocks in _loop_blocks(alt, arg, 1)[1:]] == [0, 0]
    envs = [{arg: 1}, {}, {arg: 6}]
    (scalar, scalar_built), (batched, batched_built) = \
        _scored_both_ways(monkeypatch, alt, envs)
    assert scalar == batched
    assert [reason for _, _, _, _, reason in batched] == \
        ["grid size not evaluable"] * 3
    # the unlaunchable main loops were never modeled, the epilogues were
    assert scalar_built == batched_built
    assert len(batched_built) == 3

    # the same launches in the other order fail on resources instead
    envs = [{arg: 1}, {arg: 6}, {}]
    (scalar, scalar_built), (batched, batched_built) = \
        _scored_both_ways(monkeypatch, alt, envs)
    assert scalar == batched
    assert [reason for _, _, _, _, reason in batched] == \
        ["grid size not evaluable"] + \
        ["kernel exceeds NVIDIA A100 resources (limited by shared)"] * 2
    assert scalar_built == batched_built


def _stage_program(shared_floats, tier, configs=None):
    from repro.engine import TuningCache
    from repro.pipeline import Program

    return Program(_STAGE % shared_floats, arch=A100, tier=tier,
                   autotune_configs=configs,
                   engine=TuningEngine(cache=TuningCache(None)))


def _modeled_both_ways(shared_floats, tier, grids, configs=None):
    """model_launch_seconds over ``grids`` and model_launch one by one,
    each on a fresh program; an InvalidLaunch is returned as its reason."""
    from repro.simulator.model import InvalidLaunch

    def grouped():
        program = _stage_program(shared_floats, tier, configs)
        return program.model_launch_seconds("stage", (64,), grids)

    def one_by_one():
        program = _stage_program(shared_floats, tier, configs)
        return [program.model_launch("stage", grid, (64,)).time_seconds
                for grid in grids]

    results = []
    for run in (grouped, one_by_one):
        try:
            results.append(run())
        except InvalidLaunch as error:
            results.append(str(error))
    return results


@pytest.mark.parametrize("grids", [[(2,), (4,), (8,)],
                                   [(2,), (3,), (4,), (7,)]],
                         ids=["epilogue-never", "epilogue-sometimes"])
def test_launch_group_matches_single_launches(grids):
    # a block=2-only tuning keeps a main loop plus an epilogue
    grouped, one_by_one = _modeled_both_ways(
        _SMALL, "polygeist", grids,
        configs=[{"block_total": 2, "thread_total": 1}])
    assert isinstance(grouped, list)
    assert grouped == one_by_one


def test_launch_group_fails_where_single_launches_do():
    # 72 KiB of shared memory cannot launch even uncoarsened, but a
    # launch of 0 blocks costs nothing and needs no model
    huge = 18432
    grouped, one_by_one = _modeled_both_ways(huge, "polygeist-noopt",
                                             [(0,), (0,)])
    assert grouped == one_by_one == [0.0, 0.0]
    grouped, one_by_one = _modeled_both_ways(huge, "polygeist-noopt",
                                             [(0,), (3,), (0,)])
    assert grouped == one_by_one == \
        "kernel exceeds NVIDIA A100 resources (limited by shared)"


# -- property test over random feature vectors --------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_pos_float = st.floats(min_value=1e-12, max_value=1e12,
                       allow_nan=False, allow_infinity=False)
_frac = st.floats(min_value=1e-3, max_value=1.0,
                  allow_nan=False, allow_infinity=False)


class _StubModel:
    """Quacks like KernelModel for BatchedKernelModel: features + check."""

    def __init__(self, features):
        self._features = features

    def features(self):
        return self._features

    def ensure_launchable(self):
        raise AssertionError("stub models are always launchable")


@st.composite
def _features(draw):
    from repro.simulator.model import LaunchFeatures

    num_sms = draw(st.integers(min_value=1, max_value=256))
    blocks_per_sm = draw(st.integers(min_value=1, max_value=32))
    return LaunchFeatures(
        compute_cycles_per_thread=draw(_pos_float),
        compute_cycles_per_block=draw(_pos_float),
        compute_util=draw(_frac),
        active_warps=draw(_pos_float),
        read_bytes=draw(_pos_float),
        write_bytes=draw(_pos_float),
        useful_read=draw(_pos_float),
        useful_write=draw(_pos_float),
        read_requests=draw(_pos_float),
        write_requests=draw(_pos_float),
        rw_bytes=draw(st.one_of(st.just(0.0), _pos_float)),
        inflight_bytes_per_sm=draw(_pos_float),
        dram_latency_seconds=draw(_pos_float),
        peak_bandwidth=draw(_pos_float),
        shared_bytes=draw(st.one_of(st.just(0.0), _pos_float)),
        shared_bw_per_sm=draw(_pos_float),
        bank_conflicts=draw(st.floats(min_value=1.0, max_value=32.0,
                                      allow_nan=False)),
        lds_offloaded=draw(st.booleans()),
        lds_offload_penalty=draw(st.floats(min_value=1.0, max_value=8.0,
                                           allow_nan=False)),
        block_latency_cycles=draw(_pos_float),
        wave_divisor=max(1, blocks_per_sm * num_sms),
        clock=draw(_pos_float),
        num_sms=num_sms,
        blocks_per_sm=blocks_per_sm,
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_features(),
                          st.integers(min_value=0, max_value=10**7)),
                min_size=1, max_size=16))
def test_batched_matches_scalar_on_random_features(cases):
    pytest.importorskip("numpy")
    from repro.simulator.batch import BatchedKernelModel
    from repro.simulator.model import evaluate_launch

    batch = BatchedKernelModel()
    rows = []
    counts = []
    expected = []
    for features, num_blocks in cases:
        rows.append(batch.add_model(_StubModel(features)))
        counts.append(num_blocks)
        if num_blocks <= 0:
            expected.append(0.0)
        else:
            terms = evaluate_launch(features, num_blocks)
            expected.append(terms.time_seconds)
    got = batch.times(rows, counts).tolist()
    assert got == expected
