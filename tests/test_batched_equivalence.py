"""Scalar vs batched model equivalence, benchsuite-wide.

The product scores through the batched numpy path
(``repro.simulator.batch.LaunchScorer``): TDO's ``_batched_seconds``,
``Program.model_launch_seconds`` and the Fig. 13-15 measurement cutoff.
``tests/scalar_oracle.py`` keeps the scalar reference as a test oracle —
one alternative, one launch, one loop at a time — and this module
substitutes it for all three with ``monkeypatch``. The tests hold the
batched path to bit-identical results with ``==`` comparisons — no
tolerances — across every benchsuite kernel on both a 32-wide (A100) and
a 64-wide (MI210) target, plus a hypothesis property sweep over random
feature vectors. A guard test proves the oracle really runs.
"""

import pytest

import repro.benchsuite.experiments as experiments
from repro.autotune import paper_sweep_configs
from repro.autotune import tdo
from repro.engine import TuningEngine, default_engine, set_default_engine
from repro.pipeline import Program
from repro.simulator.model import InvalidLaunch
from repro.targets import A100, MI210

from . import scalar_oracle

#: a small factor grid keeps the sweep fast while still exercising the
#: multi-alternative scoring the batched path exists for
SMALL_CONFIGS = paper_sweep_configs((1, 2, 4), (1, 2, 4))


def _scalar_seconds(alt, arch, envs):
    """The reference for ``tdo._batched_seconds``: one alternative, one
    launch, one loop at a time through the oracle's ``time_region``."""
    return scalar_oracle.scalar_seconds(alt, arch, envs)


def _model_launch_seconds(self, kernel, block, grids):
    """The reference for ``Program.model_launch_seconds``: one oracle
    ``model_launch`` per grid."""
    return [scalar_oracle.model_launch(self, kernel, grid, block)
            .time_seconds for grid in grids]


def _use_scalar_oracle(monkeypatch):
    """Route TDO, composite modeling and the measurement cutoff through
    the scalar references."""
    monkeypatch.setattr(tdo, "_batched_seconds", _scalar_seconds)
    monkeypatch.setattr(Program, "model_launch_seconds",
                        _model_launch_seconds)
    monkeypatch.setattr(experiments, "_apply_measurement_cutoff",
                        scalar_oracle.apply_measurement_cutoff)


def _run_mode(monkeypatch, scalar, fn):
    """Run ``fn`` with a cold tuning engine, on the oracle if ``scalar``."""
    with monkeypatch.context() as patch:
        if scalar:
            _use_scalar_oracle(patch)
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


@pytest.mark.parametrize("arch", [A100, MI210], ids=lambda a: a.name)
def test_benchsuite_composites_identical(arch, monkeypatch):
    """Every benchmark's tuned composite time matches == across paths."""
    from repro.benchsuite.experiments import fig16_data

    def run():
        return fig16_data(archs=[arch],
                          tiers=("clang", "polygeist-noopt", "polygeist"),
                          configs=SMALL_CONFIGS)

    scalar, scalar_selected = _run_mode(monkeypatch, True, run)
    batched, batched_selected = _run_mode(monkeypatch, False, run)
    assert scalar == batched
    # the tuner must also have picked the same winning coarsening config
    # for every (benchmark, wrapper, grids) tuning decision
    assert scalar_selected == batched_selected
    assert scalar_selected  # the sweep actually tuned something


@pytest.mark.parametrize("arch", [A100, MI210], ids=lambda a: a.name)
def test_per_config_seconds_identical(arch, monkeypatch):
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

    scalar, _ = _run_mode(monkeypatch, True, run)
    batched, _ = _run_mode(monkeypatch, False, run)
    assert scalar == batched


def test_scalar_oracle_really_runs(monkeypatch):
    """The oracle pass scores through the oracle's own formula and bound
    evaluator, and never through the product's: no ``LaunchScorer`` and no
    ``BatchedKernelModel.times`` call. Without this, a wrong substitution
    target, or an oracle that reaches product modeling, would make every
    ``scalar == batched`` test compare the batch with itself."""
    import repro.simulator.batch as batch_mod
    from repro.benchsuite import simulate_composite

    calls = {"evaluate_launch": 0, "block_count": 0, "scorers": 0,
             "times": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    class CountingScorer(batch_mod.LaunchScorer):
        def __init__(self, *args, **kwargs):
            calls["scorers"] += 1
            super().__init__(*args, **kwargs)

    for name in ("evaluate_launch", "block_count"):
        monkeypatch.setattr(scalar_oracle, name,
                            counting(name, getattr(scalar_oracle, name)))
    monkeypatch.setattr(batch_mod, "LaunchScorer", CountingScorer)
    monkeypatch.setattr(batch_mod.BatchedKernelModel, "times",
                        counting("times",
                                 batch_mod.BatchedKernelModel.times))

    def run():
        return simulate_composite("gaussian", A100,
                                  autotune_configs=SMALL_CONFIGS)

    scalar, _ = _run_mode(monkeypatch, True, run)
    assert calls["evaluate_launch"] > 0
    assert calls["block_count"] > 0
    assert calls["scorers"] == 0
    assert calls["times"] == 0
    # the counters see the product path: it scores through LaunchScorer
    calls.update(evaluate_launch=0, block_count=0)
    batched, _ = _run_mode(monkeypatch, False, run)
    assert calls["scorers"] > 0
    assert calls["times"] > 0
    assert calls["evaluate_launch"] == calls["block_count"] == 0
    assert scalar == batched


def test_scalar_oracle_really_runs_the_cutoff(monkeypatch):
    """The Fig. 13-15 oracle pass takes the oracle's cutoff: no product
    ``BatchedKernelModel.times`` call on either side of the ranking."""
    import repro.simulator.batch as batch_mod

    calls = {"times": 0}
    times = batch_mod.BatchedKernelModel.times

    def counting_times(*args, **kwargs):
        calls["times"] += 1
        return times(*args, **kwargs)

    monkeypatch.setattr(batch_mod.BatchedKernelModel, "times",
                        counting_times)

    def run():
        return [[(r.desc, r.seconds, r.valid, r.reason)
                 for r in sweep.results]
                for sweep in experiments.fig13_data(
                    arch=A100, benchmarks=["lud"], configs=SMALL_CONFIGS)]

    scalar, _ = _run_mode(monkeypatch, True, run)
    assert calls["times"] == 0
    batched, _ = _run_mode(monkeypatch, False, run)
    assert calls["times"] > 0
    assert scalar == batched


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
    """Block-coarsened alternatives of ``stage`` whose block loop runs to
    ``gx * n / n`` blocks, and ``launch(gx, n=1)``, the env of one launch.

    The bound is ``gx`` wherever ``n != 0``; a launch with ``n = 0``
    divides by zero, so its grid cannot be evaluated while the other
    launches of the same table can."""
    from repro.dialects import arith, polygeist
    from repro.frontend import ModuleGenerator, parse_translation_unit
    from repro.ir import Builder
    from repro.transforms.alternatives import plan_coarsening_alternatives
    from repro.transforms.coarsen import block_parallels

    gen = ModuleGenerator(parse_translation_unit(_STAGE % shared_floats))
    f = gen.module.func(gen.get_launch_wrapper("stage", 1, (64,)))
    wrapper = polygeist.find_gpu_wrappers(f)[0]
    grid, _, n = f.body_block().args
    builder = Builder()
    builder.set_insertion_point_before(wrapper)
    bound = arith.divsi(builder, arith.muli(builder, grid, n), n)
    block_parallels(wrapper)[0].set_operand(1, bound)
    planned = plan_coarsening_alternatives(wrapper, _BLOCK_CONFIGS)
    alt = planned.materialize(range(len(planned.alternatives)))

    def launch(gx, divisor=1):
        return {grid: gx, n: divisor}

    return alt, launch


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
    for scalar in (True, False):
        with monkeypatch.context() as patch:
            if scalar:
                _use_scalar_oracle(patch)
            built.clear()
            candidates = score_alternatives(alt, A100, envs)
        results.append(([(c.index, c.desc, c.time_seconds, c.valid,
                          c.reason) for c in candidates],
                        {id(loop) for loop in built}))
    return results


def _loop_blocks(alt, env):
    from repro.transforms.coarsen import block_parallels_in_region
    return [[scalar_oracle.block_count(loop, env)
             for loop in block_parallels_in_region(region)]
            for region in alt.regions]


def test_epilogue_launching_no_blocks_anywhere(monkeypatch):
    alt, launch = _stage_alternatives(_SMALL)
    envs = [launch(n) for n in (2, 4, 6, 8)]
    # block=2: main loop launches, the epilogue launches 0 in every env
    assert all(_loop_blocks(alt, env)[1][1] == 0 for env in envs)
    (scalar, scalar_built), (batched, batched_built) = \
        _scored_both_ways(monkeypatch, alt, envs)
    assert scalar == batched
    assert all(valid for _, _, _, valid, _ in batched)
    # a loop that never launches needs no model on either path
    assert scalar_built == batched_built
    assert len(batched_built) == 4  # 1 + 1 + 2 main/epilogue loops


def test_epilogue_launching_no_blocks_in_some_envs(monkeypatch):
    alt, launch = _stage_alternatives(_SMALL)
    envs = [launch(n) for n in (2, 3, 4, 5, 7)]
    assert [_loop_blocks(alt, env)[1][1] for env in envs] == \
        [0, 1, 0, 1, 1]
    (scalar, scalar_built), (batched, batched_built) = \
        _scored_both_ways(monkeypatch, alt, envs)
    assert scalar == batched
    assert all(valid for _, _, _, valid, _ in batched)
    assert scalar_built == batched_built


def test_unevaluable_grid_after_a_launch(monkeypatch):
    alt, launch = _stage_alternatives(_SMALL)
    # the third env cannot size the grid: every alternative fails there,
    # after launching in the first two
    envs = [launch(4), launch(5), launch(4, divisor=0)]
    assert all(blocks is None
               for region in _loop_blocks(alt, envs[2]) for blocks in region)
    (scalar, scalar_built), (batched, batched_built) = \
        _scored_both_ways(monkeypatch, alt, envs)
    assert scalar == batched
    assert [(valid, reason) for _, _, _, valid, reason in batched] == \
        [(False, "grid size not evaluable")] * 3
    assert scalar_built == batched_built


def test_unlaunchable_loop_first_launching_after_unevaluable_grid(
        monkeypatch):
    alt, launch = _stage_alternatives(_BIG)
    # gx=1: only the epilogues launch; n=0: no grid; gx=6: the over-sized
    # coarsened main loops launch — after the unevaluable grid
    assert [blocks[0] for blocks in _loop_blocks(alt, launch(1))[1:]] == \
        [0, 0]
    envs = [launch(1), launch(1, divisor=0), launch(6)]
    (scalar, scalar_built), (batched, batched_built) = \
        _scored_both_ways(monkeypatch, alt, envs)
    assert scalar == batched
    assert [reason for _, _, _, _, reason in batched] == \
        ["grid size not evaluable"] * 3
    # the unlaunchable main loops were never modeled, the epilogues were
    assert scalar_built == batched_built
    assert len(batched_built) == 3

    # the same launches in the other order fail on resources instead
    envs = [launch(1), launch(6), launch(1, divisor=0)]
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

    def grouped():
        program = _stage_program(shared_floats, tier, configs)
        return program.model_launch_seconds("stage", (64,), grids)

    def one_by_one():
        program = _stage_program(shared_floats, tier, configs)
        return _model_launch_seconds(program, "stage", (64,), grids)

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

    batch = BatchedKernelModel()
    rows = []
    counts = []
    for features, num_blocks in cases:
        rows.append(batch.add_model(_StubModel(features)))
        counts.append(num_blocks)
    terms = batch.times(rows, counts)
    got = {name: column.tolist() for name, column in terms.items()}
    for position, (features, num_blocks) in enumerate(cases):
        if num_blocks <= 0:
            assert got["time"][position] == 0.0
            continue
        expected = scalar_oracle.evaluate_launch(features, num_blocks)
        assert (got["compute"][position], got["memory"][position],
                got["shared"][position], got["latency"][position],
                got["busy"][position], got["time"][position]) == \
            (expected.compute_seconds, expected.memory_seconds,
             expected.shared_seconds, expected.latency_floor,
             expected.busy, expected.time_seconds)
