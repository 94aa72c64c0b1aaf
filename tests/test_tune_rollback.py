"""A tune commits a winner or puts the kernel back, and fails the same way
cold and warm.

``tune_wrapper`` takes one untransformed snapshot of the wrapper just
before materialization. When a later step raises (the filters, the
validation gate or the ranking), the snapshot goes back in place of the
alternatives op and the error propagates. ``Program`` caches only "no
legal configuration" as a negative entry; every other tune error is
re-raised and never cached, so a warm run on the same cache tunes again
and raises the same error. A cached config that no longer applies fails
loudly instead of modeling the untransformed kernel.
"""

import pytest

import repro.pipeline
import repro.transforms.alternatives as alternatives_mod
from repro.autotune import paper_sweep_configs, tdo
from repro.autotune.tdo import TuneOutcome
from repro.dialects import polygeist
from repro.engine import TuningCache, TuningEngine
from repro.engine.cache import CacheEntry
from repro.ir import print_op
from repro.obs import decisions as obs_decisions
from repro.pipeline import Program, build_launch_wrapper
from repro.simulator.model import InvalidLaunch
from repro.targets import A100
from repro.transforms.coarsen import CoarsenError

from tests.test_alternatives import _dangling_uses
from tests.test_validate import CONFIGS, SHARED_KERNEL, sabotage_first_addf

#: 64 KB of shared memory per block, over the A100's 48 KB: the shared
#: filter keeps every plan (all bust the limit) and no region can launch
BIG_SHARED_KERNEL = """
__global__ void k(float *x, int n) {
    __shared__ float s[16384];
    int t = threadIdx.x;
    int g = blockIdx.x * blockDim.x + t;
    s[t] = x[g];
    __syncthreads();
    x[g] = s[(t + 1) % 64];
}
"""


def _no_launchable_region(monkeypatch):
    return (BIG_SHARED_KERNEL, paper_sweep_configs(max_product=8), False,
            (8,), (64,))


def _gate_rejects_everything(monkeypatch):
    real = alternatives_mod.PlannedAlternatives.materialize

    def sabotaged(planned, indices):
        alt = real(planned, indices)
        for index in range(len(alt.regions)):
            sabotage_first_addf(alt, index)
        return alt

    monkeypatch.setattr(alternatives_mod.PlannedAlternatives,
                        "materialize", sabotaged)
    return SHARED_KERNEL, CONFIGS, True, (8,), (8,)


def _ranker_raises(monkeypatch):
    def broken(alt, arch, env, select=True):
        raise RuntimeError("ranker broke over %d regions" % len(alt.regions))

    monkeypatch.setattr(tdo, "timing_driven_optimization", broken)
    return SHARED_KERNEL, CONFIGS, False, (8,), (8,)


#: (setup, expected exception, message pattern, step named in the note)
FAILURES = {
    "no-launchable-region": (_no_launchable_region, InvalidLaunch,
                             "no alternative can launch", "rank"),
    "gate-rejects-everything": (_gate_rejects_everything, ValueError,
                                "validation rejected every", "validate"),
    "ranker-raises": (_ranker_raises, RuntimeError, "ranker broke", "rank"),
}


def failure_case(monkeypatch, name):
    """``(source, configs, validate, grid, block, error, match, step)``
    of failure ``name``, with its sabotage installed on ``monkeypatch``."""
    setup, error, match, step = FAILURES[name]
    return setup(monkeypatch) + (error, match, step)


def _module_text_around_tunes(monkeypatch):
    """Record ``(before, after)`` module texts around every
    ``tune_wrapper`` call the pipeline makes."""
    real = repro.pipeline.tune_wrapper
    texts = []

    def recording(wrapper, *args, **kwargs):
        root = wrapper
        while root.parent_op is not None:
            root = root.parent_op
        before = print_op(root)
        try:
            return real(wrapper, *args, **kwargs)
        finally:
            texts.append((before, print_op(root)))

    monkeypatch.setattr(repro.pipeline, "tune_wrapper", recording)
    return texts


@pytest.mark.parametrize("name", sorted(FAILURES))
def test_failed_tune_restores_the_module_and_cold_equals_warm(monkeypatch,
                                                              name):
    source, configs, validate, grid, block, error, match, _ = \
        failure_case(monkeypatch, name)
    texts = _module_text_around_tunes(monkeypatch)
    cache = TuningCache(None)
    raised = []
    for _ in ("cold", "warm"):
        program = Program(source, A100, autotune_configs=configs,
                          engine=TuningEngine(cache=cache,
                                              validate=validate))
        with pytest.raises(error, match=match) as info:
            program.model_launch("k", grid, block)
        raised.append((type(info.value), str(info.value)))
        assert not program.module.op.ops_matching(polygeist.ALTERNATIVES)
        assert not program.tuning_outcomes
    assert raised[0] == raised[1]
    assert len(texts) == 2
    for before, after in texts:
        assert after == before
    # nothing was cached for the key: both runs tuned
    wrapper_name = program.generator.get_launch_wrapper("k", 1, block)
    assert cache.stats()["stores"] == 0
    assert cache.lookup(program._tuning_key(wrapper_name, [grid])) == \
        (False, None)


@pytest.mark.parametrize("name", sorted(FAILURES))
def test_asking_again_raises_the_same_error(monkeypatch, name):
    source, configs, validate, grid, block, error, match, _ = \
        failure_case(monkeypatch, name)
    program = Program(source, A100, autotune_configs=configs,
                      engine=TuningEngine(cache=TuningCache(None),
                                          validate=validate))
    messages = []
    for _ in range(2):
        with pytest.raises(error, match=match) as info:
            program.model_launch("k", grid, block)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("name", sorted(FAILURES))
def test_failed_tune_is_noted_in_the_decision_log(monkeypatch, name):
    source, configs, validate, grid, block, error, match, step = \
        failure_case(monkeypatch, name)
    built = build_launch_wrapper(source, "k", len(grid), block)
    before = print_op(built.module.op)
    with obs_decisions.logging_decisions() as log:
        with pytest.raises(error, match=match):
            tdo.tune_wrapper(built.wrapper, A100, [built.env(grid)],
                             configs,
                             engine=TuningEngine(validate=validate))
    assert print_op(built.module.op) == before
    assert _dangling_uses(built.module) == []
    decision, = log.decisions
    assert decision.winner is None
    note = decision.notes[-1]
    assert note.startswith("nothing selected: %s failed (%s: "
                           % (step, error.__name__))
    assert "restored untransformed" in note
    assert "note: " + note in log.explain()


@pytest.mark.parametrize("validate", [False, True])
def test_committed_tune_leaves_no_use_of_the_snapshot(validate):
    # the snapshot's ops read the function's arguments; taking it apart
    # removes those uses again
    built = build_launch_wrapper(SHARED_KERNEL, "k", 1, (8,))
    outcome = tdo.tune_wrapper(built.wrapper, A100, [built.env((8,))],
                               CONFIGS, engine=TuningEngine(validate=validate))
    assert outcome.selected_config is not None
    assert not built.module.op.ops_matching(polygeist.ALTERNATIVES)
    assert _dangling_uses(built.module) == []


def test_no_legal_configuration_is_cached():
    cache = TuningCache(None)
    configs = [{"thread_factors": (3,)}]
    seconds, logs = [], []
    for _ in ("cold", "warm"):
        program = Program(SHARED_KERNEL, A100, autotune_configs=configs,
                          engine=TuningEngine(cache=cache))
        with obs_decisions.logging_decisions() as log:
            seconds.append(program.model_launch("k", 8, 8).time_seconds)
        logs.append(log)
        assert not program.tuning_outcomes
    assert seconds[0] == seconds[1] > 0.0
    assert cache.stats()["stores"] == 1
    assert cache.stats()["hits"] == 1
    # the cold decision says why nothing was selected
    cold, = logs[0].decisions
    assert cold.winner is None
    assert [a.eliminated_by for a in cold.alternatives] == \
        [obs_decisions.GENERATION]
    # the warm run replays the negative entry without tuning
    assert logs[1].decisions == []


def test_tune_cli_explains_a_failed_tune(tmp_path, capsys):
    from repro.__main__ import main

    path = tmp_path / "k.cu"
    path.write_text(BIG_SHARED_KERNEL)
    assert main(["tune", str(path), "k", "--grid", "8", "--block", "64",
                 "--max-factor", "8", "--explain"]) == 1
    captured = capsys.readouterr()
    assert "tune failed: no alternative can launch" in captured.err
    assert "note: nothing selected: rank failed (InvalidLaunch: " \
        "no alternative can launch" in captured.out


def test_cached_config_that_does_not_apply_raises():
    """A hand-made entry whose config is illegal for the wrapper (a
    thread factor of 3 over 8 threads): the warm run must not model the
    untransformed kernel while the entry claims a coarsened winner."""
    cache = TuningCache(None)
    program = Program(SHARED_KERNEL, A100, autotune_configs=CONFIGS,
                      engine=TuningEngine(cache=cache))
    wrapper_name = program.generator.get_launch_wrapper("k", 1, (8,))
    key = program._tuning_key(wrapper_name, [(8,)])
    cache.store(key, CacheEntry(TuneOutcome("block=1 thread=3", 1e-6),
                                {"thread_factors": [3]}))
    with pytest.raises(CoarsenError) as info:
        program.model_launch("k", 8, 8)
    message = str(info.value)
    assert key in message
    assert "'thread_factors': (3,)" in message
    assert not program.tuning_outcomes
