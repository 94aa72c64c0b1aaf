"""Tests for the tuning engine: cache, stats, and the correctness fixes
that ride along with it (snapshot restoration in profiling mode,
filter-report index remapping, stable model-cache keys, selector range
checks, zero-time speedup guards)."""

import gc

import numpy as np
import pytest

from repro.autotune import (default_configs, run_planned_filters,
                            tune_wrapper)
from repro.autotune.tdo import Candidate, TuneOutcome
from repro.dialects import polygeist
from repro.engine import (CacheEntry, TuningCache, TuningEngine,
                          source_hash, tuning_key)
from repro.frontend import ModuleGenerator, parse_translation_unit
from repro.ir import verify_module
from repro.pipeline import Program, _fixed_selector
from repro.targets import A100, RX6800
from repro.transforms import plan_coarsening_alternatives


SOURCE = """
__global__ void scale(float *x, float a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= n) return;
    x[i] = x[i] * a;
}
"""

ACCUM_SOURCE = """
__global__ void accum(float *x, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= n) return;
    x[i] = x[i] + 1.0f;
}
"""


def fresh_engine(**kwargs):
    return TuningEngine(cache=TuningCache(), **kwargs)


def plan_alts(source=SOURCE, kernel="scale", block=(64,), configs=None):
    unit = parse_translation_unit(source)
    gen = ModuleGenerator(unit)
    name = gen.get_launch_wrapper(kernel, 1, block)
    wrapper = polygeist.find_gpu_wrappers(gen.module.op)[0]
    planned = plan_coarsening_alternatives(
        wrapper, configs or default_configs(max_total=4))
    return gen.module, name, wrapper, planned


def build_alt(source=SOURCE, kernel="scale", block=(64,), configs=None):
    """Plan and materialize every legal alternative; returns the op."""
    module, name, wrapper, planned = plan_alts(source, kernel, block,
                                               configs)
    alt = planned.materialize(range(len(planned.alternatives)))
    return module, name, wrapper, alt


class TestTuningCache:
    def test_same_key_hits_with_identical_outcome(self):
        engine = fresh_engine()
        p1 = Program(SOURCE, arch=A100, engine=engine)
        p1.model_launch("scale", 256, 64)
        assert engine.registry.counter_value("cache_misses") == 1
        assert engine.registry.counter_value("cache_hits") == 0
        gens = engine.registry.counter_value("alternative_generations")
        assert gens == 1

        p2 = Program(SOURCE, arch=A100, engine=engine)
        p2.model_launch("scale", 256, 64)
        assert engine.registry.counter_value("cache_hits") == 1
        # the headline guarantee: zero alternative generations on a hit
        assert engine.registry.counter_value("alternative_generations") == gens

        o1 = p1.tuning_outcomes[next(iter(p1.tuning_outcomes))]
        o2 = p2.tuning_outcomes[next(iter(p2.tuning_outcomes))]
        assert o1.selected_desc == o2.selected_desc
        assert o1.selected_time == o2.selected_time
        assert [(c.desc, c.time_seconds, c.valid) for c in o1.candidates] \
            == [(c.desc, c.time_seconds, c.valid) for c in o2.candidates]

    def test_replay_transforms_module_equivalently(self):
        engine = fresh_engine()
        p1 = Program(SOURCE, arch=A100, engine=engine)
        t1 = p1.model_launch("scale", 4096, 64)
        p2 = Program(SOURCE, arch=A100, engine=engine)
        t2 = p2.model_launch("scale", 4096, 64)
        verify_module(p2.module)
        assert t1.time_seconds == pytest.approx(t2.time_seconds)

    def test_different_arch_misses(self):
        engine = fresh_engine()
        Program(SOURCE, arch=A100, engine=engine).model_launch(
            "scale", 256, 64)
        Program(SOURCE, arch=RX6800, engine=engine).model_launch(
            "scale", 256, 64)
        assert engine.registry.counter_value("cache_misses") == 2
        assert engine.registry.counter_value("cache_hits") == 0

    def test_different_configs_miss(self):
        engine = fresh_engine()
        Program(SOURCE, arch=A100, engine=engine).model_launch(
            "scale", 256, 64)
        Program(SOURCE, arch=A100, engine=engine,
                autotune_configs=default_configs(max_total=2)
                ).model_launch("scale", 256, 64)
        assert engine.registry.counter_value("cache_misses") == 2
        assert engine.registry.counter_value("cache_hits") == 0

    def test_different_geometry_misses(self):
        engine = fresh_engine()
        Program(SOURCE, arch=A100, engine=engine).model_launch(
            "scale", 256, 64)
        Program(SOURCE, arch=A100, engine=engine).model_launch(
            "scale", 512, 64)
        assert engine.registry.counter_value("cache_misses") == 2

    def test_aggregate_tuning_cached(self):
        engine = fresh_engine()
        p1 = Program(SOURCE, arch=A100, engine=engine)
        p1.tune_aggregate("scale", 64, [(256,), (128,)])
        p2 = Program(SOURCE, arch=A100, engine=engine)
        p2.tune_aggregate("scale", 64, [(256,), (128,)])
        assert engine.registry.counter_value("cache_hits") == 1
        assert p1.tuning_outcomes.keys() == p2.tuning_outcomes.keys()

    def test_disk_round_trip(self, tmp_path):
        engine = fresh_engine()
        engine.cache = TuningCache(str(tmp_path))
        p1 = Program(SOURCE, arch=A100, engine=engine)
        p1.model_launch("scale", 256, 64)
        assert engine.cache.disk_entries() == 1

        # a brand-new cache over the same directory serves the entry
        cold = TuningEngine(cache=TuningCache(str(tmp_path)))
        p2 = Program(SOURCE, arch=A100, engine=cold)
        p2.model_launch("scale", 256, 64)
        assert cold.registry.counter_value("cache_hits") == 1
        assert cold.registry.counter_value("alternative_generations") == 0
        o1 = next(iter(p1.tuning_outcomes.values()))
        o2 = next(iter(p2.tuning_outcomes.values()))
        assert o1.selected_desc == o2.selected_desc
        assert o1.selected_time == pytest.approx(o2.selected_time)

    def test_cached_entries_are_isolated_copies(self):
        cache = TuningCache()
        outcome = TuneOutcome("block=1 thread=1", 1.0,
                              [Candidate(0, "block=1 thread=1", 1.0, True)])
        cache.store("k", CacheEntry(outcome, {"block_total": 1}))
        outcome.selected_desc = "mutated-after-store"
        hit, entry = cache.lookup("k")
        assert hit
        assert entry.outcome.selected_desc == "block=1 thread=1"
        entry.outcome.selected_desc = "mutated-after-lookup"
        _, again = cache.lookup("k")
        assert again.outcome.selected_desc == "block=1 thread=1"

    def test_key_depends_on_all_inputs(self):
        base = tuning_key("h", A100, "polygeist", [{"block_total": 2}],
                          "w", [(256,)])
        assert base != tuning_key("h2", A100, "polygeist",
                                  [{"block_total": 2}], "w", [(256,)])
        assert base != tuning_key("h", RX6800, "polygeist",
                                  [{"block_total": 2}], "w", [(256,)])
        assert base != tuning_key("h", A100, "clang",
                                  [{"block_total": 2}], "w", [(256,)])
        assert base != tuning_key("h", A100, "polygeist",
                                  [{"block_total": 4}], "w", [(256,)])
        assert base != tuning_key("h", A100, "polygeist",
                                  [{"block_total": 2}], "w2", [(256,)])
        assert base != tuning_key("h", A100, "polygeist",
                                  [{"block_total": 2}], "w", [(512,)])
        # and it is deterministic
        assert base == tuning_key("h", A100, "polygeist",
                                  [{"block_total": 2}], "w", [(256,)])

    def test_stock_arch_keys_are_pinned(self):
        # recorded before the arch token was memoized: on-disk caches
        # written by earlier versions must keep hitting
        from repro.autotune import paper_sweep_configs
        from repro.targets import MI210
        src = source_hash("__global__ void k(float *x) "
                          "{ x[threadIdx.x] = 0; }", {"N": 64})
        configs = paper_sweep_configs(max_product=4)
        for _ in range(2):
            assert tuning_key(src, A100, "polygeist", configs,
                              "k_wrapper_1_256", [(64,), (128,)]) == \
                "82da1529b82a23b71c5d7b69eb1036bee39681754652a2a97c79497c86fccf20"
            assert tuning_key(src, MI210, "polygeist", configs,
                              "k_wrapper_1_256", [(64,), (128,)]) == \
                "bd5e1f0ee00fd5f3cdf65be2b97ef916b58759d8d5a8b7a1f8c26e5db95761b4"

    def test_arch_token_is_encoded_once_per_frozen_arch(self, monkeypatch):
        import dataclasses
        import json

        from repro.engine.cache import arch_token
        arch = dataclasses.replace(A100, name="A100-token-test")
        first = arch_token(arch)
        monkeypatch.setattr(json, "dumps", None)
        assert arch_token(arch) is first
        monkeypatch.undo()
        # the memo is not a field: equality, hashing and replace ignore it
        assert arch == dataclasses.replace(A100, name="A100-token-test")
        assert arch_token(dataclasses.replace(arch, num_sms=1)) != first

        @dataclasses.dataclass
        class Mutable:
            name: str

        mutable = Mutable("x")
        before = arch_token(mutable)
        mutable.name = "y"
        assert arch_token(mutable) != before
        assert arch_token("not-a-dataclass") == json.dumps("'not-a-dataclass'")

    def test_source_hash_includes_defines(self):
        assert source_hash("x") != source_hash("y")
        assert source_hash("x", {"N": 1}) != source_hash("x", {"N": 2})


class TestEngineStats:
    def test_stage_accumulation(self):
        from repro.__main__ import _stage_table
        engine = fresh_engine()
        with engine.stage("parse"):
            pass
        with engine.stage("parse"):
            pass
        assert engine.stages()["parse"]["count"] == 2
        assert engine.stage_seconds()["parse"] >= 0.0
        engine.registry.counter("cache_hits").inc()
        engine.registry.counter("cache_hits").inc(2)
        assert engine.registry.counter_value("cache_hits") == 3
        table = _stage_table(engine)
        assert "parse" in table and "cache_hits" in table
        engine.registry.reset()
        assert engine.stages() == {}
        assert engine.registry.counter_values() == {}

    def test_generations_counted_once_with_registry_installed(self):
        from contextlib import nullcontext
        from repro.obs import metrics as obs_metrics
        configs = default_configs(max_total=4)
        per_plan = len(plan_alts(configs=configs)[3].alternatives)

        def tune_twice(installed):
            engine = fresh_engine(validate=False)
            with obs_metrics.collecting(engine.registry) if installed \
                    else nullcontext():
                for _ in range(2):
                    module, name, wrapper, _ = plan_alts(configs=configs)
                    env = {module.func(name).body_block().arg(0): 512}
                    tune_wrapper(wrapper, A100, env, configs, engine=engine)
            registry = engine.registry
            return (registry.counter_value("alternative_generations"),
                    registry.counter_value("alternatives_generated"))

        assert tune_twice(False) == tune_twice(True) == (2, 2 * per_plan)

    def test_program_stats_api(self):
        engine = fresh_engine()
        program = Program(SOURCE, arch=A100, engine=engine)
        program.model_launch("scale", 256, 64)
        stats = program.stats()
        for stage in ("parse", "cleanup", "alternatives", "filters",
                      "tdo"):
            assert stage in stats["stage_seconds"], stage
        assert stats["counters"]["cache_misses"] == 1


class TestProfileSnapshotRestore:
    def test_accumulating_kernel_profiles_correctly(self):
        """runs_per_alternative > 1 must restore device state between runs,
        or each alternative's later runs execute on mutated inputs and the
        final result double-applies the kernel."""
        engine = fresh_engine()
        program = Program(ACCUM_SOURCE, arch=A100, engine=engine,
                          autotune_configs=default_configs(max_total=2))
        x = np.zeros(128, dtype=np.float32)
        program.profile_launch("accum", 2, 64, [x, 128],
                               runs_per_alternative=3)
        # exactly one accumulation: the final (post-profiling) launch
        np.testing.assert_allclose(x, np.ones(128, dtype=np.float32))

    def test_single_run_still_correct(self):
        engine = fresh_engine()
        program = Program(ACCUM_SOURCE, arch=A100, engine=engine,
                          autotune_configs=default_configs(max_total=2))
        x = np.zeros(128, dtype=np.float32)
        program.profile_launch("accum", 2, 64, [x, 128],
                               runs_per_alternative=1)
        np.testing.assert_allclose(x, np.ones(128, dtype=np.float32))


class TestFilterReportRemap:
    def test_merged_survivors_are_original_indices(self):
        # 16 KB static shared per block: block_total >= 4 exceeds the
        # A100's 48 KB per-block limit, so stage 1 prunes a prefix of the
        # alternative list and stage 2's indices must be remapped
        source = """
        __global__ void k(float *a) {
            __shared__ float s[4096];
            s[threadIdx.x] = a[threadIdx.x];
            __syncthreads();
            a[threadIdx.x] = s[threadIdx.x];
        }
        """
        configs = [{"block_total": 4}, {"block_total": 8},
                   {"block_total": 1}, {"block_total": 2}]
        module, name, wrapper, planned = plan_alts(source, "k", (64,),
                                                   configs)
        descs = [info.desc for info in planned.alternatives]
        merged, alt = run_planned_filters(planned.alternatives, A100,
                                          planned.materialize,
                                          fresh_engine().stage)
        # survivors index the ORIGINAL planned list (1x and 2x live at
        # original positions 2 and 3), not the materialized op
        assert merged.survivors == [2, 3]
        assert merged.survivor_descs == [descs[2], descs[3]]
        assert len(merged.dropped_shared) == 2
        # the dropped plans were never cloned; of the two survivors only
        # the first is a clone, the last coarsens the wrapper in place
        assert planned.clones_materialized == 1
        # and they remain consistent with the op's surviving descs
        assert list(polygeist.alternative_descs(alt)) == \
            merged.survivor_descs

    def test_no_shared_pruning_keeps_identity_mapping(self):
        module, name, wrapper, planned = plan_alts()
        total = len(planned.alternatives)
        merged, alt = run_planned_filters(planned.alternatives, A100,
                                          planned.materialize,
                                          fresh_engine().stage)
        assert not merged.dropped_shared
        assert planned.clones_materialized == total - 1
        assert all(0 <= index < total for index in merged.survivors)
        assert merged.survivor_descs == [
            polygeist.alternative_descs(alt)[i]
            for i in range(len(alt.regions))]

    def test_selected_config_matches_winner_desc(self):
        # the remapped indices are what lets tune_wrapper recover the
        # winning coarsening config for cache replay
        unit = parse_translation_unit(SOURCE)
        gen = ModuleGenerator(unit)
        wname = gen.get_launch_wrapper("scale", 1, (64,))
        wrapper = polygeist.find_gpu_wrappers(gen.module.op)[0]
        f = gen.module.func(wname)
        env = {f.body_block().arg(0): 512}
        outcome = tune_wrapper(wrapper, A100, env,
                               default_configs(max_total=4),
                               engine=fresh_engine(validate=False))
        assert outcome.selected_config is not None
        block = int(outcome.selected_config.get("block_total", 1))
        thread = int(outcome.selected_config.get("thread_total", 1))
        assert outcome.selected_desc.startswith("block=")
        # desc is "block=AxB thread=CxD"; totals must multiply out
        desc_block, desc_thread = outcome.selected_desc.split()
        prod = lambda text: int(np.prod(
            [int(p) for p in text.split("=")[1].split("x")]))
        assert prod(desc_block) == block
        assert prod(desc_thread) == thread


class TestStableModelKeys:
    def test_stable_uid_unique_and_sticky(self):
        module, name, wrapper, alt = build_alt()
        loops = alt.ops_matching("scf.parallel")
        uids = [op.stable_uid() for op in loops]
        assert len(set(uids)) == len(uids)
        assert [op.stable_uid() for op in loops] == uids  # sticky

    def test_clones_get_fresh_uids(self):
        module, name, wrapper, alt = build_alt()
        loop = alt.ops_matching("scf.parallel")[0]
        uid = loop.stable_uid()
        clone = loop.clone({})
        assert clone.stable_uid() != uid

    def test_uids_never_reused_after_gc(self):
        seen = set()
        for _ in range(50):
            module, name, wrapper, alt = build_alt(
                configs=[{"block_total": 1}])
            loop = alt.ops_matching("scf.parallel")[0]
            uid = loop.stable_uid()
            assert uid not in seen, "stable_uid reused a dead loop's key"
            seen.add(uid)
            del module, wrapper, alt, loop
            gc.collect()


class TestSelectorAndSpeedupGuards:
    def test_fixed_selector_raises_out_of_range(self):
        module, name, wrapper, alt = build_alt()
        select = _fixed_selector(len(alt.regions))
        with pytest.raises(IndexError):
            select(alt)
        # in-range indices pass through unclamped
        assert _fixed_selector(0)(alt) == 0

    def test_speedup_over_zero_selected_time(self):
        outcome = TuneOutcome("fast", 0.0, [
            Candidate(0, "base", 1.0, True),
            Candidate(1, "fast", 0.0, True),
        ])
        assert outcome.speedup_over("base") == float("inf")
        assert outcome.speedup_over("fast") == 1.0

    def test_speedup_over_missing_baseline_raises(self):
        outcome = TuneOutcome("fast", 0.5, [
            Candidate(0, "base", 1.0, True),
            Candidate(1, "fast", 0.5, True),
            Candidate(2, "broken", float("inf"), False, "invalid launch"),
        ])
        # a missing or invalid baseline is a broken comparison, not 1.0x
        with pytest.raises(KeyError):
            outcome.speedup_over("missing")
        with pytest.raises(KeyError):
            outcome.speedup_over("broken")

    def test_speedup_over_normal_case(self):
        outcome = TuneOutcome("fast", 0.5, [
            Candidate(0, "base", 1.0, True),
            Candidate(1, "fast", 0.5, True),
        ])
        assert outcome.speedup_over("base") == pytest.approx(2.0)


class TestModelMemoization:
    def test_time_launch_memoized_and_isolated(self):
        from repro.simulator.model import KernelModel
        module, name, wrapper, alt = build_alt(
            configs=[{"block_total": 1}])
        loop = alt.ops_matching("scf.parallel")[0]
        model = KernelModel(loop, A100)
        first = model.time_launch(128)
        second = model.time_launch(128)
        assert first.time_seconds == second.time_seconds
        assert first.metrics is not second.metrics
        assert first.breakdown is not second.breakdown
        # mutating one caller's copy must not leak into the next
        first.metrics.time_seconds = -1.0
        first.breakdown["compute"] = -1.0
        third = model.time_launch(128)
        assert third.metrics.time_seconds == second.metrics.time_seconds
        assert third.breakdown["compute"] == second.breakdown["compute"]
        # different block counts are distinct entries
        model.time_launch(256)
        assert set(model._timing_cache) == {128, 256}
