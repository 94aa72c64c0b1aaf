"""Tests for repro.validate: differential harness, lint, gate, and CLI.

The regression tests in this file name the layer that found the bug they
pin down (the differential harness, the barrier lint, or the fuzzer), per
the validation-subsystem convention: every flushed-out bug keeps a test
crediting its finder.
"""

import numpy as np
import pytest

import repro.transforms.alternatives as alternatives_mod
from repro.dialects import polygeist
from repro.engine import TuningEngine, VALIDATE_ENV
from repro.frontend import ModuleGenerator, parse_translation_unit
from repro.obs import decisions as obs_decisions
from repro.targets import arch_by_name
from repro.transforms import (check_unroll_legality, cleanup_regions,
                              run_cleanup)
from repro.transforms.coarsen import block_parallels
from repro.validate import (BARRIER_BLOCK_DEPENDENT, BARRIER_DIVERGENT,
                            DIVERGED, ERROR, OK, SHARED_WRITE_RACE, SKIPPED,
                            block_coarsening_illegal, compare_buffers,
                            lint_wrapper, validate_alternatives,
                            validate_benchmark, validate_source)

A100 = arch_by_name("a100")

SHARED_KERNEL = """
__global__ void k(float *in, float *out, int n) {
    __shared__ float tile[8];
    int t = threadIdx.x;
    int g = blockIdx.x * blockDim.x + t;
    tile[t] = in[g] * 2.0f;
    __syncthreads();
    out[g] = tile[(t + 1) % 8] + 1.5f;
}
"""

CONFIGS = [{"thread_total": 1}, {"thread_total": 2}, {"block_total": 2}]


def build_wrapper(source, kernel="k", grid_rank=1, block=(8,)):
    generator = ModuleGenerator(parse_translation_unit(source))
    name = generator.get_launch_wrapper(kernel, grid_rank, block)
    run_cleanup(generator.module)
    func_op = generator.module.func(name)
    wrapper = polygeist.find_gpu_wrappers(func_op)[0]
    return generator, name, func_op, wrapper


def materialize_all(wrapper, configs=CONFIGS):
    """Plan and materialize every config, then clean the clones."""
    planned = alternatives_mod.plan_coarsening_alternatives(wrapper, configs)
    alt = planned.materialize(range(len(planned.alternatives)))
    cleanup_regions(list(alt.regions))
    return alt


def sabotage_first_addf(alt_op, index):
    """Flip the first arith.addf of region ``index`` to a subtraction."""
    flipped = []

    def visit(op):
        if not flipped and op.name == "arith.addf":
            op.name = "arith.subf"
            flipped.append(op)
    for op in list(alt_op.body_block(index).ops):
        op.walk_preorder(visit, include_self=True)
    assert flipped, "no arith.addf to sabotage in region %d" % index


class TestDifferentialHarness:
    def test_all_alternatives_equivalent(self):
        report = validate_source(SHARED_KERNEL, "k", [4], (8,),
                                 configs=CONFIGS)
        assert report.ok
        assert not report.baseline_note
        assert len(report.verdicts) == len(CONFIGS)
        assert all(v.status == OK for v in report.verdicts)
        assert report.first_divergence is None
        assert report.keep_indices() == list(range(len(CONFIGS)))

    def test_miscompiled_alternative_diverges_with_minimized_diff(self):
        generator, _, func_op, wrapper = build_wrapper(SHARED_KERNEL)
        baseline = wrapper.clone({})
        grid_env = {func_op.body_block().args[0]: 4}
        alt = materialize_all(wrapper)
        sabotage_first_addf(alt, 1)
        report = validate_alternatives(baseline, alt, grid_env)
        assert not report.ok
        bad = report.verdicts[1]
        assert bad.status == DIVERGED
        assert report.first_divergence is bad
        assert report.keep_indices() == [0, 2]
        # the diff is minimized: counts, first index, bounded samples
        diff = bad.diff
        assert diff is not None
        assert 0 < diff.mismatches <= diff.elements
        assert 0 <= diff.first_index < diff.elements
        assert 1 <= len(diff.samples) <= 8
        assert diff.max_error > 0.0
        assert "elements differ" in bad.explain()

    def test_order_dependent_baseline_is_skipped(self):
        """All threads racing on out[0] must make validation inconclusive,
        not a spurious failure (found by the differential harness on
        backprop/lud: seeded scalars aliased per-thread indices)."""
        racy = """
        __global__ void k(float *in, float *out, int n) {
            int t = threadIdx.x;
            out[0] = in[t] + (float)t;
        }
        """
        report = validate_source(racy, "k", [2], (8,), configs=CONFIGS)
        assert report.ok  # skipped, never diverged
        assert "order-dependent" in report.baseline_note
        assert all(v.status == SKIPPED for v in report.verdicts)

    def test_scalar_ladder_recovers_oob_baseline(self):
        """Scalar-stride kernels overrun buffers when the free scalar is
        seeded to the thread total; the retry ladder must find a value
        that executes."""
        strided = """
        __global__ void k(float *in, float *out, int n) {
            int t = threadIdx.x;
            out[n * t] = in[t] * 3.0f;
        }
        """
        report = validate_source(strided, "k", [1], (4,), configs=CONFIGS)
        assert not report.baseline_note, report.baseline_note
        assert report.ok

    def test_divergent_barrier_alternative_reports_error(self):
        generator, _, func_op, wrapper = build_wrapper(SHARED_KERNEL)
        baseline = wrapper.clone({})
        grid_env = {func_op.body_block().args[0]: 4}
        alt = materialize_all(wrapper)
        # guard region 1's barrier behind a thread-dependent condition
        from repro.dialects import arith, scf
        from repro.ir import Builder
        barrier = alt.body_block(1).ops[0].ops_matching(
            polygeist.BARRIER)[0]
        thread_loop = barrier.parent_op
        while thread_loop.name != scf.PARALLEL:
            thread_loop = thread_loop.parent_op
        parent = barrier.parent
        builder = Builder(parent, parent.index_of(barrier))
        c2 = arith.index_constant(builder, 2)
        cond = arith.cmpi(builder, "lt",
                          thread_loop.body_block().args[0], c2)
        if_op = scf.if_(builder, cond, [])
        then_b = Builder(scf.if_then_block(if_op))
        barrier.detach()
        then_b.insert(barrier)
        scf.yield_(then_b)
        scf.yield_(Builder(scf.if_else_block(if_op)))
        report = validate_alternatives(baseline, alt, grid_env)
        assert report.verdicts[1].status == ERROR
        assert "barrier divergence" in report.verdicts[1].detail

    def test_compare_buffers_int_exact_float_tolerant(self):
        ints = np.arange(8, dtype=np.int32)
        off = ints.copy()
        off[3] += 1
        diff = compare_buffers(ints, off, "arg0", 0)
        assert diff is not None and diff.mismatches == 1
        assert diff.first_index == 3
        floats = np.linspace(0.0, 1.0, 8, dtype=np.float32)
        wiggled = floats * (1.0 + 1e-7)
        assert compare_buffers(floats, wiggled, "arg1", 1) is None
        assert compare_buffers(floats, floats + 1.0, "arg1", 1) is not None


class TestLint:
    def lint(self, source, block=(8,)):
        _, _, _, wrapper = build_wrapper(source, block=block)
        return lint_wrapper(wrapper, label="k"), wrapper

    def test_clean_kernel(self):
        report, wrapper = self.lint(SHARED_KERNEL)
        assert not report.findings
        assert "clean" in report.summary()
        assert not block_coarsening_illegal(wrapper)

    def test_thread_divergent_barrier_is_error(self):
        source = """
        __global__ void k(float *out) {
            __shared__ float tile[8];
            int t = threadIdx.x;
            if (t < 4) {
                tile[t] = (float)t;
                __syncthreads();
            }
            out[t] = tile[t % 4];
        }
        """
        report, _ = self.lint(source)
        findings = report.by_rule(BARRIER_DIVERGENT)
        assert findings and findings[0].severity == "error"
        assert report.errors

    def test_block_dependent_barrier_is_note(self):
        source = """
        __global__ void k(float *out) {
            __shared__ float tile[8];
            int t = threadIdx.x;
            int b = blockIdx.x;
            if (b < 2) {
                tile[t] = (float)t;
                __syncthreads();
                out[b * 8 + t] = tile[7 - t];
            }
        }
        """
        report, wrapper = self.lint(source)
        findings = report.by_rule(BARRIER_BLOCK_DEPENDENT)
        assert findings and findings[0].severity == "note"
        assert not report.errors
        assert block_coarsening_illegal(wrapper)

    def test_shared_write_race_is_warning(self):
        source = """
        __global__ void k(float *out) {
            __shared__ float acc[1];
            int t = threadIdx.x;
            acc[0] = (float)t;
            __syncthreads();
            out[t] = acc[0];
        }
        """
        report, _ = self.lint(source)
        findings = report.by_rule(SHARED_WRITE_RACE)
        assert findings and findings[0].severity == "warning"

    def test_agrees_with_unroll_legality_on_benchsuite(self):
        """The lint's §V-C verdict must match check_unroll_legality on
        every benchsuite kernel's main block loops."""
        from repro.benchsuite import BENCHMARKS, get_benchmark

        checked = 0
        for name in sorted(BENCHMARKS):
            bench = get_benchmark(name)
            generator = ModuleGenerator(parse_translation_unit(
                bench.source))
            seen = set()
            for kernel, grid, block in bench.iter_launches(
                    bench.verify_size):
                key = (kernel, len(grid), tuple(block))
                if key in seen:
                    continue
                seen.add(key)
                generator.get_launch_wrapper(kernel, len(grid),
                                             tuple(block))
            run_cleanup(generator.module)
            for wrapper in polygeist.find_gpu_wrappers(
                    generator.module.op):
                transform_illegal = any(
                    check_unroll_legality(loop) is not None
                    for loop in block_parallels(
                        wrapper, include_epilogues=False))
                assert block_coarsening_illegal(wrapper) == \
                    transform_illegal, name
                checked += 1
        assert checked >= 20


class TestValidationGate:
    def test_engine_flag_defaults_and_env(self, monkeypatch):
        monkeypatch.delenv(VALIDATE_ENV, raising=False)
        assert TuningEngine().validate is False
        monkeypatch.setenv(VALIDATE_ENV, "1")
        assert TuningEngine().validate is True
        assert TuningEngine(validate=False).validate is False
        monkeypatch.setenv(VALIDATE_ENV, "off")
        assert TuningEngine().validate is False
        assert TuningEngine(validate=True).validate is True

    def test_validation_stage_registered(self):
        assert obs_decisions.VALIDATION in obs_decisions.STAGES

    def tune(self, engine, sabotage=None):
        from repro.autotune import tune_wrapper

        generator, _, func_op, wrapper = build_wrapper(SHARED_KERNEL)
        env = {func_op.body_block().args[0]: 8}
        # tune_wrapper materializes clones lazily, so the sabotage hook
        # wraps PlannedAlternatives.materialize (the point where the
        # alternatives op first exists)
        real = alternatives_mod.PlannedAlternatives.materialize
        mutated = []

        def instrumented(planned, indices):
            alt = real(planned, indices)
            if sabotage is not None:
                index = sabotage(alt)
                mutated.append(polygeist.alternative_descs(alt)[index])
            return alt

        alternatives_mod.PlannedAlternatives.materialize = instrumented
        try:
            with obs_decisions.logging_decisions() as log:
                outcome = tune_wrapper(wrapper, A100, env, CONFIGS,
                                       engine=engine)
        finally:
            alternatives_mod.PlannedAlternatives.materialize = real
        return outcome, log, (mutated[0] if mutated else None)

    def test_gate_rejects_miscompiled_alternative(self):
        def sabotage(alt_op):
            sabotage_first_addf(alt_op, 0)
            return 0

        engine = TuningEngine(validate=True)
        outcome, log, mutated = self.tune(engine, sabotage=sabotage)
        assert mutated is not None
        decision = log.decisions[0]
        record = decision.find(mutated)
        assert record is not None
        assert record.eliminated_by == obs_decisions.VALIDATION
        assert "diverged" in record.reason
        assert outcome.selected_desc != mutated
        assert outcome.validation is not None
        assert not outcome.validation.ok
        # the selected config must replay correctly despite the pruning
        assert outcome.selected_config is not None

    def test_gate_passes_clean_alternatives(self):
        engine = TuningEngine(validate=True)
        outcome, log, _ = self.tune(engine)
        assert outcome.validation is not None
        assert outcome.validation.ok
        assert not any(d.eliminated_by == obs_decisions.VALIDATION
                       for d in log.decisions[0].alternatives)

    def test_gate_off_keeps_miscompiled_alternative(self):
        """Without --validate nothing catches the miscompile: the gate is
        what changes the outcome (guards the test above against passing
        for an unrelated reason)."""
        def sabotage(alt_op):
            sabotage_first_addf(alt_op, 0)
            return 0

        engine = TuningEngine(validate=False)
        outcome, log, mutated = self.tune(engine, sabotage=sabotage)
        assert outcome.validation is None
        record = log.decisions[0].find(mutated)
        assert record is None or \
            record.eliminated_by != obs_decisions.VALIDATION

    def test_gate_rejecting_everything_raises(self):
        def sabotage(alt_op):
            for index in range(len(alt_op.regions)):
                sabotage_first_addf(alt_op, index)
            return 0

        engine = TuningEngine(validate=True)
        with pytest.raises(ValueError, match="validation rejected every"):
            self.tune(engine, sabotage=sabotage)

    @staticmethod
    def profile(configs, data):
        """profile_launch k over 8 blocks of 8 threads with the gate on:
        ``(program, out)``."""
        from repro.engine import TuningCache
        from repro.pipeline import Program
        from repro.runtime import GPURuntime

        program = Program(SHARED_KERNEL, A100, autotune_configs=configs,
                          engine=TuningEngine(cache=TuningCache(None),
                                              validate=True))
        rt = GPURuntime(A100)
        src = rt.to_device(data)
        dst = rt.malloc(data.size, np.float32)
        try:
            program.profile_launch("k", 8, 8, [src, dst, data.size],
                                   runtime=rt)
        finally:
            out = rt.to_host(dst)
        return program, out

    def test_profile_launch_raises_when_the_gate_rejects_everything(
            self, monkeypatch):
        """Profile mode runs the gate too. When it rejects every region,
        the tune fails after materialization and profile_launch raises
        instead of launching a region the gate called miscompiled."""
        real = alternatives_mod.PlannedAlternatives.materialize

        def sabotaged(planned, indices):
            alt = real(planned, indices)
            for index in range(len(alt.regions)):
                sabotage_first_addf(alt, index)
            return alt

        monkeypatch.setattr(alternatives_mod.PlannedAlternatives,
                            "materialize", sabotaged)
        data = np.arange(64, dtype=np.float32)
        with pytest.raises(ValueError, match="validation rejected every"):
            self.profile(CONFIGS, data)

    def test_profile_launch_without_a_legal_config_runs_untransformed(self):
        data = np.arange(64, dtype=np.float32)
        program, out = self.profile([{"thread_factors": (3,)}], data)
        expected = np.roll(data.reshape(8, 8), -1, axis=1).ravel() * 2 + 1.5
        np.testing.assert_array_equal(out, expected)
        assert not program.tuning_outcomes
        assert not program.module.op.ops_matching("polygeist.alternatives")


class TestBenchmarkValidation:
    def test_lud_end_to_end(self):
        report = validate_benchmark("lud", A100)
        assert report.ok, report.summary()
        assert not report.baseline_note
        assert any(v.status == OK for v in report.verdicts)


class TestBenchmarkExecutionErrors:
    """``validate_benchmark`` turns executor failures into notes and
    verdicts, lets every other exception propagate, and ``repro validate``
    fails when no verdict ran."""

    @staticmethod
    def _break_run_gpu(monkeypatch, error, tier=None):
        from repro.benchsuite import get_benchmark

        bench = get_benchmark("nn")
        original = bench.run_gpu

        def run_gpu(program, runtime, inputs, size):
            if tier is None or program.tier == tier:
                raise error
            return original(program, runtime, inputs, size)
        monkeypatch.setattr(bench, "run_gpu", run_gpu)

    def test_baseline_executor_error_is_a_note(self, monkeypatch):
        from repro.interpreter import InterpreterError

        self._break_run_gpu(monkeypatch, InterpreterError("boom"))
        report = validate_benchmark("nn", A100)
        assert report.verdicts == []
        assert report.baseline_note == "InterpreterError: boom"

    def test_cli_exits_nonzero_when_baseline_cannot_run(self, monkeypatch,
                                                        capsys):
        from repro.__main__ import main

        self._break_run_gpu(monkeypatch, IndexError("out-of-bounds access"))
        assert main(["validate", "nn", "--arch", "a100"]) == 1
        captured = capsys.readouterr()
        assert "baseline not executable: IndexError" in captured.out
        assert "nothing validated: IndexError: out-of-bounds access" in \
            captured.err

    @pytest.mark.parametrize("tier", ["polygeist-noopt", "polygeist"])
    def test_unexpected_exception_propagates(self, monkeypatch, tier):
        self._break_run_gpu(monkeypatch, KeyError("harness bug"), tier=tier)
        with pytest.raises(KeyError, match="harness bug"):
            validate_benchmark("nn", A100, configs=[{"thread_total": 2}])

    def test_config_executor_error_is_an_error_verdict(self, monkeypatch):
        from repro.interpreter import ConvergenceError

        self._break_run_gpu(monkeypatch, ConvergenceError("diverged"),
                            tier="polygeist")
        report = validate_benchmark("nn", A100,
                                    configs=[{"thread_total": 2}])
        assert [(v.desc, v.status, v.detail) for v in report.verdicts] == [
            ("thread_total=2", ERROR, "ConvergenceError: diverged")]
        assert not report.ok


class TestCLI:
    def test_validate_benchmark_cli(self, capsys):
        from repro.__main__ import main

        assert main(["validate", "lud", "--arch", "a100"]) == 0
        out = capsys.readouterr().out
        assert "lint:" in out
        assert "validation of lud:" in out

    def test_validate_source_cli(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "k.cu"
        path.write_text(SHARED_KERNEL)
        assert main(["validate", str(path), "--grid", "4",
                     "--block", "8"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out

    def test_tune_validate_cli(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "k.cu"
        path.write_text(SHARED_KERNEL)
        assert main(["tune", str(path), "k", "--grid", "8", "--block", "8",
                     "--max-factor", "4", "--validate"]) == 0
        out = capsys.readouterr().out
        assert "validation of" in out
