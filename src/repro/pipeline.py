"""End-to-end compilation pipeline: CUDA source → tuned, runnable Program.

This is the user-facing equivalent of the paper's Polygeist-GPU driver
(Fig. 4): parse CUDA, build the host+device parallel IR, clean it up,
multi-version each kernel with coarsening alternatives, prune by shared
memory and register pressure, select by timing-driven optimization for the
actual launch geometry, and execute on the simulated GPU.

Optimization tiers mirror the Fig. 16 comparison:

* ``tier="clang"``               — baseline: no parallel-aware optimization;
* ``tier="polygeist-noopt"``     — Polygeist's pre-existing optimizations
  (shared-memory LICM, barrier elimination) but no coarsening;
* ``tier="polygeist"``           — full pipeline with coarsening + TDO;
* ``tier="polygeist-heuristic"`` — coarsening chosen by the static
  heuristic (§VIII-A future work) instead of TDO.

:meth:`Program.profile_launch` additionally provides the paper's Fig. 12
profiling mode, where every surviving alternative is *executed* and timed
before the winner is compiled in.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .autotune import default_configs, tune_wrapper
from .autotune.tdo import (Candidate, NoLegalConfiguration, TuneOutcome,
                          select_fastest)
from .dialects import polygeist
from .engine import TuningEngine, default_engine, stage_timer
from .engine.cache import CacheEntry, source_hash, tuning_key
from .frontend import CodegenError, ModuleGenerator, parse_translation_unit
from .interpreter import Interpreter, MemoryBuffer
from .ir import FloatType, MemRefType, Module, Operation, Value
from .obs import tracer as obs_tracer
from .runtime import DeviceBuffer, GPURuntime
from .simulator.model import InvalidLaunch, ModelCache, SharedModels
from .targets import A100, GPUArchitecture
from .transforms import run_cleanup
from .transforms.coarsen import block_parallels

TIERS = ("clang", "polygeist-noopt", "polygeist", "polygeist-heuristic")

#: most cleaned wrapper functions one process keeps in its memo
_FUNCTION_MEMO_SIZE = 256


class MemoizedFunction:
    """One cleaned wrapper function of the memo.

    ``template`` is a ``func.func`` that sits in no module and is never
    mutated: a :class:`Program` clones it into its own module. ``models``
    models the template's block loops, by ordinal, for every clone.
    """

    __slots__ = ("template", "models")

    def __init__(self, template: Operation):
        self.template = template
        self.models = SharedModels(_block_loops(template))


class FunctionMemo:
    """A bounded, thread-safe LRU of cleaned wrapper functions.

    The key is ``(source hash, wrapper name, cleanup's parallel flag,
    selected coarsening config or None)``: the wrapper name encodes the
    kernel, grid rank and block, and the source hash the defines, so a
    key determines the function it holds.
    """

    def __init__(self, size: int):
        self.size = size
        self._entries: "OrderedDict[tuple, MemoizedFunction]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: tuple) -> Optional[MemoizedFunction]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def store(self, key: tuple, func_op: Operation
              ) -> Tuple[MemoizedFunction, int]:
        """Memoize a clone of ``func_op`` under ``key``. Returns the entry
        the memo now holds (of racing stores, the first wins) and how many
        least recently used entries it evicted."""
        entry = MemoizedFunction(func_op.clone())
        with self._lock:
            entry = self._entries.setdefault(key, entry)
            self._entries.move_to_end(key)
            evicted = 0
            while len(self._entries) > self.size:
                self._entries.popitem(last=False)
                evicted += 1
        return entry, evicted

    def entries(self) -> List[Tuple[tuple, MemoizedFunction]]:
        with self._lock:
            return list(self._entries.items())

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


#: the process's memo: every Program of one source shares its functions
FUNCTION_MEMO = FunctionMemo(_FUNCTION_MEMO_SIZE)


@dataclass
class LaunchResult:
    """Outcome of one :meth:`Program.launch`."""

    kernel: str
    grid: Tuple[int, ...]
    block: Tuple[int, ...]
    kernel_seconds: float
    tuning: Optional[TuneOutcome] = None


class Program:
    """A compiled CUDA program bound to a target architecture."""

    def __init__(self, source: str, arch: GPUArchitecture = A100,
                 tier: str = "polygeist",
                 autotune_configs: Optional[Sequence[Dict]] = None,
                 defines: Optional[Dict[str, object]] = None,
                 engine: Optional[TuningEngine] = None):
        if tier not in TIERS:
            raise ValueError("tier must be one of %s" % (TIERS,))
        self.arch = arch
        self.tier = tier
        self.autotune_configs = list(autotune_configs) \
            if autotune_configs is not None else default_configs()
        self.engine = engine if engine is not None else default_engine()
        self._source_hash = source_hash(source, defines)
        with self.engine.stage("parse"):
            self.unit = parse_translation_unit(source, defines)
            self.generator = ModuleGenerator(self.unit)
        self.module = self.generator.module
        self._interpreter = Interpreter(self.module)
        self._cleaned: Set[str] = set()
        self._tuned: Set[str] = set()
        self._model_cache = ModelCache(arch)
        self.tuning_outcomes: Dict[str, TuneOutcome] = {}
        self.heuristic_choices: Dict[str, object] = {}

    def stats(self) -> Dict[str, object]:
        """Per-stage wall time and cache counters of this program's engine.

        The default engine is process-wide, so the numbers aggregate over
        every :class:`Program` sharing it. Everything comes from the
        engine's single :class:`~repro.obs.metrics.MetricsRegistry`:
        ``stage_seconds``/``stage_calls`` are its ``stage.<name>``
        histograms, ``gauges``/``histograms`` expose the raw instruments,
        and ``cache`` (plus the ``engine.cache.*`` counters) carries the
        tuning cache's hit/miss/evict totals and occupancy.
        """
        snapshot = self.engine.registry.snapshot()
        stages = self.engine.stages()
        cache_stats = self.engine.cache.stats()
        counters = snapshot["counters"]
        counters.update({"engine.cache.%s" % name: cache_stats[name]
                         for name in ("hits", "misses", "stores",
                                      "evictions", "dump_errors")})
        return {
            "stage_seconds": {name: summary["total"]
                              for name, summary in stages.items()},
            "stage_calls": {name: int(summary["count"])
                            for name, summary in stages.items()},
            "counters": counters,
            "gauges": snapshot["gauges"],
            "histograms": snapshot["histograms"],
            "cache": cache_stats,
        }

    def _run_cleanup(self, func_name: str, parallel: bool) -> None:
        """Clean function ``func_name``: the only function the rewrite
        before it changed, since every function is isolated from above."""
        # the function is no longer its memo template's clone
        self._model_cache.unlink(func_name)
        with self.engine.stage("cleanup"):
            run_cleanup(self.module.func(func_name),
                        parallel_optimizations=parallel)
        # every IR rewrite ends in a cleanup: blocks the interpreter
        # compiled before it may have changed
        self._interpreter.forget_plans()

    def _clean_once(self, func_name: str, parallel: bool) -> None:
        """Clean function ``func_name`` the first time it is used."""
        if func_name not in self._cleaned:
            self._run_cleanup(func_name, parallel)
            self._cleaned.add(func_name)

    # -- memoized wrapper functions ------------------------------------------------

    def _wrapper(self, kernel: str, grid_rank: int, block: Tuple[int, ...],
                 parallel: bool) -> str:
        """The name of ``kernel``'s launch wrapper over ``block``, cleaned
        in this module on first use: cloned from the memo, or generated,
        cleaned and memoized."""
        name = self.generator.launch_wrapper_name(kernel, grid_rank, block)
        if name not in self._cleaned:
            key = (self._source_hash, name, parallel, None)
            if not self._adopt(kernel, grid_rank, block, key):
                self.generator.get_launch_wrapper(kernel, grid_rank, block)
                self._run_cleanup(name, parallel)
                self._memoize(key, name)
            self._cleaned.add(name)
        return name

    def _adopt(self, kernel: str, grid_rank: int, block: Tuple[int, ...],
               key: tuple) -> bool:
        """Clone the memo's function of ``key`` into this module, if the
        memo holds one; its loops share the memoized models."""
        entry = FUNCTION_MEMO.get(key)
        counter = self.engine.registry.counter
        if entry is None:
            counter("pipeline.function_memo.misses").inc()
            return False
        counter("pipeline.function_memo.hits").inc()
        func_op = entry.template.clone()
        self.generator.adopt_launch_wrapper(kernel, grid_rank, block,
                                            func_op)
        self._link(func_op, entry)
        return True

    def _memoize(self, key: tuple, func_name: str) -> None:
        """Memoize function ``func_name`` as built here under ``key``."""
        func_op = self.module.func(func_name)
        entry, evicted = FUNCTION_MEMO.store(key, func_op)
        if evicted:
            self.engine.registry.counter(
                "pipeline.function_memo.evictions").inc(evicted)
        self._link(func_op, entry)

    def _link(self, func_op: Operation, entry: MemoizedFunction) -> None:
        """Model ``func_op``'s loops with ``entry``'s shared models until
        :meth:`_run_cleanup` cleans it after a rewrite."""
        self._model_cache.link(func_op.attr("sym_name"),
                               _block_loops(func_op), entry.models)

    # -- kernel launches ---------------------------------------------------------

    def launch(self, kernel: str, grid, block, args: Sequence[object],
               runtime: Optional[GPURuntime] = None) -> LaunchResult:
        """Launch ``kernel`` over ``grid`` × ``block`` with ``args``.

        Executes functionally on the simulated device and charges modeled
        kernel time to ``runtime`` (one is created on the fly if omitted).
        """
        grid = _as_dims(grid)
        block = _as_dims(block)
        if runtime is None:
            runtime = GPURuntime(self.arch)
        wrapper_name = self._prepare(kernel, grid, block)
        coerced, writeback = self._coerce_args(wrapper_name, grid, args)
        before = runtime.kernel_seconds
        self._execute(wrapper_name, coerced, writeback, runtime)
        return LaunchResult(kernel, grid, block,
                            runtime.kernel_seconds - before,
                            self.tuning_outcomes.get(wrapper_name))

    def _prepare(self, kernel: str, grid: Tuple[int, ...],
                 block: Tuple[int, ...]) -> str:
        """The launch wrapper of ``kernel`` over ``block``, cleaned and
        (per the tier) tuned for ``grid`` on first use."""
        if self.tier == "polygeist":
            return self._tuned_wrapper(kernel, block,
                                       grid_table(kernel, [grid]))
        wrapper_name = self._wrapper(kernel, len(grid), block,
                                     self.tier != "clang")
        if self.tier == "polygeist-heuristic" and \
                wrapper_name not in self._tuned:
            self._tune_heuristic(wrapper_name)
        return wrapper_name

    def profile_launch(self, kernel: str, grid, block,
                       args: Sequence[object],
                       runtime: Optional[GPURuntime] = None,
                       runs_per_alternative: int = 1) -> LaunchResult:
        """The paper's profiling mode (§VI, Fig. 12), end to end.

        The first launch of a wrapper tunes it through
        :func:`~repro.autotune.tdo.tune_wrapper`, so the alternatives are
        planned, pruned and (with ``engine.validate``) validated exactly
        as for TDO; only the ranking step differs: each surviving
        alternative is *executed* on the simulated device and timed, and
        the fastest is then selected into place — the "execute each
        alternative one or more times, select the best, call the compiler
        again to remove the others" flow. Subsequent :meth:`launch` calls
        run the winner. A wrapper with no legal coarsening config runs
        untransformed; a tune that fails later (e.g. the validation gate
        rejects every alternative) raises.
        """
        grid = _as_dims(grid)
        block = _as_dims(block)
        wrapper_name = self._wrapper(kernel, len(grid), block, True)
        if wrapper_name not in self._tuned:
            f = self.module.func(wrapper_name)
            wrappers = polygeist.find_gpu_wrappers(f)
            if wrappers:
                coerced, _ = self._coerce_args(wrapper_name, grid, args)
                env = dict(zip(f.body_block().args[:len(grid)], grid))
                try:
                    outcome = tune_wrapper(
                        wrappers[0], self.arch, env, self.autotune_configs,
                        engine=self.engine,
                        rank=self._profiling_rank(wrapper_name, coerced,
                                                  runs_per_alternative))
                    self._run_cleanup(wrapper_name, True)
                    self.tuning_outcomes[wrapper_name] = outcome
                except NoLegalConfiguration:
                    pass  # nothing was materialized: run it untransformed
            self._tuned.add(wrapper_name)
        return self.launch(kernel, grid, block, args, runtime=runtime)

    def _profiling_rank(self, wrapper_name: str, coerced: List[object],
                        runs: int):
        """:func:`~repro.autotune.tdo.tune_wrapper`'s ranking step for
        :meth:`profile_launch`: run the wrapper ``runs`` times per region
        on ``coerced`` and rank the regions by their mean kernel time."""
        def rank(alt, arch, env) -> TuneOutcome:
            # snapshot device state: profiling runs are discarded
            snapshots = [(value, np.array(value.array)) for value in coerced
                         if isinstance(value, MemoryBuffer)]
            candidates = []
            saved_tracer = self._interpreter.tracer
            saved_selector = self._interpreter.alternative_selector
            try:
                for index, desc in enumerate(
                        polygeist.alternative_descs(alt)):
                    self._interpreter.alternative_selector = \
                        _fixed_selector(index)
                    probe = GPURuntime(arch)
                    self._interpreter.tracer = probe.tracer
                    with obs_tracer.span("profile.alternative",
                                         category="profile", desc=desc,
                                         runs=runs):
                        for _ in range(runs):
                            self._interpreter.run_func(wrapper_name,
                                                       list(coerced))
                            # restore device state after EVERY run:
                            # non-idempotent kernels (accumulators) would
                            # otherwise time runs 2..N on mutated inputs
                            for buffer, snapshot in snapshots:
                                buffer.array[...] = snapshot
                    candidates.append(Candidate(
                        index, desc, probe.kernel_seconds / runs, True))
            finally:
                self._interpreter.tracer = saved_tracer
                self._interpreter.alternative_selector = saved_selector
                # the compiled regions are about to be spliced or dropped
                self._interpreter.forget_plans()
            return select_fastest(alt, candidates, "profiled")
        return rank

    def tune_aggregate(self, kernel: str, block, grids) -> None:
        """Tune a kernel's wrapper over a whole set of launch geometries.

        This is the paper's profiling mode: alternatives are ranked by
        their time summed over every launch of the application (important
        when grids shrink across launches, as in gaussian). ``grids`` is
        a sequence of grids or a :func:`grid_table`; grids of different
        ranks raise ``ValueError``. A tune that raises leaves the wrapper
        untuned, so asking again raises again.
        """
        block = _as_dims(block)
        if not len(grids):
            return
        table = grid_table(kernel, grids)
        if self.tier == "polygeist":
            self._tuned_wrapper(kernel, block, table)
        else:
            self._wrapper(kernel, table.shape[1], block,
                          self.tier != "clang")

    def _tuned_wrapper(self, kernel: str, block: Tuple[int, ...],
                       table: np.ndarray) -> str:
        """The name of ``kernel``'s launch wrapper over ``block``, tuned
        for the launches of ``table`` on first use."""
        grid_rank = table.shape[1]
        wrapper_name = self.generator.launch_wrapper_name(kernel, grid_rank,
                                                          block)
        if wrapper_name not in self._tuned:
            outcome = self._tune_with_cache(kernel, grid_rank, block,
                                            wrapper_name, table)
            if outcome is not None:
                self.tuning_outcomes[wrapper_name] = outcome
            self._tuned.add(wrapper_name)
        return wrapper_name

    def model_launch(self, kernel: str, grid, block,
                     runtime: Optional[GPURuntime] = None):
        """Model a launch analytically without executing it.

        Used for paper-scale problem sizes where functional interpretation
        would be too slow; tunes on first use exactly like :meth:`launch`
        and returns a :class:`~repro.simulator.model.LaunchTiming`.
        """
        timing, = self.model_launches(kernel, block, [_as_dims(grid)])
        if runtime is not None:
            runtime.tracer.kernel_seconds += timing.time_seconds
        return timing

    def model_launches(self, kernel: str, block, grids) -> list:
        """:meth:`model_launch` of each of ``grids`` (a sequence of grids
        or a :func:`grid_table`), from one scorer pass over the group."""
        return self._model_group(kernel, block, grids, timings=True)

    def model_launch_seconds(self, kernel: str, block,
                             grids) -> List[float]:
        """Modeled seconds for many launches of one kernel × block shape.

        Produces exactly ``[self.model_launch(kernel, g, block)
        .time_seconds for g in grids]`` — same floats, same tuning side
        effects, same failure points — but with one wrapper lookup and
        one :class:`~repro.simulator.batch.LaunchScorer` pass (one block-
        count matrix, one vectorized timing) for the whole group instead
        of a full walk per launch. This is the composite-modeling hot
        path of :func:`repro.benchsuite.base.simulate_composite`.
        ``grids`` is a sequence of grids or a :func:`grid_table`; grids
        of different ranks raise ``ValueError``.
        """
        return self._model_group(kernel, block, grids, timings=False)

    def _model_group(self, kernel: str, block, grids, timings: bool) -> list:
        """``env_timings`` or ``env_seconds`` of ``grids`` through one
        scorer over ``kernel``'s wrapper; an InvalidLaunch is raised."""
        from .simulator.batch import LaunchScorer
        from .simulator.model import UNEVALUABLE_GRID
        block = _as_dims(block)
        if not len(grids):
            return []
        table = grid_table(kernel, grids)
        wrapper_name = self._prepare(kernel, tuple(table[0].tolist()),
                                     block)
        f = self.module.func(wrapper_name)
        wrappers = polygeist.find_gpu_wrappers(f)
        if not wrappers:
            raise InvalidLaunch("no GPU wrapper in %s" % wrapper_name)
        envs = self._launch_envs(f, table)
        with obs_tracer.span("model.launch_group", category="simulator",
                             launches=len(envs)):
            scorer = LaunchScorer(envs, self.arch, self._model_cache,
                                  UNEVALUABLE_GRID)
            scorer.add(block_parallels(wrappers[0]))
            result, = scorer.env_timings() if timings else \
                scorer.env_seconds()
            if isinstance(result, InvalidLaunch):
                raise result
        return result

    def loop_model(self, loop: Operation):
        """The :class:`~repro.simulator.model.KernelModel` of ``loop``, a
        block loop of this module: the one its modeling uses, shared with
        every Program whose function came from the same memo entry."""
        return self._model_cache.model(loop)

    @staticmethod
    def _launch_envs(f: Operation, table: np.ndarray):
        """The launches of ``table`` bound to wrapper function ``f``'s
        grid arguments."""
        from .simulator.model import LaunchEnvs
        return LaunchEnvs(f.body_block().args[:table.shape[1]], table)

    def _tune_heuristic(self, wrapper_name: str) -> None:
        """Apply the static heuristic (SVIII-A future work) in place."""
        from .autotune import heuristic_tune
        self._tuned.add(wrapper_name)
        f = self.module.func(wrapper_name)
        wrappers = polygeist.find_gpu_wrappers(f)
        if not wrappers:
            return
        choice = heuristic_tune(wrappers[0], self.arch)
        self._run_cleanup(wrapper_name, True)
        self.heuristic_choices[wrapper_name] = choice

    # -- cached tuning ------------------------------------------------------------

    def _tuning_key(self, wrapper_name: str,
                    grids: Sequence[Tuple[int, ...]]) -> str:
        return tuning_key(self._source_hash, self.arch, self.tier,
                          self.autotune_configs, wrapper_name, grids)

    def _tune_with_cache(self, kernel: str, grid_rank: int,
                         block: Tuple[int, ...], wrapper_name: str,
                         table: np.ndarray) -> Optional[TuneOutcome]:
        """Tune one wrapper over the launches of ``table``, consulting the
        engine's tuning cache.

        On a hit the cached winner's coarsening is replayed directly on
        the wrapper — no alternative generation, filtering, or TDO runs at
        all. Only "no legal configuration" is cached, as a negative entry;
        every other tune error propagates uncached, so warm fails as cold.
        """
        cache = self.engine.cache
        counter = self.engine.registry.counter
        # a table's rows encode to the same JSON as grid tuples, so the
        # key (and every on-disk entry) does not depend on the grids' form
        key = self._tuning_key(wrapper_name, table.tolist())
        hit, entry = cache.lookup(key)
        if hit and (entry.outcome is None or
                    entry.selected_config is not None):
            counter("cache_hits").inc()
            return self._replay_cached(key, kernel, grid_rank, block,
                                       wrapper_name, entry)
        counter("cache_misses").inc()
        self._wrapper(kernel, grid_rank, block, True)
        f = self.module.func(wrapper_name)
        try:
            outcome = tune_wrapper(_gpu_wrapper(f), self.arch,
                                   self._launch_envs(f, table),
                                   self.autotune_configs,
                                   engine=self.engine)
        except NoLegalConfiguration:
            cache.store(key, CacheEntry(None, None))
            return None  # nothing was materialized: keep the kernel
        self._run_cleanup(wrapper_name, True)
        cache.store(key, CacheEntry(outcome, outcome.selected_config))
        return outcome

    def _replay_cached(self, key: str, kernel: str, grid_rank: int,
                       block: Tuple[int, ...], wrapper_name: str,
                       entry: CacheEntry) -> Optional[TuneOutcome]:
        """Apply a cached tuning decision to the wrapper: clone the
        memoized winner, or replay the winner's coarsening on the untuned
        wrapper and memoize the result. A config that does not apply
        raises, naming ``key`` and the config."""
        if entry.outcome is None:
            # no legal configuration for this key: the kernel stays as is
            self._wrapper(kernel, grid_rank, block, True)
            return None
        from .transforms.coarsen import CoarsenError, coarsen_wrapper
        config = {name: tuple(value) if isinstance(value, list) else value
                  for name, value in entry.selected_config.items()}
        memo_key = (self._source_hash, wrapper_name, True,
                    tuple(sorted(config.items())))
        if wrapper_name not in self._cleaned and \
                self._adopt(kernel, grid_rank, block, memo_key):
            self._cleaned.add(wrapper_name)
            return entry.outcome
        self._wrapper(kernel, grid_rank, block, True)
        with self.engine.stage("replay"):
            try:
                coarsen_wrapper(_gpu_wrapper(self.module.func(wrapper_name)),
                                **config)
            except CoarsenError as error:
                raise CoarsenError(
                    "cached config %r of tuning key %s does not apply: %s"
                    % (config, key, error)) from error
        self._run_cleanup(wrapper_name, True)
        self._memoize(memo_key, wrapper_name)
        return entry.outcome

    def _coerce_args(self, wrapper_name: str, grid: Tuple[int, ...],
                     args: Sequence[object]):
        params = self.module.func(wrapper_name).body_block().args
        expected = len(params) - len(grid)
        if len(args) != expected:
            raise TypeError("%s expects %d kernel arguments, got %d" %
                            (wrapper_name, expected, len(args)))
        coerced, writeback = _coerce(params[len(grid):], args)
        return list(grid) + coerced, writeback

    def _execute(self, func_name: str, coerced: List[object],
                 writeback, runtime: GPURuntime) -> List[object]:
        """Interpret ``func_name``, charging kernel time to ``runtime``,
        then copy the buffers back into the numpy arrays they wrap."""
        saved = self._interpreter.tracer
        self._interpreter.tracer = runtime.tracer
        try:
            results = self._interpreter.run_func(func_name, coerced)
        finally:
            self._interpreter.tracer = saved
        for array, buffer in writeback:
            array[...] = buffer.array.reshape(array.shape)
        return results

    # -- host-driven execution ---------------------------------------------------

    def run_host(self, func_name: str, args: Sequence[object],
                 runtime: Optional[GPURuntime] = None) -> List[object]:
        """Run a host C function (with its inlined launches) end to end.

        Host-driven flows have data-dependent grids, so coarsening with TDO
        is skipped; the cleanup tier still applies.
        """
        if runtime is None:
            runtime = GPURuntime(self.arch)
        if not self.module.has_func(func_name):
            self.generator.emit_host_function(func_name)
        self._clean_once(func_name, self.tier != "clang")
        coerced, writeback = _coerce(
            self.module.func(func_name).body_block().args, args)
        return self._execute(func_name, coerced, writeback, runtime)

    def kernels(self) -> List[str]:
        return [f.name for f in self.unit.kernels()]


def _gpu_wrapper(func_op: Operation) -> Operation:
    """The ``polygeist.gpu_wrapper`` of launch wrapper function
    ``func_op``: codegen inlines each launch into exactly one, and no
    rewrite removes it."""
    return polygeist.find_gpu_wrappers(func_op)[0]


def _block_loops(func_op: Operation) -> List[Operation]:
    """The block loops of launch wrapper function ``func_op``, in order."""
    return block_parallels(_gpu_wrapper(func_op))


def _fixed_selector(index: int):
    """An alternative_selector that always picks region ``index``.

    Raises instead of clamping: silently picking a different region than
    requested would attribute one alternative's timing to another.
    """
    def select(op):
        if not 0 <= index < len(op.regions):
            raise IndexError(
                "alternative index %d out of range: op has %d regions"
                % (index, len(op.regions)))
        return index
    return select


def _coerce(params: Sequence, args: Sequence[object]
            ) -> Tuple[List[object], List[Tuple[np.ndarray, MemoryBuffer]]]:
    """Interpreter values for ``args`` bound to ``params``, plus the
    ``(array, buffer)`` pairs whose buffer must be copied back into a
    numpy array after the run."""
    coerced: List[object] = []
    writeback: List[Tuple[np.ndarray, MemoryBuffer]] = []
    for param, value in zip(params, args):
        type_ = param.type
        if isinstance(type_, MemRefType):
            if isinstance(value, DeviceBuffer):
                value = value.buffer
            elif isinstance(value, np.ndarray):
                buffer = MemoryBuffer(value.shape, _element_for(value.dtype),
                                      "global", data=value)
                writeback.append((value, buffer))
                value = buffer
            elif not isinstance(value, MemoryBuffer):
                raise TypeError("expected a buffer for %r" % param.name_hint)
            coerced.append(value)
        elif isinstance(type_, FloatType):
            coerced.append(np.float32(value) if type_.width == 32
                           else np.float64(value))
        else:  # index and integer parameters
            coerced.append(int(value))
    return coerced, writeback


def grid_table(kernel: str, grids) -> np.ndarray:
    """``grids``, one launch group's grids, as an int64 table with one
    row per launch; a table passes through as it is.

    Raises ``ValueError`` naming ``kernel`` and the ranks when the grids
    differ in rank, and when the rank is not 1 to 3.
    """
    try:
        table = np.asarray(grids, dtype=np.int64)
    except (TypeError, ValueError):
        table = None  # ragged, or a mix of ints and tuples
    if table is None or table.ndim != 2:
        dims = [_as_dims(grid) for grid in grids]
        ranks = sorted({len(grid) for grid in dims})
        if len(ranks) > 1:
            raise ValueError("the launch group of %s mixes grid ranks %s"
                             % (kernel, ", ".join(map(str, ranks))))
        table = np.array(dims, dtype=np.int64)
    if not 1 <= table.shape[1] <= 3:
        raise ValueError("grid/block must have 1 to 3 dimensions")
    return table


def _as_dims(value) -> Tuple[int, ...]:
    if isinstance(value, int):
        return (value,)
    dims = tuple(int(v) for v in value)
    if not 1 <= len(dims) <= 3:
        raise ValueError("grid/block must have 1 to 3 dimensions")
    return dims


def _element_for(dtype):
    from .ir import F32, F64, INDEX
    dtype = np.dtype(dtype)
    if dtype == np.float32:
        return F32
    if dtype == np.float64:
        return F64
    if dtype in (np.dtype(np.int32), np.dtype(np.int64)):
        return INDEX
    raise TypeError("unsupported array dtype %s" % dtype)


@dataclass
class LaunchWrapper:
    """One kernel's launch wrapper, generated from source and cleaned."""

    module: Module
    name: str
    #: the ``polygeist.gpu_wrapper`` op inside function ``name``
    wrapper: Operation

    def env(self, grid: Sequence[int]) -> Dict[Value, int]:
        """The launch environment binding the grid arguments to ``grid``."""
        args = self.module.func(self.name).body_block().args
        return dict(zip(args[:len(grid)], grid))


def first_kernel(unit) -> str:
    """The name of the parsed ``unit``'s first ``__global__`` kernel: the
    kernel every tool given source but no kernel name works on."""
    kernels = unit.kernels()
    if not kernels:
        raise CodegenError("no __global__ kernels found")
    return kernels[0].name


def build_launch_wrapper(source: str, kernel: Optional[str],
                         grid_rank: int, block: Sequence[int],
                         engine: Optional[TuningEngine] = None
                         ) -> LaunchWrapper:
    """Parse ``source``, generate ``kernel``'s launch wrapper over
    ``block`` and clean its function: where every tool that transforms a
    single kernel outside a :class:`Program` starts.

    ``kernel=None`` picks the source's first kernel. ``engine`` times the
    parse and cleanup stages into its registry.
    """
    stage = stage_timer(engine)
    with stage("parse"):
        unit = parse_translation_unit(source)
        generator = ModuleGenerator(unit)
    if kernel is None:
        kernel = first_kernel(unit)
    name = generator.get_launch_wrapper(kernel, grid_rank, tuple(block))
    func_op = generator.module.func(name)
    with stage("cleanup"):
        run_cleanup(func_op)
    wrapper = _gpu_wrapper(func_op)
    return LaunchWrapper(generator.module, name, wrapper)


def compile_cuda(source: str, arch: Optional[GPUArchitecture] = None,
                 **kwargs) -> Program:
    """Compile CUDA source text into a :class:`Program`."""
    return Program(source, arch=arch or A100, **kwargs)
