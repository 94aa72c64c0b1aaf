"""Batched (vectorized) evaluation of the analytical timing model.

This module holds the product's one copy of the timing formula.
:class:`BatchedKernelModel` stacks the launch-count-independent
:class:`~repro.simulator.model.LaunchFeatures` of many models into numpy
arrays and evaluates *all* requested (model, num_blocks) pairs in one
array pass. One launch is a one-row batch:
:meth:`~repro.simulator.model.KernelModel.time_launch` derives its
metrics and breakdown from the terms :meth:`BatchedKernelModel.times`
returns.

:class:`LaunchScorer` is what the ranking consumers use: it scores
candidates (each a list of block-level loops, e.g. one coarsening
alternative or one tuned wrapper) over a set of launch environments.
Each candidate becomes an (envs × loops) block-count matrix, and every
launching entry of every candidate is timed in one
:class:`BatchedKernelModel` pass. The block counts are evaluated over
int64 grid columns: a launch group's
:class:`~repro.simulator.model.LaunchEnvs` gives its table's columns as
they are, and a sequence of env dicts is stacked once, on construction.

The scorer is the one walk of a wrapper's loops: its
:meth:`~LaunchScorer.env_timings` folds the loops' full
:meth:`BatchedKernelModel.fields` the way it folds their seconds.

The scalar one-launch-at-a-time formula lives on only as the test
oracle (``tests/scalar_oracle.py``): the equivalence suite substitutes
it for the scorer in TDO, composite modeling and the Fig. 13-15 cutoff,
and holds the two to ``==`` results. The oracle shares this module's
operand grouping, the integer ceil division's ``-(-n // d)`` idiom and
the cached ``LaunchFeatures`` of every model, so IEEE-754 float64
arithmetic gives the same bits on both.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Union

import numpy as np

from ..ir import Operation, Value
from ..obs import tracer as obs_tracer
from ..targets import GPUArchitecture, Occupancy
from .metrics import KernelMetrics
from .model import (LAUNCH_OVERHEAD, OVERLAP_LEAK, InvalidLaunch,
                    KernelModel, LaunchEnvs, LaunchTiming, block_counts,
                    env_columns)

#: LaunchFeatures fields stacked as float64 columns
_FLOAT_FIELDS = (
    "compute_cycles_per_block",
    "compute_util",
    "rw_bytes",
    "inflight_bytes_per_sm",
    "dram_latency_seconds",
    "peak_bandwidth",
    "shared_bytes",
    "shared_bw_per_sm",
    "bank_conflicts",
    "lds_offload_penalty",
    "block_latency_cycles",
    "clock",
    # read only by the counters
    "read_bytes", "write_bytes", "read_requests", "write_requests",
)
#: LaunchFeatures fields stacked as int64 columns
_INT_FIELDS = ("wave_divisor", "num_sms", "blocks_per_sm")

_METRICS = tuple(vars(KernelMetrics()))
#: KernelMetrics counters: a per-block column times the block count. No
#: cache hits are modeled: every transferred byte reaches DRAM
_PER_BLOCK = {
    "l2_to_l1_read_bytes": "read_bytes", "dram_read_bytes": "read_bytes",
    "l1_to_l2_write_bytes": "write_bytes", "dram_write_bytes": "write_bytes",
    "l1_to_sm_read_requests": "read_requests",
    "sm_to_l1_write_requests": "write_requests",
    "shmem_to_sm_read_requests": "shared_read_requests",
    "sm_to_shmem_write_requests": "shared_write_requests"}
#: KernelMetrics fields a launch carries as its model has them
_CARRIED = ("occupancy", "registers_per_thread", "shared_bytes_per_block",
            "threads_per_block")
#: the fields that keep their peak when merged; the rest add up
_PEAK_FIELDS = ("lsu_utilization", "fma_utilization") + _CARRIED
#: LaunchTiming.breakdown keys, in order
_BREAKDOWN = ("compute", "memory", "shared", "latency", "overhead")


class BatchedKernelModel:
    """Scores many (model, num_blocks) launches in one numpy pass.

    Usage: intern each distinct :class:`KernelModel` with
    :meth:`add_model` (idempotent per instance), then call :meth:`times`
    with parallel arrays of model rows and block counts. Feature columns
    are built lazily and invalidated by further ``add_model`` calls, so
    interning and scoring can interleave.
    """

    def __init__(self) -> None:
        self._models: List[KernelModel] = []
        self._rows: Dict[int, int] = {}
        self._columns: Dict[str, np.ndarray] = {}
        self._metric_columns: Dict[str, np.ndarray] = {}

    def add_model(self, model: KernelModel) -> int:
        """Intern ``model`` and return its row index (stable per instance)."""
        row = self._rows.get(id(model))
        if row is None:
            row = len(self._models)
            self._models.append(model)
            self._rows[id(model)] = row
            self._columns = {}
            self._metric_columns = {}
        return row

    # built whole, then published: a KernelModel's one-row batch may be
    # read by several threads

    def _column_view(self) -> Dict[str, np.ndarray]:
        if not self._columns:
            feats = [model.features() for model in self._models]
            columns = {name: np.array([getattr(f, name) for f in feats],
                                      dtype=np.float64)
                       for name in _FLOAT_FIELDS}
            for name in _INT_FIELDS:
                columns[name] = np.array([getattr(f, name) for f in feats],
                                         dtype=np.int64)
            columns["lds_offloaded"] = np.array(
                [f.lds_offloaded for f in feats], dtype=bool)
            self._columns = columns
        return self._columns

    def _metric_view(self) -> Dict[str, np.ndarray]:
        """Per model: what the counters read beyond its LaunchFeatures."""
        if not self._metric_columns:
            models = self._models

            def column(values, dtype=np.float64):
                return np.array([values(m) for m in models], dtype=dtype)

            self._metric_columns = {
                "shared_read_requests": column(
                    lambda m: m.stats.loads_shared * m.threads_per_block),
                "shared_write_requests": column(
                    lambda m: m.stats.stores_shared * m.threads_per_block),
                "occupancy": column(lambda m: m.occupancy.occupancy),
                "registers_per_thread": column(
                    lambda m: m.registers.registers_per_thread, np.int64),
                "shared_bytes_per_block": column(
                    lambda m: m.shared_per_block, np.int64),
                "threads_per_block": column(
                    lambda m: m.threads_per_block, np.int64)}
        return self._metric_columns

    def times(self, model_rows: Sequence[int],
              num_blocks: Sequence[int]) -> Dict[str, np.ndarray]:
        """The timing terms of each (model row, block count) pair.

        Returns float64 arrays keyed ``compute``, ``memory`` and
        ``shared`` (the three pipelines' seconds), ``latency`` (the
        latency floor), ``busy`` (the overlapped pipelines, at least the
        floor) and ``time`` (busy plus the launch overhead: the modeled
        seconds). A row launching ``num_blocks <= 0`` blocks times to
        0.0; its other terms are those of one block. Callers must have
        run :meth:`KernelModel.ensure_launchable` first, which this
        re-checks defensively.
        """
        idx = np.asarray(model_rows, dtype=np.intp)
        nb = np.asarray(num_blocks, dtype=np.int64)
        cols = self._column_view()

        blocks_per_sm = cols["blocks_per_sm"][idx]
        bad = (blocks_per_sm == 0) & (nb > 0)
        if bad.any():
            self._models[int(idx[int(np.argmax(bad))])].ensure_launchable()
        # zero/negative block counts time to 0.0; clamp so the shared
        # arithmetic below never divides by zero
        nb_safe = np.maximum(nb, 1)

        sms_used = np.minimum(cols["num_sms"][idx], nb_safe)
        compute_seconds = cols["compute_cycles_per_block"][idx] * nb_safe / \
            (sms_used * cols["clock"][idx] * cols["compute_util"][idx])

        total_bytes = cols["rw_bytes"][idx] * nb_safe
        achievable_bw = sms_used * cols["inflight_bytes_per_sm"][idx] / \
            cols["dram_latency_seconds"][idx]
        achieved_bw = np.minimum(cols["peak_bandwidth"][idx], achievable_bw)
        memory_seconds = np.where(total_bytes != 0.0,
                                  total_bytes / achieved_bw, 0.0)

        shared_nb = cols["shared_bytes"][idx] * nb_safe
        offloaded = cols["lds_offloaded"][idx]
        # AMD LDS offload: shared memory demoted to global memory is both
        # slower and bandwidth-consuming. Both branches are evaluated
        # dense, then selected
        shared_off = shared_nb * cols["lds_offload_penalty"][idx] / \
            achieved_bw
        memory_off = (total_bytes + shared_nb) / achieved_bw
        shared_on = shared_nb * cols["bank_conflicts"][idx] / \
            (sms_used * cols["shared_bw_per_sm"][idx])
        shared_seconds = np.where(offloaded, shared_off, shared_on)
        memory_seconds = np.where(offloaded, memory_off, memory_seconds)

        waves = -(-nb_safe // cols["wave_divisor"][idx])
        latency_floor = waves * cols["block_latency_cycles"][idx] / \
            cols["clock"][idx]

        # compute / global-memory / shared-memory pipelines overlap, but
        # imperfectly: the dominant one sets the pace and the others leak
        # through (issue slots, LSU contention). The per-block dependence
        # chain is a separate lower bound.
        dominant = np.maximum(np.maximum(compute_seconds, memory_seconds),
                              shared_seconds)
        work_sum = compute_seconds + memory_seconds + shared_seconds
        busy = dominant + OVERLAP_LEAK * (work_sum - dominant)
        busy = np.maximum(busy, latency_floor)
        time = np.where(nb > 0, busy + LAUNCH_OVERHEAD, 0.0)
        return {"compute": compute_seconds, "memory": memory_seconds,
                "shared": shared_seconds, "latency": latency_floor,
                "busy": busy, "time": time}

    def fields(self, model_rows: Sequence[int],
               num_blocks: Sequence[int]) -> Dict[str, np.ndarray]:
        """Every :class:`~repro.simulator.model.LaunchTiming` number of
        each (model row, block count > 0) pair, by name, from one
        :meth:`times` pass: the KernelMetrics fields and breakdown terms."""
        terms = self.times(model_rows, num_blocks)
        idx = np.asarray(model_rows, dtype=np.intp)
        nb = np.asarray(num_blocks, dtype=np.int64)
        cols = dict(self._column_view(), **self._metric_view())
        busy = terms["busy"]
        busy_safe = np.where(busy != 0.0, busy, 1.0)
        fields = {"time_seconds": terms["time"], "num_blocks": nb,
                  "overhead": np.full(nb.shape, LAUNCH_OVERHEAD)}
        for name, column in _PER_BLOCK.items():
            fields[name] = cols[column][idx] * nb
        for name in _CARRIED:
            fields[name] = cols[name][idx]
        for key in ("compute", "memory", "shared", "latency"):
            fields[key] = terms[key]
        for name, term in (("lsu_utilization", "memory"),
                           ("fma_utilization", "compute")):
            fields[name] = np.minimum(1.0, np.where(
                busy != 0.0, terms[term] / busy_safe, 0.0))
        return fields


def _fold(fields: Dict[str, np.ndarray], mask) -> Dict[str, np.ndarray]:
    """Each field's values laid out at ``mask``'s cells of a zero matrix,
    folded over its columns from zero, left to right: peak fields by
    ``max``, the rest by ``+`` (values are non-negative)."""
    folded = {}
    for name, values in fields.items():
        matrix = np.zeros(mask.shape, dtype=values.dtype)
        matrix[mask] = values
        combine = np.maximum if name in _PEAK_FIELDS else np.add
        total = np.zeros(len(matrix), dtype=values.dtype)
        for column in range(matrix.shape[1]):
            total = combine(total, matrix[:, column])
        folded[name] = total
    return folded


def launch_timings(folded: Dict[str, np.ndarray],
                   occupancies: list) -> List[LaunchTiming]:
    """A LaunchTiming per row of (folded) ``fields``, given each row's
    first launching loop's occupancy; ``None`` gives an all-zero one and
    an empty breakdown."""
    columns = {name: values.tolist() for name, values in folded.items()}
    timings = []
    for row, occupancy in enumerate(occupancies):
        metrics = KernelMetrics(*(columns[name][row] for name in _METRICS))
        breakdown = {key: columns[key][row] for key in _BREAKDOWN}
        if occupancy is None:
            occupancy, breakdown = Occupancy(0, 0, 0.0, "none"), {}
        timings.append(LaunchTiming(metrics.time_seconds, occupancy,
                                    metrics, breakdown))
    return timings


def merge_timings(timings: Sequence[LaunchTiming]) -> LaunchTiming:
    """Many launches as one, folded in order like a wrapper's loops, with
    the occupancy of the first launch that ran blocks."""
    rows = [dict(vars(timing.metrics), **timing.breakdown)
            for timing in timings]
    folded = _fold({name: np.array([row.get(name, 0.0) for row in rows])
                    for name in _METRICS + _BREAKDOWN},
                   np.ones((1, len(rows)), dtype=bool))
    launched = [timing.occupancy for timing in timings if timing.breakdown]
    return launch_timings(folded, launched[:1] or [None])[0]


class LaunchScorer:
    """Per-env modeled seconds of many candidates, scored in one batch.

    A candidate is a sequence of block-level loops run one after another
    per launch (a wrapper's main loop and its epilogues). Its seconds in
    one env are those of walking the loops in order, adding each
    launching loop's time to a running total from ``0.0``, and stopping
    at the first failure: an unevaluable grid (reported as
    ``unevaluable``), or a launching loop whose model cannot be built or
    cannot launch. Loops
    that launch 0 blocks are skipped and need no model. ``models``
    caches :class:`KernelModel` instances by the loop's
    :meth:`~repro.ir.Operation.stable_uid` and is filled as loops are
    modeled.

    :meth:`add` builds the candidate's (envs × loops) block-count matrix
    and finds that first failure in env-outer, loop-inner order without a
    per-entry Python loop: models are built, in visit order, only for
    loops whose first launch comes before the first unevaluable grid.
    :meth:`env_seconds` times every launching entry of every valid
    candidate in one :class:`BatchedKernelModel` pass. Zero-block entries
    stay in the matrix as 0.0 (``x + 0.0 == x`` for the non-negative
    times here), so the per-env column-by-column sums repeat that walk's
    accumulation exactly.
    """

    def __init__(self, envs: Union[LaunchEnvs, Sequence[Dict[Value, int]]],
                 arch: GPUArchitecture, models: Dict[int, KernelModel],
                 unevaluable: str):
        self.envs = envs
        self._cols = env_columns(envs)
        self._arch = arch
        self._models = models
        self._unevaluable = unevaluable
        self._batch = BatchedKernelModel()
        #: per candidate: (rows, counts) or the InvalidLaunch it hit
        self._plans: List[object] = []

    def add(self, loops: Sequence[Operation]) -> None:
        """Queue one candidate; its failure, if any, is found now."""
        loops = list(loops)
        counts = np.empty((len(self.envs), len(loops)), dtype=np.int64)
        for column, loop in enumerate(loops):
            counts[:, column] = block_counts(loop, self.envs, self._cols)
        try:
            rows = self._launch_rows(loops, counts)
        except InvalidLaunch as error:
            # its traceback's frames would hold this scorer in a cycle
            self._plans.append(error.with_traceback(None))
            return
        self._plans.append((rows, counts))

    def _launch_rows(self, loops: List[Operation],
                     counts: np.ndarray) -> np.ndarray:
        width = len(loops)
        flat = counts.ravel()
        unevaluable = np.flatnonzero(flat < 0)
        stop = int(unevaluable[0]) if unevaluable.size else flat.size
        launching = counts > 0
        first_launch = []
        for column in range(width):
            if launching[:, column].any():
                position = int(launching[:, column].argmax()) * width + \
                    column
                if position < stop:
                    first_launch.append((position, column))
        # a loop that never launches before the stop keeps row 0; none
        # of its entries is timed
        rows = np.zeros(width, dtype=np.intp)
        for _, column in sorted(first_launch):
            key = loops[column].stable_uid()
            model = self._models.get(key)
            if model is None:
                model = KernelModel(loops[column], self._arch)
                self._models[key] = model
            model.ensure_launchable()
            rows[column] = self._batch.add_model(model)
        if stop < flat.size:
            raise InvalidLaunch(self._unevaluable)
        return rows

    def env_seconds(self) -> List[Union[List[float], InvalidLaunch]]:
        """Per candidate, in :meth:`add` order: one total per env, or
        the :class:`InvalidLaunch` that stopped it."""
        return self._score(timings=False)

    def env_timings(self) -> List[Union[List[LaunchTiming],
                                        InvalidLaunch]]:
        """:meth:`env_seconds` as LaunchTimings: an env's loops'
        :meth:`BatchedKernelModel.fields` folded like their seconds, with
        the occupancy of the first loop that launches."""
        return self._score(timings=True)

    def _score(self, timings: bool) -> list:
        masks = []
        model_rows = []
        model_counts = []
        for plan in self._plans:
            if isinstance(plan, InvalidLaunch):
                continue
            rows, counts = plan
            mask = counts > 0
            masks.append(mask)
            model_rows.append(np.broadcast_to(rows, counts.shape)[mask])
            model_counts.append(counts[mask])
        with obs_tracer.span("model.compute", category="simulator"):
            rows = np.concatenate(model_rows) if model_rows else []
            counts = np.concatenate(model_counts) if model_counts else []
            fields = self._batch.fields(rows, counts) if timings else \
                {"time_seconds": self._batch.times(rows, counts)["time"]}
        results = []
        start = 0
        valid = iter(masks)
        for plan in self._plans:
            if isinstance(plan, InvalidLaunch):
                results.append(plan)
                continue
            mask = next(valid)
            stop = start + int(np.count_nonzero(mask))
            folded = _fold({name: values[start:stop]
                            for name, values in fields.items()}, mask)
            start = stop
            if not timings:
                results.append(folded["time_seconds"].tolist())
                continue
            first = plan[0][mask.argmax(axis=1)].tolist()
            results.append(launch_timings(folded, [
                self._batch._models[row].occupancy if launched else None
                for row, launched in zip(first, mask.any(axis=1).tolist())]))
        return results
