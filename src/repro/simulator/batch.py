"""Batched (vectorized) evaluation of the analytical timing model.

:class:`~repro.simulator.model.KernelModel` scores one launch per Python
call — fine for a handful of configurations, quadratically painful for
TDO's alternatives × launch-geometries product. This module stacks the
launch-count-independent :class:`~repro.simulator.model.LaunchFeatures`
of many models into numpy arrays and evaluates *all* requested
(model, num_blocks) pairs in one array pass.

Bit-identical by construction: every expression below mirrors
:func:`repro.simulator.model.evaluate_launch` operand-for-operand (same
grouping, same branch structure via ``np.where``), the integer ceil
division uses the same ``-(-n // d)`` idiom on int64, and both paths read
the *same* cached ``LaunchFeatures`` instance per model. IEEE-754 float64
arithmetic is deterministic given identical operand order, so the batched
seconds compare ``==`` to the scalar ones — which the equivalence suite
(``tests/test_batched_equivalence.py``) asserts across the benchsuite.

:class:`LaunchScorer` is what consumers use: it scores candidates (each
a list of block-level loops, e.g. one coarsening alternative or one
tuned wrapper) over a set of launch environments. Each candidate becomes
an (envs × loops) block-count matrix, and every launching entry of every
candidate is timed in one :class:`BatchedKernelModel` pass. The block
counts are evaluated over int64 grid columns: a launch group's
:class:`~repro.simulator.model.LaunchEnvs` gives its table's columns as
they are, and a sequence of env dicts is stacked once, on construction.

The scalar path is the reference implementation: the equivalence suite
substitutes it for the scorer in TDO and composite modeling and compares
the two.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Union

import numpy as np

from ..ir import Operation, Value
from ..obs import tracer as obs_tracer
from ..targets import GPUArchitecture
from .model import (LAUNCH_OVERHEAD, OVERLAP_LEAK, InvalidLaunch,
                    KernelModel, LaunchEnvs, block_counts, env_columns)

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
)
#: LaunchFeatures fields stacked as int64 columns
_INT_FIELDS = ("wave_divisor", "num_sms", "blocks_per_sm")


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

    def __len__(self) -> int:
        return len(self._models)

    def add_model(self, model: KernelModel) -> int:
        """Intern ``model`` and return its row index (stable per instance)."""
        row = self._rows.get(id(model))
        if row is None:
            row = len(self._models)
            self._models.append(model)
            self._rows[id(model)] = row
            self._columns.clear()
        return row

    def _column_view(self) -> Dict[str, np.ndarray]:
        if not self._columns:
            feats = [model.features() for model in self._models]
            for name in _FLOAT_FIELDS:
                self._columns[name] = np.array(
                    [getattr(f, name) for f in feats], dtype=np.float64)
            for name in _INT_FIELDS:
                self._columns[name] = np.array(
                    [getattr(f, name) for f in feats], dtype=np.int64)
            self._columns["lds_offloaded"] = np.array(
                [f.lds_offloaded for f in feats], dtype=bool)
        return self._columns

    def times(self, model_rows: Sequence[int],
              num_blocks: Sequence[int]) -> np.ndarray:
        """Modeled seconds for each (model row, block count) pair.

        Mirrors :func:`repro.simulator.model.evaluate_launch` (plus the
        launch overhead and the ``num_blocks <= 0`` zero-time early exit
        of ``_compute_launch_inner``) expression-for-expression; callers
        must have run :meth:`KernelModel.ensure_launchable` first, which
        this re-checks defensively.
        """
        idx = np.asarray(model_rows, dtype=np.intp)
        nb = np.asarray(num_blocks, dtype=np.int64)
        if idx.size == 0:
            return np.zeros(0, dtype=np.float64)
        cols = self._column_view()

        blocks_per_sm = cols["blocks_per_sm"][idx]
        bad = (blocks_per_sm == 0) & (nb > 0)
        if bad.any():
            self._models[int(idx[int(np.argmax(bad))])].ensure_launchable()
        # zero/negative block counts time to 0.0 (scalar early exit);
        # clamp so the shared arithmetic below never divides by zero
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
        # both branches evaluated dense, then selected — the expressions
        # themselves keep the scalar operand grouping
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

        dominant = np.maximum(np.maximum(compute_seconds, memory_seconds),
                              shared_seconds)
        # scalar sum(tuple) accumulates left-to-right from 0
        work_sum = 0.0 + compute_seconds + memory_seconds + shared_seconds
        busy = dominant + OVERLAP_LEAK * (work_sum - dominant)
        busy = np.maximum(busy, latency_floor)
        time = busy + LAUNCH_OVERHEAD
        return np.where(nb > 0, time, 0.0)


class LaunchScorer:
    """Per-env modeled seconds of many candidates, scored in one batch.

    A candidate is a sequence of block-level loops run one after another
    per launch (a wrapper's main loop and its epilogues). For each env
    the scalar reference walks the loops in order, adding each launching
    loop's time to a running total from ``0.0``, and stops at the first
    failure: an unevaluable grid (reported as ``unevaluable``), or a
    launching loop whose model cannot be built or cannot launch. Loops
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
    times here), so the per-env column-by-column sums repeat the scalar
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
            times = self._batch.times(
                np.concatenate(model_rows) if model_rows else [],
                np.concatenate(model_counts) if model_counts else [])
        results: List[Union[List[float], InvalidLaunch]] = []
        start = 0
        valid = iter(masks)
        for plan in self._plans:
            if isinstance(plan, InvalidLaunch):
                results.append(plan)
                continue
            mask = next(valid)
            stop = start + int(np.count_nonzero(mask))
            matrix = np.zeros(mask.shape)
            matrix[mask] = times[start:stop]
            start = stop
            # left-to-right adds from 0.0: the scalar per-env operation
            # sequence, plus exact +0.0 for the skipped launches
            totals = np.zeros(mask.shape[0])
            for column in range(mask.shape[1]):
                totals = totals + matrix[:, column]
            results.append(totals.tolist())
        return results
