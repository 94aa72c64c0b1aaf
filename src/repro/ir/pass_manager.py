"""Pass infrastructure: a pass base class and a sequential pass manager.

Every pass run is observable: the manager records a :class:`PassRecord`
(wall time, changed flag, op-count delta when observability is on) per
pass per run — including for a pass that raises, so a crash never loses
the timing context of the work done before it. The failing pass's name is
attached to the propagated exception as ``failing_pass``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from ..obs import metrics as obs_metrics
from ..obs import tracer as obs_tracer
from ..obs.log import get_logger
from .module import Module
from .verifier import verify_module

logger = get_logger("ir.passes")


def count_ops(module: Module) -> int:
    """Total number of operations in the module, at every nesting level."""
    total = 0

    def bump(_op) -> None:
        nonlocal total
        total += 1

    module.op.walk(bump)
    return total


class Pass:
    """Base class for module-level transformation passes."""

    #: Human-readable pass name; defaults to the class name.
    name: str = ""

    def run(self, module: Module) -> bool:
        """Transform ``module`` in place; return True if anything changed."""
        raise NotImplementedError

    def __str__(self) -> str:
        return self.name or type(self).__name__


@dataclass
class PassRecord:
    """One pass execution: timing and (when observed) op-count delta."""

    name: str
    seconds: float
    changed: bool
    failed: bool = False
    #: op counts are only collected while a tracer or metrics registry is
    #: installed — counting walks the whole module, which the untraced
    #: autotuning hot path cannot afford
    ops_before: Optional[int] = None
    ops_after: Optional[int] = None

    @property
    def op_delta(self) -> Optional[int]:
        if self.ops_before is None or self.ops_after is None:
            return None
        return self.ops_after - self.ops_before


class PassManager:
    """Runs a sequence of passes, optionally verifying after each."""

    def __init__(self, passes: Iterable[Pass] = (), verify: bool = True):
        self.passes: List[Pass] = list(passes)
        self.verify = verify
        #: names of the passes that reported a change during the last run
        self.changed_passes: List[str] = []
        #: per-pass records of the last :meth:`run` (failures included)
        self.records: List[PassRecord] = []
        #: per-pass wall time accumulated over this manager's lifetime
        self.pass_seconds: Dict[str, float] = {}

    def add(self, pass_: Pass) -> "PassManager":
        self.passes.append(pass_)
        return self

    def _finish(self, record: PassRecord, span) -> None:
        self.records.append(record)
        self.pass_seconds[record.name] = \
            self.pass_seconds.get(record.name, 0.0) + record.seconds
        delta = record.op_delta
        if delta is not None:
            span.set(changed=record.changed, ops_before=record.ops_before,
                     ops_after=record.ops_after, op_delta=delta)
            obs_metrics.observe("pass.%s.op_delta" % record.name, delta)
            obs_metrics.observe("pass.%s.seconds" % record.name,
                                record.seconds)

    def _run_one(self, pass_: Pass, module: Module) -> bool:
        """Run a single pass over ``module``, recording its outcome."""
        name = str(pass_)
        observing = obs_tracer.enabled() or obs_metrics.enabled()
        before = count_ops(module) if observing else None
        span = obs_tracer.span("pass:%s" % name, category="pass")
        start = time.perf_counter()
        try:
            with span:
                changed = pass_.run(module)
                if self.verify:
                    verify_module(module)
                after = count_ops(module) if observing else None
                self._finish(PassRecord(name,
                                        time.perf_counter() - start,
                                        changed, ops_before=before,
                                        ops_after=after), span)
        except Exception as error:
            elapsed = time.perf_counter() - start
            after = count_ops(module) if observing else None
            self._finish(PassRecord(name, elapsed, False, failed=True,
                                    ops_before=before, ops_after=after),
                         obs_tracer.NULL_SPAN)
            if getattr(error, "failing_pass", None) is None:
                try:
                    error.failing_pass = name
                except AttributeError:
                    pass  # exceptions with __slots__ cannot carry it
            logger.debug("pass %s failed after %.6fs: %s",
                         name, elapsed, error)
            raise
        if changed:
            self.changed_passes.append(name)
        return changed

    def run(self, module: Module) -> bool:
        self.changed_passes = []
        self.records = []
        changed_any = False
        for pass_ in self.passes:
            if self._run_one(pass_, module):
                changed_any = True
        return changed_any

    def run_until_fixpoint(self, module: Module, max_iterations: int = 16
                           ) -> None:
        """Re-run the pipeline until no pass reports a change."""
        for _ in range(max_iterations):
            if not self.run(module):
                return
