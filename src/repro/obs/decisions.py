"""Structured TDO decision log: why each alternative lived or died.

The §VI flow eliminates coarsening alternatives in five places, in order:

1. **generation** — the coarsening itself is illegal for the kernel
   (e.g. a factor that does not divide the block shape);
2. **shared-memory** — static shared allocation per block exceeds the
   target's limit;
3. **registers** — backend register estimation says the alternative
   spills;
4. **validation** — the opt-in differential gate (``tune --validate`` /
   ``$REPRO_VALIDATE``) interpreted the alternative and its output
   diverged from the uncoarsened baseline;
5. **timing** — the alternative launches fine but loses the modeled
   timing race.

A :class:`DecisionLog` records, per tuned wrapper, one
:class:`AlternativeDecision` for every alternative ever considered, with
the eliminating stage and a human-readable reason — the data behind
``repro tune --explain``. Like the tracer, a log is installed
process-wide (:func:`install` / :func:`logging_decisions`) and every
recording helper is a no-op when none is installed.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

#: elimination stage names, in pipeline order
GENERATION = "generation"
SHARED_MEMORY = "shared-memory"
REGISTERS = "registers"
VALIDATION = "validation"
TIMING = "timing"

STAGES = (GENERATION, SHARED_MEMORY, REGISTERS, VALIDATION, TIMING)


@dataclass
class AlternativeDecision:
    """The fate of one coarsening alternative."""

    desc: str
    #: the coarsening kwargs that produced it (None for generation-time
    #: rejections recorded only by repr)
    config: Optional[Dict[str, object]] = None
    #: which stage eliminated it; None while alive / for the winner
    eliminated_by: Optional[str] = None
    reason: str = ""
    #: modeled (or profiled) seconds, when the alternative reached timing
    time_seconds: Optional[float] = None
    selected: bool = False

    def as_dict(self) -> Dict[str, object]:
        return {"desc": self.desc, "config": self.config,
                "eliminated_by": self.eliminated_by, "reason": self.reason,
                "time_seconds": self.time_seconds,
                "selected": self.selected}

    def outcome(self) -> str:
        """One-line status, e.g. ``eliminated by registers: ...``."""
        if self.selected:
            suffix = "" if self.time_seconds is None \
                else " (%.3es modeled)" % self.time_seconds
            return "selected%s" % suffix
        if self.eliminated_by is None:
            return "survived (not selected)"
        return "eliminated by %s: %s" % (self.eliminated_by, self.reason)


@dataclass
class TuneDecision:
    """Every alternative-level decision for one tuned wrapper."""

    wrapper: str = ""
    arch: str = ""
    alternatives: List[AlternativeDecision] = field(default_factory=list)
    #: free-form wrapper-level annotations (lint findings, validation
    #: caveats such as "baseline not executable")
    notes: List[str] = field(default_factory=list)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def add(self, desc: str, config: Optional[Dict[str, object]] = None
            ) -> AlternativeDecision:
        decision = self.find(desc)
        if decision is None:
            decision = AlternativeDecision(desc, config=config)
            self.alternatives.append(decision)
        elif config is not None and decision.config is None:
            decision.config = config
        return decision

    def find(self, desc: str) -> Optional[AlternativeDecision]:
        for decision in self.alternatives:
            if decision.desc == desc:
                return decision
        return None

    def eliminate(self, desc: str, stage: str, reason: str) -> None:
        """Mark ``desc`` eliminated; the first elimination wins."""
        decision = self.add(desc)
        if decision.eliminated_by is None and not decision.selected:
            decision.eliminated_by = stage
            decision.reason = reason

    def select(self, desc: str, time_seconds: Optional[float] = None
               ) -> None:
        decision = self.add(desc)
        decision.selected = True
        decision.eliminated_by = None
        decision.reason = ""
        if time_seconds is not None:
            decision.time_seconds = time_seconds

    def set_time(self, desc: str, time_seconds: float) -> None:
        self.add(desc).time_seconds = time_seconds

    @property
    def winner(self) -> Optional[AlternativeDecision]:
        for decision in self.alternatives:
            if decision.selected:
                return decision
        return None

    def as_dict(self) -> Dict[str, object]:
        return {"wrapper": self.wrapper, "arch": self.arch,
                "alternatives": [d.as_dict() for d in self.alternatives],
                "notes": list(self.notes)}

    def explain(self) -> str:
        header = "tuning decision for %s on %s" % (
            self.wrapper or "<kernel>", self.arch or "<arch>")
        lines = [header]
        for note in self.notes:
            lines.append("  note: %s" % note)
        winner = self.winner
        if winner is not None:
            lines.append("  winner: %s%s" % (
                winner.desc,
                "" if winner.time_seconds is None
                else " (%.3es modeled)" % winner.time_seconds))
        width = max((len(d.desc) for d in self.alternatives), default=0)
        for decision in self.alternatives:
            lines.append("  %-*s  %s" % (width, decision.desc,
                                         decision.outcome()))
        return "\n".join(lines)


class DecisionLog:
    """An append-only list of :class:`TuneDecision` records."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.decisions: List[TuneDecision] = []
        self._current: Optional[TuneDecision] = None

    def begin(self, wrapper: str = "", arch: str = "") -> TuneDecision:
        """Start recording a new wrapper's tuning decision."""
        decision = TuneDecision(wrapper=wrapper, arch=arch)
        with self._lock:
            self.decisions.append(decision)
            self._current = decision
        return decision

    def current_decision(self) -> Optional[TuneDecision]:
        with self._lock:
            return self._current

    def as_dict(self) -> Dict[str, object]:
        with self._lock:
            decisions = list(self.decisions)
        return {"decisions": [d.as_dict() for d in decisions]}

    def explain(self) -> str:
        with self._lock:
            decisions = list(self.decisions)
        return "\n\n".join(d.explain() for d in decisions)

    def __len__(self) -> int:
        with self._lock:
            return len(self.decisions)


#: the active decision log, per thread — tuning records decisions on
#: the thread that drives the pipeline, and a per-thread slot keeps
#: concurrent daemon jobs from restoring over each other's logs or
#: cross-contaminating their decisions
_active = threading.local()


def install(log: DecisionLog) -> DecisionLog:
    _active.log = log
    return log


def uninstall() -> None:
    _active.log = None


def current() -> Optional[DecisionLog]:
    return getattr(_active, "log", None)


def enabled() -> bool:
    return current() is not None


def active_decision() -> Optional[TuneDecision]:
    """The in-progress :class:`TuneDecision`, if a log is installed."""
    log = current()
    return log.current_decision() if log is not None else None


@contextmanager
def logging_decisions(log: Optional[DecisionLog] = None
                      ) -> Iterator[DecisionLog]:
    """Install a decision log on this thread for the block's duration."""
    previous = current()
    _active.log = log if log is not None else DecisionLog()
    try:
        yield _active.log
    finally:
        _active.log = previous
