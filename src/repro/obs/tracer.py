"""Span-based tracing with a no-op fast path.

A :class:`Tracer` records nested, named spans of wall time. Nesting is
tracked per thread (each thread keeps its own span stack), so concurrent
jobs of a thread-isolated ``repro serve`` daemon trace independently:
spans opened on a job's thread nest within that thread's stack and carry
its thread id, never interleaving with another thread's spans.

Instrumentation sites call the module-level :func:`span` helper. When no
tracer is installed (the default), it returns a shared no-op context
manager — the cost is one global read and one call, so always-on
instrumentation does not tax untraced runs. Install a tracer for the
duration of a block with :func:`tracing`::

    with tracing() as tracer:
        program.model_launch("kernel", grid, block)
    write_chrome_trace("out.json", tracer)
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    """One finished span: a named interval of wall time on one thread."""

    name: str
    category: str
    #: start offset in seconds from the tracer's epoch
    start: float
    duration: float
    #: OS thread identifier the span ran on
    tid: int
    #: nesting depth within the owning thread (0 = top level)
    depth: int
    #: name of the enclosing span on the same thread, if any
    parent: Optional[str]
    args: Dict[str, object] = field(default_factory=dict)
    #: seconds spent in directly nested child spans
    child_seconds: float = 0.0
    #: OS process the span ran in (0 = the recording process; set
    #: explicitly when spans are absorbed from worker processes)
    pid: int = 0

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def self_seconds(self) -> float:
        """Duration minus time attributed to direct children."""
        return max(0.0, self.duration - self.child_seconds)

    def as_dict(self) -> Dict[str, object]:
        """Picklable/JSON-friendly form for cross-process shipping."""
        return {"name": self.name, "category": self.category,
                "start": self.start, "duration": self.duration,
                "tid": self.tid, "depth": self.depth,
                "parent": self.parent, "args": dict(self.args),
                "child_seconds": self.child_seconds,
                "pid": self.pid or os.getpid()}

    @classmethod
    def from_dict(cls, raw: Dict[str, object]) -> "Span":
        return cls(name=raw["name"], category=raw["category"],
                   start=raw["start"], duration=raw["duration"],
                   tid=raw["tid"], depth=raw["depth"],
                   parent=raw.get("parent"),
                   args=dict(raw.get("args") or {}),
                   child_seconds=raw.get("child_seconds", 0.0),
                   pid=raw.get("pid", 0))


class _NullSpan:
    """The disabled-tracer fast path: one shared, reusable no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **args) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class _LiveSpan:
    """An open span; finalizes into a :class:`Span` on ``__exit__``."""

    __slots__ = ("_tracer", "name", "category", "args", "_start",
                 "_child_seconds")

    def __init__(self, tracer: "Tracer", name: str, category: str,
                 args: Dict[str, object]):
        self._tracer = tracer
        self.name = name
        self.category = category
        self.args = args
        self._start = 0.0
        self._child_seconds = 0.0

    def set(self, **args) -> "_LiveSpan":
        """Attach extra args to the span (no-op on the disabled path)."""
        self.args.update(args)
        return self

    def __enter__(self) -> "_LiveSpan":
        self._tracer._stack().append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        tracer = self._tracer
        stack = tracer._stack()
        stack.pop()
        duration = end - self._start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent._child_seconds += duration
        if exc_type is not None:
            self.args.setdefault("error", exc_type.__name__)
        tracer._record(Span(
            name=self.name, category=self.category,
            start=self._start - tracer.epoch, duration=duration,
            tid=threading.get_ident(), depth=len(stack),
            parent=parent.name if parent is not None else None,
            args=self.args, child_seconds=self._child_seconds))
        return False


class Tracer:
    """Collects finished spans from any number of threads."""

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._spans: List[Span] = []

    def _stack(self) -> List[_LiveSpan]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, span_: Span) -> None:
        with self._lock:
            self._spans.append(span_)

    def span(self, name: str, category: str = "repro",
             **args) -> _LiveSpan:
        """Open a span; use as a context manager."""
        return _LiveSpan(self, name, category, args)

    def finished(self) -> List[Span]:
        """A snapshot of all spans recorded so far."""
        with self._lock:
            return list(self._spans)

    def absorb(self, spans: List[Dict[str, object]],
               epoch: Optional[float] = None) -> int:
        """Merge spans recorded by another process's tracer into this one.

        ``spans`` are :meth:`Span.as_dict` payloads; ``epoch`` is the
        remote tracer's epoch. ``time.perf_counter()`` is CLOCK_MONOTONIC
        system-wide on Linux, so the remote epoch is directly comparable
        to ours and remote starts rebase onto this tracer's timeline.
        Each absorbed span keeps its originating ``pid``, so exporters
        can keep per-process thread lanes from colliding even when two
        workers report equal OS thread idents.
        """
        shift = (epoch - self.epoch) if epoch is not None else 0.0
        absorbed = []
        for raw in spans:
            span_ = Span.from_dict(raw)
            span_.start += shift
            absorbed.append(span_)
        with self._lock:
            self._spans.extend(absorbed)
        return len(absorbed)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def __repr__(self) -> str:
        return "Tracer(%d spans)" % len(self)


#: the process-wide active tracer; ``None`` keeps instrumentation no-op
_active: Optional[Tracer] = None


def install(tracer: Tracer) -> Tracer:
    """Make ``tracer`` the process-wide active tracer."""
    global _active
    _active = tracer
    return tracer


def uninstall() -> None:
    global _active
    _active = None


def current() -> Optional[Tracer]:
    return _active


def enabled() -> bool:
    return _active is not None


def span(name: str, category: str = "repro", **args):
    """Open a span on the active tracer, or a shared no-op when disabled.

    This is the function every instrumentation site calls; keep its
    disabled path free of any work beyond the global read.
    """
    tracer = _active
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, category, **args)


@contextmanager
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Install a tracer for the duration of the block, then restore."""
    global _active
    previous = _active
    _active = tracer if tracer is not None else Tracer()
    try:
        yield _active
    finally:
        _active = previous
