"""Summary statistics and process measurements for the benchmark.

Stdlib only, so the tests of these helpers run without the package
under test.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import resource
import time
from typing import Dict, Iterable, List, Sequence, Tuple

#: a percentile needs at least this many samples above its rank
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than it needs."""


def percentile(samples: Sequence[float], q: float,
               min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank ``q``-th percentile of ``samples``.

    Refuses (raises :class:`TooFewSamples`) when fewer than
    ``min_beyond`` samples lie above the chosen rank: such a percentile
    is set by a handful of samples and moves from run to run.
    """
    if not 0 < q <= 100:
        raise ValueError("percentile must be in (0, 100]")
    ordered = sorted(samples)
    n = len(ordered)
    # the epsilon keeps q = 100 * r / n on rank r despite rounding
    rank = max(1, math.ceil(q * n / 100.0 - 1e-9))
    if n - rank < min_beyond:
        raise TooFewSamples("p%g of %d samples has %d beyond it, needs %d"
                            % (q, n, max(0, n - rank), min_beyond))
    return ordered[rank - 1]


def tail_percentile(n: int, wanted: float = 90.0,
                    min_beyond: int = MIN_BEYOND) -> float:
    """The highest percentile up to ``wanted`` that ``n`` samples support.

    That is ``wanted`` itself when ``n`` is large enough, else the
    percentile whose rank leaves exactly ``min_beyond`` samples above it.
    Never below the median: fewer than ``2 * min_beyond`` samples support
    no tail at all.
    """
    if n - max(1, math.ceil(wanted * n / 100.0 - 1e-9)) >= min_beyond:
        return wanted
    q = 100.0 * (n - min_beyond) / n if n else 0.0
    if q < 50.0:
        raise TooFewSamples("%d samples support no percentile at or above "
                            "the median" % n)
    return q


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise TooFewSamples("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    if not values or any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


# -- machine speed -----------------------------------------------------------

#: wall seconds :func:`speed_sample` takes at the reference speed: the
#: fast state of the 2-core x86-64 VM the benchmark was tuned on
REFERENCE_LOOP_S = 2.5e-3


def _arithmetic(n: int = 40000) -> int:
    total = 0
    for i in range(n):
        total += i * i
    return total


def _allocation(n: int = 1500) -> int:
    table: Dict[tuple, int] = {}
    made = []
    for i in range(n):
        item = {"k": i & 7, "name": "op%d" % (i & 63)}
        made.append((item, i))
        key = (item["name"], item["k"])
        table[key] = table.get(key, 0) + 1
    return len(made) + len(table)


def speed_sample(repeats: int = 3) -> float:
    """How long two fixed pure-Python loops take now, in seconds.

    The geometric mean of the best-of-``repeats`` times of an arithmetic
    loop and an allocating one. On a shared host the same work can take
    1.5x longer for tens of seconds; timing these loops next to each step
    of benchmark work tells how fast the machine was at the time,
    independent of the code under test. Of the loops tried, this pair
    tracked the tuning pipeline's own slowdowns best.
    """
    best = []
    for loop in (_arithmetic, _allocation):
        fastest = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            loop()
            fastest = min(fastest, time.perf_counter() - start)
        best.append(fastest)
    return math.sqrt(best[0] * best[1])


# -- the process tree --------------------------------------------------------


def _children() -> List[int]:
    return [child.pid for child in multiprocessing.active_children()]


def _proc_fields(pid: int) -> Tuple[float, float]:
    """``(cpu seconds, peak RSS in MB)`` of one live process, from /proc."""
    ticks = os.sysconf("SC_CLK_TCK")
    with open("/proc/%d/stat" % pid) as handle:
        # fields after the parenthesised command name; utime and stime
        # are fields 14 and 15 of the full line
        rest = handle.read().rsplit(")", 1)[1].split()
    cpu = (int(rest[11]) + int(rest[12])) / ticks
    peak_kb = 0
    with open("/proc/%d/status" % pid) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                peak_kb = int(line.split()[1])
                break
    return cpu, peak_kb / 1024.0


def tree_cpu_seconds() -> float:
    """CPU seconds of this process, its reaped children and live ones."""
    times = os.times()
    total = time.process_time() + times.children_user \
        + times.children_system
    for pid in _children():
        try:
            total += _proc_fields(pid)[0]
        except (OSError, IndexError, ValueError):
            pass  # the child exited between listing and reading
    return total


def tree_peak_rss_mb() -> float:
    """Peak RSS of this process plus the peak of each live child."""
    try:
        total = _proc_fields(os.getpid())[1]
    except (OSError, IndexError, ValueError):
        total = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for pid in _children():
        try:
            total += _proc_fields(pid)[1]
        except (OSError, IndexError, ValueError):
            pass
    return total


def loadavg() -> Dict[str, float]:
    try:
        with open("/proc/loadavg") as handle:
            one, five, fifteen = handle.read().split()[:3]
        return {"1m": float(one), "5m": float(five), "15m": float(fifteen)}
    except (OSError, ValueError):
        return {}
