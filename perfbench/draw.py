"""The seeded job set every workload runs.

A job is one (benchsuite program, architecture) pair. Every pass runs
gaussian and lud -- the fig16 micro -- plus two programs the seed draws,
each on A100 and MI210: eight jobs.

The seed draws one program from each of two cost strata. A uniform draw
of two programs out of the other thirteen moves the whole pass: its cold
CPU, warm CPU and median warm job latency each spread by 18-21%
(interquartile range over median, over all 78 pairs), as wide as any
bound the benchmark may set. The strata, with what each program cost
inside the benchmark on a 2-core x86-64 VM (rescaled; cold tune per
arch / warm replay of both archs):

- ``CHEAP``: bfs 0.14 s / 32 ms, myocyte 0.17 s / 28 ms, both well below
  gaussian's 0.30 s cold;
- ``MID``: hotspot 0.31-0.32 s / 63 ms, pathfinder 0.33-0.34 s / 78 ms,
  both between gaussian and lud cold.

Every pair then keeps the pass's cold CPU within 2% and its warm CPU
within 5% of the others, and puts the middle job (the median's rank)
next to gaussian in both passes. So seeds vary which programs run
without moving the totals or the median. The other programs fit neither
stratum; nw runs in ``validated_tune`` instead.
"""

from __future__ import annotations

import random
from typing import List, Tuple

FIXED = ("gaussian", "lud")
ARCHS = ("a100", "mi210")
#: combined coarsening factor bound of every tune:
#: ``paper_sweep_configs(max_product=8)`` gives 10 configs
MAX_FACTOR = 8

CHEAP = ("bfs", "myocyte")
MID = ("hotspot", "pathfinder")

Job = Tuple[str, str]


def _draw(rng: random.Random) -> Tuple[str, str]:
    return rng.choice(CHEAP), rng.choice(MID)


def drawn_programs(seed: int) -> Tuple[str, str]:
    """The two programs ``seed`` adds to the fixed ones."""
    return _draw(random.Random(seed))


def jobs_for(seed: int) -> List[Job]:
    """The eight jobs of one pass, in the seed's order."""
    rng = random.Random(seed)
    programs = FIXED + _draw(rng)
    jobs = [(program, arch) for program in programs for arch in ARCHS]
    rng.shuffle(jobs)
    return jobs


#: validated_tune's programs. With only gaussian and nw, half the jobs
#: take 0.4 s and half 1.8 s, and the median job is the slowest gaussian
#: sample of the run, which moved 50% between runs. myocyte (0.3 s
#: validated) puts the median between the two gaussian job classes.
VALIDATED = ("myocyte", "gaussian", "nw")


def validated_jobs(seed: int) -> List[Job]:
    """``VALIDATED`` on both archs, in the seed's order."""
    jobs = [(program, arch) for program in VALIDATED for arch in ARCHS]
    random.Random(seed).shuffle(jobs)
    return jobs
