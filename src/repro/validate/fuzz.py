"""Hypothesis-based kernel fuzzer for the transform-validation harness.

Generates small random CUDA kernels with *adversarial barrier placements* —
barriers nested under uniform ``for`` loops (the jam path of Fig. 8),
under uniform guards (the ``scf.if`` jam path), next to thread-divergent
guards without barriers, and in multi-phase shared-memory pipelines — and
asserts that :func:`~repro.transforms.unroll_interleave.unroll_and_interleave`'s
merge-vs-duplicate decisions agree with interpreter semantics:

* if a coarsening config is accepted, the transformed kernel must produce
  bit-identical results to the baseline on seeded inputs;
* if it is rejected (:class:`~repro.transforms.coarsen.CoarsenError` /
  ``IllegalUnroll``), that is always sound — conservatism is allowed;
* if the *baseline* already traps with a
  :class:`~repro.interpreter.ConvergenceError`, the kernel itself has
  undefined behaviour and the example is discarded.

The strategies live here (not in the test file) so the CI fuzz job and
the regression tests share one generator.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

try:
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships with the repo
    st = None
    HAVE_HYPOTHESIS = False

#: fixed launch geometry for fuzzed kernels: small enough to interpret
#: thousands of examples, big enough that factors 2 and 4 divide and 3
#: does not
FUZZ_BLOCK = 8
FUZZ_GRID = 4
FUZZ_N = FUZZ_BLOCK * FUZZ_GRID

#: the coarsening configs every fuzzed kernel is checked under
FUZZ_CONFIGS = (
    {"thread_total": 2},
    {"thread_total": 4},
    {"block_total": 2},
    {"block_total": 3},           # non-divisor: epilogue path
    {"block_total": 2, "thread_total": 2},
)


if HAVE_HYPOTHESIS:

    @st.composite
    def expressions(draw, depth: int = 0):
        """A float expression over t (thread), b (block), x, v."""
        if depth >= 2 or draw(st.booleans()):
            return draw(st.sampled_from([
                "x", "(float)t", "(float)b", "2.5f", "0.5f", "v",
            ]))
        op = draw(st.sampled_from(["+", "-", "*"]))
        return "(%s %s %s)" % (draw(expressions(depth=depth + 1)), op,
                               draw(expressions(depth=depth + 1)))

    @st.composite
    def barrier_phases(draw):
        """A shared-memory phase: sync, write tile, sync, read a neighbor.

        The leading barrier orders this phase's write after any previous
        phase's neighbor reads — without it the generated kernel itself
        would have a read-write race (UB even before any transform).
        """
        shift = draw(st.integers(0, FUZZ_BLOCK - 1))
        return [
            "__syncthreads();",
            "tile[t] = %s;" % draw(expressions()),
            "__syncthreads();",
            "v = v + tile[(t + %d) %% %d];" % (shift, FUZZ_BLOCK),
        ]

    @st.composite
    def barrier_in_uniform_loop(draw):
        """Barrier under a uniform-bound for: the Fig. 8 jam path."""
        trips = draw(st.integers(1, 3))
        inner = draw(barrier_phases())
        return (["for (int j = 0; j < %d; j++) {" % trips]
                + ["    " + line for line in inner]
                + ["    v = v + (float)j;", "}"])

    @st.composite
    def barrier_in_uniform_guard(draw):
        """Barrier under a block-uniform guard: the scf.if jam path.

        The guard condition depends on nothing thread- or block-varying,
        so merging the barrier is legal under thread coarsening and the
        condition check must accept it.
        """
        inner = draw(barrier_phases())
        return (["if (n > %d) {" % draw(st.integers(0, 2))]
                + ["    " + line for line in inner] + ["}"])

    @st.composite
    def divergent_guard(draw):
        """Thread-divergent guard WITHOUT a barrier (always legal)."""
        threshold = draw(st.integers(1, FUZZ_BLOCK - 1))
        return ["if (t < %d) { v = v + %s; }" %
                (threshold, draw(expressions()))]

    @st.composite
    def block_dependent_guard_with_barrier(draw):
        """Barrier under a block-dependent guard: §V-C illegality — block
        coarsening must refuse, thread coarsening may accept."""
        inner = draw(barrier_phases())
        return (["if (b < %d) {" % draw(st.integers(1, FUZZ_GRID - 1))]
                + ["    " + line for line in inner] + ["}"])

    @st.composite
    def fuzz_kernels(draw):
        """A random kernel exercising the merge-vs-duplicate decisions."""
        lines = [
            "__shared__ float tile[%d];" % FUZZ_BLOCK,
            "int t = threadIdx.x;",
            "int b = blockIdx.x;",
            "int g = b * blockDim.x + t;",
            "float x = in[g];",
            "float v = 0.0f;",
        ]
        n_features = draw(st.integers(1, 3))
        for _ in range(n_features):
            feature = draw(st.sampled_from([
                "phase", "loop", "uniform_guard", "divergent_guard",
                "block_guard",
            ]))
            if feature == "phase":
                lines.extend(draw(barrier_phases()))
            elif feature == "loop":
                lines.extend(draw(barrier_in_uniform_loop()))
            elif feature == "uniform_guard":
                lines.extend(draw(barrier_in_uniform_guard()))
            elif feature == "divergent_guard":
                lines.extend(draw(divergent_guard()))
            else:
                lines.extend(draw(block_dependent_guard_with_barrier()))
        lines.append("out[g] = v;")
        body = "\n    ".join(lines)
        return ("__global__ void k(float *in, float *out, int n) "
                "{\n    %s\n}" % body)


class FuzzOutcome:
    """Result of checking one kernel under one config."""

    __slots__ = ("status", "detail")

    def __init__(self, status: str, detail: str = ""):
        self.status = status    # "equal", "rejected", "ub", "diverged"
        self.detail = detail

    def __repr__(self) -> str:
        return "FuzzOutcome(%s%s)" % (
            self.status, ", %s" % self.detail if self.detail else "")


def run_fuzz_kernel(source: str, config: Optional[Dict[str, object]],
                    data: np.ndarray) -> np.ndarray:
    """Build, optionally coarsen, and interpret one fuzzed kernel."""
    from ..interpreter import MemoryBuffer, run_module
    from ..ir import F32, verify_module
    from ..pipeline import build_launch_wrapper
    from ..transforms import coarsen_wrapper, run_cleanup

    built = build_launch_wrapper(source, "k", 1, (FUZZ_BLOCK,))
    if config:
        coarsen_wrapper(built.wrapper, **config)
        run_cleanup(built.module)
    verify_module(built.module)
    src = MemoryBuffer((FUZZ_N,), F32, data=data)
    out = MemoryBuffer((FUZZ_N,), F32)
    run_module(built.module, built.name, [FUZZ_GRID, src, out, FUZZ_N])
    return out.array


def check_transform_agreement(source: str, seed: int = 0,
                              configs: Sequence[Dict[str, object]]
                              = FUZZ_CONFIGS) -> Dict[str, FuzzOutcome]:
    """Assert the transform's decisions agree with interpreter semantics.

    Returns per-config outcomes; raises AssertionError (with the kernel
    source embedded) on a semantic divergence.
    """
    from ..interpreter import ConvergenceError
    from ..transforms.coarsen import CoarsenError

    rng = np.random.default_rng(seed)
    data = rng.random(FUZZ_N, dtype=np.float32)
    try:
        reference = run_fuzz_kernel(source, None, data)
    except ConvergenceError as error:
        # the kernel itself has UB; nothing for the transform to preserve
        return {"baseline": FuzzOutcome("ub", str(error))}
    outcomes: Dict[str, FuzzOutcome] = {}
    for config in configs:
        key = ", ".join("%s=%s" % kv for kv in sorted(config.items()))
        try:
            result = run_fuzz_kernel(source, config, data)
        except CoarsenError as error:
            # conservative rejection is always sound
            outcomes[key] = FuzzOutcome("rejected", str(error))
            continue
        if np.array_equal(result, reference):
            outcomes[key] = FuzzOutcome("equal")
        else:
            outcomes[key] = FuzzOutcome("diverged")
            raise AssertionError(
                "config {%s} accepted but changed results for:\n%s"
                % (key, source))
    return outcomes
