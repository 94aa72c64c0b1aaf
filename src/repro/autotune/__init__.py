"""Kernel granularity selection: sweeps, pruning filters, and TDO (§VI)."""

from .filters import (FilterReport, prune_by_registers,
                      prune_planned_by_shared_memory, run_planned_filters)
from .heuristic import HeuristicChoice, choose_factors, heuristic_tune
from .search import (default_configs, paper_sweep_configs,
                     per_dimension_configs)
from .tdo import TuneOutcome, timing_driven_optimization, tune_wrapper

__all__ = [
    "FilterReport", "HeuristicChoice", "TuneOutcome", "choose_factors",
    "default_configs", "heuristic_tune",
    "paper_sweep_configs", "per_dimension_configs", "prune_by_registers",
    "prune_planned_by_shared_memory", "run_planned_filters",
    "timing_driven_optimization", "tune_wrapper",
]
