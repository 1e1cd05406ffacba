"""Causal what-if profiler: happens-before DAG reconstruction,
work/span analysis, and per-recommendation speedup prediction.

Closes the loop the paper leaves open: after `repro.usecases` flags
*what* to parallelize, this package predicts *how much* each
recommendation would pay on k cores (TASKPROF-style causal profiling
over the recorded event stream), so reports rank by expected payoff."""

from .dag import (
    LaneSummary,
    WorkSpan,
    fold_profile,
    longest_path_span,
    potential_speedup,
)
from .predict import (
    Prediction,
    annotate_report,
    end_to_end_speedup,
    predict_use_case,
    rank_report,
    transform_ways,
    workspans_from_engine,
    workspans_of_flagged,
)
from .report import format_whatif_table

__all__ = [
    "LaneSummary",
    "Prediction",
    "WorkSpan",
    "annotate_report",
    "end_to_end_speedup",
    "fold_profile",
    "format_whatif_table",
    "longest_path_span",
    "potential_speedup",
    "predict_use_case",
    "rank_report",
    "transform_ways",
    "workspans_from_engine",
    "workspans_of_flagged",
]
