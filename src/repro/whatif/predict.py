"""Causal "what-if" speedup prediction for flagged use cases.

The detection pipeline stops at *which* recommendations fire; this
module answers *which one pays off most*.  For each parallel use case it
combines two sources:

1. The happens-before DAG of the instance's recorded events
   (:mod:`repro.whatif.dag`): its span is the portion of the observed
   execution the transform cannot touch.
2. The transform's own region estimate
   (:func:`repro.parallel.transforms.estimate_region`): how much work
   the recommendation parallelizes and how many ways it can split.

The predicted end-to-end speedup is an *analytic* model — equal-split
chunks, fork/join overhead only:

    seq          = region.work × operations
    serial_rest  = max(span − seq, 0)          # critical path the
                                               # transform can't shorten
    T_before     = serial_rest + seq
    T_after      = serial_rest + operations × (fork_join + work / ways)
    prediction   = T_before / T_after

It deliberately does NOT know about per-task spawn overhead, chunk
imbalance, or LPT scheduling — those belong to the *measured* side
(:func:`repro.parallel.transforms.execute_transform`), and the gap
between the two is exactly what the measured-vs-predicted accuracy band
quantifies (``dsspy bench --whatif``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping

from ..events.profile import RuntimeProfile
from ..parallel.machine import SimulatedMachine
from ..parallel.transforms import (
    estimate_operations,
    estimate_region,
    transform_ways,
)
from ..usecases.engine import UseCaseReport
from ..usecases.model import UseCase
from .dag import WorkSpan, fold_profile, potential_speedup


def end_to_end_speedup(
    serial_rest: float, sequential: float, parallel: float
) -> float:
    """Whole-execution speedup when only the region changes."""
    if sequential <= 0 or parallel <= 0:
        return 1.0
    return (serial_rest + sequential) / (serial_rest + parallel)


@dataclass(frozen=True, slots=True)
class Prediction:
    """Everything the what-if model derived for one use case."""

    predicted_speedup: float
    region_name: str
    region_work: float
    operations: int
    ways: int
    serial_rest: float
    dag_work: float
    dag_span: float

    @property
    def dag_parallelism(self) -> float:
        """Inherent parallelism already present in the recording."""
        return self.dag_work / self.dag_span if self.dag_span > 0 else 1.0

    def dag_bound(self, cores: int) -> float:
        """Work/span ceiling of the *recorded* DAG (before the
        transform rewrites it) — informational, not the prediction."""
        return potential_speedup(self.dag_work, self.dag_span, cores)


def predict_use_case(
    use_case: UseCase,
    machine: SimulatedMachine,
    workspan: WorkSpan | None = None,
) -> Prediction:
    """Predict the speedup of following one recommendation.

    ``workspan`` is the instance's recorded work/span; when omitted it
    is folded from the use case's own profile.  Sequential-optimization
    kinds predict 1.0 — their advice does not add concurrency.
    """
    if workspan is None:
        workspan = fold_profile(use_case.profile)
    region = estimate_region(use_case)
    operations = estimate_operations(use_case)
    sequential = region.work * operations
    if not use_case.kind.parallel or sequential <= 0:
        return Prediction(
            predicted_speedup=1.0,
            region_name=region.name,
            region_work=region.work,
            operations=operations,
            ways=1,
            serial_rest=max(workspan.span - sequential, 0.0),
            dag_work=workspan.work,
            dag_span=workspan.span,
        )
    ways = transform_ways(region.work, region.max_parallelism, machine.cores)
    serial_rest = max(workspan.span - sequential, 0.0)
    parallel = operations * (
        machine.config.fork_join_overhead + region.work / ways
    )
    return Prediction(
        predicted_speedup=end_to_end_speedup(serial_rest, sequential, parallel),
        region_name=region.name,
        region_work=region.work,
        operations=operations,
        ways=ways,
        serial_rest=serial_rest,
        dag_work=workspan.work,
        dag_span=workspan.span,
    )


def workspans_of_flagged(
    report: UseCaseReport, profiles: Iterable[RuntimeProfile]
) -> dict[int, WorkSpan]:
    """Work/span of the instances ``report`` names, each folded from its
    full batch profile (predictions exist only for flagged instances)."""
    flagged = {u.instance_id for u in report.use_cases}
    return {p.instance_id: fold_profile(p) for p in profiles if p.instance_id in flagged}


def workspans_from_engine(engine) -> dict[int, WorkSpan]:
    """Per-instance work/span from a streaming engine's lane summaries
    (live SNAPSHOT path — no event history needed)."""
    return {
        instance_id: WorkSpan.of(fold.lanes)
        for instance_id, fold in engine._folds.items()
        if fold.lanes.work > 0
    }


def annotate_report(
    report: UseCaseReport,
    machine: SimulatedMachine,
    workspans: Mapping[int, WorkSpan] | None = None,
) -> UseCaseReport:
    """A copy of ``report`` where every use case carries its
    ``predicted_speedup`` (sequential kinds get 1.0)."""
    spans = workspans or {}
    annotated = tuple(
        replace(
            u,
            predicted_speedup=predict_use_case(
                u, machine, spans.get(u.instance_id)
            ).predicted_speedup,
        )
        for u in report.use_cases
    )
    return UseCaseReport(
        use_cases=annotated, instances_analyzed=report.instances_analyzed
    )


def rank_report(report: UseCaseReport) -> UseCaseReport:
    """Order use cases by expected payoff, highest first.

    The sort is stable, so use cases with equal (or absent) predictions
    keep the engine's original threshold order — the tie-break the
    acceptance criteria require.
    """
    ranked = tuple(
        sorted(
            report.use_cases,
            key=lambda u: -(u.predicted_speedup if u.predicted_speedup is not None else 1.0),
        )
    )
    return UseCaseReport(
        use_cases=ranked, instances_analyzed=report.instances_analyzed
    )


__all__ = [
    "Prediction",
    "annotate_report",
    "end_to_end_speedup",
    "predict_use_case",
    "rank_report",
    "transform_ways",
    "workspans_from_engine",
    "workspans_of_flagged",
]
