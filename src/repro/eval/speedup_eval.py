"""Sequential-fraction analysis and per-case speedups (Table VI + §V prose).

Table VI explains why CPU Benchmarks only reaches 1.20: its sequential
fraction is 94.29%, against 3.89% (GPdotNET), 9.09% (Mandelbrot) and
28.21% (WordWheelSolver).  This module measures the fractions from the
workloads' declared decompositions, computes the resulting program
speedups on the simulated machine, and verifies the paper's qualitative
claim — the lower the sequential fraction, the higher the speedup.

:func:`run_whatif_validation` closes the causal-profiling loop: on
every Table V workload it takes the *top-ranked* what-if prediction,
really executes the recommended transform
(:func:`repro.parallel.transforms.execute_transform`), and checks that
the measured end-to-end speedup lands within :data:`WHATIF_TOLERANCE`
of the prediction.  Both sides share the same serial remainder, so the
band isolates exactly the modeling gaps the prediction accepts by
design: per-task spawn overhead, chunk-size rounding, and LPT placement
versus the analytic equal split.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..parallel.machine import SimulatedMachine, amdahl
from ..workloads import Workload, workload_by_name
from .harness import EVAL_MACHINE

#: Table VI rows: (workload name, sequential ms, parallelizable ms).
TABLE6_PAPER_ROWS: tuple[tuple[str, float, float], ...] = (
    ("CPU Benchmarks", 7_600.0, 460.0),
    ("Gpdotnet", 7_000.0, 173_000.0),
    ("Mandelbrot", 50.0, 500.0),
    ("WordWheelSolver", 55.0, 140.0),
)


@dataclass(frozen=True)
class FractionRow:
    """One Table VI row, measured vs paper."""

    name: str
    measured_fraction: float
    paper_fraction: float
    program_speedup: float
    amdahl_limit: float

    @property
    def fraction_error(self) -> float:
        return abs(self.measured_fraction - self.paper_fraction)


def paper_fraction(name: str) -> float:
    for row_name, seq, par in TABLE6_PAPER_ROWS:
        if row_name == name:
            return seq / (seq + par)
    raise KeyError(name)


def run_fraction_analysis(
    machine: SimulatedMachine = EVAL_MACHINE, scale: float = 1.0
) -> list[FractionRow]:
    """Measure Table VI for its four workloads."""
    rows = []
    for name, seq, par in TABLE6_PAPER_ROWS:
        workload = workload_by_name(name)
        decomposition = workload.decomposition(scale=scale)
        fraction = decomposition.sequential_fraction
        rows.append(
            FractionRow(
                name=name,
                measured_fraction=fraction,
                paper_fraction=seq / (seq + par),
                program_speedup=decomposition.speedup(machine),
                amdahl_limit=amdahl(fraction, machine.cores),
            )
        )
    return rows


def fractions_explain_speedups(rows: list[FractionRow]) -> bool:
    """The paper's claim: speedup order is the reverse of the
    sequential-fraction order."""
    by_fraction = sorted(rows, key=lambda r: r.measured_fraction)
    speedups = [r.program_speedup for r in by_fraction]
    return all(a >= b for a, b in zip(speedups, speedups[1:]))


@dataclass(frozen=True)
class ProseCase:
    """One §V prose speedup claim and how we reproduce it."""

    description: str
    workload: str
    paper_speedup: float
    measured_speedup: float

    @property
    def same_verdict(self) -> bool:
        """Both agree on whether parallelization paid (>1.1)."""
        return (self.paper_speedup > 1.1) == (self.measured_speedup > 1.1)


def run_prose_cases(
    machine: SimulatedMachine = EVAL_MACHINE, scale: float = 1.0
) -> list[ProseCase]:
    """Reproduce the per-location speedups narrated in §V.

    Each case maps to one use case detected in the corresponding
    workload; the measured number is the simulated transform outcome.
    """
    from ..events.collector import collecting
    from ..parallel.transforms import apply_recommendation
    from ..usecases.engine import UseCaseEngine
    from ..usecases.rules import PARALLEL_RULES

    engine = UseCaseEngine(rules=PARALLEL_RULES)

    def outcome_for(workload: Workload, label: str, kind_abbrev: str):
        with collecting() as session:
            workload.run_tracked(scale=scale)
        report = engine.analyze_collector(session)
        for use_case in report.use_cases:
            if (
                use_case.profile.label == label
                and use_case.kind.abbreviation == kind_abbrev
            ):
                return apply_recommendation(use_case, machine)
        raise LookupError(f"{workload.name}: no {kind_abbrev} on {label!r}")

    cases = [
        (
            "Algorithmia: random-value list initialization (Long-Insert)",
            "Algorithmia", "random_list", "LI", 1.35,
        ),
        (
            "Algorithmia: priority-queue-as-list search (Frequent-Long-Read)",
            "Algorithmia", "priority_queue", "FLR", 2.30,
        ),
        (
            "Mandelbrot: main render loop (use case one)",
            "Mandelbrot", "image", "LI", 2.90,
        ),
        (
            "Mandelbrot: axis initialization (use cases two/three)",
            "Mandelbrot", "real_axis", "LI", 1.77,
        ),
        (
            "GPdotNET: population fitness search (use case two)",
            "Gpdotnet", "population", "FLR", 2.88,
        ),
        (
            "GPdotNET: terminal-set aggregate (use case one, no speedup)",
            "Gpdotnet", "terminals", "FLR", 1.0,
        ),
    ]
    out = []
    for description, wl_name, label, kind, paper_speedup in cases:
        outcome = outcome_for(workload_by_name(wl_name), label, kind)
        out.append(
            ProseCase(
                description=description,
                workload=wl_name,
                paper_speedup=paper_speedup,
                measured_speedup=outcome.speedup,
            )
        )
    return out


#: Measured speedup must land within this relative band of the
#: prediction — the committed accuracy contract of the what-if profiler.
WHATIF_TOLERANCE = 0.15


@dataclass(frozen=True)
class WhatIfRow:
    """Measured vs predicted speedup for one workload's top-ranked
    recommendation."""

    workload: str
    use_case: str
    predicted: float
    measured: float
    matches_sequential: bool
    note: str = ""

    @property
    def relative_error(self) -> float:
        if self.predicted <= 0:
            return 0.0
        return abs(self.measured - self.predicted) / self.predicted

    @property
    def within_band(self) -> bool:
        """Inside the committed tolerance AND the real parallel
        execution produced the sequential result."""
        return self.matches_sequential and self.relative_error <= WHATIF_TOLERANCE


def run_whatif_validation(
    machine: SimulatedMachine = EVAL_MACHINE, scale: float = 1.0
) -> list[WhatIfRow]:
    """Measured-vs-predicted differential over all 7 Table V workloads.

    For each workload: record the tracked run, rank the flagged use
    cases by predicted speedup, *execute* the top recommendation on a
    real thread pool, and compare.  Workloads with no flagged parallel
    use case contribute a trivially-in-band 1.0/1.0 row (there is
    nothing to transform), flagged loudly in the note.
    """
    from ..events.collector import collecting
    from ..parallel.transforms import execute_transform
    from ..usecases.engine import UseCaseEngine
    from ..usecases.rules import PARALLEL_RULES
    from ..whatif.predict import (
        annotate_report,
        end_to_end_speedup,
        predict_use_case,
        rank_report,
        workspans_of_flagged,
    )
    from ..workloads import EVALUATION_WORKLOADS

    engine = UseCaseEngine(rules=PARALLEL_RULES)
    rows: list[WhatIfRow] = []
    for workload in EVALUATION_WORKLOADS:
        with collecting() as session:
            workload.run_tracked(scale=scale)
        report = engine.analyze_collector(session)
        workspans = workspans_of_flagged(report, session.profiles())
        report = rank_report(annotate_report(report, machine, workspans))
        top = next((u for u in report.use_cases if u.parallel), None)
        if top is None or not top.predicted_speedup or top.predicted_speedup <= 1.0:
            rows.append(
                WhatIfRow(
                    workload=workload.name,
                    use_case="-",
                    predicted=1.0,
                    measured=1.0,
                    matches_sequential=True,
                    note="no parallel use case with predicted payoff",
                )
            )
            continue
        prediction = predict_use_case(
            top, machine, workspans.get(top.instance_id)
        )
        executed = execute_transform(top, machine)
        measured = end_to_end_speedup(
            prediction.serial_rest,
            executed.sequential_time,
            executed.parallel_time,
        )
        label = top.profile.label or f"#{top.instance_id}"
        rows.append(
            WhatIfRow(
                workload=workload.name,
                use_case=f"{top.kind.abbreviation} on {label}",
                predicted=top.predicted_speedup,
                measured=measured,
                matches_sequential=executed.matches_sequential,
            )
        )
    return rows
