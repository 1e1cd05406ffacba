"""Text rendering of every paper table, measured-vs-paper.

Each ``render_table*`` function takes the measured results from the
corresponding study/eval module and prints rows in the published
layout, so benchmark output can be eyeballed against the paper
directly.  Table VII is the qualitative related-work matrix, a static
capability table.
"""

from __future__ import annotations

from ..study.occurrence import OccurrenceStudy
from ..study.regularities import RegularityStudy
from ..study.usecase_survey import UseCaseSurvey
from .harness import EvaluationSummary
from .speedup_eval import FractionRow


def _rule(width: int = 72) -> str:
    return "-" * width


def render_table1(study: OccurrenceStudy) -> str:
    """Table I: benchmark distribution across domains."""
    lines = [
        "Table I — Empirical study: distribution across domains",
        _rule(),
        f"{'Application Domain':<22}{'#Instances':>12}{'LOC':>12}",
        _rule(),
    ]
    for domain, instances, loc in study.table1_rows():
        lines.append(f"{domain:<22}{instances:>12}{loc:>12}")
    lines.append(_rule())
    lines.append(
        f"{'Total':<22}{study.total_instances:>12}{study.total_loc:>12}"
    )
    lines.append(
        f"list share {study.list_share:.2%} (paper: 65.05%); "
        f"list/dictionary {study.list_to_dictionary_ratio:.2f}x (paper: 3.94x); "
        f"lists+arrays {study.lists_and_arrays_share:.2%} (paper: >75%)"
    )
    return "\n".join(lines)


def render_figure1(study: OccurrenceStudy, width: int = 30) -> str:
    """Figure 1: per-program occurrence, as a horizontal text chart."""
    names, series = study.figure1_series()
    kinds = list(series)
    lines = [
        "Figure 1 — Data structure occurrence per program",
        "legend: " + ", ".join(k.value for k in kinds),
        _rule(),
    ]
    peak = max((max(v) for v in series.values() if v), default=1) or 1
    for i, name in enumerate(names):
        total = sum(series[k][i] for k in kinds)
        bar = "#" * max(int(series[kinds[0]][i] / peak * width), 0)
        lines.append(f"{name:<22}{total:>5}  {bar}")
    return "\n".join(lines)


def render_table2(study: RegularityStudy) -> str:
    """Table II: recurring regularities in 15 programs."""
    lines = [
        "Table II — Access pattern predominance (15 programs)",
        _rule(),
        f"{'Application':<20}{'Domain':<14}{'LOC':>8}{'Regular.':>10}{'Parallel':>10}",
        _rule(),
    ]
    for name, domain, loc, regularities, parallel in study.rows():
        lines.append(
            f"{name:<20}{domain:<14}{loc:>8}{regularities:>10}{parallel:>10}"
        )
    lines.append(_rule())
    lines.append(
        f"{'Total':<42}{study.total_regularities:>10}"
        f"{study.total_parallel_use_cases:>10}"
        "   (paper: 81 / 41)"
    )
    return "\n".join(lines)


def render_table3(survey: UseCaseSurvey) -> str:
    """Table III: 66 use cases by category."""
    lines = [
        "Table III — Use cases by category",
        _rule(),
        f"{'Application':<20}{'LI':>5}{'IQ':>5}{'SAI':>5}{'FS':>5}{'FLR':>5}{'Σ':>5}",
        _rule(),
    ]
    for name, li, iq, sai, fs, flr, total in survey.rows():
        lines.append(
            f"{name:<20}{li:>5}{iq:>5}{sai:>5}{fs:>5}{flr:>5}{total:>5}"
        )
    totals = survey.totals()
    from ..usecases.model import UseCaseKind

    lines.append(_rule())
    lines.append(
        f"{'Total':<20}"
        f"{totals.get(UseCaseKind.LONG_INSERT, 0):>5}"
        f"{totals.get(UseCaseKind.IMPLEMENT_QUEUE, 0):>5}"
        f"{totals.get(UseCaseKind.SORT_AFTER_INSERT, 0):>5}"
        f"{totals.get(UseCaseKind.FREQUENT_SEARCH, 0):>5}"
        f"{totals.get(UseCaseKind.FREQUENT_LONG_READ, 0):>5}"
        f"{survey.total_use_cases:>5}"
        "   (paper: 49/3/1/3/10 = 66)"
    )
    return "\n".join(lines)


def render_table4(summary: EvaluationSummary) -> str:
    """Table IV: the seven-program evaluation."""
    lines = [
        "Table IV — Evaluation of DSspy",
        _rule(96),
        f"{'Name':<17}{'Slowdown':>9}{'DS':>5}{'UC':>4}{'TP':>4}"
        f"{'Reduction':>11}{'sim-Spd':>9}{'paper-UC':>9}{'paper-TP':>9}"
        f"{'paper-Spd':>10}",
        _rule(96),
    ]
    for row in summary.rows:
        paper = row.workload.paper
        slowdown = f"{row.slowdown:.2f}" if row.plain_seconds > 0 else "n/a"
        lines.append(
            f"{row.name:<17}{slowdown:>9}{row.instances:>5}{row.use_cases:>4}"
            f"{row.true_positives:>4}{row.search_space_reduction:>10.2%}"
            f"{row.program_speedup:>9.2f}"
            f"{paper.use_cases:>9}{paper.true_positives:>9}"
            f"{paper.speedup:>10.2f}"
        )
    lines.append(_rule(96))
    lines.append(
        f"{'Total':<17}{summary.mean_slowdown:>9.2f}"
        f"{summary.total_instances:>5}{summary.total_use_cases:>4}"
        f"{summary.total_true_positives:>4}{summary.total_reduction:>10.2%}"
        f"{summary.mean_speedup:>9.2f}"
    )
    lines.append(
        f"precision {summary.precision:.2%} (paper: 66.67%); "
        f"reduction (paper: 76.92%); 16 of 24 true positives (paper)"
    )
    return "\n".join(lines)


def render_table6(rows: list[FractionRow]) -> str:
    """Table VI: sequential vs parallelizable runtime fractions."""
    lines = [
        "Table VI — Sequential and parallel runtime fractions",
        _rule(80),
        f"{'Name':<18}{'Seq. fraction':>14}{'Paper':>10}{'Speedup':>10}"
        f"{'Amdahl@8':>10}",
        _rule(80),
    ]
    for row in rows:
        lines.append(
            f"{row.name:<18}{row.measured_fraction:>13.2%}"
            f"{row.paper_fraction:>9.2%}{row.program_speedup:>10.2f}"
            f"{row.amdahl_limit:>10.2f}"
        )
    return "\n".join(lines)


#: Table VII: related-work capability matrix (static, from the paper).
#: Rows are capabilities, columns approaches; values "+", "o" or "-".
TABLE7_MATRIX: dict[str, dict[str, str]] = {
    "Chronological order of data": {
        "Parallel Libraries": "+", "Programming Assistance": "-",
        "Software Visualization": "+", "Data Layout Optimization": "o",
        "Memory Access Analysis": "+", "Data Structure Optimization": "-",
        "Automatic Parallelization": "-", "This work": "o",
    },
    "Collection of data accesses": {
        "Parallel Libraries": "-", "Programming Assistance": "-",
        "Software Visualization": "o", "Data Layout Optimization": "+",
        "Memory Access Analysis": "-", "Data Structure Optimization": "-",
        "Automatic Parallelization": "-", "This work": "+",
    },
    "Detection of parallel potential": {
        "Parallel Libraries": "-", "Programming Assistance": "-",
        "Software Visualization": "-", "Data Layout Optimization": "-",
        "Memory Access Analysis": "-", "Data Structure Optimization": "+",
        "Automatic Parallelization": "+", "This work": "+",
    },
    "Deduction of use cases": {
        "Parallel Libraries": "-", "Programming Assistance": "-",
        "Software Visualization": "-", "Data Layout Optimization": "-",
        "Memory Access Analysis": "-", "Data Structure Optimization": "-",
        "Automatic Parallelization": "-", "This work": "+",
    },
}


def render_table7() -> str:
    """Table VII: comparison of related work."""
    approaches = list(next(iter(TABLE7_MATRIX.values())))
    lines = ["Table VII — Comparison of related work", _rule(100)]
    header = f"{'Capability':<34}" + "".join(f"{a[:10]:>11}" for a in approaches)
    lines.append(header)
    lines.append(_rule(100))
    for capability, row in TABLE7_MATRIX.items():
        lines.append(
            f"{capability:<34}" + "".join(f"{row[a]:>11}" for a in approaches)
        )
    return "\n".join(lines)
