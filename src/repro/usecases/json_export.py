"""Machine-readable (JSON) export of use-case reports.

For CI integration: run DSspy in a pipeline, emit JSON, gate a build on
"no new parallelization smells" or feed dashboards.  The schema is
stable and versioned; everything in it round-trips through
``json.dumps``/``loads``.
"""

from __future__ import annotations

import json
from typing import Any

from ..events.profile import site_to_dict
from .engine import UseCaseReport
from .model import UseCase

SCHEMA_VERSION = 1


def use_case_to_dict(use_case: UseCase) -> dict[str, Any]:
    return {
        "kind": use_case.kind.label,
        "abbreviation": use_case.kind.abbreviation,
        "parallel": use_case.kind.parallel,
        "instance_id": use_case.instance_id,
        "structure": use_case.profile.kind.value,
        "label": use_case.profile.label,
        "site": site_to_dict(use_case.site),
        "recommendation": {
            "action": use_case.recommendation.action,
            "rationale": use_case.recommendation.rationale,
        },
        "predicted_speedup": use_case.predicted_speedup,
        "evidence": {
            key: value
            for key, value in use_case.evidence.items()
            if isinstance(value, (int, float, str, bool))
        },
    }


def report_to_dict(report: UseCaseReport) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "instances_analyzed": report.instances_analyzed,
        "instances_flagged": report.instances_flagged,
        "search_space_reduction": report.search_space_reduction,
        "use_cases": [use_case_to_dict(u) for u in report.use_cases],
    }


def report_to_json(report: UseCaseReport, indent: int | None = 2) -> str:
    return json.dumps(report_to_dict(report), indent=indent)


def summarize_json(payload: str | dict) -> str:
    """One-line summary of an exported report (for CI logs)."""
    data = json.loads(payload) if isinstance(payload, str) else payload
    kinds: dict[str, int] = {}
    for use_case in data.get("use_cases", []):
        kinds[use_case["abbreviation"]] = kinds.get(use_case["abbreviation"], 0) + 1
    mix = ", ".join(f"{k}={v}" for k, v in sorted(kinds.items())) or "none"
    return (
        f"{len(data.get('use_cases', []))} use cases on "
        f"{data.get('instances_flagged', 0)}/{data.get('instances_analyzed', 0)} "
        f"instances ({mix})"
    )
