"""Bounded-memory streaming use-case analysis.

A long-running daemon cannot keep every event until the program ends —
a day of profiling is billions of events — so
:class:`StreamingUseCaseEngine` folds each event into its instance's
:class:`~repro.usecases.features.ProfileFold` the moment it arrives and
discards it.  Memory is O(instances + completed runs), never O(events).

The batch :class:`~repro.usecases.UseCaseEngine` runs the same fold
over each finished profile and reports through the same
:func:`~repro.usecases.engine.fold_use_cases`, so feeding the same
events in the same per-instance order yields identical use cases with
identical evidence.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..events.event import RawEvent
from ..events.profile import AllocationSite
from ..events.types import StructureKind
from ..patterns.detector import DetectorConfig
from ..usecases.engine import UseCaseReport, fold_use_cases
from ..usecases.features import ProfileFold
from ..usecases.model import UseCase, UseCaseKind
from ..usecases.rules import ALL_RULES, Rule
from ..usecases.thresholds import PAPER_THRESHOLDS, Thresholds


class StreamingUseCaseEngine:
    """Incremental counterpart of :class:`~repro.usecases.UseCaseEngine`.

    Feed it instance registrations and windowed raw-event batches in
    per-instance order; ask for a :class:`UseCaseReport` at any time.
    The report's profiles are *skeletons* — correct identity
    (id/kind/site/label) with no event history, because the history was
    never retained.  Everything the report formatters consume
    (identity, patterns, evidence) is present.

    ``peak_resident_events`` records the largest window ever held at
    once — the bounded-memory claim, asserted in tests.
    """

    def __init__(
        self,
        thresholds: Thresholds = PAPER_THRESHOLDS,
        detector_config: DetectorConfig | None = None,
        rules: tuple[Rule, ...] = ALL_RULES,
    ) -> None:
        self.thresholds = thresholds
        self.config = detector_config if detector_config is not None else DetectorConfig()
        self.rules = rules
        self._folds: dict[int, ProfileFold] = {}
        self.events_folded = 0
        self.peak_resident_events = 0
        self.unknown_instance_events = 0

    # -- ingestion -------------------------------------------------------

    def register_instance(
        self,
        instance_id: int,
        kind: StructureKind,
        site: AllocationSite | None = None,
        label: str = "",
    ) -> None:
        """Declare an instance before its events arrive.  Idempotent —
        a re-registration after session resume is a no-op."""
        if instance_id not in self._folds:
            self._folds[instance_id] = ProfileFold(
                instance_id, kind, site, label, self.config.max_gap
            )

    def feed(self, raw: RawEvent) -> None:
        """Fold one raw event tuple.  Events of unregistered instances
        are dropped and counted, never guessed at."""
        self.feed_window((raw,))

    def feed_window(self, batch: Sequence[RawEvent]) -> None:
        """Fold one window of raw events; the window is the only event
        storage that ever exists, and its size is recorded."""
        if len(batch) > self.peak_resident_events:
            self.peak_resident_events = len(batch)
        folds = self._folds
        folded = 0
        for instance_id, op, kind, position, size, thread_id, _ in batch:
            fold = folds.get(instance_id)
            if fold is None:
                self.unknown_instance_events += 1
                continue
            fold.feed(op, kind, position, size, thread_id)
            folded += 1
        self.events_folded += folded

    # -- reporting -------------------------------------------------------

    @property
    def instances_analyzed(self) -> int:
        return len(self._folds)

    def report(self) -> UseCaseReport:
        """Use cases over everything folded so far.

        Non-destructive: in-flight runs are inspected, not flushed, so
        streaming can continue after an interim report.
        """
        use_cases: list[UseCase] = []
        for instance_id in sorted(self._folds):
            use_cases.extend(
                fold_use_cases(
                    self._folds[instance_id], self.config, self.thresholds, self.rules
                )
            )
        return UseCaseReport(
            use_cases=tuple(use_cases), instances_analyzed=len(self._folds)
        )

    def flagged_kinds(self) -> dict[int, list[str]]:
        """``{instance_id: [abbreviations]}`` for quick stats output."""
        out: dict[int, list[str]] = {}
        for use_case in self.report().use_cases:
            out.setdefault(use_case.instance_id, []).append(use_case.kind.abbreviation)
        return out


__all__ = ["StreamingUseCaseEngine", "UseCaseKind"]
