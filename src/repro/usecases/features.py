"""The per-event analysis fold and the features it yields.

Every quantity a use-case rule thresholds is an order-preserving fold
over one instance's events.  :class:`ProfileFold` is that fold: it
takes one int-coded event at a time, keeps the scalar counters, drives
the run-building step of phase segmentation
(:class:`~repro.patterns.phases.Segmenter`, the one :func:`segment`
uses) and the happens-before :class:`LaneSummary` of the what-if
profiler, and never stores an event.  Memory is O(threads + completed
runs) per instance.

Every analysis runs it: the batch :class:`~repro.usecases.UseCaseEngine`
folds each finished profile, the streaming
:class:`~repro.service.streaming.StreamingUseCaseEngine` folds each
event as it arrives, and :mod:`repro.whatif` reads work and span off
the lane summary.  Its :class:`ProfileFeatures` snapshot feeds the
shared :meth:`~repro.usecases.rules.Rule.evaluate_features`
implementations, so batch, streaming and daemon reports cannot drift
apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from ..events.profile import AllocationSite, site_from_dict, site_to_dict
from ..events.spill import _HAS_POSITION, ANALYSIS_FIELDS
from ..events.types import AccessKind, OperationKind, StructureKind
from ..patterns.detector import DetectorConfig, patterns_of
from ..patterns.model import AccessPattern
from ..patterns.phases import Run, Segmenter, _RunBuilder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..events.profile import RuntimeProfile
    from ..patterns.model import PatternAnalysis

_READ = int(AccessKind.READ)
_INSERT = int(OperationKind.INSERT)
_DELETE = int(OperationKind.DELETE)
_OP_READ = int(OperationKind.READ)
_SORT = int(OperationKind.SORT)
_INIT = int(OperationKind.INIT)


@dataclass(frozen=True, slots=True)
class ProfileFeatures:
    """Everything the eight use-case rules measure, as plain scalars.

    Attributes
    ----------
    kind:
        Container species of the instance.
    total_events:
        Number of events in the profile (all operations, including
        transparent ``Init``/``ForAll`` markers).
    read_kind_events:
        Events whose trivial :class:`AccessKind` is ``READ``.
    op_counts:
        Event count per compound :class:`OperationKind` (zero entries
        may be omitted; use :meth:`count`).
    insert_front / insert_back (and delete/read twins):
        Positional events of that operation targeting the front
        (``position == 0``) resp. the back (``position >= size - 1``).
        An event can hit both ends of a one-element structure and then
        counts in both.
    end_events:
        Events that hit the front or the back (each counted once).
    sort_count / last_sort_index:
        ``Sort`` operations seen, and the profile-relative index of the
        last one (``-1`` when none) — the Sort-After-Insert rule only
        needs the latest sort to decide "a sort follows this phase".
    trailing_writes / trailing_ops / trailing_distinct_positions /
    trailing_max_size:
        State of the write-without-read tail: non-``Init`` events after
        the last read-kind event, the operation kinds among them, how
        many distinct positions they touched, and the largest structure
        size they observed.
    patterns:
        The detected access patterns (maximal consistent runs), in
        ``start`` order.
    """

    kind: StructureKind
    total_events: int
    read_kind_events: int = 0
    op_counts: Mapping[OperationKind, int] = field(default_factory=dict)
    insert_front: int = 0
    insert_back: int = 0
    delete_front: int = 0
    delete_back: int = 0
    read_front: int = 0
    read_back: int = 0
    end_events: int = 0
    sort_count: int = 0
    last_sort_index: int = -1
    trailing_writes: int = 0
    trailing_ops: frozenset = frozenset()
    trailing_distinct_positions: int = 0
    trailing_max_size: int = 0
    patterns: tuple[AccessPattern, ...] = ()

    # -- derived quantities the rules threshold --------------------------

    def count(self, op: OperationKind) -> int:
        """Events with the given compound operation kind."""
        return self.op_counts.get(op, 0)

    @property
    def read_fraction(self) -> float:
        """Share of events that are trivial reads; 0.0 when empty."""
        if self.total_events == 0:
            return 0.0
        return self.read_kind_events / self.total_events

    @property
    def end_fraction(self) -> float:
        """Share of events that hit the front or back of the structure."""
        if self.total_events == 0:
            return 0.0
        return self.end_events / self.total_events

    def patterns_where(self, predicate) -> list[AccessPattern]:
        return [p for p in self.patterns if predicate(p)]

    def events_in(self, predicate) -> int:
        """Total events across patterns selected by ``predicate``."""
        return sum(p.length for p in self.patterns if predicate(p))

    def fraction_in(self, predicate) -> float:
        """Share of the profile's events inside matching patterns."""
        if self.total_events == 0:
            return 0.0
        return self.events_in(predicate) / self.total_events


def end_purity(count: int, front: int, back: int) -> tuple[str | None, float, int]:
    """Which end an operation targets and how consistently.

    Mirrors the rules' historical ``_end_purity`` mask arithmetic:
    ``count`` is every event of the operation (positional or not),
    ``front``/``back`` the positional subsets.  Returns ``(end, purity,
    count)`` where ``end`` is ``"front"`` / ``"back"`` / ``None``.
    """
    if count == 0:
        return None, 0.0, 0
    if front >= back:
        return "front", front / count, count
    return "back", back / count, count


@dataclass
class LaneSummary:
    """O(threads) happens-before state of one instance, fed one event
    at a time (see :mod:`repro.whatif.dag`).

    ``lane_end[tid]`` is the end time of thread ``tid``'s latest event
    (program order), ``last_write_end`` the end of the latest write on
    any thread, ``max_read_end`` the latest read end.  A read must
    follow its lane and every earlier write; a write must additionally
    follow every earlier read.  Each event costs one unit.
    """

    lane_end: dict[int, float] = field(default_factory=dict)
    last_write_end: float = 0.0
    max_read_end: float = 0.0
    work: int = 0

    def feed(self, thread_id: int, is_read: bool) -> None:
        start = self.lane_end.get(thread_id, 0.0)
        if self.last_write_end > start:
            start = self.last_write_end
        if is_read:
            end = start + 1.0
            if end > self.max_read_end:
                self.max_read_end = end
        else:
            if self.max_read_end > start:
                start = self.max_read_end
            end = start + 1.0
            self.last_write_end = end
        self.lane_end[thread_id] = end
        self.work += 1

    @property
    def span(self) -> float:
        """Critical-path length: the latest end over all lanes."""
        return max(self.lane_end.values(), default=0.0)

    @property
    def parallelism(self) -> float:
        """Inherent parallelism ``work / span`` (1.0 when empty)."""
        span = self.span
        return self.work / span if span > 0 else 1.0

    @property
    def thread_count(self) -> int:
        return len(self.lane_end)

    # -- serialization (checkpoint / SNAPSHOT payloads) ------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "lane_end": {str(tid): end for tid, end in self.lane_end.items()},
            "last_write_end": self.last_write_end,
            "max_read_end": self.max_read_end,
            "work": self.work,
        }

    @classmethod
    def from_dict(cls, obj: dict[str, Any] | None) -> "LaneSummary":
        """Rebuild from a serialized dict; ``None`` (a checkpoint
        written before lane summaries existed) yields an empty summary."""
        if not obj:
            return cls()
        return cls(
            lane_end={int(tid): float(end) for tid, end in obj["lane_end"].items()},
            last_write_end=float(obj["last_write_end"]),
            max_read_end=float(obj["max_read_end"]),
            work=int(obj["work"]),
        )


class ProfileFold:
    """All analysis state of one instance, updated one event at a time."""

    __slots__ = (
        "instance_id",
        "kind",
        "site",
        "label",
        "index",
        "read_kind",
        "op_counts",
        "insert_front",
        "insert_back",
        "delete_front",
        "delete_back",
        "read_front",
        "read_back",
        "end_events",
        "sort_count",
        "last_sort_index",
        "trailing",
        "trailing_ops",
        "trailing_positions",
        "trailing_max_size",
        "segmenter",
        "lanes",
    )

    def __init__(
        self,
        instance_id: int,
        kind: StructureKind,
        site: AllocationSite | None = None,
        label: str = "",
        max_gap: int = 1,
    ) -> None:
        self.instance_id = instance_id
        self.kind = kind
        self.site = site
        self.label = label
        self.index = 0  # profile-relative index of the next event
        self.read_kind = 0
        self.op_counts: dict[int, int] = {}
        self.insert_front = 0
        self.insert_back = 0
        self.delete_front = 0
        self.delete_back = 0
        self.read_front = 0
        self.read_back = 0
        self.end_events = 0
        self.sort_count = 0
        self.last_sort_index = -1
        self.trailing = 0
        self.trailing_ops: set[int] = set()
        self.trailing_positions: set[int] = set()
        self.trailing_max_size = 0
        self.segmenter = Segmenter(max_gap)
        self.lanes = LaneSummary()

    @classmethod
    def of_profile(cls, profile: "RuntimeProfile", max_gap: int = 1) -> "ProfileFold":
        """The fold over a finished profile's whole event history, read
        straight from its packed records."""
        fold = cls(profile.instance_id, profile.kind, profile.site, profile.label, max_gap)
        feed = fold.feed
        has_position = _HAS_POSITION
        for position, size, tid, op, kind, flags in ANALYSIS_FIELDS.iter_unpack(
            profile.records
        ):
            feed(op, kind, position if flags & has_position else None, size, tid)
        return fold

    def feed(
        self, op: int, kind: int, position: int | None, size: int, thread_id: int
    ) -> None:
        """Fold one event given by its operation and access-kind codes."""
        i = self.index
        self.index = i + 1
        self.lanes.feed(thread_id, kind == _READ)

        counts = self.op_counts
        counts[op] = counts.get(op, 0) + 1

        # Write-without-read tail: non-Init events after the last
        # read-kind event.  A read resets the tail; an Init neither
        # joins nor resets it.
        if kind == _READ:
            self.read_kind += 1
            if self.trailing:
                self.trailing = 0
                self.trailing_ops.clear()
                self.trailing_positions.clear()
                self.trailing_max_size = 0
        elif op != _INIT:
            self.trailing += 1
            self.trailing_ops.add(op)
            if position is not None:
                self.trailing_positions.add(position)
            if size > self.trailing_max_size:
                self.trailing_max_size = size

        # Ends: a one-element structure's only slot is both front and
        # back.  Unlike the run builder's ``targets_back``, an event on
        # an empty structure (size 0) counts as a back hit here.
        if position is not None:
            at_front = position == 0
            at_back = position >= size - 1
            if at_front or at_back:
                self.end_events += 1
            if op == _INSERT:
                if at_front:
                    self.insert_front += 1
                if at_back:
                    self.insert_back += 1
            elif op == _DELETE:
                if at_front:
                    self.delete_front += 1
                if at_back:
                    self.delete_back += 1
            elif op == _OP_READ:
                if at_front:
                    self.read_front += 1
                if at_back:
                    self.read_back += 1

        if op == _SORT:
            self.sort_count += 1
            self.last_sort_index = i

        self.segmenter.feed(i, op, position, size, thread_id)

    # -- snapshots (non-destructive) ------------------------------------

    def patterns(self, config: DetectorConfig) -> tuple[AccessPattern, ...]:
        """The patterns the detector classifies from the runs so far."""
        return patterns_of(self.segmenter.runs(), config)

    def features(self, patterns: tuple[AccessPattern, ...]) -> ProfileFeatures:
        """The counters so far, with ``patterns`` as the detected patterns."""
        return ProfileFeatures(
            kind=self.kind,
            total_events=self.index,
            read_kind_events=self.read_kind,
            op_counts=dict(self.op_counts),
            insert_front=self.insert_front,
            insert_back=self.insert_back,
            delete_front=self.delete_front,
            delete_back=self.delete_back,
            read_front=self.read_front,
            read_back=self.read_back,
            end_events=self.end_events,
            sort_count=self.sort_count,
            last_sort_index=self.last_sort_index,
            trailing_writes=self.trailing,
            trailing_ops=frozenset(OperationKind(op) for op in self.trailing_ops),
            trailing_distinct_positions=len(self.trailing_positions),
            trailing_max_size=self.trailing_max_size,
            patterns=patterns,
        )

    # -- serialization (checkpoint / fleet merge) -------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "instance_id": self.instance_id,
            "kind": self.kind.value,
            "site": site_to_dict(self.site),
            "label": self.label,
            "index": self.index,
            "read_kind": self.read_kind,
            "op_counts": {str(op): n for op, n in self.op_counts.items()},
            "insert_front": self.insert_front,
            "insert_back": self.insert_back,
            "delete_front": self.delete_front,
            "delete_back": self.delete_back,
            "read_front": self.read_front,
            "read_back": self.read_back,
            "end_events": self.end_events,
            "sort_count": self.sort_count,
            "last_sort_index": self.last_sort_index,
            "trailing": self.trailing,
            "trailing_ops": sorted(self.trailing_ops),
            "trailing_positions": sorted(self.trailing_positions),
            "trailing_max_size": self.trailing_max_size,
            "builders": {
                str(tid): (None if b.run is None else _run_to_dict(b.run))
                for tid, b in self.segmenter.builders.items()
            },
            "completed_runs": [_run_to_dict(r) for r in self.segmenter.completed],
            "lanes": self.lanes.to_dict(),
        }

    @classmethod
    def from_dict(cls, obj: dict[str, Any], max_gap: int = 1) -> "ProfileFold":
        fold = cls(
            int(obj["instance_id"]),
            StructureKind(obj["kind"]),
            site_from_dict(obj.get("site")),
            obj.get("label", ""),
            max_gap,
        )
        fold.index = obj["index"]
        fold.read_kind = obj["read_kind"]
        fold.op_counts = {int(op): n for op, n in obj["op_counts"].items()}
        fold.insert_front = obj["insert_front"]
        fold.insert_back = obj["insert_back"]
        fold.delete_front = obj["delete_front"]
        fold.delete_back = obj["delete_back"]
        fold.read_front = obj["read_front"]
        fold.read_back = obj["read_back"]
        fold.end_events = obj["end_events"]
        fold.sort_count = obj["sort_count"]
        fold.last_sort_index = obj["last_sort_index"]
        fold.trailing = obj["trailing"]
        fold.trailing_ops = set(obj["trailing_ops"])
        fold.trailing_positions = set(obj["trailing_positions"])
        fold.trailing_max_size = obj["trailing_max_size"]
        for tid_str, run_obj in obj["builders"].items():
            builder = _RunBuilder(max_gap)
            builder.run = None if run_obj is None else _run_from_dict(run_obj)
            fold.segmenter.builders[int(tid_str)] = builder
        fold.segmenter.completed = [_run_from_dict(r) for r in obj["completed_runs"]]
        # Checkpoints written before the what-if profiler existed have no
        # lane summary; recover them with an empty one rather than failing.
        fold.lanes = LaneSummary.from_dict(obj.get("lanes"))
        return fold


def _run_to_dict(run: Run) -> dict[str, Any]:
    return {
        "category": run.category,
        "thread_id": run.thread_id,
        "start": run.start,
        "stop": run.stop,
        "length": run.length,
        "direction": run.direction,
        "first_position": run.first_position,
        "last_position": run.last_position,
        "positions": sorted(run.positions),
        "size_at_end": run.size_at_end,
        "all_front": run.all_front,
        "all_back": run.all_back,
    }


def _run_from_dict(obj: dict[str, Any]) -> Run:
    return Run(
        category=obj["category"],
        thread_id=obj["thread_id"],
        start=obj["start"],
        stop=obj["stop"],
        length=obj["length"],
        direction=obj["direction"],
        first_position=obj["first_position"],
        last_position=obj["last_position"],
        positions=set(obj["positions"]),
        size_at_end=obj["size_at_end"],
        all_front=obj["all_front"],
        all_back=obj["all_back"],
    )


def features_of(analysis: "PatternAnalysis") -> ProfileFeatures:
    """The :class:`ProfileFeatures` of a batch pattern analysis: the
    fold over its profile, with the analysis' patterns."""
    return ProfileFold.of_profile(analysis.profile).features(analysis.patterns)
