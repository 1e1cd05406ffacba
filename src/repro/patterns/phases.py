"""Phase segmentation: splitting an event stream into consistent runs.

DSspy "executes the phase detection on the access profiles" after the
instrumented program terminates (§IV).  A *run* is a maximal sequence of
consecutive same-thread events of one operation category whose target
positions move consistently: adjacent steps (|Δpos| ≤ ``max_gap``) in a
single direction.  Runs are the raw material the
:mod:`~repro.patterns.detector` classifies into the eight pattern types.

Whole-structure events (``Clear``, ``Sort``, ``Reverse``, ``Copy``,
``Resize``) terminate the current run of their thread; ``Init`` and
``ForAll`` markers are transparent (a ``ForAll`` is immediately followed
by the per-element reads that *are* the pattern); ``Search`` events are
opaque single operations counted separately by the use-case rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..events.profile import RuntimeProfile
from ..events.spill import _HAS_POSITION, ANALYSIS_FIELDS
from ..events.types import OperationKind

#: Operation categories that can form positional runs.
_RUN_OPS = {
    OperationKind.READ: "read",
    OperationKind.WRITE: "write",
    OperationKind.INSERT: "insert",
    OperationKind.DELETE: "delete",
}

#: Operations that are transparent to segmentation.
_TRANSPARENT = {OperationKind.FORALL, OperationKind.INIT}

#: Operations that end the current run of their thread.
_BREAKERS = {
    OperationKind.CLEAR,
    OperationKind.SORT,
    OperationKind.REVERSE,
    OperationKind.COPY,
    OperationKind.RESIZE,
    OperationKind.SEARCH,
}


@dataclass(slots=True)
class Run:
    """A maximal consistent event run, before classification."""

    category: str
    thread_id: int
    start: int
    stop: int
    length: int
    direction: int  # +1 forward, -1 backward, 0 stationary
    first_position: int
    last_position: int
    positions: set[int] = field(default_factory=set)
    size_at_end: int = 0
    all_front: bool = True  # every position == 0
    all_back: bool = True  # every event targeted the (then-)back

    @property
    def distinct_positions(self) -> int:
        return len(self.positions)


class _RunBuilder:
    """Per-thread incremental run construction."""

    __slots__ = ("run", "max_gap")

    def __init__(self, max_gap: int) -> None:
        self.run: Run | None = None
        self.max_gap = max_gap

    def feed(
        self,
        index: int,
        category: str,
        position: int,
        size: int,
        targets_back: bool,
        thread_id: int,
    ) -> Run | None:
        """Add one event; returns a finished run when a break occurs."""
        finished: Run | None = None
        run = self.run
        if run is not None:
            delta = position - run.last_position
            compatible = (
                category == run.category
                and abs(delta) <= self.max_gap
                and (
                    delta == 0
                    or run.direction == 0
                    or (delta > 0) == (run.direction > 0)
                )
            )
            if not compatible:
                finished = run
                run = None
            else:
                if delta != 0 and run.direction == 0:
                    run.direction = 1 if delta > 0 else -1
        if run is None:
            run = Run(
                category=category,
                thread_id=thread_id,
                start=index,
                stop=index + 1,
                length=1,
                direction=0,
                first_position=position,
                last_position=position,
            )
            self.run = run
        else:
            run.length += 1
            run.stop = index + 1
            run.last_position = position
        run.positions.add(position)
        run.size_at_end = size
        run.all_front = run.all_front and position == 0
        run.all_back = run.all_back and targets_back
        return finished

    def flush(self) -> Run | None:
        run, self.run = self.run, None
        return run


class Segmenter:
    """Run building over one instance's events, one event at a time.

    This is the single run-building step of the analysis: :func:`segment`
    drives it over a batch profile, and
    :class:`~repro.usecases.features.ProfileFold` drives it as part of
    its per-event fold.  ``op`` is an :class:`OperationKind` code.
    """

    __slots__ = ("max_gap", "builders", "completed")

    def __init__(self, max_gap: int = 1) -> None:
        self.max_gap = max_gap
        self.builders: dict[int, _RunBuilder] = {}
        self.completed: list[Run] = []

    def feed(
        self, index: int, op: int, position: int | None, size: int, thread_id: int
    ) -> None:
        if op in _TRANSPARENT:
            return
        builder = self.builders.get(thread_id)
        if builder is None:
            builder = self.builders[thread_id] = _RunBuilder(self.max_gap)
        if op in _BREAKERS or position is None:
            finished = builder.flush()
            if finished is not None:
                self.completed.append(finished)
            return
        category = _RUN_OPS.get(op)
        if category is None:
            return
        # AccessEvent.targets_back: an empty structure has no back.
        targets_back = size != 0 and position >= size - 1
        finished = builder.feed(index, category, position, size, targets_back, thread_id)
        if finished is not None:
            self.completed.append(finished)

    def runs(self) -> list[Run]:
        """Completed and in-flight runs in ``start`` order.

        In-flight runs are read, not flushed, so feeding can go on
        after a snapshot.
        """
        runs = list(self.completed)
        runs.extend(b.run for b in self.builders.values() if b.run is not None)
        runs.sort(key=lambda r: r.start)
        return runs


def segment(profile: RuntimeProfile, max_gap: int = 1) -> list[Run]:
    """Split ``profile`` into maximal consistent runs.

    Runs are returned in ``start`` order; each covers events of a
    single thread.  Single-event runs are included -- the detector
    filters by minimum length.
    """
    segmenter = Segmenter(max_gap)
    feed = segmenter.feed
    fields = ANALYSIS_FIELDS.iter_unpack(profile.records)
    for index, (position, size, tid, op, _kind, flags) in enumerate(fields):
        feed(index, op, position if flags & _HAS_POSITION else None, size, tid)
    return segmenter.runs()
