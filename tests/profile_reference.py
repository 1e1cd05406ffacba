"""The list-of-``AccessEvent`` profile representation, kept as a test oracle.

Before profiles kept their events as packed records, the collector
turned every drained record into a frozen
:class:`~repro.events.event.AccessEvent`, and :class:`RuntimeProfile`
stored a list of them plus numpy copies built by a per-event loop.
That code is kept here verbatim (the class renamed
:class:`ReferenceProfile`, the collector's ``_assemble`` method moved
onto :class:`ReferenceAssembler` over a plain profile registry),
together with the JSON-lines writer of that time and ``materialize``,
so the packed representation
can be diffed accessor by accessor against an independent
implementation.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Sequence
from typing import TextIO

import numpy as np

from repro.events.event import KINDS, OPS, AccessEvent, RawEvent
from repro.events.profile import NO_POSITION, AllocationSite
from repro.events.serialize import FORMAT_VERSION
from repro.events.spill import _HAS_POSITION, _HAS_WALL, _RECORD, RECORD_SIZE
from repro.events.types import AccessKind, OperationKind, StructureKind


def materialize(seq: int, raw: RawEvent) -> AccessEvent:
    """Convert a raw on-the-wire tuple into an :class:`AccessEvent`."""
    instance_id, op_value, kind_value, position, size, thread_id, wall_time = raw
    return AccessEvent(
        seq, KINDS[kind_value], OPS[op_value], position, size, thread_id,
        instance_id, wall_time,
    )


class ReferenceProfile:
    """Chronologically ordered access events of one instance.

    Parameters
    ----------
    instance_id:
        Collector-unique id of the instance.
    kind:
        Container species, e.g. :attr:`StructureKind.LIST`.
    site:
        Allocation site, if known.
    label:
        Optional human-readable name (variable name or workload role).
    """

    __slots__ = (
        "instance_id",
        "kind",
        "site",
        "label",
        "_events",
        "_arrays",
    )

    def __init__(
        self,
        instance_id: int,
        kind: StructureKind = StructureKind.LIST,
        site: AllocationSite | None = None,
        label: str = "",
    ) -> None:
        self.instance_id = instance_id
        self.kind = kind
        self.site = site
        self.label = label
        self._events: list[AccessEvent] = []
        self._arrays: dict[str, np.ndarray] | None = None

    # -- construction -------------------------------------------------

    def append(self, event: AccessEvent) -> None:
        """Add an event; events must arrive in non-decreasing ``seq``."""
        self._events.append(event)
        self._arrays = None

    def extend(self, events: Iterable[AccessEvent]) -> None:
        self._events.extend(events)
        self._arrays = None

    @classmethod
    def from_events(
        cls,
        events: Sequence[AccessEvent],
        kind: StructureKind = StructureKind.LIST,
        site: AllocationSite | None = None,
        label: str = "",
    ) -> "ReferenceProfile":
        """Build a profile from a pre-assembled event sequence."""
        instance_id = events[0].instance_id if events else 0
        profile = cls(instance_id, kind=kind, site=site, label=label)
        profile.extend(events)
        return profile

    # -- sequence protocol --------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[AccessEvent]:
        return iter(self._events)

    def __getitem__(self, index):
        return self._events[index]

    def __repr__(self) -> str:
        where = f" @ {self.site}" if self.site else ""
        return (
            f"ReferenceProfile(#{self.instance_id} {self.kind.value}, "
            f"{len(self._events)} events{where})"
        )

    @property
    def events(self) -> Sequence[AccessEvent]:
        return self._events

    # -- vectorized views ----------------------------------------------

    def _build_arrays(self) -> dict[str, np.ndarray]:
        n = len(self._events)
        seqs = np.empty(n, dtype=np.int64)
        ops = np.empty(n, dtype=np.int8)
        kinds = np.empty(n, dtype=np.int8)
        positions = np.empty(n, dtype=np.int64)
        sizes = np.empty(n, dtype=np.int64)
        threads = np.empty(n, dtype=np.int64)
        for i, ev in enumerate(self._events):
            seqs[i] = ev.seq
            ops[i] = ev.op
            kinds[i] = ev.kind
            positions[i] = NO_POSITION if ev.position is None else ev.position
            sizes[i] = ev.size
            threads[i] = ev.thread_id
        return {
            "seq": seqs,
            "op": ops,
            "kind": kinds,
            "position": positions,
            "size": sizes,
            "thread": threads,
        }

    def _array(self, name: str) -> np.ndarray:
        if self._arrays is None:
            self._arrays = self._build_arrays()
        return self._arrays[name]

    @property
    def seqs(self) -> np.ndarray:
        """Logical timestamps, one per event."""
        return self._array("seq")

    @property
    def ops(self) -> np.ndarray:
        """:class:`OperationKind` codes as ``int8``."""
        return self._array("op")

    @property
    def kinds(self) -> np.ndarray:
        """:class:`AccessKind` codes as ``int8``."""
        return self._array("kind")

    @property
    def positions(self) -> np.ndarray:
        """Target indices; ``NO_POSITION`` for whole-structure events."""
        return self._array("position")

    @property
    def sizes(self) -> np.ndarray:
        """Structure size at each access."""
        return self._array("size")

    @property
    def threads(self) -> np.ndarray:
        """Thread id per event."""
        return self._array("thread")

    # -- simple aggregate queries ---------------------------------------

    def count(self, op: OperationKind) -> int:
        """Number of events with the given compound operation kind."""
        return int(np.count_nonzero(self.ops == op))

    def count_kind(self, kind: AccessKind) -> int:
        """Number of events with the given trivial read/write kind."""
        return int(np.count_nonzero(self.kinds == kind))

    @property
    def read_fraction(self) -> float:
        """Share of events that are reads; 0.0 on an empty profile."""
        if not self._events:
            return 0.0
        return self.count_kind(AccessKind.READ) / len(self._events)

    @property
    def write_fraction(self) -> float:
        if not self._events:
            return 0.0
        return self.count_kind(AccessKind.WRITE) / len(self._events)

    @property
    def max_size(self) -> int:
        """Largest element count the structure reached."""
        if not self._events:
            return 0
        return int(self.sizes.max())

    @property
    def final_size(self) -> int:
        return int(self.sizes[-1]) if self._events else 0

    @property
    def thread_ids(self) -> list[int]:
        """Distinct thread ids observed, ascending."""
        if not self._events:
            return []
        return [int(t) for t in np.unique(self.threads)]

    @property
    def is_multithreaded(self) -> bool:
        return len(self.thread_ids) > 1

    def split_by_thread(self) -> dict[int, "ReferenceProfile"]:
        """Per-thread sub-profiles, preserving chronological order.

        Pattern detection treats interleaved threads separately (§IV
        captures thread ids precisely to recover successive accesses of
        each thread).
        """
        out: dict[int, ReferenceProfile] = {}
        for ev in self._events:
            sub = out.get(ev.thread_id)
            if sub is None:
                sub = ReferenceProfile(
                    self.instance_id,
                    kind=self.kind,
                    site=self.site,
                    label=f"{self.label}[t{ev.thread_id}]" if self.label else "",
                )
                out[ev.thread_id] = sub
            sub.append(ev)
        return out

    def slice(self, start: int, stop: int) -> "ReferenceProfile":
        """Sub-profile covering events ``start:stop`` (by index)."""
        sub = ReferenceProfile(
            self.instance_id, kind=self.kind, site=self.site, label=self.label
        )
        sub.extend(self._events[start:stop])
        return sub

    def op_histogram(self) -> dict[OperationKind, int]:
        """Event count per compound operation kind (zero entries omitted)."""
        if not self._events:
            return {}
        values, counts = np.unique(self.ops, return_counts=True)
        return {OperationKind(int(v)): int(c) for v, c in zip(values, counts)}


class ReferenceAssembler:
    """The collector's former assembly step over a profile registry."""

    def __init__(self, profiles: dict[int, ReferenceProfile]) -> None:
        self._profiles = profiles
        self._assembled = 0

    def _assemble(self, data: bytes | bytearray) -> None:
        """Route the records of ``data`` past those already assembled
        into their profiles, straight from the packed bytes."""
        profiles = self._profiles
        seq = self._assembled
        records = _RECORD.iter_unpack(memoryview(data)[seq * RECORD_SIZE :])
        for iid, position, size, tid, op, kind, flags, wall in records:
            profile = profiles.get(iid)
            if profile is not None:
                profile.append(
                    AccessEvent(
                        seq,
                        KINDS[kind],
                        OPS[op],
                        position if flags & _HAS_POSITION else None,
                        size,
                        tid,
                        iid,
                        wall if flags & _HAS_WALL else None,
                    )
                )
            seq += 1
        self._assembled = seq


def _profile_header(profile: ReferenceProfile) -> dict:
    header: dict = {
        "type": "profile",
        "version": FORMAT_VERSION,
        "instance_id": profile.instance_id,
        "kind": profile.kind.value,
        "label": profile.label,
        "events": len(profile),
    }
    if profile.site is not None:
        header["site"] = {
            "filename": profile.site.filename,
            "lineno": profile.site.lineno,
            "function": profile.site.function,
            "variable": profile.site.variable,
        }
    return header


def _event_record(event: AccessEvent) -> list:
    """Compact positional encoding: [seq, op, kind, position, size, thread]."""
    return [
        event.seq,
        int(event.op),
        int(event.kind),
        event.position,
        event.size,
        event.thread_id,
    ]


def dump_profiles(profiles: Iterable[ReferenceProfile], fh: TextIO) -> int:
    """Write profiles as JSON lines; returns the profile count."""
    count = 0
    for profile in profiles:
        fh.write(json.dumps(_profile_header(profile)) + "\n")
        for event in profile:
            fh.write(json.dumps(_event_record(event)) + "\n")
        count += 1
    return count
