"""Per-instance runtime profiles.

A runtime profile is the chronological sequence of all access events to
one data structure instance, from initialization to deallocation (§II-B).
Profiles are the unit of all downstream analysis: pattern detection,
use-case derivation and visualization all consume a
:class:`RuntimeProfile`.

A profile stores its events as the record kernel packed them (the
layout of :mod:`~repro.events.spill`) plus each one's collector-wide
logical timestamp.  Analysis folds the records straight from those
bytes; the numpy views (seqs, op codes, kinds, positions, sizes, thread
ids) are read with one structured dtype, and
:class:`~repro.events.event.AccessEvent` objects are decoded only when a
caller iterates or indexes the profile.  Both are built lazily and
cached.  Every path from packed records to profiles goes through
:meth:`RuntimeProfile.add_records`, mixed-instance streams through
:func:`route_records`.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .event import KINDS, OPS, AccessEvent
from .spill import (
    _HAS_POSITION,
    _HAS_WALL,
    _RECORD,
    RECORD_DTYPE,
    RECORD_SIZE,
    iter_spill_records,
    pack_records,
)
from .types import AccessKind, OperationKind, StructureKind

#: Sentinel stored in the positions array for whole-structure events.
NO_POSITION = -1


@dataclass(frozen=True, slots=True)
class AllocationSite:
    """Where a data structure instance was created.

    DSspy binds every event to its instantiation location so the
    engineer can navigate from a use case back to source code
    (Table V lists class/method/position per use case).
    """

    filename: str
    lineno: int
    function: str = "<module>"
    variable: str = ""

    def __str__(self) -> str:
        var = f" ({self.variable})" if self.variable else ""
        return f"{self.filename}:{self.lineno} in {self.function}{var}"


def site_to_dict(site: AllocationSite | None) -> dict[str, Any] | None:
    """JSON form of an allocation site (REGISTER frames, checkpoints)."""
    if site is None:
        return None
    return {
        "filename": site.filename,
        "lineno": site.lineno,
        "function": site.function,
        "variable": site.variable,
    }


def site_from_dict(obj: Any) -> AllocationSite | None:
    """Inverse of :func:`site_to_dict`; anything but a dict is no site."""
    if not isinstance(obj, dict):
        return None
    return AllocationSite(
        filename=obj.get("filename", "?"),
        lineno=int(obj.get("lineno", 0)),
        function=obj.get("function", "<module>"),
        variable=obj.get("variable", ""),
    )


class RuntimeProfile:
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

    __slots__ = ("instance_id", "kind", "site", "label", "_records", "_seqs", "_events", "_arrays")

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
        self._records = bytearray()
        self._seqs = array("q")
        self._events: list[AccessEvent] | None = None
        self._arrays: dict[str, np.ndarray] | None = None

    # -- construction -------------------------------------------------

    def add_records(self, records, seqs) -> None:
        """Add packed records (the spill layout, any buffer) and their
        logical timestamps; records must arrive in non-decreasing
        ``seq``."""
        seqs = np.asarray(seqs, dtype=np.int64)
        records = memoryview(records).cast("B")
        if len(records) != RECORD_SIZE * len(seqs):
            raise ValueError(f"{len(records)} bytes of records for {len(seqs)} timestamps")
        self._records += records
        self._seqs.frombytes(seqs.tobytes())
        self._events = None
        self._arrays = None

    def append(self, event: AccessEvent) -> None:
        """Add an event; events must arrive in non-decreasing ``seq``."""
        self.extend((event,))

    def extend(self, events: Iterable[AccessEvent]) -> None:
        events = list(events)
        raws = [
            (e.instance_id, e.op, e.kind, e.position, e.size, e.thread_id, e.wall_time)
            for e in events
        ]
        self.add_records(pack_records(raws), [e.seq for e in events])

    @classmethod
    def from_events(
        cls,
        events: Sequence[AccessEvent],
        kind: StructureKind = StructureKind.LIST,
        site: AllocationSite | None = None,
        label: str = "",
    ) -> "RuntimeProfile":
        """Build a profile from a pre-assembled event sequence."""
        instance_id = events[0].instance_id if events else 0
        profile = cls(instance_id, kind=kind, site=site, label=label)
        profile.extend(events)
        return profile

    # -- sequence protocol --------------------------------------------

    def __len__(self) -> int:
        return len(self._seqs)

    def __iter__(self) -> Iterator[AccessEvent]:
        return iter(self.events)

    def __getitem__(self, index):
        return self.events[index]

    def __repr__(self) -> str:
        where = f" @ {self.site}" if self.site else ""
        return (
            f"RuntimeProfile(#{self.instance_id} {self.kind.value}, "
            f"{len(self)} events{where})"
        )

    @property
    def records(self) -> bytes:
        """The events as packed records (a copy), in profile order."""
        return bytes(self._records)

    @property
    def events(self) -> Sequence[AccessEvent]:
        """The events as :class:`AccessEvent` objects, decoded on first use."""
        if self._events is None:
            self._events = [
                AccessEvent(
                    seq, KINDS[kind], OPS[op], pos if flags & _HAS_POSITION else None,
                    size, tid, iid, wall if flags & _HAS_WALL else None,
                )
                for seq, (iid, pos, size, tid, op, kind, flags, wall)
                in zip(self._seqs, _RECORD.iter_unpack(self._records))
            ]
        return self._events

    # -- vectorized views ----------------------------------------------

    def _array(self, name: str) -> np.ndarray:
        arrays = self._arrays
        if arrays is None:
            # Every array is a copy: a view would pin ``_records``, and
            # a bytearray exporting its buffer cannot grow.
            records = np.frombuffer(self._records, RECORD_DTYPE)
            has_position = (records["flags"] & _HAS_POSITION) != 0
            arrays = self._arrays = {
                "seq": np.array(self._seqs, dtype=np.int64),
                "op": records["op"].astype(np.int8),
                "kind": records["kind"].astype(np.int8),
                "position": np.where(has_position, records["position"], NO_POSITION),
                "size": records["size"].astype(np.int64),
                "thread": records["thread_id"].astype(np.int64),
            }
        return arrays[name]

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
        return self.count_kind(AccessKind.READ) / len(self) if len(self) else 0.0

    @property
    def write_fraction(self) -> float:
        return self.count_kind(AccessKind.WRITE) / len(self) if len(self) else 0.0

    @property
    def max_size(self) -> int:
        """Largest element count the structure reached."""
        return int(self.sizes.max(initial=0))

    @property
    def final_size(self) -> int:
        return int(self.sizes[-1]) if len(self) else 0

    @property
    def thread_ids(self) -> list[int]:
        """Distinct thread ids observed, ascending."""
        return np.unique(self.threads).tolist()

    @property
    def is_multithreaded(self) -> bool:
        return len(self.thread_ids) > 1

    def split_by_thread(self) -> dict[int, "RuntimeProfile"]:
        """Per-thread sub-profiles, preserving chronological order.

        Pattern detection treats interleaved threads separately (§IV
        captures thread ids precisely to recover successive accesses of
        each thread).  Threads appear in order of their first event.
        """
        threads = self.threads
        tids, first = np.unique(threads, return_index=True)
        records = np.frombuffer(self._records, RECORD_DTYPE)
        out: dict[int, RuntimeProfile] = {}
        for tid in tids[np.argsort(first)].tolist():
            mask = threads == tid
            label = f"{self.label}[t{tid}]" if self.label else ""
            sub = out[tid] = RuntimeProfile(self.instance_id, self.kind, self.site, label)
            sub.add_records(records[mask], self.seqs[mask])
        return out

    def slice(self, start: int, stop: int) -> "RuntimeProfile":
        """Sub-profile covering events ``start:stop`` (by index)."""
        start, stop, _ = slice(start, stop).indices(len(self))
        stop = max(start, stop)
        sub = RuntimeProfile(self.instance_id, self.kind, self.site, self.label)
        sub.add_records(
            self._records[start * RECORD_SIZE : stop * RECORD_SIZE],
            self._seqs[start:stop],
        )
        return sub

    def op_histogram(self) -> dict[OperationKind, int]:
        """Event count per compound operation kind (zero entries omitted)."""
        values, counts = np.unique(self.ops, return_counts=True)
        return {OperationKind(int(v)): int(c) for v, c in zip(values, counts)}


def route_records(data, profiles: dict[int, RuntimeProfile], first_seq: int = 0) -> None:
    """Append the packed records of ``data`` to their instances' profiles.

    Record ``i`` gets the logical timestamp ``first_seq + i``.  A stable
    sort on the instance id groups the records, so each profile gets its
    own in data order and no per-event object is built.  Records of
    instances missing from ``profiles`` are dropped.
    """
    records = np.frombuffer(data, RECORD_DTYPE, len(data) // RECORD_SIZE)
    if not len(records):
        return
    order = np.argsort(records["instance_id"], kind="stable")
    grouped, seqs = records[order], order + first_seq
    ids = grouped["instance_id"]
    cuts = (np.flatnonzero(ids[1:] != ids[:-1]) + 1).tolist()
    for lo, hi in zip([0, *cuts], [*cuts, len(ids)]):
        profile = profiles.get(int(ids[lo]))
        if profile is not None:
            profile.add_records(grouped[lo:hi], seqs[lo:hi])


def read_spill_profiles(path: str | Path) -> list[RuntimeProfile]:
    """One profile per instance of a spill file, by instance id, with
    timestamps stamped in file order as :meth:`EventCollector.finish`
    stamps an in-memory capture.  Spill files carry no registrations,
    so every profile has the default structure kind (list)."""
    data = b"".join(iter_spill_records(path))
    ids = np.unique(np.frombuffer(data, RECORD_DTYPE)["instance_id"])
    profiles = {iid: RuntimeProfile(iid) for iid in ids.tolist()}
    route_records(data, profiles)
    return list(profiles.values())
