"""Access-event substrate: events, profiles, channels, collectors.

This package implements the data-collection half of DSspy (§IV of the
paper): every interaction with an instrumented data structure becomes an
access event, a record kernel packs it into a per-thread buffer of the
:class:`Channel`, the channel's drainer thread moves the bytes to the
analysis side asynchronously, and post-mortem assembly in the
:class:`EventCollector` yields one :class:`RuntimeProfile` per data
structure instance.

There is one record path: the kernel, optionally behind a
:class:`SamplingPolicy` admit-filter.  The packed record layout of
:mod:`~repro.events.spill` is the representation in memory, in spill
files, on the wire and inside every :class:`RuntimeProfile`;
:class:`AccessEvent` objects are decoded from it only on demand.
"""

from .channel import Channel
from .collector import (
    EventCollector,
    collecting,
    get_collector,
    pop_collector,
    push_collector,
    reset_ambient,
)
from .event import AccessEvent
from .fastpath import KERNEL, PyRecorder, kernel_name, make_recorder
from .merge import merge_archives, merge_profiles
from .profile import NO_POSITION, AllocationSite, RuntimeProfile, read_spill_profiles, route_records
from .sampling import (
    RECORD_ALL,
    Burst,
    Decimate,
    RecordAll,
    SamplingPolicy,
    parse_sampling,
)
from .serialize import (
    dump_profiles,
    load_profiles,
    read_profiles,
    save_collector,
    save_profiles,
)
from .spill import (
    RECORD_SIZE,
    SpillWriter,
    iter_spill_records,
    pack_record,
    pack_records,
    read_spill_raw,
    record_is_plausible,
    unpack_record,
    unpack_records,
)
from .types import FRONT, AccessKind, OperationKind, StructureKind, end_of

__all__ = [
    "AccessEvent",
    "AccessKind",
    "AllocationSite",
    "Burst",
    "Channel",
    "Decimate",
    "EventCollector",
    "FRONT",
    "KERNEL",
    "NO_POSITION",
    "OperationKind",
    "PyRecorder",
    "RECORD_ALL",
    "RECORD_SIZE",
    "RecordAll",
    "RuntimeProfile",
    "SamplingPolicy",
    "SpillWriter",
    "StructureKind",
    "collecting",
    "dump_profiles",
    "end_of",
    "get_collector",
    "iter_spill_records",
    "kernel_name",
    "load_profiles",
    "make_recorder",
    "merge_archives",
    "merge_profiles",
    "pack_record",
    "pack_records",
    "parse_sampling",
    "pop_collector",
    "push_collector",
    "read_profiles",
    "read_spill_profiles",
    "read_spill_raw",
    "record_is_plausible",
    "reset_ambient",
    "route_records",
    "unpack_record",
    "unpack_records",
    "save_collector",
    "save_profiles",
]
