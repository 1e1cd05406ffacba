"""Crash safety for the profiling daemon: journal, checkpoint, recovery.

The daemon's promise to a client is simple: once the server's
``received`` cursor covers an event, the client may forget it.  That
promise is only honest if the events behind the cursor survive a
daemon death.  This module keeps it with a classic write-ahead scheme:

**Journal.**  Every session owns a directory under the daemon's
``--state-dir`` holding append-only segment files.  Each REGISTER and
EVENTS window is appended — CRC-framed, reusing the 39-byte spill
record packing for event payloads — *before* the session advances its
``received`` cursor.  A crash can therefore only lose events the
client still holds and will retransmit.

**Checkpoint.**  Replaying a long journal from zero would make restart
cost proportional to session length.  Periodically the session
serializes its :class:`~repro.service.streaming.StreamingUseCaseEngine`
(every per-instance fold, including in-flight phase runs) plus its
cursors into ``checkpoint.json`` (atomic ``os.replace``), rolls the
journal to a fresh segment, and prunes the segments the checkpoint
subsumes.  Recovery loads the checkpoint and replays only the tail.

**Recovery.**  :func:`recover_session_dir` rebuilds one session's
engine and cursors from disk, truncating a torn tail record (a crash
mid-append) back to the last whole record.  The daemon runs it for
every session directory at startup; ``dsspy recover`` runs it offline.

**Admission.**  Durability makes overload *survivable*; the
:class:`AdmissionController` makes it *graceful*.  Global and
per-session event-rate quotas (sliding-window :class:`RateMeter`)
drive a degradation ladder — decimate, journal-only (events land
durably but analysis is deferred), shed with a RETRY-AFTER reply —
so an overloaded daemon slows clients down instead of falling over.

Journal segment layout::

    8 bytes   magic  b"DSPYWJ01"
    records, each:
        1 byte    record type (REC_REGISTER / REC_EVENTS / REC_FIN)
        4 bytes   little-endian uint32 payload length
        4 bytes   little-endian uint32 CRC-32 of the payload
        N bytes   payload

EVENTS payloads are exactly the wire protocol's: an 8-byte big-endian
stream index + 4-byte count header followed by packed spill records.
REGISTER payloads are the UTF-8 JSON registration object.  FIN marks
a cleanly finished session — its directory is garbage, not state.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import threading
import warnings
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from ..events.event import RawEvent
from ..events.profile import AllocationSite
from ..events.spill import RECORD_SIZE, pack_record, unpack_record
from ..events.types import StructureKind
from ..patterns.detector import DetectorConfig
from ..patterns.phases import Run, _RunBuilder
from ..testing.clock import SYSTEM_CLOCK, Clock
from ..usecases.rules import ALL_RULES, Rule
from ..usecases.thresholds import PAPER_THRESHOLDS, Thresholds
from ..whatif.dag import LaneSummary
from .governor import REAL_FS, RealFS, ResourceGovernor, is_resource_error
from .protocol import _EVENTS_HEADER
from .streaming import StreamingUseCaseEngine, _InstanceFold

#: Every journal segment opens with ``DSPYWJ`` plus two ASCII digits
#: naming the on-disk format generation that wrote it.  v1 and v2
#: share the record layout (v2 merely stamps the generation so future
#: record-format changes have a place to hang a migration); readers
#: accept every generation up to :data:`JOURNAL_VERSION` and refuse
#: newer ones with :class:`FutureFormatError` — "needs migration by a
#: newer build", never "corrupt".
JOURNAL_MAGIC_PREFIX = b"DSPYWJ"
JOURNAL_VERSION = 2
JOURNAL_MAGIC = b"DSPYWJ02"  # stamped on newly opened segments
_MAGIC_LEN = len(JOURNAL_MAGIC)


class FutureFormatError(RuntimeError):
    """On-disk state written by a newer dsspy than this build.

    Deliberately *not* a :class:`ValueError` subclass: recovery paths
    that tolerate corruption (replay-from-zero, fsck damage handling)
    must not swallow a version mismatch — refusing loudly is the whole
    point, because "recovering" newer state would silently destroy it.
    """


def journal_magic(version: int) -> bytes:
    """Segment header for format generation ``version``."""
    if not 1 <= version <= 99:
        raise ValueError(f"journal format version out of range: {version}")
    return JOURNAL_MAGIC_PREFIX + b"%02d" % version


def parse_journal_magic(header: bytes) -> int:
    """Format generation from a segment's first 8 bytes.

    Raises :class:`ValueError` for non-journal bytes and
    :class:`FutureFormatError` for a generation newer than this build
    understands.
    """
    if len(header) < _MAGIC_LEN or not header.startswith(JOURNAL_MAGIC_PREFIX):
        raise ValueError("not a DSspy journal segment")
    tail = header[len(JOURNAL_MAGIC_PREFIX) : _MAGIC_LEN]
    if not tail.isdigit():
        raise ValueError("not a DSspy journal segment")
    version = int(tail)
    if version < 1:
        raise ValueError("not a DSspy journal segment")
    if version > JOURNAL_VERSION:
        raise FutureFormatError(
            f"journal segment format v{version} is newer than this build "
            f"reads (v{JOURNAL_VERSION}); run 'dsspy migrate' with the "
            "newer build or upgrade this one"
        )
    return version


def segment_version(path: str | Path, *, fs: RealFS | None = None) -> int:
    """Format generation of one segment file on disk."""
    data = (fs if fs is not None else REAL_FS).read_bytes(Path(path))
    return parse_journal_magic(data[:_MAGIC_LEN])


#: Journal record types.
REC_REGISTER = 1
REC_EVENTS = 2
REC_FIN = 3
_KNOWN_RECORDS = frozenset((REC_REGISTER, REC_EVENTS, REC_FIN))

_REC_HEADER = struct.Struct("<BII")

#: Sanity ceiling on one journal payload; anything larger is a torn or
#: corrupt header, not a real record (wire frames are capped at 8 MB).
MAX_JOURNAL_PAYLOAD = 16 * 1024 * 1024

_SEGMENT_GLOB = "journal-*.wal"
_CHECKPOINT_NAME = "checkpoint.json"
#: Checkpoint schema generation.  v1 lacked the ``format`` block; v2
#: records the writing build's format versions so mixed-version state
#: directories are diagnosable.  Readers accept v1 and v2; a newer
#: version is a :class:`FutureFormatError`, never "replay from zero"
#: (which would silently discard the newer engine state).
CHECKPOINT_VERSION = 2


# -- registration parsing (shared by daemon ingest and recovery) -------------


def parse_register_entries(
    obj: dict[str, Any],
) -> Iterator[tuple[int, StructureKind, AllocationSite | None, str]]:
    """Yield ``(instance_id, kind, site, label)`` per REGISTER entry.

    A malformed entry raises :class:`ValueError` *at its position* —
    entries before it have already been yielded, matching the daemon's
    register-as-you-go semantics.  Both the live REGISTER handler and
    journal replay parse through here so they cannot drift.
    """
    for inst in obj.get("instances", ()):
        try:
            instance_id = int(inst["id"])
            kind = StructureKind(inst.get("kind", "list"))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad REGISTER entry: {exc}") from exc
        site_obj = inst.get("site")
        site = (
            AllocationSite(
                filename=site_obj.get("filename", "?"),
                lineno=int(site_obj.get("lineno", 0)),
                function=site_obj.get("function", "<module>"),
                variable=site_obj.get("variable", ""),
            )
            if isinstance(site_obj, dict)
            else None
        )
        yield instance_id, kind, site, str(inst.get("label", ""))


def _site_to_dict(site: AllocationSite | None) -> dict[str, Any] | None:
    if site is None:
        return None
    return {
        "filename": site.filename,
        "lineno": site.lineno,
        "function": site.function,
        "variable": site.variable,
    }


def _site_from_dict(obj: dict[str, Any] | None) -> AllocationSite | None:
    if obj is None:
        return None
    return AllocationSite(
        filename=obj.get("filename", "?"),
        lineno=int(obj.get("lineno", 0)),
        function=obj.get("function", "<module>"),
        variable=obj.get("variable", ""),
    )


# -- engine serialization ----------------------------------------------------


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


def _fold_to_dict(fold: _InstanceFold) -> dict[str, Any]:
    return {
        "instance_id": fold.instance_id,
        "kind": fold.kind.value,
        "site": _site_to_dict(fold.site),
        "label": fold.label,
        "index": fold.index,
        "read_kind": fold.read_kind,
        "op_counts": {str(op): n for op, n in fold.op_counts.items()},
        "insert_front": fold.insert_front,
        "insert_back": fold.insert_back,
        "delete_front": fold.delete_front,
        "delete_back": fold.delete_back,
        "read_front": fold.read_front,
        "read_back": fold.read_back,
        "end_events": fold.end_events,
        "sort_count": fold.sort_count,
        "last_sort_index": fold.last_sort_index,
        "trailing": fold.trailing,
        "trailing_ops": sorted(fold.trailing_ops),
        "trailing_positions": sorted(fold.trailing_positions),
        "trailing_max_size": fold.trailing_max_size,
        "builders": {
            str(tid): (None if b.run is None else _run_to_dict(b.run))
            for tid, b in fold.builders.items()
        },
        "completed_runs": [_run_to_dict(r) for r in fold.completed_runs],
        "lanes": fold.lanes.to_dict(),
    }


def _fold_from_dict(obj: dict[str, Any], max_gap: int) -> _InstanceFold:
    fold = _InstanceFold(
        int(obj["instance_id"]),
        StructureKind(obj["kind"]),
        _site_from_dict(obj.get("site")),
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
        fold.builders[int(tid_str)] = builder
    fold.completed_runs = [_run_from_dict(r) for r in obj["completed_runs"]]
    # Checkpoints written before the what-if profiler existed have no
    # lane summary; recover them with an empty one rather than failing.
    fold.lanes = LaneSummary.from_dict(obj.get("lanes"))
    return fold


def engine_to_dict(engine: StreamingUseCaseEngine) -> dict[str, Any]:
    """Serialize every fold and counter; the engine must be quiescent
    (no concurrent ``feed``) while this runs."""
    return {
        "events_folded": engine.events_folded,
        "peak_resident_events": engine.peak_resident_events,
        "unknown_instance_events": engine.unknown_instance_events,
        "folds": [
            _fold_to_dict(engine._folds[iid]) for iid in sorted(engine._folds)
        ],
    }


def engine_from_dict(
    obj: dict[str, Any],
    *,
    thresholds: Thresholds = PAPER_THRESHOLDS,
    detector_config: DetectorConfig | None = None,
    rules: tuple[Rule, ...] = ALL_RULES,
) -> StreamingUseCaseEngine:
    """Rebuild an engine whose future ``report()`` calls are identical
    to the serialized engine's.  Analysis knobs are *not* persisted —
    the recovering daemon supplies its own, which must match the
    original's for the convergence guarantee to hold."""
    engine = StreamingUseCaseEngine(
        thresholds=thresholds, detector_config=detector_config, rules=rules
    )
    engine.events_folded = obj["events_folded"]
    engine.peak_resident_events = obj["peak_resident_events"]
    engine.unknown_instance_events = obj["unknown_instance_events"]
    max_gap = engine.config.max_gap
    for fold_obj in obj["folds"]:
        fold = _fold_from_dict(fold_obj, max_gap)
        engine._folds[fold.instance_id] = fold
    return engine


def merge_engine_dicts(dicts: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Merge serialized engine states from disjoint session shards.

    Folds are strictly per-instance and ``report()`` evaluates each
    instance independently, so a fleet-wide engine is the union of the
    shards' folds plus summed counters.  The *disjointness* contract is
    the sharding invariant (a session — and therefore every instance it
    registers — lives on exactly one worker); a duplicate instance id
    means two shards claim the same instance and the merge would be
    silently lossy, so it raises instead.
    """
    merged: dict[str, Any] = {
        "events_folded": 0,
        "peak_resident_events": 0,
        "unknown_instance_events": 0,
        "folds": [],
    }
    seen: set[int] = set()
    folds: list[dict[str, Any]] = []
    for obj in dicts:
        merged["events_folded"] += obj["events_folded"]
        merged["unknown_instance_events"] += obj["unknown_instance_events"]
        # Peak residency is per-process; the fleet-wide figure is the
        # worst single shard, not a sum of non-simultaneous peaks.
        merged["peak_resident_events"] = max(
            merged["peak_resident_events"], obj["peak_resident_events"]
        )
        for fold_obj in obj["folds"]:
            iid = int(fold_obj["instance_id"])
            if iid in seen:
                raise ValueError(
                    f"instance id {iid} appears in more than one shard; "
                    "shards must hold disjoint session subsets"
                )
            seen.add(iid)
            folds.append(fold_obj)
    merged["folds"] = sorted(folds, key=lambda f: int(f["instance_id"]))
    return merged


def merge_engines(
    engines: Iterable[StreamingUseCaseEngine],
    *,
    thresholds: Thresholds = PAPER_THRESHOLDS,
    detector_config: DetectorConfig | None = None,
    rules: tuple[Rule, ...] = ALL_RULES,
) -> StreamingUseCaseEngine:
    """Fuse quiescent shard engines into one whose ``report()`` equals
    a single engine fed the union of the shards' streams."""
    return engine_from_dict(
        merge_engine_dicts(engine_to_dict(e) for e in engines),
        thresholds=thresholds,
        detector_config=detector_config,
        rules=rules,
    )


# -- the write-ahead journal -------------------------------------------------


def _encode_record(rtype: int, payload: bytes) -> bytes:
    return _REC_HEADER.pack(rtype, len(payload), zlib.crc32(payload)) + payload


class SessionJournal:
    """Append-only per-session write-ahead journal.

    One instance per live session; appends are serialized by the
    session lock but an internal lock makes the journal safe on its
    own.  Appends are flushed to the OS per record (a SIGKILL'd
    process loses nothing already appended); ``fsync=True`` extends
    that to power loss at a heavy per-append cost.

    Disk I/O goes through ``fs`` (a
    :class:`~repro.service.governor.RealFS`, or a
    :class:`~repro.testing.faults.FaultFS` under test) and failures are
    classified by ``governor``.  A failed append leaves the cursor
    untouched and *self-heals* the segment: the partial record is
    truncated away (or, when even that fails, the segment is abandoned
    and the next append rolls to a fresh one), so a later successful
    append can never land behind a torn record that a crash-recovery
    scan would treat as the end of the journal.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        segment_max_bytes: int = 4 * 1024 * 1024,
        fsync: bool = False,
        fs: RealFS | None = None,
        governor: ResourceGovernor | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._segment_max = segment_max_bytes
        self._fsync = fsync
        self._fs = fs if fs is not None else (
            governor.fs if governor is not None else REAL_FS
        )
        self._governor = governor
        self._lock = threading.Lock()
        self._fh = None
        self._closed = False
        self._segment_bytes = 0
        self.appended_events = 0
        self.checkpoints = 0
        self.append_failures = 0
        self.checkpoint_failures = 0
        existing = sorted(self.directory.glob(_SEGMENT_GLOB))
        self._next_index = (
            int(existing[-1].stem.split("-")[1]) + 1 if existing else 0
        )
        try:
            self._open_segment()
        except OSError as exc:
            # A full or failing disk at construction time (typically
            # crash-recovery on the very volume that caused the crash)
            # must not prevent the session from coming up: the first
            # append retries the open, and *its* failure surfaces
            # through the normal ResourcePressure ladder instead of
            # aborting recovery.
            self.append_failures += 1
            self._record_failure("journal-open", exc)

    def _open_segment(self) -> None:
        path = self.directory / f"journal-{self._next_index:06d}.wal"
        self._next_index += 1
        fh = self._fs.open(path, "wb")
        try:
            self._fs.write(fh, JOURNAL_MAGIC)
        except OSError:
            fh.close()
            self._fs.unlink(path)  # a magic-less file is not a segment
            raise
        self._fh = fh
        self._segment_bytes = len(JOURNAL_MAGIC)

    def _record_failure(self, op: str, exc: OSError) -> None:
        if self._governor is not None and is_resource_error(exc):
            self._governor.record_failure(op, exc)

    def _append(self, rtype: int, payload: bytes) -> None:
        if self._closed:
            raise RuntimeError("journal already closed")
        if self._fh is None:
            # A previous failure abandoned the segment; start fresh.
            try:
                self._open_segment()
            except OSError as exc:
                self.append_failures += 1
                self._record_failure("journal-append", exc)
                raise
        record = _encode_record(rtype, payload)
        try:
            self._fs.write(self._fh, record)
            if self._fsync:
                self._fs.fsync(self._fh)
        except OSError as exc:
            self.append_failures += 1
            self._record_failure("journal-append", exc)
            # Self-heal: drop whatever partial bytes the failed write
            # left so the next append starts at a clean record boundary.
            try:
                self._fh.seek(self._segment_bytes)
                self._fh.truncate(self._segment_bytes)
                self._fh.flush()
            except OSError:
                try:
                    self._fh.close()
                except OSError:
                    pass
                self._fh = None  # next append rolls to a fresh segment
            raise
        self._segment_bytes += len(record)
        if self._segment_bytes >= self._segment_max:
            self._fh.close()
            self._fh = None  # stays None if the roll fails (retried later)
            try:
                self._open_segment()
            except OSError as exc:
                # The append itself landed in the closed segment; the
                # roll is retried by the next append.
                self._record_failure("journal-roll", exc)

    # -- appends (called with the session quiescent or locked) -----------

    def append_events(self, start: int, raws: list[RawEvent]) -> None:
        body = bytearray(_EVENTS_HEADER.pack(start, len(raws)))
        for raw in raws:
            body += pack_record(raw)
        with self._lock:
            self._append(REC_EVENTS, bytes(body))
            self.appended_events += len(raws)

    def append_register(self, entries: list[dict[str, Any]]) -> None:
        payload = json.dumps(
            {"instances": entries}, separators=(",", ":")
        ).encode("utf-8")
        with self._lock:
            self._append(REC_REGISTER, payload)

    def append_fin(self) -> None:
        with self._lock:
            self._append(REC_FIN, b"")

    def checkpoint(self, state: dict[str, Any]) -> None:
        """Atomically persist ``state`` and prune the journal behind it.

        The caller guarantees ``state`` covers every event appended so
        far (``applied == received`` and the engine flushed); only then
        is deleting the old segments sound.

        A resource failure while writing the checkpoint leaves the old
        checkpoint and every journal segment in place (the ``.tmp`` +
        ``replace`` dance means a torn write is never visible), counts
        the failure, and re-raises; the caller skips the checkpoint and
        retries later.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("journal already closed")
            tmp = self.directory / (_CHECKPOINT_NAME + ".tmp")
            try:
                self._fs.write_text(tmp, json.dumps(state, separators=(",", ":")))
                self._fs.replace(tmp, self.directory / _CHECKPOINT_NAME)
            except OSError as exc:
                self.checkpoint_failures += 1
                self._record_failure("checkpoint", exc)
                try:
                    self._fs.unlink(tmp)
                except OSError:
                    pass
                raise
            if self._fh is not None:
                self._fh.close()
                self._fh = None
            keep_from = self._next_index
            try:
                self._open_segment()
            except OSError as exc:
                self._record_failure("journal-roll", exc)
            for seg in self.directory.glob(_SEGMENT_GLOB):
                if int(seg.stem.split("-")[1]) < keep_from:
                    try:
                        self._fs.unlink(seg)
                    except OSError:
                        pass  # pruning is an optimization, not a promise
            self.checkpoints += 1

    def size_bytes(self) -> int:
        """On-disk footprint of this session (segments + checkpoint),
        for state-budget accounting."""
        total = 0
        for child in self.directory.glob(_SEGMENT_GLOB):
            total += self._fs.size(child)
        total += self._fs.size(self.directory / _CHECKPOINT_NAME)
        return total

    # -- reads (deferred-window replay) ----------------------------------

    def iter_event_windows(self, from_index: int) -> Iterator[tuple[int, list[RawEvent]]]:
        """Yield journaled ``(start, raws)`` windows covering stream
        indices ``>= from_index``, trimmed to start exactly there.

        Safe while the journal is open for appending: appends flush per
        record, so every complete record is visible to the reader.

        The cursor advances monotonically across records, so a journal
        holding retransmit overlap (a legal state — e.g. a window that
        landed twice around a crash) yields each stream index exactly
        once, the same dedup :func:`recover_session_dir` applies.
        Feeding an overlapping record twice would double-fold events
        into the engine.
        """
        with self._lock:
            if self._fh is not None:
                self._fh.flush()
            segments = sorted(self.directory.glob(_SEGMENT_GLOB))
        cursor = from_index
        for segment in segments:
            records, _ = scan_segment(segment)
            for rtype, payload in records:
                if rtype != REC_EVENTS:
                    continue
                start, raws = _decode_events_payload(payload)
                end = start + len(raws)
                if end <= cursor:
                    continue
                if start < cursor:
                    yield cursor, raws[cursor - start :]
                else:
                    yield start, raws
                cursor = end

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran; appends then raise."""
        return self._closed

    def close(self) -> None:
        with self._lock:
            self._closed = True
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def delete(self) -> None:
        """Close and remove the whole session directory."""
        self.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    def __enter__(self) -> "SessionJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _decode_events_payload(payload: bytes) -> tuple[int, list[RawEvent]]:
    start, count = _EVENTS_HEADER.unpack_from(payload)
    body = payload[_EVENTS_HEADER.size :]
    return start, [
        unpack_record(body[offset : offset + RECORD_SIZE])
        for offset in range(0, count * RECORD_SIZE, RECORD_SIZE)
    ]


def scan_segment(
    path: str | Path, *, fs: RealFS | None = None
) -> tuple[list[tuple[int, bytes]], int | None]:
    """Read one segment; returns ``(records, torn_offset)``.

    ``torn_offset`` is the byte offset of the first incomplete or
    CRC-failing record (``None`` when the file is wholly clean).  The
    journal is append-only, so a bad record can only be the torn tail
    of a crash mid-append; everything before it is trusted, everything
    after it is not.
    """
    path = Path(path)
    data = (fs if fs is not None else REAL_FS).read_bytes(path)
    try:
        parse_journal_magic(data[:_MAGIC_LEN])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    records: list[tuple[int, bytes]] = []
    offset = _MAGIC_LEN
    while offset < len(data):
        if offset + _REC_HEADER.size > len(data):
            return records, offset
        rtype, length, crc = _REC_HEADER.unpack_from(data, offset)
        if rtype not in _KNOWN_RECORDS or length > MAX_JOURNAL_PAYLOAD:
            return records, offset
        end = offset + _REC_HEADER.size + length
        if end > len(data):
            return records, offset
        payload = data[offset + _REC_HEADER.size : end]
        if zlib.crc32(payload) != crc:
            return records, offset
        records.append((rtype, payload))
        offset = end
    return records, None


# -- recovery ----------------------------------------------------------------


@dataclass
class RecoveredSession:
    """Everything a daemon needs to resurrect one session from disk."""

    session_id: str
    engine: StreamingUseCaseEngine
    received: int
    applied: int
    finished: bool
    checkpoint_loaded: bool
    events_replayed: int
    truncated_bytes: int
    duplicates: int = 0
    notes: list[str] = field(default_factory=list)


def recover_session_dir(
    directory: str | Path,
    *,
    thresholds: Thresholds = PAPER_THRESHOLDS,
    detector_config: DetectorConfig | None = None,
    rules: tuple[Rule, ...] = ALL_RULES,
    truncate: bool = True,
) -> RecoveredSession:
    """Rebuild one session from its journal directory.

    Loads the checkpoint if present (falling back to a full replay when
    it is unreadable), replays every journal record past the
    checkpoint's ``applied`` cursor in append order, and truncates a
    torn tail back to the last whole record so the reopened journal
    and the rebuilt state agree.
    """
    directory = Path(directory)
    session_id = directory.name
    notes: list[str] = []
    engine: StreamingUseCaseEngine | None = None
    received = applied = 0
    duplicates = 0
    checkpoint_loaded = False

    ckpt_path = directory / _CHECKPOINT_NAME
    if ckpt_path.exists():
        try:
            state = json.loads(ckpt_path.read_text())
            if isinstance(state, dict):
                version = state.get("version", 0)
                if isinstance(version, int) and version > CHECKPOINT_VERSION:
                    # Outside this try's except net on purpose: a
                    # future-version checkpoint must refuse recovery,
                    # not degrade into a replay-from-zero that would
                    # clobber the newer state on the next checkpoint.
                    raise FutureFormatError(
                        f"checkpoint of session {session_id} is format "
                        f"v{version}, newer than this build reads "
                        f"(v{CHECKPOINT_VERSION}); run 'dsspy migrate' "
                        "with the newer build or upgrade this one"
                    )
            engine = engine_from_dict(
                state["engine"],
                thresholds=thresholds,
                detector_config=detector_config,
                rules=rules,
            )
            received = applied = int(state["applied"])
            duplicates = int(state.get("duplicates", 0))
            checkpoint_loaded = True
        except (OSError, ValueError, KeyError, TypeError) as exc:
            notes.append(f"checkpoint unreadable ({exc}); replaying from zero")
            engine = None
    if engine is None:
        engine = StreamingUseCaseEngine(
            thresholds=thresholds, detector_config=detector_config, rules=rules
        )
        received = applied = 0

    finished = False
    events_replayed = 0
    truncated_bytes = 0
    for segment in sorted(directory.glob(_SEGMENT_GLOB)):
        records, torn_offset = scan_segment(segment)
        if torn_offset is not None:
            size = segment.stat().st_size
            truncated_bytes += size - torn_offset
            notes.append(
                f"{segment.name}: torn tail, dropped {size - torn_offset} bytes"
            )
            if truncate:
                with segment.open("r+b") as fh:
                    fh.truncate(torn_offset)
        for rtype, payload in records:
            if rtype == REC_FIN:
                finished = True
            elif rtype == REC_REGISTER:
                try:
                    obj = json.loads(payload.decode("utf-8"))
                    for iid, kind, site, label in parse_register_entries(obj):
                        engine.register_instance(iid, kind, site=site, label=label)
                except ValueError as exc:
                    notes.append(f"skipped bad REGISTER record: {exc}")
            elif rtype == REC_EVENTS:
                start, raws = _decode_events_payload(payload)
                end = start + len(raws)
                if end > received:
                    received = end
                if end <= applied:
                    continue  # checkpoint already covers this window
                if start > applied:
                    # Cursor gap: events [applied, start) exist on no
                    # disk.  Jump the cursor rather than letting it lag
                    # — a lagging ``applied`` would make the resurrected
                    # session re-drain (and double-fold) the tail the
                    # engine is about to absorb right here.  The loss
                    # itself is fsck's to flag; recovery just must not
                    # compound it.
                    notes.append(
                        f"{segment.name}: cursor gap {applied}..{start}, "
                        f"{start - applied} events lost"
                    )
                    applied = start
                fresh = raws[applied - start :] if start < applied else raws
                engine.feed_window(fresh)
                applied += len(fresh)
                events_replayed += len(fresh)
    return RecoveredSession(
        session_id=session_id,
        engine=engine,
        received=received,
        applied=applied,
        finished=finished,
        checkpoint_loaded=checkpoint_loaded,
        events_replayed=events_replayed,
        truncated_bytes=truncated_bytes,
        duplicates=duplicates,
        notes=notes,
    )


def scan_state_dir(state_dir: str | Path) -> list[Path]:
    """Session directories under ``state_dir`` (those with journals)."""
    state_dir = Path(state_dir)
    if not state_dir.is_dir():
        return []
    return sorted(
        child
        for child in state_dir.iterdir()
        if child.is_dir() and any(child.glob(_SEGMENT_GLOB))
    )


# -- overload protection -----------------------------------------------------


class AdmissionStage:
    """Degradation ladder positions (ints: comparisons are ordering).

    ``JOURNAL_COMPACT`` is the disk-pressure rung: ingest continues at
    full fidelity but every window force-checkpoints the session,
    which prunes journal segments — the one ladder step that *frees*
    resources instead of consuming fewer.  Rate overload never selects
    it (sampling is the right answer there); only the
    :class:`~repro.service.governor.ResourceGovernor` does.
    """

    NORMAL = 0
    DECIMATE = 1
    JOURNAL_COMPACT = 2
    JOURNAL = 3
    SHED = 4

    _NAMES = {
        0: "normal",
        1: "decimate",
        2: "journal-compact",
        3: "journal",
        4: "shed",
    }

    @classmethod
    def name(cls, stage: int) -> str:
        return cls._NAMES.get(stage, f"unknown({stage})")


class AdmissionController:
    """Global + per-session event-rate quotas driving the degradation
    ladder.

    The *load factor* is the worst ratio of observed rate to quota
    (global and per-session, whichever is more over budget).  Stage
    thresholds are multiples of quota: at ``decimate_at`` the daemon
    starts sampling, at ``journal_at`` it journals without analyzing
    (recovery or FIN replays the backlog), at ``shed_at`` it refuses
    the window with a RETRY-AFTER reply and drops the connection —
    the client's backoff turns that into spaced-out retries.

    Rates are measured with ``min_span=1.0`` so a single early burst
    is averaged over at least a second instead of tripping SHED from
    the first millisecond of traffic.
    """

    def __init__(
        self,
        *,
        global_events_per_sec: float | None = None,
        session_events_per_sec: float | None = None,
        decimate_at: float = 1.0,
        journal_at: float = 2.0,
        shed_at: float = 4.0,
        retry_after: float = 2.0,
        clock: Clock = SYSTEM_CLOCK,
        governor: ResourceGovernor | None = None,
    ) -> None:
        if not (0 < decimate_at <= journal_at <= shed_at):
            raise ValueError(
                "stage thresholds must satisfy 0 < decimate_at <= "
                f"journal_at <= shed_at, got {decimate_at}/{journal_at}/{shed_at}"
            )
        from .session import RateMeter  # deferred: session imports this module

        self.global_quota = global_events_per_sec
        self.session_quota = session_events_per_sec
        self.decimate_at = decimate_at
        self.journal_at = journal_at
        self.shed_at = shed_at
        self.retry_after = retry_after
        self.governor = governor
        self._global_rate = RateMeter(clock=clock)
        self._lock = threading.Lock()
        self.windows_by_stage = {stage: 0 for stage in range(5)}
        self.refused_hellos = 0

    def _stage_for(self, load: float) -> int:
        if load >= self.shed_at:
            return AdmissionStage.SHED
        if load >= self.journal_at:
            return AdmissionStage.JOURNAL
        if load >= self.decimate_at:
            return AdmissionStage.DECIMATE
        return AdmissionStage.NORMAL

    def _load(self, session_rate: float) -> float:
        load = 0.0
        if self.global_quota:
            load = self._global_rate.rate(min_span=1.0) / self.global_quota
        if self.session_quota:
            load = max(load, session_rate / self.session_quota)
        return load

    def _pressure_stage(self) -> int:
        """The resource governor's demanded stage (NORMAL without one).
        Taken *outside* the controller lock — the governor has its own."""
        if self.governor is None:
            return AdmissionStage.NORMAL
        return self.governor.pressure_stage()

    def admit(self, session, n: int) -> int:
        """Account ``n`` incoming events and return the stage to apply.

        ``session`` supplies its own :class:`RateMeter` (``.rate``);
        the controller owns the global one.  The verdict is the worse
        of the rate ladder and the resource governor's pressure ladder.
        """
        pressure = self._pressure_stage()
        with self._lock:
            self._global_rate.tick(n)
            stage = self._stage_for(self._load(session.rate.rate(min_span=1.0)))
            stage = max(stage, pressure)
            self.windows_by_stage[stage] += 1
            return stage

    def peek(self) -> int:
        """Current global stage without accounting anything (used to
        turn away a HELLO while shedding)."""
        pressure = self._pressure_stage()
        with self._lock:
            return max(self._stage_for(self._load(0.0)), pressure)

    def note_hello_refused(self) -> None:
        """Account one HELLO turned away while shedding — part of the
        no-silent-loss ledger: every RETRY-AFTER the daemon ever sends
        must be visible in some counter."""
        with self._lock:
            self.refused_hellos += 1

    def stats(self) -> dict[str, Any]:
        pressure = self._pressure_stage()
        with self._lock:
            out = {
                "global_events_per_sec": round(self._global_rate.rate(min_span=1.0), 1),
                "global_quota": self.global_quota,
                "session_quota": self.session_quota,
                "stage": AdmissionStage.name(
                    max(self._stage_for(self._load(0.0)), pressure)
                ),
                "windows_by_stage": {
                    AdmissionStage.name(s): n
                    for s, n in self.windows_by_stage.items()
                },
                "refused_hellos": self.refused_hellos,
            }
        if self.governor is not None:
            out["governor"] = self.governor.stats()
        return out


def warn_notes(session_id: str, notes: list[str]) -> None:
    """Surface recovery anomalies without failing the recovery."""
    for note in notes:
        warnings.warn(f"session {session_id}: {note}", RuntimeWarning, stacklevel=3)


__all__ = [
    "AdmissionController",
    "AdmissionStage",
    "CHECKPOINT_VERSION",
    "FutureFormatError",
    "JOURNAL_MAGIC",
    "JOURNAL_MAGIC_PREFIX",
    "JOURNAL_VERSION",
    "MAX_JOURNAL_PAYLOAD",
    "REC_EVENTS",
    "REC_FIN",
    "REC_REGISTER",
    "RecoveredSession",
    "SessionJournal",
    "engine_from_dict",
    "engine_to_dict",
    "journal_magic",
    "parse_journal_magic",
    "parse_register_entries",
    "recover_session_dir",
    "scan_segment",
    "scan_state_dir",
    "segment_version",
]
