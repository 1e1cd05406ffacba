"""Profile persistence: JSON-lines export/import.

DSspy analyzes profiles post-mortem (§IV); persisting them decouples
capture from analysis entirely — capture on one machine, mine on
another, or archive a profile corpus for regression runs.  The format
is one JSON object per line: a header line per profile followed by its
events, so arbitrarily large captures stream without loading whole
files.
"""

from __future__ import annotations

import json
import operator
import struct
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from .collector import EventCollector
from .profile import RuntimeProfile, site_from_dict, site_to_dict
from .spill import _HAS_POSITION, ANALYSIS_FIELDS, pack_record
from .types import AccessKind, OperationKind, StructureKind

FORMAT_VERSION = 1


def _profile_header(profile: RuntimeProfile) -> dict:
    header: dict = {
        "type": "profile",
        "version": FORMAT_VERSION,
        "instance_id": profile.instance_id,
        "kind": profile.kind.value,
        "label": profile.label,
        "events": len(profile),
    }
    if profile.site is not None:
        header["site"] = site_to_dict(profile.site)
    return header


def dump_profiles(profiles: Iterable[RuntimeProfile], fh: TextIO) -> int:
    """Write profiles as JSON lines; returns the profile count.

    Each event is one compact positional line,
    ``[seq, op, kind, position, size, thread]``, written straight from
    the profile's packed records.
    """
    count = 0
    for profile in profiles:
        fh.write(json.dumps(_profile_header(profile)) + "\n")
        fields = ANALYSIS_FIELDS.iter_unpack(profile.records)
        for seq, (position, size, tid, op, kind, flags) in zip(profile.seqs.tolist(), fields):
            position = position if flags & _HAS_POSITION else None
            fh.write(json.dumps([seq, op, kind, position, size, tid]) + "\n")
        count += 1
    return count


def save_profiles(
    profiles: Iterable[RuntimeProfile], path: str | Path
) -> Path:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        dump_profiles(profiles, fh)
    return path


def save_collector(collector: EventCollector, path: str | Path) -> Path:
    """Persist everything a (finished) collector captured."""
    return save_profiles(collector.profiles(), path)


def _header_profile(record: dict) -> tuple[RuntimeProfile, int]:
    """The empty profile a header line opens, and its event count."""
    if record.get("type") != "profile":
        raise ValueError(f"unexpected header {record!r}")
    if record.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported version {record.get('version')!r}")
    profile = RuntimeProfile(
        int(record["instance_id"]),
        kind=StructureKind(record["kind"]),
        site=site_from_dict(record.get("site")),
        label=str(record.get("label", "")),
    )
    return profile, int(record["events"])


def _event_record(record: list, instance_id: int) -> tuple[int, bytes]:
    """``(seq, packed record)`` of one event line."""
    seq, op, kind, position, size, thread_id = record
    OperationKind(op)
    AccessKind(kind)
    raw = (instance_id, op, kind, position, size, thread_id, None)
    return operator.index(seq), pack_record(raw)


def _filled(
    profile: RuntimeProfile, records: bytearray, seqs: list[int], missing: int, lineno: int
) -> RuntimeProfile:
    """``profile`` with the events read for it; ``lineno`` is its header's line."""
    if missing:
        raise ValueError(f"line {lineno}: truncated profile: {missing} events missing")
    profile.add_records(records, seqs)
    return profile


def load_profiles(fh: TextIO) -> Iterator[RuntimeProfile]:
    """Stream profiles back from a JSON-lines file.

    A malformed line raises :class:`ValueError` naming its line number.
    """
    current: RuntimeProfile | None = None
    opened = remaining = 0
    records = bytearray()
    seqs: list[int] = []
    for lineno, line in enumerate(fh, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            if isinstance(record, dict):
                header = _header_profile(record)
            elif current is None:
                raise ValueError("event before any header")
            elif remaining <= 0:
                raise ValueError("more events than declared")
            else:
                header = None
                seq, packed = _event_record(record, current.instance_id)
        except (ValueError, TypeError, KeyError, struct.error) as exc:
            detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
            raise ValueError(f"line {lineno}: {detail}") from exc
        if header is None:
            records += packed
            seqs.append(seq)
            remaining -= 1
            continue
        if current is not None:
            yield _filled(current, records, seqs, remaining, opened)
        (current, remaining), opened = header, lineno
        records, seqs = bytearray(), []
    if current is not None:
        yield _filled(current, records, seqs, remaining, opened)


def read_profiles(path: str | Path) -> list[RuntimeProfile]:
    with Path(path).open("r", encoding="utf-8") as fh:
        return list(load_profiles(fh))
