"""Shared fixtures: collector isolation and profile builders."""

from __future__ import annotations

import pytest

from repro.events import (
    AccessEvent,
    AccessKind,
    EventCollector,
    OperationKind,
    RuntimeProfile,
    StructureKind,
    pack_record,
    reset_ambient,
)


@pytest.fixture(autouse=True)
def _isolated_ambient_collector():
    """Each test gets a fresh ambient collector so structures created
    without an explicit session never leak events across tests."""
    reset_ambient()
    yield
    reset_ambient()


@pytest.fixture
def collector() -> EventCollector:
    return EventCollector()


def make_event(
    seq: int,
    op: OperationKind,
    position: int | None,
    size: int,
    kind: AccessKind | None = None,
    thread_id: int = 0,
    instance_id: int = 0,
) -> AccessEvent:
    """Hand-rolled event with the kind inferred from the op."""
    if kind is None:
        kind = AccessKind.READ if op.is_read_like else AccessKind.WRITE
    return AccessEvent(
        seq=seq,
        kind=kind,
        op=op,
        position=position,
        size=size,
        thread_id=thread_id,
        instance_id=instance_id,
    )


def make_profile(
    specs: list[tuple[OperationKind, int | None, int]],
    kind: StructureKind = StructureKind.LIST,
    thread_id: int = 0,
) -> RuntimeProfile:
    """Profile from (op, position, size) triples in order."""
    events = [
        make_event(i, op, pos, size, thread_id=thread_id)
        for i, (op, pos, size) in enumerate(specs)
    ]
    return RuntimeProfile.from_events(events, kind=kind)


def post_raws(channel, raws) -> None:
    """Record raw event tuples into ``channel`` from the calling thread,
    packed exactly as given (thread id and wall time included)."""
    buf = channel.acquire_buffer()
    for raw in raws:
        buf += pack_record(raw)
