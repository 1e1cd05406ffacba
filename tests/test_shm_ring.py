"""Shared-memory ring transport: ring mechanics and the full client ↔
daemon path, including the edges that only bite in production —
wrap-around, overrun backpressure, stale segments, daemon restart
mid-stream, and fork children holding an inherited mapping.
"""

from __future__ import annotations

import struct

import pytest

from repro.events.spill import RECORD_SIZE, pack_record, unpack_records
from repro.service import ProfilingDaemon, RemoteChannel
from repro.service.shm import HEADER_SIZE, MAGIC, ShmRing

from .conftest import post_raws


def _records(start: int, count: int) -> bytes:
    return b"".join(
        pack_record((start + i, 1, 0, i, 100, 0, None)) for i in range(count)
    )


class TestRingMechanics:
    def test_create_attach_roundtrip(self):
        with ShmRing.create(capacity_records=16) as ring:
            consumer = ShmRing.attach(ring.name)
            try:
                data = _records(0, 5)
                assert ring.write(data) == len(data)
                assert consumer.read() == data
                assert consumer.used == 0
            finally:
                consumer.close()

    def test_wrap_around_preserves_records(self):
        with ShmRing.create(capacity_records=8) as ring:
            consumer = ShmRing.attach(ring.name)
            try:
                seen = []
                seq = 0
                # Push 5 records at a time through an 8-record ring: the
                # payload offset wraps repeatedly and every span must
                # come back intact and in order.
                for _ in range(10):
                    chunk = _records(seq, 5)
                    assert ring.write(chunk) == len(chunk)
                    seq += 5
                    seen.extend(unpack_records(consumer.read()))
                assert [raw[0] for raw in seen] == list(range(50))
            finally:
                consumer.close()

    def test_overrun_writes_partial_then_zero(self):
        with ShmRing.create(capacity_records=4) as ring:
            data = _records(0, 6)
            written = ring.write(data)
            assert written == 4 * RECORD_SIZE  # whole records that fit
            assert ring.write(data[written:]) == 0  # full: backpressure
            consumer = ShmRing.attach(ring.name)
            try:
                assert consumer.read() == data[:written]
                # Space reclaimed: the tail now fits.
                assert ring.write(data[written:]) == 2 * RECORD_SIZE
                assert consumer.read() == data[written:]
            finally:
                consumer.close()

    def test_write_never_splits_a_record(self):
        with ShmRing.create(capacity_records=4) as ring:
            consumer = ShmRing.attach(ring.name)
            try:
                ring.write(_records(0, 3))
                consumer.read()
                # Offset is now 3 records in; a 3-record write must span
                # the wrap point in two record-aligned memcpys.
                chunk = _records(3, 3)
                assert ring.write(chunk) == len(chunk)
                assert consumer.read() == chunk
            finally:
                consumer.close()

    def test_read_caps_at_max_bytes_whole_records(self):
        with ShmRing.create(capacity_records=8) as ring:
            consumer = ShmRing.attach(ring.name)
            try:
                ring.write(_records(0, 6))
                out = consumer.read(max_bytes=2 * RECORD_SIZE + 7)
                assert len(out) == 2 * RECORD_SIZE
                assert len(consumer.read()) == 4 * RECORD_SIZE
            finally:
                consumer.close()


class TestAttachValidation:
    def test_attach_unknown_name_raises_oserror(self):
        with pytest.raises(OSError):
            ShmRing.attach("dsspy-test-no-such-segment")

    def test_attach_rejects_foreign_segment(self):
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=HEADER_SIZE + 390)
        try:
            shm.buf[:8] = b"NOTARING"
            with pytest.raises(ValueError, match="bad magic"):
                ShmRing.attach(shm.name)
        finally:
            shm.close()
            shm.unlink()

    def test_attach_rejects_wrong_record_size(self):
        with ShmRing.create(capacity_records=4) as ring:
            # Corrupt the declared record size in the header.
            struct.pack_into("<I", ring._shm.buf, 12, RECORD_SIZE + 1)
            with pytest.raises(ValueError, match="records"):
                ShmRing.attach(ring.name)

    def test_attach_rejects_implausible_capacity(self):
        with ShmRing.create(capacity_records=4) as ring:
            struct.pack_into("<Q", ring._shm.buf, 16, 10**12)
            with pytest.raises(ValueError, match="capacity"):
                ShmRing.attach(ring.name)

    def test_header_constants(self):
        with ShmRing.create(capacity_records=2) as ring:
            assert bytes(ring._shm.buf[:8]) == MAGIC
            assert ring.capacity_bytes == 2 * RECORD_SIZE
            assert ring.generation > 0


def _capture(channel, count: int, start: int = 0) -> None:
    post_raws(channel, ((0, 1, 0, (start + i) % 97, 100, 0, None) for i in range(count)))


class TestShmTransport:
    def test_end_to_end_capture(self):
        with ProfilingDaemon(port=0, session_linger=0.1) as daemon:
            channel = RemoteChannel(daemon.address, transport="shm")
            assert channel._ring is not None  # daemon accepted the offer
            ring_name = channel._ring.name
            _capture(channel, 5000)
            channel.drain()
            assert channel.final_ack is not None
            assert channel.final_ack["received"] == 5000
            assert channel._ring is None  # unlinked at drain
            with pytest.raises(OSError):
                ShmRing.attach(ring_name)  # segment really is gone

    def test_tiny_ring_backpressure_delivers_everything(self):
        with ProfilingDaemon(port=0, session_linger=0.1) as daemon:
            channel = RemoteChannel(
                daemon.address,
                transport="shm",
                ring_records=64,
                flush_interval=0.001,
            )
            _capture(channel, 5000)
            channel.drain()
            assert channel.final_ack is not None
            assert channel.final_ack["received"] == 5000
            # A 64-record ring cannot hold 5000 events: the producer
            # must have stalled on a full ring and retried.
            assert channel.ring_full > 0

    def test_daemon_restart_mid_stream_uses_fresh_ring(self, tmp_path):
        state = tmp_path / "state"
        daemon = ProfilingDaemon(port=0, session_linger=5.0, state_dir=state)
        host, port = daemon.address.split(":")
        channel = RemoteChannel(daemon.address, transport="shm")
        first_ring = channel._ring.name
        try:
            _capture(channel, 2000)
            channel.snapshot()  # harvest barrier: ships into the ring
            daemon.crash()
            # The replacement daemon recovers the journaled session and
            # binds the same port; the client reconnects, resumes, and
            # negotiates a *new* ring — the dead daemon's segment (and
            # its counters) mean nothing to the recovered cursor.
            with ProfilingDaemon(
                host=host, port=int(port), session_linger=5.0, state_dir=state
            ) as reborn:
                assert reborn.address == f"{host}:{port}"
                _capture(channel, 2000, start=2000)
                channel.drain()
                assert channel.final_ack is not None
                assert channel.final_ack["received"] == 4000
                assert channel.reconnects >= 1
                assert channel.session_id in reborn.recovered_sessions
            # Both generations of ring segment are gone.
            with pytest.raises(OSError):
                ShmRing.attach(first_ring)
        finally:
            daemon.close()

    def test_declined_offer_falls_back_to_socket(self, monkeypatch):
        from repro.service import daemon as daemon_mod

        monkeypatch.setattr(
            daemon_mod.ProfilingDaemon,
            "_attach_shm",
            lambda self, session, offer: False,
        )
        with ProfilingDaemon(port=0, session_linger=0.1) as daemon:
            channel = RemoteChannel(daemon.address, transport="shm")
            assert channel._ring is None  # declined: ring unlinked
            _capture(channel, 1000)
            channel.drain()
            assert channel.final_ack is not None
            assert channel.final_ack["received"] == 1000

    def test_fork_child_detaches_without_unlinking(self):
        with ProfilingDaemon(port=0, session_linger=0.1) as daemon:
            channel = RemoteChannel(daemon.address, transport="shm")
            _capture(channel, 100)
            ring = channel._ring
            assert ring is not None
            # Simulate the at-fork child hook: the inherited mapping is
            # detached (never unlinked — the parent still owns it).
            channel._after_fork_child("disable")
            assert channel._ring is None
            assert channel.ring_full == 0
            assert ring._closed
            # The parent's segment must still exist.
            probe = ShmRing.attach(ring.name)
            probe.close()
            ring.unlink()  # parent-side cleanup for the test
            channel.drain()
