"""Wire-protocol round trips, partial feeds, and spill robustness."""

from __future__ import annotations

import random
import struct

import pytest

from repro.events import (
    RECORD_SIZE,
    OperationKind,
    SpillWriter,
    pack_record,
    read_spill_raw,
    record_is_plausible,
    unpack_record,
)
from repro.events.spill import MAGIC, pack_records
from repro.service import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    MessageType,
    ProtocolError,
    decode_events,
    decode_json,
    encode_events,
    encode_frame,
    encode_json,
)


def _random_raw(rng: random.Random):
    position = None if rng.random() < 0.2 else rng.randrange(0, 10_000)
    wall = None if rng.random() < 0.5 else rng.random() * 100
    return (
        rng.randrange(0, 1_000),
        rng.choice(list(OperationKind)).value,
        rng.randrange(0, 2),
        position,
        rng.randrange(0, 10_000),
        rng.randrange(0, 8),
        wall,
    )


class TestRecordRoundTrip:
    def test_pack_unpack_identity(self):
        rng = random.Random(7)
        for _ in range(500):
            raw = _random_raw(rng)
            assert unpack_record(pack_record(raw)) == raw

    def test_none_position_and_wall(self):
        raw = (1, int(OperationKind.SORT), 1, None, 10, 0, None)
        assert unpack_record(pack_record(raw)) == raw

    def test_record_size(self):
        assert len(pack_record((0, 0, 0, None, 0, 0, None))) == RECORD_SIZE


class TestFrameRoundTrip:
    def test_roundtrip(self):
        frame = encode_frame(MessageType.HELLO, b"payload")
        decoder = FrameDecoder()
        assert decoder.feed(frame) == [(MessageType.HELLO, b"payload")]

    def test_byte_by_byte_partial_feed(self):
        rng = random.Random(11)
        frames = [
            (rng.randrange(1, 9), bytes(rng.randrange(256) for _ in range(rng.randrange(0, 50))))
            for _ in range(20)
        ]
        stream = b"".join(encode_frame(t, p) for t, p in frames)
        decoder = FrameDecoder()
        out = []
        for i in range(len(stream)):
            out.extend(decoder.feed(stream[i : i + 1]))
        assert out == frames
        assert decoder.pending_bytes == 0

    def test_random_chunking(self):
        rng = random.Random(13)
        frames = [(MessageType.EVENTS, bytes(i % 256 for i in range(n))) for n in (0, 1, 39, 4096)]
        stream = b"".join(encode_frame(t, p) for t, p in frames)
        decoder = FrameDecoder()
        out, i = [], 0
        while i < len(stream):
            n = rng.randrange(1, 64)
            out.extend(decoder.feed(stream[i : i + n]))
            i += n
        assert out == frames

    def test_zero_length_frame_rejected(self):
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError, match="< 1"):
            decoder.feed(struct.pack("!I", 0))

    def test_oversized_frame_rejected_without_allocation(self):
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError, match="MAX_FRAME_BYTES"):
            decoder.feed(struct.pack("!I", MAX_FRAME_BYTES + 1))

    def test_oversized_encode_rejected(self):
        with pytest.raises(ProtocolError):
            encode_frame(MessageType.EVENTS, b"x" * MAX_FRAME_BYTES)

    def test_json_control_roundtrip(self):
        obj = {"session": "abc", "received": 42, "resumed": True}
        frames = FrameDecoder().feed(encode_json(MessageType.ACK, obj))
        assert len(frames) == 1
        mtype, payload = frames[0]
        assert mtype == MessageType.ACK
        assert decode_json(payload) == obj

    def test_malformed_json_rejected(self):
        with pytest.raises(ProtocolError):
            decode_json(b"{nope")
        with pytest.raises(ProtocolError):
            decode_json(b"[1,2]")


class TestEventsPayload:
    def test_roundtrip(self):
        rng = random.Random(3)
        raws = [_random_raw(rng) for _ in range(1000)]
        frames = FrameDecoder().feed(encode_events(17, pack_records(raws)))
        mtype, payload = frames[0]
        assert mtype == MessageType.EVENTS
        start, decoded = decode_events(payload)
        assert start == 17
        assert decoded == raws

    def test_empty_window(self):
        _, payload = FrameDecoder().feed(encode_events(0, pack_records([])))[0]
        assert decode_events(payload) == (0, [])

    def test_truncated_payload_rejected(self):
        _, payload = FrameDecoder().feed(
            encode_events(0, pack_records([(1, 0, 0, 0, 1, 0, None)]))
        )[0]
        with pytest.raises(ProtocolError, match="body bytes"):
            decode_events(payload[:-1])

    def test_short_header_rejected(self):
        with pytest.raises(ProtocolError, match="header"):
            decode_events(b"\x00\x00")

    def test_validate_passes_clean_frames(self):
        rng = random.Random(9)
        raws = [_random_raw(rng) for _ in range(200)]
        _, payload = FrameDecoder().feed(encode_events(3, pack_records(raws)))[0]
        assert decode_events(payload, validate=True) == (3, raws)

    def test_validate_rejects_implausible_record(self):
        raws = [(1, int(OperationKind.READ), 0, i, 10, 0, None) for i in range(5)]
        _, payload = FrameDecoder().feed(encode_events(40, pack_records(raws)))[0]
        blob = bytearray(payload)
        # Trash the middle record in place.
        offset = 12 + 2 * RECORD_SIZE
        blob[offset : offset + RECORD_SIZE] = b"\xff" * RECORD_SIZE
        with pytest.raises(ProtocolError, match="stream index 40.*1 implausible"):
            decode_events(bytes(blob), validate=True)
        # Unvalidated decoding still succeeds — rejection is the
        # daemon's explicit choice, not a property of the codec.
        start, decoded = decode_events(bytes(blob))
        assert start == 40 and len(decoded) == 5


class TestSpillCorruptionSkipping:
    def _write(self, path, raws):
        with SpillWriter(path) as writer:
            writer.write_batch(raws)

    def test_corrupt_mid_file_record_skipped_with_warning(self, tmp_path):
        path = tmp_path / "events.spill"
        raws = [(i, int(OperationKind.READ), 0, i, 100, 0, None) for i in range(10)]
        self._write(path, raws)
        blob = bytearray(path.read_bytes())
        # Trash record 4 in place (flags byte -> undefined bits, op -> 255).
        offset = len(MAGIC) + 4 * RECORD_SIZE
        blob[offset : offset + RECORD_SIZE] = b"\xff" * RECORD_SIZE
        path.write_bytes(bytes(blob))
        with pytest.warns(RuntimeWarning, match="skipped 1 corrupt"):
            back = read_spill_raw(path)
        assert back == raws[:4] + raws[5:]

    def test_clean_file_no_warning(self, tmp_path):
        import warnings

        path = tmp_path / "events.spill"
        raws = [(i, int(OperationKind.WRITE), 1, i, 50, 0, None) for i in range(100)]
        self._write(path, raws)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read_spill_raw(path) == raws

    def test_truncated_tail_still_silent(self, tmp_path):
        path = tmp_path / "events.spill"
        raws = [(i, int(OperationKind.READ), 0, i, 10, 0, None) for i in range(5)]
        self._write(path, raws)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 7])  # tear the last record
        assert read_spill_raw(path) == raws[:4]

    def test_bad_magic_still_raises(self, tmp_path):
        path = tmp_path / "not_a_spill.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 80)
        with pytest.raises(ValueError, match="bad magic"):
            read_spill_raw(path)

    def test_record_is_plausible_on_valid_records(self):
        rng = random.Random(23)
        for _ in range(200):
            assert record_is_plausible(pack_record(_random_raw(rng)))
        assert not record_is_plausible(b"\xff" * RECORD_SIZE)

    def test_multiple_corrupt_records_all_counted(self, tmp_path):
        path = tmp_path / "events.spill"
        raws = [(i, int(OperationKind.READ), 0, i, 100, 0, None) for i in range(20)]
        self._write(path, raws)
        blob = bytearray(path.read_bytes())
        for index in (2, 9, 15):
            offset = len(MAGIC) + index * RECORD_SIZE
            blob[offset : offset + RECORD_SIZE] = b"\xff" * RECORD_SIZE
        path.write_bytes(bytes(blob))
        with pytest.warns(RuntimeWarning, match="skipped 3 corrupt"):
            back = read_spill_raw(path)
        assert back == [raw for i, raw in enumerate(raws) if i not in (2, 9, 15)]

    def test_corruption_straddling_read_chunk_boundary(self, tmp_path):
        # iter_spill_records reads in 4096-record chunks; records 4095 and
        # 4096 sit on either side of the first boundary and must both
        # be screened, not conflated with a truncated tail.
        path = tmp_path / "events.spill"
        n = 4096 + 50
        raws = [(i, int(OperationKind.READ), 0, i, n, 0, None) for i in range(n)]
        self._write(path, raws)
        blob = bytearray(path.read_bytes())
        for index in (4095, 4096):
            offset = len(MAGIC) + index * RECORD_SIZE
            blob[offset : offset + RECORD_SIZE] = b"\xff" * RECORD_SIZE
        path.write_bytes(bytes(blob))
        with pytest.warns(RuntimeWarning, match="skipped 2 corrupt"):
            back = read_spill_raw(path)
        assert len(back) == n - 2
        assert back == raws[:4095] + raws[4097:]

    def test_corrupt_record_plus_truncated_tail(self, tmp_path):
        # The two degradation modes compose: mid-file corruption warns
        # and is skipped, the torn tail ends the stream silently.
        path = tmp_path / "events.spill"
        raws = [(i, int(OperationKind.READ), 0, i, 10, 0, None) for i in range(8)]
        self._write(path, raws)
        blob = bytearray(path.read_bytes())
        offset = len(MAGIC) + 3 * RECORD_SIZE
        blob[offset : offset + RECORD_SIZE] = b"\xff" * RECORD_SIZE
        blob = blob[: len(blob) - 11]  # tear the final record
        path.write_bytes(bytes(blob))
        with pytest.warns(RuntimeWarning, match="skipped 1 corrupt"):
            back = read_spill_raw(path)
        assert back == raws[:3] + raws[4:7]
