"""The record path: kernel engagement, byte identity, sampling filter.

The differential core of this module is byte identity: whatever a
record kernel writes into a thread buffer must equal the reference
encoder, ``pack_record`` over the raw event tuples the hook was called
with -- for both kernels over a sweep of edge-case inputs, over every
tracked structure's full method surface, and over all seven Table V
evaluation workloads.  Anything short of equality means the kernel
changed what the analyzer sees, which no speedup justifies.
"""

from __future__ import annotations

import threading

import pytest

from repro.events import (
    AccessKind,
    Burst,
    Channel,
    Decimate,
    EventCollector,
    OperationKind,
    StructureKind,
    collecting,
    pop_collector,
    push_collector,
)
from repro.events.fastpath import _CRecorder, PyRecorder, make_recorder
from repro.events.spill import RECORD_SIZE, pack_record, pack_records, unpack_records
from repro.workloads import EVALUATION_WORKLOADS

from .test_firewall_sweep import STRUCTURES, run_script

#: Every kernel this build can run: the pure-python one always, the
#: compiled one where the extension was built.
KERNELS = [PyRecorder] + ([_CRecorder] if _CRecorder is not None else [])


def _reference_bytes(run) -> bytes:
    """Capture ``run(collector)`` with a plain-python reference hook
    that keeps raw tuples, then encode them with ``pack_record``."""
    collector = EventCollector()
    raws = []

    def record(instance_id, op, kind, position, size):
        tid = collector._dense_thread_id()
        raws.append((instance_id, int(op), int(kind), position, size, tid, None))

    collector.record = record
    push_collector(collector)
    try:
        run(collector)
    finally:
        pop_collector()
    return pack_records(raws)


def _kernel_bytes(run) -> bytes:
    collector = EventCollector()
    push_collector(collector)
    try:
        run(collector)
    finally:
        pop_collector()
    return bytes(collector.channel.drain())


class TestEngagement:
    def test_engages_on_packed_channel(self):
        collector = EventCollector(channel=Channel())
        assert collector.record is collector._recorder
        assert type(collector._recorder) in KERNELS

    def test_sampling_filters_in_front_of_kernel(self):
        collector = EventCollector(sampling=Burst(100, 10))
        assert collector.record is collector._filter
        iid = collector.register_instance(StructureKind.LIST)
        for i in range(200):
            collector.record(iid, 0, 0, i, 200)
        assert collector.sampled_out == 90
        assert len(unpack_records(collector.channel.drain())) == 110

    def test_ambient_collector_starts_no_thread(self):
        before = threading.active_count()
        collector = EventCollector()
        assert collector.channel._drainer is None
        assert threading.active_count() == before


class TestPackedChannelProtocol:
    def test_drain_hands_over_packed_records(self):
        channel = Channel()
        record = make_recorder(lambda: (0, channel.acquire_buffer()))
        for i in range(100):
            record(i, 2, 1, None, 9)
        packed = channel.drain()
        assert len(packed) == 100 * RECORD_SIZE
        assert unpack_records(packed) == [(i, 2, 1, None, 9, 0, None) for i in range(100)]
        assert len(channel.drain()) == 0  # handed over, not copied

    def test_spill_streams_packed_records(self, tmp_path):
        spill = tmp_path / "events.bin"
        channel = Channel(spill=spill)
        record = make_recorder(lambda: (0, channel.acquire_buffer()))
        for i in range(2000):
            record(1, 1, 0, i, 10)
        assert channel.snapshot() == pack_records(
            (1, 1, 0, i, 10, 0, None) for i in range(2000)
        )
        assert unpack_records(channel.drain()) == [
            (1, 1, 0, i, 10, 0, None) for i in range(2000)
        ]

    def test_kernel_invalidated_when_gate_closes(self):
        channel = Channel(max_buffered=50, block_timeout=0.2)
        collector = EventCollector(channel=channel)
        record = collector.record
        for i in range(200):
            record(0, 1, 0, i, 10)
        # Force a harvest: the drainer sees the bound overrun, closes
        # the gate, and invalidates every kernel -- so the *next* record
        # re-enters bind, where the closed gate blocks it until timeout.
        channel.snapshot()
        assert not channel._open[0]
        with pytest.raises(RuntimeError, match="backpressure"):
            record(0, 1, 0, 0, 10)
        channel.fail_open()
        # The gated record raised in bind, before packing anything.
        assert len(channel.drain()) == 200 * RECORD_SIZE

    def test_record_after_drain_is_refused(self):
        collector = EventCollector()
        collector.record(0, 1, 0, 0, 10)
        collector.channel.drain()
        with pytest.raises(RuntimeError, match="drained"):
            collector.record(0, 1, 0, 1, 10)


class TestByteIdentity:
    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.__name__)
    def test_kernel_sweep_matches_pack_record(self, kernel):
        """Positions None/0/large, every op and kind, several threads:
        each thread's buffer equals ``pack_record`` over its events."""
        positions = (None, 0, 1, 2**31, 2**62)
        expected: dict[int, list] = {}
        buffers: dict[int, bytearray] = {}

        def worker(tid: int) -> None:
            buffers[tid] = buf = bytearray()
            record = kernel(lambda: (tid, buf))
            rows = expected[tid] = []
            for op in OperationKind:
                for kind in AccessKind:
                    for position in positions:
                        size = tid * 1000 + op
                        record(tid + 7, op, kind, position, size)
                        rows.append((tid + 7, int(op), int(kind), position, size, tid, None))

        threads = [threading.Thread(target=worker, args=(tid,)) for tid in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for tid in range(4):
            assert bytes(buffers[tid]) == b"".join(map(pack_record, expected[tid]))

    @pytest.mark.parametrize("kind", sorted(STRUCTURES), ids=str)
    def test_structure_method_surface(self, kind):
        make_tracked, _make_plain, ops, _state_of = STRUCTURES[kind]

        def run(collector):
            run_script(make_tracked(collector), ops, "tracked")

        reference = _reference_bytes(run)
        assert len(reference) % RECORD_SIZE == 0 and len(reference) > 0
        assert _kernel_bytes(run) == reference

    @pytest.mark.parametrize("workload", EVALUATION_WORKLOADS, ids=lambda w: w.name)
    def test_evaluation_workloads(self, workload):
        def run(_collector):
            workload.run_tracked(scale=0.05)

        reference = _reference_bytes(run)
        assert len(reference) % RECORD_SIZE == 0 and len(reference) > 0
        assert _kernel_bytes(run) == reference

    def test_collector_profiles_identical(self):
        """Assembly straight from the packed bytes sees the same events
        as decoding them record by record."""
        collector = EventCollector()
        make_tracked, _p, ops, _s = STRUCTURES["list"]
        run_script(make_tracked(collector), ops, "tracked")
        packed = collector.channel.snapshot()
        decoded = [raw[:5] for raw in unpack_records(packed)]
        assembled = sorted(
            (e.seq, (e.instance_id, int(e.op), int(e.kind), e.position, e.size))
            for p in collector.finish().values()
            for e in p
        )
        assert [event for _seq, event in assembled] == decoded
        assert [seq for seq, _event in assembled] == list(range(len(decoded)))


def _stream(collector) -> list[tuple]:
    """A finished capture as raw tuples in recording order."""
    events = sorted((e for p in collector.finish().values() for e in p), key=lambda e: e.seq)
    return [
        (e.instance_id, int(e.op), int(e.kind), e.position, e.size, e.thread_id)
        for e in events
    ]


class TestSamplingFilter:
    """A sampled capture keeps exactly the events the seed's sampled
    path kept: ``admit`` is asked once per event, in recording order,
    before the kernel packs anything.  The input is the Table V
    1-in-10 detection-fidelity case."""

    @pytest.mark.parametrize("workload", EVALUATION_WORKLOADS, ids=lambda w: w.name)
    def test_sampled_capture_matches_reference_filter(self, workload):
        with collecting() as full:
            workload.run_tracked(scale=0.5)
        stream = _stream(full)
        for make_policy in (lambda: Decimate(10), lambda: Burst(1_000, 10)):
            reference = make_policy()
            expected = [raw for raw in stream if reference.admit(raw[0])]
            with collecting(sampling=make_policy()) as sampled:
                workload.run_tracked(scale=0.5)
            assert _stream(sampled) == expected
            assert sampled.sampled_out == len(stream) - len(expected)


class TestPyRecorderKernel:
    """The fallback kernel must behave identically to the C one; these
    run it explicitly so pure-python builds and C builds test the same
    contract."""

    def test_packs_records_through_bind(self):
        buf = bytearray()
        recorder = PyRecorder(lambda: (7, buf))
        recorder(1, 2, 1, 5, 100)
        recorder(1, 2, 1, None, 100)
        raws = unpack_records(bytes(buf))
        assert raws == [(1, 2, 1, 5, 100, 7, None), (1, 2, 1, None, 100, 7, None)]

    def test_invalidate_forces_rebind(self):
        binds = []
        buf = bytearray()

        def bind():
            binds.append(1)
            return (0, buf)

        recorder = PyRecorder(bind)
        recorder(0, 1, 0, 1, 10)
        recorder(0, 1, 0, 2, 10)
        assert len(binds) == 1
        recorder.invalidate()
        recorder(0, 1, 0, 3, 10)
        assert len(binds) == 2
        assert len(buf) == 3 * RECORD_SIZE

    def test_make_recorder_matches_pyrecorder_bytes(self):
        buf_a, buf_b = bytearray(), bytearray()
        fast = make_recorder(lambda: (3, buf_a))
        pure = PyRecorder(lambda: (3, buf_b))
        for i in range(50):
            fast(9, 1, 0, i, 64)
            pure(9, 1, 0, i, 64)
        fast(9, 3, 1, None, 64)
        pure(9, 3, 1, None, 64)
        assert bytes(buf_a) == bytes(buf_b)
