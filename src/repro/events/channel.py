"""The event channel: packed per-thread buffers and a drainer thread.

DSspy keeps the execution slowdown low by *only recording* access events
at runtime and handing them to a separate, asynchronous analysis side
(§IV).  :class:`Channel` is that hand-off, built the way PROMPT and
TASKPROF build theirs: per-thread buffering.  A record kernel
(:mod:`~repro.events.fastpath`) packs each event straight into the
calling thread's ``bytearray`` in the 39-byte record layout of
:mod:`~repro.events.spill`; the recording thread never takes a lock or
allocates an object.  The drainer thread is the asynchronous channel:
every ``flush_interval`` it harvests whole records from every thread
buffer with a GIL-atomic slice-and-delete and absorbs them into the
master buffer or a spill file.  The same bytes go to disk and to the
wire (:class:`~repro.service.client.RemoteChannel`) without
re-encoding.

The drainer starts on the first buffer bind, so a channel nobody
records into (the import-time ambient collector's) costs no thread.
It backs off while the buffers stay empty and is woken at once by
:meth:`snapshot` and :meth:`drain`.

Ordering contract: the events of one thread stay in recording order.
Threads interleave at harvest granularity, not event granularity, so
the collector's logical timestamps are a valid serialization of every
per-thread history -- which is all the analyses consume (profiles are
split per thread before pattern detection).

Backpressure is opt-in: with ``max_buffered`` set and no spill file,
the drainer closes a gate once the master buffer holds more records
than the bound and invalidates every kernel.  Each thread's next record
then re-enters :meth:`acquire_buffer`, which waits on the gate and
raises after ``block_timeout`` -- gate enforcement at rebind
granularity, never a per-event check.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Callable

from .spill import MAGIC, RECORD_SIZE, SpillWriter

#: Longest idle back-off between harvests of empty buffers (seconds).
_IDLE_INTERVAL = 0.2


class Channel:
    """Packed per-thread buffers drained by a background thread.

    Parameters
    ----------
    flush_interval:
        Seconds between drainer harvests while events are flowing.
    max_buffered:
        Optional backpressure bound: records held in the master buffer
        before recording threads are gated.  ``None`` (the default)
        buffers without bound, like any in-memory capture.  Ignored with
        a spill file, which never fills RAM.
    spill:
        Optional path; harvested records stream to this spill file
        instead of RAM, and :meth:`drain` reads the file back.
    block_timeout:
        Seconds a gated thread waits before raising -- a wedged
        pipeline becomes a diagnosable error instead of a silent hang.
    """

    def __init__(
        self,
        flush_interval: float = 0.005,
        max_buffered: int | None = None,
        spill: str | Path | None = None,
        block_timeout: float = 30.0,
    ) -> None:
        if max_buffered is not None and max_buffered < 1:
            raise ValueError(f"max_buffered must be >= 1, got {max_buffered}")
        self._flush_interval = flush_interval
        self._max_buffered = max_buffered
        self._block_timeout = block_timeout
        self._writer = SpillWriter(spill) if spill is not None else None
        self.spill_path = Path(spill) if spill is not None else None
        self._invalidate_cbs: list[Callable[[], None]] = []
        self._reset()

    def _reset(self) -> None:
        """Fresh buffers, flags and synchronization primitives."""
        self._buffers: dict[int, bytearray] = {}
        self._registry_lock = threading.Lock()
        self._master = bytearray()
        self._absorbed = 0
        self._drainer_error: BaseException | None = None
        self._failed_open = False
        self._closed = False
        self._stopping = False
        # The gate: a one-slot list read on every bind (a C subscript),
        # and the Event gated threads actually sleep on.
        self._open = [True]
        self._gate = threading.Event()
        self._gate.set()
        self._wake = threading.Event()
        self._flush_done: threading.Event | None = None
        self._snapshot_lock = threading.Lock()
        self._drainer: threading.Thread | None = None

    # -- record side -------------------------------------------------------

    def add_invalidate_listener(self, callback: Callable[[], None]) -> None:
        """Register a kernel's ``invalidate``, called whenever the gate
        closes, at drain, and on fork reinit."""
        self._invalidate_cbs.append(callback)

    def _invalidate_kernels(self) -> None:
        for callback in self._invalidate_cbs:
            try:
                callback()
            except Exception:
                pass  # a broken kernel must not kill the drainer

    def acquire_buffer(self) -> bytearray:
        """The calling thread's packed buffer (the kernel's bind path).

        This is where a drained channel refuses further events and where
        backpressure bites: a closed gate makes the bind wait (and
        eventually raise), so gated threads stop recording without any
        per-event check.  The first bind starts the drainer."""
        if self._closed:
            raise RuntimeError("channel already drained")
        if not self._open[0] and not self._gate.wait(self._block_timeout):
            raise RuntimeError(
                f"backpressure: more than {self._max_buffered} events buffered "
                f"and nothing drained them within {self._block_timeout}s "
                f"(use a spill file for unbounded captures)"
            )
        ident = threading.get_ident()
        with self._registry_lock:
            buf = self._buffers.get(ident)
            if buf is None:
                buf = self._buffers[ident] = bytearray()
            if self._drainer is None:
                self._drainer = threading.Thread(
                    target=self._run, name="dsspy-drainer", daemon=True
                )
                self._drainer.start()
        return buf

    # -- drainer -----------------------------------------------------------

    def _run(self) -> None:
        wake = self._wake
        interval = self._flush_interval
        while True:
            wake.wait(interval)
            wake.clear()
            stopping = self._stopping
            # Latch the flush request BEFORE harvesting: a request that
            # lands mid-harvest must wait for the next full cycle, or
            # the barrier would acknowledge events it never collected.
            done = self._flush_done
            if done is not None:
                self._flush_done = None
            try:
                absorbed = self._harvest_all()
                if absorbed:
                    self._after_harvest()
                if stopping and self._writer is not None:
                    self._writer.flush()
            except Exception as exc:
                # A dying drainer must never leave threads gated on a
                # bound nothing will relieve, nor a snapshot barrier
                # waiting forever: record the error, open the gate
                # permanently, release any waiter, exit.
                self._drainer_error = exc
                self.fail_open()
                if done is not None:
                    done.set()
                return
            if done is not None:
                done.set()
            if stopping:
                return
            # Back off while the buffers stay empty, so an idle channel
            # costs a few wake-ups a second instead of hundreds.
            if absorbed:
                interval = self._flush_interval
            else:
                interval = max(self._flush_interval, min(interval * 2, _IDLE_INTERVAL))

    def _harvest_all(self) -> int:
        """Move whole records from the thread buffers into the master
        buffer (or spill file); returns how many were absorbed."""
        if self._stopping and self._writer is None:
            return self._harvest_terminal()
        with self._registry_lock:
            buffers = list(self._buffers.values())
        absorbed = 0
        for buf in buffers:
            n = len(buf) - len(buf) % RECORD_SIZE
            if not n:
                continue
            harvested = bytes(buf[:n])
            del buf[:n]
            if self._writer is not None:
                self._writer.write_packed(harvested)
            else:
                self._master += harvested
            absorbed += n // RECORD_SIZE
        self._absorbed += absorbed
        bound = self._max_buffered
        if bound is not None and self._writer is None and not self._failed_open:
            over = len(self._master) // RECORD_SIZE > bound
            if over and self._open[0]:
                self._open[0] = False
                self._gate.clear()
                # Force every kernel back through acquire_buffer, where
                # the closed gate blocks it.
                self._invalidate_kernels()
            elif not over and not self._open[0]:
                self._open[0] = True
                self._gate.set()
        return absorbed

    def _harvest_terminal(self) -> int:
        """Zero-copy final harvest: take the thread buffers wholesale.

        Recording threads must be quiescent at drain time, so the
        buffer objects themselves can become -- or extend -- the master
        instead of paying the slice-and-extend double copy of the
        concurrent harvest.  Each taken buffer is replaced by a fresh
        one and every kernel is invalidated, so a straggler rebinds
        (and is refused) rather than scribbling over the capture."""
        with self._registry_lock:
            taken = [buf for buf in self._buffers.values() if buf]
            for ident in list(self._buffers):
                if self._buffers[ident]:
                    self._buffers[ident] = bytearray()
        self._invalidate_kernels()
        absorbed = 0
        for buf in taken:
            n = len(buf) - len(buf) % RECORD_SIZE
            if not n:
                continue
            del buf[n:]  # a torn tail record can only be fault debris
            if not self._master:
                self._master = buf
            else:
                self._master += buf
            absorbed += n // RECORD_SIZE
        self._absorbed += absorbed
        return absorbed

    def _after_harvest(self) -> None:
        """Drainer-thread hook run after a harvest absorbed records
        (:class:`~repro.service.client.RemoteChannel` ships here)."""

    # -- fail-open / fork safety -------------------------------------------

    def fail_open(self) -> None:
        """Permanently open the backpressure gate so no thread can ever
        block on this channel again.

        Called when a :class:`~repro.runtime.guard.RuntimeGuard` trips
        (via ``watch_channel``) or when the drainer thread dies: in
        pass-through mode events may be lost, but the host program must
        never wait on a transport that will not recover."""
        self._failed_open = True
        self._open[0] = True
        self._gate.set()

    def _after_fork_child(self, policy: str) -> None:  # noqa: ARG002
        """Reinitialize in a fork child (threads do not survive fork).

        Every synchronization primitive is replaced -- its state at the
        fork point is arbitrary -- and the child starts with empty
        buffers: the parent owns the pre-fork events.  The inherited
        spill writer shares a file offset with the parent, so spilling
        is disabled in the child.  Cached kernel buffers belong to the
        parent's buffer map, so every kernel is invalidated; the first
        rebind restarts the drainer."""
        closed = self._closed
        self._reset()
        self._closed = closed
        self._writer = None
        self.spill_path = None
        self._invalidate_kernels()

    # -- drain / snapshot --------------------------------------------------

    def _close(self) -> None:
        """Stop the drainer after a final harvest (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._stopping = True
        self._open[0] = True
        self._gate.set()
        drainer = self._drainer
        if drainer is not None:
            self._wake.set()
            # Bounded join: a wedged drainer becomes a diagnosable error
            # instead of a silent hang (and under the fail-open guard,
            # finish_with_deadline contains even that).
            timeout = max(self._block_timeout, 1.0)
            drainer.join(timeout=timeout)
            if drainer.is_alive():
                raise RuntimeError(
                    f"drainer did not stop within {timeout:.1f}s during drain"
                )
            if self._drainer_error is not None:
                # The drainer died mid-run; salvage whatever is still
                # sitting in thread buffers, best-effort.
                try:
                    self._harvest_all()
                except Exception:
                    pass
        self._invalidate_kernels()
        if self._writer is not None:
            self._writer.close()

    def _read_spill(self) -> bytes:
        data = Path(self.spill_path).read_bytes()[len(MAGIC):]
        return data[: len(data) - len(data) % RECORD_SIZE]

    def _take_capture(self) -> bytes | bytearray:
        """Hand the capture over: the caller owns the bytes, and the
        channel drops its reference so they are freed with the caller's."""
        data = self._read_spill() if self._writer is not None else self._master
        self._master = bytearray()
        return data

    def drain(self) -> bytes | bytearray:
        """Terminal drain: every recorded event as packed records.

        Recording threads must be quiescent; a later record is refused
        at its rebind.  The capture is handed over, not copied, so a
        second call returns nothing."""
        self._close()
        return self._take_capture()

    def snapshot(self) -> bytes:
        """A copy of everything recorded so far, without closing.

        Triggers a harvest barrier and waits for the drainer to signal
        it absorbed every record posted before the call, so a collector
        can assemble profiles mid-session."""
        drainer = self._drainer
        if self._closed or drainer is None:
            return bytes(self._master)
        if not drainer.is_alive():
            # The drainer died (its error is in drainer_error); harvest
            # inline rather than waiting on a barrier nobody will serve.
            try:
                self._harvest_all()
            except Exception:
                pass
        else:
            with self._snapshot_lock:
                done = threading.Event()
                self._flush_done = done
                self._wake.set()
                if not done.wait(self._block_timeout):
                    raise TimeoutError(
                        "drainer did not complete the snapshot harvest"
                    )
        if self._writer is not None:
            self._writer.flush()
            return self._read_spill()
        return bytes(self._master)

    # -- introspection -----------------------------------------------------

    @property
    def pending(self) -> int:
        """Events recorded so far (approximate while threads record)."""
        with self._registry_lock:
            unharvested = sum(len(b) for b in self._buffers.values()) // RECORD_SIZE
        return self._absorbed + unharvested

    @property
    def drainer_error(self) -> BaseException | None:
        """Exception that killed the drainer thread, if any (the
        channel fails open when this is set)."""
        return self._drainer_error

    @property
    def failed_open(self) -> bool:
        """True once the backpressure gate was permanently opened."""
        return self._failed_open
