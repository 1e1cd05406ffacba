"""Client side of the profiling service.

:class:`ServiceClient` is the thin protocol speaker: connect, HELLO,
ship frames, strict request/response for the control messages.
:class:`RemoteChannel` is what instrumented programs actually use -- the
in-process :class:`~repro.events.channel.Channel` whose drainer thread
also forwards each harvest's packed bytes to the daemon as they are, so
the hot recording path is the same record kernel as in-process and all
network cost is paid off-thread.

Fault tolerance lives here, not in user code: the channel keeps every
event in its master buffer until drained, tracks how much of it the
server acknowledged receiving, and on a broken connection silently
reconnects with the same session id and retransmits from the server's
``received`` cursor.  The daemon's overlap-skip
(:meth:`~repro.service.session.Session.ingest`) makes the retransmit
idempotent, so an abrupt mid-stream disconnect costs nothing but
latency.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from pathlib import Path
from typing import Any

from ..events.channel import Channel
from ..events.event import RawEvent
from ..events.profile import AllocationSite
from ..events.spill import RECORD_SIZE, SpillWriter, pack_records
from ..events.types import StructureKind
from ..testing.clock import SYSTEM_CLOCK, Clock
from .protocol import (
    MAX_EVENTS_PER_FRAME,
    SHM_CAPABILITY,
    MessageType,
    ProtocolError,
    RetryAfterError,
    decode_json,
    encode_events,
    encode_json,
    parse_version_offer,
    recv_frame,
    shm_offer,
    version_offer,
)
from .shm import DEFAULT_RING_RECORDS, ShmRing

#: Records per EVENTS window the drainer ships: bounds the daemon's
#: per-window decode and journal append however long a harvest was.
SHIP_WINDOW = 4096


def parse_address(text: str) -> tuple[int, Any]:
    """Parse ``host:port``, ``unix:<path>``, or a filesystem path into
    ``(address_family, connect_arg)``."""
    text = text.strip()
    if text.startswith("unix:"):
        return socket.AF_UNIX, text[5:]
    if "/" in text:
        return socket.AF_UNIX, text
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(
            f"bad service address {text!r}; expected HOST:PORT or unix:PATH"
        )
    return socket.AF_INET, (host or "127.0.0.1", int(port))


class ServiceClient:
    """One connection-with-session to a profiling daemon.

    All I/O is serialized under one lock; the server only ever speaks
    when spoken to (strict request/response), so a reply always belongs
    to the request just sent.
    """

    def __init__(
        self,
        address: str,
        session_id: str | None = None,
        timeout: float = 10.0,
        shm: dict[str, Any] | None = None,
    ) -> None:
        self.address = address
        family, connect_arg = parse_address(address)
        self._io_lock = threading.RLock()
        self._sock = socket.socket(family, socket.SOCK_STREAM)
        self._sock.settimeout(timeout)
        self._sock.connect(connect_arg)
        if family == socket.AF_INET:
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        #: Unknown frame types skipped whole instead of erroring — a
        #: newer daemon talking past this build (version skew).
        self.frames_skipped = 0
        hello: dict[str, Any] = version_offer()
        if session_id:
            hello["session"] = session_id
        if shm is not None:
            hello[SHM_CAPABILITY] = shm
        ack = self._request(MessageType.HELLO, hello)
        self.session_id: str = ack["session"]
        self.server_received: int = int(ack.get("received", 0))
        self.resumed: bool = bool(ack.get("resumed", False))
        #: Whether the daemon attached the offered shared-memory ring.
        self.shm_accepted: bool = bool(ack.get(SHM_CAPABILITY, False))
        # A version-1 daemon sends no version keys; parse_version_offer
        # folds that case into (1, 1, inferred features).  The ACK's
        # "proto" is already the daemon's negotiated pick, so the max
        # of its range *is* the session version.
        _, self.proto_version, self.server_features = parse_version_offer(ack)

    # -- plumbing --------------------------------------------------------

    def _request(self, mtype: int, obj: dict[str, Any]) -> dict[str, Any]:
        with self._io_lock:
            self._sock.sendall(encode_json(mtype, obj))
            return self._read_ack()

    def _read_ack(self) -> dict[str, Any]:
        while True:
            frame = recv_frame(self._sock)
            if frame is None:
                raise ProtocolError("server closed the connection")
            rtype, payload = frame
            if rtype in MessageType._NAMES:
                break
            # Version skew: a newer daemon sent a frame type this
            # build does not know.  Skip it (framing is
            # self-delimiting) and keep waiting for the reply.
            self.frames_skipped += 1
        obj = decode_json(payload)
        if rtype == MessageType.ERROR:
            raise ProtocolError(f"server error: {obj.get('error', '?')}")
        if rtype == MessageType.RETRY_AFTER:
            raise RetryAfterError(float(obj.get("retry_after", 1.0)))
        # JOURNALED is a positive ack: the events are durable, their
        # analysis is merely deferred behind the journal backlog.
        if rtype not in (MessageType.ACK, MessageType.JOURNALED):
            raise ProtocolError(f"expected ACK, got {MessageType.name(rtype)}")
        return obj

    # -- protocol verbs --------------------------------------------------

    def register_instances(self, instances: list[dict[str, Any]]) -> None:
        """Fire-and-forget instance declarations (no reply)."""
        with self._io_lock:
            self._sock.sendall(
                encode_json(MessageType.REGISTER, {"instances": instances})
            )

    def send_events(
        self, start: int, events: bytes | bytearray | list[RawEvent]
    ) -> None:
        """Ship a window of events starting at stream index ``start``
        (no reply); chunks to the frame limit.  ``events`` is packed
        records, or raw event tuples packed here."""
        if isinstance(events, list):
            events = pack_records(events)
        span = MAX_EVENTS_PER_FRAME * RECORD_SIZE
        with self._io_lock:
            for offset in range(0, len(events), span):
                self._sock.sendall(
                    encode_events(
                        start + offset // RECORD_SIZE, events[offset : offset + span]
                    )
                )

    def heartbeat(self) -> dict[str, Any]:
        return self._request(MessageType.HEARTBEAT, {})

    def fin(self) -> dict[str, Any]:
        """End the session; the ACK carries the final report dict."""
        return self._request(MessageType.FIN, {})

    def stats(self) -> dict[str, Any]:
        return self._request(MessageType.STATS, {})

    def close(self) -> None:
        with self._io_lock:
            try:
                self._sock.close()
            except OSError:
                pass


def fetch_stats(address: str, timeout: float = 10.0) -> dict[str, Any]:
    """One-shot STATS query (used by ``dsspy sessions``).

    Speaks STATS before HELLO — the daemon answers observability
    queries without creating a session.
    """
    family, connect_arg = parse_address(address)
    sock = socket.socket(family, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    try:
        sock.connect(connect_arg)
        sock.sendall(encode_json(MessageType.STATS, {}))
        frame = recv_frame(sock)
        if frame is None:
            raise ProtocolError("server closed the connection")
        rtype, payload = frame
        obj = decode_json(payload)
        if rtype != MessageType.ACK:
            raise ProtocolError(f"expected ACK, got {MessageType.name(rtype)}")
        return obj
    finally:
        sock.close()


def fetch_snapshot(
    address: str, session: str | None = None, timeout: float = 10.0
) -> dict[str, Any]:
    """One-shot SNAPSHOT query: serialized engine state for merging.

    Like STATS, spoken before HELLO — the fleet coordinator observes a
    worker without creating a session on it.  ``session`` narrows the
    reply to one session (the coordinator fetches per-session to stay
    far below the frame ceiling); ``None`` asks for all of them.
    """
    family, connect_arg = parse_address(address)
    sock = socket.socket(family, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    try:
        sock.connect(connect_arg)
        req: dict[str, Any] = {} if session is None else {"session": session}
        sock.sendall(encode_json(MessageType.SNAPSHOT, req))
        frame = recv_frame(sock)
        if frame is None:
            raise ProtocolError("server closed the connection")
        rtype, payload = frame
        obj = decode_json(payload)
        if rtype != MessageType.ACK:
            raise ProtocolError(
                f"expected ACK, got {MessageType.name(rtype)}: "
                f"{obj.get('error', '')}"
            )
        return obj
    finally:
        sock.close()


def _site_to_dict(site: AllocationSite | None) -> dict[str, Any] | None:
    if site is None:
        return None
    return {
        "filename": site.filename,
        "lineno": site.lineno,
        "function": site.function,
        "variable": site.variable,
    }


class BackoffPolicy:
    """Capped exponential backoff with jitter for reconnect attempts.

    Delay after the *n*-th consecutive failure is
    ``min(cap, base * multiplier**(n-1))`` stretched by up to
    ``jitter`` of itself (seedable ``random.Random`` — tests pin the
    schedule), and never shorter than a server-mandated minimum (the
    RETRY-AFTER delay).  A success resets the ladder.

    Timing goes through a :class:`~repro.testing.clock.Clock`, so a
    SimClock test can walk the schedule without sleeping.
    """

    def __init__(
        self,
        base: float = 0.05,
        cap: float = 5.0,
        multiplier: float = 2.0,
        jitter: float = 0.5,
        rng: random.Random | None = None,
        clock: Clock = SYSTEM_CLOCK,
    ) -> None:
        if base <= 0 or cap < base or multiplier < 1.0 or not 0 <= jitter <= 1:
            raise ValueError(
                f"bad backoff parameters base={base} cap={cap} "
                f"multiplier={multiplier} jitter={jitter}"
            )
        self.base = base
        self.cap = cap
        self.multiplier = multiplier
        self.jitter = jitter
        self._rng = rng if rng is not None else random.Random()
        self._clock = clock
        self.failures = 0
        self._until = 0.0

    def note_failure(self, min_delay: float = 0.0) -> float:
        """Record a failed attempt; returns the chosen delay."""
        self.failures += 1
        delay = min(self.cap, self.base * self.multiplier ** (self.failures - 1))
        delay *= 1.0 + self.jitter * self._rng.random()
        delay = max(delay, min_delay)
        self._until = self._clock.monotonic() + delay
        return delay

    def note_success(self) -> None:
        self.failures = 0
        self._until = 0.0

    def ready(self) -> bool:
        """Is the current delay over (always true when never failed)?"""
        return self._clock.monotonic() >= self._until

    def down_for(self) -> float:
        """Seconds until the next attempt is allowed (0 when ready)."""
        return max(0.0, self._until - self._clock.monotonic())


class RemoteChannel(Channel):
    """The event channel, streaming its harvests to a daemon.

    The record side is the untouched :class:`Channel` (the same record
    kernel and per-thread buffers); after each harvest the drainer
    thread ships the new packed bytes as they are.  The master buffer
    retains everything (no spill), serving as the retransmission
    source: on any socket error the channel marks itself disconnected
    and the next harvest reconnects with the same session id, rewinds
    its cursor to the server's ``received`` count, and resends the
    tail.

    ``drain()`` performs the handshake ending the session: final ship,
    FIN, and stores the server's report in :attr:`final_ack`.
    """

    def __init__(
        self,
        address: str,
        session_id: str | None = None,
        heartbeat_interval: float = 2.0,
        clock: Clock = SYSTEM_CLOCK,
        backoff: BackoffPolicy | None = None,
        give_up_after: float | None = None,
        fallback_spill: str | Path | None = None,
        transport: str = "socket",
        ring_records: int = DEFAULT_RING_RECORDS,
        **channel_kwargs: Any,
    ) -> None:
        if channel_kwargs.pop("spill", None) is not None:
            raise ValueError(
                "RemoteChannel keeps its retransmission source in RAM; "
                "spill is not supported (use the daemon-side spill instead)"
            )
        if transport not in ("socket", "shm"):
            raise ValueError(
                f"transport must be 'socket' or 'shm', got {transport!r}"
            )
        self.address = address
        self._transport = transport
        self._ring_records = ring_records
        self._ring: ShmRing | None = None
        #: Last unexpected exception a ship attempt raised; the events
        #: stay in the master buffer and the next harvest retries.
        self.ship_error: Exception | None = None
        #: Harvests that stalled because the ring had no room (the
        #: consumer was behind); the tail is retried next harvest.
        self.ring_full = 0
        self._clock = clock
        self.final_ack: dict[str, Any] | None = None
        self._client: ServiceClient | None = None
        self._session_id = session_id
        self._shipped = 0
        self._ship_lock = threading.Lock()
        self._registered: list[dict[str, Any]] = []
        self._registered_sent = 0
        self._reconnects = 0
        self._backoff = backoff if backoff is not None else BackoffPolicy(clock=clock)
        self._give_up_after = give_up_after
        self._fallback_spill = (
            Path(fallback_spill) if fallback_spill is not None else None
        )
        self._down_since: float | None = None
        self._gave_up = False
        self._heartbeat_interval = heartbeat_interval
        self._connect()  # fail fast: a bad address raises here, not mid-run
        super().__init__(**channel_kwargs)
        self._hb_stop = threading.Event()
        self._hb_thread = threading.Thread(
            target=self._heartbeat_loop,
            args=(heartbeat_interval,),
            name="dsspy-remote-heartbeat",
            daemon=True,
        )
        self._hb_thread.start()

    # -- collector hook --------------------------------------------------

    def on_register(
        self,
        instance_id: int,
        kind: StructureKind,
        site: AllocationSite | None,
        label: str,
    ) -> None:
        """Called by the collector for each new instance; forwards the
        declaration so the daemon knows the instance's identity."""
        entry = {
            "id": instance_id,
            "kind": kind.value,
            "site": _site_to_dict(site),
            "label": label,
        }
        with self._ship_lock:
            self._registered.append(entry)
            self._flush_registrations()

    def _flush_registrations(self) -> None:
        """Send not-yet-delivered registrations (caller holds the lock)."""
        client = self._client
        if client is None:
            return
        pending = self._registered[self._registered_sent :]
        if not pending:
            return
        try:
            client.register_instances(pending)
            self._registered_sent = len(self._registered)
        except (OSError, ProtocolError):
            self._disconnect()

    # -- shipping (drainer thread) ---------------------------------------

    def _connect(self) -> None:
        offer = None
        if self._transport == "shm":
            # Fresh ring per connection generation: the daemon's old
            # consumer (if any) drains before the new one attaches, so
            # reused counters could never line up with the resumed
            # cursor.  The old segment dies with its last detach.
            if self._ring is not None:
                self._ring.unlink()
                self._ring = None
            self._ring = ShmRing.create(self._ring_records)
            offer = shm_offer(self._ring.name, self._ring.capacity_bytes)
        try:
            client = ServiceClient(
                self.address, session_id=self._session_id, shm=offer
            )
        except Exception:
            if self._ring is not None:
                self._ring.unlink()
                self._ring = None
            raise
        if offer is not None and not client.shm_accepted:
            # Daemon declined (stale segment, remote host, old daemon):
            # fall back to EVENTS frames on the socket for this
            # connection; the next reconnect offers a fresh ring again.
            self._ring.unlink()
            self._ring = None
        self._client = client
        self._session_id = client.session_id
        if client.resumed:
            # The server's cursor is authoritative: anything past it
            # was lost in flight and must be resent from the master.
            self._shipped = min(self._shipped, client.server_received)
            self._reconnects += 1
        # A fresh session (e.g. the old one was reaped) starts at zero.
        elif self._shipped:
            self._shipped = 0
        self._registered_sent = 0
        self._backoff.note_success()
        self._down_since = None
        self._flush_registrations()

    def _disconnect(self) -> None:
        client, self._client = self._client, None
        if client is not None:
            client.close()

    def _note_failure(self, exc: Exception | None = None) -> None:
        """Failure bookkeeping: back off (honoring a server-mandated
        RETRY-AFTER delay) and track how long the link has been down
        for the give-up deadline."""
        min_delay = exc.retry_after if isinstance(exc, RetryAfterError) else 0.0
        self._backoff.note_failure(min_delay)
        now = self._clock.monotonic()
        if self._down_since is None:
            self._down_since = now
        if (
            self._give_up_after is not None
            and now - self._down_since >= self._give_up_after
        ):
            self._gave_up = True

    def _after_harvest(self) -> None:
        """Drainer hook: forward everything harvested but not yet
        shipped.  Works from the master buffer, so a failed send is
        retried by the next harvest; an unexpected error never kills
        the drainer."""
        try:
            with self._ship_lock:
                self._ship_pending()
        except Exception as exc:
            self.ship_error = exc

    def _ship_pending(self, force: bool = False) -> None:
        if self._gave_up:
            return
        if self._client is None:
            if not force and not self._backoff.ready():
                return  # inside the backoff delay; skip this harvest
            try:
                self._connect()
            except (OSError, ProtocolError) as exc:
                self._note_failure(exc)
                return  # still down; retry after the backoff delay
        pending = self._master[self._shipped * RECORD_SIZE :]
        if not pending:
            return
        ring = self._ring
        if ring is not None:
            # Zero-syscall path: copy the packed bytes into the shared
            # ring.  Partial fit is backpressure, not failure -- the
            # daemon's consumer frees space and the next harvest ships
            # the rest.
            room = ring.free // RECORD_SIZE
            if room <= 0:
                self.ring_full += 1
                return
            written = ring.write(bytes(pending[: room * RECORD_SIZE]))
            self._shipped += written // RECORD_SIZE
            if written < len(pending):
                self.ring_full += 1
            return
        span = SHIP_WINDOW * RECORD_SIZE
        try:
            for offset in range(0, len(pending), span):
                window = pending[offset : offset + span]
                self._client.send_events(self._shipped, window)
                self._shipped += len(window) // RECORD_SIZE
        except (OSError, ProtocolError) as exc:
            self._disconnect()
            self._note_failure(exc)

    def _heartbeat_loop(self, interval: float) -> None:
        # Cadence goes through the clock so tests can trigger (or
        # suppress) heartbeats deterministically with a SimClock.
        while not self._clock.wait(self._hb_stop, interval):
            with self._ship_lock:
                client = self._client
                if client is None:
                    continue
                try:
                    client.heartbeat()
                except (OSError, ProtocolError) as exc:
                    self._disconnect()
                    self._note_failure(exc)

    # -- lifecycle -------------------------------------------------------

    def _after_fork_child(self, policy: str) -> None:
        """Reinitialize in a fork child.

        The child inherits a *copy* of the parent's socket file
        descriptor: writing even one byte would interleave with the
        parent's length-prefixed frames and corrupt the stream for
        both.  The fd copy is closed without any protocol traffic
        (closing a duplicate sends no FIN — the parent still holds its
        own descriptor, so its connection is untouched).

        ``policy`` then picks the child's posture:

        ``"disable"``
            The channel gives up shipping permanently; recording
            continues into the child's local buffers.

        ``"resession"``
            The session id is cleared so the next harvest opens a
            *fresh* daemon session, re-sending the instance
            registrations (the structures live on in the child); the
            heartbeat thread is restarted.
        """
        sock = self._client._sock if self._client is not None else None
        self._client = None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass
        if self._ring is not None:
            # Detach only: the segment (and the daemon conversation it
            # belongs to) is the parent's.  A resession child creates
            # its own ring at its first connect.
            self._ring.close()
            self._ring = None
        self.ring_full = 0
        self._ship_lock = threading.Lock()
        self._shipped = 0
        self._registered_sent = 0
        self._down_since = None
        self.final_ack = None
        # The fallback spill path belongs to the parent; the child
        # writing it would clobber the parent's residue.
        self._fallback_spill = None
        super()._after_fork_child(policy)
        if policy == "resession" and not self._gave_up:
            self._session_id = None
            self._hb_stop = threading.Event()
            self._hb_thread = threading.Thread(
                target=self._heartbeat_loop,
                args=(self._heartbeat_interval,),
                name="dsspy-remote-heartbeat",
                daemon=True,
            )
            self._hb_thread.start()
        else:
            self._gave_up = True

    @property
    def session_id(self) -> str | None:
        return self._session_id

    @property
    def proto_version(self) -> int | None:
        """Wire-protocol version negotiated with the daemon on the
        current connection (None while disconnected)."""
        client = self._client
        return client.proto_version if client is not None else None

    @property
    def reconnects(self) -> int:
        return self._reconnects

    @property
    def gave_up(self) -> bool:
        """True once the give-up deadline expired with the link down;
        unshipped events go to the fallback spill at drain time."""
        return self._gave_up

    def drain(self) -> bytes | bytearray:
        """Final harvest + final ship + FIN.  Returns the locally
        retained packed events (so in-process analysis still works),
        with the server's report available in :attr:`final_ack`.

        When the daemon stayed unreachable past the give-up deadline,
        the unshipped tail is written to the fallback spill file
        (:attr:`spill_path`) instead of being dropped -- ``dsspy
        analyze`` reads the residue with the ordinary spill tooling."""
        if self._closed:
            return self._take_capture()
        self._close()
        self._hb_stop.set()
        self._hb_thread.join(timeout=5.0)
        total = len(self._master) // RECORD_SIZE
        with self._ship_lock:
            # Stall-bounded final ship: iterations that move the cursor
            # are free (a small ring legitimately needs many refills),
            # only consecutive no-progress rounds count against the
            # budget -- a dead daemon exhausts it quickly.
            max_stalls = 50 if self._transport == "shm" else 3
            stalls_left = max_stalls
            while stalls_left > 0:
                before = self._shipped
                self._ship_pending(force=True)
                if self._client is not None and self._shipped == total:
                    break
                if self._shipped == before:
                    stalls_left -= 1
                    if self._ring is not None and stalls_left > 0:
                        # Ring full: give the daemon's consumer a moment
                        # to free space before copying the remainder.
                        time.sleep(0.01)
                else:
                    stalls_left = max_stalls
            for _ in range(2):
                client = self._client
                if client is None:
                    break
                try:
                    self.final_ack = client.fin()
                    break
                except (OSError, ProtocolError):
                    # The shm path exercises the socket so rarely that a
                    # long-dead connection may only surface here:
                    # reconnect (resuming the session), re-ship whatever
                    # the server lost, and try the FIN once more.
                    self.final_ack = None
                    self._disconnect()
                    self._ship_pending(force=True)
            self._disconnect()
            if self._ring is not None:
                # FIN (or its failure) ends this ring's conversation;
                # the daemon has already detached its side.
                self._ring.unlink()
                self._ring = None
            if self._shipped < total and self._fallback_spill is not None:
                with SpillWriter(self._fallback_spill) as writer:
                    writer.write_packed(self._master[self._shipped * RECORD_SIZE :])
                self.spill_path = self._fallback_spill
        return self._take_capture()
