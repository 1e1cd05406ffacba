"""Client-side injected faults: a hostile profiler for fail-open tests.

The PR 3 fault vocabulary (:mod:`~repro.testing.faults`) attacks the
*wire* between client and daemon; these faults attack the profiler
itself, inside the host process — the failure modes the
:mod:`repro.runtime` firewall exists to contain:

``raising-record``
    :class:`HostileCollector` raises :class:`ProfilerBug` from
    ``record`` (every call, or every *n*-th).

``raising-register``
    The collector raises from ``register_instance``, so construction of
    a tracked structure fails inside the profiler.

``raising-channel``
    :class:`RaisingChannel` raises from its buffer bind after an
    initial grace period — a transport that works, then breaks
    mid-capture.

``hanging-channel``
    :class:`HangingChannel` blocks in ``drain`` (or its buffer bind)
    until released — the silent-stall mode only a watchdog or bounded
    drain can catch; no exception is ever raised.

``fork-under-load``
    Not a class: ``os.fork()`` while recording threads are live,
    exercised by the subprocess tests in ``tests/test_fork_exit.py``.

Every injected fault class carries :class:`ProfilerBug` (or a timed
hold) so tests can assert that what the host program observed was
*contained* profiler behaviour, never coincidental success.
"""

from __future__ import annotations

import threading

from ..events.channel import Channel
from ..events.collector import EventCollector

#: Client-side fault kinds (the firewall's threat model), extending the
#: wire-level ``FAULT_KINDS`` of :mod:`~repro.testing.faults`.
CLIENT_FAULT_KINDS = (
    "raising-record",
    "raising-register",
    "raising-channel",
    "hanging-channel",
    "fork-under-load",
)


class ProfilerBug(RuntimeError):
    """The injected profiler-internal defect.

    A distinct type so containment tests can assert that *this* —
    not some unrelated error — is what the firewall swallowed."""


class HostileCollector(EventCollector):
    """An :class:`~repro.events.collector.EventCollector` that raises.

    Parameters
    ----------
    fail_record / fail_register:
        Which entry points raise :class:`ProfilerBug`.
    every:
        Raise on every *n*-th call to the failing entry point (1 =
        every call), so tests can interleave contained faults with
        successful recording.
    """

    def __init__(
        self,
        *,
        fail_record: bool = True,
        fail_register: bool = False,
        every: int = 1,
        **kwargs,
    ) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        super().__init__(**kwargs)
        self.fail_record = fail_record
        self.fail_register = fail_register
        self.every = every
        self.record_calls = 0
        self.register_calls = 0
        self._inner_record = self.record
        self.record = self._raising_record

    def register_instance(self, kind, site=None, label=""):
        self.register_calls += 1
        if self.fail_register and self.register_calls % self.every == 0:
            raise ProfilerBug(
                f"injected register_instance fault (call {self.register_calls})"
            )
        return super().register_instance(kind, site=site, label=label)

    def _raising_record(self, instance_id, op, kind, position, size):
        self.record_calls += 1
        if self.fail_record and self.record_calls % self.every == 0:
            raise ProfilerBug(f"injected record fault (call {self.record_calls})")
        self._inner_record(instance_id, op, kind, position, size)


class RaisingChannel(Channel):
    """A channel whose buffer bind raises after ``after`` successful binds.

    Models a transport that works and then breaks mid-capture (a
    full disk behind a spill file, a socket torn down under the
    drainer).  A failed bind leaves the kernel unbound, so every later
    record of that thread retries the bind and raises again.
    ``drain``/``snapshot`` keep working so a healthy guard can still
    salvage what was recorded before the break.
    """

    def __init__(self, after: int = 0, **kwargs) -> None:
        super().__init__(**kwargs)
        self.after = after
        self.binds = 0

    def acquire_buffer(self) -> bytearray:
        self.binds += 1
        if self.binds > self.after:
            raise ProfilerBug(f"injected channel bind fault (bind {self.binds})")
        return super().acquire_buffer()


class HangingChannel(Channel):
    """A channel that blocks instead of raising — the silent stall.

    ``drain`` (and optionally the buffer bind) wait on an internal
    event that only :meth:`release` sets; ``max_hold`` bounds the wait
    so a test whose containment *failed* still terminates with a
    diagnosable assertion instead of deadlocking the suite.
    """

    def __init__(
        self,
        hang_bind: bool = False,
        hang_drain: bool = True,
        max_hold: float = 30.0,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self.hang_bind = hang_bind
        self.hang_drain = hang_drain
        self.max_hold = max_hold
        self.held = 0
        self._release = threading.Event()

    def release(self) -> None:
        """Unblock every current and future hold."""
        self._release.set()

    def _hold(self) -> None:
        self.held += 1
        self._release.wait(self.max_hold)

    def acquire_buffer(self) -> bytearray:
        if self.hang_bind:
            self._hold()
        return super().acquire_buffer()

    def drain(self) -> bytes | bytearray:
        if not self._closed and self.hang_drain:
            self._hold()
        return super().drain()


def make_hostile_collector(kind: str, every: int = 1) -> EventCollector:
    """Build the collector for one :data:`CLIENT_FAULT_KINDS` entry
    (the fork-under-load kind has no collector — it is a process-level
    scenario driven by the subprocess tests)."""
    if kind == "raising-record":
        return HostileCollector(fail_record=True, every=every)
    if kind == "raising-register":
        return HostileCollector(fail_record=False, fail_register=True, every=every)
    if kind == "raising-channel":
        return EventCollector(channel=RaisingChannel())
    if kind == "hanging-channel":
        return EventCollector(channel=HangingChannel(max_hold=2.0))
    raise ValueError(
        f"no collector for client fault kind {kind!r}; "
        f"expected one of {CLIENT_FAULT_KINDS[:-1]}"
    )
