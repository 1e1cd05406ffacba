"""The event collector: instance registry + event routing.

One :class:`EventCollector` corresponds to one DSspy capture session.
Tracked structures register themselves on construction (obtaining an
instance id) and call :attr:`EventCollector.record` on every interface
method.  ``record`` is the record kernel of
:mod:`~repro.events.fastpath` itself -- optionally behind a sampling
filter -- packing each event into the calling thread's buffer of the
collector's :class:`~repro.events.channel.Channel`.  After the workload
finishes, :meth:`EventCollector.finish` drains the channel, stamps
logical timestamps in arrival order, and routes the packed records, as
they are, into the :class:`~repro.events.profile.RuntimeProfile` of
their instance.

A module-level *ambient* collector makes tracked structures usable
without ceremony; the :func:`collecting` context manager installs a
fresh collector for deterministic, isolated captures::

    with collecting() as session:
        xs = TrackedList()
        xs.append(1)
    profile = session.profiles_by_label()[""]
"""

from __future__ import annotations

import threading
import weakref
from contextlib import contextmanager
from typing import Iterator

from .channel import Channel
from .fastpath import make_recorder
from .profile import AllocationSite, RuntimeProfile, route_records
from .sampling import RecordAll, SamplingPolicy
from .spill import RECORD_SIZE
from .types import StructureKind


class _SamplingFilter:
    """The sampling filter in front of the record kernel: one
    ``admit`` per event, in recording order; admitted events go to the
    kernel, the rest are only counted."""

    __slots__ = ("_admit", "_kernel", "sampled_out")

    def __init__(self, policy: SamplingPolicy, kernel) -> None:
        self._admit = policy.admit
        self._kernel = kernel
        self.sampled_out = 0

    def __call__(self, instance_id, op, kind, position, size) -> None:
        if self._admit(instance_id):
            self._kernel(instance_id, op, kind, position, size)
        else:
            self.sampled_out += 1


class EventCollector:
    """Registry of instrumented instances and their event streams.

    Parameters
    ----------
    channel:
        Event transport; defaults to a fresh in-memory
        :class:`~repro.events.channel.Channel`.  Pass one with a spill
        file for long captures, or a
        :class:`~repro.service.client.RemoteChannel` to stream to a
        daemon.
    sampling:
        Optional :class:`~repro.events.sampling.SamplingPolicy`: a thin
        admit-filter in front of the record kernel.  ``None`` (and
        :class:`RecordAll`) bind the kernel itself as :attr:`record` --
        not even a policy call is paid.

    Attributes
    ----------
    record:
        ``record(instance_id, op, kind, position, size)``, the hook
        tracked structures cache at construction.
    """

    def __init__(
        self,
        channel: Channel | None = None,
        sampling: SamplingPolicy | None = None,
    ) -> None:
        self._channel = channel if channel is not None else Channel()
        if sampling is not None and type(sampling) is RecordAll:
            sampling = None
        self._sampler = sampling
        self._lock = threading.Lock()
        self._next_instance_id = 0
        self._profiles: dict[int, RuntimeProfile] = {}
        self._thread_ids: dict[int, int] = {}
        self._finished = False
        self._assembled = 0
        # The kernel binds through a weak reference: no reference cycle,
        # so a dropped collector and its profiles are freed at once
        # rather than whenever the cyclic garbage collector runs.
        bind = weakref.WeakMethod(self._bind)
        self._recorder = make_recorder(lambda: bind()())
        self._channel.add_invalidate_listener(self._recorder.invalidate)
        self._filter = None if sampling is None else _SamplingFilter(sampling, self._recorder)
        self.record = self._recorder if self._filter is None else self._filter

    # -- registration ---------------------------------------------------

    def register_instance(
        self,
        kind: StructureKind,
        site: AllocationSite | None = None,
        label: str = "",
    ) -> int:
        """Assign an instance id and create its (empty) profile.

        Channels exposing an ``on_register`` hook (the service layer's
        :class:`~repro.service.client.RemoteChannel`) are notified after
        the id is assigned, so a remote analyzer learns each instance's
        kind/site/label without those ever entering the hot event path.
        """
        with self._lock:
            instance_id = self._next_instance_id
            self._next_instance_id += 1
            self._profiles[instance_id] = RuntimeProfile(
                instance_id, kind=kind, site=site, label=label
            )
        notify = getattr(self._channel, "on_register", None)
        if notify is not None:
            notify(instance_id, kind, site, label)
        return instance_id

    def _dense_thread_id(self) -> int:
        native = threading.get_ident()
        tid = self._thread_ids.get(native)
        if tid is None:
            with self._lock:
                tid = self._thread_ids.setdefault(native, len(self._thread_ids))
        return tid

    # -- recording ---------------------------------------------------------

    def _bind(self) -> tuple[int, bytearray]:
        """The kernel's slow boundary (one call per thread per epoch):
        register the thread, then let the channel enforce its gate
        before handing out the thread's buffer."""
        return (self._dense_thread_id(), self._channel.acquire_buffer())

    # -- fork safety -----------------------------------------------------

    def _after_fork_child(self, policy: str) -> None:
        """Reinitialize after ``fork()`` (runs in the child).

        Called by :mod:`repro.runtime.lifecycle`'s at-fork handler.
        The lock frozen at the fork point is replaced (never acquired --
        its state is arbitrary), and the channel gets the same
        treatment through its own ``_after_fork_child``, which also
        invalidates the kernel's cached buffers.  ``policy`` is
        forwarded so a networked channel can choose between
        re-registering a fresh session and self-disabling."""
        self._lock = threading.Lock()
        handler = getattr(self._channel, "_after_fork_child", None)
        if handler is not None:
            handler(policy)

    # -- post-mortem assembly ---------------------------------------------

    def _assemble(self, data: bytes | bytearray) -> None:
        """Route the records of ``data`` past those already assembled
        into their profiles, straight from the packed bytes."""
        start = self._assembled
        block = memoryview(data)[start * RECORD_SIZE :]
        route_records(block, self._profiles, first_seq=start)
        self._assembled = start + len(block) // RECORD_SIZE

    def assemble(self) -> dict[int, RuntimeProfile]:
        """Materialize newly recorded events without closing the channel.

        Lets callers inspect profiles mid-session; recording continues
        afterwards.  :meth:`finish` performs the terminal drain.
        """
        if not self._finished:
            self._assemble(self._channel.snapshot())
        return self._profiles

    def finish(self) -> dict[int, RuntimeProfile]:
        """Drain the channel and assemble all runtime profiles.

        The drained bytes are released once assembled.  Idempotent:
        subsequent calls return the already-assembled profiles.
        """
        if not self._finished:
            self._finished = True
            self._assemble(self._channel.drain())
        return self._profiles

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def channel(self) -> Channel:
        """The event transport this collector records into."""
        return self._channel

    @property
    def sampling(self) -> SamplingPolicy | None:
        """The active sampling policy (``None`` means full capture)."""
        return self._sampler

    @property
    def sampled_out(self) -> int:
        """Events the sampling policy skipped (approximate while
        recording is concurrent; exact once the workload quiesces)."""
        return 0 if self._filter is None else self._filter.sampled_out

    @property
    def event_count(self) -> int:
        """Events recorded so far (exact once finished)."""
        if self._finished:
            return sum(len(p) for p in self._profiles.values())
        return self._channel.pending

    @property
    def instance_count(self) -> int:
        return len(self._profiles)

    def profiles(self) -> list[RuntimeProfile]:
        """All profiles, ordered by instance id (assembled up to now;
        the channel stays open until :meth:`finish`)."""
        assembled = self.assemble()
        return [assembled[i] for i in sorted(assembled)]

    def nonempty_profiles(self) -> list[RuntimeProfile]:
        """Profiles that observed at least one event."""
        return [p for p in self.profiles() if len(p)]

    def profiles_by_label(self) -> dict[str, RuntimeProfile]:
        """Label → profile; later registrations win duplicate labels."""
        return {p.label: p for p in self.profiles()}

    def profile_of(self, instance_id: int) -> RuntimeProfile:
        return self.assemble()[instance_id]


# -- ambient collector ----------------------------------------------------

_ambient = EventCollector()
_stack: list[EventCollector] = []
_stack_lock = threading.Lock()


def get_collector() -> EventCollector:
    """The collector new tracked structures attach to."""
    with _stack_lock:
        return _stack[-1] if _stack else _ambient


def push_collector(collector: EventCollector) -> None:
    with _stack_lock:
        _stack.append(collector)


def pop_collector() -> EventCollector:
    with _stack_lock:
        return _stack.pop()


def reset_ambient() -> EventCollector:
    """Replace the ambient collector (test isolation helper)."""
    global _ambient
    _ambient = EventCollector()
    return _ambient


def iter_collectors() -> list[EventCollector]:
    """Every live collector: ambient plus the installed stack.

    Used by the lifecycle handlers (at-fork reinit, atexit drain).
    Deliberately lock-free — the list copy is GIL-atomic, and the fork
    handler must not touch a lock that may have been held at the fork
    point."""
    return [_ambient, *list(_stack)]


@contextmanager
def collecting(
    channel: Channel | None = None,
    sampling: SamplingPolicy | None = None,
) -> Iterator[EventCollector]:
    """Install a fresh collector for the duration of the block.

    The collector is finished (channel drained, profiles assembled) on
    exit, so profiles are ready for analysis immediately afterwards.
    """
    collector = EventCollector(channel=channel, sampling=sampling)
    push_collector(collector)
    try:
        yield collector
    finally:
        pop_collector()
        from ..runtime.guard import active_guard

        guard = active_guard()
        if guard is not None:
            # Fail-open mode: the terminal drain is bounded by the
            # guard's exit deadline and its exceptions are contained —
            # a wedged transport cannot hang or crash the host here.
            from ..runtime.lifecycle import finish_with_deadline

            finish_with_deadline(collector, guard)
        else:
            collector.finish()
