"""Circuit breaker and watchdog for the instrumentation runtime.

The firewall (:mod:`~repro.runtime.guard`) contains individual profiler
faults; the :class:`CircuitBreaker` decides when enough have happened
that instrumentation should stop trying altogether.  Its policy is an
*error budget*: every contained fault spends one unit, and when the
budget is exhausted the breaker trips to ``open`` — tracked structures
degrade to near-zero-overhead plain delegates (the guard's pass-through
cell) and stay that way.  With a ``cooldown`` configured the breaker
supports a *half-open* re-probe: after the cooldown elapses, traffic is
let through again; one more fault during probation re-trips (with a
doubled cooldown), while a quiet probation closes the breaker and
restores the full budget.

The :class:`Watchdog` covers the failure modes that never raise: a
stalled channel drainer or a daemon that stopped answering heartbeats
hangs silently instead of throwing.  A background thread evaluates
registered health probes and trips the breaker on the guard's behalf
when one reports a stall; the same thread drives the time-based
half-open transitions, keeping every clock read off the recording hot
path.

All timing goes through a :class:`~repro.testing.clock.Clock`, so tests
walk trip → re-probe → close schedules on a ``SimClock`` without
sleeping.
"""

from __future__ import annotations

import threading
from typing import Callable

from ..testing.clock import SYSTEM_CLOCK, Clock


class CircuitBreaker:
    """Error-budget breaker: ``closed`` → ``open`` → (``half-open``).

    Parameters
    ----------
    budget:
        Faults tolerated before tripping.  The *n*-th fault trips.
    cooldown:
        Seconds the breaker stays ``open`` before a half-open re-probe
        is allowed.  ``None`` (the default) disables re-probing: once
        tripped, instrumentation stays off for the rest of the run —
        the conservative production posture.  Each failed re-probe
        doubles the effective cooldown (capped at 8x).
    probation:
        Seconds the half-open state must stay fault-free before the
        breaker closes again.
    clock:
        Time source for cooldown/probation arithmetic.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        budget: int = 25,
        cooldown: float | None = None,
        probation: float = 1.0,
        clock: Clock | None = None,
    ) -> None:
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        self.budget = budget
        self.cooldown = cooldown
        self.probation = probation
        self._clock = clock if clock is not None else SYSTEM_CLOCK
        self._lock = threading.Lock()
        self.state = self.CLOSED
        self.faults = 0
        self.trips = 0
        self.reprobes = 0
        self.trip_reason: str | None = None
        self._tripped_at: float | None = None
        self._reprobed_at: float | None = None

    # -- fault accounting -----------------------------------------------

    def record_fault(self, category: str = "") -> bool:
        """Spend one unit of budget; returns True when this fault
        tripped the breaker (caller applies the pass-through side
        effects exactly once)."""
        with self._lock:
            if self.state == self.OPEN:
                return False
            if self.state == self.HALF_OPEN:
                # The re-probe failed: straight back to open.
                self._trip(f"re-probe failed ({category or 'fault'})")
                return True
            self.faults += 1
            if self.faults >= self.budget:
                self._trip(
                    f"error budget exhausted "
                    f"({self.faults}/{self.budget} faults, last: {category or 'fault'})"
                )
                return True
            return False

    def trip(self, reason: str) -> bool:
        """Force the breaker open (watchdog-detected stalls); returns
        False if it was already open."""
        with self._lock:
            if self.state == self.OPEN:
                return False
            self._trip(reason)
            return True

    def _trip(self, reason: str) -> None:
        self.state = self.OPEN
        self.trips += 1
        self.trip_reason = reason
        self._tripped_at = self._clock.monotonic()
        self._reprobed_at = None

    # -- time-based transitions ------------------------------------------

    def poll(self) -> str | None:
        """Advance cooldown/probation state; called off the hot path
        (watchdog tick).  Returns ``"half-open"`` when a re-probe just
        began, ``"closed"`` when probation completed, else ``None``."""
        with self._lock:
            now = self._clock.monotonic()
            if (
                self.state == self.OPEN
                and self.cooldown is not None
                and self._tripped_at is not None
            ):
                backoff = self.cooldown * min(2 ** max(self.trips - 1, 0), 8)
                if now - self._tripped_at >= backoff:
                    self.state = self.HALF_OPEN
                    self.reprobes += 1
                    self._reprobed_at = now
                    return "half-open"
            elif self.state == self.HALF_OPEN and self._reprobed_at is not None:
                if now - self._reprobed_at >= self.probation:
                    self.state = self.CLOSED
                    self.faults = 0
                    self.trip_reason = None
                    self._tripped_at = None
                    self._reprobed_at = None
                    return "closed"
        return None

    @property
    def tripped(self) -> bool:
        return self.state == self.OPEN


# -- health probes ----------------------------------------------------------


def channel_stall_probe(channel) -> Callable[[], bool]:
    """Healthy while the channel's drainer thread is alive and has not
    recorded an internal error.  Duck-typed: works for any channel with
    a ``_drainer`` thread (Channel, RemoteChannel); a channel whose
    drainer has not started yet, or without one, is healthy."""

    def probe() -> bool:
        if getattr(channel, "_closed", False):
            return True  # a drained channel is done, not stalled
        if getattr(channel, "drainer_error", None) is not None:
            return False
        drainer = getattr(channel, "_drainer", None)
        if drainer is not None and not drainer.is_alive():
            return False
        return True

    return probe


def heartbeat_probe(
    channel, max_down: float = 10.0, clock: Clock | None = None
) -> Callable[[], bool]:
    """Healthy while the remote link has been down for less than
    ``max_down`` seconds.  Reads :class:`~repro.service.client.
    RemoteChannel`'s failure bookkeeping; a channel that gave up (its
    own give-up deadline fired) is reported stalled immediately."""
    clock = clock if clock is not None else SYSTEM_CLOCK

    def probe() -> bool:
        if getattr(channel, "gave_up", False):
            return False
        down_since = getattr(channel, "_down_since", None)
        if down_since is not None and clock.monotonic() - down_since > max_down:
            return False
        return True

    return probe


class Watchdog:
    """Background health monitor driving stall detection and re-probes.

    One daemon thread wakes every ``interval`` seconds, advances the
    guard's breaker through its time-based transitions
    (:meth:`CircuitBreaker.poll`), and evaluates every registered
    probe.  A probe returning ``False`` trips the guard (stalls do not
    raise, so the firewall cannot see them); a probe *raising* is
    itself a profiler-internal fault and is contained and counted like
    any other.  The whole tick runs under the guard's re-entrancy flag,
    so a probe touching tracked structures records nothing.
    """

    def __init__(self, guard, interval: float = 0.25) -> None:
        self.guard = guard
        self.interval = interval
        self._probes: list[tuple[str, Callable[[], bool]]] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def add_probe(self, name: str, probe: Callable[[], bool]) -> None:
        with self._lock:
            self._probes.append((name, probe))

    def start(self) -> "Watchdog":
        if self._thread is None or not self._thread.is_alive():
            self._stop = threading.Event()
            self._thread = threading.Thread(
                target=self._run, name="dsspy-guard-watchdog", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)

    def tick(self) -> None:
        """One evaluation cycle (exposed for deterministic tests)."""
        guard = self.guard
        tls = guard._tls
        outer = tls.inside
        tls.inside = True
        try:
            guard.poll()
            with self._lock:
                probes = list(self._probes)
            for name, probe in probes:
                try:
                    healthy = probe()
                except Exception as exc:
                    guard._note_fault("watchdog", exc)
                    continue
                if healthy is False and not guard.tripped:
                    guard.trip(f"watchdog: {name} stalled")
        finally:
            tls.inside = outer

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.tick()

    def __enter__(self) -> "Watchdog":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
