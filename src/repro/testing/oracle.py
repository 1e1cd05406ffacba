"""Differential correctness oracle for the profiling stack.

One generated trace (:mod:`~repro.testing.traces`) is pushed through
three independent implementations of "analyze this event stream":

1. **Batch** — per-instance :class:`~repro.events.profile.RuntimeProfile`
   objects through the paper's :class:`~repro.usecases.UseCaseEngine`.
   This is the reference semantics.
2. **Streaming** — the same events window-fed straight into a
   :class:`~repro.service.streaming.StreamingUseCaseEngine`, no network.
3. **Daemon round trip** — a protocol client ships the events through
   a :class:`~repro.testing.faults.FaultProxy` into a live
   :class:`~repro.service.ProfilingDaemon`, surviving whatever faults
   the seeded plan injects, and the daemon's FIN report is taken.

All three must produce the identical flagged use-case set — same
``(instance, kind)`` pairs — *and* identical evidence dicts.  Any
divergence is a real bug in exactly the machinery PR 2's convergence
claim rests on: the fold, the wire protocol, resume/dedup, or the
ingest pipeline.

The daemon driver here is deliberately synchronous (no background
drainer or heartbeat threads): it speaks the same reconnect-and-
retransmit protocol as :class:`~repro.service.client.RemoteChannel`
but with every step on the test thread, so a failing seed replays
identically.  The full threaded ``RemoteChannel`` is covered by its
own integration tests.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any

from ..events.profile import RuntimeProfile, route_records
from ..events.spill import pack_records
from ..service.client import ServiceClient
from ..service.daemon import ProfilingDaemon
from ..service.protocol import ProtocolError
from ..service.streaming import StreamingUseCaseEngine
from ..usecases.engine import UseCaseEngine
from ..usecases.json_export import report_to_dict
from .faults import FAULT_KINDS, FaultPlan, FaultProxy
from .shrink import shrink_trace
from .traces import Trace, generate_trace

#: Mixed into the trace seed to derive the fault-plan seed, so trace
#: content and fault schedule vary independently but reproducibly.
FAULT_SEED_SALT = 0x5EED_FA17


# -- the three paths ---------------------------------------------------------


def run_batch_path(trace: Trace) -> dict[str, Any]:
    """Reference semantics: per-instance profiles, batch engine."""
    profiles = {
        inst.instance_id: RuntimeProfile(inst.instance_id, kind=inst.kind, label=inst.label)
        for inst in trace.instances
    }
    route_records(pack_records(trace.events), profiles)
    return report_to_dict(UseCaseEngine().analyze(list(profiles.values())))


def run_streaming_path(trace: Trace, window: int = 64) -> dict[str, Any]:
    """Direct feed into the streaming engine, windowed like the wire."""
    engine = StreamingUseCaseEngine()
    for inst in trace.instances:
        engine.register_instance(inst.instance_id, inst.kind, label=inst.label)
    for offset in range(0, len(trace.events), window):
        engine.feed_window(trace.events[offset : offset + window])
    return report_to_dict(engine.report())


def run_daemon_path(
    trace: Trace,
    address: str,
    *,
    window: int = 64,
    max_attempts: int = 200,
    retry_delay: float = 0.0,
    session_id: str | None = None,
) -> dict[str, Any]:
    """Full client→daemon round trip with reconnect-and-retransmit.

    ``address`` may point at the daemon directly or at a
    :class:`~repro.testing.faults.FaultProxy` in front of it.  The
    driver mirrors :class:`~repro.service.client.RemoteChannel`'s
    recovery protocol synchronously: on any socket or protocol error
    it reconnects with the same session id, rewinds its cursor to the
    server's ``received`` count, and resends the tail, until the FIN
    ACK confirms every event arrived.  ``retry_delay`` spaces the
    reconnect attempts out — needed when the daemon is a subprocess
    being killed and restarted, which takes real time; the in-process
    oracle restarts synchronously and keeps the default of zero.
    ``session_id`` adopts an existing session (e.g. one begun before a
    daemon crash) instead of opening a fresh one; the cursor rewind
    makes the retransmitted prefix a duplicate the daemon skips.
    """
    total = len(trace.events)
    registrations = [inst.registration() for inst in trace.instances]
    events = trace.events
    client: ServiceClient | None = None
    sent = 0
    for _attempt in range(max_attempts):
        try:
            if client is None:
                client = ServiceClient(address, session_id=session_id)
                session_id = client.session_id
                # The server cursor is authoritative (same rule as
                # RemoteChannel._connect): a resumed session rewinds,
                # a fresh one restarts from zero.
                sent = min(sent, client.server_received) if client.resumed else 0
                client.register_instances(registrations)
            while sent < total:
                n = min(window, total - sent)
                client.send_events(sent, events[sent : sent + n])
                sent += n
            ack = client.fin()
            client.close()
            if ack.get("received") != total:
                raise AssertionError(
                    f"daemon acknowledged {ack.get('received')} of {total} events"
                )
            return ack["report"]
        except (OSError, ProtocolError):
            if client is not None:
                client.close()
            client = None
            if retry_delay:
                time.sleep(retry_delay)
    raise RuntimeError(
        f"daemon path did not converge after {max_attempts} attempts "
        f"(session {session_id}, {sent}/{total} shipped)"
    )


# -- comparison --------------------------------------------------------------


def summarize_report(report: dict[str, Any]) -> dict[str, Any]:
    """Canonical comparable form: flagged set + evidence, order-free."""
    return {
        "instances_analyzed": report["instances_analyzed"],
        "flagged": {
            (uc["instance_id"], uc["abbreviation"]): dict(uc["evidence"])
            for uc in report["use_cases"]
        },
    }


def diff_summaries(name_a: str, a: dict, name_b: str, b: dict) -> list[str]:
    """Human-readable mismatch lines; empty when identical."""
    out: list[str] = []
    if a["instances_analyzed"] != b["instances_analyzed"]:
        out.append(
            f"instances_analyzed: {name_a}={a['instances_analyzed']} "
            f"{name_b}={b['instances_analyzed']}"
        )
    fa, fb = a["flagged"], b["flagged"]
    for key in sorted(fa.keys() - fb.keys()):
        out.append(f"{key}: flagged by {name_a} only (evidence {fa[key]})")
    for key in sorted(fb.keys() - fa.keys()):
        out.append(f"{key}: flagged by {name_b} only (evidence {fb[key]})")
    for key in sorted(fa.keys() & fb.keys()):
        if fa[key] != fb[key]:
            out.append(
                f"{key}: evidence differs — {name_a}={fa[key]} {name_b}={fb[key]}"
            )
    return out


# -- trial orchestration -----------------------------------------------------


@dataclass
class TrialResult:
    """Outcome of one seeded differential trial."""

    seed: int
    ok: bool
    trace: Trace
    plan: FaultPlan
    mismatches: list[str] = field(default_factory=list)
    events: int = 0
    faults_injected: int = 0

    def describe(self) -> str:
        status = "ok" if self.ok else "MISMATCH"
        lines = [
            f"trial seed={self.seed}: {status} "
            f"({self.events} events, {self.faults_injected} faults: "
            f"{self.plan.describe()})"
        ]
        lines.extend(f"  {m}" for m in self.mismatches)
        return "\n".join(lines)


class DifferentialOracle:
    """Runs seeded batch/streaming/daemon differential trials.

    One daemon is shared across trials (sessions are independent); a
    fresh :class:`FaultProxy` with a seed-derived plan fronts it per
    trial.  Timeouts are set far beyond any trial's runtime so the
    reaper never interferes — reaper behavior has its own SimClock
    tests and is not what this oracle measures.

    The daemon always runs with a (temporary) ``state_dir`` and a
    small checkpoint interval: a ``kill`` fault crashes it in-process
    (SIGKILL semantics — no flush, no report, in-memory state gone)
    and starts a replacement on the same state directory, so every
    kill trial asserts that the *recovered* report still equals the
    batch engine's.

    Use as a context manager, or call :meth:`close` explicitly.
    """

    def __init__(
        self,
        *,
        window: int = 64,
        fault_intensity: float = 0.15,
        fault_kinds: tuple[str, ...] = FAULT_KINDS,
        max_faults: int = 8,
        checkpoint_every: int = 512,
        trace_kwargs: dict[str, Any] | None = None,
    ) -> None:
        self.window = window
        self.fault_intensity = fault_intensity
        self.fault_kinds = fault_kinds
        self.max_faults = max_faults
        self.checkpoint_every = checkpoint_every
        self.trace_kwargs = dict(trace_kwargs or {})
        self._state_dir = tempfile.mkdtemp(prefix="dsspy-oracle-state-")
        self.daemon_kills = 0
        self._daemon = self._make_daemon()

    def _make_daemon(self) -> ProfilingDaemon:
        return ProfilingDaemon(
            port=0,
            heartbeat_timeout=3600.0,
            session_linger=3600.0,
            state_dir=self._state_dir,
            checkpoint_every=self.checkpoint_every,
        )

    def _kill_daemon(self) -> str:
        """The proxy's ``on_kill`` hook: crash the daemon, recover a
        replacement from the shared state directory, return its (new)
        address."""
        self._daemon.crash()
        self._daemon = self._make_daemon()
        self.daemon_kills += 1
        return self._daemon.address

    @property
    def daemon_address(self) -> str:
        return self._daemon.address

    def build_plan(self, seed: int) -> FaultPlan:
        if self.fault_intensity <= 0:
            return FaultPlan.transparent()
        return FaultPlan.from_seed(
            seed ^ FAULT_SEED_SALT,
            intensity=self.fault_intensity,
            max_faults=self.max_faults,
            kinds=self.fault_kinds,
        )

    def run_trial(self, seed: int, trace: Trace | None = None) -> TrialResult:
        """One trial: generate (or reuse) a trace, run all three paths,
        compare.  Deterministic given (seed, trace, oracle config)."""
        if trace is None:
            trace = generate_trace(seed, **self.trace_kwargs)
        plan = self.build_plan(seed)
        batch = summarize_report(run_batch_path(trace))
        streaming = summarize_report(run_streaming_path(trace, window=self.window))
        with FaultProxy(
            self._daemon.address, plan, on_kill=self._kill_daemon
        ) as proxy:
            daemon_report = run_daemon_path(trace, proxy.address, window=self.window)
        daemon = summarize_report(daemon_report)
        self._evict_finished_sessions()
        mismatches = diff_summaries("batch", batch, "streaming", streaming)
        mismatches += diff_summaries("batch", batch, "daemon", daemon)
        return TrialResult(
            seed=seed,
            ok=not mismatches,
            trace=trace,
            plan=plan,
            mismatches=mismatches,
            events=len(trace.events),
            faults_injected=len(plan.injected),
        )

    def run_trials(
        self,
        trials: int,
        base_seed: int = 0,
        *,
        stop_on_failure: bool = True,
        progress=None,
    ) -> list[TrialResult]:
        """Seeds ``base_seed .. base_seed+trials-1``; optionally stops
        at the first failure.  ``progress`` (if given) is called with
        each finished :class:`TrialResult`."""
        results: list[TrialResult] = []
        for i in range(trials):
            result = self.run_trial(base_seed + i)
            results.append(result)
            if progress is not None:
                progress(result)
            if not result.ok and stop_on_failure:
                break
        return results

    def shrink_failure(self, result: TrialResult, *, max_rounds: int = 200) -> Trace:
        """Minimize a failing trial's trace, replaying with the same
        seed (and therefore the same fault plan) each time."""
        if result.ok:
            raise ValueError("cannot shrink a passing trial")
        return shrink_trace(
            result.trace,
            lambda candidate: not self.run_trial(result.seed, trace=candidate).ok,
            max_rounds=max_rounds,
        )

    def _evict_finished_sessions(self) -> None:
        """Drop every session the trial left behind.

        Besides the trial's finished session, a ``reset`` that lands
        while HELLO is still in flight strands a brand-new session the
        driver never resumes (its id never reached the client).  Each
        stranded session owns a live pipeline thread and a journal
        directory, so across hundreds of trials — shrinking replays
        especially — they would exhaust threads and disk.  Trials are
        serialized, so after a trial *everything* in the table is
        garbage."""
        self._daemon.purge_sessions()

    def close(self) -> None:
        self._daemon.close()
        shutil.rmtree(self._state_dir, ignore_errors=True)

    def __enter__(self) -> "DifferentialOracle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


__all__ = [
    "DifferentialOracle",
    "TrialResult",
    "diff_summaries",
    "run_batch_path",
    "run_daemon_path",
    "run_streaming_path",
    "summarize_report",
]
