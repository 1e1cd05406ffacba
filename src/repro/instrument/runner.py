"""Compile and execute instrumented program copies.

The second DSspy step: "DSspy compiles the instrumented program,
executes it, and starts the dynamic analysis module" (§IV).  The paper
instruments a *full source code copy* that is cleaned up after data
collection, so the slowdown occurs only once during analysis; here the
copy is an in-memory module namespace.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping

from ..events.channel import Channel
from ..events.collector import EventCollector, collecting
from ..events.profile import RuntimeProfile
from ..events.sampling import SamplingPolicy
from .rewriter import RewriteConfig, RewriteResult, rewrite_source

if TYPE_CHECKING:
    from ..runtime.guard import RuntimeGuard


@dataclass(frozen=True)
class InstrumentedRun:
    """Outcome of executing an instrumented program copy."""

    collector: EventCollector
    result: Any
    duration: float
    rewrite: RewriteResult

    @property
    def profiles(self) -> list[RuntimeProfile]:
        return self.collector.profiles()

    @property
    def event_count(self) -> int:
        return self.collector.event_count


def _execute(
    source: str,
    entry: str | None,
    args: tuple,
    extra_globals: Mapping[str, Any] | None,
) -> tuple[Any, float]:
    namespace: dict[str, Any] = {"__name__": "__dsspy_instrumented__"}
    if extra_globals:
        namespace.update(extra_globals)
    code = compile(source, "<dsspy-instrumented>", "exec")
    start = time.perf_counter()
    exec(code, namespace)
    result = None
    if entry is not None:
        fn: Callable = namespace[entry]
        result = fn(*args)
    duration = time.perf_counter() - start
    return result, duration


def run_instrumented(
    source: str,
    entry: str | None = None,
    args: tuple = (),
    config: RewriteConfig | None = None,
    channel: Channel | None = None,
    sampling: SamplingPolicy | None = None,
    extra_globals: Mapping[str, Any] | None = None,
    guard: "RuntimeGuard | None" = None,
) -> InstrumentedRun:
    """Instrument ``source``, execute it, and collect all profiles.

    Parameters
    ----------
    source:
        Program text to instrument (a module).
    entry:
        Optional function name called (with ``args``) after module
        execution; its return value lands in ``InstrumentedRun.result``.
    config:
        Rewrite configuration (lists+arrays by default).
    channel:
        Event transport for the capture (a fresh in-memory
        :class:`~repro.events.channel.Channel` by default; pass one with
        a spill file, or a remote channel).
    sampling:
        Optional sampling policy filtering events before the record
        kernel.
    guard:
        Optional :class:`~repro.runtime.guard.RuntimeGuard` armed for
        the duration of the run: profiler faults are contained instead
        of propagating into the instrumented program, and the terminal
        drain is bounded by the guard's exit deadline.  ``None`` keeps
        the fail-loud default.
    """
    rewrite = rewrite_source(source, config=config)
    if guard is not None:
        with guard, collecting(channel=channel, sampling=sampling) as collector:
            result, duration = _execute(rewrite.source, entry, args, extra_globals)
    else:
        with collecting(channel=channel, sampling=sampling) as collector:
            result, duration = _execute(rewrite.source, entry, args, extra_globals)
    return InstrumentedRun(
        collector=collector, result=result, duration=duration, rewrite=rewrite
    )


def run_instrumented_file(
    path: str | Path,
    entry: str | None = None,
    args: tuple = (),
    config: RewriteConfig | None = None,
    channel: Channel | None = None,
    sampling: SamplingPolicy | None = None,
    guard: "RuntimeGuard | None" = None,
) -> InstrumentedRun:
    """Instrument and execute a program from disk."""
    return run_instrumented(
        Path(path).read_text(encoding="utf-8"),
        entry=entry,
        args=args,
        config=config,
        channel=channel,
        sampling=sampling,
        guard=guard,
    )


@dataclass(frozen=True, slots=True)
class SlowdownResult:
    """Instrumentation overhead measurement (Table IV's middle columns)."""

    plain_seconds: float
    instrumented_seconds: float

    @property
    def factor(self) -> float:
        if self.plain_seconds <= 0:
            return float("inf")
        return self.instrumented_seconds / self.plain_seconds


def measure_slowdown(
    source: str,
    entry: str | None = None,
    args: tuple = (),
    repeats: int = 3,
    config: RewriteConfig | None = None,
) -> SlowdownResult:
    """Average wall-clock of the original vs the instrumented copy.

    Mirrors the paper's methodology ("a tool that runs all instrumented
    versions ten times and computes their average execution times"),
    with a configurable repeat count.
    """
    plain_total = 0.0
    for _ in range(repeats):
        _, duration = _execute(source, entry, args, None)
        plain_total += duration

    instrumented_total = 0.0
    rewrite = rewrite_source(source, config=config)
    for _ in range(repeats):
        with collecting():
            _, duration = _execute(rewrite.source, entry, args, None)
        instrumented_total += duration

    return SlowdownResult(
        plain_seconds=plain_total / repeats,
        instrumented_seconds=instrumented_total / repeats,
    )
