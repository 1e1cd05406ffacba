"""The benchmark's two workloads.

Every workload is a closed loop: a program starts only after the
previous one's report is in hand.  A run repeats *rounds* of the seven
Table V programs until its time is spent; every figure is a median over
rounds (or over the programs of all rounds), so one slow round does not
move it.

``table5-inproc``
    The seven Table V programs at the given scale, each through the
    default ``collecting()`` -> ``UseCaseEngine(rules=PARALLEL_RULES)``
    -> ``report_to_dict`` path, as ``dsspy analyze`` runs it.  Recording,
    ``events`` assembly, ``patterns`` and ``usecases`` do the work.
``table5-daemon``
    The same programs, each recorded through a ``RemoteChannel`` into a
    ``dsspy serve --state-dir`` subprocess; the report comes from the
    FIN ACK.  The ``service`` transport, journal and streaming fold
    replace the in-process analysis; local assembly still runs.

In a traced run, rounds alternate between tracing off and on.  Spans
come from the traced rounds; the untraced rounds give the overhead
baseline and the reference the traced analysis must agree with.
"""

from __future__ import annotations

import gc
import os
import pickle
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from daemonproc import Daemon
from tracing import ROOT_SPANS, NullTracer, Tracer
from repro.events import collecting
from repro.service import RemoteChannel
from repro.testing.oracle import summarize_report
from repro.usecases import (
    UseCase,
    UseCaseEngine,
    UseCaseReport,
    evaluate_rules,
    features_of,
    report_to_dict,
)
from repro.usecases.rules import PARALLEL_RULES
from repro.workloads import EVALUATION_WORKLOADS

#: Times each setup is repeated; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: ``setup_s`` is scaled to a fixed machine speed.  The speed is the
#: time of one plain pass over the seven programs at scale 1.0, run
#: just before each setup; the profiler's code does not touch it.  This
#: is about that pass's time on a 2-vCPU Xeon (Sapphire Rapids) KVM
#: guest in its fast phase.  Wall time there drifts by up to 2x within
#: minutes.
REFERENCE_PLAIN_S = 0.5
#: Plain runs of each program per round repeat until they add up to
#: this many seconds (at least one run); its plain time is their median.
PLAIN_BUDGET_S = 0.05
#: Warm-up size of the profiled Table V programs during setup.
WARMUP_SCALE = 0.05

now = time.perf_counter


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def p90(values) -> float:
    values = list(values)
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class Result:
    """What one run measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    e2e: dict[str, tuple[float, str]] = field(default_factory=dict)
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)
    stamp: dict[str, Any] = field(default_factory=dict)
    layer_rows: dict[str, dict[str, float]] = field(default_factory=dict)
    tracer: Tracer | None = None
    daemons: list[Daemon] = field(default_factory=list)
    clean: bool = True

    def spawn(self, root: Path, run_dir: Path, name: str) -> Daemon:
        """Start a daemon this run owns (stopped when the run ends)."""
        daemon = Daemon(root, run_dir, name)
        self.daemons.append(daemon)
        return daemon

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)


def run_rounds(seconds: float, min_rounds: int, body: Callable[[int], float]) -> int:
    """Run ``body(round)`` while the next round is expected to fit in
    ``seconds``; at least ``min_rounds`` times.  ``body`` returns the
    seconds it spent on reference checks, which do not count against
    the measuring time.  Returns the number of rounds."""
    measured = 0.0
    rounds = 0
    last = 0.0
    while rounds < min_rounds or measured + last <= seconds:
        began = now()
        checking = body(rounds)
        last = now() - began - checking
        measured += last
        rounds += 1
    return rounds


def tracer_for(trace: bool, round_no: int):
    """Traced runs trace the odd rounds only."""
    return Tracer() if trace and round_no % 2 == 1 else NullTracer()


# -- reference checks ----------------------------------------------------------


def paper_counts_match(report: dict[str, Any], paper) -> bool:
    """table5-inproc: instance and use-case counts equal the paper's."""
    return (
        report["instances_analyzed"] == paper.instances
        and len(report["use_cases"]) == paper.use_cases
    )


def reports_match(report: dict[str, Any], reference: dict[str, Any]) -> bool:
    """Same flagged set with the same evidence (order-free)."""
    return summarize_report(report) == summarize_report(reference)


def in_child(fn: Callable[[], Any]) -> Any:
    """``fn()`` computed in a forked child, so the memory it needs does
    not count in this process's ``peak_rss_mb``.  Call it only while
    this process has no other thread: a channel's threads end with its
    drain."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as out:
                pickle.dump(fn(), out)
            status = 0
        except Exception:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as src:
        data = src.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"reference child exited with status {status}")
    return pickle.loads(data)


def flag_refused_sessions(result: Result, sessions: list[dict], passed: dict[str, str]) -> None:
    """table5-daemon: a session the daemon refused a window of, or whose
    journal append failed, is a failed program, even when the client's
    retransmit gave the right report.  ``passed`` maps the session ids
    of programs that passed their report check to their names."""
    for s in sessions:
        label = passed.get(s["session"])
        refused = s.get("refused_windows", 0)
        append_failures = s.get("append_failures", 0)
        if label is not None and (refused or append_failures):
            result.fail(
                f"{label}: daemon refused {refused} windows, "
                f"{append_failures} journal appends failed"
            )


# -- Table V programs ----------------------------------------------------------


def analyze_traced(collector, tracer: Tracer, unit: str) -> dict[str, Any]:
    """``analyze_collector`` + ``report_to_dict``, with the detector,
    features and rules called one by one so each gets its own span.
    Its output is checked against ``analyze_collector``'s."""
    engine = UseCaseEngine(rules=PARALLEL_RULES)
    profiles = collector.profiles()
    use_cases: list[UseCase] = []
    for profile in profiles:
        with tracer.span("patterns.detect", unit):
            analysis = engine.detector.detect(profile)
        with tracer.span("usecases.rules", unit):
            fired = evaluate_rules(features_of(analysis), engine.thresholds, engine.rules)
            use_cases.extend(
                UseCase(
                    kind=rule.kind,
                    profile=profile,
                    analysis=analysis,
                    recommendation=rule.recommend(evidence),
                    evidence=evidence,
                )
                for rule, evidence in fired
            )
    report = UseCaseReport(use_cases=tuple(use_cases), instances_analyzed=len(profiles))
    with tracer.span("usecases.report", unit):
        return report_to_dict(report)


def profile_inproc(program, scale: float, tracer, unit: str) -> dict[str, Any]:
    """One program from its tracked run to its report dict, in-process."""
    gc.collect()
    t0 = now()
    with tracer.span("program", unit):
        with collecting() as collector:
            with tracer.span("structures.tracked_run", unit):
                program.run_tracked(scale=scale)
            t1 = now()
            with tracer.span("events.finish", unit):
                collector.finish()
        if tracer.enabled:
            report = analyze_traced(collector, tracer, unit)
        else:
            report = report_to_dict(
                UseCaseEngine(rules=PARALLEL_RULES).analyze_collector(collector)
            )
    t2 = now()
    return {
        "profile_s": t2 - t0,
        "report_ms": (t2 - t1) * 1e3,
        "recorded": collector.event_count,
        "report": report,
        "collector": collector,
    }


def profile_daemon(program, scale: float, tracer, unit: str, address: str) -> dict[str, Any]:
    """One program recorded through a RemoteChannel; the report is the
    daemon's, from the FIN ACK."""
    gc.collect()
    t0 = now()
    with tracer.span("program", unit):
        with tracer.span("service.client.connect", unit):
            channel = RemoteChannel(address)
        channel.drain = tracer.wrap(channel.drain, "service.client.drain", unit)
        # The connection's own verbs: EVENTS frames leave from the
        # channel's drainer thread, FIN from inside drain.
        client = channel._client
        client.send_events = tracer.wrap(client.send_events, "service.send", unit)
        client.fin = tracer.wrap(client.fin, "service.fin", unit)
        with collecting(channel=channel) as collector:
            with tracer.span("structures.tracked_run", unit):
                program.run_tracked(scale=scale)
            t1 = now()
            with tracer.span("events.finish", unit):
                collector.finish()
        ack = channel.final_ack
    t2 = now()
    return {
        "profile_s": t2 - t0,
        "report_ms": (t2 - t1) * 1e3,
        "recorded": collector.event_count,
        "received": None if ack is None else ack.get("received"),
        "report": None if ack is None else ack.get("report"),
        "reconnects": channel.reconnects,
        "collector": collector,
    }


def _span_ms(tracer: Tracer, unit: str) -> dict[str, float]:
    """Whole-span (not self) milliseconds per layer span of one unit."""
    out: dict[str, float] = {}
    for r in tracer.spans:
        if r["unit"] == unit and r["name"] not in ROOT_SPANS:
            out[r["name"]] = out.get(r["name"], 0.0) + (r["end_ns"] - r["start_ns"]) / 1e6
    return out


def plain_runs(program, scale: float) -> list[float]:
    """Plain runs of one program until they add up to the budget."""
    gc.collect()
    times: list[float] = []
    while sum(times) < PLAIN_BUDGET_S or not times:
        t = now()
        program.run_plain(scale=scale)
        times.append(now() - t)
    return times


def sum_of_medians(rows: list[dict], names: list[str], key: str) -> float:
    """Per-program median of ``key`` over rounds, summed over programs."""
    return sum(median(r[key] for r in rows if r["program"] == n and key in r) for n in names)


def complete_rounds(rows: list[dict], names: list[str]) -> list[list[dict]]:
    """Rows grouped by round, keeping rounds in which every program
    succeeded."""
    by_round: dict[int, list[dict]] = {}
    for r in rows:
        by_round.setdefault(r["round"], []).append(r)
    return [group for group in by_round.values() if len(group) == len(names)]


def table5(
    result: Result,
    mode: str,
    seconds: float,
    scale: float,
    trace: bool,
    root: Path,
    run_dir: Path,
    import_s: float,
    programs=EVALUATION_WORKLOADS,
) -> None:
    """``table5-inproc`` (mode "inproc") or ``table5-daemon`` ("daemon").
    The caller stops ``result.daemons`` if this raises."""
    # -- setup: daemon spawn and a small warm-up pass, several times -----
    setup_times = []
    setup_plain = []
    daemon: Daemon | None = None
    for rep in range(SETUP_REPEATS):
        # Without a full-size plain run first, the first round's plain
        # runs are slower than the rest.  This is the benchmark's own
        # baseline, not set-up; it gives the machine speed during set-up.
        t0 = now()
        for program in programs:
            program.run_plain(scale=scale)
        setup_plain.append(now() - t0)
        t0 = now()
        if mode == "daemon":
            if daemon is not None:
                result.clean &= daemon.stop()
            daemon = result.spawn(root, run_dir, f"daemon{rep}")
        for program in programs:
            if mode == "daemon":
                profile_daemon(program, min(scale, WARMUP_SCALE), NullTracer(), "", daemon.address)
            else:
                profile_inproc(program, min(scale, WARMUP_SCALE), NullTracer(), "")
        setup_times.append(now() - t0)

    # -- timed phase ------------------------------------------------------
    names = [p.name for p in programs]
    rows: list[dict] = []
    daemon_refs: dict[str, dict] = {}
    inproc_refs: dict[str, dict] = {}
    round_cpu: list[float] = []
    round_rss: list[float] = []
    session_ids: set[str] = set()
    passed_sessions: dict[str, str] = {}
    tracers: list[Tracer] = []

    def one_round(round_no: int) -> float:
        tracer = tracer_for(trace, round_no)
        cpu0 = daemon.cpu_s() if daemon is not None else 0.0
        checking = 0.0
        for program in programs:
            name = program.name
            unit = f"{name}#{round_no}"
            # Plain runs bracket the profiled run, so both see the same
            # machine speed.
            plain = plain_runs(program, scale)
            result.attempted += 1
            try:
                if mode == "daemon":
                    cpu_before = daemon.cpu_s()
                    out = profile_daemon(program, scale, tracer, unit, daemon.address)
                    out["daemon_cpu_ms"] = (daemon.cpu_s() - cpu_before) * 1e3
                else:
                    out = profile_inproc(program, scale, tracer, unit)
            except Exception as exc:  # a run that errors is a failed program
                result.fail(f"{name} round {round_no}: {type(exc).__name__}: {exc}")
                continue
            plain += plain_runs(program, scale)
            # Reference checks (outside the timed parts of the round).
            check_start = now()
            collector = out.pop("collector")
            report = out["report"]
            if mode == "daemon":
                if name not in daemon_refs:
                    daemon_refs[name] = in_child(
                        lambda: report_to_dict(UseCaseEngine().analyze_collector(collector))
                    )
                ok = (
                    report is not None
                    and out["received"] == out["recorded"]
                    and reports_match(report, daemon_refs[name])
                )
                session_ids.add(collector.channel.session_id)
                if ok:
                    passed_sessions[collector.channel.session_id] = f"{name} round {round_no}"
            else:
                ok = paper_counts_match(report, program.paper)
                if not tracer.enabled:
                    inproc_refs.setdefault(name, report)
                elif name in inproc_refs and not reports_match(report, inproc_refs[name]):
                    ok = False
                    result.problems.append(
                        f"{name}: traced analysis disagrees with analyze_collector"
                    )
            del collector
            checking += now() - check_start
            if not ok:
                result.fail(f"{name} round {round_no}: report differs from reference")
                continue
            out.update(
                program=name,
                round=round_no,
                traced=tracer.enabled,
                plain_s=median(plain),
                plain_runs=len(plain),
                instances=report["instances_analyzed"],
                use_cases=len(report["use_cases"]),
            )
            if tracer.enabled:
                out.update(_span_ms(tracer, unit))
            rows.append(out)
        if daemon is not None:
            round_cpu.append(daemon.cpu_s() - cpu0)
            round_rss.append(daemon.peak_rss_mb())
        if tracer.enabled:
            tracers.append(tracer)
        return checking

    rounds = run_rounds(seconds, 2 if trace else 1, one_round)

    # -- daemon readings, then hygiene -------------------------------------
    stats_sessions: list[dict] = []
    daemon_rss = peak_rss_mb()  # in-process: the analysis runs here
    state_bytes = 0
    if daemon is not None:
        stats_sessions = [s for s in daemon_stats(daemon) if s["session"] in session_ids]
        flag_refused_sessions(result, stats_sessions, passed_sessions)
        # Finished sessions linger in the daemon; read its memory after
        # a fixed amount of work.
        daemon_rss = round_rss[0]
        state_bytes = daemon.state_bytes()
        result.clean &= daemon.stop()
    if not result.clean:
        result.problems.append("daemon did not shut down cleanly")
        result.failed = result.attempted

    # -- metrics ------------------------------------------------------------
    result.tracer = _merge(tracers)
    untraced = [r for r in rows if not r["traced"]]
    traced = [r for r in rows if r["traced"]]
    plain_s = sum_of_medians(rows, names, "plain_s")
    profile_s = sum_of_medians(untraced, names, "profile_s")
    whole_rounds = complete_rounds(untraced, names)
    slowdown = median(
        sum(r["profile_s"] for r in g) / sum(r["plain_s"] for r in g) for g in whole_rounds
    )
    recorded = median(sum(r["recorded"] for r in g) for g in whole_rounds)
    report_ms = [r["report_ms"] for r in untraced]
    setup_wall_s = import_s + median(setup_times)
    result.e2e = {
        "setup_s": (setup_wall_s * REFERENCE_PLAIN_S / median(setup_plain), "s"),
        "slowdown": (slowdown, "x"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "daemon_rss_mb": (daemon_rss, "MB"),
    }
    layers = empty_layers()
    layers.update(
        {
            "setup_wall_s": setup_wall_s,
            "profile_s": profile_s,
            "events_per_s": recorded / profile_s if profile_s else 0.0,
            "report_p50_ms": median(report_ms),
            "report_p90_ms": p90(report_ms),
        }
    )
    if trace:
        def ms(key: str) -> float:
            return sum_of_medians(traced, names, key) / 1e3

        tracked = ms("structures.tracked_run")
        finish = ms("events.finish")
        drain = ms("service.client.drain")
        traced_profile = sum_of_medians(traced, names, "profile_s")
        fin_ms = [r["service.fin"] for r in traced if "service.fin" in r]
        layers.update(
            {
                "workloads.plain_s": plain_s,
                "structures.tracked_run_s": tracked,
                "structures.record_overhead_s": tracked - plain_s,
                "events.recorded": recorded,
                "events.finish_s": finish,
                "events.finish_ns_per_event": finish * 1e9 / recorded if recorded else 0.0,
                "events.local_assembly_s": finish - drain,
                "patterns.detect_s": ms("patterns.detect"),
                "usecases.rules_s": ms("usecases.rules"),
                "usecases.report_s": ms("usecases.report"),
                "usecases.instances": median(sum(r["instances"] for r in g) for g in whole_rounds),
                "usecases.use_cases": median(sum(r["use_cases"] for r in g) for g in whole_rounds),
                "service.client.drain_s": drain,
                "service.client.reconnects": sum(r.get("reconnects", 0) for r in rows),
                "service.hello_ms": median(
                    r["service.client.connect"] for r in traced if "service.client.connect" in r
                ),
                "service.send_s": ms("service.send"),
                "service.fin_p50_ms": median(fin_ms),
                "service.fin_p90_ms": p90(fin_ms),
                "service.daemon.cpu_s": median(round_cpu),
                "service.durability.state_bytes": state_bytes,
                "trace.coverage": result.tracer.coverage(),
                "trace.overhead_frac": traced_profile / profile_s - 1 if profile_s else 0.0,
            }
        )
        layers.update(daemon_counters(stats_sessions, rounds))
        result.layer_rows = table5_rows(result.tracer, names, rows)
    layers["failed_frac"] = result.failed / result.attempted if result.attempted else 1.0
    result.layers = {name: (value, LAYER_UNITS[name]) for name, value in layers.items()}
    result.stamp = {
        "scale": scale,
        "rounds": rounds,
        "round_slowdowns": [
            round(sum(r["profile_s"] for r in g) / sum(r["plain_s"] for r in g), 3)
            for g in whole_rounds
        ],
        "plain_runs": {n: sum(r["plain_runs"] for r in rows if r["program"] == n) for n in names},
        "report_ms_samples": len(report_ms),
        "setup_repeats": SETUP_REPEATS,
        "import_s": round(import_s, 4),
        "setup_times_s": [round(t, 4) for t in setup_times],
        "setup_plain_s": [round(t, 4) for t in setup_plain],
    }


def _merge(tracers: list[Tracer]) -> Tracer | None:
    if not tracers:
        return None
    merged = Tracer()
    for t in tracers:
        offset = len(merged.spans)
        for r in t.spans:
            merged.spans.append(
                dict(r, parent=r["parent"] + offset if r["parent"] >= 0 else -1)
            )
    return merged


def table5_rows(tracer: Tracer, names, rows) -> dict[str, dict[str, float]]:
    """Per-program self-time milliseconds per layer (median over traced
    rounds), for the committed layer table."""
    per_unit = tracer.layer_ms()
    table: dict[str, dict[str, float]] = {}
    for name in names:
        units = [u for u in per_unit if u.split("#")[0] == name]
        layers = sorted({k for u in units for k in per_unit[u]})
        row = {k: median(per_unit[u].get(k, 0.0) for u in units) for k in layers}
        row["plain (not in total)"] = median(
            r["plain_s"] * 1e3 for r in rows if r["program"] == name
        )
        cpu = [r["daemon_cpu_ms"] for r in rows if r["program"] == name and r["traced"]
               and "daemon_cpu_ms" in r]
        if cpu:
            row["daemon cpu (not in total)"] = median(cpu)
        table[name] = row
    return table


# -- the daemon's view ---------------------------------------------------------


def daemon_stats(daemon: Daemon) -> list[dict]:
    from repro.service.client import fetch_stats

    return fetch_stats(daemon.address, timeout=60)["sessions"]


DAEMON_COUNTERS = (
    "folded",
    "duplicates",
    "deferred",
    "refused_windows",
    "checkpoints",
    "append_failures",
    "spilled",
)


def daemon_counters(sessions: list[dict], rounds: int) -> dict[str, float]:
    """STATS counters summed over this run's sessions, per round."""
    return {
        f"service.daemon.{key}": sum(s.get(key, 0) for s in sessions) / max(rounds, 1)
        for key in DAEMON_COUNTERS
    }


# -- per-layer metric names ----------------------------------------------------

#: Every per-layer metric with its unit.  A layer a workload does not
#: exercise reports 0 there.
LAYER_UNITS = {
    "setup_wall_s": "s",
    "profile_s": "s",
    "events_per_s": "1/s",
    "report_p50_ms": "ms",
    "report_p90_ms": "ms",
    "workloads.plain_s": "s",
    "structures.tracked_run_s": "s",
    "structures.record_overhead_s": "s",
    "events.recorded": "count",
    "events.finish_s": "s",
    "events.finish_ns_per_event": "ns",
    "events.local_assembly_s": "s",
    "patterns.detect_s": "s",
    "usecases.rules_s": "s",
    "usecases.report_s": "s",
    "usecases.instances": "count",
    "usecases.use_cases": "count",
    "service.client.drain_s": "s",
    "service.client.reconnects": "count",
    "service.hello_ms": "ms",
    "service.send_s": "s",
    "service.fin_p50_ms": "ms",
    "service.fin_p90_ms": "ms",
    "service.daemon.cpu_s": "s",
    **{f"service.daemon.{key}": "count" for key in DAEMON_COUNTERS},
    "service.durability.state_bytes": "bytes",
    "trace.coverage": "frac",
    "trace.overhead_frac": "frac",
    "failed_frac": "frac",
}


def empty_layers() -> dict[str, float]:
    return {name: 0.0 for name in LAYER_UNITS}
