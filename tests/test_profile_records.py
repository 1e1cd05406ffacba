"""Profiles keep packed records: every accessor against the reference.

:class:`~repro.events.profile.RuntimeProfile` stores its events as the
record kernel packed them and decodes :class:`AccessEvent` objects only
on demand.  The former list-of-events representation and its assembly
loop live on in :mod:`tests.profile_reference`; these tests capture the
same drained bytes into both and diff every accessor, the JSON-lines
bytes included.  They also cover what the archive loader and the
``dsspy whatif`` spill branch now build from packed records.
"""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.cli import main
from repro.events import (
    AccessKind,
    Burst,
    Channel,
    OperationKind,
    RuntimeProfile,
    StructureKind,
    collecting,
    dump_profiles,
    load_profiles,
    pack_records,
    read_profiles,
    read_spill_profiles,
    route_records,
)
from repro.structures import TrackedList
from repro.testing.traces import generate_trace
from repro.workloads import EVALUATION_WORKLOADS, USE_CASE_GENERATORS

from .conftest import make_event
from .profile_reference import ReferenceAssembler, ReferenceProfile, materialize
from .profile_reference import dump_profiles as reference_dump_profiles

VIEWS = ("seqs", "ops", "kinds", "positions", "sizes", "threads")


class TapChannel(Channel):
    """A channel that keeps a copy of every capture it hands over."""

    tapped = b""

    def snapshot(self) -> bytes:
        self.tapped = bytes(super().snapshot())
        return self.tapped

    def drain(self):
        data = super().drain()
        self.tapped = bytes(data)
        return data


def _reference_registry(profiles) -> dict[int, ReferenceProfile]:
    return {
        p.instance_id: ReferenceProfile(p.instance_id, kind=p.kind, site=p.site, label=p.label)
        for p in profiles
    }


def capture(run, sampling=None) -> tuple[list[RuntimeProfile], list[ReferenceProfile]]:
    """Run ``run`` under a fresh collector; its profiles, and the
    reference profiles assembled from the same drained bytes."""
    channel = TapChannel()
    with collecting(channel=channel, sampling=sampling) as collector:
        run()
    profiles = collector.profiles()
    refs = _reference_registry(profiles)
    ReferenceAssembler(refs)._assemble(channel.tapped)
    return profiles, [refs[p.instance_id] for p in profiles]


def assert_profile_matches(profile: RuntimeProfile, ref: ReferenceProfile, deep=True) -> None:
    assert (profile.instance_id, profile.kind, profile.site, profile.label) == (
        ref.instance_id, ref.kind, ref.site, ref.label
    )
    assert len(profile) == len(ref)
    assert list(profile) == list(ref.events)
    assert [e.wall_time for e in profile.events] == [e.wall_time for e in ref.events]
    if len(ref):
        assert profile[0] == ref[0] and profile[-1] == ref[-1]
        assert profile[1:4] == ref[1:4]
    for name in VIEWS:
        ours, theirs = getattr(profile, name), getattr(ref, name)
        assert ours.dtype == theirs.dtype, name
        assert np.array_equal(ours, theirs), name
    for op in OperationKind:
        assert profile.count(op) == ref.count(op)
    for kind in AccessKind:
        assert profile.count_kind(kind) == ref.count_kind(kind)
    assert profile.op_histogram() == ref.op_histogram()
    assert (profile.max_size, profile.final_size, profile.thread_ids) == (
        ref.max_size, ref.final_size, ref.thread_ids
    )
    assert profile.read_fraction == ref.read_fraction
    if not deep:
        return
    ours, theirs = profile.split_by_thread(), ref.split_by_thread()
    assert list(ours) == list(theirs)
    for tid in theirs:
        assert_profile_matches(ours[tid], theirs[tid], deep=False)
    n = len(ref)
    for start, stop in ((0, n), (n // 3, 2 * n // 3), (1, -1), (n // 2, n + 10), (5, 2)):
        assert_profile_matches(profile.slice(start, stop), ref.slice(start, stop), deep=False)


def assert_capture_matches(profiles, refs) -> None:
    assert len(profiles) == len(refs)
    for profile, ref in zip(profiles, refs):
        assert_profile_matches(profile, ref)
    ours, theirs = io.StringIO(), io.StringIO()
    dump_profiles(profiles, ours)
    reference_dump_profiles(refs, theirs)
    assert ours.getvalue() == theirs.getvalue()


class TestAgainstReference:
    @pytest.mark.parametrize("workload", EVALUATION_WORKLOADS, ids=lambda w: w.name)
    def test_table_v_programs(self, workload):
        assert_capture_matches(*capture(lambda: workload.run_tracked(scale=0.25)))

    @pytest.mark.parametrize(
        "generator", USE_CASE_GENERATORS.values(), ids=USE_CASE_GENERATORS.keys()
    )
    def test_use_case_generators(self, generator):
        assert_capture_matches(*capture(generator))

    def test_sampled_capture(self):
        mandelbrot = next(w for w in EVALUATION_WORKLOADS if w.name == "Mandelbrot")
        profiles, refs = capture(lambda: mandelbrot.run_tracked(scale=0.25), Burst(500, 10))
        assert_capture_matches(profiles, refs)

    @pytest.mark.parametrize("seed", range(8))
    def test_generated_traces(self, seed):
        """Multithreaded, interleaved streams with unregistered ids
        mixed in: routing skips the unknown, keeps the rest in order
        (a wall time from an old spill file included)."""
        trace = generate_trace(seed)
        read = (int(OperationKind.READ), int(AccessKind.READ), 0, 1, 0)
        stray, timed = (10_000, *read, None), (trace.instances[0].instance_id, *read, 0.25)
        events = [stray, *trace.events, timed, stray]
        profiles = {
            i.instance_id: RuntimeProfile(i.instance_id, kind=i.kind, label=i.label)
            for i in trace.instances
        }
        route_records(pack_records(events), profiles, first_seq=7)
        refs = _reference_registry(profiles.values())
        for seq, raw in enumerate(events, start=7):
            if raw[0] in refs:
                refs[raw[0]].append(materialize(seq, raw))
        assert_capture_matches(list(profiles.values()), list(refs.values()))


class TestIncremental:
    def test_mid_session_assemble(self):
        channel = TapChannel()
        with collecting(channel=channel) as collector:
            xs, ys = TrackedList(label="xs"), TrackedList(label="ys")
            for i in range(50):
                xs.append(i)
                ys.append(-i)
            early = collector.assemble()
            refs = _reference_registry(early.values())
            assembler = ReferenceAssembler(refs)
            assembler._assemble(channel.tapped)
            for iid, profile in early.items():
                assert_profile_matches(profile, refs[iid])
            sizes_before = collector.profile_of(xs.instance_id).sizes
            for i in range(30):
                _ = xs[i]
            ys.sort()
        assembler._assemble(channel.tapped)
        for iid, profile in collector.finish().items():
            assert_profile_matches(profile, refs[iid])
        assert len(sizes_before) == 51  # an array read earlier is a snapshot

    def test_append_after_a_view_was_read(self):
        with collecting() as collector:
            xs = TrackedList(label="xs")
            for i in range(10):
                xs.append(i)
        profile = collector.profiles_by_label()["xs"]
        sizes, positions = profile.sizes, profile.positions
        event = make_event(10_000, OperationKind.CLEAR, None, 0, instance_id=profile.instance_id)
        profile.append(event)
        assert len(profile) == 12 and profile[-1] == event
        assert profile.sizes[-1] == 0 and profile.positions[-1] == -1
        assert len(sizes) == len(positions) == 11
        profile.extend([event])
        assert len(profile.events) == 13


class TestSpillWhatif:
    PROGRAM = "xs = []\nfor i in range(400):\n    xs.append(i)\nys = [1, 2]\nys.sort()\n"

    def test_whatif_reads_an_analyze_spill(self, tmp_path, capsys):
        program = tmp_path / "prog.py"
        program.write_text(self.PROGRAM, encoding="utf-8")
        spill, archive = tmp_path / "cap.bin", tmp_path / "cap.jsonl"
        args = ["analyze", str(program), "--spill", str(spill), "--save", str(archive)]
        assert main(args) == 0
        live = [p for p in read_profiles(archive) if len(p)]
        spilled = read_spill_profiles(spill)
        assert [p.instance_id for p in spilled] == [p.instance_id for p in live]
        for ours, theirs in zip(spilled, live):
            assert ours.kind is StructureKind.LIST
            assert list(ours) == list(theirs)
        capsys.readouterr()
        assert main(["whatif", str(spill)]) == 0
        out = capsys.readouterr().out
        assert f"What-if predictions for {spill}" in out
        assert " LI " in out


HEADER = '{"type": "profile", "version": 1, "instance_id": 0, "kind": "list", "events": 1}'

MALFORMED = {
    "not-json": ("nope", 1),
    "header-without-instance-id": (
        '{"type": "profile", "version": 1, "kind": "list", "events": 0}',
        1,
    ),
    "unknown-structure-kind": (HEADER.replace('"list"', '"heap?"'), 1),
    "bad-site": (HEADER[:-1] + ', "site": {"filename": "a.py", "lineno": "x"}}', 1),
    "short-event": (HEADER + "\n[0, 0, 0, 0, 1]", 2),
    "unknown-op": (HEADER + "\n[0, 99, 0, 0, 1, 0]", 2),
    "string-size": (HEADER + '\n[0, 0, 0, 0, "big", 0]', 2),
    "float-seq": (HEADER + "\n[0.5, 0, 0, 0, 1, 0]", 2),
    "scalar-line": (HEADER + "\n7", 2),
    "truncated": (HEADER + "\n" + HEADER, 1),
}


class TestMalformedArchives:
    @pytest.mark.parametrize("case", MALFORMED.values(), ids=MALFORMED.keys())
    def test_loader_names_the_line(self, case):
        text, lineno = case
        with pytest.raises(ValueError, match=rf"^line {lineno}: "):
            list(load_profiles(io.StringIO(text + "\n")))

    @pytest.mark.parametrize("command", ["whatif", "load", "compare"])
    @pytest.mark.parametrize(
        "case", ["not-json", "header-without-instance-id"], ids=["not-json", "no-instance-id"]
    )
    def test_cli_reports_one_line_and_exits_2(self, tmp_path, capsys, command, case):
        path = tmp_path / "bad.jsonl"
        path.write_text(MALFORMED[case][0] + "\n", encoding="utf-8")
        argv, archives = {
            "whatif": (["whatif", str(path)], 1),
            "load": (["analyze", "--load", str(path)], 1),
            "compare": (["compare", str(path), str(path)], 2),
        }[command]
        assert main(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == archives  # one line per unreadable archive
        assert all(line.startswith(f"{path}: ") and "line 1: " in line for line in lines)
