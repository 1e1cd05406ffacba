"""Unit tests for the use-case rules, engine and report."""

from __future__ import annotations

import pytest

from repro.events import OperationKind, StructureKind, collecting
from repro.structures import TrackedArray, TrackedList, TrackedQueue, TrackedStack
from repro.usecases import (
    PAPER_THRESHOLDS,
    Thresholds,
    UseCaseEngine,
    UseCaseKind,
    format_summary,
    format_table_v,
    rule_for,
)

from .conftest import make_profile

OP = OperationKind


def kinds_found(profiles, thresholds=PAPER_THRESHOLDS):
    engine = UseCaseEngine(thresholds=thresholds)
    report = engine.analyze(profiles if isinstance(profiles, list) else [profiles])
    return {u.kind for u in report.use_cases}


class TestLongInsert:
    def test_fires_on_long_insert_phase(self):
        specs = [(OP.INSERT, i, i + 1) for i in range(200)]
        assert UseCaseKind.LONG_INSERT in kinds_found(make_profile(specs))

    def test_requires_phase_length(self):
        # 30 inserts per phase -- high fraction but short phases.
        specs = []
        for _ in range(5):
            specs += [(OP.INSERT, i, i + 1) for i in range(30)]
            specs.append((OP.CLEAR, None, 0))
        assert UseCaseKind.LONG_INSERT not in kinds_found(make_profile(specs))

    def test_requires_runtime_fraction(self):
        # One long phase diluted by reads: fraction 100/1100 < 30%.
        specs = [(OP.INSERT, i, i + 1) for i in range(100)]
        specs += [(OP.READ, i % 100, 100) for i in range(1000)]
        # Keep the reads irregular so they don't form competing patterns.
        specs = specs[:100] + [
            (OP.READ, (i * 17) % 100, 100) for i in range(1000)
        ]
        assert UseCaseKind.LONG_INSERT not in kinds_found(make_profile(specs))

    def test_insert_front_also_qualifies(self):
        specs = [(OP.INSERT, 0, i + 1) for i in range(150)]
        assert UseCaseKind.LONG_INSERT in kinds_found(make_profile(specs))

    def test_not_on_dictionary(self):
        specs = [(OP.INSERT, i, i + 1) for i in range(200)]
        profile = make_profile(specs, kind=StructureKind.DICTIONARY)
        assert UseCaseKind.LONG_INSERT not in kinds_found(profile)

    def test_evidence_contents(self):
        specs = [(OP.INSERT, i, i + 1) for i in range(200)]
        engine = UseCaseEngine()
        (uc,) = engine.analyze_profile(make_profile(specs))
        assert uc.evidence["longest_phase"] == 200
        assert uc.evidence["insert_fraction"] > 0.9
        assert uc.recommendation.parallel


class TestImplementQueue:
    def _queue_profile(self, n=100):
        with collecting():
            xs = TrackedList()
            for i in range(n):
                xs.append(i)
            while len(xs):
                xs.pop(0)
            return xs.profile()

    def test_fires_on_list_used_as_queue(self):
        assert UseCaseKind.IMPLEMENT_QUEUE in kinds_found(self._queue_profile())

    def test_not_on_stack_usage(self):
        with collecting():
            xs = TrackedList()
            for i in range(100):
                xs.append(i)
            while len(xs):
                xs.pop()
            profile = xs.profile()
        assert UseCaseKind.IMPLEMENT_QUEUE not in kinds_found(profile)

    def test_not_on_actual_queue_structure(self):
        with collecting():
            q = TrackedQueue()
            for i in range(100):
                q.enqueue(i)
            while len(q):
                q.dequeue()
            profile = q.profile()
        assert UseCaseKind.IMPLEMENT_QUEUE not in kinds_found(profile)

    def test_needs_min_ops(self):
        assert UseCaseKind.IMPLEMENT_QUEUE not in kinds_found(
            self._queue_profile(n=5)
        )


class TestSortAfterInsert:
    def test_fires_when_sort_follows_long_insert(self):
        specs = [(OP.INSERT, i, i + 1) for i in range(150)] + [
            (OP.SORT, None, 150)
        ]
        assert UseCaseKind.SORT_AFTER_INSERT in kinds_found(make_profile(specs))

    def test_sort_before_insert_does_not_fire(self):
        specs = [(OP.SORT, None, 0)] + [
            (OP.INSERT, i, i + 1) for i in range(150)
        ]
        assert UseCaseKind.SORT_AFTER_INSERT not in kinds_found(
            make_profile(specs)
        )

    def test_short_insert_does_not_fire(self):
        specs = [(OP.INSERT, i, i + 1) for i in range(50)] + [
            (OP.SORT, None, 50)
        ]
        assert UseCaseKind.SORT_AFTER_INSERT not in kinds_found(
            make_profile(specs)
        )


class TestFrequentSearch:
    def test_fires_above_1000_searches(self):
        specs = [(OP.INSERT, i, i + 1) for i in range(100)]
        specs += [(OP.SEARCH, i % 100, 100) for i in range(1100)]
        assert UseCaseKind.FREQUENT_SEARCH in kinds_found(make_profile(specs))

    def test_exactly_1000_does_not_fire(self):
        specs = [(OP.SEARCH, i % 100, 100) for i in range(1000)]
        assert UseCaseKind.FREQUENT_SEARCH not in kinds_found(
            make_profile(specs)
        )

    def test_scaled_thresholds(self):
        th = PAPER_THRESHOLDS.scaled(0.01)  # >10 searches suffice
        specs = [(OP.SEARCH, i % 10, 10) for i in range(20)]
        assert UseCaseKind.FREQUENT_SEARCH in kinds_found(
            make_profile(specs), thresholds=th
        )


class TestFrequentLongRead:
    def _scan_profile(self, scans, size=50, coverage=1.0):
        specs = [(OP.INSERT, i, i + 1) for i in range(size)]
        upto = int(size * coverage)
        for _ in range(scans):
            specs += [(OP.READ, i, size) for i in range(upto)]
            specs += [(OP.SEARCH, 0, size)]  # break between scans
        return make_profile(specs)

    def test_fires_on_repeated_full_scans(self):
        assert UseCaseKind.FREQUENT_LONG_READ in kinds_found(
            self._scan_profile(scans=12)
        )

    def test_ten_scans_insufficient(self):
        assert UseCaseKind.FREQUENT_LONG_READ not in kinds_found(
            self._scan_profile(scans=10)
        )

    def test_shallow_scans_do_not_fire(self):
        assert UseCaseKind.FREQUENT_LONG_READ not in kinds_found(
            self._scan_profile(scans=12, coverage=0.3)
        )

    def test_write_heavy_profile_does_not_fire(self):
        # Scans interleaved with heavy writes: read fraction < 50%.
        specs = []
        size = 50
        for _ in range(12):
            specs += [(OP.READ, i, size) for i in range(size)]
            specs += [(OP.SEARCH, 0, size)]
            specs += [(OP.WRITE, (i * 7) % size, size) for i in range(2 * size)]
        assert UseCaseKind.FREQUENT_LONG_READ not in kinds_found(
            make_profile(specs)
        )


class TestInsertDeleteFront:
    def test_fires_on_array_churn(self):
        with collecting():
            arr = TrackedArray([0])
            for i in range(10):
                arr.insert(0, i)
                arr.delete(0)
            profile = arr.profile()
        assert UseCaseKind.INSERT_DELETE_FRONT in kinds_found(profile)

    def test_list_churn_does_not_fire(self):
        with collecting():
            xs = TrackedList([0])
            for i in range(10):
                xs.insert(0, i)
                xs.pop(0)
            profile = xs.profile()
        assert UseCaseKind.INSERT_DELETE_FRONT not in kinds_found(profile)

    def test_insert_only_does_not_fire(self):
        with collecting():
            arr = TrackedArray([0])
            for i in range(10):
                arr.insert(0, i)
            profile = arr.profile()
        assert UseCaseKind.INSERT_DELETE_FRONT not in kinds_found(profile)


class TestStackImplementation:
    def test_fires_on_list_used_as_stack(self):
        with collecting():
            xs = TrackedList()
            for round_ in range(5):
                for i in range(10):
                    xs.append(i)
                for _ in range(10):
                    xs.pop()
            profile = xs.profile()
        assert UseCaseKind.STACK_IMPLEMENTATION in kinds_found(profile)

    def test_queue_usage_does_not_fire_si(self):
        with collecting():
            xs = TrackedList()
            for i in range(50):
                xs.append(i)
            while len(xs):
                xs.pop(0)
            profile = xs.profile()
        assert UseCaseKind.STACK_IMPLEMENTATION not in kinds_found(profile)

    def test_actual_stack_structure_does_not_fire(self):
        with collecting():
            st = TrackedStack()
            for i in range(50):
                st.push(i)
            while len(st):
                st.pop()
            profile = st.profile()
        assert UseCaseKind.STACK_IMPLEMENTATION not in kinds_found(profile)


class TestWriteWithoutRead:
    def test_fires_on_trailing_null_out(self):
        with collecting():
            xs = TrackedList(range(20))
            _ = xs[3]  # some read activity earlier
            for i in range(20):
                xs[i] = None
            profile = xs.profile()
        assert UseCaseKind.WRITE_WITHOUT_READ in kinds_found(profile)

    def test_fires_on_trailing_clear_with_writes(self):
        specs = [(OP.READ, 0, 10)] + [(OP.WRITE, i, 10) for i in range(5)] + [
            (OP.CLEAR, None, 0)
        ]
        assert UseCaseKind.WRITE_WITHOUT_READ in kinds_found(make_profile(specs))

    def test_profile_ending_in_reads_does_not_fire(self):
        specs = [(OP.WRITE, i, 10) for i in range(10)] + [
            (OP.READ, i, 10) for i in range(10)
        ]
        assert UseCaseKind.WRITE_WITHOUT_READ not in kinds_found(
            make_profile(specs)
        )

    def test_few_trailing_writes_do_not_fire(self):
        specs = [(OP.READ, i, 10) for i in range(10)] + [
            (OP.WRITE, 0, 10),
            (OP.WRITE, 1, 10),
        ]
        assert UseCaseKind.WRITE_WITHOUT_READ not in kinds_found(
            make_profile(specs)
        )


class TestEngineAndReport:
    def test_search_space_reduction(self):
        hot = make_profile([(OP.INSERT, i, i + 1) for i in range(200)])
        cold1 = make_profile([(OP.READ, 0, 5)] * 3)
        cold2 = make_profile([])
        cold3 = make_profile([(OP.WRITE, 2, 5)] * 2)
        report = UseCaseEngine().analyze([hot, cold1, cold2, cold3])
        assert report.instances_analyzed == 4
        assert report.instances_flagged == 1
        assert report.search_space_reduction == pytest.approx(0.75)

    def test_multiple_use_cases_per_instance(self):
        # Long insert phase followed by many long scans: LI + FLR.
        size = 300
        specs = [(OP.INSERT, i, i + 1) for i in range(size)]
        for _ in range(15):
            specs += [(OP.READ, i, size) for i in range(size)]
            specs += [(OP.SEARCH, 0, size)]
        profile = make_profile(specs)
        found = {u.kind for u in UseCaseEngine().analyze_profile(profile)}
        assert UseCaseKind.FREQUENT_LONG_READ in found

    def test_report_selectors(self):
        hot = make_profile([(OP.INSERT, i, i + 1) for i in range(200)])
        report = UseCaseEngine().analyze([hot])
        assert len(report.parallel_use_cases) == len(report.use_cases)
        assert report.of_kind(UseCaseKind.LONG_INSERT)
        assert report.count_by_kind()[UseCaseKind.LONG_INSERT] == 1
        assert report.for_instance(hot.instance_id)

    def test_format_table_v(self):
        hot = make_profile([(OP.INSERT, i, i + 1) for i in range(200)])
        report = UseCaseEngine().analyze([hot])
        text = format_table_v(report, title="Test Output")
        assert "Use Case 1" in text
        assert "Long-Insert" in text
        assert "Recommendation" in text

    def test_format_table_v_empty(self):
        report = UseCaseEngine().analyze([])
        assert "no use cases" in format_table_v(report)

    def test_format_summary(self):
        hot = make_profile([(OP.INSERT, i, i + 1) for i in range(200)])
        report = UseCaseEngine().analyze([hot])
        summary = format_summary(report, name="demo")
        assert "demo" in summary and "LI=1" in summary

    def test_empty_report_reduction_zero(self):
        report = UseCaseEngine().analyze([])
        assert report.search_space_reduction == 0.0


class TestKindMetadata:
    def test_parallel_kind_partition(self):
        assert len(UseCaseKind.parallel_kinds()) == 5
        assert len(UseCaseKind.sequential_kinds()) == 3

    def test_from_abbreviation(self):
        assert UseCaseKind.from_abbreviation("li") is UseCaseKind.LONG_INSERT
        assert UseCaseKind.from_abbreviation("FLR") is UseCaseKind.FREQUENT_LONG_READ
        with pytest.raises(KeyError):
            UseCaseKind.from_abbreviation("nope")

    def test_rule_for(self):
        for kind in UseCaseKind:
            assert rule_for(kind).kind is kind

    def test_thresholds_scaled_minimums(self):
        tiny = Thresholds().scaled(0.0001)
        assert tiny.li_long_phase >= 2
        assert tiny.fs_min_search_ops >= 1


class TestRankedReports:
    """Regression: reports surfaced to users are ordered by predicted
    payoff, with ties falling back to the engine's threshold order."""

    def _ranked(self, profiles, cores=8):
        from repro.parallel.machine import MachineConfig, SimulatedMachine
        from repro.whatif import annotate_report, rank_report, workspans_of_flagged

        machine = SimulatedMachine(MachineConfig(cores=cores))
        report = UseCaseEngine().analyze(profiles)
        return rank_report(
            annotate_report(report, machine, workspans_of_flagged(report, profiles))
        )

    def test_report_orders_by_predicted_speedup(self):
        small = make_profile([(OP.INSERT, i, i + 1) for i in range(150)])
        big = make_profile([(OP.INSERT, i, i + 1) for i in range(5000)])
        ranked = self._ranked([small, big])
        assert len(ranked.use_cases) >= 2
        speeds = [u.predicted_speedup for u in ranked.use_cases]
        assert all(s is not None for s in speeds)
        assert speeds == sorted(speeds, reverse=True)
        # The bigger insert has more parallelizable work -> ranks first.
        assert ranked.use_cases[0].instance_id == big.instance_id

    def test_ties_preserve_threshold_order(self):
        # Two sequential-advice use cases both predict exactly 1.0;
        # their relative order must match the unranked engine report.
        stack_specs = []
        for i in range(60):
            stack_specs.append((OP.INSERT, i, i + 1))
        for i in reversed(range(60)):
            stack_specs.append((OP.DELETE, i, i))
        stacky1 = make_profile(stack_specs)
        stacky2 = make_profile(stack_specs)
        baseline = UseCaseEngine().analyze([stacky1, stacky2])
        ranked = self._ranked([stacky1, stacky2])
        tied = [u for u in ranked.use_cases if u.predicted_speedup == 1.0]
        base_order = [
            (u.instance_id, u.kind)
            for u in baseline.use_cases
            if (u.instance_id, u.kind) in {(t.instance_id, t.kind) for t in tied}
        ]
        assert [(u.instance_id, u.kind) for u in tied] == base_order

    def test_unannotated_report_is_unchanged_by_rank(self):
        from repro.whatif import rank_report

        hot = make_profile([(OP.INSERT, i, i + 1) for i in range(200)])
        report = UseCaseEngine().analyze([hot])
        assert rank_report(report).use_cases == report.use_cases
