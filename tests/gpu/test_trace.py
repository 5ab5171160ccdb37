"""Tests for execution-trace records and queries."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.gpu.trace import (
    ExecutionTrace,
    KernelSpan,
    TBRecord,
    intervals_overlap,
)


def _tb(instance=0, logical=0, copy=0, tb=0, sm=0, start=0.0, end=10.0):
    return TBRecord(instance_id=instance, logical_id=logical, copy_id=copy,
                    tb_index=tb, sm=sm, start=start, end=end)


def _span(instance=0, logical=0, copy=0, arrival=0.0, first=0.0, done=10.0):
    return KernelSpan(instance_id=instance, logical_id=logical, copy_id=copy,
                      kernel_name="k", arrival=arrival, first_dispatch=first,
                      completion=done)


class TestIntervalsOverlap:
    @pytest.mark.parametrize("a,b,expected", [
        ((0, 10), (5, 15), True),
        ((0, 10), (10, 20), False),   # half-open: touching is no overlap
        ((5, 15), (0, 10), True),
        ((0, 1), (2, 3), False),
        ((0, 10), (3, 4), True),      # containment
    ])
    def test_cases(self, a, b, expected):
        assert intervals_overlap(*a, *b) is expected


class TestTBRecord:
    def test_duration(self):
        assert _tb(start=2.0, end=5.0).duration == pytest.approx(3.0)

    def test_end_before_start_rejected(self):
        with pytest.raises(SimulationError):
            _tb(start=5.0, end=2.0)

    def test_phase_at_midpoint(self):
        assert _tb(start=0.0, end=10.0).phase_at(5.0) == pytest.approx(0.5)

    def test_phase_outside_interval_is_none(self):
        record = _tb(start=0.0, end=10.0)
        assert record.phase_at(-1.0) is None
        assert record.phase_at(10.0) is None  # half-open

    def test_active_at(self):
        record = _tb(start=1.0, end=2.0)
        assert record.active_at(1.0)
        assert record.active_at(1.5)
        assert not record.active_at(2.0)

    def test_overlaps(self):
        assert _tb(start=0, end=10).overlaps(_tb(start=5, end=15))
        assert not _tb(start=0, end=10).overlaps(_tb(start=10, end=15))


class TestKernelSpan:
    def test_derived_times(self):
        span = _span(arrival=1.0, first=3.0, done=10.0)
        assert span.latency == pytest.approx(9.0)
        assert span.exec_time == pytest.approx(7.0)
        assert span.queue_delay == pytest.approx(2.0)


class TestExecutionTrace:
    def _populated(self) -> ExecutionTrace:
        trace = ExecutionTrace(num_sms=2)
        trace.add_tb(_tb(instance=0, tb=0, sm=0, start=0, end=10))
        trace.add_tb(_tb(instance=0, tb=1, sm=1, start=0, end=12))
        trace.add_tb(_tb(instance=1, copy=1, tb=0, sm=1, start=20, end=30))
        trace.add_tb(_tb(instance=1, copy=1, tb=1, sm=0, start=20, end=28))
        trace.add_span(_span(instance=0, first=0, done=12))
        trace.add_span(_span(instance=1, copy=1, arrival=15, first=20, done=30))
        return trace

    def test_makespan(self):
        assert self._populated().makespan == pytest.approx(30.0)

    def test_empty_trace_makespan_zero(self):
        assert ExecutionTrace(num_sms=1).makespan == 0.0

    def test_unknown_sm_rejected(self):
        trace = ExecutionTrace(num_sms=1)
        with pytest.raises(SimulationError):
            trace.add_tb(_tb(sm=5))

    def test_duplicate_span_rejected(self):
        trace = ExecutionTrace(num_sms=1)
        trace.add_span(_span())
        with pytest.raises(SimulationError):
            trace.add_span(_span())

    def test_blocks_of_sorted_by_index(self):
        trace = ExecutionTrace(num_sms=1)
        trace.add_tb(_tb(tb=1, start=5, end=6))
        trace.add_tb(_tb(tb=0, start=0, end=1))
        blocks = trace.blocks_of(0)
        assert [b.tb_index for b in blocks] == [0, 1]

    def test_copies_of_and_logical_ids(self):
        trace = self._populated()
        copies = trace.copies_of(0)
        assert set(copies) == {0, 1}
        assert trace.logical_ids() == (0,)

    def test_paired_blocks_pairs_by_index(self):
        trace = self._populated()
        pairs = list(trace.paired_blocks(0))
        assert len(pairs) == 2
        for a, b in pairs:
            assert a.tb_index == b.tb_index
            assert a.copy_id == 0 and b.copy_id == 1

    def test_paired_blocks_missing_copy_raises(self):
        trace = ExecutionTrace(num_sms=1)
        trace.add_tb(_tb())
        trace.add_span(_span())
        with pytest.raises(SimulationError):
            list(trace.paired_blocks(0))

    def test_paired_blocks_mismatched_grids_raise(self):
        trace = ExecutionTrace(num_sms=1)
        trace.add_tb(_tb(instance=0, tb=0))
        trace.add_tb(_tb(instance=1, copy=1, tb=0))
        trace.add_tb(_tb(instance=1, copy=1, tb=1))
        trace.add_span(_span(instance=0))
        trace.add_span(_span(instance=1, copy=1))
        with pytest.raises(SimulationError):
            list(trace.paired_blocks(0))

    def test_active_blocks_at(self):
        trace = self._populated()
        assert len(trace.active_blocks_at(5.0)) == 2
        assert len(trace.active_blocks_at(25.0)) == 2
        assert trace.active_blocks_at(15.0) == []
        assert len(trace.active_blocks_at(5.0, sms=[0])) == 1

    def test_busy_intervals_merge(self):
        trace = ExecutionTrace(num_sms=1)
        trace.add_tb(_tb(tb=0, start=0, end=10))
        trace.add_tb(_tb(tb=1, start=5, end=15))
        trace.add_tb(_tb(tb=2, start=20, end=25))
        assert trace.busy_intervals(0) == [(0, 15), (20, 25)]

    def test_sm_utilization(self):
        trace = self._populated()
        # SM0 busy [0,10] and [20,28] = 18 of makespan 30
        assert trace.sm_utilization(0) == pytest.approx(18 / 30)

    def test_gpu_busy_cycles_excludes_gaps(self):
        trace = self._populated()
        # busy union: [0,12] and [20,30] -> 22, gap [12,20) excluded
        assert trace.busy_cycles == pytest.approx(22.0)

    def test_overlap_cycles(self):
        trace = ExecutionTrace(num_sms=2)
        trace.add_tb(_tb(instance=0, tb=0, sm=0, start=0, end=10))
        trace.add_tb(_tb(instance=1, tb=0, sm=1, start=6, end=16))
        assert trace.overlap_cycles(0, 1) == pytest.approx(4.0)
        assert trace.overlap_cycles(1, 0) == pytest.approx(4.0)

    def test_validate_passes_for_consistent_trace(self):
        self._populated().validate()

    def test_validate_catches_missing_span(self):
        trace = ExecutionTrace(num_sms=1)
        trace.add_tb(_tb())
        with pytest.raises(SimulationError):
            trace.validate()

    def test_validate_catches_noncontiguous_blocks(self):
        trace = ExecutionTrace(num_sms=1)
        trace.add_tb(_tb(tb=0, start=0, end=10))
        trace.add_tb(_tb(tb=2, start=0, end=10))
        trace.add_span(_span(first=0, done=10))
        with pytest.raises(SimulationError):
            trace.validate()

    def test_span_lookup_unknown_instance(self):
        with pytest.raises(SimulationError):
            ExecutionTrace(num_sms=1).span(99)


class TestActiveBlocksIndex:
    """The per-SM activity index behind active_blocks_at and fault
    candidate sets."""

    def test_start_included_end_excluded(self):
        trace = ExecutionTrace(num_sms=1)
        record = _tb(start=10.0, end=20.0)
        trace.add_tb(record)
        assert trace.active_blocks_at(10.0, [0]) == [record]
        assert trace.active_blocks_at(19.999, [0]) == [record]
        assert trace.active_blocks_at(20.0, [0]) == []
        assert trace.active_blocks_at(9.999, [0]) == []

    def test_zero_duration_block_never_active(self):
        trace = ExecutionTrace(num_sms=1)
        trace.add_tb(_tb(tb=0, start=5.0, end=5.0))
        for t in (4.0, 5.0, 6.0):
            assert trace.active_blocks_at(t, [0]) == []

    def test_sm_without_records_is_empty(self):
        trace = ExecutionTrace(num_sms=3)
        trace.add_tb(_tb(sm=0, start=0.0, end=10.0))
        assert trace.active_blocks_at(5.0, [1]) == []
        assert trace.active_blocks_at(5.0, [2]) == []

    def test_add_tb_after_query_invalidates_index(self):
        trace = ExecutionTrace(num_sms=2)
        first = _tb(tb=0, sm=0, start=0.0, end=10.0)
        trace.add_tb(first)
        assert trace.active_blocks_at(5.0, [0]) == [first]
        assert trace.active_blocks_at(5.0, [1]) == []
        second = _tb(tb=1, sm=0, start=4.0, end=6.0)
        other_sm = _tb(tb=2, sm=1, start=5.0, end=7.0)
        trace.add_tb(second)
        trace.add_tb(other_sm)
        assert trace.active_blocks_at(5.0, [0]) == [first, second]
        assert trace.active_blocks_at(5.0, [1]) == [other_sm]

    def test_long_block_behind_short_ones(self):
        # a long block that started first stays visible however many
        # short blocks started and finished after it
        trace = ExecutionTrace(num_sms=1)
        long_block = _tb(tb=0, start=0.0, end=100.0)
        trace.add_tb(long_block)
        shorts = [_tb(tb=i, start=float(i), end=i + 1.0) for i in range(1, 50)]
        for record in shorts:
            trace.add_tb(record)
        assert trace.active_blocks_at(30.5, [0]) == [long_block, shorts[29]]
        assert trace.active_blocks_at(60.0, [0]) == [long_block]

    def test_matches_a_scan_of_the_sm(self):
        trace = ExecutionTrace(num_sms=2)
        bounds = [(0, 7), (3, 3), (3, 9), (5, 6), (8, 20), (9, 10), (12, 13)]
        for i, (start, end) in enumerate(bounds):
            trace.add_tb(_tb(tb=i, sm=i % 2, start=float(start),
                             end=float(end)))
        for sm in (0, 1):
            for t in [x / 2 for x in range(-2, 44)]:
                expected = sorted(
                    (r for r in trace.blocks_on_sm(sm) if r.active_at(t)),
                    key=lambda r: r.start,
                )
                assert trace.active_blocks_at(t, [sm]) == expected, (sm, t)

    def test_all_sms_in_sm_then_start_order(self):
        trace = ExecutionTrace(num_sms=2)
        late = _tb(tb=0, sm=1, start=1.0, end=9.0)
        early = _tb(tb=1, sm=1, start=0.0, end=9.0)
        on_first_sm = _tb(tb=2, sm=0, start=2.0, end=9.0)
        for record in (late, early, on_first_sm):
            trace.add_tb(record)
        assert trace.active_blocks_at(5.0) == [on_first_sm, early, late]
        assert (trace.active_blocks_at(5.0, [1, 0, 1])
                == [on_first_sm, early, late])
