"""The one exactly-once audit every backend runs after a loop.

``verify_coverage`` raises :class:`CoverageError` for a duplicated and
for a lost iteration alike, so a broken ledger surfaces the same way on
the simulator and on the thread and process backends.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.apps.workload import LoopSpec
from repro.backend import ProcessBackend, ThreadBackend
from repro.backend.process import _ChildReporter
from repro.backend.thread import _SharedStats
from repro.core.redistribution import RedistributionPlan
from repro.machine.cluster import ClusterSpec
from repro.runtime import CoverageError
from repro.runtime.assignment import coverage_gaps, verify_coverage
from repro.runtime.options import RunOptions
from repro.runtime.stats import SyncRecord


def test_overlapping_ledger_is_duplicated_iterations():
    ledger = {0: [(0, 6)], 1: [(5, 10)]}
    with pytest.raises(CoverageError, match="duplicated iterations"):
        verify_coverage(ledger, 10)
    with pytest.raises(CoverageError, match="duplicated iterations"):
        coverage_gaps(ledger, 10)


def test_ledger_with_a_gap_is_lost_iterations():
    ledger = {0: [(0, 4)], 1: [(6, 10)]}
    with pytest.raises(CoverageError, match="lost iterations"):
        verify_coverage(ledger, 10)
    assert coverage_gaps(ledger, 10) == [(4, 6)]


def test_complete_ledger_passes():
    verify_coverage({0: [(0, 3), (7, 10)], 1: [(3, 7)]}, 10)
    assert coverage_gaps({0: [(0, 10)]}, 10) == []


def _loop():
    return LoopSpec(name="steady", n_iterations=16, iteration_time=0.002,
                    dc_bytes=16)


def _cluster():
    return ClusterSpec.homogeneous(2, max_load=1, persistence=1.0, seed=3)


def test_thread_backend_reports_duplicates_as_coverage_error(monkeypatch):
    original = _SharedStats.record_executed

    def twice(self, node, ranges):
        original(self, node, ranges)
        original(self, node, ranges)

    monkeypatch.setattr(_SharedStats, "record_executed", twice)
    with pytest.raises(CoverageError, match="duplicated iterations"):
        ThreadBackend(time_scale=0.2).run_loop(_loop(), _cluster(), "NONE",
                                               RunOptions())


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="children inherit the patch only when forked")
def test_process_backend_reports_duplicates_as_coverage_error(monkeypatch):
    original = _ChildReporter.executed

    def twice(self, ranges):
        original(self, ranges)
        original(self, ranges)

    monkeypatch.setattr(_ChildReporter, "executed", twice)
    backend = ProcessBackend(time_scale=0.2, start_method="fork")
    with pytest.raises(CoverageError, match="duplicated iterations"):
        backend.run_loop(_loop(), _cluster(), "NONE", RunOptions())


def test_sync_record_row_round_trip():
    plan = RedistributionPlan(
        done=False, move=True, reason="moved", shares={0: 1.0, 1: 1.0},
        transfers=(), retire=(1,), active=(0,), predicted_current=2.0,
        predicted_balanced=1.5, work_to_move=0.5)
    record = SyncRecord.from_plan(0.25, 2, 7, plan)
    assert record == SyncRecord(time=0.25, group=2, epoch=7, reason="moved",
                                moved_work=0.5, n_transfers=0, retired=(1,),
                                predicted_current=2.0,
                                predicted_balanced=1.5)
    row = record.to_row()
    assert "group" not in row and row["retired"] == [1]
    assert SyncRecord.from_row(2, 7, row) == record
