"""Unit tests for the specification-checking machinery itself.

The linearizability checker and the DAP property checker are test oracles;
these tests make sure the oracles accept correct histories and, crucially,
reject incorrect ones (otherwise the protocol tests would be vacuous).
"""

from __future__ import annotations

import pytest

from repro.common.ids import config_id, reader_id, writer_id
from repro.common.tags import BOTTOM_TAG, Tag, TagValue
from repro.common.values import Value
from repro.sim.core import Simulator
from repro.spec.history import History, OperationType
from repro.spec.linearizability import (check_linearizability,
                                        check_linearizability_reference,
                                        check_tag_monotonicity)
from repro.spec.properties import DapRecorder, check_dap_properties


def record(history, process, op_type, start, end, label=None, tag=None, failed=False):
    entry = history.invoke(process, op_type, start, value_label=label)
    if end is None:
        return entry
    if failed:
        history.fail(entry, end)
    else:
        history.respond(entry, end, value_label=label, tag=tag)
    return entry


class TestHistory:
    def test_latency_and_completeness(self):
        history = History()
        op = record(history, writer_id(0), OperationType.WRITE, 1.0, 4.0, label="a")
        assert op.complete
        assert op.latency == pytest.approx(3.0)
        pending = history.invoke(reader_id(0), OperationType.READ, 2.0)
        assert not pending.complete
        assert pending.latency is None

    def test_precedes(self):
        history = History()
        first = record(history, writer_id(0), OperationType.WRITE, 1.0, 2.0, label="a")
        second = record(history, reader_id(0), OperationType.READ, 3.0, 4.0, label="a")
        overlapping = record(history, reader_id(1), OperationType.READ, 1.5, 3.5, label="a")
        assert first.precedes(second)
        assert not second.precedes(first)
        assert not first.precedes(overlapping)

    def test_filters(self):
        history = History()
        record(history, writer_id(0), OperationType.WRITE, 1.0, 2.0, label="a")
        record(history, reader_id(0), OperationType.READ, 3.0, 4.0, label="a")
        history.invoke(writer_id(1), OperationType.WRITE, 5.0, value_label="pending")
        assert len(history.writes()) == 2
        assert len(history.writes(complete_only=False)) == 2
        assert len(history.reads()) == 1
        assert len(history.operations(complete_only=True)) == 2
        assert len(history) == 3

    def test_failed_operations_excluded_from_complete(self):
        history = History()
        record(history, writer_id(0), OperationType.WRITE, 1.0, 2.0, label="a", failed=True)
        assert history.operations(complete_only=True) == []


class TestLinearizabilityChecker:
    def test_accepts_sequential_history(self):
        history = History()
        record(history, writer_id(0), OperationType.WRITE, 0.0, 1.0, label="a")
        record(history, reader_id(0), OperationType.READ, 2.0, 3.0, label="a")
        record(history, writer_id(0), OperationType.WRITE, 4.0, 5.0, label="b")
        record(history, reader_id(0), OperationType.READ, 6.0, 7.0, label="b")
        assert check_linearizability(history).ok

    def test_rejects_stale_read(self):
        history = History()
        record(history, writer_id(0), OperationType.WRITE, 0.0, 1.0, label="a")
        record(history, writer_id(0), OperationType.WRITE, 2.0, 3.0, label="b")
        # Read strictly after write(b) returns the old value "a": not atomic.
        record(history, reader_id(0), OperationType.READ, 4.0, 5.0, label="a")
        result = check_linearizability(history)
        assert not result.ok

    def test_rejects_value_from_nowhere(self):
        history = History()
        record(history, reader_id(0), OperationType.READ, 0.0, 1.0, label="ghost")
        result = check_linearizability(history)
        assert not result.ok
        assert "no write" in result.reason

    def test_rejects_new_old_inversion(self):
        history = History()
        record(history, writer_id(0), OperationType.WRITE, 0.0, 1.0, label="a")
        record(history, writer_id(1), OperationType.WRITE, 2.0, 3.0, label="b")
        record(history, reader_id(0), OperationType.READ, 4.0, 5.0, label="b")
        record(history, reader_id(1), OperationType.READ, 6.0, 7.0, label="a")
        assert not check_linearizability(history).ok

    def test_accepts_concurrent_reads_of_either_value(self):
        history = History()
        record(history, writer_id(0), OperationType.WRITE, 0.0, 1.0, label="a")
        # Write of b overlaps both reads: either value is acceptable.
        record(history, writer_id(1), OperationType.WRITE, 2.0, 10.0, label="b")
        record(history, reader_id(0), OperationType.READ, 3.0, 4.0, label="a")
        record(history, reader_id(1), OperationType.READ, 5.0, 6.0, label="b")
        assert check_linearizability(history).ok

    def test_rejects_read_preceding_its_write(self):
        history = History()
        record(history, reader_id(0), OperationType.READ, 0.0, 1.0, label="late")
        record(history, writer_id(0), OperationType.WRITE, 2.0, 3.0, label="late")
        assert not check_linearizability(history).ok

    def test_pending_write_may_or_may_not_take_effect(self):
        history = History()
        record(history, writer_id(0), OperationType.WRITE, 0.0, 1.0, label="a")
        # Incomplete write of "b" (writer crashed): a later read of either
        # "a" or "b" is fine.
        history.invoke(writer_id(1), OperationType.WRITE, 2.0, value_label="b")
        record(history, reader_id(0), OperationType.READ, 3.0, 4.0, label="b")
        assert check_linearizability(history).ok

        history2 = History()
        record(history2, writer_id(0), OperationType.WRITE, 0.0, 1.0, label="a")
        history2.invoke(writer_id(1), OperationType.WRITE, 2.0, value_label="b")
        record(history2, reader_id(0), OperationType.READ, 3.0, 4.0, label="a")
        assert check_linearizability(history2).ok

    def test_reads_before_any_write_must_return_initial(self):
        history = History()
        record(history, reader_id(0), OperationType.READ, 0.0, 1.0, label="v0")
        record(history, writer_id(0), OperationType.WRITE, 2.0, 3.0, label="a")
        assert check_linearizability(history).ok

    def test_empty_history_is_linearizable(self):
        assert check_linearizability(History()).ok

    def test_witness_order_is_reported(self):
        history = History()
        w = record(history, writer_id(0), OperationType.WRITE, 0.0, 1.0, label="a")
        r = record(history, reader_id(0), OperationType.READ, 2.0, 3.0, label="a")
        # Only the reference search reports a witness order.
        result = check_linearizability_reference(history)
        assert result.ok
        assert result.order.index(w.op_id) < result.order.index(r.op_id)


class TestTagMonotonicity:
    def test_accepts_monotone_tags(self):
        history = History()
        record(history, writer_id(0), OperationType.WRITE, 0.0, 1.0, label="a",
               tag=Tag(1, writer_id(0)))
        record(history, reader_id(0), OperationType.READ, 2.0, 3.0, label="a",
               tag=Tag(1, writer_id(0)))
        assert check_tag_monotonicity(history) is None

    def test_rejects_decreasing_tags(self):
        history = History()
        record(history, writer_id(0), OperationType.WRITE, 0.0, 1.0, label="a",
               tag=Tag(5, writer_id(0)))
        record(history, reader_id(0), OperationType.READ, 2.0, 3.0, label="stale",
               tag=Tag(1, writer_id(0)))
        assert check_tag_monotonicity(history) is not None

    def test_rejects_non_increasing_tag_after_write(self):
        history = History()
        record(history, writer_id(0), OperationType.WRITE, 0.0, 1.0, label="a",
               tag=Tag(2, writer_id(0)))
        record(history, writer_id(1), OperationType.WRITE, 2.0, 3.0, label="b",
               tag=Tag(2, writer_id(0)))
        assert check_tag_monotonicity(history) is not None


class TestDapPropertyChecker:
    def _recorder(self):
        return DapRecorder(Simulator(seed=0))

    def test_clean_record_has_no_violations(self):
        sim = Simulator(seed=0)
        recorder = DapRecorder(sim)
        cfg = config_id(0)
        pair = TagValue(Tag(1, writer_id(0)), Value.of_size(4, label="a"))
        token = recorder.start(cfg, writer_id(0), "put-data", pair)
        sim.run_until(1.0)
        token.finish(None)
        token = recorder.start(cfg, reader_id(0), "get-data")
        sim.run_until(2.0)
        token.finish(pair)
        assert check_dap_properties(recorder) == []

    def test_c1_violation_detected(self):
        sim = Simulator(seed=0)
        recorder = DapRecorder(sim)
        cfg = config_id(0)
        pair = TagValue(Tag(5, writer_id(0)), Value.of_size(4, label="a"))
        token = recorder.start(cfg, writer_id(0), "put-data", pair)
        sim.run_until(1.0)
        token.finish(None)
        # A later get-tag returns a smaller tag: violates C1.
        sim.run_until(1.5)
        token = recorder.start(cfg, reader_id(0), "get-tag")
        sim.run_until(2.0)
        token.finish(Tag(1, writer_id(0)))
        violations = check_dap_properties(recorder)
        assert any(v.property_name == "C1" for v in violations)

    def test_c2_violation_detected(self):
        sim = Simulator(seed=0)
        recorder = DapRecorder(sim)
        cfg = config_id(0)
        # get-data returns a tag no put-data ever produced.
        token = recorder.start(cfg, reader_id(0), "get-data")
        sim.run_until(1.0)
        token.finish(TagValue(Tag(9, writer_id(0)), Value.of_size(4, label="ghost")))
        violations = check_dap_properties(recorder)
        assert any(v.property_name == "C2" for v in violations)

    def test_c2_allows_initial_pair(self):
        sim = Simulator(seed=0)
        recorder = DapRecorder(sim)
        cfg = config_id(0)
        token = recorder.start(cfg, reader_id(0), "get-data")
        sim.run_until(1.0)
        token.finish(TagValue(BOTTOM_TAG, Value.of_size(0, label="v0")))
        assert check_dap_properties(recorder) == []

    def test_c3_violation_detected_only_when_requested(self):
        sim = Simulator(seed=0)
        recorder = DapRecorder(sim)
        cfg = config_id(0)
        pair_high = TagValue(Tag(5, writer_id(0)), Value.of_size(4, label="b"))
        pair_low = TagValue(Tag(1, writer_id(0)), Value.of_size(4, label="a"))
        # The low put completes; the high put stays pending, so C1 does not
        # constrain the reads and only the C3 regression is exercised.
        token = recorder.start(cfg, writer_id(0), "put-data", pair_low)
        token.finish(None)
        recorder.start(cfg, writer_id(1), "put-data", pair_high)  # never finishes
        token = recorder.start(cfg, reader_id(0), "get-data")
        sim.run_until(1.0)
        token.finish(pair_high)
        sim.run_until(1.5)
        token = recorder.start(cfg, reader_id(1), "get-data")
        sim.run_until(2.0)
        token.finish(pair_low)
        assert check_dap_properties(recorder) == []
        violations = check_dap_properties(recorder, check_c3=True)
        assert any(v.property_name == "C3" for v in violations)

    def test_per_configuration_isolation(self):
        sim = Simulator(seed=0)
        recorder = DapRecorder(sim)
        pair = TagValue(Tag(3, writer_id(0)), Value.of_size(4, label="a"))
        token = recorder.start(config_id(0), writer_id(0), "put-data", pair)
        sim.run_until(1.0)
        token.finish(None)
        # In a different configuration a later get-tag may legitimately
        # return a smaller tag (C1 is a per-configuration property).
        token = recorder.start(config_id(1), reader_id(0), "get-tag")
        sim.run_until(2.0)
        token.finish(BOTTOM_TAG)
        assert check_dap_properties(recorder) == []
        assert len(recorder.configurations()) == 2
