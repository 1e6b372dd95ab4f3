"""Differential tests: the replayed online checker vs Wing-Gong.

Batch verification replays a history through the online value-partition
checker (method label ``"fast"``); it must agree with the exhaustive
reference search on *every* history -- it is allowed to defer (fall back),
never to disagree.  These tests drive both checkers over thousands of
seeded random histories, including incomplete writes, reads of the initial
value, deliberately non-linearizable mutations and duplicate-label
histories that force the fallback path, and validate every witness order
the reference search reports independently (only the reference search
reports one).
"""

from __future__ import annotations

import random

import pytest

from repro.common.ids import reader_id, writer_id
from repro.spec.history import History, OperationType
from repro.spec.linearizability import (INITIAL_LABEL, check_linearizability,
                                        check_linearizability_reference)


# ------------------------------------------------------------ history makers
def random_history(rng: random.Random, allow_ghost: bool = True) -> History:
    """A random multi-writer multi-reader register history.

    Writers write unique labels in per-process sequential sessions (~15% of
    writes stay incomplete); readers return a value whose write started
    before the read ended -- plausible but not necessarily linearizable, so
    the generator produces a healthy mix of ok and violating histories.
    """
    history = History()
    labels = []  # (label, write_start, write_end_or_inf)
    ops = []
    for w in range(rng.randint(1, 4)):
        t = 0.0
        for k in range(rng.randint(0, 5)):
            start = t + rng.uniform(0.0, 3.0)
            duration = rng.uniform(0.1, 4.0)
            label = f"w{w}k{k}"
            incomplete = rng.random() < 0.15
            labels.append((label, start, float("inf") if incomplete else start + duration))
            ops.append((writer_id(w), OperationType.WRITE, start,
                        None if incomplete else start + duration, label))
            t = start + duration
    for r in range(rng.randint(1, 4)):
        t = 0.0
        for _ in range(rng.randint(0, 6)):
            start = t + rng.uniform(0.0, 3.0)
            duration = rng.uniform(0.1, 4.0)
            candidates = [lab for lab, ws, _we in labels if ws < start + duration]
            if candidates and rng.random() > 0.25:
                label = rng.choice(candidates)
            else:
                label = INITIAL_LABEL
            if allow_ghost and rng.random() < 0.05:
                label = "ghost"
            ops.append((reader_id(r), OperationType.READ, start, start + duration, label))
            t = start + duration
    for pid, op_type, start, end, label in ops:
        record = history.invoke(pid, op_type, start, value_label=label)
        if end is not None:
            history.respond(record, end, value_label=label)
    return history


def sequential_history(rng: random.Random, n_ops: int) -> History:
    """A linearizable-by-construction history with bounded concurrency.

    A virtual register is updated sequentially; each operation's interval is
    jittered around its linearization point, preserving order.
    """
    history = History()
    current = INITIAL_LABEL
    point = 0.0
    for i in range(n_ops):
        point += rng.uniform(0.5, 1.5)
        jitter_before = rng.uniform(0.0, 0.45)
        jitter_after = rng.uniform(0.0, 0.45)
        if rng.random() < 0.4:
            label = f"x{i}"  # never the INITIAL_LABEL ("v0")
            record = history.invoke(writer_id(i % 3), OperationType.WRITE,
                                    point - jitter_before, value_label=label)
            history.respond(record, point + jitter_after, value_label=label)
            current = label
        else:
            record = history.invoke(reader_id(i % 3), OperationType.READ,
                                    point - jitter_before, value_label=current)
            history.respond(record, point + jitter_after, value_label=current)
    return history


def mutate_non_linearizable(history: History, rng: random.Random) -> History:
    """Inject a definite violation: a read of an old value strictly after a
    newer complete write finished (classic stale read)."""
    writes = [w for w in history.writes() if w.complete]
    if len(writes) < 2:
        return history
    writes.sort(key=lambda w: w.responded_at)
    stale, newer = writes[0], writes[-1]
    if stale.responded_at >= newer.responded_at:
        return history
    start = newer.responded_at + rng.uniform(0.1, 1.0)
    record = history.invoke(reader_id(9), OperationType.READ, start,
                            value_label=stale.value_label)
    history.respond(record, start + rng.uniform(0.1, 1.0),
                    value_label=stale.value_label)
    return history


def duplicate_label_history(rng: random.Random) -> History:
    """Writes reuse labels: the fast checker must defer, and the combined
    checker must still agree with the reference."""
    history = random_history(rng, allow_ghost=False)
    extra = history.invoke(writer_id(8), OperationType.WRITE,
                           rng.uniform(0.0, 5.0), value_label="dup")
    history.respond(extra, extra.invoked_at + rng.uniform(0.5, 2.0), value_label="dup")
    extra2 = history.invoke(writer_id(9), OperationType.WRITE,
                            rng.uniform(0.0, 5.0), value_label="dup")
    history.respond(extra2, extra2.invoked_at + rng.uniform(0.5, 2.0), value_label="dup")
    return history


# ----------------------------------------------------------- witness checker
def validate_witness(history: History, order: list) -> None:
    """Independently validate a claimed linearization (semantics + real time)."""
    by_id = {op.op_id: op for op in history.operations()}
    ops = [by_id[op_id] for op_id in order]
    required = {op.op_id for op in history.operations(complete_only=True)
                if op.op_type in (OperationType.READ, OperationType.WRITE)}
    assert required <= set(order), "witness omits a complete operation"
    current = INITIAL_LABEL
    for op in ops:
        if op.op_type is OperationType.WRITE:
            current = op.value_label
        else:
            assert op.value_label == current, (
                f"witness has {op} reading {op.value_label!r} while the "
                f"register holds {current!r}")
    for i, earlier in enumerate(ops):
        for later in ops[i + 1:]:
            assert not later.precedes(earlier), (
                f"witness orders {earlier} before {later} against real time")


# ------------------------------------------------------------------- tests
class TestDifferential:
    def test_random_histories_agree(self):
        rng = random.Random(0xA11CE)
        fast_decisions = 0
        for _ in range(2000):
            history = random_history(rng)
            combined = check_linearizability(history)
            reference = check_linearizability_reference(history)
            assert combined.ok == reference.ok, (
                f"checkers disagree ({combined.method}): {combined.reason!r} "
                f"vs {reference.reason!r} on\n{history.describe()}")
            if combined.method == "fast":
                fast_decisions += 1
                assert combined.order == []
            if reference.ok:
                validate_witness(history, reference.order)
        # The fast path must carry the overwhelming majority of histories,
        # otherwise the fallback erodes the performance win.
        assert fast_decisions > 1800

    def test_sequential_histories_are_fast_and_ok(self):
        rng = random.Random(7)
        for _ in range(200):
            history = sequential_history(rng, rng.randint(0, 60))
            result = check_linearizability(history)
            # Linearizable by construction: the online checker must prove it.
            assert result.ok and result.method == "fast", result.reason

    def test_mutated_histories_rejected_by_both(self):
        rng = random.Random(0xBAD)
        rejected = 0
        for _ in range(500):
            history = mutate_non_linearizable(sequential_history(rng, 25), rng)
            combined = check_linearizability(history)
            reference = check_linearizability_reference(history)
            assert combined.ok == reference.ok
            if not combined.ok:
                rejected += 1
        assert rejected > 400, "mutation generator failed to produce violations"

    def test_duplicate_labels_fall_back_and_agree(self):
        rng = random.Random(0xD0B)
        for _ in range(300):
            history = duplicate_label_history(rng)
            combined = check_linearizability(history)
            reference = check_linearizability_reference(history)
            assert combined.ok == reference.ok
            assert combined.method == "reference"

    def test_incomplete_write_read_forces_effect(self):
        rng = random.Random(5)
        seen_pending_read = 0
        for _ in range(500):
            history = random_history(rng)
            pending_labels = {w.value_label for w in history.writes()
                              if not w.complete and not w.failed}
            if any(r.value_label in pending_labels for r in history.reads()):
                seen_pending_read += 1
            assert (check_linearizability(history).ok
                    == check_linearizability_reference(history).ok)
        assert seen_pending_read > 20


class TestFastCheckerUnit:
    def _record(self, history, pid, op_type, start, end, label):
        record = history.invoke(pid, op_type, start, value_label=label)
        if end is not None:
            history.respond(record, end, value_label=label)
        return record

    def test_clean_history_is_decided_fast(self):
        history = History()
        self._record(history, writer_id(0), OperationType.WRITE, 0.0, 1.0, "a")
        self._record(history, reader_id(0), OperationType.READ, 2.0, 3.0, "a")
        result = check_linearizability(history)
        assert result.ok and result.method == "fast"
        assert result.states_explored == 0

    def test_stale_read_is_rejected_fast(self):
        history = History()
        self._record(history, writer_id(0), OperationType.WRITE, 0.0, 1.0, "a")
        self._record(history, writer_id(0), OperationType.WRITE, 2.0, 3.0, "b")
        self._record(history, reader_id(0), OperationType.READ, 4.0, 5.0, "a")
        result = check_linearizability(history)
        assert not result.ok and result.method == "fast"

    def test_value_from_nowhere_keeps_reason_wording(self):
        history = History()
        self._record(history, reader_id(0), OperationType.READ, 0.0, 1.0, "ghost")
        result = check_linearizability(history)
        assert not result.ok and "no write" in result.reason

    def test_initial_read_after_overwrite_rejected(self):
        history = History()
        self._record(history, writer_id(0), OperationType.WRITE, 0.0, 1.0, "a")
        self._record(history, reader_id(0), OperationType.READ, 2.0, 3.0, INITIAL_LABEL)
        result = check_linearizability(history)
        assert not result.ok
        reference = check_linearizability_reference(history)
        assert not reference.ok

    def test_tag_order_candidate_rescues_ambiguous_min_res_order(self):
        # Two overlapping writes where only the protocol tags reveal the
        # correct segment order; the min-response candidate alone may fail.
        from repro.common.tags import Tag

        history = History()
        w_a = history.invoke(writer_id(0), OperationType.WRITE, 0.0, value_label="a")
        history.respond(w_a, 10.0, value_label="a", tag=Tag(1, writer_id(0)))
        w_b = history.invoke(writer_id(1), OperationType.WRITE, 0.5, value_label="b")
        history.respond(w_b, 9.5, value_label="b", tag=Tag(2, writer_id(1)))
        r_a = history.invoke(reader_id(0), OperationType.READ, 1.0, value_label="a")
        history.respond(r_a, 2.0, value_label="a", tag=Tag(1, writer_id(0)))
        r_b = history.invoke(reader_id(1), OperationType.READ, 3.0, value_label="b")
        history.respond(r_b, 4.0, value_label="b", tag=Tag(2, writer_id(1)))
        result = check_linearizability(history)
        reference = check_linearizability_reference(history)
        assert reference.ok and result.ok and result.method == "fast"
        validate_witness(history, reference.order)

    def test_empty_history_fast(self):
        result = check_linearizability(History())
        assert result.ok and result.method == "fast"
