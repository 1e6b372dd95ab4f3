"""Linearizability (atomicity) checking for MWMR read/write registers.

The checks decide whether a recorded :class:`~repro.spec.history.History`
of a register is linearizable with respect to the sequential read/write
register specification -- whether the atomicity conditions A1-A3 of
Section 2 admit a total order -- and whether its protocol tags satisfy
Lemma 20.

Batch checks have no checker of their own: they replay the recorded
history through the online register and tag checkers of
:mod:`repro.spec.streaming` (:func:`~repro.spec.streaming.replay`), the
code that also verifies streaming histories as they are recorded.  The
online register checker either *proves* a verdict in near-linear time
(method label ``"fast"``) or reports the history ambiguous; ambiguous
histories fall back to the exhaustive Wing-Gong / Lowe-style search
(:func:`check_linearizability_reference`, method ``"reference"``), so the
combination is exactly as precise as Wing-Gong.  Only the reference search
fills :attr:`LinearizabilityResult.order` with a witness order.

Histories are expected to use unique value labels per write (the workload
generators guarantee this); reads returning the initial value are matched
against the ``"v0"`` label of :data:`repro.common.values.BOTTOM_VALUE`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from repro.spec.history import History, OperationRecord, OperationType
from repro.spec.streaming import INITIAL_LABEL, first_tag_failure, replay


@dataclass
class LinearizabilityResult:
    """The outcome of a linearizability check."""

    ok: bool
    #: A witness linearization (operation ids in order) when ``ok`` and the
    #: reference search decided; empty for ``"fast"`` verdicts.
    order: List[int] = field(default_factory=list)
    #: Human-readable explanation when not ``ok``.
    reason: str = ""
    #: Number of search states explored (for diagnostics / performance tests).
    #: The online checker decides without searching, reporting ``0``.
    states_explored: int = 0
    #: Which algorithm produced the verdict: ``"fast"`` (the online checker)
    #: or ``"reference"``.
    method: str = ""

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


def check_linearizability(history: History, initial_label: str = INITIAL_LABEL,
                          max_states: int = 2_000_000) -> LinearizabilityResult:
    """Check that ``history`` is linearizable as a read/write register.

    Replays the history through the online checker and falls back to the
    Wing-Gong reference search only when the online checker finds it
    ambiguous (e.g. duplicate value labels, or no candidate witness order
    surviving its sweep).  The online checker only ever returns *proven*
    verdicts.

    Parameters
    ----------
    history:
        The recorded history.  Failed operations are ignored; incomplete
        (pending) writes are treated as possibly-effective, incomplete reads
        are ignored (a pending read imposes no constraint).
    initial_label:
        The label reads must return if they are linearized before every write.
    max_states:
        Safety valve for the reference search; the checker gives up
        (reporting failure with an explanatory reason) if exceeded.
    """
    return check_history(history, False, initial_label, max_states)[0]


def check_history(history: History, per_key: bool,
                  initial_label: str = INITIAL_LABEL,
                  max_states: int = 2_000_000,
                  ) -> Tuple[Union[LinearizabilityResult,
                                   "PerKeyLinearizabilityResult"], Optional[str]]:
    """Both batch verdicts from one replay of ``history``.

    Returns ``(linearizability, tag_violation)`` as
    :func:`check_linearizability` and :func:`check_tag_monotonicity` (or,
    when ``per_key``, their ``_per_key`` variants) report them.
    """
    registers, tags = replay(history, per_key, initial_label)
    results: Dict[Optional[str], LinearizabilityResult] = {}
    for key, register in registers.items():
        if register.ambiguous is not None:
            sub = history.for_key(key) if per_key else history
            results[key] = check_linearizability_reference(sub, initial_label,
                                                           max_states)
        else:
            results[key] = LinearizabilityResult(
                ok=register.failure is None, reason=register.failure or "",
                method="fast")
    tag_violation = first_tag_failure(tags, per_key)
    if not per_key:
        # Only an empty history has no register at all.
        result = results.get(None, LinearizabilityResult(ok=True, method="fast"))
        return result, tag_violation
    failed = [key for key, result in results.items() if not result.ok]
    reason = f"key {failed[0]!r}: {results[failed[0]].reason}" if failed else ""
    return (PerKeyLinearizabilityResult(ok=not failed, results=results, reason=reason),
            tag_violation)


# ======================================================================
# Reference path: Wing-Gong depth-first search
# ======================================================================

def check_linearizability_reference(history: History,
                                    initial_label: str = INITIAL_LABEL,
                                    max_states: int = 2_000_000) -> LinearizabilityResult:
    """Exhaustive Wing-Gong search (the pre-existing reference checker).

    Kept both as the fallback for histories the online checker cannot
    decide and as the oracle for the differential test-suite and the
    performance baseline in ``benchmarks/bench_simcore.py``.  The only
    source of witness orders.
    """
    reads = [r for r in history.reads(complete_only=True)]
    complete_writes = [w for w in history.writes() if w.complete]
    pending_writes = [w for w in history.writes() if not w.complete and not w.failed]
    operations: List[OperationRecord] = reads + complete_writes + pending_writes

    # Quick structural check: every read must return the initial value or the
    # value of some write present in the history.
    known_labels = {w.value_label for w in complete_writes + pending_writes}
    for read in reads:
        if read.value_label != initial_label and read.value_label not in known_labels:
            return LinearizabilityResult(
                ok=False,
                reason=(f"read {read} returned label {read.value_label!r} which no "
                        "write in the history produced"),
                method="reference",
            )

    by_id: Dict[int, OperationRecord] = {op.op_id: op for op in operations}
    ids: List[int] = sorted(by_id)
    # Precompute real-time predecessors: op -> set of ops that must precede it.
    predecessors: Dict[int, Set[int]] = {op_id: set() for op_id in ids}
    for a in operations:
        for b in operations:
            if a.op_id != b.op_id and a.precedes(b):
                predecessors[b.op_id].add(a.op_id)

    pending_write_ids = {w.op_id for w in pending_writes}
    total_required = len(reads) + len(complete_writes)

    # Depth-first search with memoisation on (linearized-set, current label).
    seen: Set[Tuple[FrozenSet[int], Optional[str]]] = set()
    states = {"count": 0}

    def search(linearized: FrozenSet[int], current_label: str, done_required: int,
               order: List[int]) -> Optional[List[int]]:
        if done_required == total_required:
            return order
        key = (linearized, current_label)
        if key in seen:
            return None
        seen.add(key)
        states["count"] += 1
        if states["count"] > max_states:
            raise _SearchBudgetExceeded()

        for op_id in ids:
            if op_id in linearized:
                continue
            if predecessors[op_id] - linearized:
                continue  # some real-time predecessor not linearized yet
            op = by_id[op_id]
            if op.op_type is OperationType.READ:
                if op.value_label != current_label:
                    continue
                result = search(linearized | {op_id}, current_label,
                                done_required + 1, order + [op_id])
            else:
                increment = 0 if op_id in pending_write_ids else 1
                result = search(linearized | {op_id}, op.value_label,
                                done_required + increment, order + [op_id])
            if result is not None:
                return result
        return None

    try:
        witness = search(frozenset(), initial_label, 0, [])
    except _SearchBudgetExceeded:
        return LinearizabilityResult(
            ok=False,
            reason=f"search budget of {max_states} states exceeded",
            states_explored=states["count"],
            method="reference",
        )
    if witness is None:
        return LinearizabilityResult(
            ok=False,
            reason="no linearization order satisfies the register specification",
            states_explored=states["count"],
            method="reference",
        )
    return LinearizabilityResult(ok=True, order=witness,
                                 states_explored=states["count"], method="reference")


class _SearchBudgetExceeded(Exception):
    """Internal signal: the memoised search exceeded its state budget."""


def check_tag_monotonicity(history: History) -> Optional[str]:
    """Cheap necessary condition using protocol tags (Lemma 20).

    For any two complete operations ``π1 → π2`` the tag of ``π2`` must be at
    least the tag of ``π1``; when ``π2`` is a write its tag must be strictly
    larger (a write always increments past every tag it discovered).
    Returns ``None`` if the condition holds, otherwise a description of the
    first violation.  This is a fast sanity check used alongside the full
    linearizability search; it replays the history through
    :class:`~repro.spec.streaming.OnlineTagChecker`, which compares each
    operation against the maximum tag of the operations that responded
    before its invocation in ``O(log n)``.
    """
    _, tags = replay(history, False)
    return first_tag_failure(tags, False)


# ======================================================================
# Per-key (multi-object store) checking
# ======================================================================

@dataclass
class PerKeyLinearizabilityResult:
    """The outcome of checking a keyed (multi-object) history per key.

    A sharded store records all objects into one history; each object is an
    independent atomic register, so the history is linearizable iff every
    per-key sub-history is.  ``results`` keeps the per-key verdicts (in
    first-invocation order of the keys) for diagnostics.
    """

    ok: bool
    #: Per-key verdicts, in the history's deterministic key order.
    results: Dict[Optional[str], LinearizabilityResult] = field(default_factory=dict)
    #: First violation, prefixed with the offending key, when not ``ok``.
    reason: str = ""

    @property
    def method(self) -> str:
        """Aggregate checker-method label, e.g. ``per-key(fast)``."""
        methods = sorted({r.method for r in self.results.values() if r.method})
        return f"per-key({','.join(methods)})" if methods else "per-key"

    @property
    def states_explored(self) -> int:
        """Total search states explored across all keys."""
        return sum(r.states_explored for r in self.results.values())

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


def check_linearizability_per_key(history: History,
                                  initial_label: str = INITIAL_LABEL,
                                  max_states: int = 2_000_000,
                                  ) -> PerKeyLinearizabilityResult:
    """Check a keyed history: every object key must linearize independently.

    One replay gives every key its own online checker (Wing-Gong fallback
    per ambiguous key).  Key-less records (e.g.
    reconfigurations mixed into a store history) form their own group; with
    no read/write operations it passes trivially.  Every key is checked
    even after a failure so ``results`` is always complete.

    Records spanning config epochs: a store key that was live-migrated
    (new servers, a different DAP kind, or another shard) records *keyed*
    ``RECONFIG`` operations alongside its reads and writes, and its
    read/write records straddle several configurations.  The per-key
    checkers accept such sub-histories as-is -- reconfigurations impose no
    register semantics (the type filters skip them) and linearizability is
    configuration-agnostic, which is exactly the paper's claim that
    atomicity survives reconfiguration.
    """
    return check_history(history, True, initial_label, max_states)[0]


def check_tag_monotonicity_per_key(history: History) -> Optional[str]:
    """Per-key version of :func:`check_tag_monotonicity`.

    Tags of different objects live in independent tag spaces (each key has
    its own writes), so the Lemma 20 condition only binds operations on the
    same key.  The condition deliberately spans config epochs: a migration
    transfers the maximum tag into the new configuration, so tags must stay
    monotone *across* the key's reconfigurations (keyed ``RECONFIG``
    records themselves carry no register tag and are skipped).  Returns the
    first violation prefixed with its key, or ``None``.
    """
    _, tags = replay(history, True)
    return first_tag_failure(tags, True)
