"""Traffic accounting.

The network reports every message copy it puts on the wire to a
:class:`TrafficStats` instance, which keeps one table: a
:class:`TrafficRecord` per message kind.  Network-wide totals are derived
from that table rather than kept alongside it.

Per-process attribution is a *scope*: the communication-cost experiments
(E2, E7) open one around a measured interval, and every message whose sender
or receiver is the scope's owner is charged to it once while it is open.

Two figures are kept for every record, mirroring the paper's cost model:

``data_bytes``
    Bytes of object value / coded elements -- the quantity the paper's
    theorems bound (normalised by the value size this is ``n/k`` and friends).
``metadata_bytes``
    Estimated bytes of tags, ids and statuses -- "negligible" in the paper,
    reported separately here for completeness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.common.ids import ProcessId


@dataclass
class TrafficRecord:
    """Aggregated traffic counters."""

    messages: int = 0
    data_bytes: int = 0
    metadata_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        """Data plus metadata bytes."""
        return self.data_bytes + self.metadata_bytes

    def normalised(self, value_size: int) -> float:
        """Data bytes divided by the object value size (the paper's units)."""
        if value_size <= 0:
            return 0.0
        return self.data_bytes / value_size


class TrafficStats:
    """Network-wide traffic accounting: one per-kind table plus open scopes.

    :meth:`open_scope` returns a fresh :class:`TrafficRecord` that is charged
    once for every message sent or received by its owner until
    :meth:`close_scope`.  Several scopes may be open at once, for the same
    owner or for different ones.
    """

    def __init__(self) -> None:
        self.per_kind: Dict[str, TrafficRecord] = {}
        # Open scopes by owner; an owner's entry goes when its last scope
        # closes, so with no scope open ``record`` skips the scope loop.
        self._scopes: Dict[ProcessId, List[TrafficRecord]] = {}

    # -------------------------------------------------------------- recording
    def record(self, src: ProcessId, dest: ProcessId, kind: str,
               data_bytes: int, metadata_bytes: int) -> None:
        """Record one message copy on the wire.

        Called once per copy (the network's hottest path), so the counter
        updates are inlined, and the ``setdefault``-with-fresh-record idiom
        is avoided -- it would allocate a throwaway :class:`TrafficRecord`
        per call.
        """
        record = self.per_kind.get(kind)
        if record is None:
            record = self.per_kind[kind] = TrafficRecord()
        record.messages += 1
        record.data_bytes += data_bytes
        record.metadata_bytes += metadata_bytes
        scopes = self._scopes
        if scopes:
            for owner in ((src,) if src == dest else (src, dest)):
                for scope in scopes.get(owner, ()):
                    scope.messages += 1
                    scope.data_bytes += data_bytes
                    scope.metadata_bytes += metadata_bytes

    # ---------------------------------------------------------------- scopes
    def open_scope(self, owner: ProcessId) -> TrafficRecord:
        """Open a scope charging traffic to/from ``owner``; return its record."""
        scope = TrafficRecord()
        self._scopes.setdefault(owner, []).append(scope)
        return scope

    def close_scope(self, owner: ProcessId, scope: TrafficRecord) -> TrafficRecord:
        """Stop charging ``scope`` (opened for ``owner``) and return it."""
        owned = self._scopes[owner]
        # By identity: records with equal counts compare equal.
        owned[:] = [open_scope for open_scope in owned if open_scope is not scope]
        if not owned:
            del self._scopes[owner]
        return scope

    # --------------------------------------------------------------- queries
    @property
    def global_record(self) -> TrafficRecord:
        """Totals over every message copy on the wire (summed per kind)."""
        records = self.per_kind.values()
        return TrafficRecord(
            messages=sum(record.messages for record in records),
            data_bytes=sum(record.data_bytes for record in records),
            metadata_bytes=sum(record.metadata_bytes for record in records),
        )

    def by_kind(self, kind: str) -> TrafficRecord:
        """Traffic for one message kind (e.g. ``"PUT-DATA"``)."""
        return self.per_kind.get(kind, TrafficRecord())
