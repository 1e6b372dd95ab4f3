"""ARES readers and writers (Algorithm 7).

A write (read) operation:

1. runs ``read-config`` to refresh the client's local configuration
   sequence;
2. invokes ``get-tag`` (``get-data``) on every configuration from the last
   finalized index ``µ`` to the end of the sequence ``ν`` and keeps the
   maximum tag (tag-value pair);
3. for a write, increments the tag and pairs it with the new value; for a
   read, keeps the discovered pair;
4. repeatedly ``put-data``s the pair into the *last* configuration of the
   local sequence and re-runs ``read-config`` until no new configuration
   appears -- this is the "catch up with ongoing reconfigurations" loop whose
   termination the latency analysis (Section 4.4) studies.

The client records every high-level operation in a
:class:`~repro.spec.history.History` so atomicity can be checked and the
latency benchmarks can measure operation intervals.
"""

from __future__ import annotations

from typing import Optional

from repro.common.errors import QuorumRefusedError, is_retirement_refusal
from repro.common.ids import ProcessId
from repro.common.tags import BOTTOM_TAG, TagValue
from repro.common.values import BOTTOM_VALUE, Value
from repro.config.configuration import Configuration
from repro.config.sequence import ConfigSequence
from repro.core.directory import ConfigurationDirectory
from repro.core.traversal import RegisterState, SequenceTraversalMixin
from repro.net.network import Network
from repro.sim.process import Process
from repro.spec.history import History, OperationType
from repro.spec.properties import DapRecorder


class RegisterOpsMixin(SequenceTraversalMixin):
    """The Algorithm 7 read/write operations, shared by every ARES client.

    Hosts must be :class:`~repro.sim.process.Process` subclasses with a
    ``history`` attribute (``None`` disables recording).  Operations are
    parameterised over the register's local state -- its configuration
    sequence ``cseq`` and a ``configuration -> DapClient`` resolver -- so
    the single-register :class:`AresClient` (one ``cseq``) and the sharded
    store's :class:`~repro.store.client.StoreClient` (one ``cseq`` per
    object key) run the **same** implementation; a protocol fix lands in
    both data paths at once.
    """

    #: Cap on retirement-refusal restarts of one operation.  Each restart
    #: re-runs ``read-config``, whose tombstone jump lands at the latest
    #: finalized index known to the refusing servers, so in practice one
    #: restart converges; the cap guards against a pathological schedule
    #: where reconfigurations outrun the client indefinitely.
    _MAX_RETIREMENT_RESTARTS = 64

    def _register_write(self, cseq: ConfigSequence, dap_for, value: Value,
                        key: Optional[str] = None):
        """Coroutine: the ARES write (Algorithm 7) against one register.

        A quorum gather refused purely because the configuration it targeted
        was retired (a reconfigurer garbage-collected it mid-operation)
        restarts the operation body from ``read-config``: the refusing
        servers' tombstones redirect the next traversal past the reclaimed
        prefix, so the retry gathers over live configurations only.
        """
        record = None
        started = self.now
        if self.history is not None:
            record = self.history.invoke(self.pid, OperationType.WRITE, self.now,
                                         value_label=value.label, key=key)
        for restart in range(self._MAX_RETIREMENT_RESTARTS + 1):
            try:
                new_pair = yield from self._write_body(cseq, dap_for, value)
                break
            except QuorumRefusedError as error:
                if restart == self._MAX_RETIREMENT_RESTARTS or \
                        not is_retirement_refusal(error):
                    raise
                if self.metrics is not None:
                    self.metrics.inc("retirement_restarts")
        if record is not None:
            self.history.respond(record, self.now, tag=new_pair.tag)
        if self.metrics is not None:
            self.metrics.observe("write_latency", self.now - started)
        return new_pair.tag

    def _write_body(self, cseq: ConfigSequence, dap_for, value: Value):
        """Coroutine: one attempt at the Algorithm 7 write body."""
        yield from self.read_config(cseq)
        mu = cseq.mu
        nu = cseq.nu
        tag_max = BOTTOM_TAG
        for index in range(mu, nu + 1):
            configuration = cseq.config_at(index)
            tag = yield from dap_for(configuration).get_tag()
            if tag > tag_max:
                tag_max = tag
        new_pair = TagValue(tag=tag_max.increment(self.pid), value=value)
        yield from self._register_propagate(cseq, dap_for, new_pair)
        return new_pair

    def _register_read(self, cseq: ConfigSequence, dap_for,
                       key: Optional[str] = None):
        """Coroutine: the ARES read (Algorithm 7); returns the value.

        Restarts on retirement refusals exactly like ``_register_write``.
        """
        record = None
        started = self.now
        if self.history is not None:
            record = self.history.invoke(self.pid, OperationType.READ, self.now,
                                         key=key)
        for restart in range(self._MAX_RETIREMENT_RESTARTS + 1):
            try:
                best = yield from self._read_body(cseq, dap_for)
                break
            except QuorumRefusedError as error:
                if restart == self._MAX_RETIREMENT_RESTARTS or \
                        not is_retirement_refusal(error):
                    raise
                if self.metrics is not None:
                    self.metrics.inc("retirement_restarts")
        if record is not None:
            self.history.respond(record, self.now, value_label=best.value.label,
                                 tag=best.tag)
        if self.metrics is not None:
            self.metrics.observe("read_latency", self.now - started)
        return best.value

    def _read_body(self, cseq: ConfigSequence, dap_for):
        """Coroutine: one attempt at the Algorithm 7 read body."""
        yield from self.read_config(cseq)
        mu = cseq.mu
        nu = cseq.nu
        best = TagValue(tag=BOTTOM_TAG, value=BOTTOM_VALUE)
        for index in range(mu, nu + 1):
            configuration = cseq.config_at(index)
            pair = yield from dap_for(configuration).get_data()
            if pair.tag > best.tag:
                best = pair
        yield from self._register_propagate(cseq, dap_for, best)
        return best

    def _register_propagate(self, cseq: ConfigSequence, dap_for, pair: TagValue):
        """Algorithm 7 lines 15-21 / 37-43: put-data until the sequence stops growing."""
        nu = cseq.nu
        while True:
            configuration = cseq.config_at(nu)
            yield from dap_for(configuration).put_data(pair)
            yield from self.read_config(cseq)
            if cseq.nu == nu:
                return
            nu = cseq.nu


class AresClient(Process, RegisterOpsMixin):
    """A reader or writer client of the ARES service."""

    def __init__(
        self,
        pid: ProcessId,
        network: Network,
        directory: ConfigurationDirectory,
        initial_configuration: Configuration,
        history: Optional[History] = None,
        dap_recorder: Optional[DapRecorder] = None,
    ) -> None:
        super().__init__(pid, network)
        self.directory = directory
        self.history = history
        self.dap_recorder = dap_recorder
        directory.register(initial_configuration)
        self._state = RegisterState(self, initial_configuration)
        self._write_counter = 0

    # --------------------------------------------------------------- plumbing
    @property
    def cseq(self) -> ConfigSequence:
        """The client's local configuration sequence ``cseq`` (Algorithm 7 state)."""
        return self._state.cseq

    def next_value(self, size: int) -> Value:
        """A fresh uniquely-labelled value for workload generation."""
        self._write_counter += 1
        return Value.of_size(size, label=f"{self.pid.name}:{self._write_counter}")

    # ------------------------------------------------------------- operations
    def write(self, value: Value):
        """Coroutine implementing the ARES write operation."""
        return self._register_write(self._state.cseq, self._state.dap_for, value)

    def read(self):
        """Coroutine implementing the ARES read operation; returns the value."""
        return self._register_read(self._state.cseq, self._state.dap_for)
