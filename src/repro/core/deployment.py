"""Deployment builder for complete ARES systems.

:class:`AresDeployment` wires together everything a test, example or
benchmark needs: the simulator, the network (with a chosen latency model),
a pool of :class:`~repro.core.server.AresServer` processes, the initial
configuration, reader/writer clients and reconfiguration clients, the shared
history and (optionally) DAP recorder.

It also provides convenience helpers to build follow-up configurations over
fresh or existing servers, and synchronous wrappers (``write`` / ``read`` /
``reconfig``) that spawn the corresponding client coroutine and drive the
simulator until it completes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.common.errors import ConfigurationError
from repro.common.ids import (
    ConfigId,
    ProcessId,
    config_id,
    reader_id,
    reconfigurer_id,
    server_id,
    writer_id,
)
from repro.common.values import Value
from repro.config.configuration import Configuration, DapKind
from repro.core.ares_treas import DirectTransferReconfigurer, transfer_dap_state_factory
from repro.core.client import AresClient
from repro.core.directory import ConfigurationDirectory
from repro.core.reconfig import AresReconfigurer
from repro.core.server import AresServer
from repro.net.latency import LatencyModel, UniformLatency
from repro.net.network import Network
from repro.sim.core import Simulator
from repro.sim.futures import Coroutine
from repro.sim.process import RetryPolicy
from repro.spec.history import History
from repro.spec.properties import DapRecorder


@dataclass
class DeploymentSpec:
    """Parameters of an ARES deployment.

    Attributes
    ----------
    num_servers:
        Size of the initial server pool (more can be added later with
        :meth:`AresDeployment.add_servers`).
    initial_dap:
        DAP kind of the initial configuration (``"treas"`` or ``"abd"``).
    initial_config_size:
        Number of servers in the initial configuration (defaults to the whole
        pool).
    k:
        Erasure-code dimension for TREAS configurations (default ``⌈2n/3⌉``).
    delta:
        TREAS garbage-collection / concurrency parameter δ.
    num_writers, num_readers, num_reconfigurers:
        Client population.
    latency:
        Network latency model (default ``UniformLatency(1, 2)``).
    seed:
        Simulator seed.
    consensus_delay:
        Extra latency per consensus decision (the ``T(CN)`` knob).
    direct_state_transfer:
        Enable the Section 5 ARES-TREAS transfer path.
    record_dap:
        Install a :class:`~repro.spec.properties.DapRecorder` on all clients.
    retry:
        A :class:`~repro.sim.process.RetryPolicy` installed on every writer
        and reader (never on reconfigurers), with jitter seeded per process
        from ``seed``.  ``None`` -- the default -- keeps the gather path (and
        the simulator event sequence) byte-identical to builds without retry.
    gc:
        Enable configuration retirement: every reconfiguration runs the
        gc-config phase, retiring (and reclaiming server state for) the
        configurations before the new last-finalized index.  ``False`` --
        the default -- keeps executions byte-identical to builds without
        retirement.
    """

    num_servers: int = 5
    initial_dap: str = "treas"
    initial_config_size: Optional[int] = None
    k: Optional[int] = None
    delta: int = 4
    num_writers: int = 2
    num_readers: int = 2
    num_reconfigurers: int = 1
    latency: Optional[LatencyModel] = None
    seed: int = 0
    consensus_delay: float = 0.0
    direct_state_transfer: bool = False
    record_dap: bool = False
    retry: Optional["RetryPolicy"] = None
    gc: bool = False


class AresDeployment:
    """A complete, runnable ARES system."""

    def __init__(self, spec: Optional[DeploymentSpec] = None, **overrides) -> None:
        if spec is None:
            spec = DeploymentSpec(**overrides)
        elif overrides:
            raise ConfigurationError("pass either a DeploymentSpec or keyword overrides, not both")
        self.spec = spec
        self.sim = Simulator(seed=spec.seed)
        self.network = Network(self.sim, latency=spec.latency or UniformLatency(1.0, 2.0))
        self.directory = ConfigurationDirectory()
        self.history = History()
        self.dap_recorder = DapRecorder(self.sim) if spec.record_dap else None
        self._config_counter = 0

        dap_factory = transfer_dap_state_factory if spec.direct_state_transfer else None
        self.servers: Dict[ProcessId, AresServer] = {}
        for index in range(spec.num_servers):
            pid = server_id(index)
            self.servers[pid] = AresServer(pid, self.network, self.directory,
                                           dap_state_factory=dap_factory)
        self._next_server_index = spec.num_servers

        initial_size = spec.initial_config_size or spec.num_servers
        initial_servers = [server_id(i) for i in range(initial_size)]
        self.initial_configuration = self._build_configuration(
            spec.initial_dap, initial_servers, k=spec.k, delta=spec.delta,
        )
        self.directory.register(self.initial_configuration)

        self.writers: List[AresClient] = [
            AresClient(writer_id(i), self.network, self.directory,
                       self.initial_configuration, history=self.history,
                       dap_recorder=self.dap_recorder)
            for i in range(spec.num_writers)
        ]
        self.readers: List[AresClient] = [
            AresClient(reader_id(i), self.network, self.directory,
                       self.initial_configuration, history=self.history,
                       dap_recorder=self.dap_recorder)
            for i in range(spec.num_readers)
        ]
        if spec.retry is not None:
            # Writers and readers only: reconfiguration drives consensus,
            # where blind re-broadcast under the same proposal is not a
            # safe retry unit.
            for client in [*self.writers, *self.readers]:
                client.enable_retries(spec.retry, seed=spec.seed)
        reconfigurer_class = (DirectTransferReconfigurer if spec.direct_state_transfer
                              else AresReconfigurer)
        self.reconfigurers: List[AresReconfigurer] = [
            reconfigurer_class(reconfigurer_id(i), self.network, self.directory,
                               self.initial_configuration, history=self.history,
                               dap_recorder=self.dap_recorder,
                               consensus_delay=spec.consensus_delay,
                               gc=spec.gc)
            for i in range(spec.num_reconfigurers)
        ]

    # --------------------------------------------------------- configuration
    def _build_configuration(self, dap: str, servers: Sequence[ProcessId],
                             k: Optional[int] = None, delta: Optional[int] = None,
                             cfg: Optional[ConfigId] = None) -> Configuration:
        cfg = cfg if cfg is not None else config_id(self._config_counter)
        self._config_counter += 1
        delta = self.spec.delta if delta is None else delta
        dap = dap.lower()
        if dap == "treas":
            return Configuration.treas(cfg, servers, k=k, delta=delta)
        if dap == "abd":
            return Configuration.abd(cfg, servers)
        if dap == "ldr":
            half = len(servers) // 2
            return Configuration.ldr(cfg, servers[:half], servers[half:])
        raise ConfigurationError(f"unknown DAP kind {dap!r}")

    def add_servers(self, count: int) -> List[ProcessId]:
        """Add ``count`` fresh servers to the pool and return their ids."""
        dap_factory = (transfer_dap_state_factory if self.spec.direct_state_transfer
                       else None)
        added = []
        for _ in range(count):
            pid = server_id(self._next_server_index)
            self._next_server_index += 1
            self.servers[pid] = AresServer(pid, self.network, self.directory,
                                           dap_state_factory=dap_factory)
            added.append(pid)
        return added

    def make_configuration(self, dap: str = "treas",
                           servers: Optional[Sequence[ProcessId]] = None,
                           fresh_servers: int = 0,
                           k: Optional[int] = None,
                           delta: Optional[int] = None) -> Configuration:
        """Build (and register server processes for) a candidate next configuration.

        Either pass an explicit ``servers`` list (existing pool members), or a
        number of ``fresh_servers`` to add to the pool, or both.
        """
        chosen: List[ProcessId] = list(servers) if servers else []
        if fresh_servers:
            chosen.extend(self.add_servers(fresh_servers))
        if not chosen:
            chosen = list(self.initial_configuration.servers)
        return self._build_configuration(dap, chosen, k=k, delta=delta)

    # ------------------------------------------------------------ operations
    def write(self, value: Value, writer_index: int = 0):
        """Run one ARES write to completion; returns the written tag."""
        writer = self.writers[writer_index]
        op = writer.spawn(writer.write(value), label=f"{writer.pid}:write")
        return self.sim.run_until_complete(op)

    def read(self, reader_index: int = 0) -> Value:
        """Run one ARES read to completion; returns the value."""
        reader = self.readers[reader_index]
        op = reader.spawn(reader.read(), label=f"{reader.pid}:read")
        return self.sim.run_until_complete(op)

    def reconfig(self, configuration: Configuration, reconfigurer_index: int = 0) -> Configuration:
        """Run one reconfiguration to completion; returns the installed configuration."""
        reconfigurer = self.reconfigurers[reconfigurer_index]
        op = reconfigurer.spawn(reconfigurer.reconfig(configuration),
                                label=f"{reconfigurer.pid}:reconfig")
        return self.sim.run_until_complete(op)

    # ----------------------------------------------------------- async forms
    def spawn_write(self, value: Value, writer_index: int = 0) -> Coroutine:
        """Start a write without driving the simulator."""
        writer = self.writers[writer_index]
        return writer.spawn(writer.write(value), label=f"{writer.pid}:write")

    def spawn_read(self, reader_index: int = 0) -> Coroutine:
        """Start a read without driving the simulator."""
        reader = self.readers[reader_index]
        return reader.spawn(reader.read(), label=f"{reader.pid}:read")

    def spawn_reconfig(self, configuration: Configuration,
                       reconfigurer_index: int = 0) -> Coroutine:
        """Start a reconfiguration without driving the simulator."""
        reconfigurer = self.reconfigurers[reconfigurer_index]
        return reconfigurer.spawn(reconfigurer.reconfig(configuration),
                                  label=f"{reconfigurer.pid}:reconfig")

    def run(self) -> None:
        """Drain the event queue, completing all spawned operations."""
        self.sim.run()

    # ------------------------------------------------------------ accounting
    def total_storage_data_bytes(self) -> int:
        """Object-data bytes stored across every server and configuration."""
        return sum(server.storage_data_bytes() for server in self.servers.values())

    def configs_retired(self) -> int:
        """Configurations reclaimed across the server pool (GC acks)."""
        return sum(server.configs_retired for server in self.servers.values())

    def bytes_reclaimed(self) -> int:
        """Object-data bytes reclaimed by retirement across the server pool."""
        return sum(server.bytes_reclaimed for server in self.servers.values())

    def storage_by_configuration(self) -> Dict[ConfigId, int]:
        """Object-data bytes stored per configuration (summed over servers)."""
        totals: Dict[ConfigId, int] = {}
        for server in self.servers.values():
            for cfg_id, state in server.dap_states.items():
                totals[cfg_id] = totals.get(cfg_id, 0) + state.storage_data_bytes()
        return totals

    @property
    def stats(self):
        """Network traffic statistics."""
        return self.network.stats

    @property
    def latency_model(self) -> LatencyModel:
        """The network's latency model (exposes the ``d``/``D`` bounds)."""
        return self.network.latency
