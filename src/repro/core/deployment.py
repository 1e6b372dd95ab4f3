"""Deployment builders for complete, reconfigurable ARES systems.

:class:`Deployment` is the one deployment core.  It wires what every
reconfigurable system shares onto one simulator and network: the
configuration directory, the history and (optionally) the DAP recorder, a
pool of :class:`~repro.core.server.AresServer` processes that
:meth:`~Deployment.add_servers` extends with fresh ids, the writer, reader
and reconfigurer populations (with retry installed on writers and
readers), and the storage, retirement and traffic accounting.  Subclasses
build only their topology:

* :class:`AresDeployment` -- one ARES register: the initial configuration
  and :class:`~repro.core.reconfig.AresReconfigurer` clients, plus helpers
  to build follow-up configurations over fresh or existing servers and
  synchronous wrappers (``write`` / ``read`` / ``reconfig``) that spawn the
  client coroutine and drive the simulator until it completes;
* :class:`~repro.store.deployment.StoreDeployment` -- a sharded store: the
  shard map and shard reconfigurers.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from repro.config.configuration import Configuration
from repro.core.ares_treas import DirectTransferReconfigurer, transfer_dap_state_factory
from repro.core.client import AresClient
from repro.core.directory import ConfigurationDirectory
from repro.core.reconfig import AresReconfigurer
from repro.core.server import AresServer
from repro.net.latency import LatencyModel, UniformLatency
from repro.net.network import Network
from repro.sim.core import Simulator
from repro.sim.futures import Coroutine
from repro.sim.process import Process, RetryPolicy
from repro.spec.history import History
from repro.spec.properties import DapRecorder


@dataclass
class BaseSpec:
    """Parameters every reconfigurable deployment shares.

    Attributes
    ----------
    num_writers, num_readers, num_reconfigurers:
        Client population.
    latency:
        Network latency model (default ``UniformLatency(1, 2)``).
    seed:
        Simulator seed.
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

    num_writers: int = 2
    num_readers: int = 2
    num_reconfigurers: int = 1
    latency: Optional[LatencyModel] = None
    seed: int = 0
    record_dap: bool = False
    retry: Optional[RetryPolicy] = None
    gc: bool = False

    @classmethod
    def resolve(cls, spec: Optional["BaseSpec"], overrides: dict) -> "BaseSpec":
        """``spec`` itself, or one built from keyword ``overrides`` -- never both."""
        if spec is None:
            return cls(**overrides)
        if overrides:
            raise ConfigurationError(
                f"pass either a {cls.__name__} or keyword overrides, not both")
        return spec


@dataclass
class DeploymentSpec(BaseSpec):
    """Parameters of a single-register ARES deployment.

    The shared fields are documented on :class:`BaseSpec`.

    Attributes
    ----------
    num_servers:
        Size of the initial server pool (more can be added later with
        :meth:`Deployment.add_servers`).
    initial_dap:
        DAP kind of the initial configuration (``"treas"``, ``"abd"`` or
        ``"ldr"``; an LDR configuration splits its servers half directories,
        half replicas).
    initial_config_size:
        Number of servers in the initial configuration (defaults to the whole
        pool).
    k:
        Erasure-code dimension for TREAS configurations (default ``⌈2n/3⌉``).
    delta:
        TREAS garbage-collection / concurrency parameter δ.
    consensus_delay:
        Extra latency per consensus decision (the ``T(CN)`` knob).
    direct_state_transfer:
        Enable the Section 5 ARES-TREAS transfer path.
    """

    num_servers: int = 5
    initial_dap: str = "treas"
    initial_config_size: Optional[int] = None
    k: Optional[int] = None
    delta: int = 4
    consensus_delay: float = 0.0
    direct_state_transfer: bool = False


class Deployment:
    """The shared core of a runnable, reconfigurable deployment.

    The constructor builds the simulator, network, directory, history,
    recorder and an empty server pool.  A subclass constructor then fills
    the pool with :meth:`add_servers`, builds its topology and calls
    :meth:`_add_clients`, implementing the :meth:`_new_client` and
    :meth:`_new_reconfigurer` hooks (and :meth:`_new_server` when its
    servers need more than a plain
    :class:`~repro.core.server.AresServer`).
    """

    def __init__(self, spec: BaseSpec) -> None:
        self.spec = spec
        self.sim = Simulator(seed=spec.seed)
        self.network = Network(self.sim, latency=spec.latency or UniformLatency(1.0, 2.0))
        self.directory = ConfigurationDirectory()
        self.history = History()
        self.dap_recorder = DapRecorder(self.sim) if spec.record_dap else None
        self.servers: Dict[ProcessId, AresServer] = {}
        self._next_server_index = 0

    # ------------------------------------------------------------ population
    def _new_server(self, pid: ProcessId) -> AresServer:
        """Build one server process of the pool."""
        return AresServer(pid, self.network, self.directory)

    def _new_client(self, pid: ProcessId) -> Process:
        """Build one writer or reader client."""
        raise NotImplementedError

    def _new_reconfigurer(self, pid: ProcessId) -> Process:
        """Build one reconfiguration client."""
        raise NotImplementedError

    def _add_clients(self) -> None:
        """Build the writers, then the readers, then the reconfigurers."""
        spec = self.spec
        self.writers = [self._new_client(writer_id(i)) for i in range(spec.num_writers)]
        self.readers = [self._new_client(reader_id(i)) for i in range(spec.num_readers)]
        if spec.retry is not None:
            # Writers and readers only: reconfiguration drives consensus,
            # where blind re-broadcast under the same proposal is not a
            # safe retry unit.
            for client in [*self.writers, *self.readers]:
                client.enable_retries(spec.retry, seed=spec.seed)
        self.reconfigurers = [self._new_reconfigurer(reconfigurer_id(i))
                              for i in range(spec.num_reconfigurers)]

    def add_servers(self, count: int) -> List[ProcessId]:
        """Add ``count`` fresh servers to the pool and return their ids.

        Ids continue past every server built so far; a reconfiguration
        (or shard migration) recruits the fresh servers.
        """
        added = []
        for _ in range(count):
            pid = server_id(self._next_server_index)
            self._next_server_index += 1
            self.servers[pid] = self._new_server(pid)
            added.append(pid)
        return added

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


class AresDeployment(Deployment):
    """A complete, runnable single-register ARES system."""

    def __init__(self, spec: Optional[DeploymentSpec] = None, **overrides) -> None:
        spec = DeploymentSpec.resolve(spec, overrides)
        super().__init__(spec)
        self._config_counter = 0
        self.add_servers(spec.num_servers)
        initial_size = spec.initial_config_size or spec.num_servers
        initial_servers = [server_id(i) for i in range(initial_size)]
        self.initial_configuration = self._build_configuration(
            spec.initial_dap, initial_servers, k=spec.k, delta=spec.delta,
        )
        self.directory.register(self.initial_configuration)
        self._add_clients()

    def _new_server(self, pid: ProcessId) -> AresServer:
        factory = transfer_dap_state_factory if self.spec.direct_state_transfer else None
        return AresServer(pid, self.network, self.directory, dap_state_factory=factory)

    def _new_client(self, pid: ProcessId) -> AresClient:
        return AresClient(pid, self.network, self.directory, self.initial_configuration,
                          history=self.history, dap_recorder=self.dap_recorder)

    def _new_reconfigurer(self, pid: ProcessId) -> AresReconfigurer:
        reconfigurer_class = (DirectTransferReconfigurer if self.spec.direct_state_transfer
                              else AresReconfigurer)
        return reconfigurer_class(pid, self.network, self.directory,
                                  self.initial_configuration, history=self.history,
                                  dap_recorder=self.dap_recorder,
                                  consensus_delay=self.spec.consensus_delay,
                                  gc=self.spec.gc)

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
        return self.sim.run_until_complete(self.spawn_write(value, writer_index))

    def read(self, reader_index: int = 0) -> Value:
        """Run one ARES read to completion; returns the value."""
        return self.sim.run_until_complete(self.spawn_read(reader_index))

    def reconfig(self, configuration: Configuration, reconfigurer_index: int = 0) -> Configuration:
        """Run one reconfiguration to completion; returns the installed configuration."""
        return self.sim.run_until_complete(
            self.spawn_reconfig(configuration, reconfigurer_index))

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
