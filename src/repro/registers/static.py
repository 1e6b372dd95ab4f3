"""Static (single-configuration) register deployments.

* :class:`RegisterServer` -- a server process hosting the DAP server state of
  one configuration.
* :class:`RegisterClient` -- a client process exposing ``read`` and ``write``
  following the generic templates A1 (read = get-data; put-data) and A2
  (read = get-data only), Algorithms 10 and 11.
* :class:`StaticRegisterDeployment` -- builds a whole system (simulator,
  network, servers, clients) for one configuration and offers synchronous
  helpers for tests, examples and benchmarks.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.ids import ProcessId, reader_id, server_id, writer_id
from repro.common.tags import Tag, TagValue
from repro.common.values import Value
from repro.config.configuration import Configuration, DapKind
from repro.dap import make_dap_client, make_dap_server_state
from repro.dap.interface import DapServerState
from repro.net.latency import LatencyModel
from repro.net.message import Message
from repro.net.network import Network
from repro.sim.core import Simulator
from repro.sim.futures import Coroutine
from repro.sim.process import Process
from repro.spec.history import History, OperationType
from repro.spec.properties import DapRecorder


class RegisterServer(Process):
    """A server hosting the DAP state of a single configuration."""

    def __init__(self, pid: ProcessId, network: Network, configuration: Configuration) -> None:
        super().__init__(pid, network)
        self.configuration = configuration
        self.dap_state: DapServerState = make_dap_server_state(configuration, pid)
        self.dap_state.bind(self)

    def on_message(self, src: ProcessId, message: Message) -> None:
        if not self.dap_state.handles(message.kind):
            return
        response = self.dap_state.handle(src, message)
        if response is not None:
            self.send(src, response)

    # ------------------------------------------------------------ accounting
    def storage_data_bytes(self) -> int:
        """Bytes of object data currently stored at this server."""
        return self.dap_state.storage_data_bytes()


class RegisterClient(Process):
    """A reader/writer client for a static configuration.

    Parameters
    ----------
    use_template_a2:
        When ``True``, reads skip the propagation (put-data) phase, i.e. the
        client follows template A2.  Only DAPs that satisfy property C3 (such
        as LDR's get-data, which performs its own helping) should be used
        this way; the default is the always-safe template A1.
    """

    def __init__(
        self,
        pid: ProcessId,
        network: Network,
        configuration: Configuration,
        history: Optional[History] = None,
        dap_recorder: Optional[DapRecorder] = None,
        use_template_a2: bool = False,
    ) -> None:
        super().__init__(pid, network)
        self.configuration = configuration
        self.history = history
        self.dap_recorder = dap_recorder
        self.use_template_a2 = use_template_a2
        self.dap = make_dap_client(self, configuration)
        self._write_counter = 0

    # ------------------------------------------------------------ operations
    def read(self):
        """Template A1/A2 read: get-data (then put-data for A1); returns the value."""
        record = None
        if self.history is not None:
            record = self.history.invoke(self.pid, OperationType.READ, self.now)
        pair = yield from self.dap.get_data()
        if not self.use_template_a2:
            yield from self.dap.put_data(pair)
        if record is not None:
            self.history.respond(record, self.now, value_label=pair.value.label,
                                 tag=pair.tag)
        return pair.value

    def write(self, value: Value):
        """Template A1 write: get-tag, increment, put-data; returns the new tag."""
        record = None
        if self.history is not None:
            record = self.history.invoke(self.pid, OperationType.WRITE, self.now,
                                         value_label=value.label)
        tag = yield from self.dap.get_tag()
        new_tag = tag.increment(self.pid)
        yield from self.dap.put_data(TagValue(tag=new_tag, value=value))
        if record is not None:
            self.history.respond(record, self.now, tag=new_tag)
        return new_tag

    # --------------------------------------------------------------- helpers
    def next_value(self, size: int) -> Value:
        """A fresh uniquely-labelled value of ``size`` bytes (for workloads)."""
        self._write_counter += 1
        return Value.of_size(size, label=f"{self.pid.name}:{self._write_counter}")


class StaticRegisterDeployment:
    """A complete single-configuration system.

    Builds the simulator, network, one :class:`RegisterServer` per
    configuration member, plus the requested number of writer and reader
    clients.  The deployment offers synchronous ``write``/``read`` helpers
    (spawn the operation and run the simulator until it completes) as well as
    asynchronous spawning for concurrency experiments.

    Parameters
    ----------
    configuration:
        The one :class:`~repro.config.configuration.Configuration` the
        register runs in; a :class:`RegisterServer` is built for each of its
        servers.  Convenience constructors :meth:`abd`, :meth:`treas` and
        :meth:`ldr` cover the common cases.
    num_writers, num_readers:
        Client population.
    latency:
        Network latency model (the network's default when ``None``).
    seed:
        Simulator seed.
    record_dap:
        Install a :class:`~repro.spec.properties.DapRecorder` on all clients.
    use_template_a2:
        Reads skip the put-data phase (template A2, see :class:`RegisterClient`).
    """

    def __init__(
        self,
        configuration: Configuration,
        num_writers: int = 1,
        num_readers: int = 1,
        latency: Optional[LatencyModel] = None,
        seed: int = 0,
        record_dap: bool = False,
        use_template_a2: bool = False,
    ) -> None:
        self.sim = Simulator(seed=seed)
        self.network = Network(self.sim, latency=latency)
        self.configuration = configuration
        self.history = History()
        self.dap_recorder = DapRecorder(self.sim) if record_dap else None
        self.servers: Dict[ProcessId, RegisterServer] = {
            pid: RegisterServer(pid, self.network, configuration)
            for pid in configuration.servers
        }
        self.writers: List[RegisterClient] = [
            RegisterClient(writer_id(i), self.network, configuration,
                           history=self.history, dap_recorder=self.dap_recorder,
                           use_template_a2=use_template_a2)
            for i in range(num_writers)
        ]
        self.readers: List[RegisterClient] = [
            RegisterClient(reader_id(i), self.network, configuration,
                           history=self.history, dap_recorder=self.dap_recorder,
                           use_template_a2=use_template_a2)
            for i in range(num_readers)
        ]

    # ------------------------------------------------------------- factories
    @classmethod
    def abd(cls, num_servers: int = 3, **kwargs) -> "StaticRegisterDeployment":
        """An ABD (replication, majority quorum) deployment."""
        servers = [server_id(i) for i in range(num_servers)]
        from repro.common.ids import config_id

        return cls(Configuration.abd(config_id(0), servers), **kwargs)

    @classmethod
    def treas(cls, num_servers: int = 5, k: Optional[int] = None, delta: int = 2,
              **kwargs) -> "StaticRegisterDeployment":
        """A TREAS (erasure-coded) deployment."""
        servers = [server_id(i) for i in range(num_servers)]
        from repro.common.ids import config_id

        return cls(Configuration.treas(config_id(0), servers, k=k, delta=delta), **kwargs)

    @classmethod
    def ldr(cls, num_directories: int = 3, num_replicas: int = 3,
            **kwargs) -> "StaticRegisterDeployment":
        """An LDR (directory/replica) deployment."""
        directories = [server_id(i) for i in range(num_directories)]
        replicas = [server_id(num_directories + i) for i in range(num_replicas)]
        from repro.common.ids import config_id

        return cls(Configuration.ldr(config_id(0), directories, replicas), **kwargs)

    # ------------------------------------------------------------ sync helpers
    def write(self, value: Value, writer_index: int = 0) -> Tag:
        """Run one write to completion on writer ``writer_index``; returns its tag."""
        return self.sim.run_until_complete(self.spawn_write(value, writer_index))

    def read(self, reader_index: int = 0) -> Value:
        """Run one read to completion on reader ``reader_index`` and return the value."""
        reader = self.readers[reader_index]
        op = reader.spawn(reader.read(), label=f"{reader.pid}:read")
        return self.sim.run_until_complete(op)

    # ----------------------------------------------------------- async helpers
    def spawn_write(self, value: Value, writer_index: int = 0) -> Coroutine:
        """Start a write without driving the simulator (for concurrency tests)."""
        writer = self.writers[writer_index]
        return writer.spawn(writer.write(value), label=f"{writer.pid}:write")

    def spawn_read(self, reader_index: int = 0) -> Coroutine:
        """Start a read without driving the simulator."""
        reader = self.readers[reader_index]
        return reader.spawn(reader.read(), label=f"{reader.pid}:read")

    def run(self) -> None:
        """Drain the event queue (completes every spawned operation)."""
        self.sim.run()

    # ------------------------------------------------------------ accounting
    def total_storage_data_bytes(self) -> int:
        """Total object-data bytes stored across all servers (Theorem 3's metric)."""
        return sum(server.storage_data_bytes() for server in self.servers.values())

    @property
    def stats(self):
        """The network traffic statistics."""
        return self.network.stats
