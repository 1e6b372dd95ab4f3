"""Integration tests for static (single-configuration) registers."""

from __future__ import annotations

import pytest

from repro.common.ids import server_id
from repro.common.tags import Tag
from repro.common.values import Value
from repro.net.latency import UniformLatency
from repro.registers.static import StaticRegisterDeployment
from repro.spec.history import OperationType
from repro.spec.linearizability import check_linearizability, check_tag_monotonicity
from repro.spec.properties import check_dap_properties


DEPLOYMENT_BUILDERS = {
    "abd": lambda **kw: StaticRegisterDeployment.abd(num_servers=5, **kw),
    "treas": lambda **kw: StaticRegisterDeployment.treas(num_servers=6, k=4, delta=6, **kw),
    "ldr": lambda **kw: StaticRegisterDeployment.ldr(num_directories=3, num_replicas=4, **kw),
}


@pytest.mark.parametrize("kind", sorted(DEPLOYMENT_BUILDERS))
class TestSequentialSemantics:
    def test_read_your_writes(self, kind):
        dep = DEPLOYMENT_BUILDERS[kind](num_writers=1, num_readers=1, seed=1)
        value = Value.of_size(128, label="the-value")
        dep.write(value, 0)
        assert dep.read(0).label == "the-value"

    def test_last_write_wins(self, kind):
        dep = DEPLOYMENT_BUILDERS[kind](num_writers=2, num_readers=1, seed=2)
        dep.write(Value.of_size(64, label="first"), 0)
        dep.write(Value.of_size(64, label="second"), 1)
        dep.write(Value.of_size(64, label="third"), 0)
        assert dep.read(0).label == "third"

    def test_write_returns_its_tag(self, kind):
        dep = DEPLOYMENT_BUILDERS[kind](num_writers=1, num_readers=1, seed=5)
        tag = dep.write(Value.of_size(16, label="x"), 0)
        assert isinstance(tag, Tag)
        assert dep.history.operations()[-1].tag == tag

    def test_initial_read_returns_initial_value(self, kind):
        dep = DEPLOYMENT_BUILDERS[kind](num_writers=1, num_readers=1, seed=3)
        assert dep.read(0).label == "v0"

    def test_history_latencies_recorded(self, kind):
        dep = DEPLOYMENT_BUILDERS[kind](num_writers=1, num_readers=1, seed=4)
        dep.write(Value.of_size(16, label="x"), 0)
        dep.read(0)
        writes = dep.history.latencies(OperationType.WRITE)
        reads = dep.history.latencies(OperationType.READ)
        assert len(writes) == 1 and writes[0] > 0
        assert len(reads) == 1 and reads[0] > 0


@pytest.mark.parametrize("kind", sorted(DEPLOYMENT_BUILDERS))
@pytest.mark.parametrize("seed", [0, 1, 2])
class TestConcurrentAtomicity:
    def test_concurrent_operations_are_linearizable(self, kind, seed):
        dep = DEPLOYMENT_BUILDERS[kind](
            num_writers=3, num_readers=3, seed=seed,
            latency=UniformLatency(1.0, 5.0), record_dap=True,
        )
        ops = []
        for round_number in range(2):
            for index in range(3):
                ops.append(dep.spawn_write(dep.writers[index].next_value(64), index))
                ops.append(dep.spawn_read(index))
        dep.run()
        assert all(op.exception() is None for op in ops)
        result = check_linearizability(dep.history)
        assert result.ok, result.reason
        assert check_tag_monotonicity(dep.history) is None
        assert check_dap_properties(dep.dap_recorder) == []


class TestCrashTolerance:
    def test_abd_tolerates_minority(self):
        dep = StaticRegisterDeployment.abd(num_servers=5, num_writers=1, num_readers=1)
        dep.servers[server_id(0)].crash()
        dep.servers[server_id(1)].crash()
        dep.write(Value.of_size(32, label="x"), 0)
        assert dep.read(0).label == "x"

    def test_treas_tolerates_f_crashes(self):
        dep = StaticRegisterDeployment.treas(num_servers=9, k=5, delta=2,
                                             num_writers=1, num_readers=1)
        # f = (9 - 5) / 2 = 2
        dep.servers[server_id(7)].crash()
        dep.servers[server_id(8)].crash()
        dep.write(Value.of_size(100, label="x"), 0)
        assert dep.read(0).label == "x"

    def test_writer_crash_mid_operation_leaves_register_consistent(self):
        dep = StaticRegisterDeployment.treas(num_servers=6, k=4, delta=4,
                                             num_writers=2, num_readers=1,
                                             latency=UniformLatency(1.0, 3.0), seed=9)
        # Start a write and crash the writer before it can finish.
        pending = dep.spawn_write(dep.writers[0].next_value(64), 0)
        dep.sim.run_until(1.5)
        dep.writers[0].crash()
        dep.sim.run()
        assert pending.exception() is not None
        # A full write from another client and a read still work and the
        # overall history stays linearizable (the incomplete write may or may
        # not take effect).
        dep.write(dep.writers[1].next_value(64), 1)
        value = dep.read(0)
        assert value.label in {"writer-0:1", "writer-1:1"}
        result = check_linearizability(dep.history)
        assert result.ok, result.reason


class TestStorageAccounting:
    def test_abd_stores_one_copy_per_server(self):
        dep = StaticRegisterDeployment.abd(num_servers=5, num_writers=1, num_readers=1)
        dep.write(Value.of_size(200, label="x"), 0)
        assert dep.total_storage_data_bytes() == 5 * 200

    def test_treas_stores_fragments(self):
        dep = StaticRegisterDeployment.treas(num_servers=6, k=4, delta=2,
                                             num_writers=1, num_readers=1)
        dep.write(Value.of_size(400, label="x"), 0)
        assert dep.total_storage_data_bytes() == 6 * 100
