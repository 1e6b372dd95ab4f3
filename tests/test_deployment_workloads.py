"""Tests for the deployment builder, workload generators and canned scenarios."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError
from repro.common.ids import server_id
from repro.common.values import Value
from repro.core.deployment import AresDeployment, DeploymentSpec
from repro.spec.linearizability import check_linearizability
from repro.store import ShardSpec, StoreDeployment, StoreSpec
from repro.workloads.generator import ClosedLoopDriver, WorkloadSpec
from repro.workloads.scenarios import (
    mixed_scenario,
    read_heavy_scenario,
    reconfiguration_storm,
    write_heavy_scenario,
)


class TestDeploymentBuilder:
    def test_default_spec(self):
        dep = AresDeployment()
        assert len(dep.servers) == 5
        assert len(dep.writers) == 2
        assert len(dep.readers) == 2
        assert len(dep.reconfigurers) == 1

    def test_keyword_overrides(self):
        dep = AresDeployment(num_servers=7, num_writers=1, initial_dap="abd")
        assert len(dep.servers) == 7
        assert dep.initial_configuration.dap.value == "abd"

    @pytest.mark.parametrize("deployment_class, spec_class",
                             [(AresDeployment, DeploymentSpec), (StoreDeployment, StoreSpec)],
                             ids=["AresDeployment", "StoreDeployment"])
    def test_spec_and_overrides_are_mutually_exclusive(self, deployment_class, spec_class):
        with pytest.raises(ConfigurationError):
            deployment_class(spec_class(), num_writers=3)

    @pytest.mark.parametrize("build, first_fresh", [
        (lambda: AresDeployment(num_servers=4), 4),
        (lambda: StoreDeployment(shards=(ShardSpec(dap="abd", num_servers=5),
                                         ShardSpec(dap="treas", num_servers=6, k=4))), 11),
    ], ids=["AresDeployment", "StoreDeployment"])
    def test_add_servers_extends_pool(self, build, first_fresh):
        dep = build()
        added = dep.add_servers(3)
        assert added == [server_id(first_fresh + i) for i in range(3)]
        assert len(dep.servers) == first_fresh + 3

    def test_add_servers_continues_past_migration_recruits(self):
        store = StoreDeployment(shards=(ShardSpec(dap="abd", num_servers=5),
                                        ShardSpec(dap="treas", num_servers=6, k=4)))
        store.put("k1", Value.of_size(64, label="l1"))
        store.migrate_shard(0, fresh_servers=5)
        assert store.shard_map.shards[0].servers == tuple(server_id(11 + i) for i in range(5))
        assert store.add_servers(2) == [server_id(16), server_id(17)]

    def test_make_configuration_with_existing_servers(self):
        dep = AresDeployment(num_servers=6)
        cfg = dep.make_configuration(dap="treas", servers=[server_id(i) for i in range(4)], k=3)
        assert cfg.n == 4 and cfg.k == 3

    def test_make_configuration_defaults_to_initial_servers(self):
        dep = AresDeployment(num_servers=5)
        cfg = dep.make_configuration(dap="abd")
        assert set(cfg.servers) == set(dep.initial_configuration.servers)

    def test_make_configuration_ldr(self):
        dep = AresDeployment(num_servers=5)
        cfg = dep.make_configuration(dap="ldr", fresh_servers=6)
        assert cfg.dap.value == "ldr"
        assert len(cfg.ldr_directories) == 3 and len(cfg.ldr_replicas) == 3

    def test_unknown_dap_rejected(self):
        dep = AresDeployment(num_servers=5)
        with pytest.raises(ConfigurationError):
            dep.make_configuration(dap="paxos-kv")

    def test_unique_config_ids(self):
        dep = AresDeployment(num_servers=5)
        a = dep.make_configuration(dap="abd")
        b = dep.make_configuration(dap="abd")
        assert a.cfg_id != b.cfg_id

    def test_storage_accounting_spans_configurations(self):
        dep = AresDeployment(num_servers=5, initial_dap="treas", delta=2)
        dep.write(Value.of_size(200, label="x"), 0)
        before = dep.total_storage_data_bytes()
        cfg = dep.make_configuration(dap="abd", fresh_servers=3)
        dep.reconfig(cfg, 0)
        after = dep.total_storage_data_bytes()
        assert after > before
        per_config = dep.storage_by_configuration()
        assert set(per_config) >= {dep.initial_configuration.cfg_id, cfg.cfg_id}


class TestWorkloadDriver:
    def test_driver_runs_all_sessions(self):
        dep = AresDeployment(num_servers=5, num_writers=2, num_readers=2, delta=6, seed=1)
        spec = WorkloadSpec(operations_per_writer=3, operations_per_reader=2, value_size=64)
        result = ClosedLoopDriver(dep, spec).run()
        assert result.errors == []
        assert result.total_operations == 2 * 3 + 2 * 2
        assert result.mean_write_latency > 0
        assert result.mean_read_latency > 0
        assert result.throughput > 0

    def test_driver_with_think_time(self):
        dep = AresDeployment(num_servers=5, num_writers=1, num_readers=1, delta=4, seed=2)
        spec = WorkloadSpec(operations_per_writer=2, operations_per_reader=2,
                            value_size=32, think_time=5.0)
        result = ClosedLoopDriver(dep, spec).run()
        assert result.errors == []
        assert result.duration > 0

    def test_workload_history_is_linearizable(self):
        dep = AresDeployment(num_servers=6, num_writers=3, num_readers=3, delta=8, seed=3)
        spec = WorkloadSpec(operations_per_writer=3, operations_per_reader=3, value_size=48)
        result = ClosedLoopDriver(dep, spec).run()
        assert result.errors == []
        assert check_linearizability(dep.history).ok

    def test_empty_workload(self):
        dep = AresDeployment(num_servers=5, num_writers=1, num_readers=1)
        spec = WorkloadSpec(operations_per_writer=0, operations_per_reader=0)
        result = ClosedLoopDriver(dep, spec).run()
        assert result.total_operations == 0
        assert result.throughput == 0.0


class TestScenarios:
    def test_read_heavy(self):
        dep, result = read_heavy_scenario(value_size=256, num_readers=3, seed=1)
        assert result.errors == []
        assert len(result.read_latencies) > len(result.write_latencies)
        assert check_linearizability(dep.history).ok

    def test_write_heavy(self):
        dep, result = write_heavy_scenario(value_size=256, num_writers=3, seed=1)
        assert result.errors == []
        assert len(result.write_latencies) > len(result.read_latencies)
        assert check_linearizability(dep.history).ok

    def test_mixed(self):
        dep, result = mixed_scenario(value_size=128, clients_per_role=2, seed=1)
        assert result.errors == []
        assert result.total_operations == 2 * 4 + 2 * 4
        assert check_linearizability(dep.history).ok

    @pytest.mark.parametrize("direct", [False, True])
    def test_reconfiguration_storm(self, direct):
        dep, result = reconfiguration_storm(num_reconfigs=2, value_size=128,
                                            direct_state_transfer=direct, seed=2)
        assert result.errors == []
        assert len(dep.history.reconfigs()) == 2
        assert check_linearizability(dep.history).ok
