"""Live per-shard reconfiguration: shard map epochs, migrations, scenarios.

Covers the :class:`~repro.store.shardmap.ShardMap` (epoch counter, entry
points, one key -> register resolution, the ``key_of`` accounting fix,
shard-index validation),
the :class:`~repro.store.reconfigurer.ShardReconfigurer` operations (server
moves, DAP flips, key-range rebalances, splits -- with traffic in flight),
the differential/sweep gates for the three PR-5 reconfiguration scenarios,
and the reconfig-rate sweep axes.  The randomized battery lives in
``test_store_reconfig_property.py``.
"""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError
from repro.common.values import Value
from repro.spec.linearizability import (check_linearizability_per_key,
                                        check_tag_monotonicity_per_key)
from repro.store import ShardSpec, StoreDeployment, StoreSpec
from repro.sweep.engine import campaign, execute_run
from repro.sweep.grid import RunSpec, SweepGrid, parse_grid
from repro.workloads.scenarios import run_scenario

RECONFIG_SCENARIOS = ("store_shard_migration_storm", "store_dap_flip_under_chaos",
                      "store_rebalance_hot_range")


def make_store(**overrides) -> StoreDeployment:
    defaults = dict(
        shards=(ShardSpec(dap="abd", num_servers=5),
                ShardSpec(dap="treas", num_servers=6, k=4, delta=8)),
        num_writers=2, num_readers=2, seed=0)
    defaults.update(overrides)
    return StoreDeployment(StoreSpec(**defaults))


def seed_keys(store: StoreDeployment, count: int = 6) -> list:
    keys = [f"k{i}" for i in range(count)]
    store.multi_put({key: store.writers[0].next_value(64) for key in keys})
    return keys


class TestShardMapEpochs:
    def test_fresh_map_is_epoch_zero_and_resolves(self):
        store = make_store()
        assert store.shard_map.epoch == 0
        cfg = store.shard_map.configuration_for("k0")
        assert cfg is store.shard_map.configuration_for("k0")

    def test_key_of_resolves_migration_created_configurations(self):
        """Regression: ``key_of`` only consulted the shards, so every
        migrated object's bytes vanished from per-key accounting."""
        store = make_store()
        seed_keys(store)
        before = store.storage_by_key()
        store.migrate_shard(0, fresh_servers=5)
        migrated = store.shard_map.keys_on_shard(0)
        after = store.storage_by_key()
        for key in migrated:
            cfg = store.shard_map.configuration_for(key)
            assert store.shard_map.key_of(cfg.cfg_id) == key
            assert after.get(key, 0) >= before.get(key, 0)

    def test_rebalance_window_does_not_create_a_fresh_empty_register(self):
        """Regression for the bug the property harness caught: while a
        rebalance is in flight, resolving a moved-but-materialised key at
        the new placement must join the existing register, not lazily
        create an empty one on the target shard (a fresh reader would
        return the initial value v0 after acknowledged writes)."""
        store = make_store(shards=(ShardSpec(dap="abd", num_servers=5),
                                   ShardSpec(dap="abd", num_servers=5)))
        store.put("k0", Value.from_text("live", label="v-live"))
        source = store.shard_map.shard_index("k0")
        target = 1 - source
        # Take the placement epoch exactly as the reconfigurer does, but do
        # NOT run the data migration: this is the in-flight window.
        store.shard_map.move_keys(["k0"], target)
        cfg = store.shard_map.configuration_for("k0")
        assert cfg.cfg_id.name.startswith(f"st{source}/"), (
            "resolution during the rebalance window left the existing register")
        assert store.get("k0").label == "v-live"

    def test_move_keys_validates_targets(self):
        store = make_store()
        with pytest.raises(ConfigurationError):
            store.shard_map.move_keys(["k0"], 9)
        with pytest.raises(ConfigurationError):
            store.shard_map.move_keys([], 1)


def two_abd_shards() -> StoreDeployment:
    return make_store(shards=(ShardSpec(dap="abd", num_servers=5),
                              ShardSpec(dap="abd", num_servers=5)))


def untouched_key(store: StoreDeployment) -> str:
    return "fresh"


def materialised_key(store: StoreDeployment) -> str:
    store.put("k0", Value.from_text("x", label="vx"))
    return "k0"


def override_placed_key(store: StoreDeployment) -> str:
    target = 1 - store.shard_map.shard_index("moved")
    store.shard_map.move_keys(["moved"], target)
    assert store.shard_map.shard_index("moved") == target
    return "moved"


def migrated_key(store: StoreDeployment) -> str:
    store.put("k0", Value.from_text("x", label="vx"))
    store.migrate_shard(store.shard_map.shard_index("k0"), fresh_servers=5)
    assert "@e1" in store.shard_map.configuration_for("k0").cfg_id.name
    return "k0"


class TestKeyResolution:
    @pytest.mark.parametrize("prepare", [untouched_key, materialised_key,
                                         override_placed_key, migrated_key])
    def test_servers_config_and_key_of_agree(self, prepare):
        store = two_abd_shards()
        key = prepare(store)
        touched = key in store.shard_map.materialised_keys()
        servers = store.shard_map.servers_for_key(key)
        # Asking for the servers must not give an untouched key a register.
        assert (key in store.shard_map.materialised_keys()) == touched
        configuration = store.shard_map.configuration_for(key)
        assert servers == list(configuration.servers)
        assert store.shard_map.key_of(configuration.cfg_id) == key


class TestShardIndexValidation:
    """Regression: out-of-range (notably negative) shard indices were
    accepted; ``migrate_shard(-1)`` installed the new slice on the last
    shard without moving any of its keys."""

    @pytest.mark.parametrize("mutate", [
        lambda store: store.migrate_shard(-1, fresh_servers=5),
        lambda store: store.migrate_shard(2, dap="ldr"),
        lambda store: store.split_shard(7, 0, 1),
        lambda store: store.split_shard(0, 1, -1),
        lambda store: store.shard_map.install_shard(
            -1, ShardSpec(dap="abd", num_servers=5), store.shard_map.shards[0].servers),
        lambda store: store.shard_map.install_shard(
            2, ShardSpec(dap="abd", num_servers=5), store.shard_map.shards[0].servers),
    ], ids=["migrate-negative", "migrate-past-end", "split-source",
            "split-target", "install-negative", "install-past-end"])
    def test_out_of_range_index_is_refused(self, mutate):
        store = two_abd_shards()
        seed_keys(store)
        servers = len(store.servers)
        slices = [shard.servers for shard in store.shard_map.shards]
        with pytest.raises(ConfigurationError):
            mutate(store)
        assert len(store.servers) == servers  # no fresh servers recruited
        assert [shard.servers for shard in store.shard_map.shards] == slices
        assert store.shard_map.epoch == 0
        assert store.reconfigurers[0].completed_migrations == 0


class TestShardMigration:
    def test_migrate_to_fresh_servers_carries_all_objects(self):
        store = make_store()
        keys = seed_keys(store)
        old_servers = set(store.shard_map.shards[0].servers)
        epoch = store.migrate_shard(0, fresh_servers=5)
        assert epoch == 1
        new_servers = set(store.shard_map.shards[0].servers)
        assert old_servers.isdisjoint(new_servers)
        migrated = store.shard_map.keys_on_shard(0)
        assert migrated  # the keyspace hashes onto both shards
        for key in migrated:
            assert set(store.shard_map.servers_for_key(key)) == new_servers
        for key in keys:
            assert store.get(key).label  # every object still readable
        reconfigurer = store.reconfigurers[0]
        assert reconfigurer.completed_migrations == 1
        assert reconfigurer.completed_reconfigs == len(migrated)

    def test_dap_flip_in_place_changes_kind_and_keeps_data(self):
        store = make_store()
        keys = seed_keys(store)
        assert store.shard_map.shards[1].dap == "treas"
        store.migrate_shard(1, dap="abd")
        assert store.shard_map.shards[1].dap == "abd"
        for key in keys:
            value = store.get(key)
            assert value.label.startswith("writer-0:")
        # New objects on the flipped shard materialise as ABD directly.
        fresh = next(f"fresh{i}" for i in range(100)
                     if store.shard_map.shard_index(f"fresh{i}") == 1)
        store.put(fresh, Value.from_text("x", label="vx"))
        cfg = store.shard_map.configuration_for(fresh)
        assert cfg.dap.value == "abd"
        assert "@g1" in cfg.cfg_id.name

    def test_migration_under_live_traffic_stays_linearizable(self):
        store = make_store()
        keys = seed_keys(store, count=8)
        ops = []
        for index, key in enumerate(keys):
            writer = store.writers[index % len(store.writers)]
            ops.append(store.spawn_put(key, writer.next_value(64),
                                       writer_index=index % len(store.writers)))
            ops.append(store.spawn_get(key, reader_index=index % len(store.readers)))
        migration = store.spawn_migrate_shard(0, fresh_servers=5)
        store.run()
        assert migration.done() and migration.exception() is None
        assert all(op.exception() is None for op in ops)
        verdict = check_linearizability_per_key(store.history)
        assert verdict.ok, verdict.reason
        assert check_tag_monotonicity_per_key(store.history) is None

    def test_move_keys_rebalances_and_serves_fresh_keys(self):
        store = make_store(shards=(ShardSpec(dap="abd", num_servers=5),
                                   ShardSpec(dap="abd", num_servers=5),
                                   ShardSpec(dap="abd", num_servers=5)))
        keys = seed_keys(store)
        source = store.shard_map.shard_index("k0")
        target = (source + 1) % 3
        epoch = store.move_keys(["k0", "k1"], target)
        assert epoch == 1
        assert store.shard_map.shard_index("k0") == target
        assert store.shard_map.shard_index("k1") == target
        # A key the reader first touches after the move resolves normally.
        reader = store.readers[0]
        unseen = next(f"n{i}" for i in range(100)
                      if f"n{i}" not in reader.known_keys())
        store.put(unseen, Value.from_text("y", label="vy"))
        assert store.get(unseen).label == "vy"
        for key in keys:
            assert store.get(key).label
        verdict = check_linearizability_per_key(store.history)
        assert verdict.ok, verdict.reason

    def test_split_shard_partitions_keys_across_targets(self):
        store = make_store(shards=(ShardSpec(dap="abd", num_servers=5),
                                   ShardSpec(dap="abd", num_servers=5),
                                   ShardSpec(dap="abd", num_servers=5)))
        seed_keys(store, count=10)
        source = 0
        before = store.shard_map.keys_on_shard(source)
        assert len(before) >= 2
        store.split_shard(source, 1, 2)
        assert store.shard_map.keys_on_shard(source) == []
        on_one = set(store.shard_map.keys_on_shard(1))
        on_two = set(store.shard_map.keys_on_shard(2))
        assert set(before) <= on_one | on_two
        assert on_one & set(before) and on_two & set(before)
        for key in before:
            assert store.get(key).label
        verdict = check_linearizability_per_key(store.history)
        assert verdict.ok, verdict.reason

    def test_split_needs_distinct_targets(self):
        store = make_store()
        seed_keys(store)
        with pytest.raises(ConfigurationError):
            store.split_shard(0, 1, 1)

    def test_migration_records_keyed_reconfig_operations(self):
        store = make_store()
        seed_keys(store)
        store.migrate_shard(0, fresh_servers=5)
        records = store.history.reconfigs()
        assert records
        assert all(record.key is not None for record in records)
        assert {record.key for record in records} == set(
            store.shard_map.keys_on_shard(0))
        # Keyed RECONFIG records ride inside the per-key sub-histories the
        # checkers consume; they must be accepted (ignored), not rejected.
        verdict = check_linearizability_per_key(store.history)
        assert verdict.ok, verdict.reason
        assert check_tag_monotonicity_per_key(store.history) is None


class TestReconfigScenarioDifferential:
    """The PR-5 differential gate: same seed twice, plus the pooled sweep."""

    @pytest.mark.parametrize("name", RECONFIG_SCENARIOS)
    def test_run_twice_same_seed_is_byte_identical(self, name):
        first = run_scenario(name, seed=5)
        first.verify()
        second = run_scenario(name, seed=5)
        assert first.signature() == second.signature()
        assert first.chaos_log == second.chaos_log
        assert first.signature() != run_scenario(name, seed=6).signature()

    @pytest.mark.parametrize("name", RECONFIG_SCENARIOS)
    def test_pooled_sweep_matches_serial_execution(self, name):
        """``campaign(jobs=2)`` vs in-process execution: the --check-serial
        contract must hold for reconfiguring scenarios too."""
        grid = SweepGrid(scenarios=(name,), seeds=(5,))
        pooled = campaign(grid, jobs=2)
        assert pooled.ok, [r.failure for r in pooled.records if not r.ok]
        serial = execute_run(RunSpec(scenario=name, seed=5))
        assert pooled.records[0].signature_hash == serial.signature_hash
        assert pooled.records[0].checker_method == "per-key(fast)"

    def test_migration_storm_migrates_two_shards(self):
        result = run_scenario("store_shard_migration_storm", seed=0)
        result.verify()
        assert result.deployment.reconfigurers[0].completed_migrations == 2
        assert result.deployment.shard_map.epoch == 2
        # The TREAS shard flipped to ABD on fresh servers.
        assert result.deployment.shard_map.shards[1].dap == "abd"

    def test_dap_flip_scenario_flips_shard_zero(self):
        result = run_scenario("store_dap_flip_under_chaos", seed=0)
        result.verify()
        shard = result.deployment.shard_map.shards[0]
        assert shard.dap == "abd"
        assert shard.generation == 1
        assert any("reconfigure(flip shard 0 treas->abd)" in text
                   for _, text in result.chaos_log)

    def test_rebalance_scenario_moves_the_hot_range(self):
        result = run_scenario("store_rebalance_hot_range", seed=0)
        result.verify()
        shard_map = result.deployment.shard_map
        assert shard_map.epoch == 1
        targets = {shard_map.shard_index(key) for key in ("k0", "k1", "k2", "k3")}
        assert len(targets) == 1  # the whole range landed on one shard
        assert any("rebalance hot range" in text for _, text in result.chaos_log)


class TestReconfigRateSweepAxes:
    def test_parse_grid_accepts_reconfig_rate_axes(self):
        grid = parse_grid("scenarios=store_shard_migration_storm;seeds=0;"
                          "num_reconfigs=0,2;reconfig_cadence=4.0,8.0")
        assert grid.params == (("num_reconfigs", (0, 2)),
                               ("reconfig_cadence", (4.0, 8.0)))
        assert len(grid.expand()) == 4

    def test_unknown_axis_error_names_the_reconfig_fields(self):
        with pytest.raises(ValueError, match="num_reconfigs"):
            parse_grid("scenarios=abd_crash_minority;seeds=0;bogus=1")

    def test_reconfig_rate_override_changes_migration_count(self):
        quiet = execute_run(RunSpec(scenario="store_shard_migration_storm",
                                    seed=0, params=(("num_reconfigs", 0),)))
        stormy = execute_run(RunSpec(scenario="store_shard_migration_storm",
                                     seed=0, params=(("num_reconfigs", 2),)))
        assert quiet.ok, quiet.failure
        assert stormy.ok, stormy.failure
        assert quiet.signature_hash != stormy.signature_hash
        assert quiet.cell_id == "store_shard_migration_storm/s0[num_reconfigs=0]"

    def test_reconfig_rate_axis_applies_to_single_register_scenarios(self):
        record = execute_run(RunSpec(scenario="abd_reconfig_crash", seed=0,
                                     params=(("reconfig_cadence", 4.0),
                                             ("num_reconfigs", 1))))
        assert record.ok, record.failure

    def test_inert_cadence_axis_fails_the_cell_explicitly(self):
        """Sweeping reconfig_cadence over a scenario that never reconfigures
        would produce byte-identical cells dressed up as a real sweep; the
        cell must fail with an explicit error (mirroring the keyspace-axis
        mismatch), not report a flat curve."""
        record = execute_run(RunSpec(scenario="abd_crash_minority", seed=0,
                                     params=(("reconfig_cadence", 4.0),)))
        assert not record.ok
        assert "num_reconfigs" in record.failure

    def test_explicit_zero_reconfig_baseline_stays_legitimate(self):
        """A num_reconfigs axis that includes 0 (the no-reconfig baseline of
        a rate sweep) must keep working, even crossed with a cadence axis."""
        record = execute_run(RunSpec(scenario="store_shard_migration_storm",
                                     seed=0, params=(("num_reconfigs", 0),
                                                     ("reconfig_cadence", 4.0))))
        assert record.ok, record.failure
