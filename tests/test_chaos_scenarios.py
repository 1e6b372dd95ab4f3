"""Property tests over the chaos scenario registry.

Every registered scenario is executed under many seeds; each run must keep
liveness (no stalled or errored client session) *and* atomicity (the
recorded history passes the full linearizability checker plus the tag
monotonicity condition).  A second battery checks determinism: the same
``(scenario, seed)`` pair must reproduce the history and the chaos log
byte-for-byte.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.workloads.scenarios import (
    SCENARIOS,
    get_scenario,
    register_scenario,
    run_scenario,
    scenario_names,
)

ALL_SCENARIOS = scenario_names()


class TestRegistry:
    def test_registry_is_populated(self):
        assert len(ALL_SCENARIOS) >= 8

    def test_every_dap_is_covered_by_every_core_fault_family(self):
        """The cross-product the issue asks for: DAP x {crash, partition, reconfig}."""
        for dap in ("abd", "ldr", "treas"):
            for fault in ("crash", "partition", "reconfig"):
                matching = [s for s in SCENARIOS.values()
                            if s.dap == dap and fault in s.faults]
                assert matching, f"no scenario covers dap={dap} fault={fault}"

    def test_lookup_errors_name_the_registry(self):
        with pytest.raises(KeyError, match="abd_crash_minority"):
            get_scenario("no_such_scenario")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_scenario(SCENARIOS[ALL_SCENARIOS[0]])


@pytest.mark.parametrize("name", ALL_SCENARIOS)
class TestScenariosAreAtomicAndLive:
    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 200))
    # Seeds 145 and 146 once stalled store_migration_gc: a gather over a
    # retired slice with a crashed server waited forever on its reply.
    @example(seed=145)
    @example(seed=146)
    def test_scenario_survives_its_faults(self, name, seed):
        run_scenario(name, seed=seed).verify()


@pytest.mark.parametrize("name", ["abd_packet_chaos", "treas_gray_failure",
                                  "storm_mixed_dap_chaos"])
def test_same_seed_gives_identical_histories(name):
    first = run_scenario(name, seed=13)
    second = run_scenario(name, seed=13)
    assert first.signature() == second.signature()
    assert first.chaos_log == second.chaos_log


def test_different_seeds_give_different_executions():
    base = run_scenario("treas_gray_failure", seed=0)
    other = run_scenario("treas_gray_failure", seed=1)
    assert base.signature() != other.signature()


def test_run_result_exposes_diagnostics():
    result = run_scenario("treas_crash_restart", seed=3)
    assert result.workload.total_operations > 0
    assert any("crash" in text for _, text in result.chaos_log)
    assert "restart" in result.engine.describe_log()
    assert result.schedule.describe()
