"""The benchmark's workloads: each one is a verified, repeatable *cell*.

A cell is a pure function of the workload seed: running it twice gives the
same history signature hash and the same event and message counts.  The
benchmark repeats one cell for as long as a run lasts and reports medians
over the repetitions, so every repetition must also pass verification.

* ``store_abd_chaos`` -- the ROADMAP's headline scale run
  (``benchmarks/bench_scale.scale_scenario``): three ABD-5 shards, 4 writers
  and 4 readers issuing batched ``multi_put``/``multi_get`` over 256 uniform
  keys with 64 B values, 5% duplication plus reordering and two tolerated
  crashes, verified by the streaming checker.
* ``treas_reconfig_churn`` -- one ARES register on TREAS [6, 4], delta 8, with
  2 writers and 2 readers writing 4 KiB values back to back while a
  reconfigurer moves the register onto six fresh TREAS servers every
  ``RECONFIG_CADENCE`` time units, retiring the old configurations (gc on).
  Streaming verification, no chaos faults.
* ``registry_sweep`` -- every scenario of :data:`REGISTRY_SCENARIOS` times
  :data:`SWEEP_SEEDS` seeds, run serially through ``repro.sweep.engine.campaign(jobs=1)`` with
  batch (non-streaming) verification of every cell.

All three are closed loops in virtual time: a client issues its next
operation only when the previous one completed.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

#: Operations of one ``store_abd_chaos`` cell.
STORE_OPS = 3000

#: Operations per client of one ``treas_reconfig_churn`` cell (two writers
#: and two readers, so 1000 reads and 1000 writes: enough for a p99 with ten
#: samples beyond it).
TREAS_OPS_PER_CLIENT = 500

#: Virtual time between the end of one reconfiguration and the next.
RECONFIG_CADENCE = 120.0

#: One reconfiguration per this many operations of a client keeps the
#: reconfigurations running for about as long as the clients do (an
#: operation takes about 14 time units, a reconfiguration about 50).
OPS_PER_RECONFIG = 12.5

#: The registry scenarios ``registry_sweep`` runs, pinned so that a scenario
#: added to the registry later does not silently change the workload.
REGISTRY_SCENARIOS = (
    "abd_crash_minority", "abd_partition_minority", "abd_reconfig_crash",
    "abd_packet_chaos", "treas_crash_server", "treas_crash_restart",
    "treas_partition_heal", "treas_reconfig_partition", "treas_gray_failure",
    "ldr_crash_replica", "ldr_partition_directory", "ldr_reconfig_crash",
    "storm_mixed_dap_chaos", "store_mixed_dap_storm", "store_hot_shard_crash",
    "store_partition_across_shards", "store_shard_migration_storm",
    "store_dap_flip_under_chaos", "store_rebalance_hot_range",
    "store_migration_gc", "abd_gray_degradation", "treas_gray_degradation",
    "ldr_gray_degradation",
)

#: Seeds per registry scenario in one ``registry_sweep`` cell.
SWEEP_SEEDS = 7

#: Extra set-up-only builds per single-scenario cell: its ``setup_s`` is the
#: median over these and the measured run's own set-up, because one set-up
#: takes well under a millisecond.
SETUP_SAMPLES = 20


class SetupComplete(Exception):
    """Raised at the first simulated event of a set-up-only build."""


@dataclass
class RunSummary:
    """What the benchmark keeps of one scenario run (one sweep cell or a
    whole single-scenario cell), read as soon as the simulation drained."""

    scenario: str
    seed: int
    setup_s: float
    ops: int
    planned_ops: int
    read_latencies: List[float]
    write_latencies: List[float]
    events: int
    messages: int
    data_bytes: int
    metadata_bytes: int
    per_kind: Dict[str, int]
    messages_sent: int
    dropped: int
    duplicated: int
    storage_bytes: int
    live_value_bytes: int
    read_configs: int
    retries: int
    forwarded_lookups: int
    open_window_peak: int
    payload_cache: Dict[str, int]
    decode_cache: Dict[str, int]
    errors: List[str]


@dataclass
class CellResult:
    """One verified repetition of a workload's cell."""

    setup_s: float
    run_s: float
    runs: List[RunSummary]
    signature: str
    failures: List[str] = field(default_factory=list)
    #: Host speed while the cell ran, in calibration-loop iterations per
    #: second (set by the benchmark's repetition loop; 0 when not measured).
    host_rate: float = 0.0

    @property
    def ops(self) -> int:
        return sum(run.ops for run in self.runs)

    @property
    def planned_ops(self) -> int:
        return sum(run.planned_ops for run in self.runs)

    def exact_counts(self) -> Dict[str, object]:
        """Counts that must repeat exactly for one seed."""
        per_kind: Dict[str, int] = {}
        for run in self.runs:
            for kind, count in run.per_kind.items():
                per_kind[kind] = per_kind.get(kind, 0) + count
        return {
            "ops": self.ops,
            "events": sum(run.events for run in self.runs),
            "messages": sum(run.messages for run in self.runs),
            "read_configs": sum(run.read_configs for run in self.runs),
            "per_kind": dict(sorted(per_kind.items())),
        }


class Probe:
    """Stamps each scenario run's start, first simulated event and result.

    Installed around every measured cell, traced or not: it wraps
    ``run_scenario_instance`` (which the sweep engine also resolves through
    the module at call time) and ``ClosedLoopDriver.run``, the point where
    set-up ends and the simulation starts.  The wrappers run once per
    scenario run, read public state only, and schedule nothing.
    """

    def __init__(self) -> None:
        self.summaries: List[RunSummary] = []
        #: When set, runs stop at their first simulated event and only their
        #: set-up time is kept, in :attr:`setup_samples`.
        self.setup_only = False
        self.setup_samples: List[float] = []
        self._first_event: Optional[float] = None
        self._patches: list = []

    def __enter__(self) -> "Probe":
        from repro.workloads import generator, scenarios

        original_run = generator.ClosedLoopDriver.run
        original_instance = scenarios.run_scenario_instance
        probe = self

        def driver_run(driver):
            probe._first_event = time.perf_counter()
            if probe.setup_only:
                raise SetupComplete
            return original_run(driver)

        def run_scenario_instance(scenario, seed=0, **kwargs):
            probe._first_event = None
            start = time.perf_counter()
            try:
                result = original_instance(scenario, seed=seed, **kwargs)
            except SetupComplete:
                probe.setup_samples.append(probe._first_event - start)
                return None
            first = probe._first_event if probe._first_event is not None else start
            probe.summaries.append(summarize(result, first - start))
            return result

        self._patches = [(generator.ClosedLoopDriver, "run", original_run),
                         (scenarios, "run_scenario_instance", original_instance)]
        generator.ClosedLoopDriver.run = driver_run
        scenarios.run_scenario_instance = run_scenario_instance
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []


def _client_ops(result) -> int:
    stream = result.history.stream
    if stream is not None:
        return stream.read_latencies.count + stream.write_latencies.count
    return len(result.workload.read_latencies) + len(result.workload.write_latencies)


def _planned_ops(result) -> int:
    spec = result.scenario.workload
    deployment = result.deployment
    per_step = spec.batch_size if spec.num_keys > 0 else 1
    return per_step * (spec.operations_per_writer * len(deployment.writers)
                       + spec.operations_per_reader * len(deployment.readers))


def _live_value_bytes(result) -> int:
    """Bytes of the objects' current values: one value per written object."""
    deployment = result.deployment
    size = result.scenario.workload.value_size
    if getattr(deployment, "keyed", False):
        written = sum(1 for stored in deployment.storage_by_key().values() if stored)
        return written * size
    wrote = bool(result.workload.write_latencies) or (
        result.history.stream is not None
        and result.history.stream.write_latencies.count > 0)
    return size if wrote else 0


def summarize(result, setup_s: float) -> RunSummary:
    """Read everything the metrics need from a finished scenario run."""
    from repro.common.values import payload_cache_info
    from repro.erasure.rs import decode_cache_info

    deployment = result.deployment
    network = deployment.network
    stats = network.stats
    clients = list(deployment.writers) + list(deployment.readers)
    stream = result.history.stream
    if stream is not None:
        reads = stream.read_latencies.sample()
        writes = stream.write_latencies.sample()
    else:
        reads = list(result.workload.read_latencies)
        writes = list(result.workload.write_latencies)
    return RunSummary(
        scenario=result.scenario.name, seed=result.seed, setup_s=setup_s,
        ops=_client_ops(result), planned_ops=_planned_ops(result),
        read_latencies=reads, write_latencies=writes,
        events=deployment.sim.events_processed,
        messages=stats.global_record.messages,
        data_bytes=stats.global_record.data_bytes,
        metadata_bytes=stats.global_record.metadata_bytes,
        per_kind={kind: record.messages for kind, record in stats.per_kind.items()},
        messages_sent=network.messages_sent,
        dropped=network.messages_dropped,
        duplicated=network.messages_duplicated,
        storage_bytes=deployment.total_storage_data_bytes(),
        live_value_bytes=_live_value_bytes(result),
        read_configs=sum(process.read_config_count
                         for process in clients + list(deployment.reconfigurers)),
        retries=sum(client.retries for client in clients),
        forwarded_lookups=sum(getattr(client, "forwarded_lookups", 0)
                              for client in clients),
        open_window_peak=stream.open_window_peak if stream is not None else 0,
        payload_cache=dict(payload_cache_info()),
        decode_cache=dict(decode_cache_info()),
        errors=list(result.workload.errors) + list(result.reconfig_errors),
    )


# ---------------------------------------------------------------- scenarios
def store_abd_chaos_scenario(total_ops: int = STORE_OPS):
    """The ``store_abd_chaos`` scenario (``bench_scale.scale_scenario``)."""
    from bench_scale import scale_scenario

    return scale_scenario(total_ops)


def treas_reconfig_churn_scenario(ops_per_client: int = TREAS_OPS_PER_CLIENT):
    """The ``treas_reconfig_churn`` scenario: TREAS under live reconfiguration."""
    from repro.chaos.schedule import Schedule
    from repro.core.deployment import AresDeployment, DeploymentSpec
    from repro.net.latency import UniformLatency
    from repro.workloads.generator import WorkloadSpec
    from repro.workloads.scenarios import ChaosScenario

    return ChaosScenario(
        name=f"perfbench_treas_reconfig_churn_{ops_per_client}",
        description=("TREAS [6,4] delta=8, 2 writers + 2 readers, 4 KiB values, "
                     "reconfiguration onto fresh TREAS servers with gc"),
        dap="treas", faults=("reconfig",),
        deployment=lambda seed: AresDeployment(DeploymentSpec(
            num_servers=6, initial_dap="treas", k=4, delta=8, num_writers=2,
            num_readers=2, num_reconfigurers=1,
            latency=UniformLatency(1.0, 2.0), seed=seed)),
        schedule=lambda deployment: Schedule([]),
        workload=WorkloadSpec(
            operations_per_writer=ops_per_client,
            operations_per_reader=ops_per_client,
            value_size=4096, think_time=0.0,
            max_events=max(10_000_000, ops_per_client * 4 * 200)),
        num_reconfigs=max(1, round(ops_per_client / OPS_PER_RECONFIG)),
        reconfig_cadence=RECONFIG_CADENCE, reconfig_daps=("treas",),
        fresh_servers=6, gc=True,
    )


def _error_failures(summaries: List[RunSummary]) -> List[str]:
    """Operation and reconfiguration errors, one failure per scenario run."""
    return [f"{run.scenario} seed {run.seed}: operation errors {run.errors}"
            for run in summaries if run.errors]


def _single_cell(scenario, seed: int) -> Callable[..., CellResult]:
    def run(setup_samples: int = SETUP_SAMPLES) -> CellResult:
        from repro.workloads import scenarios

        with Probe() as probe:
            start = time.perf_counter()
            result = scenarios.run_scenario_instance(scenario, seed=seed,
                                                     streaming=True)
            failure, _ = result.check()
            signature = result.signature_hash()
            wall = time.perf_counter() - start
            probe.setup_only = True
            for _ in range(setup_samples):
                scenarios.run_scenario_instance(scenario, seed=seed, streaming=True)
        summary = probe.summaries[0]
        failures = ([failure] if failure is not None else []) + \
            _error_failures(probe.summaries)
        setup = statistics.median([summary.setup_s] + probe.setup_samples)
        return CellResult(setup_s=setup, run_s=wall - summary.setup_s,
                          runs=[summary], signature=signature, failures=failures)

    return run


def _sweep_cell(seed: int, scenarios: tuple = REGISTRY_SCENARIOS,
                seeds_per_scenario: int = SWEEP_SEEDS) -> Callable[..., CellResult]:
    from repro.sweep.grid import SweepGrid

    first = seed * seeds_per_scenario
    grid = SweepGrid(scenarios=tuple(scenarios),
                     seeds=tuple(range(first, first + seeds_per_scenario)))

    def run(setup_samples: int = 0) -> CellResult:
        """One pass over the grid (its set-up is already summed over many
        cells, so ``setup_samples`` is ignored)."""
        from repro.sweep.engine import campaign

        with Probe() as probe:
            start = time.perf_counter()
            sweep = campaign(grid, jobs=1)
            wall = time.perf_counter() - start
        failures = [f"{record.cell_id}: {record.failure}"
                    for record in sweep.records if not record.ok]
        failures.extend(_error_failures(probe.summaries))
        if len(probe.summaries) != len(grid.expand()):
            failures.append(f"{len(probe.summaries)} of {len(grid.expand())} "
                            "sweep cells ran")
        digest = hashlib.sha256()
        for record in sweep.records:
            digest.update(f"{record.cell_id}={record.signature_hash}\n".encode())
        setup = sum(run.setup_s for run in probe.summaries)
        return CellResult(setup_s=setup, run_s=wall - setup, runs=probe.summaries,
                          signature=digest.hexdigest(), failures=failures)

    return run


def make_cell(workload: str, seed: int, small: bool = False) -> Callable[..., CellResult]:
    """The repeatable cell of ``workload`` for ``seed``.

    ``small`` shrinks every workload to a few hundred operations, for the
    benchmark's own tests.
    """
    if workload == "store_abd_chaos":
        ops = 400 if small else STORE_OPS
        return _single_cell(store_abd_chaos_scenario(ops), seed)
    if workload == "treas_reconfig_churn":
        ops = 50 if small else TREAS_OPS_PER_CLIENT
        return _single_cell(treas_reconfig_churn_scenario(ops), seed)
    if workload == "registry_sweep":
        if small:
            return _sweep_cell(seed, scenarios=REGISTRY_SCENARIOS[::4],
                               seeds_per_scenario=1)
        return _sweep_cell(seed)
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


#: Workload names, in the order ``BENCHMARK.json`` lists them.
WORKLOADS = ("store_abd_chaos", "treas_reconfig_churn", "registry_sweep")
