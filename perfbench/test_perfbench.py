"""The benchmark's own checks, on shrunken versions of its workloads.

Run with ``python -m pytest perfbench`` from the repository root.  Each
workload's small cell must verify, repeat exactly for one seed, and run
unchanged under the tracer.
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
for _path in (HERE, ROOT / "src", ROOT / "benchmarks"):
    if str(_path) not in sys.path:
        sys.path.append(str(_path))

from metrics import END_TO_END, PER_LAYER, end_to_end, ops_per_s, per_layer  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, make_cell  # noqa: E402

#: Per-layer metrics that are counts, so must repeat exactly for one seed.
EXACT_LAYER_METRICS = (
    "sim.events_per_op", "sim.process.gathers_per_op",
    "core.traversal.read_config_per_op", "net.msgs_per_op.read_config",
    "net.msgs_per_op.dap", "net.msgs_per_op.reconfig", "net.msgs_per_op.paxos",
)


def traced_run(workload: str, seed: int):
    tracer = Tracer()
    with tracer:
        cell = tracer.timed("bench.cell", make_cell(workload, seed, small=True))(
            setup_samples=0)
    return tracer, cell


@pytest.mark.parametrize("workload", WORKLOADS)
def test_small_cell_verifies_and_repeats_exactly(workload):
    cell = make_cell(workload, 3, small=True)
    first, second = cell(), cell()
    assert first.failures == [] and second.failures == []
    assert first.ops == first.planned_ops > 0
    assert first.signature == second.signature
    assert first.exact_counts() == second.exact_counts()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_does_not_perturb_and_counts_repeat(workload):
    untraced = make_cell(workload, 5, small=True)(setup_samples=0)
    tracer, traced = traced_run(workload, 5)
    assert traced.failures == []
    assert traced.signature == untraced.signature
    assert traced.exact_counts() == untraced.exact_counts()
    # The traced per-kind message counts are TrafficStats.per_kind.
    assert dict(tracer.per_kind) == traced.exact_counts()["per_kind"]

    again_tracer, again = traced_run(workload, 5)
    first = per_layer(tracer, [traced], ops_per_s(untraced))
    second = per_layer(again_tracer, [again], ops_per_s(untraced))
    for name in EXACT_LAYER_METRICS:
        assert first[name] == second[name], name
    assert first["sim.events_per_op"] > 0
    assert first["sim.process.gathers_per_op"] > 0


def test_tracer_restores_every_patched_attribute():
    from repro.common import tags
    from repro.dap import treas
    from repro.net.network import Network
    from repro.sim.core import Simulator

    before = (Simulator.run, Network.send, tags.max_tag, treas.max_tag)
    with Tracer():
        assert Simulator.run is not before[0]
        assert treas.max_tag is not before[3]
    assert (Simulator.run, Network.send, tags.max_tag, treas.max_tag) == before


def test_metric_functions_cover_every_declared_metric():
    cell = make_cell("treas_reconfig_churn", 1, small=True)
    untraced = cell(setup_samples=2)
    values = end_to_end([untraced], peak_rss_mb=1.0)
    assert {name for name, _, _ in END_TO_END} <= set(values)
    assert all(values[name] > 0 for name, _, _ in END_TO_END)
    tracer, traced = traced_run("treas_reconfig_churn", 1)
    layer = per_layer(tracer, [traced], ops_per_s(untraced))
    assert set(layer) == {name for name, _, _ in PER_LAYER}
    shares = sum(value for name, value in layer.items()
                 if name.startswith("trace.layer_self_share."))
    assert shares + layer["trace.unattributed_share"] == pytest.approx(1.0)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(PER_LAYER)


def test_fault_activations_match_the_engine_counter():
    # A gray-degradation scenario sheds requests, and the chaos log records
    # each shed; only real fault starts and applications may count.
    from repro.workloads.scenarios import run_scenario

    name = "abd_gray_degradation"
    expected = run_scenario(name, seed=2, metrics=True).metrics.counter_total(
        "fault_activations")
    tracer = Tracer()
    with tracer:
        result = run_scenario(name, seed=2)
    assert expected > 0
    assert tracer.counts["chaos.fault_activations"] == expected
    assert sum(1 for _, text in result.engine.log if text.startswith("shed ")) > 0
